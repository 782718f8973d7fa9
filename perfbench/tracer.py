"""Per-layer tracing of one run, installed from outside the program.

The tracer wraps each layer's public functions with a span that counts
calls and accumulates *self time* (the span's duration minus the spans
nested inside it).  Everything a run does outside every span is the
event loop and network (``net``): ``net.self_s`` is the run's wall time
minus the outermost spans.  The layers and what is wrapped:

* ``protocols`` — each replica's ``deliver_into`` / ``timer_fired_into``;
* ``clients`` — the same entry points of the client pools;
* ``xshard.coord`` — the same entry points of the 2PC coordinator;
* ``crypto.digest`` — ``hashing.digest``, rebound in every ``repro``
  module that imported it by name (``chain_hash`` and ``digest_hex``
  resolve through the rebound module global);
* ``crypto.auth`` — the :class:`Authenticator` methods;
* ``ledger`` — the executor, blockchain and key-value store mutators;
* ``workload.gen`` — ``YcsbWorkload.next_batch``.

Timers armed and cancelled and shard-boundary sends are counted without
spans, so their cost stays in ``net``.

The wrappers cost time of their own, which lands partly inside a span
and partly around it (in the enclosing layer, or ``net`` at the top).
:meth:`Tracer.calibrate` times each kind of wrapper around a no-op, and
:meth:`Tracer.layer_self_s` takes that cost back out of the layer each
call charged it to, so the layers estimate the untraced run.  The
tracer's own callables, such as its network observer, run in a span of
their own (:meth:`Tracer.own`) that belongs to no layer.

Install before the cluster is built: ``SimNetwork`` caches each node's
bound ``deliver_into`` at registration, so a wrapper installed later
would never run.  :meth:`Tracer.check_coverage` verifies that it did.
The patches are process-wide and are never removed; a traced run is a
process of its own.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.messages import PoeCertify, PoePropose, PoeSupport
from repro.crypto import hashing
from repro.crypto.authenticator import Authenticator
from repro.fabric.sharding import ShardBoundary, ShardCoordinator
from repro.ledger.blockchain import Blockchain
from repro.ledger.execution import SpeculativeExecutor
from repro.ledger.store import KeyValueStore
from repro.net.simulator import Simulator, Timer
from repro.protocols.base import ClientNode, ProtocolNode
from repro.protocols.client_messages import ClientRequestMessage
from repro.protocols.replica_base import BatchingReplica
from repro.workload.xshard import COMMIT
from repro.workload.ycsb import YcsbWorkload

_AUTH_METHODS = ("sign", "verify", "mac_sign", "mac_verify", "threshold_share",
                 "threshold_verify_share", "threshold_aggregate", "threshold_verify")

#: (class, method, call counter); every method is a ``ledger`` span.
_LEDGER_METHODS = (
    (SpeculativeExecutor, "execute", "ledger.executions"),
    (SpeculativeExecutor, "rollback_to", "ledger.rollbacks"),
    (SpeculativeExecutor, "fast_forward", "ledger.other_calls"),
    (SpeculativeExecutor, "resync", "ledger.other_calls"),
    (SpeculativeExecutor, "state_digest", "ledger.other_calls"),
    (SpeculativeExecutor, "prune_before", "ledger.other_calls"),
    (Blockchain, "append", "ledger.appends"),
    (Blockchain, "append_checkpoint", "ledger.other_calls"),
    (Blockchain, "truncate_after", "ledger.other_calls"),
    (KeyValueStore, "apply", "ledger.txns_applied"),
    (KeyValueStore, "revert", "ledger.other_calls"),
    (KeyValueStore, "snapshot_digest", "ledger.other_calls"),
    (KeyValueStore, "replace_all", "ledger.other_calls"),
)

#: Node entry points the network calls; each class defines its own.
_HANDLERS = (
    (ProtocolNode, "deliver_into", "deliveries"),
    (BatchingReplica, "deliver_into", "deliveries"),
    (ProtocolNode, "timer_fired_into", "timer_fires"),
    (ClientNode, "deliver_into", "deliveries"),
    (ClientNode, "timer_fired_into", "timer_fires"),
)

#: Which self-time keys make up each reported layer.
LAYER_KEYS = {
    "protocols": ("protocols",),
    "clients": ("clients",),
    "xshard": ("xshard.coord",),
    "crypto": ("crypto.digest", "crypto.auth"),
    "ledger": ("ledger",),
    "workload": ("workload.gen",),
}


#: Self-time keys of the node-handler spans; every other key is a plain span.
_HANDLER_KEYS = ("protocols", "clients", "xshard.coord")


def _wrapper_kind(key: str) -> str:
    if key == "counter":
        return "counter"
    return "handler" if key in _HANDLER_KEYS else "span"


def _handler_layer(cls: type) -> str:
    if issubclass(cls, ShardCoordinator):
        return "xshard.coord"
    if issubclass(cls, ProtocolNode):
        return "protocols"
    return "clients"


class Tracer:
    """Span and counter bookkeeping for one traced run."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Time covered by outermost spans (everything else is ``net``).
        self.top_s = 0.0
        #: Wrapper calls by (span key, or ``counter``; the key of the span
        #: the call ran in, or ``net`` outside every span).
        self.enclosed: Dict[Tuple[str, str], int] = defaultdict(int)
        #: Per-call cost of each wrapper kind: (inside its span, around it).
        self.costs: Dict[str, Tuple[float, float]] = {
            "span": (0.0, 0.0), "handler": (0.0, 0.0), "counter": (0.0, 0.0)}
        #: Virtual CPU ms the replica handlers returned to the network.
        self.replica_cpu_ms = 0.0
        self.rebound_modules: List[str] = []
        self._stack: List[list] = []
        self._handler_spans: set = set()
        self._digest: Optional[Callable] = None

    def reset(self) -> None:
        """Zero every count and time (call outside any span)."""
        self.calls.clear()
        self.self_s.clear()
        self.enclosed.clear()
        self.top_s = 0.0
        self.replica_cpu_ms = 0.0

    # -- wrappers ---------------------------------------------------------------
    def _span(self, fn: Callable, key: str, counter: str) -> Callable:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        enclosed = self.enclosed
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            calls[counter] += 1
            frame = [0.0, key]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[key] += elapsed - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    enclosed[key, parent[1]] += 1
                else:
                    tracer.top_s += elapsed
                    enclosed[key, "net"] += 1
            return result

        span.__wrapped__ = fn
        return span

    def _handler_span(self, fn: Callable, event: str) -> Callable:
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        enclosed = self.enclosed
        clock = time.perf_counter
        tracer = self
        layers: Dict[type, Tuple[str, str]] = {}

        def span(node, *args):
            cls = node.__class__
            layer = layers.get(cls)
            if layer is None:
                key = _handler_layer(cls)
                layer = layers[cls] = (key, f"{key}.{event}")
            key, counter = layer
            calls[counter] += 1
            frame = [0.0, key]
            stack.append(frame)
            start = clock()
            try:
                cpu_ms = fn(node, *args)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[key] += elapsed - frame[0]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    enclosed[key, parent[1]] += 1
                else:
                    tracer.top_s += elapsed
                    enclosed[key, "net"] += 1
            if key == "protocols":
                tracer.replica_cpu_ms += cpu_ms
            return cpu_ms

        span.__wrapped__ = fn
        self._handler_spans.add(span)
        return span

    def own(self, fn: Callable) -> Callable:
        """Wrap a callable of the tracer's own, such as a network observer,
        so that its time is charged to no layer."""
        return self._span(fn, "tracer", "tracer.calls")

    def _counter(self, fn: Callable, counter: str) -> Callable:
        stack = self._stack
        calls = self.calls
        enclosed = self.enclosed

        def counted(*args, **kwargs):
            calls[counter] += 1
            enclosed["counter", stack[-1][1] if stack else "net"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @staticmethod
    def _patch(owner: type, name: str, wrapper_of: Callable[[Callable], Callable]) -> None:
        # Patch only where the method is defined, so an inherited method
        # is never wrapped twice.
        if name not in owner.__dict__:
            raise RuntimeError(f"{owner.__name__}.{name} is not defined there")
        setattr(owner, name, wrapper_of(owner.__dict__[name]))

    def calibrate(self) -> None:
        """Measure each wrapper kind's per-call cost around a no-op.

        The part inside the span's timed interval is what the span's
        elapsed time exceeds a direct call by; the rest is what the whole
        wrapped call exceeds it by.  The cheapest of five rounds of 20,000
        calls is kept.
        """
        iterations = 20_000
        probe = Tracer()
        clock = time.perf_counter

        class Node:
            pass

        def noop(node):
            return 0.0

        def loop(fn) -> float:
            node = Node()
            start = clock()
            for _ in range(iterations):
                fn(node)
            return clock() - start

        wrappers = {"span": probe._span(noop, "probe", "probe"),
                    "handler": probe._handler_span(noop, "probe"),
                    "counter": probe._counter(noop, "probe")}
        best = {kind: (math.inf, math.inf) for kind in wrappers}
        for _ in range(5):
            for kind, wrapper in wrappers.items():
                direct = loop(noop)
                probe.top_s = 0.0
                wrapped = loop(wrapper)
                inside = max(0.0, probe.top_s - direct) / iterations if probe.top_s else 0.0
                outside = max(0.0, wrapped - direct) / iterations - inside
                if inside + outside < sum(best[kind]):
                    best[kind] = (inside, outside)
        self.costs = best

    # -- installation -------------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function (call before building the cluster)."""
        original = hashing.digest
        self._digest = original
        traced = self._span(original, "crypto.digest", "crypto.digest_calls")
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "digest", None) is original:
                setattr(module, "digest", traced)
                self.rebound_modules.append(name)
        for name in _AUTH_METHODS:
            self._patch(Authenticator, name,
                        lambda fn: self._span(fn, "crypto.auth", "crypto.auth_calls"))
        for owner, name, counter in _LEDGER_METHODS:
            self._patch(owner, name, lambda fn, counter=counter:
                        self._span(fn, "ledger", counter))
        self._patch(YcsbWorkload, "next_batch",
                    lambda fn: self._span(fn, "workload.gen", "workload.gen_calls"))
        for owner, name, event in _HANDLERS:
            self._patch(owner, name, lambda fn, event=event: self._handler_span(fn, event))
        self._patch(Simulator, "set_timer",
                    lambda fn: self._counter(fn, "net.timers_armed"))
        self._patch(Timer, "cancel", lambda fn: self._counter(fn, "net.timers_cancelled"))
        self._patch(ShardBoundary, "transmit",
                    lambda fn: self._counter(fn, "xshard.boundary_msgs"))

    def check_coverage(self, networks) -> None:
        """Raise unless every registered node dispatches through a span and
        no ``repro`` module still holds the unwrapped ``digest``."""
        for network in networks:
            # The handle's cached bound method is what the network calls;
            # there is no public accessor for it.
            for node_id, handle in network._nodes.items():
                if getattr(handle.deliver_into, "__func__", None) not in self._handler_spans:
                    raise RuntimeError(f"{node_id} delivers around the tracer")
        stale = [name for name, module in list(sys.modules.items())
                 if name.startswith("repro")
                 and getattr(module, "digest", None) is self._digest]
        if stale:
            raise RuntimeError(f"untraced digest binding in {', '.join(stale)}")

    def overhead_s(self) -> float:
        """The tracer's own time since the last reset: its observers and the
        calibrated cost of every wrapper call."""
        return self.self_s["tracer"] + sum(
            count * sum(self.costs[_wrapper_kind(key)])
            for (key, _), count in self.enclosed.items())

    def layer_self_s(self, wall_s: float) -> Dict[str, float]:
        """Self time per layer, less the tracer's calibrated cost; the
        layers sum to *wall_s* minus :meth:`overhead_s`."""
        own = defaultdict(float, self.self_s)
        own["net"] = wall_s - self.top_s
        for (key, enclosing), count in self.enclosed.items():
            inside, outside = self.costs[_wrapper_kind(key)]
            own[key] -= count * inside
            own[enclosing] -= count * outside
        layers = {"net": own["net"]}
        for layer, keys in LAYER_KEYS.items():
            layers[layer] = sum(own[key] for key in keys)
        return layers


class PhaseObserver:
    """Network observer: delivered traffic and per-batch PoE phase times.

    For each client batch it takes the first delivery of its
    ``ClientRequestMessage`` (request phase ends) and of its
    ``PoePropose`` (propose phase ends).  The support phase ends at the
    first ``PoeCertify`` (threshold PoE), or when some replica has
    received the ``nf - 2`` ``PoeSupport`` votes that, with its own and
    the primary's, make a MAC quorum.  The inform phase runs from there
    to the client's completion.
    """

    def __init__(self, nf: int) -> None:
        self.supports_needed = nf - 2
        self.delivered = 0
        self.delivered_bytes = 0
        self._request_at: Dict[str, float] = {}
        self._propose_at: Dict[str, float] = {}
        self._slots_of: Dict[str, List[Tuple]] = defaultdict(list)
        self._support_at: Dict[Tuple, float] = {}
        self._support_votes: Dict[Tuple, int] = defaultdict(int)

    def __call__(self, sender: str, receiver: str, message, time_ms: float) -> None:
        self.delivered += 1
        self.delivered_bytes += message.size_bytes
        cls = message.__class__
        if cls is ClientRequestMessage:
            self._request_at.setdefault(message.batch.batch_id, time_ms)
        elif cls is PoePropose:
            batch_id = message.batch.batch_id
            self._propose_at.setdefault(batch_id, time_ms)
            slot = (receiver.partition("/")[0], message.view, message.sequence)
            if slot not in self._slots_of[batch_id]:
                self._slots_of[batch_id].append(slot)
        elif cls is PoeCertify:
            slot = (receiver.partition("/")[0], message.view, message.sequence)
            self._support_at.setdefault(slot, time_ms)
        elif cls is PoeSupport and message.share is None:
            shard = receiver.partition("/")[0]
            votes_key = (receiver, message.view, message.sequence)
            self._support_votes[votes_key] += 1
            if self._support_votes[votes_key] == self.supports_needed:
                self._support_at.setdefault((shard, message.view, message.sequence),
                                            time_ms)

    def phases(self, completions) -> Tuple[Dict[str, float], int]:
        """Median per-phase virtual ms over batches with every timestamp."""
        samples: Dict[str, List[float]] = {
            "request": [], "propose": [], "support": [], "inform": []}
        for record in completions:
            batch_id = record.batch_id
            requested = self._request_at.get(batch_id)
            proposed = self._propose_at.get(batch_id)
            if requested is None or proposed is None:
                continue
            supported = [self._support_at[slot] for slot in self._slots_of[batch_id]
                         if self._support_at.get(slot, -1.0) >= proposed]
            if not supported:
                continue
            supported_at = min(supported)
            samples["request"].append(requested - record.submitted_at_ms)
            samples["propose"].append(proposed - requested)
            samples["support"].append(supported_at - proposed)
            samples["inform"].append(record.completed_at_ms - supported_at)
        count = len(samples["request"])
        return ({phase: statistics.median(values) if values else 0.0
                 for phase, values in samples.items()}, count)


def commit_fraction(cluster) -> float:
    """Share of the coordinator's 2PC decisions that committed."""
    coordinator = getattr(cluster, "coordinator", None)
    if coordinator is None or not coordinator.journal:
        return 0.0
    decisions = [entry["decision"] for entry in coordinator.journal.values()]
    return sum(decision == COMMIT for decision in decisions) / len(decisions)
