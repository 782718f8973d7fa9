"""Multi-group sharded deployments: S consensus groups plus cross-shard 2PC.

A :class:`ShardedCluster` partitions the keyspace across ``S`` independent
consensus groups ("shards"), each running any of the registered protocols
over its own namespaced replica set, all advancing on **one** deterministic
:class:`~repro.net.simulator.Simulator`.  Single-shard batches follow the
ordinary client path inside their shard.  Cross-shard transactions run
two-phase commit over the shards' consensus instances:

* **prepare** — the coordinator consensus-commits a PREPARE record in every
  touched shard; the shard's replicas transition the transaction to
  *prepared* (or refuse it) as a deterministic function of their log.
* **decide** — once every shard reports prepared, the coordinator
  consensus-commits a COMMIT record carrying, per shard, ``f + 1`` distinct
  replica attestations of the prepare outcome; any refusal yields an ABORT
  record instead.  Replicas validate the certificate before applying the
  decision (:func:`~repro.workload.xshard.decide_record_valid`), which is
  what stops a Byzantine coordinator from equivocating commit to one shard
  and abort to another.

Coordinator failure is survived by the submitting client pool: after two
request timeouts it PROBEs every touched shard (unprepared shards refuse —
presumed abort), derives the only certificate-consistent decision, and
writes the decide records itself.

Each shard owns its **own** :class:`~repro.net.simulator.Simulator` (a
:class:`ShardRuntime`); the client pools and the coordinator live on a hub
network hosted by the home runtime (shard 0).  All cross-runtime traffic
crosses an explicit :class:`ShardBoundary` with deterministic, RNG-free
send→deliver timestamps, and :meth:`ShardedCluster.run_until_done`
advances the runtimes through conservative time windows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.fabric.cluster import Cluster, ClusterConfig, replica_id
from repro.fabric.metrics import MetricsWindow, RunResult, summarize
from repro.fabric.registry import ProtocolSpec, get_spec
from repro.net.byzantine import ByzantineSpec, make_behavior
from repro.net.conditions import NetworkConditions
from repro.net.faults import FaultSchedule
from repro.net.network import SimNetwork
from repro.net.simulator import Simulator
from repro.protocols.base import ClientNode, NodeConfig
from repro.protocols.client_messages import ClientReplyMessage
from repro.protocols.quorum import VoteSet
from repro.workload.clients import CompletionRecord, ShardedClientPool
from repro.workload.xshard import (
    COMMIT,
    PREPARE,
    CoordAck,
    CoordSubmit,
    CrossShardPlan,
    ShardLayout,
    ShardTxnManager,
    decide_from_outcomes,
    decode_outcome,
    make_control_batch,
    parse_control_batch_id,
    synthetic_sharded_source,
    ycsb_sharded_source,
)
from repro.workload.ycsb import YcsbConfig, YcsbWorkload


def coordinator_id(index: int = 0) -> str:
    """Canonical coordinator identifier."""
    return f"coord:{index}"


def pool_id(index: int) -> str:
    """Canonical sharded client-pool identifier."""
    return f"pool:{index}"


# -- coordinator -------------------------------------------------------------------

@dataclass(slots=True)
class _CoordTxn:
    """Coordinator-side book-keeping for one in-flight 2PC."""

    plan: CrossShardPlan
    reply_pool: str
    submitted_at_ms: float
    mode: str = "prepare"  # "prepare" | "decide"
    votes: Dict[Tuple, VoteSet] = field(default_factory=dict)
    phase_results: Dict[int, Tuple[str, Tuple[str, ...]]] = field(default_factory=dict)
    decision: str = ""
    cert: Tuple = ()
    retries: int = 0


class ShardCoordinator(ClientNode):
    """Drives two-phase commit for cross-shard transactions.

    The coordinator is an ordinary client of every shard: the PREPARE
    record is a consensus-committed batch whose replies (stamped with the
    per-replica prepare outcome) it counts per shard.  Decide records
    carry the submitting pool as ``reply_to``, so the pool — not the
    coordinator — observes decide completion and acknowledges with
    :class:`~repro.workload.xshard.CoordAck`.  Until that ack arrives the
    coordinator retransmits with exponential backoff, which makes the
    decide phase survive message loss without any extra machinery.

    ``journal`` keeps every decision and its certificate for the safety
    auditor.
    """

    #: Retransmission rounds before an undecided transaction is abandoned
    #: to the pool's probe-based recovery.
    MAX_RETRIES = 8

    def __init__(self, node_id: str, config: NodeConfig, layout: ShardLayout,
                 timeout_ms: Optional[float] = None) -> None:
        super().__init__(node_id, config)
        self.layout = layout
        self.timeout_ms = timeout_ms if timeout_ms is not None else config.request_timeout_ms
        #: txn -> {"decision", "cert", "shards", "decided_at_ms"}.
        self.journal: Dict[str, Dict[str, object]] = {}
        self._views = [0] * layout.num_shards
        self._pending: Dict[str, _CoordTxn] = {}

    # -- messages ----------------------------------------------------------------
    def on_message(self, sender: str, message, now_ms: float) -> None:
        if isinstance(message, CoordSubmit):
            self._on_submit(message, now_ms)
        elif isinstance(message, CoordAck):
            self._on_ack(message.txn)
        elif isinstance(message, ClientReplyMessage):
            self._on_reply(sender, message, now_ms)

    def _on_submit(self, message: CoordSubmit, now_ms: float) -> None:
        plan = message.plan
        if plan is None or plan.txn in self._pending:
            return
        pending = _CoordTxn(plan=plan, reply_pool=message.reply_to,
                            submitted_at_ms=now_ms)
        self._pending[plan.txn] = pending
        entry = self.journal.get(plan.txn)
        if entry is not None:
            # Already decided in a previous life of this transaction
            # (duplicate submit): replay the recorded decision.
            pending.mode = "decide"
            pending.decision = str(entry["decision"])
            pending.cert = tuple(entry["cert"])  # type: ignore[arg-type]
            self._send_decides(pending, now_ms, retransmission=True)
        else:
            self._send_prepares(pending, now_ms, retransmission=False)
        self.set_timer(f"txn:{plan.txn}", self.timeout_ms, payload=plan.txn)

    def _on_ack(self, txn: str) -> None:
        if self._pending.pop(txn, None) is not None:
            self.cancel_timer(f"txn:{txn}")

    def _on_reply(self, sender: str, message: ClientReplyMessage,
                  now_ms: float) -> None:
        parsed = parse_control_batch_id(message.batch_id)
        if parsed is None:
            return
        txn, phase, shard = parsed
        pending = self._pending.get(txn)
        if (pending is None or pending.mode != "prepare" or phase != PREPARE
                or not 0 <= shard < self.layout.num_shards):
            return
        key = message.matching_key()
        votes = pending.votes.get(key)
        if votes is None:
            votes = pending.votes[key] = VoteSet(self.layout.index_map(shard))
        votes.add(sender)
        if message.view > self._views[shard]:
            self._views[shard] = message.view
        if votes.count < self.layout.reply_quorum(shard):
            return
        outcome = decode_outcome(message.result_digest, txn, phase, shard)
        if outcome is None or shard in pending.phase_results:
            return
        pending.phase_results[shard] = (outcome, tuple(sorted(votes)))
        if all(s in pending.phase_results for s in pending.plan.shards):
            self._decide(txn, pending, now_ms)

    # -- 2PC phases --------------------------------------------------------------
    def _send_prepares(self, pending: _CoordTxn, now_ms: float,
                       retransmission: bool) -> None:
        for shard in pending.plan.shards:
            if shard in pending.phase_results:
                continue
            batch = make_control_batch(
                pending.plan.txn, PREPARE, shard, pending.plan.shards,
                reply_to=self.node_id, created_at_ms=now_ms)
            self._send_control(shard, batch, self.node_id, retransmission)

    def _decide(self, txn: str, pending: _CoordTxn, now_ms: float) -> None:
        decision = decide_from_outcomes(
            pending.phase_results[s][0] for s in pending.plan.shards)
        pending.decision = decision
        pending.cert = tuple(
            (shard,) + pending.phase_results[shard]
            for shard in pending.plan.shards)
        pending.mode = "decide"
        self.journal[txn] = {
            "decision": decision,
            "cert": pending.cert,
            "shards": pending.plan.shards,
            "decided_at_ms": now_ms,
        }
        self._send_decides(pending, now_ms, retransmission=False)

    def _send_decides(self, pending: _CoordTxn, now_ms: float,
                      retransmission: bool) -> None:
        for shard in pending.plan.shards:
            payload = (pending.plan.slice_for(shard)
                       if pending.decision == COMMIT else ())
            batch = make_control_batch(
                pending.plan.txn, pending.decision, shard, pending.plan.shards,
                cert=pending.cert, payload_txns=payload,
                reply_to=pending.reply_pool, created_at_ms=now_ms)
            self._send_control(shard, batch, pending.reply_pool, retransmission)

    def _send_control(self, shard: int, batch, reply_to: str,
                      retransmission: bool) -> None:
        from repro.protocols.client_messages import ClientRequestMessage

        message = ClientRequestMessage(
            batch=batch,
            reply_to=reply_to,
            retransmission=retransmission,
            size_bytes=self.config.proposal_size_bytes(1),
        )
        if retransmission or self.layout.wants_broadcast(shard):
            for rid in self.layout.replicas(shard):
                self.send(rid, message)
        else:
            self.send(self.layout.primary(shard, self._views[shard]), message)

    # -- timeouts ----------------------------------------------------------------
    def on_timer(self, name: str, payload, now_ms: float) -> None:
        if not name.startswith("txn:"):
            return
        pending = self._pending.get(payload)
        if pending is None:
            return
        pending.retries += 1
        if pending.retries > self.MAX_RETRIES:
            # Hand the transaction over to the pool's probe-based recovery
            # rather than retrying forever; the journal keeps the decision.
            del self._pending[payload]
            return
        if pending.mode == "prepare":
            self._send_prepares(pending, now_ms, retransmission=True)
        else:
            self._send_decides(pending, now_ms, retransmission=True)
        backoff = self.timeout_ms * (2 ** min(pending.retries, 4))
        self.set_timer(f"txn:{payload}", backoff, payload=payload)


# -- configuration -----------------------------------------------------------------

@dataclass
class ShardedClusterConfig:
    """Parameters of one sharded deployment.

    Attributes:
        num_shards: number of consensus groups ``S``.
        protocols: protocol key per shard; a single string applies to all
            shards.  SBFT is rejected: its aggregated single-reply path
            cannot yield the ``f + 1`` distinct replica attestations the
            cross-shard certificates are built from.
        num_replicas: replicas per shard.
        cross_shard_fraction: probability that a generated request is a
            two-shard transaction instead of a single-shard batch.
        use_coordinator: drive 2PC through a dedicated coordinator node
            (``False`` = the pools always self-drive).
        shard_faults / shard_byzantine: per-shard fault schedule and
            Byzantine replica spec, keyed by shard index.
        hub_faults: fault schedule of the client/coordinator network —
            crash ``coord:0`` here for the crash-mid-2PC scenarios.
        coordinator_behavior: optional Byzantine behaviour name installed
            on the coordinator's network boundary (e.g.
            ``"equivocate-coordinator"``, ``"stall-coordinator"``).
    """

    num_shards: int = 2
    protocols: Union[str, Tuple[str, ...]] = "poe-mac"
    num_replicas: int = 4
    batch_size: int = 16
    num_pools: int = 1
    client_outstanding: int = 4
    total_batches: Optional[int] = 40
    cross_shard_fraction: float = 0.2
    use_coordinator: bool = True
    execute_operations: bool = False
    use_ycsb_payload: bool = False
    out_of_order: bool = True
    request_timeout_ms: float = 3000.0
    checkpoint_interval: int = 50
    conditions: Optional[NetworkConditions] = None
    shard_faults: Dict[int, FaultSchedule] = field(default_factory=dict)
    shard_byzantine: Dict[int, ByzantineSpec] = field(default_factory=dict)
    hub_faults: Optional[FaultSchedule] = None
    coordinator_behavior: Optional[str] = None
    coordinator_behavior_options: Dict[str, object] = field(default_factory=dict)
    ycsb: Optional[YcsbConfig] = None
    seed: int = 1

    def protocol_for(self, shard: int) -> str:
        if isinstance(self.protocols, str):
            return self.protocols
        return self.protocols[shard]

    def pool_ids(self) -> List[str]:
        return [pool_id(i) for i in range(self.num_pools)]


# -- shard boundary ----------------------------------------------------------------

#: The runtime hosting the hub network (client pools + coordinator).
HOME_SHARD = 0


@dataclass(frozen=True)
class BoundaryEvent:
    """One message crossing between shard runtimes.

    Timestamps are fixed by the *sending* runtime (deterministically, see
    :meth:`ShardBoundary.transmit`), so delivery never depends on the
    receiving runtime's RNG.  ``(deliver_at_ms, source, send_seq)`` is the
    canonical inbox order: every window's inbox is sorted by it before
    injection, which pins the receiving simulator's tie-breaking sequence
    numbers.
    """

    deliver_at_ms: float
    source: int
    send_seq: int
    sender: str
    receiver: str
    message: object
    send_time_ms: float


def boundary_event_order(event: BoundaryEvent) -> Tuple[float, int, int]:
    """Canonical injection order for one window's inbox."""
    return (event.deliver_at_ms, event.source, event.send_seq)


def runtime_of(node_id: str) -> int:
    """Map a node id to the index of its home runtime.

    Shard replicas are namespaced ``s<k>/...``; everything else (pools,
    the coordinator, unknown receivers) lives on the hub, i.e. the home
    runtime.
    """
    if node_id.startswith("s"):
        slash = node_id.find("/")
        if slash > 1:
            try:
                return int(node_id[1:slash])
            except ValueError:
                pass
    return HOME_SHARD


class ShardBoundary:
    """The deterministic cross-shard channel of one runtime.

    Attached as ``network.boundary`` to every network the runtime hosts.
    A send whose receiver is not registered on the origin network lands
    here; the boundary stamps it with an RNG-free delay (base latency —
    overrides and topology apply, jitter and loss do not — plus
    serialization, :meth:`NetworkConditions.boundary_delay_ms`) and either

    * delivers it directly when the receiver lives on a *sibling network
      of the same runtime* (the hub and shard 0 share the home simulator —
      this fast path is runtime-internal), or
    * appends it to the runtime's outbox, to be exchanged at the next
      window barrier.

    Every delay is at least :attr:`lookahead_ms`, which is what makes the
    conservative windows of :meth:`ShardedCluster.run_until_done` safe: a
    message sent in the window ``(T, E]`` with ``E = t_min + lookahead`` has
    ``send_time >= t_min`` and so delivers at or after ``E`` — no boundary
    message can ever target the window it was sent in.
    """

    def __init__(self, source: int, conditions: NetworkConditions) -> None:
        self.source = source
        self.conditions = conditions
        self.lookahead_ms = conditions.min_propagation_ms()
        if self.lookahead_ms <= 0:
            raise ValueError(
                "sharded deployments need a positive minimum cross-shard "
                "propagation delay (the conservative-window lookahead)")
        self._networks: List[SimNetwork] = []
        self._outbox: List[BoundaryEvent] = []
        self._seq = 0

    def attach(self, network: SimNetwork) -> None:
        """Host *network* on this boundary (its misses route through us)."""
        network.boundary = self
        self._networks.append(network)

    def transmit(self, origin: SimNetwork, sender: str, receiver: str,
                 message, ready_at: float) -> bool:
        """Route one cross-network send (the ``network.boundary`` hook)."""
        now = origin.sim.now
        send_time = ready_at if ready_at > now else now
        deliver_at = send_time + self.conditions.boundary_delay_ms(
            sender, receiver, message.size_bytes, send_time)
        for network in self._networks:
            if network is origin:
                continue
            if receiver in network._nodes:
                network.deliver_boundary(sender, receiver, message,
                                         send_time, deliver_at)
                return True
        seq = self._seq
        self._seq = seq + 1
        self._outbox.append(BoundaryEvent(
            deliver_at_ms=deliver_at, source=self.source, send_seq=seq,
            sender=sender, receiver=receiver, message=message,
            send_time_ms=send_time))
        return True

    def inject(self, event: BoundaryEvent) -> None:
        """Deliver an inbound boundary event into its home network."""
        for network in self._networks:
            if event.receiver in network._nodes:
                network.deliver_boundary(event.sender, event.receiver,
                                         event.message, event.send_time_ms,
                                         event.deliver_at_ms)
                return
        self._networks[0].dropped_count += 1

    def take_outbox(self) -> List[BoundaryEvent]:
        outbox = self._outbox
        self._outbox = []
        return outbox


# -- configuration helpers ---------------------------------------------------------

def _hub_conditions(config: ShardedClusterConfig) -> NetworkConditions:
    # dataclasses.replace re-runs __post_init__, so a shared config object
    # yields per-runtime conditions with *independent but identically
    # seeded* RNGs — each runtime draws its own, reproducible stream.
    if config.conditions is not None:
        return replace(config.conditions)
    return NetworkConditions.lan(seed=config.seed)


def _shard_conditions(config: ShardedClusterConfig, shard: int) -> NetworkConditions:
    # Every shard draws from its own conditions RNG so shard k's traffic
    # cannot perturb shard j's latency stream.
    if config.conditions is not None:
        return replace(config.conditions)
    return NetworkConditions.lan(seed=config.seed * 101 + shard)


def _ycsb_config(config: ShardedClusterConfig) -> Optional[YcsbConfig]:
    if not (config.execute_operations or config.use_ycsb_payload):
        return None
    # One shared YCSB universe: every shard's replicas hold the same
    # initial table, and the sharded sources route keys by crc32.
    return config.ycsb or YcsbConfig.small(seed=config.seed)


def _pool_source(config: ShardedClusterConfig, pid: str):
    if not config.use_ycsb_payload:
        return synthetic_sharded_source(
            pid, config.num_shards, config.batch_size,
            config.cross_shard_fraction, seed=config.seed)
    workload = YcsbWorkload(_ycsb_config(config), client_id=pid)
    return ycsb_sharded_source(
        workload, config.num_shards, config.batch_size,
        config.cross_shard_fraction, seed=config.seed)


def _shard_cluster_config(config: ShardedClusterConfig, shard: int) -> ClusterConfig:
    return ClusterConfig(
        protocol=config.protocol_for(shard),
        num_replicas=config.num_replicas,
        batch_size=config.batch_size,
        num_clients=0,
        total_batches=None,
        out_of_order=config.out_of_order,
        execute_operations=config.execute_operations,
        request_timeout_ms=config.request_timeout_ms,
        checkpoint_interval=config.checkpoint_interval,
        conditions=_shard_conditions(config, shard),
        faults=config.shard_faults.get(shard),
        byzantine=config.shard_byzantine.get(shard),
        ycsb=_ycsb_config(config),
        seed=config.seed,
        namespace=f"s{shard}/",
    )


def _reply_quorum(rule: Optional[str], n: int) -> int:
    f = (n - 1) // 3
    rule = rule or "f+1"
    if rule == "nf":
        return n - f
    if rule == "f+1":
        return f + 1
    if rule == "n":
        return n
    raise ValueError(f"unsupported client quorum {rule!r} for sharding")


def layout_for_config(config: ShardedClusterConfig) -> ShardLayout:
    """The shard layout implied by a config, computed without building
    any cluster."""
    members = []
    quorums = []
    broadcast = []
    for shard in range(config.num_shards):
        spec: ProtocolSpec = get_spec(config.protocol_for(shard))
        n = config.num_replicas
        members.append(tuple(
            f"s{shard}/" + replica_id(i) for i in range(n)))
        quorums.append(_reply_quorum(spec.client_quorum, n))
        broadcast.append(bool(spec.broadcast_requests))
    return ShardLayout(
        members=tuple(members),
        reply_quorums=tuple(quorums),
        broadcast_requests=tuple(broadcast),
    )


def hub_node_config(config: ShardedClusterConfig,
                    layout: ShardLayout) -> NodeConfig:
    """The NodeConfig shared by hub-side nodes (pools, coordinator)."""
    return NodeConfig(
        replica_ids=[rid for shard in layout.members for rid in shard],
        batch_size=config.batch_size,
        request_timeout_ms=config.request_timeout_ms,
        checkpoint_interval=config.checkpoint_interval,
        execute_operations=config.execute_operations,
        out_of_order=config.out_of_order,
    )


# -- per-shard runtime -------------------------------------------------------------

class ShardRuntime:
    """One shard's self-contained simulation: simulator, consensus group,
    boundary channel — and, on the home shard, the hub network with the
    client pools and the 2PC coordinator.

    Everything a runtime does between window barriers is a deterministic
    function of its config and the injected inbox.
    """

    def __init__(self, config: ShardedClusterConfig, shard: int,
                 layout: ShardLayout) -> None:
        self.config = config
        self.shard = shard
        self.layout = layout
        self.simulator = Simulator()
        self.boundary = ShardBoundary(shard, _hub_conditions(config))
        self.cluster = Cluster(_shard_cluster_config(config, shard),
                               simulator=self.simulator)
        for replica in self.cluster.replicas:
            replica.control_layer = ShardTxnManager(shard, self.layout)
        self.boundary.attach(self.cluster.network)
        self.node_config = hub_node_config(config, self.layout)
        self.hub: Optional[SimNetwork] = None
        self.coordinator: Optional[ShardCoordinator] = None
        self.pools: List[ShardedClientPool] = []
        if shard == HOME_SHARD:
            self._build_hub()

    def _build_hub(self) -> None:
        config = self.config
        self.hub = SimNetwork(
            self.simulator,
            conditions=_hub_conditions(config),
            faults=config.hub_faults or FaultSchedule.none(),
        )
        self.boundary.attach(self.hub)
        if config.use_coordinator:
            self.coordinator = ShardCoordinator(
                coordinator_id(), self.node_config, self.layout,
                timeout_ms=config.request_timeout_ms)
            self.hub.add_client(self.coordinator)
            self._attach_coordinator_behavior()
        for pid in config.pool_ids():
            pool = ShardedClientPool(
                node_id=pid,
                config=self.node_config,
                layout=self.layout,
                batch_source=_pool_source(config, pid),
                target_outstanding=config.client_outstanding,
                total_batches=config.total_batches,
                timeout_ms=config.request_timeout_ms,
                coordinator_id=self.coordinator.node_id if self.coordinator else "",
            )
            self.pools.append(pool)
            self.hub.add_client(pool)

    def _attach_coordinator_behavior(self) -> None:
        name = self.config.coordinator_behavior
        if not name or self.coordinator is None:
            return
        behavior = make_behavior(name, **self.config.coordinator_behavior_options)
        self.hub.set_byzantine(self.coordinator.node_id, behavior,
                               seed=self.config.seed)
        behavior.install(self.hub.node(self.coordinator.node_id))

    # -- windowed execution ------------------------------------------------------
    def start(self) -> None:
        """Boot every hosted node at t=0."""
        self.cluster.start()
        if self.hub is not None:
            self.hub.start_all()

    def window(self, edge_ms: float, inbox: Sequence[BoundaryEvent]) -> None:
        """Inject one barrier's inbox, then advance to *edge_ms*.

        The inbox must already be in canonical order
        (:func:`boundary_event_order`); injection order assigns the
        receiving simulator's tie-breaking sequence numbers.
        """
        for event in inbox:
            self.boundary.inject(event)
        self.simulator.run(until_ms=edge_ms)


# -- the sharded cluster -----------------------------------------------------------

class ShardedCluster:
    """S per-shard runtimes, a coordinator and sharded client pools.

    Each shard advances on its **own** :class:`Simulator` inside a
    :class:`ShardRuntime`; the client pools and the coordinator live on a
    hub network hosted by the home runtime.  Cross-runtime traffic crosses
    the deterministic :class:`ShardBoundary`, and :meth:`run_until_done`
    advances all runtimes, in shard order, through conservative windows.
    """

    def __init__(self, config: ShardedClusterConfig) -> None:
        for shard in range(config.num_shards):
            if config.protocol_for(shard) == "sbft":
                raise ValueError(
                    "sbft shards are unsupported: aggregated replies cannot "
                    "produce the f+1 distinct attestations cross-shard "
                    "certificates require")
        self.config = config
        self.layout = layout_for_config(config)
        self.runtimes: List[ShardRuntime] = [
            ShardRuntime(config, shard, self.layout)
            for shard in range(config.num_shards)]
        home = self.runtimes[HOME_SHARD]
        self.shard_clusters: List[Cluster] = [
            runtime.cluster for runtime in self.runtimes]
        self.hub = home.hub
        self.node_config = home.node_config
        self.coordinator = home.coordinator
        self.pools = home.pools
        self.byzantine_ids: List[str] = [
            rid for cluster in self.shard_clusters for rid in cluster.byzantine_ids]
        if self.coordinator is not None and config.coordinator_behavior:
            self.byzantine_ids.append(self.coordinator.node_id)
        #: Boundary events collected at the last barrier, per receiving
        #: runtime and in canonical order; ``None`` until :meth:`start`.
        self._inboxes: Optional[List[List[BoundaryEvent]]] = None

    # -- introspection -----------------------------------------------------------
    @property
    def lookahead_ms(self) -> float:
        return self.runtimes[0].boundary.lookahead_ms

    @property
    def now(self) -> float:
        """Virtual time (all runtimes share each window edge)."""
        return max(runtime.simulator.now for runtime in self.runtimes)

    @property
    def processed_events(self) -> int:
        """Total events executed across every runtime's simulator."""
        return sum(runtime.simulator.processed_events
                   for runtime in self.runtimes)

    @property
    def shard_processed_events(self) -> List[int]:
        """Per-runtime event counts, in shard order (home runtime first)."""
        return [runtime.simulator.processed_events
                for runtime in self.runtimes]

    @property
    def shard_clocks(self) -> List[float]:
        return [runtime.simulator.now for runtime in self.runtimes]

    # -- running -----------------------------------------------------------------
    def start(self) -> None:
        """Boot every runtime (shards, then hub nodes on the home shard)."""
        for runtime in self.runtimes:
            runtime.start()
        self._inboxes = self._exchange()

    def _exchange(self) -> List[List[BoundaryEvent]]:
        """Drain every runtime's outbox into canonically ordered inboxes."""
        inboxes: List[List[BoundaryEvent]] = [[] for _ in self.runtimes]
        for runtime in self.runtimes:
            for event in runtime.boundary.take_outbox():
                inboxes[runtime_of(event.receiver)].append(event)
        for inbox in inboxes:
            inbox.sort(key=boundary_event_order)
        return inboxes

    def run_until_done(self, max_ms: float = 600_000.0) -> float:
        """Advance conservative windows until done.

        At each barrier the next window edge is ``min(horizons) +
        lookahead``, where the horizons are every runtime's next live
        event plus every in-flight boundary event.  The run stops when

        * every pool reported its budget complete, or
        * all runtimes are quiescent and the boundary channels are empty
          (nothing can ever happen again), or
        * the next horizon lies at or beyond ``now + max_ms``.
        """
        if self._inboxes is None:
            raise RuntimeError("call start() before run_until_done()")
        deadline_ms = self.now + max_ms
        lookahead_ms = self.lookahead_ms
        while not all(pool.is_done() for pool in self.pools):
            horizons = [event.deliver_at_ms
                        for inbox in self._inboxes for event in inbox]
            for runtime in self.runtimes:
                next_ms = runtime.simulator.next_event_time()
                if next_ms is not None:
                    horizons.append(next_ms)
            if not horizons:
                break
            t_min = min(horizons)
            if t_min >= deadline_ms:
                break
            edge = t_min + lookahead_ms
            if edge > deadline_ms:
                edge = deadline_ms
            for runtime, inbox in zip(self.runtimes, self._inboxes):
                runtime.window(edge, inbox)
            self._inboxes = self._exchange()
        return self.now

    # -- results -----------------------------------------------------------------
    def completions(self) -> List[CompletionRecord]:
        records: List[CompletionRecord] = []
        for pool in self.pools:
            records.extend(pool.completions)
        records.sort(key=lambda record: record.completed_at_ms)
        return records

    def result(self, window: Optional[MetricsWindow] = None,
               warmup_fraction: float = 0.1,
               metadata: Optional[Dict[str, object]] = None) -> RunResult:
        """Summarise the run's completions."""
        config = self.config
        records = self.completions()
        if window is None and records:
            start_index = int(len(records) * warmup_fraction)
            start_index = min(start_index, len(records) - 1)
            measured = records[start_index:]
            last_submission = max(record.submitted_at_ms for record in measured)
            window = MetricsWindow(
                start_ms=min(measured[0].completed_at_ms, last_submission),
                end_ms=measured[-1].completed_at_ms,
            )
        info = {
            "batch_size": config.batch_size,
            "num_shards": config.num_shards,
            "cross_shard_fraction": config.cross_shard_fraction,
        }
        info.update(metadata or {})
        protocols = [cluster.config.protocol for cluster in self.shard_clusters]
        return summarize(
            protocol=f"sharded[{'+'.join(protocols)}]",
            n=config.num_shards * config.num_replicas,
            completions=records,
            window=window,
            metadata=info,
        )


def fingerprint_state(cluster: ShardedCluster) -> str:
    """Hash everything observable about a finished sharded run."""
    hasher = hashlib.sha256()

    def fold(*parts: object) -> None:
        for part in parts:
            hasher.update(repr(part).encode())
            hasher.update(b"|")

    fold("events", tuple(cluster.shard_processed_events),
         tuple(cluster.shard_clocks))
    for shard_cluster in cluster.shard_clusters:
        for replica in shard_cluster.replicas:
            fold(replica.node_id, replica.crashed,
                 replica.last_executed_sequence)
            if not replica.crashed:
                fold(replica.blockchain.head.sequence,
                     replica.blockchain.head.block_hash.hex())
            manager = replica.control_layer
            if manager is not None:
                fold(sorted(manager.status.items()),
                     sorted((txn, entry[0])
                            for txn, entry in manager.accepted_decides.items()),
                     sorted(manager.rejected_decides))
    for pool in cluster.pools:
        fold(pool.node_id,
             [(r.batch_id, r.view, r.sequence, r.completed_at_ms)
              for r in pool.completions],
             sorted((txn, sorted(outcomes.items()))
                    for txn, outcomes in pool.xshard_outcomes.items()))
    if cluster.coordinator is not None:
        fold(sorted((txn, entry["decision"], entry["shards"])
                    for txn, entry in cluster.coordinator.journal.items()))
    return hasher.hexdigest()


def sharded_fingerprint(config: ShardedClusterConfig,
                        max_ms: float = 600_000.0) -> str:
    """Run a sharded deployment and hash everything observable about it.

    Folds per-replica ledger heads and 2PC journals, pool completions and
    cross-shard outcomes, the coordinator journal and per-runtime event
    counts into one digest.  Two runs of the same config must produce the
    same fingerprint.
    """
    cluster = ShardedCluster(config)
    cluster.start()
    cluster.run_until_done(max_ms=max_ms)
    return fingerprint_state(cluster)
