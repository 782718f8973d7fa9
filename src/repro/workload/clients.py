"""Client populations that drive the replicated system.

The paper deploys up to 320 k clients whose only role is to keep the
primary's pipeline saturated and to collect matching replies.  The
simulator reproduces that with a :class:`ClientPool`: a single node that
keeps a configurable number of request batches outstanding, retransmits
on timeout (which is what lets replicas detect a faulty primary), counts
matching replies against a protocol-specific quorum and records
completion latencies for the metrics module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.protocols.base import ClientNode, NodeConfig
from repro.protocols.client_messages import ClientReplyMessage, ClientRequestMessage
from repro.protocols.quorum import VoteSet
from repro.workload.transactions import RequestBatch, make_synthetic_batch

#: Factory signature: (batch_index, now_ms) -> RequestBatch.
BatchSource = Callable[[int, float], RequestBatch]


@dataclass(frozen=True, slots=True)
class CompletionRecord:
    """One completed batch, as observed by the client pool."""

    batch_id: str
    num_txns: int
    submitted_at_ms: float
    completed_at_ms: float
    view: int
    sequence: int

    @property
    def latency_ms(self) -> float:
        return self.completed_at_ms - self.submitted_at_ms


@dataclass(slots=True)
class _PendingBatch:
    """Book-keeping for one outstanding batch.

    ``replies`` maps each distinct reply key to an aggregated voter
    bitset indexed by replica (:class:`~repro.protocols.quorum.VoteSet`),
    so counting one of the n replies per batch is a dict lookup plus
    integer arithmetic — no per-reply set/dict churn.
    """

    batch: RequestBatch
    submitted_at_ms: float
    replies: Dict[Tuple, VoteSet] = field(default_factory=dict)
    retransmissions: int = 0


def synthetic_batch_source(client_id: str, batch_size: int) -> BatchSource:
    """Batch source producing cost-modelled batches of *batch_size*."""

    def factory(index: int, now_ms: float) -> RequestBatch:
        return make_synthetic_batch(
            batch_id=f"{client_id}:batch:{index}", client_id=client_id,
            size=batch_size, created_at_ms=now_ms,
        )

    return factory


class ClientPool(ClientNode):
    """Open/closed-loop client population submitting batches to the primary.

    Args:
        node_id: identifier of the pool.
        config: the shared deployment configuration.
        batch_source: factory producing the next batch to submit.
        completion_quorum: number of matching replies that complete a batch
            (``nf`` for PoE, ``f + 1`` for PBFT/HotStuff, ``n`` for
            Zyzzyva's fast path, 1 for SBFT's aggregated reply).
        target_outstanding: batches kept in flight concurrently; 1 gives
            the closed-loop behaviour of the out-of-order-disabled
            experiments (Figures 9(k), 9(l)).
        total_batches: stop submitting after this many completions
            (``None`` = unbounded, for timed runs).
        timeout_ms: retransmission timeout (defaults to the config's
            request timeout, 3 s in the paper).
        broadcast_requests: send every request to all replicas instead of
            only the current primary (needed by rotating-leader protocols
            such as HotStuff, where any replica may end up proposing it).
        completion_quorum_fn: per-epoch quorum rule for reconfigured
            deployments — called with the epoch that governs a reply's
            sequence and returns the quorum that completes the batch
            (``nf_of`` for PoE, ``f_of + 1`` for PBFT/HotStuff, ``n_of``
            for Zyzzyva).  Ignored while the deployment has not
            reconfigured, so fixed-membership runs keep the single
            attribute read.
    """

    def __init__(
        self,
        node_id: str,
        config: NodeConfig,
        batch_source: Optional[BatchSource] = None,
        completion_quorum: Optional[int] = None,
        target_outstanding: int = 8,
        total_batches: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        broadcast_requests: bool = False,
        completion_quorum_fn: Optional[Callable[[int], int]] = None,
    ) -> None:
        super().__init__(node_id, config)
        self.batch_source = batch_source or synthetic_batch_source(node_id, config.batch_size)
        self.completion_quorum = completion_quorum if completion_quorum is not None else config.nf
        if completion_quorum_fn is None and completion_quorum is None:
            completion_quorum_fn = config.nf_of
        self.completion_quorum_fn = completion_quorum_fn
        self.target_outstanding = target_outstanding
        self.total_batches = total_batches
        self.timeout_ms = timeout_ms if timeout_ms is not None else config.request_timeout_ms
        self.broadcast_requests = broadcast_requests
        self.completions: List[CompletionRecord] = []
        self.current_view = 0
        self._pending: Dict[str, _PendingBatch] = {}
        self._submitted = 0
        # Insertion-ordered dedup window for completed batch ids.  A batch
        # whose pending entry is gone can never reach _complete again, so
        # only recently-completed ids need to be remembered; the window
        # keeps the dedup structure bounded on unbounded (soak) runs.
        self._completed_ids: Dict[str, None] = {}
        self._completed_retention = 4 * target_outstanding + 64
        # Reply voters resolve to replica indices through the shared
        # membership map; replies from senders outside the membership
        # still count via the VoteSet overflow path.
        self._replica_index = config.replica_index_map

    # -- inspection -------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return len(self._pending)

    @property
    def completed_batches(self) -> int:
        return len(self.completions)

    @property
    def completed_txns(self) -> int:
        return sum(record.num_txns for record in self.completions)

    def is_done(self) -> bool:
        """Has the pool completed every batch it was asked to submit?"""
        return self.total_batches is not None and len(self.completions) >= self.total_batches

    # -- lifecycle --------------------------------------------------------------
    def on_start(self, now_ms: float) -> None:
        self._fill_pipeline(now_ms)

    def _fill_pipeline(self, now_ms: float) -> None:
        while len(self._pending) < self.target_outstanding:
            if self.total_batches is not None and self._submitted >= self.total_batches:
                break
            self._submit_next(now_ms)

    def _submit_next(self, now_ms: float) -> None:
        batch = self.batch_source(self._submitted, now_ms)
        self._submitted += 1
        self._pending[batch.batch_id] = _PendingBatch(batch=batch, submitted_at_ms=now_ms)
        self._send_request(batch, now_ms, retransmission=False)
        self.set_timer(f"request:{batch.batch_id}", self.timeout_ms, payload=batch.batch_id)

    def _send_request(self, batch: RequestBatch, now_ms: float,
                      retransmission: bool) -> None:
        message = ClientRequestMessage(
            batch=batch,
            reply_to=self.node_id,
            retransmission=retransmission,
            size_bytes=self.config.proposal_size_bytes(len(batch)),
        )
        if retransmission or self.broadcast_requests:
            # The paper: a client that gets no timely response broadcasts
            # its request to all replicas, which forward it to the primary.
            self.broadcast(message)
        elif self.config.reconfigured:
            # Best-effort latest-epoch primary; a stale guess is repaired
            # by the retransmission broadcast like any other dark primary.
            self.send(self.config.primary_of_view_in_epoch(
                self.current_view, self.config.latest_epoch), message)
        else:
            self.send(self.config.primary_of_view(self.current_view), message)

    # -- replies -----------------------------------------------------------------
    def on_message(self, sender: str, message, now_ms: float) -> None:
        if not isinstance(message, ClientReplyMessage):
            self.on_other_message(sender, message, now_ms)
            return
        pending = self._pending.get(message.batch_id)
        if pending is None:
            return
        key = message.matching_key()
        voters = pending.replies.get(key)
        if voters is None:
            voters = pending.replies[key] = VoteSet(self._replica_index)
        # Reply identity is the transport-level sender: counting the claimed
        # ``message.replica_id`` would let one Byzantine replica fabricate a
        # whole quorum of matching INFORMs under forged identities.
        voters.add(sender)
        if message.view > self.current_view:
            self.current_view = message.view
        if voters.count >= self.quorum_for_sequence(message.sequence):
            self._complete(message, pending, now_ms)

    def quorum_for_sequence(self, sequence: int) -> int:
        """The completion quorum for a reply certified at *sequence*.

        Fixed-membership deployments answer from the cached constant; once
        a reconfiguration registered, the per-epoch rule is consulted so a
        batch committed under a grown (or shrunk) epoch is completed
        against that epoch's quorum.
        """
        config = self.config
        if not config.reconfigured or self.completion_quorum_fn is None:
            return self.completion_quorum
        return self.completion_quorum_fn(config.epoch_of_sequence(sequence))

    def on_other_message(self, sender: str, message, now_ms: float) -> None:
        """Hook for protocol-specific client messages (default: ignore)."""

    def _complete(self, reply: ClientReplyMessage, pending: _PendingBatch,
                  now_ms: float) -> None:
        batch_id = reply.batch_id
        if batch_id in self._completed_ids:
            return
        self._completed_ids[batch_id] = None
        while len(self._completed_ids) > self._completed_retention:
            del self._completed_ids[next(iter(self._completed_ids))]
        self._pending.pop(batch_id, None)
        self.cancel_timer(f"request:{batch_id}")
        self.completions.append(
            CompletionRecord(
                batch_id=batch_id,
                num_txns=len(pending.batch),
                submitted_at_ms=pending.submitted_at_ms,
                completed_at_ms=now_ms,
                view=reply.view,
                sequence=reply.sequence,
            )
        )
        self._fill_pipeline(now_ms)

    # -- timeouts ----------------------------------------------------------------
    def on_timer(self, name: str, payload, now_ms: float) -> None:
        if not name.startswith("request:"):
            return
        batch_id = payload
        pending = self._pending.get(batch_id)
        if pending is None:
            return
        self.on_request_timeout(pending, now_ms)

    def on_request_timeout(self, pending: _PendingBatch, now_ms: float) -> None:
        """Default timeout behaviour: broadcast the request to all replicas."""
        pending.retransmissions += 1
        self._send_request(pending.batch, now_ms, retransmission=True)
        backoff = self.timeout_ms * (2 ** min(pending.retransmissions, 4))
        self.set_timer(f"request:{pending.batch.batch_id}", backoff,
                       payload=pending.batch.batch_id)


@dataclass(slots=True)
class _PendingSingle:
    """One outstanding single-shard batch."""

    batch: RequestBatch
    shard: int
    submitted_at_ms: float
    replies: Dict[Tuple, VoteSet] = field(default_factory=dict)
    retransmissions: int = 0


@dataclass(slots=True)
class _PendingXShard:
    """One outstanding cross-shard transaction.

    ``mode`` tracks who is driving the 2PC right now: ``"coord"`` while the
    transaction is delegated to the coordinator, ``"prepare"``/``"probe"``
    while the pool itself collects per-shard votes, ``"decide"`` once a
    certified decision is being written to every shard.
    """

    plan: object  # CrossShardPlan
    submitted_at_ms: float
    mode: str = "coord"
    votes: Dict[Tuple, VoteSet] = field(default_factory=dict)
    phase_results: Dict[int, Tuple[str, Tuple[str, ...]]] = field(default_factory=dict)
    decided: Dict[int, Tuple[str, int, int]] = field(default_factory=dict)
    #: shard -> (outcome, voters) for shards that reached a terminal decide
    #: quorum; recovery certificates for the remaining shards are built
    #: from these claims plus fresh probe results.
    decided_claims: Dict[int, Tuple[str, Tuple[str, ...]]] = field(default_factory=dict)
    decision: str = ""
    cert: Tuple = ()
    retransmissions: int = 0
    rejected_seen: bool = False


class ShardedClientPool(ClientNode):
    """Client pool for a sharded deployment.

    Single-shard batches are routed to the owning shard's primary and
    completed against that shard's reply quorum.  Cross-shard plans are
    handed to the shard coordinator for two-phase commit; the decide
    records carry this pool as ``reply_to``, so the pool counts decide
    replies per touched shard and completes the transaction only once
    **every** shard has a quorum-backed terminal outcome.

    The pool is also the 2PC fallback driver.  If a transaction's timer
    fires while the coordinator is responsible for it, the pool presumes
    the coordinator dead: it PROBEs every touched shard (which marks
    still-unprepared shards *refused* — presumed abort), derives the only
    decision consistent with the probe certificates, and writes the
    certified decide records itself.  From then on the pool self-drives
    the prepare phase for its subsequent cross-shard transactions.

    Args:
        node_id: identifier of the pool.
        config: deployment-wide node configuration (sizes, timeouts).
        layout: shard membership and quorum rules.
        batch_source: factory producing ``SingleShardBatch`` or
            ``CrossShardPlan`` items.
        coordinator_id: node id of the shard coordinator ("" = the pool
            always drives 2PC itself).
    """

    def __init__(
        self,
        node_id: str,
        config: NodeConfig,
        layout,
        batch_source,
        target_outstanding: int = 8,
        total_batches: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        coordinator_id: str = "",
    ) -> None:
        super().__init__(node_id, config)
        self.layout = layout
        self.batch_source = batch_source
        self.target_outstanding = target_outstanding
        self.total_batches = total_batches
        self.timeout_ms = timeout_ms if timeout_ms is not None else config.request_timeout_ms
        # A delegated 2PC needs two consensus rounds (prepare, decide), so
        # the pool gives the coordinator twice the single-shard budget
        # before presuming it dead and probing.
        self.xshard_timeout_ms = 2.0 * self.timeout_ms
        self.coordinator_id = coordinator_id
        self.coordinator_suspect = False
        self.completions: List[CompletionRecord] = []
        #: txn -> {shard: terminal outcome} as observed via reply quorums.
        self.xshard_outcomes: Dict[str, Dict[int, str]] = {}
        #: txn -> CrossShardPlan, for the safety auditor.
        self.xshard_plans: Dict[str, object] = {}
        self._views = [0] * layout.num_shards
        self._pending: Dict[str, object] = {}
        self._submitted = 0
        self._completed_ids: Dict[str, None] = {}
        self._completed_retention = 4 * target_outstanding + 64

    # -- inspection -------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        return len(self._pending)

    @property
    def completed_batches(self) -> int:
        return len(self.completions)

    @property
    def completed_txns(self) -> int:
        return sum(record.num_txns for record in self.completions)

    def is_done(self) -> bool:
        return self.total_batches is not None and len(self.completions) >= self.total_batches

    # -- lifecycle --------------------------------------------------------------
    def on_start(self, now_ms: float) -> None:
        self._fill_pipeline(now_ms)

    def _fill_pipeline(self, now_ms: float) -> None:
        while len(self._pending) < self.target_outstanding:
            if self.total_batches is not None and self._submitted >= self.total_batches:
                break
            self._submit_next(now_ms)

    def _submit_next(self, now_ms: float) -> None:
        from repro.workload.xshard import CrossShardPlan

        item = self.batch_source(self._submitted, now_ms)
        self._submitted += 1
        if isinstance(item, CrossShardPlan):
            self._submit_xshard(item, now_ms)
        else:
            self._submit_single(item, now_ms)

    # -- single-shard path ------------------------------------------------------
    def _submit_single(self, item, now_ms: float) -> None:
        pending = _PendingSingle(batch=item.batch, shard=item.shard,
                                 submitted_at_ms=now_ms)
        self._pending[item.batch.batch_id] = pending
        self._send_single(pending, now_ms, retransmission=False)
        self.set_timer(f"request:{item.batch.batch_id}", self.timeout_ms,
                       payload=item.batch.batch_id)

    def _send_single(self, pending: _PendingSingle, now_ms: float,
                     retransmission: bool) -> None:
        message = ClientRequestMessage(
            batch=pending.batch,
            reply_to=self.node_id,
            retransmission=retransmission,
            size_bytes=self.config.proposal_size_bytes(len(pending.batch)),
        )
        self._route(pending.shard, message, retransmission)

    def _route(self, shard: int, message, retransmission: bool) -> None:
        """Send to the shard primary, or every shard member on retransmit.

        Retransmission broadcasts are what let shard backups notice a dead
        primary and drive a view change — same mechanism as the
        single-group :class:`ClientPool`, scoped to the shard's members.
        """
        if retransmission or self.layout.wants_broadcast(shard):
            for rid in self.layout.replicas(shard):
                self.send(rid, message)
        else:
            self.send(self.layout.primary(shard, self._views[shard]), message)

    # -- cross-shard path -------------------------------------------------------
    def _submit_xshard(self, plan, now_ms: float) -> None:
        self.xshard_plans[plan.txn] = plan
        pending = _PendingXShard(plan=plan, submitted_at_ms=now_ms)
        self._pending[plan.txn] = pending
        if self.coordinator_id and not self.coordinator_suspect:
            from repro.workload.xshard import CoordSubmit

            pending.mode = "coord"
            self.send(self.coordinator_id,
                      CoordSubmit(plan=plan, reply_to=self.node_id))
        else:
            self._begin_prepare(plan.txn, pending, now_ms)
        self.set_timer(f"request:{plan.txn}", self.xshard_timeout_ms,
                       payload=plan.txn)

    def _begin_prepare(self, txn: str, pending: _PendingXShard,
                       now_ms: float, resend: bool = False) -> None:
        from repro.workload.xshard import PREPARE, make_control_batch

        if not resend:
            pending.mode = "prepare"
            pending.phase_results = {}
        for shard in pending.plan.shards:
            if shard in pending.phase_results or shard in pending.decided:
                continue
            batch = make_control_batch(
                txn, PREPARE, shard, pending.plan.shards,
                reply_to=self.node_id, created_at_ms=now_ms)
            self._send_control(shard, batch, retransmission=resend)

    def _begin_probe(self, txn: str, pending: _PendingXShard,
                     now_ms: float, resend: bool = False) -> None:
        from repro.workload.xshard import PROBE, make_control_batch

        if not resend:
            pending.mode = "probe"
            pending.phase_results = {}
        for shard in pending.plan.shards:
            if shard in pending.phase_results or shard in pending.decided:
                continue
            batch = make_control_batch(
                txn, PROBE, shard, pending.plan.shards,
                reply_to=self.node_id, created_at_ms=now_ms)
            # Probes always go to every member: the reason we are probing
            # is that somebody (coordinator or shard primary) went silent.
            self._send_control(shard, batch, retransmission=True)

    def _send_control(self, shard: int, batch, retransmission: bool) -> None:
        message = ClientRequestMessage(
            batch=batch,
            reply_to=self.node_id,
            retransmission=retransmission,
            size_bytes=self.config.proposal_size_bytes(1),
        )
        self._route(shard, message, retransmission)

    def _send_decides(self, txn: str, pending: _PendingXShard, now_ms: float,
                      retransmission: bool) -> None:
        from repro.workload.xshard import COMMIT, make_control_batch

        for shard in pending.plan.shards:
            if shard in pending.decided:
                continue
            payload = pending.plan.slice_for(shard) if pending.decision == COMMIT else ()
            batch = make_control_batch(
                txn, pending.decision, shard, pending.plan.shards,
                cert=pending.cert, payload_txns=payload,
                reply_to=self.node_id, created_at_ms=now_ms)
            self._send_control(shard, batch, retransmission)

    # -- replies -----------------------------------------------------------------
    def on_message(self, sender: str, message, now_ms: float) -> None:
        if not isinstance(message, ClientReplyMessage):
            return
        pending = self._pending.get(message.batch_id)
        if isinstance(pending, _PendingSingle):
            self._on_single_reply(sender, message, pending, now_ms)
            return
        from repro.workload.xshard import parse_control_batch_id

        parsed = parse_control_batch_id(message.batch_id)
        if parsed is None:
            return
        txn, phase, shard = parsed
        pending = self._pending.get(txn)
        if isinstance(pending, _PendingXShard) and 0 <= shard < self.layout.num_shards:
            self._on_control_reply(sender, message, pending, txn, phase,
                                   shard, now_ms)

    def _on_single_reply(self, sender: str, message, pending: _PendingSingle,
                         now_ms: float) -> None:
        key = message.matching_key()
        voters = pending.replies.get(key)
        if voters is None:
            voters = pending.replies[key] = VoteSet(self.layout.index_map(pending.shard))
        voters.add(sender)
        if message.view > self._views[pending.shard]:
            self._views[pending.shard] = message.view
        if voters.count < self.layout.reply_quorum(pending.shard):
            return
        batch_id = message.batch_id
        if batch_id in self._completed_ids:
            return
        self._remember_completed(batch_id)
        self._pending.pop(batch_id, None)
        self.cancel_timer(f"request:{batch_id}")
        self.completions.append(CompletionRecord(
            batch_id=batch_id,
            num_txns=len(pending.batch),
            submitted_at_ms=pending.submitted_at_ms,
            completed_at_ms=now_ms,
            view=message.view,
            sequence=message.sequence,
        ))
        self._fill_pipeline(now_ms)

    def _on_control_reply(self, sender: str, message, pending: _PendingXShard,
                          txn: str, phase: str, shard: int,
                          now_ms: float) -> None:
        from repro.workload.xshard import DECIDE_PHASES, PREPARE, PROBE, decode_outcome

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
        if outcome is None:
            return
        if phase in DECIDE_PHASES:
            self._on_decide_quorum(txn, pending, shard, outcome, message,
                                   votes, now_ms)
        elif phase in (PREPARE, PROBE):
            # Only count votes for the round the pool is currently running,
            # so a late prepare quorum cannot contaminate a probe round.
            if pending.mode != ("probe" if phase == PROBE else "prepare"):
                return
            self._on_phase_quorum(txn, pending, shard, outcome, votes, now_ms)

    def _on_decide_quorum(self, txn: str, pending: _PendingXShard, shard: int,
                          outcome: str, message, votes: VoteSet,
                          now_ms: float) -> None:
        if outcome in ("committed", "aborted"):
            if shard in pending.decided:
                return
            pending.decided[shard] = (outcome, message.view, message.sequence)
            pending.decided_claims[shard] = (outcome, tuple(sorted(votes)))
            if all(s in pending.decided for s in pending.plan.shards):
                self._complete_xshard(txn, pending, now_ms)
        elif outcome == "rejected" and not pending.rejected_seen:
            # A quorum of the shard refused the decide record's certificate.
            # Whoever wrote that record cannot be trusted; re-derive the
            # decision from the shards themselves.
            pending.rejected_seen = True
            self.coordinator_suspect = True
            self._begin_probe(txn, pending, now_ms)

    def _on_phase_quorum(self, txn: str, pending: _PendingXShard, shard: int,
                         outcome: str, votes: VoteSet, now_ms: float) -> None:
        if shard in pending.phase_results:
            return
        pending.phase_results[shard] = (outcome, tuple(sorted(votes)))
        if all(s in pending.phase_results or s in pending.decided
               for s in pending.plan.shards):
            self._decide_from_results(txn, pending, now_ms)

    def _decide_from_results(self, txn: str, pending: _PendingXShard,
                             now_ms: float) -> None:
        """Turn per-shard vote certificates into the one consistent decision
        (:func:`~repro.workload.xshard.decide_from_outcomes`)."""
        from repro.workload.xshard import decide_from_outcomes

        outcomes = [pending.phase_results[s][0]
                    for s in pending.plan.shards if s in pending.phase_results]
        outcomes.extend(state[0] for state in pending.decided.values())
        pending.decision = decide_from_outcomes(outcomes)
        claims = []
        for shard in pending.plan.shards:
            # A shard that already reached a terminal decide quorum attests
            # through its decide voters; others through this round's votes.
            claim = pending.phase_results.get(shard) or pending.decided_claims.get(shard)
            if claim is not None:
                claims.append((shard,) + claim)
        pending.cert = tuple(claims)
        pending.mode = "decide"
        self._send_decides(txn, pending, now_ms, retransmission=False)

    def _remember_completed(self, key: str) -> None:
        self._completed_ids[key] = None
        while len(self._completed_ids) > self._completed_retention:
            del self._completed_ids[next(iter(self._completed_ids))]

    def _complete_xshard(self, txn: str, pending: _PendingXShard,
                         now_ms: float) -> None:
        if txn in self._completed_ids:
            return
        self._remember_completed(txn)
        self._pending.pop(txn, None)
        self.cancel_timer(f"request:{txn}")
        self.xshard_outcomes[txn] = {
            shard: state[0] for shard, state in pending.decided.items()}
        first = pending.decided[pending.plan.shards[0]]
        # Aborted transactions count as completed work too: the 2PC reached
        # a durable decision on every shard, which is what the client was
        # waiting for.  The outcome map keeps commits and aborts apart.
        self.completions.append(CompletionRecord(
            batch_id=txn,
            num_txns=pending.plan.logical_size,
            submitted_at_ms=pending.submitted_at_ms,
            completed_at_ms=now_ms,
            view=first[1],
            sequence=first[2],
        ))
        if self.coordinator_id:
            from repro.workload.xshard import CoordAck

            self.send(self.coordinator_id, CoordAck(txn=txn))
        self._fill_pipeline(now_ms)

    # -- timeouts ----------------------------------------------------------------
    def on_timer(self, name: str, payload, now_ms: float) -> None:
        if not name.startswith("request:"):
            return
        pending = self._pending.get(payload)
        if pending is None:
            return
        pending.retransmissions += 1
        if isinstance(pending, _PendingSingle):
            self._send_single(pending, now_ms, retransmission=True)
        elif pending.mode == "coord":
            # The coordinator had two full timeouts to decide; presume it
            # dead, probe the shards, and self-drive from here on.
            self.coordinator_suspect = True
            self._begin_probe(payload, pending, now_ms)
        elif pending.mode == "prepare":
            self._begin_prepare(payload, pending, now_ms, resend=True)
        elif pending.mode == "probe":
            self._begin_probe(payload, pending, now_ms, resend=True)
        else:
            self._send_decides(payload, pending, now_ms, retransmission=True)
        base = self.timeout_ms if isinstance(pending, _PendingSingle) else self.xshard_timeout_ms
        backoff = base * (2 ** min(pending.retransmissions, 4))
        self.set_timer(f"request:{payload}", backoff, payload=payload)


class ClosedLoopClient(ClientPool):
    """A client with exactly one request outstanding at any time.

    Used by the out-of-order-disabled experiments (Figures 9(k), 9(l)),
    where the paper requires "each client to only send its request when it
    has accepted a response for its previous query".
    """

    def __init__(self, node_id: str, config: NodeConfig,
                 batch_source: Optional[BatchSource] = None,
                 completion_quorum: Optional[int] = None,
                 total_batches: Optional[int] = None,
                 timeout_ms: Optional[float] = None,
                 outstanding: int = 1) -> None:
        super().__init__(
            node_id=node_id,
            config=config,
            batch_source=batch_source,
            completion_quorum=completion_quorum,
            target_outstanding=outstanding,
            total_batches=total_batches,
            timeout_ms=timeout_ms,
        )
