"""Multi-group sharding: cross-shard 2PC, the shard-aware auditor, and
the Byzantine-coordinator scenarios.

The sharded fabric partitions the keyspace across independent consensus
groups (each running one of the single-group protocols) on one
deterministic simulator; cross-shard transactions run two-phase commit
whose prepare/decide records are themselves consensus-committed inside
every touched shard.  These tests pin:

* liveness + safety of the happy path for PoE-MAC and PBFT shards (and
  a mixed deployment), including uniform cross-shard outcomes;
* every sharded fault-matrix scenario across the acceptance seeds;
* the presumed-abort recovery path when the coordinator crashes mid-2PC;
* the revert demo: with the replicas' decide-certificate validation
  knocked out (the guard an equivocating coordinator is held back by),
  the shard-aware auditor still detects the split commit/abort — its own
  validator is bound at import time precisely so it cannot be disabled
  together with the runtime one;
* the one 2PC decision rule, the canonical barrier inbox order, and the
  fingerprints of the canonical cross-shard runs.
"""

import pytest

from repro.fabric.audit import ShardedSafetyAuditor, audit_sharded_cluster
from repro.fabric.scenarios import (
    SCENARIO_DEFS,
    SCENARIOS,
    SHARDED_MATRIX_PROTOCOLS,
    SHARDED_SCENARIOS,
    ScenarioParams,
    default_matrix_scenarios,
    run_scenario,
)
from repro.fabric.sharding import (
    BoundaryEvent,
    ShardedCluster,
    ShardedClusterConfig,
    coordinator_id,
    sharded_fingerprint,
)
from repro.net.faults import FaultSchedule
from repro.workload.xshard import ABORT, COMMIT, decide_from_outcomes

#: The acceptance seeds every sharded matrix cell must pass on.
ACCEPTANCE_SEEDS = (3, 7, 42, 99)


def _run(config: ShardedClusterConfig, max_ms: float = 600_000.0):
    cluster = ShardedCluster(config)
    cluster.start()
    cluster.run_until_done(max_ms=max_ms)
    return cluster


def _assert_uniform_outcomes(cluster: ShardedCluster) -> int:
    """Every completed cross-shard txn decided the same way everywhere."""
    cross = 0
    for pool in cluster.pools:
        for txn, outcomes in pool.xshard_outcomes.items():
            assert len(set(outcomes.values())) == 1, (
                f"{txn} split across shards: {outcomes}")
            cross += 1
    return cross


@pytest.mark.parametrize("protocol", ["poe-mac", "pbft"])
def test_two_shard_2pc_live_and_safe(protocol):
    cluster = _run(ShardedClusterConfig(
        num_shards=2, protocols=protocol, num_replicas=4, batch_size=10,
        total_batches=20, cross_shard_fraction=0.3, seed=7,
    ))
    assert all(pool.is_done() for pool in cluster.pools)
    report = audit_sharded_cluster(cluster)
    assert report.ok, report.summary()
    assert _assert_uniform_outcomes(cluster) > 0, (
        "the workload must actually exercise cross-shard 2PC")


def test_mixed_protocol_shards():
    """A PoE shard and a PBFT shard cooperate through the same 2PC layer:
    the coordinator only sees client-level replies, so shard protocols
    compose freely."""
    cluster = _run(ShardedClusterConfig(
        num_shards=2, protocols=("poe-mac", "pbft"), num_replicas=4,
        batch_size=10, total_batches=15, cross_shard_fraction=0.3, seed=11,
    ))
    assert all(pool.is_done() for pool in cluster.pools)
    report = audit_sharded_cluster(cluster)
    assert report.ok, report.summary()
    assert _assert_uniform_outcomes(cluster) > 0


def test_three_shards_with_coordinator():
    cluster = _run(ShardedClusterConfig(
        num_shards=3, protocols="poe-mac", num_replicas=4, batch_size=10,
        total_batches=12, cross_shard_fraction=0.25, seed=3,
    ))
    assert all(pool.is_done() for pool in cluster.pools)
    assert audit_sharded_cluster(cluster).ok
    # The coordinator journals every decision it certified.
    assert cluster.coordinator is not None
    assert cluster.coordinator.journal


def test_sbft_shards_are_rejected():
    """SBFT's single-reply collector path cannot give the pool the f+1
    matching attestations 2PC certificates are built from."""
    with pytest.raises(ValueError, match="sbft"):
        ShardedCluster(ShardedClusterConfig(num_shards=2, protocols="sbft"))


def test_coordinator_crash_mid_2pc_presumed_abort():
    """Crashing the coordinator right after startup forces every pool
    onto the probe path: unprepared txns are presumed aborted, prepared
    ones are driven to a uniform decision by the pool itself."""
    cluster = _run(ShardedClusterConfig(
        num_shards=2, protocols="poe-mac", num_replicas=4, batch_size=10,
        total_batches=15, cross_shard_fraction=0.4,
        request_timeout_ms=100.0,
        hub_faults=FaultSchedule().add_crash(coordinator_id(), at_ms=3.0),
        seed=42,
    ))
    assert all(pool.is_done() for pool in cluster.pools)
    report = audit_sharded_cluster(cluster)
    assert report.ok, report.summary()
    _assert_uniform_outcomes(cluster)
    assert any(pool.coordinator_suspect for pool in cluster.pools), (
        "pools should have given up on the crashed coordinator")


# ------------------------------------------------------------ matrix cells
@pytest.mark.parametrize("seed", ACCEPTANCE_SEEDS)
@pytest.mark.parametrize("protocol", SHARDED_MATRIX_PROTOCOLS)
def test_sharded_matrix_cells_across_seeds(protocol, seed):
    """Every sharded scenario × shard protocol is live and safe on all
    acceptance seeds (the matrix itself runs one seed; this is the sweep
    behind the recorded expectations)."""
    for scenario in SHARDED_SCENARIOS:
        outcome = run_scenario(protocol, scenario, ScenarioParams(
            total_batches=12, request_timeout_ms=100.0, seed=seed))
        assert outcome.live, (
            f"{protocol} × {scenario} seed={seed} stalled at "
            f"{outcome.completed_batches}/{outcome.expected_batches}")
        assert outcome.safe, (
            f"{protocol} × {scenario} seed={seed}: "
            + outcome.audit.summary())


def test_shard_primary_crash_triggers_view_change():
    outcome = run_scenario("poe-mac", "xshard-shard-primary-crash",
                           ScenarioParams(total_batches=12,
                                          request_timeout_ms=100.0, seed=7))
    assert outcome.live and outcome.safe
    assert outcome.view_changes >= 1, (
        "the reused primary-crash recipe must force a real view change "
        "inside shard 0")


# ------------------------------------------------------------- revert demo
def test_revert_demo_auditor_catches_split_decision(monkeypatch):
    """Knock out the replicas' decide-certificate validation — the exact
    guard that stops an equivocating coordinator — and the forged abort
    lands on one shard while the other commits.  The shard-aware auditor
    must still catch it: it bound the real validator at import time, so
    reverting the runtime check cannot blind the audit."""
    import repro.workload.xshard as xshard

    monkeypatch.setattr(xshard, "decide_record_valid",
                        lambda batch, layout: True)
    outcome = run_scenario("poe-mac", "xshard-coordinator-equivocate",
                           ScenarioParams(total_batches=12,
                                          request_timeout_ms=100.0, seed=42))
    assert not outcome.safe, (
        "with certificate validation reverted, the equivocating "
        "coordinator must produce an audit violation")
    kinds = {violation.kind for violation in outcome.audit.violations}
    assert kinds & {"cross-shard-atomicity", "forged-decide"}, kinds


def test_equivocating_coordinator_is_contained_by_validation():
    """The unreverted counterpart: with validation in place the same
    behaviour is harmless — the forged abort is rejected, pools recover
    through probes, and the audit stays clean."""
    outcome = run_scenario("poe-mac", "xshard-coordinator-equivocate",
                           ScenarioParams(total_batches=12,
                                          request_timeout_ms=100.0, seed=42))
    assert outcome.live and outcome.safe, outcome.audit.summary()


# ---------------------------------------------------------------- registry
def test_scenario_registry_backs_the_legacy_dict():
    """Satellite guard: the data-driven registry must expose exactly the
    recipes the old literal dict did, in the same order, and the sharded
    registry must extend — not overlap — the single-group names."""
    assert list(SCENARIOS) == [name for name in SCENARIO_DEFS]
    assert all(SCENARIO_DEFS[name].recipe is SCENARIOS[name]
               for name in SCENARIOS)
    assert all(SCENARIO_DEFS[name].description for name in SCENARIO_DEFS)
    assert not set(SCENARIOS) & set(SHARDED_SCENARIOS)
    assert default_matrix_scenarios() == \
        tuple(SCENARIOS) + tuple(SHARDED_SCENARIOS)


def test_sharded_auditor_attaches_like_the_single_group_one():
    config = ShardedClusterConfig(
        num_shards=2, protocols="poe-mac", num_replicas=4, batch_size=10,
        total_batches=10, cross_shard_fraction=0.3, seed=5,
    )
    cluster = ShardedCluster(config)
    auditor = ShardedSafetyAuditor.attach(cluster)
    cluster.start()
    cluster.run_until_done(max_ms=600_000.0)
    report = auditor.check()  # raises on violation
    assert report.ok


# ------------------------------------------------------------ 2PC decision
@pytest.mark.parametrize("outcomes, decision", [
    (("prepared",), COMMIT),
    (("prepared", "prepared"), COMMIT),
    (("committed",), COMMIT),
    (("prepared", "committed"), COMMIT),
    (("committed", "refused"), COMMIT),
    (("committed", "aborted"), COMMIT),
    (("refused",), ABORT),
    (("aborted",), ABORT),
    (("prepared", "refused"), ABORT),
    (("prepared", "aborted"), ABORT),
    (("refused", "aborted"), ABORT),
    (("prepared", "refused", "committed"), COMMIT),
])
def test_decide_from_outcomes(outcomes, decision):
    """Committed beats everything (a commit certificate once existed),
    then any refusal or abort forces abort, else commit — whatever the
    order the shards reported in."""
    assert decide_from_outcomes(outcomes) == decision
    assert decide_from_outcomes(reversed(outcomes)) == decision


# ---------------------------------------------------- pinned fingerprints
def _fingerprint_config(scenario: str, seed: int,
                        num_shards: int = 2) -> ShardedClusterConfig:
    """The config shapes behind the canonical cross-shard scenarios, at
    test-sized batch budgets."""
    hub_faults = None
    coordinator_behavior = None
    if scenario == "xshard-crash-2pc":
        hub_faults = FaultSchedule().add_crash(coordinator_id(), at_ms=3.0)
    elif scenario == "xshard-coordinator-equivocate":
        coordinator_behavior = "equivocate-coordinator"
    else:
        assert scenario == "xshard-no-fault"
    return ShardedClusterConfig(
        num_shards=num_shards, protocols="poe-mac", num_replicas=4,
        batch_size=10, total_batches=12, cross_shard_fraction=0.3,
        request_timeout_ms=100.0, hub_faults=hub_faults,
        coordinator_behavior=coordinator_behavior, seed=seed,
    )


def test_barrier_exchange_routes_and_sorts_inboxes():
    """Inboxes go to the receiver's runtime in canonical
    ``(deliver_at_ms, source, send_seq)`` order, whatever order the
    runtimes' outboxes are drained in.  The pinned runs below never carry
    two cross-source events with the same delivery time, so only this
    test sees the sort."""
    cluster = ShardedCluster(ShardedClusterConfig(
        num_shards=3, protocols="poe-mac", num_replicas=4, seed=3))

    def event(deliver_at_ms, source, send_seq, receiver="pool:0"):
        return BoundaryEvent(
            deliver_at_ms=deliver_at_ms, source=source, send_seq=send_seq,
            sender=f"s{source}/replica:0", receiver=receiver, message=None,
            send_time_ms=0.0)

    cluster.runtimes[1].boundary._outbox.extend(
        [event(1.0, 1, 5), event(0.5, 1, 6), event(2.0, 1, 7, "s2/replica:1")])
    cluster.runtimes[2].boundary._outbox.append(event(1.0, 2, 0))
    inboxes = cluster._exchange()
    assert [(e.deliver_at_ms, e.source, e.send_seq) for e in inboxes[0]] == [
        (0.5, 1, 6), (1.0, 1, 5), (1.0, 2, 0)]
    assert inboxes[1] == []
    assert [e.receiver for e in inboxes[2]] == ["s2/replica:1"]
    assert all(not runtime.boundary.take_outbox() for runtime in cluster.runtimes)


#: Fingerprints of the windowed runs: a change to the window edge, the
#: stop predicate or to what a run does moves these digests.
PINNED_FINGERPRINTS = {
    ("xshard-no-fault", 3):
        "f50c003ffddf2548c2b412495aa102a089e526de9a665238ca2fd99faf844bcb",
    ("xshard-no-fault", 7):
        "e6c6e24d2f032ed4a6c7fb46205e4972f7d8845764de10d0187a532c0184bc54",
    ("xshard-no-fault", 42):
        "bb17de6d8b06ec48f4b9c3d7be185470f44f23b61faef83e3f51f003bd74e303",
    ("xshard-crash-2pc", 3):
        "41c787821a2f4d33355f1de795b265e8b6e124367893669311bf1e19d4c16261",
    ("xshard-crash-2pc", 7):
        "8af71e846ea0c6dc302de250c1d14a83a31467676c496d4c32f488fed494fab5",
    ("xshard-crash-2pc", 42):
        "5cecd3fe2e9f6c042df68f887d04683bd3343705c073bb240e57cd7d390073a6",
    ("xshard-coordinator-equivocate", 3):
        "a1eb0eab5ac473cfeda4f0e9834b539d918a368fd4a1b83d3be6a854d13974b2",
    ("xshard-coordinator-equivocate", 7):
        "53dfe4b8179f71a1172609c4aee073e6b1d769a51a6b2782dfbbe7754ded0ab3",
    ("xshard-coordinator-equivocate", 42):
        "b1fafd9a33a35a309bae6a7dc3ec5213fed9041953b1254ebb009e3206ecfdf8",
}


@pytest.mark.parametrize(
    "scenario, seed", list(PINNED_FINGERPRINTS),
    ids=[f"{scenario}-{seed}" for scenario, seed in PINNED_FINGERPRINTS])
def test_sharded_fingerprint_pinned(scenario, seed):
    assert (sharded_fingerprint(_fingerprint_config(scenario, seed))
            == PINNED_FINGERPRINTS[scenario, seed])


def test_sharded_fingerprint_pinned_four_shards():
    config = _fingerprint_config("xshard-no-fault", seed=3, num_shards=4)
    assert sharded_fingerprint(config) == (
        "f021f9d6ba42dd896e66b59543ae43911290a4c5c6a653246d07be1cfe5aa28d")
