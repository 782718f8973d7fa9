"""The benchmark's four workloads: what each builds and why it was chosen.

Every workload is a deterministic function of ``(seed, batches)``: the
seed reaches the program only through the generated config (network
jitter stream, key material, YCSB key draws, cross-shard plans), and the
batch budget fixes how much work one run does.  Clients are a closed
loop: each pool keeps ``client_outstanding`` batches in flight and sends
the next one only when a batch completes.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.fabric.audit import audit_cluster, audit_sharded_cluster  # noqa: E402
from repro.fabric.cluster import Cluster, ClusterConfig  # noqa: E402
from repro.fabric.sharding import ShardedCluster, ShardedClusterConfig  # noqa: E402
from repro.net.faults import FaultSchedule  # noqa: E402
from repro.workload.ycsb import YcsbConfig  # noqa: E402

#: Virtual time at which ``primary-crash`` stops the view-0 primary, and
#: the shortened client/replica timeout that makes the outage visible
#: within a few-second run (the paper's 3000 ms timeout would dwarf it).
CRASH_AT_MS = 100.0
CRASH_TIMEOUT_MS = 200.0


@dataclass(frozen=True)
class Workload:
    """One benchmark input: its default size, config count and builder.

    Why each workload was chosen is recorded in ``BENCHMARK.json`` and
    the README.
    """

    name: str
    batches: int
    build: Callable[[int, int], object]
    #: Seeded configs one benchmark run measures; the virtual metrics are
    #: their median.  More than one only where a single seed's input mix
    #: moves the virtual metrics by several percent.
    configs: int = 1


def _vote_flood(seed: int, batches: int) -> Cluster:
    return Cluster(ClusterConfig(
        protocol="poe-mac", num_replicas=32, batch_size=100,
        client_outstanding=16, total_batches=batches, seed=seed))


def _ycsb_exec(seed: int, batches: int) -> Cluster:
    return Cluster(ClusterConfig(
        protocol="poe", num_replicas=4, batch_size=100,
        client_outstanding=16, total_batches=batches,
        use_ycsb_payload=True, execute_operations=True,
        ycsb=YcsbConfig.small(seed=seed), seed=seed))


def _primary_crash(seed: int, batches: int) -> Cluster:
    return Cluster(ClusterConfig(
        protocol="poe", num_replicas=16, batch_size=100,
        client_outstanding=16, total_batches=batches,
        request_timeout_ms=CRASH_TIMEOUT_MS,
        faults=FaultSchedule.primary_crash("replica:0", at_ms=CRASH_AT_MS),
        seed=seed))


def _xshard_2pc(seed: int, batches: int) -> ShardedCluster:
    return ShardedCluster(ShardedClusterConfig(
        num_shards=2, protocols="poe", num_replicas=4, batch_size=100,
        num_pools=2, client_outstanding=16, total_batches=batches,
        cross_shard_fraction=0.2, use_coordinator=True, seed=seed))


_ALL: List[Workload] = [
    Workload(name="vote-flood", batches=150, build=_vote_flood),
    Workload(name="ycsb-exec", batches=150, build=_ycsb_exec),
    Workload(name="primary-crash", batches=700, build=_primary_crash),
    Workload(name="xshard-2pc", batches=400, build=_xshard_2pc, configs=8),
]

WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in _ALL}


def networks_of(cluster) -> list:
    """Every simulated network a built cluster drives (shards + hub)."""
    if isinstance(cluster, ShardedCluster):
        return [shard.network for shard in cluster.shard_clusters] + [cluster.hub]
    return [cluster.network]


def replicas_of(cluster) -> list:
    """Every replica of a built cluster, over all shards."""
    if isinstance(cluster, ShardedCluster):
        return [replica for shard in cluster.shard_clusters for replica in shard.replicas]
    return list(cluster.replicas)


def simulators_of(cluster) -> list:
    if isinstance(cluster, ShardedCluster):
        return [runtime.simulator for runtime in cluster.runtimes]
    return [cluster.simulator]


def shape_of(cluster) -> Dict[str, object]:
    """The inputs that shape a built workload, read back from its config."""
    config = cluster.config
    conditions = networks_of(cluster)[0].conditions
    shape: Dict[str, object] = {
        "n": config.num_replicas,
        "batch_size": config.batch_size,
        "pools": len(cluster.pools),
        "outstanding": config.client_outstanding,
        "batches_per_pool": config.total_batches,
        "payload": "ycsb" if config.use_ycsb_payload else "synthetic",
        "executed": config.execute_operations,
        "request_timeout_ms": config.request_timeout_ms,
        "latency_ms": conditions.latency_ms,
        "jitter_ms": conditions.jitter_ms,
    }
    if isinstance(cluster, ShardedCluster):
        shape.update(protocol=config.protocols, shards=config.num_shards,
                     cross_shard_fraction=config.cross_shard_fraction,
                     coordinator=config.use_coordinator, driver="sequential",
                     faults=[])
    else:
        faults = config.faults.crashes if config.faults else []
        shape.update(protocol=config.protocol,
                     faults=[f"crash {crash.node_id} at {crash.at_ms:g} ms"
                             for crash in faults])
    return shape


def replica_nf(cluster) -> int:
    """The ``nf`` quorum of one consensus group (every shard has the same n)."""
    if isinstance(cluster, ShardedCluster):
        return cluster.shard_clusters[0].node_config.nf
    return cluster.node_config.nf


def processed_events(cluster) -> int:
    return sum(sim.processed_events for sim in simulators_of(cluster))


def audit(cluster):
    """The post-run safety audit matching the cluster's kind."""
    if isinstance(cluster, ShardedCluster):
        return audit_sharded_cluster(cluster)
    return audit_cluster(cluster)
