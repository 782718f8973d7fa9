"""One benchmark run in a fresh process: set up, run, audit, report.

    python3 perfbench/child.py --workload NAME --seed N [--traced]

Prints one JSON object.  The untraced run times set-up (import, build,
boot), ``run_until_done()`` and the post-run audit, and reads the
process's peak RSS.  The traced run installs :mod:`tracer` before the
cluster is built and adds the per-layer counts and self times.  Both
report the same fingerprint (event count, virtual metrics, completions
digest), which the caller compares across runs.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from workloads import (  # noqa: E402
    WORKLOADS, audit, networks_of, processed_events, replica_nf, replicas_of, shape_of)

from repro.fabric.metrics import percentile  # noqa: E402

_T_IMPORT = time.perf_counter()

#: Share of the earliest completions excluded from throughput and latency
#: (the same warm-up ``Cluster.result()`` uses).
WARMUP_FRACTION = 0.1


def outage_ms(cluster, records) -> float:
    """Longest virtual time the clients took to complete one full pipeline.

    A pipeline is every batch the pools keep in flight (``pools x
    client_outstanding`` consecutive completions).  Without faults this is
    the normal turnover, close to the batch latency; across a view change
    it is the outage plus one turnover.  A single completion-to-completion
    gap would be the purer outage, but without faults that maximum swings
    by a quarter or more between seeds on the sharded workload, so it
    could not carry a regression bound.
    """
    window = sum(pool.target_outstanding for pool in cluster.pools)
    times = [record.completed_at_ms for record in records]
    if len(times) <= window:
        return times[-1] - times[0] if times else 0.0
    return max(later - earlier for earlier, later in zip(times, times[window:]))


def virtual_metrics(cluster):
    """The paper's client-side metrics, all in virtual time."""
    records = cluster.completions()
    measured = records[int(len(records) * WARMUP_FRACTION):]
    latencies = sorted(record.latency_ms for record in measured)
    return records, {
        "virtual_txn_per_s": cluster.result(warmup_fraction=WARMUP_FRACTION)
        .throughput_txn_per_s,
        "virtual_latency_p50_ms": percentile(latencies, 0.50),
        "virtual_latency_p90_ms": percentile(latencies, 0.90),
        "virtual_outage_ms": outage_ms(cluster, records),
    }, len(latencies)


def completions_digest(records) -> str:
    hasher = hashlib.sha256()
    for record in records:
        hasher.update(repr((record.batch_id, record.view, record.sequence,
                            record.submitted_at_ms, record.completed_at_ms)).encode())
    return hasher.hexdigest()


def layer_metrics(tracer, observer, cluster, wall_s, completed):
    """Per-layer counts, self times and ratios of one traced run."""
    from tracer import commit_fraction

    calls = tracer.calls
    layers = tracer.layer_self_s(wall_s)
    events = processed_events(cluster)
    networks = networks_of(cluster)
    sent = sum(network.sent_count for network in networks)
    dropped = sum(network.dropped_count for network in networks)
    deliveries = calls["protocols.deliveries"]
    executions = calls["ledger.executions"]
    # Replicas count the batches they roll back; none do before the run.
    undone = sum(replica.rolled_back_batches for replica in replicas_of(cluster))
    phases, phase_samples = observer.phases(cluster.completions())
    per_batch = 1.0 / completed if completed else 0.0
    metrics = {
        "net.events": events,
        "net.self_s": layers["net"],
        "net.ns_per_event": layers["net"] / events * 1e9 if events else 0.0,
        "net.timers_armed": calls["net.timers_armed"],
        "net.timers_cancelled": calls["net.timers_cancelled"],
        "net.msgs_per_batch": sent * per_batch,
        "net.bytes_per_batch": observer.delivered_bytes * per_batch,
        "net.dropped_frac": dropped / sent if sent else 0.0,
        "protocols.deliveries": deliveries,
        "protocols.timer_fires": calls["protocols.timer_fires"],
        "protocols.self_s": layers["protocols"],
        "protocols.us_per_delivery":
            layers["protocols"] / deliveries * 1e6 if deliveries else 0.0,
        "protocols.cpu_ms_per_batch": tracer.replica_cpu_ms * per_batch,
        "crypto.digest_calls": calls["crypto.digest_calls"],
        "crypto.digest_s": tracer.self_s["crypto.digest"],
        "crypto.auth_calls": calls["crypto.auth_calls"],
        "crypto.auth_s": tracer.self_s["crypto.auth"],
        "ledger.appends": calls["ledger.appends"],
        "ledger.executions": executions,
        "ledger.txns_applied": calls["ledger.txns_applied"],
        "ledger.self_s": layers["ledger"],
        "ledger.rollbacks": calls["ledger.rollbacks"],
        "ledger.undone_batches": undone,
        "ledger.kept_frac": (executions - undone) / executions if executions else 0.0,
        "clients.replies_per_batch": calls["clients.deliveries"] * per_batch,
        "clients.self_s": layers["clients"],
        "clients.timer_fires": calls["clients.timer_fires"],
        "workload.gen_calls": calls["workload.gen_calls"],
        "workload.gen_s": layers["workload"],
        "xshard.boundary_msgs": calls["xshard.boundary_msgs"],
        "xshard.coord_deliveries": calls["xshard.coord.deliveries"],
        "xshard.coord_s": layers["xshard"],
        "xshard.commit_frac": commit_fraction(cluster),
        "phase.request_ms": phases["request"],
        "phase.propose_ms": phases["propose"],
        "phase.support_ms": phases["support"],
        "phase.inform_ms": phases["inform"],
    }
    # Shares of the layers' total, the traced run less the tracer's cost.
    total = sum(layers.values())
    shares = {layer: seconds / total for layer, seconds in layers.items()}
    return metrics, shares, phase_samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--import-only", action="store_true",
                        help="import and build, run nothing (compiles bytecode)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = observer = None
    if args.traced:
        from tracer import PhaseObserver, Tracer

        tracer = Tracer()
        tracer.calibrate()
        tracer.install()
    t_build = time.perf_counter()
    cluster = workload.build(args.seed, workload.batches)
    if args.import_only:
        print(json.dumps({"import_only": True}))
        return 0
    if tracer is not None:
        tracer.check_coverage(networks_of(cluster))
        observer = PhaseObserver(replica_nf(cluster))
        for network in networks_of(cluster):
            network.add_observer(tracer.own(observer))
    t_boot = time.perf_counter()
    cluster.start()
    if tracer is not None:
        tracer.reset()  # per-layer figures cover the timed region only
    t_run = time.perf_counter()
    cluster.run_until_done()
    wall_s = time.perf_counter() - t_run
    if tracer is not None:
        # Before the audit, whose own digests must not count.
        layers = layer_metrics(tracer, observer, cluster, wall_s,
                               len(cluster.completions()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t_audit = time.perf_counter()
    report = audit(cluster)
    audit_s = time.perf_counter() - t_audit
    records, virtual, latency_samples = virtual_metrics(cluster)
    out = {
        "workload": workload.name,
        "seed": args.seed,
        "batches": workload.batches,
        "traced": args.traced,
        "shape": shape_of(cluster),
        "attempted": sum(pool.total_batches for pool in cluster.pools),
        "completed": len(records),
        "audit_ok": report.ok,
        "audit": report.summary(),
        "fingerprint": {
            "net.events": processed_events(cluster),
            "completions": completions_digest(records),
            **virtual,
        },
        "latency_samples": latency_samples,
        "import_s": _T_IMPORT - _T0,
        "build_s": t_boot - t_build,
        "boot_s": t_run - t_boot,
        "setup_s": (_T_IMPORT - _T0) + (t_run - t_build),
        "wall_s": wall_s,
        "audit_s": audit_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out["layers"], out["shares"], out["phase_samples"] = layers
        out["digest_rebound_modules"] = len(tracer.rebound_modules)
        out["tracer_cost_s"] = tracer.overhead_s()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
