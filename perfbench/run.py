"""The repository benchmark: one workload, repeated fresh-process runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is a fresh ``perfbench/child.py`` process (one at a time, no
threads) that imports ``repro``, builds and boots the workload's cluster,
runs it to its batch budget and audits it.  ``--seed`` derives the
workload's configs (one, or several where one seed's input mix moves the
virtual metrics); runs cycle through them until ``--seconds`` have
passed, and every run must reproduce its config's first run (event
count, completions and virtual metrics) exactly.

``--trace 0`` prints the end-to-end metrics: host medians over all runs
(``setup_s`` and ``wall_s`` scaled to the reference host speed, and
``peak_rss_mb``) and, over the configs, the medians of the deterministic
virtual metrics.  A fixed pure-Python reference loop is timed before the
first run and after each one; it reads the host's speed at that moment.
``--trace 1`` alternates untraced and traced runs and prints the
per-layer metrics; the traced runs must reproduce the untraced
fingerprint, and ``trace.overhead_s`` is their wall-time difference.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it record the inputs (seed, shape, host) and each run's figures.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: A single run that takes longer than this has hung.
CHILD_TIMEOUT_S = 60.0

#: End-to-end metrics that are host medians over all runs; the others are
#: the configs' medians of the deterministic virtual metrics.
HOST_METRICS = ("setup_s", "wall_s", "peak_rss_mb")

#: Host times reported at the reference speed (see :func:`reference_s`).
SPEED_SCALED = ("setup_s", "wall_s")

#: Median :func:`reference_s` on the host the bounds were set on (a
#: 2-vCPU shared VM, CPython 3.11); host times are scaled to this speed.
REFERENCE_S = 0.5

#: Events one :func:`reference_s` call processes.
REFERENCE_EVENTS = 300_000

#: Per-layer metrics measured in the untraced runs.
UNTRACED_LAYERS = {
    "setup.import_s": "import_s",
    "setup.build_s": "build_s",
    "setup.boot_s": "boot_s",
    "audit.report_s": "audit_s",
}


class BenchmarkFailed(RuntimeError):
    """A run failed, hung or printed no result, or traced runs disagree."""


class _Voter:
    __slots__ = ("count", "votes")

    def __init__(self) -> None:
        self.count = 0
        self.votes: Dict[int, set] = {}

    def vote(self, slot: int, voter: int) -> int:
        self.count += 1
        voters = self.votes.get(slot)
        if voters is None:
            voters = self.votes[slot] = set()
        voters.add(voter)
        return len(voters)


def reference_s() -> float:
    """Time a fixed pure-Python mix that runs no ``repro`` code.

    Heap-ordered events are dispatched to small objects that count votes
    in dicts of sets, with a SHA-256 digest every eighth event: the kinds
    of interpreter work the simulator does.  Every key is an integer, so
    the loop's speed does not depend on the process's string-hash seed.
    Timed between runs, it reads how fast the host is at that moment.
    The shared reference host drifts by up to 2x over minutes, and a
    run's time drifts with it; scaling by this reading removes most of
    that drift.  It runs in this process, whose heap stays small, so the
    program's memory cannot slow it through the garbage collector.
    """
    start = time.perf_counter()
    voters = [_Voter() for _ in range(16)]
    heap: List[tuple] = []
    for index in range(REFERENCE_EVENTS):
        heapq.heappush(heap, ((index * 7919) % 10007 * 0.5, index, index & 15))
        if len(heap) > 256:
            _, event, target = heapq.heappop(heap)
            voters[target].vote(event & 255, event & 31)
        if index & 7 == 0:
            hashlib.sha256(b"%d" % index).digest()
    if sum(voter.count for voter in voters) != REFERENCE_EVENTS - 256:
        raise BenchmarkFailed("reference loop miscounted")
    return time.perf_counter() - start


def run_child(workload: str, seed: int, *extra: str) -> Dict[str, object]:
    command = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", workload, "--seed", str(seed), *extra]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkFailed(f"run {' '.join(extra) or 'untraced'} timed out") from exc
    if done.returncode != 0:
        raise BenchmarkFailed(f"run exited {done.returncode}:\n{done.stderr.strip()}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchmarkFailed(f"run printed no result:\n{done.stdout}") from exc


def failed_batches(run: Dict[str, object]) -> int:
    """Budgeted batches not completed, or all of them if the audit failed."""
    if not run["audit_ok"]:
        return int(run["attempted"])
    return int(run["attempted"]) - min(int(run["completed"]), int(run["attempted"]))


def config_seeds(seed: int, configs: int) -> List[int]:
    """The seeds of the configs one run measures, derived from ``--seed``."""
    return [seed * configs + index for index in range(configs)]


def by_seed(runs: List[Dict[str, object]]) -> Dict[int, List[Dict[str, object]]]:
    groups: Dict[int, List[Dict[str, object]]] = {}
    for run in runs:
        groups.setdefault(int(run["seed"]), []).append(run)
    return groups


def check_runs(runs: List[Dict[str, object]], traced: List[Dict[str, object]]) -> List[str]:
    """Every run must reproduce its seed's first untraced fingerprint."""
    reference = {seed: group[0]["fingerprint"] for seed, group in by_seed(runs).items()}
    problems = []
    for run in runs + traced:
        expected = reference[int(run["seed"])]
        if run["fingerprint"] != expected:
            kind = "traced" if run["traced"] else "untraced"
            problems.append(f"{kind} run of seed {run['seed']} diverged: "
                            f"{run['fingerprint']} != {expected}")
        if not run["audit_ok"]:
            problems.append(f"audit failed on seed {run['seed']}: {run['audit']}")
    return problems


def median_of(runs: List[Dict[str, object]], key: str) -> float:
    return statistics.median(float(run[key]) for run in runs)


def scale_to_reference(runs: List[Dict[str, object]], references: List[float]) -> None:
    """Give each run the factor that takes its host times to the reference
    speed, from the mean of the two reference timings taken before it and
    the two after it.  Run *i* falls between ``references[i]`` and
    ``references[i + 1]``.  One reading is as noisy as the host is from
    second to second; four of them still follow its drift over minutes."""
    for index, run in enumerate(runs):
        nearby = references[max(0, index - 1):index + 3]
        run["speed_scale"] = REFERENCE_S / statistics.mean(nearby)


def declared_units(trace: int) -> Dict[str, str]:
    """Name -> unit of every metric the mode reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"]
            for metric in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(runs: List[Dict[str, object]], names) -> Dict[str, float]:
    fingerprints = [group[0]["fingerprint"] for group in by_seed(runs).values()]
    values = {}
    for name in names:
        if name in SPEED_SCALED:
            values[name] = statistics.median(
                float(run[name]) * run["speed_scale"] for run in runs)
        elif name in HOST_METRICS:
            values[name] = median_of(runs, name)
        else:
            values[name] = statistics.median(fp[name] for fp in fingerprints)
    return values


def per_layer(runs: List[Dict[str, object]],
              traced: List[Dict[str, object]]) -> Dict[str, float]:
    values = {}
    groups = by_seed(traced)
    for name in traced[0]["layers"]:
        per_seed = []
        for seed, group in groups.items():
            samples = [run["layers"][name] for run in group]
            if isinstance(samples[0], int) and len(set(samples)) != 1:
                raise BenchmarkFailed(f"traced runs of seed {seed} disagree on {name}: {samples}")
            per_seed.append(statistics.median(samples))
        values[name] = statistics.median(per_seed)
    for name, key in UNTRACED_LAYERS.items():
        values[name] = median_of(runs, key)
    values["trace.wall_s"] = median_of(traced, "wall_s")
    values["trace.overhead_s"] = values["trace.wall_s"] - median_of(runs, "wall_s")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    units = declared_units(args.trace)
    seeds = config_seeds(args.seed, workload.configs)
    # Untraced runs repeat every config at least twice (the determinism
    # check); in a traced run its traced twin is the repeat.
    min_runs = len(seeds) if args.trace else 2 * len(seeds)
    runs: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    try:
        # Unmeasured: compiles bytecode so no measured import pays for it.
        run_child(workload.name, seeds[0], "--import-only")
        deadline = time.perf_counter() + args.seconds
        references = [reference_s()]
        while len(runs) < min_runs or time.perf_counter() < deadline:
            seed = seeds[len(runs) % len(seeds)]
            runs.append(run_child(workload.name, seed))
            if args.trace:
                traced.append(run_child(workload.name, seed, "--traced"))
            references.append(reference_s())
        scale_to_reference(runs, references)
        problems = check_runs(runs, traced)
        metrics = per_layer(runs, traced) if args.trace else end_to_end(runs, units)
    except BenchmarkFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(int(run["attempted"]) for run in runs + traced)
    failed = sum(failed_batches(run) for run in runs + traced)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "config_seeds": seeds,
        "seconds": args.seconds,
        "shape": runs[0]["shape"],
        "host": {"cores": os.cpu_count(), "python": platform.python_version(),
                 "implementation": platform.python_implementation()},
        "runs": len(runs),
        "traced_runs": len(traced),
        "wall_s": [round(float(run["wall_s"]), 4) for run in runs],
        "setup_s": [round(float(run["setup_s"]), 4) for run in runs],
        "reference_s": [round(reference, 4) for reference in references],
        "reference_nominal_s": REFERENCE_S,
        "latency_samples": runs[0]["latency_samples"],
        "failed_frac": failed / attempted,
        "audit": runs[0]["audit"],
    }
    print(json.dumps({"info": info}))
    if traced:
        shares = {layer: statistics.median(run["shares"][layer] for run in traced)
                  for layer in traced[0]["shares"]}
        print(json.dumps({"self_time_shares": shares,
                          "tracer_cost_s": median_of(traced, "tracer_cost_s"),
                          "phase_samples": traced[0]["phase_samples"],
                          "digest_rebound_modules": traced[0]["digest_rebound_modules"]}))
    for problem in problems:
        print(problem, file=sys.stderr)
    if set(metrics) != set(units):
        print(f"measured {sorted(metrics)} but BENCHMARK.json declares "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
