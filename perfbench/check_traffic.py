"""Traffic checks: each workload stresses the layers it was chosen for.

    python3 -m pytest perfbench/check_traffic.py -q

The file is named so that the repository's default test run does not
collect it; it runs one traced and one untraced process per workload
(about 15 s in total).
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import run_child  # noqa: E402

WORKLOADS = ("vote-flood", "ycsb-exec", "primary-crash", "xshard-2pc")
SEED = 1


@pytest.fixture(scope="module")
def traced():
    return {workload: run_child(workload, SEED, "--traced") for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reproduces_untraced_run(traced, workload):
    untraced = run_child(workload, SEED)
    assert traced[workload]["fingerprint"] == untraced["fingerprint"]
    assert untraced["audit_ok"] and untraced["completed"] == untraced["attempted"]


def test_xshard_layers_idle_off_xshard_workload(traced):
    names = ("xshard.boundary_msgs", "xshard.coord_deliveries", "xshard.coord_s",
             "xshard.commit_frac")
    for workload in WORKLOADS:
        layers = traced[workload]["layers"]
        if workload == "xshard-2pc":
            assert all(layers[name] > 0 for name in names)
        else:
            assert all(layers[name] == 0 for name in names), workload


def test_only_ycsb_exec_applies_transactions(traced):
    for workload in WORKLOADS:
        applied = traced[workload]["layers"]["ledger.txns_applied"]
        assert (applied > 0) == (workload == "ycsb-exec"), workload


@pytest.mark.parametrize("name", ["net.timers_cancelled", "clients.timer_fires"])
def test_timer_churn_peaks_on_primary_crash(traced, name):
    counts = {workload: traced[workload]["layers"][name] for workload in WORKLOADS}
    assert max(counts, key=counts.get) == "primary-crash", counts


def test_ycsb_exec_time_is_crypto_ledger_and_generator(traced):
    shares = traced["ycsb-exec"]["shares"]
    assert shares["crypto"] + shares["ledger"] + shares["workload"] > 0.5, shares


def test_vote_flood_time_is_event_loop_and_handlers(traced):
    shares = traced["vote-flood"]["shares"]
    assert shares["net"] + shares["protocols"] > 0.5, shares
    assert shares["crypto"] + shares["ledger"] < 0.25, shares


def test_self_times_account_for_the_traced_wall_time(traced):
    for workload in WORKLOADS:
        shares = traced[workload]["shares"]
        assert sum(shares.values()) == pytest.approx(1.0)
        assert all(share >= 0 for share in shares.values()), (workload, shares)
