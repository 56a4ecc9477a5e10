"""Self-tests of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTERS = ("kernels.walk_steps", "kernels.lockstep_iters", "rules.state_steps",
            "matrices.count_stages", "classic.chw_depth")


def bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report, line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(line)


@pytest.fixture(scope="module")
def runs():
    return {(w, t): bench(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        report, line = runs[workload, trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in line["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    report, _ = runs[workload, 0]
    names = set(report["metrics"])
    assert {"failed_frac", "undecided_frac"} <= names
    if workload.startswith("mc-"):
        assert {"trials_per_s", "simulate_s"} <= names
    else:
        assert {"classify_s", "embed_s", "verify_s", "exact_law_s", "set_s"} <= names
    assert report["tail_percentile"] in run.TAIL_LADDER
    assert report["environment"]["backend"] in ("numpy", "numba")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_sum_to_traced_op_time(runs, workload):
    metrics = runs[workload, 1][1]["metrics"]
    total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert total == pytest.approx(metrics["trace.op_s"]["value"], rel=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly_for_one_seed(runs, workload):
    again = bench(workload, 1)[1]["metrics"]
    first = runs[workload, 1][1]["metrics"]
    for name in COUNTERS:
        assert first[name]["value"] == again[name]["value"], name


def test_certify_runs_no_kernel(runs):
    metrics = runs["certify", 1][1]["metrics"]
    assert all(v["value"] == 0 for k, v in metrics.items()
               if k.startswith("kernels.")), metrics


def test_planted_wrong_expectation_is_counted_not_raised(tmp_path):
    w = workloads.build("certify", 5, tmp_path, tiny=True)
    execs = [run.execute(op, w.op_budget_s, workloads.run_cli) for op in w.ops]
    weight_op = next(op for op in w.ops if op.check == "classify_weight")
    law_op = next(op for op in w.ops if op.check == "exact_law")
    # plant: a grid point whose brute-force verdict is the opposite one,
    # and an exact-law target moved off the rule's law
    flipped = Q(1, 2) if not oracle.Oracle(None).grid_member(weight_op.spec["point"]) \
        else Q(3, 4)
    weight_op.spec["point"] = flipped
    law_op.spec["target"] = workloads.FIVE_ATOM
    failures, _, failed = run.judge(execs, oracle.Oracle(workloads.run_cli),
                                    oracle.undecided)
    assert failed == 2
    assert {f["op"] for f in failures} == {weight_op.op_id, law_op.op_id}


def test_op_errors_and_overruns_are_failures(tmp_path):
    w = workloads.build("certify", 5, tmp_path, tiny=True)
    op = w.ops[0]

    def raising(argv):
        raise RuntimeError("boom")

    def stalling(argv):
        while True:
            pass

    signal.signal(signal.SIGALRM, run._alarm)
    ex = run.execute(op, 5.0, raising)
    assert ex.error and "boom" in ex.error
    ex = run.execute(op, 0.2, stalling)
    assert ex.error and "budget" in ex.error
    failures, _, failed = run.judge([ex], oracle.Oracle(workloads.run_cli),
                                    oracle.undecided)
    assert failed == 1 and failures[0]["op"] == op.op_id


def test_ops_are_scaled_by_the_probes_around_them():
    ex = [run.Execution(None, 0.2, 0, "", None), run.Execution(None, 0.1, 0, "", None)]
    w = run.PROBE_WINDOW_S
    # op 0 runs at half the reference speed, op 1 (long after) at the reference
    probes = [(0.0, 2 * run.REF_PROBE_S), (0.2, 2 * run.REF_PROBE_S),
              (0.2 + w + 0.1, run.REF_PROBE_S), (10.0, run.REF_PROBE_S),
              (10.1, run.REF_PROBE_S)]
    run.set_probes(ex, [(0.0, 0.2), (10.0, 10.1)], probes)
    assert ex[0].probe == 2 * run.REF_PROBE_S and ex[0].ref_seconds == 0.1
    assert ex[1].probe == run.REF_PROBE_S and ex[1].ref_seconds == 0.1


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_bumped_matrix_predictions_match_the_acceptance_table():
    mu = workloads.THREE_QUARTERS
    for n, loc in {0: (0, 1), 1: (0, 1), 2: (0, 2)}.items():
        bumped = workloads._bump(workloads.DOUBLING_34, 0, n)
        assert oracle.predict_violation(bumped, mu) == loc
    assert oracle.predict_violation(workloads.DOUBLING_34, mu) is None
