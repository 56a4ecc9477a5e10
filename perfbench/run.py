"""walkembed benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the root of a walkembed checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

A single client issues one CLI operation at a time through
`walkembed.cli.main(argv)` in this process (a closed loop), replaying the
workload's seeded op list pass after pass for at least `--seconds` and at
least the workload's minimum number of passes.  Outputs are checked by the
oracle after timing.  With `--trace 1` the workload's minimum number of
passes runs untraced, alternating with as many passes under the layer
wrappers, and the per-layer metrics are reported.

A shared host changes speed by up to half within seconds, so a fixed
pure-Python probe loop is timed before the first op of a pass and after
every op.  The `*_ref_s` metrics scale each op time by REF_PROBE_S over the
median of the probes within PROBE_WINDOW_S of it: seconds at the speed where
the probe takes REF_PROBE_S.  The unscaled times are in the report line.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it is the full report
(environment, every metric with its unit, failures), which is also written
under `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 7
#: the speed probe's duration at the reference speed; a `*_ref_s` metric is
#: an op time scaled by REF_PROBE_S / (the probe time measured next to it)
REF_PROBE_S = 0.5e-3
PROBE_ITERS = 4000
#: the host's speed holds for seconds at a time; probes this close to an op
#: read the speed it ran at
PROBE_WINDOW_S = 0.5
#: a timed loop starts no new pass after this long, so a run ends in time
LOOP_CAP_S = 70.0
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
COMMANDS = ("classify", "embed", "verify", "exact-law", "simulate", "set")

# Runs in a fresh interpreter: import the CLI, resolve the backend the way
# `simulate` does by default, and compile the kernels when numba is there.
SETUP_CHILD = r"""
import json, os, sys, time
sys.path.insert(0, sys.argv[1])
import walkembed.cli
from walkembed import kernels
backend = kernels.resolve_backend(None)
env = os.environ.get("WALKEMBED_BACKEND")
if env:
    why = f"WALKEMBED_BACKEND={env}"
elif kernels.HAVE_NUMBA:
    why = "auto: numba importable"
else:
    why = "auto: numba not importable, numpy fallback"
jit_s = 0.0
if backend == "numba":
    from fractions import Fraction as Q
    from walkembed import (ChipStep, ExitCompositionRule, MaxThresholdRule,
                           MinimalRule, hall_rule, measure, minimal_certificate,
                           simulate)
    t0 = time.perf_counter()
    mu = measure({-1: Q(1, 2), 1: Q(1, 2)})
    for rule in (hall_rule(mu), MinimalRule(minimal_certificate(mu)),
                 ExitCompositionRule((ChipStep(-1, 1),)),
                 MaxThresholdRule(((-1, 0), (0, 1), (1, 1)))):
        simulate(rule, 8, seed=0, max_steps=16)
    jit_s = time.perf_counter() - t0
print(json.dumps({"backend": backend, "why": why, "jit_s": jit_s}))
"""


def probe() -> float:
    """Wall time of a fixed pure-Python loop, a reading of the host's
    current speed.  The loop touches no walkembed code, so a change to the
    program does not change it."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(PROBE_ITERS):
        acc += i * i % 7
        table[i & 255] = acc
    return time.perf_counter() - t0


class OpTimeout(Exception):
    """Raised by the alarm when an op exceeds its budget."""


def _alarm(signum, frame):
    raise OpTimeout()


def measure_setup() -> tuple[list[float], dict]:
    """Wall time of fresh interpreters that import the CLI and resolve the
    backend (plus JIT compile under numba), and what they resolved."""
    times, info = [], {}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
        info = json.loads(proc.stdout)
    return times, info


def cache_sizes() -> dict[str, int]:
    try:
        text = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                              timeout=30).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1].isdigit():
            sizes[parts[0]] = int(parts[1])
    return sizes


def environment(setup_info: dict) -> dict:
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "backend": setup_info["backend"],
        "backend_why": setup_info["why"],
        "jit_compile_s": setup_info["jit_s"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": affinity,
        "cache_bytes": cache_sizes(),
    }


@dataclass(slots=True)
class Execution:
    op: object
    seconds: float
    code: int | None
    out: str
    error: str | None
    #: median probe time around the op (see `set_probes`)
    probe: float = REF_PROBE_S

    @property
    def ref_seconds(self) -> float:
        """The op time scaled to the reference speed."""
        return self.seconds * REF_PROBE_S / self.probe


def execute(op, budget: float, run_cli) -> Execution:
    """One op under its wall budget; an exception or overrun is recorded."""
    signal.setitimer(signal.ITIMER_REAL, budget)
    t0 = time.perf_counter()
    try:
        code, out, _ = run_cli(op.argv)
        return Execution(op, time.perf_counter() - t0, code, out, None)
    except OpTimeout:
        return Execution(op, time.perf_counter() - t0, None, "",
                         f"exceeded the {budget:g} s op budget")
    except Exception:  # the loop must go on; the op counts as failed
        return Execution(op, time.perf_counter() - t0, None, "",
                         traceback.format_exc(limit=3).strip().splitlines()[-1])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def timed_loop(workload, run_cli, seconds: float, passes: int | None = None,
               tracer=None) -> list[list[Execution]]:
    """Replay the op list, one list of executions per pass: a fixed number
    of passes, or at least the workload's minimum and until `seconds` have
    gone by.  The speed probe runs before the first op and after each op."""
    done: list[list[Execution]] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if passes is not None:
            if len(done) >= passes:
                break
        elif len(done) >= workload.min_passes and elapsed >= seconds:
            break
        if done and elapsed >= LOOP_CAP_S:
            break
        execs, spans = [], []
        probes = [(time.perf_counter(), probe())]
        for op in workload.ops:
            if tracer is not None:
                tracer.op = op.op_id
            t0 = time.perf_counter()
            execs.append(execute(op, workload.op_budget_s, run_cli))
            spans.append((t0, time.perf_counter()))
            probes.append((time.perf_counter(), probe()))
        set_probes(execs, spans, probes)
        done.append(execs)
    return done


def set_probes(execs: list[Execution], spans: list[tuple[float, float]],
               probes: list[tuple[float, float]]) -> None:
    """Give each op the median of the probes taken from PROBE_WINDOW_S
    before it starts to PROBE_WINDOW_S after it ends; the two probes right
    around it are always inside."""
    at = [t for t, _ in probes]
    for ex, (t0, t1) in zip(execs, spans):
        lo = bisect.bisect_left(at, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(at, t1 + PROBE_WINDOW_S)
        ex.probe = statistics.median(d for _, d in probes[lo:hi])


def pass_seconds(passes: list[list[Execution]], ref: bool = False) -> list[float]:
    """Op time of each pass, as measured or scaled to the reference speed."""
    if ref:
        return [sum(ex.ref_seconds for ex in p) for p in passes]
    return [sum(ex.seconds for ex in p) for p in passes]


def tail_percentile(planned: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if planned - int(-(-p * planned // 100)) >= 10:
            return p
    return TAIL_LADDER[-1]


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(1, int(-(-p * len(ordered) // 100)))
    return ordered[rank - 1]


def judge(execs: list[Execution], oracle, undecided) -> tuple[list[dict], int, int]:
    """Failure records (one per op), the undecided count and the failed count."""
    first: dict[int, Execution] = {}
    verdicts: dict[int, str | None] = {}
    failures: dict[int, dict] = {}
    n_undecided = 0
    failed = 0
    for ex in execs:
        op = ex.op
        reason = ex.error
        if reason is None:
            if op.op_id not in first:
                first[op.op_id] = ex
                verdicts[op.op_id] = oracle.check(op, ex.code, ex.out)
            elif (ex.code, ex.out) != (first[op.op_id].code, first[op.op_id].out):
                reason = "output differs between passes"
            reason = reason or verdicts[op.op_id]
            n_undecided += undecided(ex.code, ex.out)
        if reason is not None:
            failed += 1
            failures.setdefault(op.op_id, {"op": op.op_id, "argv": op.argv,
                                           "reason": reason, "count": 0})
            failures[op.op_id]["count"] += 1
    return list(failures.values()), n_undecided, failed


def end_to_end(workload, passes, setup_times, rss_kb):
    """Contract metrics, report-only metrics, and the tail percentile used."""
    execs = [ex for p in passes for ex in p]
    lat = [ex.seconds for ex in execs]
    ref = [ex.ref_seconds for ex in execs]
    p = tail_percentile(len(workload.ops) * workload.min_passes)
    # the tail is taken over each op's median across passes: the slowest ops
    # are a handful of heavy ones, and a single run of one of them mostly
    # tells how fast the host was just then
    by_op: dict[int, list[Execution]] = {}
    for ex in execs:
        by_op.setdefault(ex.op.op_id, []).append(ex)
    tail_ref = percentile([statistics.median(e.ref_seconds for e in v)
                           for v in by_op.values()], p)
    tail = percentile([statistics.median(e.seconds for e in v)
                       for v in by_op.values()], p)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_ref_s": (statistics.median(pass_seconds(passes, ref=True)), "ref_s"),
        "op_p50_ref_s": (statistics.median(ref), "ref_s"),
        "op_tail_ref_s": (tail_ref, "ref_s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    extra = {
        "wall_s": (statistics.median(pass_seconds(passes)), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail, "s"),
        "probe_s": (statistics.median(ex.probe for ex in execs), "s"),
    }
    per_cmd = {c: 0.0 for c in COMMANDS}
    trials = 0
    for ex in execs:
        per_cmd[ex.op.command] += ex.seconds
        if ex.op.command == "simulate" and ex.error is None:
            trials += ex.op.spec["trials"]
    extra |= {f"{c.replace('-', '_')}_s": (v, "s") for c, v in per_cmd.items() if v}
    if per_cmd["simulate"]:
        extra["trials_per_s"] = (trials / per_cmd["simulate"], "1/s")
    return metrics, extra, {"tail_percentile": p, "latency_samples": len(lat)}


def op_medians(execs: list[Execution]) -> list[list]:
    """[op id, command, median seconds, median ref seconds] for each op of
    the timed passes."""
    by_op: dict[int, list[Execution]] = {}
    for ex in execs:
        by_op.setdefault(ex.op.op_id, []).append(ex)
    return [[i, v[0].op.command, statistics.median(e.seconds for e in v),
             statistics.median(e.ref_seconds for e in v)] for i, v in by_op.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "walkembed" / "cli.py").is_file():
        print(f"error: {SRC / 'walkembed'} not found; run from the root of a "
              "walkembed checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import walkembed

    if Path(walkembed.__file__).resolve().parent != (SRC / "walkembed").resolve():
        print(f"error: imported walkembed from {walkembed.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import oracle as oracle_mod
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    result = run(args, workloads, oracle_mod)
    print(json.dumps(result["report"], sort_keys=True))
    print(json.dumps(result["line"]))
    return 0


def run(args, workloads, oracle_mod) -> dict:
    """One benchmark run; returns the report and the result line."""
    signal.signal(signal.SIGALRM, _alarm)
    phases = {}
    clock = time.perf_counter()

    def phase(name):
        nonlocal clock
        now = time.perf_counter()
        phases[name] = now - clock
        clock = now

    setup_times, setup_info = measure_setup()
    phase("setup")
    work = OUT / "work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, work, tiny=args.tiny)
        phase("build")
        run_cli = workloads.run_cli
        # one untimed op per command fills lazy imports before timing
        seen = set()
        for op in workload.ops:
            if op.command not in seen:
                seen.add(op.command)
                execute(op, workload.op_budget_s, run_cli)
        phase("warmup")

        tracer = None
        traced: list[list[Execution]] = []
        if args.trace:
            # untraced and traced passes alternate, so a drift in machine
            # speed does not show up as tracing overhead
            from tracing import Tracer

            tracer = Tracer()
            passes = []
            for _ in range(workload.min_passes):
                passes += timed_loop(workload, run_cli, 0.0, passes=1)
                tracer.install()
                try:
                    traced += timed_loop(workload, run_cli, 0.0, passes=1, tracer=tracer)
                finally:
                    tracer.uninstall()
        else:
            passes = timed_loop(workload, run_cli, args.seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        phase("timed")
        e2e, extra, tail = end_to_end(workload, passes, setup_times, rss_kb)
        execs = [ex for p in passes for ex in p]
        all_execs = execs + [ex for p in traced for ex in p]

        oracle = oracle_mod.Oracle(run_cli)
        failures, n_undecided, failed = judge(all_execs, oracle, oracle_mod.undecided)
        phase("oracle")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(all_execs)
    extra["failed_frac"] = (failed / attempted, "ratio")
    extra["undecided_frac"] = (n_undecided / attempted, "ratio")
    problems = []
    if tracer is not None:
        layer = tracer.layer_metrics(len(traced))
        layer["trace.overhead_frac"] = (
            statistics.median(pass_seconds(traced, ref=True))
            / e2e["wall_ref_s"][0] - 1, "ratio")
        self_sum = sum(v for k, (v, _) in layer.items() if k.endswith(".self_s"))
        op_s = layer["trace.op_s"][0]
        if abs(self_sum - op_s) > 1e-9 * max(op_s, 1.0):
            problems.append(f"layer self times sum to {self_sum}, traced op time {op_s}")
        reported = layer
    else:
        reported = e2e
    everything = {**e2e, **extra, **(layer if tracer is not None else {})}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "environment": environment(setup_info),
        "ops_per_pass": len(workload.ops),
        "passes": len(passes),
        "traced_passes": len(traced),
        "setup_runs": len(setup_times),
        **tail,
        "phase_s": phases,
        "pass_s": pass_seconds(passes),
        "pass_ref_s": pass_seconds(passes, ref=True),
        "traced_pass_s": pass_seconds(traced),
        "op_median_s": op_medians(execs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in everything.items()},
        "failures": failures,
        "problems": problems,
    }
    line = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    if tracer is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "op"],
             "spans": tracer.spans}))
    return {"report": report, "line": line, "tracer": tracer}


if __name__ == "__main__":
    sys.exit(main())
