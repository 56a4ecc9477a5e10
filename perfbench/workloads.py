"""Seeded op lists for the benchmark workloads.

A workload turns a seed into a fixed list of CLI operations.  Every input
file (targets, rules, matrices) is written before timing starts; rules are
emitted by running the CLI's own `embed` untimed, exactly as a user would
produce them.  Each op carries the expectation its oracle checks.

Workloads (see README.md for the rationale and the metric map):

mc-heavy   `simulate` of minimal-rule certificates.  First-visit times are
           heavy-tailed and `--max-steps` truncates a few trials, so the
           numpy lockstep loop runs to the step cap with few live trials.
mc-short   `simulate` of rules with light-tailed stopping times at many
           trials: per-trial seeding, pair sampling and report reduction
           dominate.
certify    the exact pipeline (classify, embed, verify, exact-law, set) on
           the paper's named targets and seed-drawn centered targets.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from pathlib import Path

from walkembed import cli
from walkembed.classic import ChipStep, azema_yor_check
from walkembed.matrices import MatrixRow, StoppingMatrix, search_matrix
from walkembed.measures import IntegerMeasure, measure
from walkembed.rules import ExitCompositionRule, rule_to_json
from walkembed.uiset import classify_weight

from oracle import GRID_H, chip_law, predict_violation

# targets named in the paper; the weights of the five-atom target on
# {-6, -2, 0, 2, 6} are this benchmark's choice
UNIFORM3 = measure({-1: Q(1, 3), 0: Q(1, 3), 1: Q(1, 3)})
OFF_CENTER = measure({-1: Q(1, 2), 3: Q(1, 2)})
FIVE_SIXTEENTHS = measure({0: Q(5, 16), -2: Q(11, 32), 2: Q(11, 32)})
TWO_NINTHS = measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)})
ONE_SIXTH = measure({0: Q(1, 6), -2: Q(5, 12), 2: Q(5, 12)})
THREE_QUARTERS = measure({0: Q(3, 4), -4: Q(1, 8), 4: Q(1, 8)})
FIVE_ATOM = measure({-6: Q(1, 8), -2: Q(1, 4), 0: Q(1, 4), 2: Q(1, 4), 6: Q(1, 8)})

# witnesses the matrix search cannot emit (non-zero tails), from the paper
DOUBLING_34 = StoppingMatrix(3, {0: MatrixRow((0, 2, 2), "doubling")})
PERIODIC_16 = StoppingMatrix(1, {0: MatrixRow((0, 0), "periodic", (2,))})

# certify search depth: the named targets stay cheap at 5 except the
# 13-site five-atom hull, whose chip search grows about tenfold per level
NAMED_DEPTH = 5
WIDE_DEPTH = 3
SEEDED_DEPTH = 3
# seed-drawn hulls are capped at this width so every search ends in budget
SEEDED_WIDTH = 6


@dataclass
class Op:
    op_id: int
    command: str  # CLI subcommand, for per-command totals
    argv: list[str]
    check: str  # oracle name
    spec: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list[Op]
    #: passes every run makes; with the op count it fixes the tail percentile
    min_passes: int
    #: per-op wall budget: an op over it is stopped and counted as failed
    op_budget_s: float


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One CLI operation in-process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Builder:
    """Collects ops and writes their input files into `workdir`."""

    def __init__(self, workdir: Path, rng: random.Random):
        self.workdir = workdir
        self.rng = rng
        self.ops: list[Op] = []
        workdir.mkdir(parents=True, exist_ok=True)

    def file(self, stem: str, text: str) -> str:
        path = self.workdir / f"{stem}.json"
        path.write_text(text)
        return str(path)

    def measure_file(self, stem: str, mu: IntegerMeasure) -> str:
        return self.file(stem, json.dumps(mu.to_json_dict(), sort_keys=True))

    def add(self, command: str, argv: list[str], check: str, **spec) -> Op:
        op = Op(len(self.ops), command, argv, check, spec)
        self.ops.append(op)
        return op

    def emit(self, argv: list[str]) -> tuple[int, str]:
        """Run a CLI op untimed (input preparation)."""
        code, out, err = run_cli(argv)
        if code not in (0, 3):
            raise RuntimeError(f"preparing {argv} failed ({code}): {err.strip()}")
        return code, out


# ---------------------------------------------------------------------------
# seeded targets


def centered_target(rng: random.Random, width: int, atoms: int) -> IntegerMeasure:
    """Centered target on a hull of `width`, `atoms` sites, weights in 1/64ths
    inside and the two hull ends balancing mass and mean."""
    while True:
        lo = rng.randint(1, width - 1)
        hi = width - lo
        inner = rng.sample(range(-lo + 1, hi), min(atoms - 2, width - 1))
        ws = {k: Q(rng.randint(1, 6), 64) for k in inner}
        rest = 1 - sum(ws.values(), Q(0))
        m = sum((k * w for k, w in ws.items()), Q(0))
        w_hi = (rest * lo - m) / (lo + hi)
        w_lo = rest - w_hi
        if w_hi > 0 and w_lo > 0:
            ws[-lo], ws[hi] = w_lo, w_hi
            return IntegerMeasure(ws)


def off_center_target(rng: random.Random) -> IntegerMeasure:
    while True:
        sites = rng.sample(range(-4, 5), rng.randint(2, 4))
        raw = {s: rng.randint(1, 5) for s in sites}
        total = sum(raw.values())
        mu = IntegerMeasure({s: Q(r, total) for s, r in raw.items()})
        if not mu.is_centered():
            return mu


def ay_target(rng: random.Random) -> IntegerMeasure:
    """Centered target whose barycenter is integer at every atom, built
    top-down: Psi falls by whole steps from the top atom to 0 at the bottom."""
    while True:
        top = rng.randint(1, 4)
        sites, psis = [top], [top]
        levels = sorted(rng.sample(range(1, top), min(rng.randint(0, 2), top - 1)),
                        reverse=True) + [0]
        ok = True
        for psi in levels:
            lo_site = -3 if psi == 0 else psi - 2
            choices = [x for x in range(lo_site, min(psi, sites[-1])) if x < psi]
            if psi == 0:
                choices = [x for x in choices if x < 0]
            if not choices:
                ok = False
                break
            sites.append(rng.choice(choices))
            psis.append(psi)
        if not ok:
            continue
        weights = [Q(1)]
        mass = Q(1)
        for j in range(1, len(sites)):
            w = mass * (psis[j - 1] - psis[j]) / (psis[j] - sites[j])
            weights.append(w)
            mass += w
        mu = IntegerMeasure({s: w / mass for s, w in zip(sites, weights)})
        if azema_yor_check(mu).member:
            return mu


def ui_grid_target(rng: random.Random) -> tuple[IntegerMeasure, int]:
    """{-2, 0, 2} target whose weight at 0 is a member j / 4**h with h <= 3,
    with the stage depth at which the matrix search finds its certificate."""
    while True:
        h = rng.randint(2, 3)
        j = rng.randrange(1, 4**h)
        p = Q(j, 4**h)
        if not classify_weight(p).member:
            continue
        mu = measure({0: p, -2: (1 - p) / 2, 2: (1 - p) / 2})
        if search_matrix(mu, max_stage=h + 1).status == "member":
            return mu, h + 1


def random_chips(rng: random.Random) -> tuple[ChipStep, ...]:
    """A short chip sequence whose first exit interval contains 0."""
    chips = [ChipStep(-rng.randint(1, 3), rng.randint(1, 3))]
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(-4, 2)
        chips.append(ChipStep(a, a + rng.randint(2, 4)))
    return tuple(chips)


def grid_points(rng: random.Random, count: int) -> list[Q]:
    """`count` distinct points j / 4**GRID_H, half of them members."""
    grid = [Q(j, 4**GRID_H) for j in range(4**GRID_H + 1)]
    members = [p for p in grid if classify_weight(p).member]
    others = [p for p in grid if not classify_weight(p).member]
    half = count // 2
    return rng.sample(members, half) + rng.sample(others, count - half)


def light(mu: IntegerMeasure) -> bool:
    """Whether the variance of `mu`, the mean stopping time of any uniformly
    integrable embedding, lies in [3, 5]: mc-short draws only such targets,
    so its walks are short and of comparable length whatever the seed."""
    return 3 <= sum((k * k * w for k, w in mu.atoms.items()), Q(0)) <= 5


def draw_light(draw) -> IntegerMeasure:
    while True:
        mu = draw()
        if light(mu):
            return mu


def _sim_op(b: Builder, rule: str, target: IntegerMeasure, trials: int,
            max_steps: int, replay: int) -> None:
    seed = b.rng.randrange(2**31)
    b.add("simulate", ["simulate", rule, "--trials", str(trials), "--seed",
                       str(seed), "--max-steps", str(max_steps)],
          "simulate", target=target, rule=rule, seed=seed, trials=trials,
          max_steps=max_steps, replay=replay)


# ---------------------------------------------------------------------------
# workloads


def build_mc_heavy(b: Builder, tiny: bool) -> tuple[int, float]:
    trials, max_steps = (300, 2_000) if tiny else (5_000, 5_000)
    # four named targets and eight seed-drawn ones: the cost of a first-visit
    # walk varies with the target, so a pass sums over many targets and its
    # cost stays steady across seeds
    targets = [("uniform3", UNIFORM3), ("off-center", OFF_CENTER),
               ("516", FIVE_SIXTEENTHS), ("29", TWO_NINTHS)]
    for i in range(1 if tiny else 4):
        atoms = b.rng.randint(2, 5)
        targets.append((f"centered{i}", centered_target(b.rng, SEEDED_WIDTH, atoms)))
        targets.append((f"uncentered{i}", off_center_target(b.rng)))
    for stem, mu in targets:
        _, text = b.emit(["embed", "minimal", b.measure_file(stem, mu)])
        _sim_op(b, b.file(f"{stem}.minimal", text.strip()), mu, trials,
                max_steps, replay=20 if tiny else 100)
    return (2, 60.0) if tiny else (5, 60.0)


def build_mc_short(b: Builder, tiny: bool) -> tuple[int, float]:
    trials = 2_000 if tiny else 100_000
    matrix_trials = 200 if tiny else 4_000
    max_steps = 1_000_000
    replay = 20 if tiny else 200
    for i in range(2):
        mu = draw_light(lambda: centered_target(b.rng, SEEDED_WIDTH, b.rng.randint(3, 5)))
        _, text = b.emit(["embed", "hall", b.measure_file(f"hall{i}", mu)])
        _sim_op(b, b.file(f"hall{i}.rule", text.strip()), mu, trials, max_steps, replay)
    u, v = b.rng.choice([(u, v) for u in range(-5, 0) for v in range(1, 6)
                         if 3 <= -u * v <= 5])
    pair = json.dumps({"kind": "randomizedPair", "payload": {"u": u, "v": v}})
    _sim_op(b, b.file("pair.rule", pair), measure({u: Q(v, v - u), v: Q(-u, v - u)}),
            trials, max_steps, replay)
    for i in range(2):
        while True:
            chips = random_chips(b.rng)
            mu = chip_law(chips)
            if light(mu):
                break
        rule = b.file(f"chips{i}.rule", rule_to_json(ExitCompositionRule(chips)))
        _sim_op(b, rule, mu, trials, max_steps, replay)
    for i in range(2):
        mu = draw_light(lambda: ay_target(b.rng))
        _, text = b.emit(["embed", "ay", b.measure_file(f"ay{i}", mu)])
        _sim_op(b, b.file(f"ay{i}.rule", text.strip()), mu, trials, max_steps, replay)
    mu, depth = ui_grid_target(b.rng)
    _, text = b.emit(["embed", "ui-matrix", b.measure_file("matrix", mu),
                      "--depth", str(depth)])
    _sim_op(b, b.file("matrix.rule", text.strip()), mu, matrix_trials, max_steps,
            replay=10 if tiny else 50)
    return (2, 30.0) if tiny else (13, 30.0)


def _certify_target(b: Builder, stem: str, mu: IntegerMeasure, depth: int,
                    minimal_stages: int) -> None:
    mpath = b.measure_file(stem, mu)
    d = ["--depth", str(depth)]
    b.add("classify", ["classify", "--measure", mpath] + d, "classify_measure",
          target=mu)
    for method, extra in (("ay", []), ("chw", d), ("ui-matrix", d),
                          ("minimal", []), ("hall", [])):
        argv = ["embed", method, mpath] + extra
        code, text = b.emit(argv)
        b.add("embed", argv, "embed", target=mu, method=method, depth=depth,
              expect_code=code, expect_out=text)
        if code != 0:
            continue
        rule = b.file(f"{stem}.{method}", text.strip())
        stages = minimal_stages if method == "minimal" else 64
        b.add("exact-law", ["exact-law", rule, "--max-stage", str(stages)],
              "exact_law", target=mu)
        if method == "ui-matrix":
            payload = json.loads(text)["payload"]
            _verify_ops(b, f"{stem}.found", StoppingMatrix.from_json_dict(payload),
                        mu, mpath, bumps=2)


def _verify_ops(b: Builder, stem: str, matrix: StoppingMatrix, mu: IntegerMeasure,
                mpath: str, bumps: int) -> None:
    """Verify a valid matrix, then `bumps` single-entry bumped variants."""
    path = b.file(stem, json.dumps(matrix.to_json_dict()))
    b.add("verify", ["verify", path, mpath], "verify", expect=["valid", None, None])
    sites = list(range(-matrix.half_width, matrix.half_width + 1))
    tried = 0
    for _ in range(50):
        if tried == bumps:
            break
        site = b.rng.choice(sites)
        row = matrix.row(site)
        stage = b.rng.randrange(0, max(len(row.head), 1) + 1)
        bumped = _bump(matrix, site, stage)
        expect = None if bumped is None else predict_violation(bumped, mu)
        if expect is None:
            continue  # no such head entry, or not decided by the count scan
        bpath = b.file(f"{stem}.bump{tried}", json.dumps(bumped.to_json_dict()))
        b.add("verify", ["verify", bpath, mpath], "verify",
              expect=["violation", expect[0], expect[1]])
        tried += 1


def _bump(matrix: StoppingMatrix, site: int, stage: int) -> StoppingMatrix | None:
    """`matrix` with head entry a[site][stage] raised by one, as in acceptance
    criterion 4; a zero-tail row may grow its head by one stage.  None when
    `stage` is past the head of a row with a doubling or periodic tail."""
    row = matrix.row(site)
    head = list(row.head)
    if row.tail == "zero":
        head += [0] * (stage + 1 - len(head))
    if stage >= len(head):
        return None
    head[stage] += 1
    rows = dict(matrix.rows)
    rows[site] = MatrixRow(tuple(head), row.tail, row.period)
    return StoppingMatrix(matrix.half_width, rows)


def build_certify(b: Builder, tiny: bool) -> tuple[int, float]:
    named = [("516", FIVE_SIXTEENTHS, NAMED_DEPTH), ("29", TWO_NINTHS, NAMED_DEPTH),
             ("16", ONE_SIXTH, NAMED_DEPTH), ("34", THREE_QUARTERS, NAMED_DEPTH),
             ("5atom", FIVE_ATOM, WIDE_DEPTH)]
    if tiny:
        named = named[:2]
    for stem, mu, depth in named:
        _certify_target(b, stem, mu, depth, 16 if tiny else 64)
    seeded = [(f"seeded{i}", centered_target(b.rng, SEEDED_WIDTH, b.rng.randint(4, 6)),
               SEEDED_DEPTH) for i in range(1 if tiny else 2)]
    for i in range(1 if tiny else 2):
        mu, _ = ui_grid_target(b.rng)
        seeded.append((f"grid{i}", mu, SEEDED_DEPTH))
    for stem, mu, depth in seeded:
        _certify_target(b, stem, mu, depth, 16 if tiny else 32)
    if not tiny:
        _verify_ops(b, "34.doubling", DOUBLING_34, THREE_QUARTERS,
                    b.measure_file("34v", THREE_QUARTERS), bumps=3)
        _verify_ops(b, "16.periodic", PERIODIC_16, ONE_SIXTH,
                    b.measure_file("16v", ONE_SIXTH), bumps=2)

    # about 250 ops a pass: over the 5 minimum passes the p99 tail then has
    # 12 samples beyond it, so it is the median of one heavy op's five runs
    # rather than the extreme of one
    points = grid_points(b.rng, 8 if tiny else 106)
    for p in points:
        b.add("classify", ["classify", "--weight", str(p)], "classify_weight", point=p)
    for p in points[: 4 if tiny else 16]:
        b.add("classify", ["classify", "--triple", f"0,{p},0"], "classify_triple",
              point=p)
    for _ in range(2 if tiny else 12):
        pm, pp = Q(b.rng.randint(0, 16), 64), Q(b.rng.randint(0, 16), 64)
        p0 = Q(b.rng.randint(0, 16), 64)
        b.add("classify", ["classify", "--triple", f"{pm},{p0},{pp}"],
              "classify_triple", point=None)
    set_depth = 6 if tiny else 12
    b.add("set", ["set", "--depth", str(set_depth)], "set_cover", depth=set_depth)
    for p in grid_points(b.rng, 4 if tiny else 16):
        b.add("set", ["set", "--point", str(p), "--depth", "12"], "set_point", point=p)
    return (2, 60.0) if tiny else (5, 60.0)


BUILDERS = {
    "mc-heavy": build_mc_heavy,
    "mc-short": build_mc_short,
    "certify": build_certify,
}


def build(name: str, seed: int, workdir: Path, tiny: bool = False) -> Workload:
    """The op list of workload `name` for `seed`; inputs go to `workdir`."""
    rng = random.Random(f"{name}:{seed}")
    b = Builder(workdir, rng)
    min_passes, budget = BUILDERS[name](b, tiny)
    return Workload(b.ops, min_passes, budget)
