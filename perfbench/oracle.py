"""Per-op correctness oracle, run outside the timed region.

Each check returns None when the output is right and a one-line reason when
it is not; a check never raises, so a wrong output is a counted failure and
not a crash of the benchmark.  The expectations are computed independently
of the code paths under test wherever that is cheap: barycenters and
potentials are recomputed here, the count recursion that predicts where a
bumped matrix fails is re-implemented here, weights on the base-4 grid are
judged by the brute-force `achievable_weights`, and simulation counts are
replayed through the executable rule state machines on the splitmix64
per-trial streams.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction as Q
from pathlib import Path

import numpy as np

from walkembed.classic import ChipStep, replay_chips
from walkembed.kernels import GAMMA, MASK, STREAM, mix64
from walkembed.matrices import StoppingMatrix, verify_matrix
from walkembed.measures import IntegerMeasure
from walkembed.rational import parse_rational
from walkembed.rules import RandomizedPairRule, rule_from_json
from walkembed.uiset import achievable_weights

#: weights j / 4**GRID_H are judged by the brute force achievable_weights(GRID_H)
GRID_H = 4
#: the 4-sigma per-atom tolerance of the acceptance gate
SIGMAS = 4.0
#: step cap of the state-machine replay: a minimal-rule state keeps halving an
#: exact Fraction width after its target is fixed, so replay cost grows with
#: the square of the steps; both sides of the replay check use this cap
REPLAY_MAX_STEPS = 2_000
#: depth-12 cover measure pinned by acceptance criterion 5
COVER_12 = Q(2049, 8192)
UNDECIDED = {"unknown", "nonMemberUpToDepth", "undecidedAtDepth", "inconclusive"}
# seed offset of the pair-draw stream (same convention as sim.sample_pairs)
PAIR_STREAM = 0x5DEECE66D


def barycenters(mu: IntegerMeasure) -> dict[int, Q]:
    """Psi(k) = E[X | X >= k] at every integer of the support hull."""
    atoms = mu.atoms
    lo, hi = min(atoms), max(atoms)
    out, mass, total = {}, Q(0), Q(0)
    for k in range(hi, lo - 1, -1):
        w = atoms.get(k, Q(0))
        mass += w
        total += k * w
        out[k] = total / mass
    return out


def ay_expectation(mu: IntegerMeasure) -> tuple[bool, int | None, dict[int, int]]:
    """Max-threshold membership: integer, nonnegative barycenter on the support."""
    psi = barycenters(mu)
    for k in sorted(mu.atoms):
        if psi[k].denominator != 1 or psi[k] < 0:
            return False, k, {}
    return True, None, {k: int(v) for k, v in psi.items()}


def potential_at(mu: IntegerMeasure, k: int) -> Q:
    return -sum((abs(k - n) * w for n, w in mu.atoms.items()), Q(0))


def chip_law(chips) -> IntegerMeasure:
    """Stopped law of an exit composition, from the potential picture.

    Applies each chord min(u, chord over (a, b)) to u0(x) = -|x| on a window
    wide enough that u stays -|x| at its ends, then reads each atom as half
    the slope drop of u.
    """
    reach = 1 + max(max(abs(c.a), abs(c.b)) for c in chips)
    lo = -reach
    u = [-Q(abs(k)) for k in range(lo, reach + 1)]
    for c in chips:
        ua, ub = u[c.a - lo], u[c.b - lo]
        for k in range(c.a + 1, c.b):
            u[k - lo] = min(u[k - lo], ua + Q(k - c.a, c.b - c.a) * (ub - ua))
    atoms = {k + lo: (2 * u[k] - u[k - 1] - u[k + 1]) / 2 for k in range(1, len(u) - 1)}
    return IntegerMeasure({k: w for k, w in atoms.items() if w})


def predict_violation(matrix: StoppingMatrix, mu: IntegerMeasure
                      ) -> tuple[int, int | None] | None:
    """Where `verify` must report a stop-count matrix invalid for `mu`.

    Replays the arrival counts stage by stage (even sites, then odd sites of
    the next stage, ascending) and returns the first (site, stage) whose stop
    count exceeds its arrivals.  Without one, a matrix with only zero tails is
    judged by its encoded atom weights: (site, None) for the first interior
    site that is off.  Returns None when neither rule decides (a valid matrix,
    or a tailed row that stays feasible over the scanned stages).
    """
    N = matrix.half_width
    bound = N + 1
    rows = [matrix.row(i) for i in range(-N, N + 1)]
    head_len = max([1] + [len(r.head) for r in rows])
    zero_tails = all(r.tail == "zero" for r in rows)
    evens = [i for i in range(-bound, bound + 1) if i % 2 == 0]
    odds = [i for i in range(-bound, bound + 1) if i % 2 != 0]
    k_even = {i: int(i == 0) for i in evens}
    n = 0
    for _ in range(head_len if zero_tails else head_len + 8):
        surv = {}
        for i in evens:
            a = matrix.entry(i, n) if abs(i) <= N else k_even[i]
            if a > k_even[i]:
                return i, n
            surv[i] = k_even[i] - a
        n += 1
        k_odd = {j: surv.get(j - 1, 0) + surv.get(j + 1, 0) for j in odds}
        surv = {}
        for j in odds:
            a = matrix.entry(j, n) if abs(j) <= N else k_odd[j]
            if a > k_odd[j]:
                return j, n
            surv[j] = k_odd[j] - a
        k_even = {i: surv.get(i - 1, 0) + surv.get(i + 1, 0) for i in evens}
    if not zero_tails:
        return None
    for i in range(-N, N + 1):
        head = matrix.row(i).head
        w = 2 ** (abs(i) % 2) * sum((Q(a, 4**m) for m, a in enumerate(head)), Q(0))
        if w != mu.weight(i):
            return i, None
    return None


def replay_counts(rule_path: str, seed: int, trials: int, max_steps: int
                  ) -> tuple[dict[int, int], int]:
    """Stopped-site counts and truncations of the first `trials` trials,
    stepping each rule's state machine on its splitmix64 stream."""
    data = json.loads(Path(rule_path).read_text())
    if data["kind"] == "randomizedRule":
        entries = [(int(e["u"]), int(e["v"]), parse_rational(e["w"]))
                   for e in data["payload"]]
        cum = np.cumsum([float(w) for _, _, w in entries])
        draws = np.asarray([mix64(((seed ^ PAIR_STREAM) + i * STREAM) & MASK)
                            for i in range(trials)], dtype=np.uint64)
        with np.errstate(over="ignore"):
            draws = draws + np.uint64(GAMMA)
        z = np.asarray([mix64(int(s)) for s in draws], dtype=np.uint64)
        x = z.astype(np.float64) / 2.0**64
        picks = np.minimum(np.searchsorted(cum, x, side="right"), len(entries) - 1)
        machines = [RandomizedPairRule(entries[j][0], entries[j][1]) for j in picks]
    else:
        rule = rule_from_json(json.dumps(data))
        machines = [rule] * trials
    counts: dict[int, int] = {}
    truncated = 0
    for i, rule in enumerate(machines):
        s = mix64((seed + i * STREAM) & MASK)
        state = rule.new_state()
        t = 0
        while not state.stopped and t < max_steps:
            s = (s + GAMMA) & MASK
            state.step(1 if mix64(s) >> 63 else -1)
            t += 1
        if state.stopped:
            counts[state.position] = counts.get(state.position, 0) + 1
        else:
            truncated += 1
    return counts, truncated


def undecided(code: int, out: str) -> bool:
    """True when an op's verdict is an honest "don't know"."""
    try:
        data = json.loads(out)
    except ValueError:
        return False
    if not isinstance(data, dict):
        return False
    if code == 3 and data.get("member") is False and "depthSearched" in data:
        return True
    return any(isinstance(v, str) and v in UNDECIDED for v in data.values())


class Oracle:
    """Checks op outputs; `run_cli` re-runs an op untimed for the replay."""

    def __init__(self, run_cli):
        self.run_cli = run_cli
        self._grid: frozenset | None = None

    def grid_member(self, p: Q) -> bool:
        if self._grid is None:
            self._grid = achievable_weights(GRID_H)
        return p in self._grid

    def check(self, op, code: int, out: str) -> str | None:
        try:
            return getattr(self, "_" + op.check)(op.spec, code, out)
        except Exception as exc:  # malformed output is a failed op, never a crash
            return f"oracle error: {type(exc).__name__}: {exc}"

    # -- simulate -------------------------------------------------------

    def _simulate(self, spec, code, out):
        if code != 0:
            return f"exit {code}"
        rep = json.loads(out)
        mu, n = spec["target"], spec["trials"]
        if rep["trials"] != n:
            return f"trials {rep['trials']} != {n}"
        counts = {int(k): v for k, v in rep["counts"].items()}
        trunc = rep["truncated"] / n
        for site, c in counts.items():
            if c and mu.weight(site) == 0:
                return f"{c} trials stopped off the support at {site}"
        for site in mu.atoms:
            p = float(mu.weight(site))
            err = abs(counts.get(site, 0) / n - p)
            tol = SIGMAS * math.sqrt(p * (1 - p) / n) + trunc
            if err > tol:
                return f"atom {site}: error {err:.5f} > {tol:.5f}"
        k = spec["replay"]
        cap = min(spec["max_steps"], REPLAY_MAX_STEPS)
        argv = ["simulate", spec["rule"], "--trials", str(k), "--seed",
                str(spec["seed"]), "--max-steps", str(cap)]
        rcode, rout, _ = self.run_cli(argv)
        if rcode != 0:
            return f"replay run exit {rcode}"
        small = json.loads(rout)
        got = ({int(s): c for s, c in small["counts"].items()}, small["truncated"])
        want = replay_counts(spec["rule"], spec["seed"], k, cap)
        if got != want:
            return f"first {k} trials differ from the state-machine replay: {got} != {want}"
        return None

    # -- exact laws -----------------------------------------------------

    def _exact_law(self, spec, code, out):
        if code != 0:
            return f"exit {code}"
        data = json.loads(out)
        law = {int(k): parse_rational(v) for k, v in data["law"].items()}
        residual = parse_rational(data["residual"])
        if sum(law.values(), Q(0)) + residual != 1:
            return "law + residual != 1"
        mu = spec["target"]
        for site in set(law) | set(mu.atoms):
            if abs(law.get(site, Q(0)) - mu.weight(site)) > residual:
                return f"atom {site} off by more than the residual {residual}"
        return None

    # -- classify / embed -------------------------------------------------

    def _classify_measure(self, spec, code, out):
        if code != 0:
            return f"exit {code}"
        data = json.loads(out)
        mu = spec["target"]
        ay, _, _ = ay_expectation(mu)
        if data["azemaYor"] != ay:
            return f"azemaYor {data['azemaYor']} != {ay}"
        if ay and data["chaconWalsh"] != "member":
            return f"AY member but chaconWalsh {data['chaconWalsh']}"
        if data["chaconWalsh"] not in ("member", "nonMemberUpToDepth", "unknown"):
            return f"chaconWalsh {data['chaconWalsh']!r}"
        if data["uiMatrix"] not in ("member", "unknown"):
            return f"uiMatrix {data['uiMatrix']!r}"
        if data["minimal"] is not mu.is_centered():
            return "minimal flag disagrees with centering"
        return None

    def _embed(self, spec, code, out):
        if (code, out) != (spec["expect_code"], spec["expect_out"]):
            return "output differs from the untimed run of the same op"
        mu, method = spec["target"], spec["method"]
        data = json.loads(out)
        if method == "ay":
            member, witness, table = ay_expectation(mu)
            if member != (code == 0):
                return f"ay verdict exit {code}, expected member={member}"
            if member:
                got = {int(s): int(t) for s, t in data["payload"]}
                return None if got == table else "thresholds != barycenter"
            return None if data["witnessSite"] == witness else "wrong witness site"
        if method == "chw":
            if code == 3:
                if data.get("member") is False and data["depthSearched"] != spec["depth"]:
                    return f"depthSearched {data['depthSearched']} != {spec['depth']}"
                return None
            steps = [ChipStep(int(a), int(b)) for a, b in data["payload"]]
            u = replay_chips(steps)
            lo, hi = min(mu.atoms) - 1, max(mu.atoms) + 1
            for k in range(min(lo, u.lo), max(hi, u.hi) + 1):
                if u.value_at(k) != potential_at(mu, k):
                    return f"chip replay potential differs at {k}"
            return None
        if method == "ui-matrix":
            if code == 3:
                return None if data == {"member": "unknown"} else "bad unknown payload"
            res = verify_matrix(StoppingMatrix.from_json_dict(data["payload"]), mu)
            return None if res.valid else f"witness does not verify: {res.status}"
        if method == "minimal":
            got = {int(s): parse_rational(w) for s, w in
                   zip(data["payload"]["sites"], data["payload"]["weights"])}
            return None if got == mu.atoms else "certificate weights != target"
        if method == "hall":
            law: dict[int, Q] = {}
            for e in data["payload"]:
                u, v, w = int(e["u"]), int(e["v"]), parse_rational(e["w"])
                if v == 0:
                    law[0] = law.get(0, Q(0)) + w
                    continue
                law[v] = law.get(v, Q(0)) + w * Q(-u, v - u)
                law[u] = law.get(u, Q(0)) + w * Q(v, v - u)
            return None if law == mu.atoms else "pair law != target"
        return f"unknown method {method}"

    def _verify(self, spec, code, out):
        data = json.loads(out)
        got = [data["status"], data["site"], data["stage"]]
        if got != spec["expect"]:
            return f"verify {got} != expected {spec['expect']}"
        want_code = 0 if got[0] == "valid" else 2
        return None if code == want_code else f"exit {code} != {want_code}"

    # -- weight set ---------------------------------------------------------

    def _classify_weight(self, spec, code, out):
        if code != 0:
            return f"exit {code}"
        data = json.loads(out)
        want = self.grid_member(spec["point"])
        if data["member"] != want:
            return f"member {data['member']} != brute force {want}"
        if (parse_rational(data["halfWeight"]) <= 1) != want:
            return "halfWeight disagrees with the verdict"
        return None

    def _classify_triple(self, spec, code, out):
        if code != 0:
            return f"exit {code}"
        data = json.loads(out)
        if not isinstance(data["member"], bool):
            return "member is not a boolean"
        if not data["member"] and not data["reason"]:
            return "non-member without a reason"
        if spec["point"] is not None and data["member"] != self.grid_member(spec["point"]):
            return "slice (0, p, 0) disagrees with the weight set"
        return None

    def _set_cover(self, spec, code, out):
        if code != 0:
            return f"exit {code}"
        data = json.loads(out)
        ivs = [(parse_rational(a), parse_rational(b)) for a, b in data["intervals"]]
        if any(a > b for a, b in ivs) or any(ivs[i][1] >= ivs[i + 1][0]
                                             for i in range(len(ivs) - 1)):
            return "intervals not sorted and disjoint"
        total = sum((b - a for a, b in ivs), Q(0))
        if total != parse_rational(data["measure"]):
            return "measure != sum of interval lengths"
        if not any(a <= 0 and Q(1, 6) <= b for a, b in ivs):
            return "cover misses [0, 1/6]"
        if spec["depth"] == 12 and total != COVER_12:
            return f"depth-12 measure {total} != {COVER_12}"
        return None

    def _set_point(self, spec, code, out):
        verdict = json.loads(out)["verdict"]
        if verdict == "undecidedAtDepth":
            return None if code == 3 else f"exit {code}"
        if verdict not in ("member", "nonMember") or code != 0:
            return f"verdict {verdict!r}, exit {code}"
        want = self.grid_member(spec["point"])
        return None if (verdict == "member") == want else f"{verdict} != brute force"
