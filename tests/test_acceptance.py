"""Acceptance gate: one test per criterion, pinned tolerances and runtimes.

Run with `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  Statistical tests use fixed seeds and per-atom tolerance
4*sqrt(p(1-p)/trials); the flake budget is zero (a failure is a bug, not a
retry).
"""

import json
import math
import time
from fractions import Fraction as Q
from itertools import product

import pytest

from walkembed import (
    ChipStep,
    ChwStatus,
    ExitCompositionRule,
    IntervalUnion,
    MatrixRow,
    MaxThresholdRule,
    MinimalRule,
    PathCountMatrixRule,
    StoppingMatrix,
    achievable_weights,
    azema_yor_check,
    chw_search,
    classify_triple,
    classify_weight,
    exact_law,
    hall_rule,
    ifs_approximate,
    measure,
    minimal_certificate,
    potential,
    search_matrix,
    simulate,
    verify_matrix,
    weight_set_system,
)
from walkembed.cli import main
from reference import (
    WalkPath,
    contains,
    decide,
    frequency,
    measure_from_potential,
    tv_distance,
)

TRIALS = 100_000


def atom_tolerance(p: float) -> float:
    return 4.0 * math.sqrt(p * (1.0 - p) / TRIALS)


def assert_within_tolerance(report, mu):
    assert report.truncated <= TRIALS // 500  # truncation is reported, tiny
    for s in mu.support:
        p = float(mu.weight(s))
        err = abs(float(frequency(report, s)) - p)
        assert err <= atom_tolerance(p), (s, err, atom_tolerance(p))


def test_criterion_1_classifier_vs_brute_force():
    # exact classifier agrees with the horizon-5 enumeration oracle on all
    # 1025 grid points j/4^5
    start = time.monotonic()
    oracle = achievable_weights(5)
    for j in range(4**5 + 1):
        p = Q(j, 4**5)
        assert classify_weight(p).member == (p in oracle), p
    assert time.monotonic() - start < 10.0


def test_criterion_2_exact_verdicts():
    assert classify_weight(Q(1, 2)).member
    for p in (Q(11, 20), Q(3, 5), Q(3, 4), Q(9, 10)):
        assert not classify_weight(p).member, p
    sixth = classify_weight(Q(1, 6))
    assert sixth.member and sixth.half_weight == 1
    for j in range(129):  # [0, 1/8] in steps of 1/1024
        assert classify_weight(Q(j, 1024)).member, j
    assert classify_weight(Q(1)).member


def test_criterion_3_strict_inclusion_chain():
    start = time.monotonic()

    # uniform on {-1, 0, 1}: outside the UI class, yet the minimal rule
    # embeds it (simulated law within TV 0.01 at 10^5 trials)
    assert not classify_triple(Q(1, 3), Q(1, 3), Q(1, 3)).member
    mu3 = measure({-1: Q(1, 3), 0: Q(1, 3), 1: Q(1, 3)})
    rep = simulate(MinimalRule(minimal_certificate(mu3)), TRIALS, seed=42,
                   max_steps=1_000_000)
    assert tv_distance(rep, mu3) <= Q(1, 100)

    # 5/16 measure: UI member by matrix search, but no chip sequence of
    # length <= 8 reaches it
    mu516 = measure({0: Q(5, 16), -2: Q(11, 32), 2: Q(11, 32)})
    assert search_matrix(mu516, max_stage=8).status == "member"
    chw = chw_search(mu516, max_depth=8)
    assert chw.status is ChwStatus.NON_MEMBER_UP_TO_DEPTH
    assert chw.depth_searched == 8

    # 2/9 measure: a two-chip witness exists, but the barycenter function
    # takes the non-integer value 6/7, so no max-threshold rule works
    mu29 = measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)})
    res = chw_search(mu29, max_depth=8)
    assert res.status is ChwStatus.MEMBER
    assert len(res.steps) == 2
    ay = azema_yor_check(mu29)
    assert not ay.member
    assert ay.witness_value == Q(6, 7)

    assert time.monotonic() - start < 60.0


def test_criterion_4_matrix_verification_localizes():
    start = time.monotonic()
    mu = measure({0: Q(3, 4), -4: Q(1, 8), 4: Q(1, 8)})
    row = MatrixRow((0, 2, 2), "doubling")
    good = StoppingMatrix(3, {0: row})
    assert row.quarter_sum() == Q(3, 4)
    assert verify_matrix(good, mu).valid

    # bumping any head entry of the stopping row fails a count check at a
    # named site and stage
    expected = {0: (0, 1), 1: (0, 1), 2: (0, 2)}
    for n, loc in expected.items():
        head = [0, 2, 2]
        head[n] += 1
        res = verify_matrix(
            StoppingMatrix(3, {0: MatrixRow(tuple(head), "doubling")}), mu)
        assert res.status == "violation"
        assert (res.site, res.stage) == loc, n

    # introducing a single stop anywhere else is also caught, either as a
    # wrong site weight or as a starved count downstream
    for site, n in product((-3, -2, -1, 1, 2, 3), range(4)):
        bad = StoppingMatrix(3, {0: row,
                                 site: MatrixRow((0,) * n + (1,))})
        res = verify_matrix(bad, mu)
        assert res.status == "violation", (site, n)
        assert res.site is not None

    assert time.monotonic() - start < 1.0


def test_criterion_5_ifs_measure_bracket():
    start = time.monotonic()
    system = weight_set_system()
    segment = IntervalUnion([(Q(0), Q(1, 6))])
    previous = Q(1)
    for d in range(1, 13):
        cover = ifs_approximate(system, d)
        m = cover.measure()
        assert m <= previous
        assert m >= Q(1, 4)
        assert contains(cover, segment)
        previous = m
    assert previous == Q(2049, 8192)
    assert previous <= Q(26, 100)
    assert time.monotonic() - start < 30.0


def test_criterion_6_exact_law_oracle():
    start = time.monotonic()

    # three terminating matrix certificates, found by search and read back
    # through the exact law with residual exactly zero
    for p, b in ((Q(1, 4), Q(3, 8)), (Q(1, 2), Q(1, 4)), (Q(5, 16), Q(11, 32))):
        mu = measure({0: p, -2: b, 2: b})
        found = search_matrix(mu, max_stage=8)
        assert found.status == "member"
        el = exact_law(PathCountMatrixRule(found.matrix))
        assert el.residual == 0
        assert el.law == {s: mu.weight(s) for s in mu.support}

    # the max-threshold rule for the fair two-point law
    bern = measure({-1: Q(1, 2), 1: Q(1, 2)})
    ay = azema_yor_check(bern)
    el = exact_law(MaxThresholdRule(tuple(sorted(ay.thresholds.items()))))
    assert el.residual == 0
    assert el.law == {-1: Q(1, 2), 1: Q(1, 2)}

    # the two-chip witness converges geometrically: residual below 2^-20
    # and every atom within the residual of its target
    mu29 = measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)})
    res = chw_search(mu29, max_depth=8)
    el = exact_law(ExitCompositionRule(res.steps))
    assert el.residual < Q(1, 2**20)
    for s in mu29.support:
        assert abs(el.law[s] - mu29.weight(s)) <= el.residual

    assert time.monotonic() - start < 30.0


def test_criterion_7_statistical_suite():
    start = time.monotonic()

    hall_targets = [
        measure({-1: Q(1, 2), 1: Q(1, 2)}),
        measure({-2: Q(1, 3), 0: Q(1, 3), 2: Q(1, 3)}),
        measure({0: Q(5, 16), -2: Q(11, 32), 2: Q(11, 32)}),
    ]
    for i, mu in enumerate(hall_targets):
        rep = simulate(hall_rule(mu), TRIALS, seed=200 + i,
                       max_steps=1_000_000)
        assert_within_tolerance(rep, mu)

    minimal_targets = [
        measure({-1: Q(1, 2), 1: Q(1, 2)}),
        measure({-1: Q(1, 3), 0: Q(1, 3), 1: Q(1, 3)}),
        measure({-1: Q(1, 2), 3: Q(1, 2)}),  # non-centered
    ]
    for i, mu in enumerate(minimal_targets):
        rep = simulate(MinimalRule(minimal_certificate(mu)), TRIALS,
                       seed=100 + i, max_steps=1_000_000)
        assert_within_tolerance(rep, mu)

    assert time.monotonic() - start < 60.0


def test_criterion_8_property_suites():
    # adaptedness replay: a stopped decision is unchanged by any rewrite
    # of the increments after the stop time
    mu516 = measure({0: Q(5, 16), -2: Q(11, 32), 2: Q(11, 32)})
    rules = [
        MaxThresholdRule(((-1, 0), (0, 1), (1, 1))),
        ExitCompositionRule((ChipStep(-1, 2), ChipStep(-3, 0))),
        PathCountMatrixRule(StoppingMatrix(1, {0: MatrixRow((0, 1, 1))})),
        MinimalRule(minimal_certificate(mu516)),
    ]
    for rule in rules:
        for incs in product((-1, 1), repeat=6):
            d = decide(rule, WalkPath(incs))
            if d.stopped:
                prefix = incs[: d.stop_time]
                for suffix in product((-1, 1), repeat=len(incs) - d.stop_time):
                    assert decide(rule, WalkPath(prefix + suffix)) == d

    # potential round trip on a few exact measures
    for mu in (mu516,
               measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)}),
               measure({-1: Q(1, 3), 0: Q(1, 3), 1: Q(1, 3)})):
        assert measure_from_potential(potential(mu)) == mu

    # closure of the weight set under both contractions x/4 + 1/4, x/4 + 1/8
    grid = [Q(j, 4**4) for j in range(4**4 + 1)]
    members = [p for p in grid if classify_weight(p).member]
    for p in members:
        assert classify_weight(p / 4 + Q(1, 4)).member
        assert classify_weight(p / 4 + Q(1, 8)).member

    # the centered-triple slice with no side mass collapses to the weight set
    for p in grid:
        assert classify_triple(Q(0), p, Q(0)).member == classify_weight(p).member


def cli(capsys, tmp_path, doc, *argv):
    """Exit code and JSON output of a command run on the document `doc`."""
    f = tmp_path / "input.json"
    f.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code = main([*argv, str(f)])
    return code, json.loads(capsys.readouterr().out)


class TestSeparations:
    """The paper's strict inclusions, one target each, through the CLI.

    Every law on Z has a minimal embedding: {1: 1/2, 2: 1/2} is off mean 0,
    so no UI rule embeds it, while the minimal rule stops at it exactly.
    UI is strictly inside the centred laws: {+-1: 1/4, 0: 1/2} fails the
    triple criterion's digit sum, while {0: 1/5, +-2: 2/5} is a UI member
    whose base-4 digits 0.0303... verify as a stop-count matrix.
    AY is strictly inside CW: the barycenter of {0: 1/6, +-2: 5/12} is
    10/7 at 0, so no max-threshold rule embeds it, while four chips do.
    A target in both classes gets the same exact law from either rule."""

    OFF_MEAN = '{"atoms": {"1": "1/2", "2": "1/2"}}'
    FIFTH = '{"atoms": {"0": "1/5", "-2": "2/5", "2": "2/5"}}'
    SIXTH = '{"atoms": {"0": "1/6", "-2": "5/12", "2": "5/12"}}'
    QUARTER = '{"atoms": {"-3": "1/4", "1": "3/4"}}'

    def test_minimal_embeds_off_mean(self, capsys, tmp_path):
        code, out = cli(capsys, tmp_path, self.OFF_MEAN,
                        "classify", "--measure")
        assert (code, out) == (0, {"azemaYor": False,
                                   "chaconWalsh": "nonMember",
                                   "uiMatrix": "nonMember", "minimal": True})
        code, rule = cli(capsys, tmp_path, self.OFF_MEAN, "embed", "minimal")
        assert code == 0
        code, out = cli(capsys, tmp_path, rule, "exact-law")
        assert (code, out) == (0, {"law": {"1": "1/2", "2": "1/2"},
                                   "residual": "0", "stages": 0})

    def test_ui_refutes_a_centred_law(self, capsys):
        assert main(["classify", "--triple", "1/4,1/2,1/4"]) == 0
        assert json.loads(capsys.readouterr().out) == {"member": False,
                                                       "reason": "digitSum"}

    def test_ui_embeds_the_fifth(self, capsys, tmp_path):
        m = tmp_path / "matrix.json"
        m.write_text('{"N": 1, "rows": [{"site": 0, "head": [0], '
                     '"tail": "periodic", "period": [0, 3]}]}')
        code, out = cli(capsys, tmp_path, self.FIFTH, "verify", str(m))
        assert (code, out) == (0, {"status": "valid", "site": None,
                                   "stage": None, "detail": ""})
        assert main(["classify", "--triple", "0,1/5,0"]) == 0
        assert json.loads(capsys.readouterr().out) == {"member": True,
                                                       "reason": ""}

    def test_ay_refutes_the_sixth(self, capsys, tmp_path):
        code, out = cli(capsys, tmp_path, self.SIXTH, "embed", "ay")
        assert (code, out["witnessSite"], out["witnessValue"]) == (
            3, 0, "10/7")

    def test_chw_embeds_the_sixth(self, capsys, tmp_path):
        code, rule = cli(capsys, tmp_path, self.SIXTH, "embed", "chw")
        assert (code, rule["payload"]) == (
            0, [[-1, 1], [-2, 0], [-1, 2], [-2, 0]])
        code, out = cli(capsys, tmp_path, rule, "exact-law")
        assert (code, out["law"], out["residual"]) == (
            0, {"-2": "5/12", "0": "1/6", "2": "5/12"}, "0")

    @pytest.mark.parametrize("method", ["ay", "chw"])
    def test_both_embed_the_quarter(self, capsys, tmp_path, method):
        code, rule = cli(capsys, tmp_path, self.QUARTER, "embed", method)
        assert code == 0
        code, out = cli(capsys, tmp_path, rule, "exact-law")
        assert (code, out["law"], out["residual"]) == (
            0, {"-3": "1/4", "1": "3/4"}, "0")
