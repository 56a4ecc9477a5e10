"""Executable stopping rules: replay, adaptedness, serialization."""

import copy
from fractions import Fraction as Q
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from walkembed import (
    ChipStep,
    ExitCompositionRule,
    MatrixRow,
    MaxThresholdRule,
    MinimalRule,
    PathCountMatrixRule,
    PrefixError,
    RandomizedPairRule,
    StoppingMatrix,
    hall_rule,
    measure,
    minimal_certificate,
    rule_from_json,
    rule_to_json,
)
from walkembed.rules import MatrixRuleState
from reference import (
    Decision,
    StripRankState,
    WalkPath,
    alive_class_rank,
    decide,
)
from test_matrices import tailed_matrices

M_516 = StoppingMatrix(1, {0: MatrixRow((0, 1, 1))})
MU_516 = measure({0: Q(5, 16), -2: Q(11, 32), 2: Q(11, 32)})

EC = ExitCompositionRule((ChipStep(-1, 2), ChipStep(-3, 0)))
MT = MaxThresholdRule(((-1, 0), (0, 1), (1, 1)))
RP = RandomizedPairRule(-2, 2)
MX = PathCountMatrixRule(M_516)
MR = MinimalRule(minimal_certificate(MU_516))

ALL_RULES = [EC, MT, RP, MX, MR]

increments = st.lists(st.sampled_from([-1, 1]), min_size=0, max_size=14)


class TestWalkPath:
    def test_bad_increment(self):
        with pytest.raises(ValueError):
            WalkPath((1, 0))


class TestDecide:
    def test_exit_composition(self):
        assert decide(EC, WalkPath((1, 1))) == Decision(True, 2, 2)
        assert decide(EC, WalkPath((-1, -1, -1))) == Decision(True, 3, -3)
        # leaving the first chord through its tangent point hands the
        # walk to the second chip, which is still alive at -1
        assert decide(EC, WalkPath((1, -1, -1))) == Decision(False, None, None)

    def test_max_threshold_stops_both_ways(self):
        assert decide(MT, WalkPath((1,))) == Decision(True, 1, 1)
        assert decide(MT, WalkPath((-1,))) == Decision(True, 1, -1)

    def test_randomized_pair(self):
        assert decide(RP, WalkPath((1, 1))) == Decision(True, 2, 2)
        assert decide(RP, WalkPath((1, -1, -1))) == Decision(False, None, None)

    def test_pair_orientation_enforced(self):
        with pytest.raises(ValueError):
            RandomizedPairRule(1, 2)

    def test_matrix_rank_tie_break(self):
        # stage 1 stops one of the two histories at 0: the down-first
        # history has rank 0 and stops, the up-first history survives
        assert decide(MX, WalkPath((-1, 1))) == Decision(True, 2, 0)
        assert decide(MX, WalkPath((1, -1))) == Decision(False, None, None)
        # stage 2 then catches the survivor's lex-smallest continuation
        assert decide(MX, WalkPath((1, -1, -1, 1))) == Decision(True, 4, 0)
        assert decide(MX, WalkPath((1, -1, 1, -1))) == Decision(False, None, None)

    def test_minimal_resolution(self):
        # two down-steps pin U in [0, 1/4) inside the first cut cell,
        # whose target -2 is exactly where the walk sits
        assert decide(MR, WalkPath((-1, -1))) == Decision(True, 2, -2)
        # two up-steps pin the target to 0, so the walk keeps going
        assert decide(MR, WalkPath((1, 1, 1, 1))) == Decision(False, None, None)

    def test_extra_increments_ignored(self):
        d = decide(MT, WalkPath((1, -1, -1, -1, 1)))
        assert d == Decision(True, 1, 1)


class TestAliveClassRank:
    def test_survivor_rank(self):
        assert alive_class_rank(M_516, WalkPath((1, -1))) == 0

    def test_stopped_path_rejected(self):
        with pytest.raises(PrefixError):
            alive_class_rank(M_516, WalkPath((-1, 1)))


class TestStripRanks:
    @settings(max_examples=300)
    @given(case=tailed_matrices(),
           incs=st.lists(st.sampled_from([-1, 1]), max_size=60))
    # a rank reaches the strip's end at 2 while the path does
    @example(case=(StoppingMatrix(1, {0: MatrixRow((), "periodic", (0,))}),
                   None), incs=[1, -1, 1, 1])
    def test_sparse_ranks_match_strip(self, case, incs):
        # keeping only positive ranks, and stopping only at row sites,
        # decides every step as rebuilding every strip site does
        matrix, _ = case
        sparse, strip = MatrixRuleState(matrix), StripRankState(matrix)
        for eps in [0, *incs]:
            if eps:
                sparse.step(eps)
                strip.step(eps)
            assert sparse.stopped == strip.stopped
            assert sparse.position == strip.position
            assert sparse.smaller == {j: s for j, s in strip.smaller.items()
                                      if s}
            if sparse.stopped:
                break


class TestStepAfterStop:
    # a path each rule in ALL_RULES stops
    @pytest.mark.parametrize("rule, incs", zip(ALL_RULES, [
        (1, 1), (1,), (1, 1), (-1, 1), (-1, -1),
    ]), ids=[r.kind for r in ALL_RULES])
    def test_prefix_error(self, rule, incs):
        state = rule.new_state()
        for eps in incs:
            state.step(eps)
        assert state.stopped
        with pytest.raises(PrefixError):
            state.step(1)


class TestMinimalState:
    def test_interval_frozen_once_target_fixed(self):
        # sites (-1, 3), cut at 1/2: a first up-step fixes the target 3,
        # which the walk below never reaches
        rule = MinimalRule(minimal_certificate(measure({-1: Q(1, 2),
                                                        3: Q(1, 2)})))
        state = rule.new_state()
        state.step(1)
        assert state.target == 3
        fixed = (state.low, state.width)
        for eps in (-1, 1) * 8:
            state.step(eps)
        assert not state.stopped
        assert (state.low, state.width) == fixed


class TestAdaptedness:
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.kind)
    @given(incs=increments)
    def test_suffix_independence(self, rule, incs):
        # the decision on a path is determined by the prefix up to the
        # stop time: rewriting every later increment changes nothing
        d = decide(rule, WalkPath(tuple(incs)))
        if d.stopped:
            prefix = tuple(incs[: d.stop_time])
            for suffix in product((-1, 1), repeat=min(3, len(incs) - d.stop_time)):
                assert decide(rule, WalkPath(prefix + suffix)) == d
        else:
            for extra in ((), (-1,), (1,)):
                d2 = decide(rule, WalkPath(tuple(incs) + extra))
                if d2.stopped:
                    assert d2.stop_time > len(incs) or extra == ()

    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.kind)
    @given(incs=increments)
    def test_incremental_matches_decide(self, rule, incs):
        # stepping a state by hand agrees with the replay helper
        state = rule.new_state()
        stop = Decision(True, 0, state.position) if state.stopped else None
        for t, eps in enumerate(incs, start=1):
            if stop is not None:
                break
            state.step(eps)
            if state.stopped:
                stop = Decision(True, t, state.position)
        expected = stop if stop is not None else Decision(False, None, None)
        assert decide(rule, WalkPath(tuple(incs))) == expected


class TestExactLawCrossCheck:
    def test_matrix_law_vs_enumeration(self):
        # every history under the (0, 1, 1) matrix is settled by time 8
        # except a 1/64 sliver already committed to the boundary
        law = {}
        alive = Q(0)

        def rec(state, t, prob):
            nonlocal alive
            if state.stopped:
                law[state.position] = law.get(state.position, Q(0)) + prob
                return
            if t == 8:
                alive += prob
                return
            for eps in (-1, 1):
                nxt = copy.deepcopy(state)
                nxt.step(eps)
                rec(nxt, t + 1, prob / 2)

        rec(MX.new_state(), 0, Q(1))
        assert law[0] == Q(5, 16)
        assert law[-2] == law[2] == Q(43, 128)
        assert alive == Q(1, 64)


class TestMaxThresholdTable:
    @pytest.mark.parametrize("sites", [
        (-1, 0, 1), (0,), (-3, -2, -1, 0), (0, 1, 2)])
    def test_consecutive_sites_around_zero_accepted(self, sites):
        MaxThresholdRule(tuple((s, 0) for s in sites))

    @pytest.mark.parametrize("sites", [
        (), (1, 2), (-2, -1), (-1, 1), (0, 0, 1), (1, 0),
        # far apart: rejected without building the sites in between
        (-10**12, 10**12), (-1, 0, 10**12)])
    def test_other_tables_rejected(self, sites):
        with pytest.raises(ValueError, match="one level per site"):
            MaxThresholdRule(tuple((s, 0) for s in sites))


class TestJson:
    @pytest.mark.parametrize("rule", ALL_RULES, ids=lambda r: r.kind)
    def test_round_trip(self, rule):
        assert rule_from_json(rule_to_json(rule)) == rule

    def test_randomized_rule_round_trip(self):
        rule = hall_rule(measure({-2: Q(1, 3), 0: Q(1, 3), 2: Q(1, 3)}))
        text = rule_to_json(rule)
        assert text == ('{"kind": "randomizedRule", "payload": ['
                        '{"u": -2, "v": 0, "w": "1/3"}, '
                        '{"u": -2, "v": 2, "w": "2/3"}]}')
        assert rule_from_json(text) == rule

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            rule_from_json('{"kind": "nope", "payload": null}')

    # `json.loads` alone keeps the last of two equal keys: the document
    # would mean whatever its key order says
    @pytest.mark.parametrize("text, key", [
        ('{"kind": "randomizedPair", "payload": {"u": -1, "v": 1}, '
         '"kind": "maxThreshold"}', "kind"),
        ('{"kind": "randomizedPair", "payload": {"u": -1, "u": -3, "v": 1}}',
         "u"),
        ('{"kind": "minimalTheorem1", "payload": {"sites": [-1, 1], '
         '"weights": ["1/2", "1/2"], "sites": [-2, 2]}}', "sites"),
    ], ids=["top-level", "pair-field", "minimal-field"])
    def test_repeated_key_rejected(self, text, key):
        with pytest.raises(ValueError,
                           match=f"key '{key}' appears twice in one object"):
            rule_from_json(text)
