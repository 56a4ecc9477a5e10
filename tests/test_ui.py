"""Weight/triple classifiers, brute-force oracle and the contraction system."""

from collections import Counter
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkembed import (
    IfsSystem,
    IntervalUnion,
    achievable_weights,
    classify_triple,
    classify_weight,
    ifs_approximate,
    ifs_membership,
    measure,
    search_matrix,
    verify_matrix,
    weight_set_system,
)
from reference import (
    affine,
    apply,
    contains,
    triple_capacity,
    union,
    weight_set_system_alt,
)

VERDICTS_FILE = Path(__file__).with_name("ifs_verdicts.txt")

# denominators 2q whose base-4 periods run from 1 (q = 3) to 6 (q = 13)
HALF_DENOMINATORS = [*range(3, 17), 31, 64]


@st.composite
def feasible_triples(draw):
    """(p_minus, p_zero, p_plus), each i/(2q), with a centred completion on
    {-2, 2}: p_minus <= 2(1 - p_zero)/3 keeps the -2 mass nonnegative for
    p_plus = 0, and p_plus is then capped by both boundary masses."""

    def upto(bound):
        q = draw(st.sampled_from(HALF_DENOMINATORS))
        return Q(draw(st.integers(0, int(bound * 2 * q))), 2 * q)

    p_zero = upto(Q(1))
    p_minus = upto(2 * (1 - p_zero) / 3)
    p_plus = upto(min(2 * (1 - p_zero - p_minus / 2) / 3,
                      2 * (1 - p_zero - 3 * p_minus / 2)))
    return p_minus, p_zero, p_plus


def repeating(block: tuple[int, ...]) -> Q:
    """0.0(block)(block)... in base 4."""
    value = 0
    for d in block:
        value = 4 * value + d
    return Q(value, 4 * (4 ** len(block) - 1))


# periods of 515 digits or more, whose lcm runs to 8.7 million stages.  In
# the last two, L runs 2, 3, 2, 2, ... through a period of 2045 or 515
# digits and never outgrows the digits: the repeat of the counts settles
# the first, and in the second a digit 3 of p_minus/2 meets L = 2 at stage
# 100
LONG_PERIODS = [
    ((Q(1, 1033), Q(1, 1031), Q(0)), True, ""),
    ((Q(1, 1049), Q(1, 1031), Q(1, 1033)), True, ""),
    ((Q(0), Q(0), Q(3, 8) + Q(1, 32 * 1031)), False, "capacity at stage 2"),
    ((2 * repeating((0, 1) + (0,) * 2043), repeating((1, 3) + (2,) * 2043),
      Q(0)), True, ""),
    ((2 * repeating((0, 1) + (0,) * 96 + (3,) + (0,) * 416),
      repeating((1, 3) + (2,) * 96 + (0, 0) + (2,) * 415), Q(0)),
     False, "capacity at stage 100"),
]


class TestClassifyWeight:
    @pytest.mark.parametrize("p", [Q(0), Q(1, 4), Q(1, 2), Q(1, 6), Q(1),
                                   Q(1, 8), Q(1, 16), Q(5, 16), Q(3, 64),
                                   Q(1, 3)])
    def test_members(self, p):
        assert classify_weight(p).member

    @pytest.mark.parametrize("p", [Q(11, 20), Q(3, 5), Q(3, 4), Q(9, 10),
                                   Q(2, 3), Q(31, 32)])
    def test_non_members(self, p):
        assert not classify_weight(p).member

    def test_boundary_point_weight_exactly_one(self):
        v = classify_weight(Q(1, 6))
        assert v.member and v.half_weight == 1

    def test_low_interval_members(self):
        # everything in [0, 1/8] fits: digits start 0,0 at worst
        for j in range(0, 129):
            assert classify_weight(Q(j, 1024)).member


class TestClassifyTriple:
    def test_uniform_third_fails_budget(self):
        v = classify_triple(Q(1, 3), Q(1, 3), Q(1, 3))
        assert not v.member and v.reason == "digitSum"

    def test_symmetric_half(self):
        assert classify_triple(Q(1, 4), Q(1, 2), Q(1, 4)).member is False
        assert classify_triple(Q(0), Q(1, 2), Q(0)).member

    def test_asymmetric_member(self):
        assert classify_triple(Q(1, 2), Q(1, 4), Q(0)).member

    def test_mass_infeasible_raises(self):
        with pytest.raises(Exception):
            classify_triple(Q(1, 2), Q(1, 2), Q(1, 2))

    def test_slice_matches_weight_classifier(self):
        for j in range(0, 4**4 + 1):
            p = Q(j, 4**4)
            assert classify_triple(Q(0), p, Q(0)).member == \
                classify_weight(p).member

    @pytest.mark.parametrize("h", [1, 2])
    def test_matches_matrix_search_on_grid(self, h):
        # every triple j / 4^h whose centred completion reaches +-2: the
        # digit criterion against `search_matrix`, whose members verify
        q, tally = 4**h, Counter()
        for i, j, k in product(range(q + 1), repeat=3):
            p_minus, p_zero, p_plus = Q(i, q), Q(j, q), Q(k, q)
            rest = 1 - p_minus - p_zero - p_plus
            w_hi = (rest + (p_minus - p_plus) / 2) / 2
            w_lo = rest - w_hi
            if min(w_lo, w_hi) < 0 or rest == 0:
                continue  # no centred completion, or a hull inside +-1
            mu = measure({-2: w_lo, -1: p_minus, 0: p_zero, 1: p_plus,
                          2: w_hi})
            v = classify_triple(p_minus, p_zero, p_plus)
            res = search_matrix(mu, max_stage=h + 2)
            assert v.member == (res.status == "member"), (i, j, k)
            if res.matrix is not None:
                assert verify_matrix(res.matrix, mu).valid
            tally["member" if v.member else v.reason.split()[0]] += 1
        # both failure branches run: the digit sum, and a stage's capacity
        assert tally == {1: {"member": 10, "capacity": 4, "digitSum": 4},
                         2: {"member": 92, "capacity": 46,
                             "digitSum": 474}}[h]

    # periodic digits: 5/24 = 0.0311..., 1/6 = 0.0222... in base 4
    @pytest.mark.parametrize("triple, member, reason", [
        ((Q(0), Q(0), Q(5, 12)), False, "capacity at stage 2"),
        ((Q(0), Q(0), Q(1, 3)), True, ""),
        ((Q(0), Q(1, 6), Q(0)), True, ""),
    ])
    def test_periodic_digits(self, triple, member, reason):
        v = classify_triple(*triple)
        assert (v.member, v.reason) == (member, reason)

    @settings(max_examples=300, deadline=None)
    @given(feasible_triples())
    # capacity fails in about 1 % of draws, so pin it at stages 2, 3 and 4
    # on periodic digits, on either side
    @example((Q(2, 5), Q(0), Q(0)))
    @example((Q(1, 10), Q(1, 4), Q(0)))
    @example((Q(1, 2), Q(0), Q(3, 20)))
    def test_matches_count_recursion(self, triple):
        # the settle scan of the digit matrix against the scaled count
        # recursion L_{n+1} = 2 L_n - (a_n + b_n + c_n)
        v = classify_triple(*triple)
        eb, ea, ec = v.expansions
        assert (v.member, v.reason) == triple_capacity(ea, eb, ec)

    @pytest.mark.parametrize("triple, member, reason", LONG_PERIODS)
    def test_long_periods_match_count_recursion(self, triple, member, reason):
        v = classify_triple(*triple)
        eb, ea, ec = v.expansions
        assert (v.member, v.reason) == (member, reason)
        assert (member, reason) == triple_capacity(ea, eb, ec)


class TestOracle:
    def test_horizon_one(self):
        assert achievable_weights(1) == {Q(0), Q(1, 4), Q(1, 2), Q(1)}

    def test_monotone_in_horizon(self):
        for h in range(1, 5):
            assert achievable_weights(h) <= achievable_weights(h + 1)

    def test_agrees_with_classifier_on_grid(self):
        aw = achievable_weights(4)
        for j in range(0, 4**4 + 1):
            p = Q(j, 4**4)
            assert (p in aw) == classify_weight(p).member

    def test_horizon_capped(self):
        with pytest.raises(ValueError):
            achievable_weights(13)


class TestIntervalUnion:
    def test_merge_overlaps(self):
        u = IntervalUnion([(Q(0), Q(1, 2)), (Q(1, 4), Q(3, 4))])
        assert u.intervals == ((Q(0), Q(3, 4)),)

    def test_points_kept(self):
        u = IntervalUnion([(Q(1), Q(1)), (Q(0), Q(1, 8))])
        assert u.measure() == Q(1, 8)
        assert u.intervals == ((Q(0), Q(1, 8)), (Q(1), Q(1)))

    def test_affine_and_union(self):
        u = IntervalUnion([(Q(0), Q(1))])
        v = affine(u, Q(1, 4), Q(1, 8))
        assert v.intervals == ((Q(1, 8), Q(3, 8)),)
        assert union(u, v).intervals == ((Q(0), Q(1)),)

    def test_containment(self):
        big = IntervalUnion([(Q(0), Q(1, 2)), (Q(3, 4), Q(1))])
        small = IntervalUnion([(Q(1, 8), Q(1, 4)), (Q(3, 4), Q(3, 4))])
        assert contains(big, small)
        assert not contains(small, big)


class TestIfs:
    def test_first_image(self):
        s1 = ifs_approximate(weight_set_system(), 1)
        assert s1.intervals == ((Q(0), Q(1, 2)), (Q(1), Q(1)))

    def test_measures_match_closed_form(self):
        # depth-d Lebesgue measure comes out to (2^(d-1) + 1) / 2^(d+1)
        for d in range(1, 13):
            cover = ifs_approximate(weight_set_system(), d)
            assert cover.measure() == Q(2 ** (d - 1) + 1, 2 ** (d + 1))

    def test_alternative_system_same_approximants(self):
        # the six-map quarter-scale system generates the same images of
        # [0, 1] as the two-map system with its interval condensation
        for d in range(1, 7):
            a = ifs_approximate(weight_set_system(), d)
            b = ifs_approximate(weight_set_system_alt(), d)
            assert a == b

    def test_membership_fixed_point(self):
        assert ifs_membership(Q(1, 6), depth=12) == "member"

    def test_membership_escape(self):
        assert ifs_membership(Q(3, 4), depth=12) == "nonMember"

    def test_membership_condensation(self):
        assert ifs_membership(Q(1, 16), depth=2) == "member"
        assert ifs_membership(Q(1), depth=0) == "member"

    def test_half_is_a_member_at_depth_zero(self):
        # 1/2 = 1/4 + 1/4 is the image of the member 1 under x/4 + 1/4
        assert ifs_membership(Q(1, 2), depth=0) == "member"

    def test_membership_matches_frozen_table(self):
        # VERDICTS_FILE holds the verdicts of the depth-first search over
        # every inverse branch that `ifs_membership` ran before it followed
        # one orbit: one line per q <= 64, one token per a = -1..q+1, where
        # "M3" reads undecided at depths 0-2 and member at depths 3-12, and
        # "U" undecided at every depth
        verdicts = {"M": "member", "N": "nonMember"}
        earlier = set()
        lines = VERDICTS_FILE.read_text().splitlines()
        assert len(lines) == 64
        for line in lines:
            head, tokens = line.split(": ")
            q = int(head)
            tokens = tokens.split()
            assert len(tokens) == q + 3
            for a, token in zip(range(-1, q + 2), tokens):
                p = Q(a, q)
                first = 13 if token == "U" else int(token[1:])
                for depth in range(13):
                    got = ifs_membership(p, depth)
                    if depth >= first:
                        assert got == verdicts[token[0]], (p, depth)
                    elif got != "undecidedAtDepth":
                        member = 0 <= p <= 1 and classify_weight(p).member
                        assert (got == "member") == member, (p, depth)
                        earlier.add((p, depth))
        # the orbit decides 1/2 one step before the search did, and no
        # other point earlier
        assert earlier == {(Q(1, 2), 0)}

    @given(st.integers(0, 4**4))
    def test_membership_agrees_with_classifier(self, j):
        p = Q(j, 4**4)
        verdict = ifs_membership(p, depth=16)
        if verdict != "undecidedAtDepth":
            assert (verdict == "member") == classify_weight(p).member

    def test_closure_under_contractions(self):
        # f1(x) = 1/4 + x/4 and f2(x) = 1/8 + x/4 map members to members
        for j in range(0, 4**4 + 1):
            p = Q(j, 4**4)
            if classify_weight(p).member:
                assert classify_weight(Q(1, 4) + p / 4).member
                assert classify_weight(Q(1, 8) + p / 4).member


DYADICS = st.builds(lambda j, k: Q(k % (2**j + 1), 2**j),
                    st.integers(0, 4), st.integers(0, 16))


@st.composite
def ifs_systems(draw):
    offsets = tuple(draw(st.lists(DYADICS, min_size=1, max_size=6)))
    ends = draw(st.lists(st.tuples(DYADICS, DYADICS), min_size=1, max_size=3))
    condensation = draw(st.sampled_from(
        [None, IntervalUnion([(min(a, b), max(a, b)) for a, b in ends])]))
    return IfsSystem(offsets, condensation)


class TestIntegerCover:
    # the Fraction replay dominates: up to about 1 s for six offsets at depth 7
    @settings(max_examples=50, deadline=None)
    @given(ifs_systems(), st.integers(0, 7))
    def test_matches_fraction_replay(self, system, depth):
        # the integer cover equals `depth` Fraction applications of the
        # system to [0, 1], interval by interval and in measure
        ref = IntervalUnion([(Q(0), Q(1))])
        for _ in range(depth):
            ref = apply(system, ref)
        cover = ifs_approximate(system, depth)
        assert cover == ref
        assert cover.intervals == ref.intervals
        assert cover.measure() == sum((b - a for a, b in ref.intervals), Q(0))

    def test_numerators_over_one_denominator(self):
        cover = ifs_approximate(weight_set_system(), 2)
        assert cover.den == 8 * 4**2
        assert cover.pairs == ((0, 48), (64, 64), (128, 128))
        assert cover == IntervalUnion.from_numerators([(0, 3), (4, 4), (8, 8)], 8)

    def test_membership_rejects_negative_depth(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ifs_membership(Q(3, 10), depth=-1)
