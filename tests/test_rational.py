"""Exact base-4 expansions and digit half-weights."""

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from walkembed import (
    Base4Expansion,
    digit_half_weight,
    format_rational,
    parse_rational,
    to_base4,
)
from walkembed.rational import (
    DIGIT_BUDGET,
    BudgetExceeded,
    digit_series,
    format_ratio,
)
from reference import series_by_digits, to_rational


class TestToBase4:
    def test_half_terminates(self):
        e = to_base4(Q(1, 2))
        assert e.integer_part == 0
        assert e.preperiod == (2,)
        assert e.period == ()

    def test_one_sixth_is_preperiod_then_twos(self):
        e = to_base4(Q(1, 6))
        assert e.integer_part == 0
        assert e.preperiod == (0,)
        assert e.period == (2,)

    def test_third_is_pure_period(self):
        e = to_base4(Q(1, 3))
        assert (e.integer_part, e.preperiod, e.period) == (0, (), (1,))

    def test_eleven_twentieths(self):
        # 0.55 = 11/20: first fractional digit 2, then the repeating part
        e = to_base4(Q(11, 20))
        assert e.digit(1) == 2
        assert e.period

    def test_integer(self):
        e = to_base4(Q(1))
        assert (e.integer_part, e.preperiod, e.period) == (1, (), ())

    def test_terminating_never_ends_in_all_threes(self):
        # canonical form: 1/4 is 0.1, not 0.0333...
        e = to_base4(Q(1, 4))
        assert e.preperiod == (1,)
        assert e.period == ()

    def test_digits_prefix(self):
        e = to_base4(Q(1, 6))
        assert [e.digit(i) for i in range(1, 6)] == [0, 2, 2, 2, 2]

    @given(st.integers(1, 4000))
    def test_round_trip(self, den):
        for num in (0, 1, den // 2, den - 1, den):
            x = Q(num, den)
            assert to_rational(to_base4(x)) == x

    @given(st.integers(1, 400))
    def test_digit_stream_reconstructs(self, den):
        x = Q(max(0, den - 3), den)
        e = to_base4(x)
        partial = sum(Q(e.digit(i), 4**i) for i in range(40))
        assert 0 <= x - partial < Q(1, 4**38)


    @given(st.integers(0, 3000), st.integers(1, 3000))
    def test_matches_long_division(self, num, den):
        # the lengths are predicted from den before any digit is written;
        # plain long division stopping at the first repeated remainder is
        # the reference
        x = Q(min(num, den), den)
        frac = x - int(x)
        digits, seen, rem = [], {}, frac.numerator
        while rem and rem not in seen:
            seen[rem] = len(digits)
            digits.append(4 * rem // frac.denominator)
            rem = 4 * rem % frac.denominator
        start = seen.get(rem, len(digits))
        while not rem and start and digits[start - 1] == 0:
            start -= 1  # a terminating expansion carries no trailing zeros
        period = tuple(digits[start:]) if rem else ()
        assert to_base4(x) == Base4Expansion(int(x), tuple(digits[:start]), period)

    def test_digit_budget(self):
        assert len(to_base4(Q(1, 4**DIGIT_BUDGET)).preperiod) == DIGIT_BUDGET
        with pytest.raises(BudgetExceeded) as info:
            to_base4(Q(1, 4 ** (DIGIT_BUDGET + 1)))
        assert info.value.budget == "DIGIT_BUDGET"
        with pytest.raises(BudgetExceeded):
            to_base4(Q(1, 1_000_000_007))  # period about 5 * 10^8 digits


class TestHalfWeight:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (Q(1, 2), Q(1)),          # single digit 2 at index 1
            (Q(1, 6), Q(1)),          # the boundary point of the attractor
            (Q(1, 4), Q(1, 2)),
            (Q(0), Q(0)),
            (Q(1), Q(1)),             # integer digit a0 = 1 at full weight 2^0
            (Q(11, 20), Q(3, 2)),
            (Q(3, 4), Q(3, 2)),
        ],
    )
    def test_values(self, p, expected):
        assert digit_half_weight(to_base4(p)) == expected

    @given(st.integers(0, 4**5))
    def test_monotone_under_digit_shift(self, j):
        # appending two zero digits divides a fractional value by 16 and
        # halves... the half-weight of the shifted tail by 4
        p = Q(j, 4**5)
        shifted = p / 16
        assert digit_half_weight(to_base4(shifted)) == \
            digit_half_weight(to_base4(p)) / 4


class TestDigitSeries:
    @given(st.sampled_from([2, 3, 4]), st.lists(st.integers(0, 50), max_size=12),
           st.lists(st.integers(0, 50), max_size=6))
    def test_matches_term_by_term(self, base, head, period):
        assert digit_series(head, period, base) == \
            series_by_digits(head, period, base)

    # denominators up to 4000 keep every period within DIGIT_BUDGET
    @given(st.integers(0, 4000), st.integers(1, 4000))
    def test_base4_expansion_value(self, a, b):
        e = to_base4(Q(min(a, b), b))
        assert digit_series((e.integer_part, *e.preperiod), e.period, 4) == \
            to_rational(e)


class TestFormats:
    @pytest.mark.parametrize("text", ["0", "1", "1/2", "11/32", "2/9"])
    def test_rational_round_trip(self, text):
        assert format_rational(parse_rational(text)) == text

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
    def test_ratio_matches_fraction(self, n, d):
        assert format_ratio(n, d) == format_rational(Q(n, d))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            to_base4(Q(-1, 2))
