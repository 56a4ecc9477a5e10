"""Exact rationals and eventually periodic base-4 digit expansions.

Every probability, atom weight and potential value in the library is a
`fractions.Fraction`; nothing in this module rounds.  A `Base4Expansion`
stores the digits of a rational in [0, 1] written in base 4, split into a
finite preperiod and a (possibly empty) repeating period; `digit_series`
sums any eventually periodic digit sequence at any base in closed form.
The tests check `to_base4` against `to_rational` in `tests/reference.py`,
which sums an expansion back to its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

Q = Fraction  # rational type alias used throughout the package


@dataclass(frozen=True)
class Base4Expansion:
    """Digits a0.a1a2a3... of a rational in [0, 1], base 4.

    `preperiod` holds the digits before the repeating block, `period` the
    repeating block itself (empty for terminating expansions).  The stored
    form is canonical: terminating expansions carry no trailing zeros and
    the period is never a string of threes (long division produces the
    variant that ends in zeros instead).
    """

    integer_part: int
    preperiod: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.integer_part < 0:
            raise ValueError("integer part must be nonnegative")
        for d in self.preperiod + self.period:
            if d not in (0, 1, 2, 3):
                raise ValueError(f"base-4 digit out of range: {d}")
        if self.period and set(self.period) == {3}:
            raise ValueError("period of all threes is not canonical")

    def digit(self, i: int) -> int:
        """The digit a_i; a_0 is the integer part."""
        if i < 0:
            raise IndexError(i)
        if i == 0:
            return self.integer_part
        i -= 1
        if i < len(self.preperiod):
            return self.preperiod[i]
        if not self.period:
            return 0
        return self.period[(i - len(self.preperiod)) % len(self.period)]


#: most base-4 digits (preperiod plus period) `to_base4` writes out
DIGIT_BUDGET = 4096


class BudgetExceeded(ArithmeticError):
    """A computation would pass a stated budget; no verdict was refuted.
    `budget` names the module constant that ran out, e.g. "DIGIT_BUDGET"."""

    def __init__(self, budget: str, message: str):
        super().__init__(message)
        self.budget = budget


def to_base4(x: Q) -> Base4Expansion:
    """Canonical base-4 expansion of a rational x in [0, 1].

    With the fraction written p / (2^v m), m odd, the expansion has
    ceil(v/2) digits before its period and a period as long as the order of
    4 modulo m (none when m = 1).  Both lengths are found first, within
    DIGIT_BUDGET digits, and the digits are then written by long division.
    Raises BudgetExceeded when they need more.
    """
    x = Q(x)
    if x < 0 or x > 1:
        raise ValueError(f"expansion defined on [0, 1] only, got {x}")
    integer_part = int(x)  # 0, or 1 when x == 1
    frac = x - integer_part
    num, den = frac.numerator, frac.denominator
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    pre = (twos + 1) // 2
    span = 0  # the period: the least span > 0 with 4^span = 1 (mod odd)
    if odd > 1:
        span, power = 1, 4 % odd
        while power != 1 and pre + span <= DIGIT_BUDGET:
            span, power = span + 1, 4 * power % odd
    if pre + span > DIGIT_BUDGET:
        raise BudgetExceeded("DIGIT_BUDGET", f"base-4 expansion needs more "
                             f"than DIGIT_BUDGET = {DIGIT_BUDGET} digits")
    digits: list[int] = []
    rem = num
    for _ in range(pre + span):
        rem *= 4
        digits.append(rem // den)
        rem %= den
    return Base4Expansion(integer_part, tuple(digits[:pre]), tuple(digits[pre:]))


def digit_series(head, period, base: int) -> Q:
    """Exact value of sum_{n>=0} base^{-n} d_n, where the digits d_n are
    `head` and then `period` repeated (none when it is empty).  The digits
    may be any nonnegative integers.

    Horner's rule sums the m head digits to an integer h over base^(m-1)
    and one period of p digits to an integer P, one multiply-add per
    digit, and the repeats add P base^(1-m) / (base^p - 1).
    """
    period = period or (0,)  # repeated zeros add nothing
    h = per = 0
    for d in head:
        h = h * base + d
    for d in period:
        per = per * base + d
    gap = base ** len(period) - 1
    return Q((h * gap + per) * base, base ** len(head) * gap)


def digit_half_weight(e: Base4Expansion) -> Q:
    """Exact value of sum_{i>=0} 2^{-i} a_i for the expansion's digits,
    a_0 being the integer part.  Always finite: digits <= 3 give a value
    <= 6."""
    return digit_series((e.integer_part, *e.preperiod), e.period, 2)


def format_rational(x: Q) -> str:
    """Serialize as "p/q", with "/q" omitted when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_ratio(n: int, d: int) -> str:
    """`format_rational(Fraction(n, d))` for d > 0, with one gcd and no
    Fraction built."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def parse_rational(s: str) -> Q:
    if not isinstance(s, str):
        raise ValueError(f"not a rational string: {s!r}")
    try:
        return Q(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {s!r}") from exc


def parse_int(x) -> int:
    """A JSON integer field: an `int` that is not a `bool`.

    Floats, bools and strings are rejected rather than truncated, so a
    malformed site or count cannot silently turn into a different rule.
    """
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"not an integer: {x!r}")
    return x


def known_fields(obj, names: tuple[str, ...], what: str) -> dict:
    """`obj`, a JSON object with no field outside `names`: a field of no
    meaning is rejected, since a misspelt one would take its default.
    `what` names the document in the message."""
    if not isinstance(obj, dict):
        raise ValueError(f"malformed {what}: expected an object, got {obj!r}")
    for key in obj:
        if key not in names:
            raise ValueError(f"malformed {what}: unknown field {key!r}")
    return obj
