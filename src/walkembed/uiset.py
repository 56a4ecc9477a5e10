"""Which measures admit a uniformly integrable embedding in the walk.

For targets supported on {-2, 0, 2} the admissible weights at 0 form a
self-similar set characterized by a base-4 digit criterion; for support
{-2,...,2} a triple criterion with an extra per-stage capacity condition
applies.  This module implements both classifiers exactly, a dynamic
programming brute-force oracle for the two-point case, and iterated
function system engines rendering the fractal set of admissible weights.

The contraction-system cover runs on integers.  With L the lcm of the
denominators of a system's offsets and condensation set, every endpoint of
the depth-d cover of [0, 1] is an integer over L * 4^d, and in those units
the map x -> x/4 + off is the shift n -> n + off * L * 4^d: numerators are
never rescaled, so a level is a few shifted copies, one sort and a linear
merge.  `IntervalUnion` stores such numerators over one denominator.
The independent reference, the same levels computed on `Fraction`
endpoints, lives with the tests in `tests/reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .matrices import (
    CountViolation,
    MatrixRow,
    StoppingMatrix,
    boundary_masses,
    settle_stage,
)
from .measures import MeasureError
from .rational import Base4Expansion, BudgetExceeded, Q, digit_half_weight, to_base4


# ---------------------------------------------------------------------------
# Weight-at-zero classifier (support {-2, 0, 2})


@dataclass(frozen=True)
class WeightVerdict:
    member: bool
    expansion: Base4Expansion
    half_weight: Fraction


def classify_weight(p: Fraction) -> WeightVerdict:
    """Is p an admissible probability of stopping at 0 (support {-2,0,2})?

    Member iff the canonical base-4 digits a_0.a_1a_2... of p satisfy
    sum 2^{-i} a_i <= 1.  The canonical expansion minimizes that sum over
    the possible expansions of p, so no search over representations is
    needed.
    """
    e = to_base4(Q(p))
    w = digit_half_weight(e)
    return WeightVerdict(w <= 1, e, w)


# ---------------------------------------------------------------------------
# Triple classifier (support {-2, -1, 0, 1, 2})


@dataclass(frozen=True)
class TripleVerdict:
    member: bool
    expansions: tuple[Base4Expansion, Base4Expansion, Base4Expansion]
    #: for non-members: "digitSum" (the digit criterion's sum passes 1) or
    #: "capacity at stage n"; infeasible mass raises MeasureError instead
    reason: str = ""


def classify_triple(p_minus: Fraction, p_zero: Fraction,
                    p_plus: Fraction) -> TripleVerdict:
    """Admissibility of interior weights (p_minus, p_zero, p_plus), where
    the remaining mass sits on {-2, 2} balancing the mean to zero.

    With (a_n), (b_n), (c_n) the canonical base-4 digits of p_zero,
    p_minus/2 and p_plus/2 (index 0 the integer part), member iff
    sum 2^{-i}(a_i + b_i + c_i) <= 1 and a <= k at every stage of the N = 1
    matrix whose rows at -1, 0 and 1 stop b_n, a_n and c_n paths: heads the
    integer part and preperiod, tails the period.  `matrices.settle_stage`
    decides the latter; a violation at stage n is "capacity at stage n".
    The scan's budgets can in principle raise BudgetExceeded, on counts
    that neither outgrow the digits nor settle over the periods' lcm.
    """
    p_minus, p_zero, p_plus = Q(p_minus), Q(p_zero), Q(p_plus)
    for name, v in (("p_minus", p_minus), ("p_zero", p_zero), ("p_plus", p_plus)):
        if v < 0 or v > 1:
            raise MeasureError(f"{name} out of [0, 1]: {v}")
    if p_minus + p_zero + p_plus > 1:
        raise MeasureError("interior weights exceed total mass 1")
    interior = {-1: p_minus, 0: p_zero, 1: p_plus}
    if min(boundary_masses(interior, 1).values()) < 0:
        raise MeasureError("no centered completion on {-2, 2} exists")

    ea = to_base4(p_zero)
    eb = to_base4(p_minus / 2)
    ec = to_base4(p_plus / 2)
    exps = (eb, ea, ec)

    if sum(map(digit_half_weight, exps)) > 1:
        return TripleVerdict(False, exps, reason="digitSum")

    rows = {i: MatrixRow((e.integer_part, *e.preperiod),
                         "periodic" if e.period else "zero", e.period)
            for i, e in zip((-1, 0, 1), exps)}
    try:
        settle_stage(StoppingMatrix(1, rows))
    except CountViolation as v:
        return TripleVerdict(False, exps, reason=f"capacity at stage {v.stage}")
    return TripleVerdict(True, exps)


# ---------------------------------------------------------------------------
# Brute-force oracle for the two-point case


def achievable_weights(horizon: int) -> frozenset[Fraction]:
    """Exact set of stop-at-zero probabilities realizable by adapted rules
    that stop no paths after `horizon` stages (support {-2, 0, 2}).

    Dynamic program over (stage, alive-path count): at stage n with k alive
    paths any number a in [0, k] may stop, contributing a * 4^{-n}, and
    2(k - a) paths return at the next stage.  Independent of the digit
    classifier; used to cross-check it on terminating grids.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if horizon > 12:
        raise ValueError("horizon too large (state space is exact; cap is 12)")

    @lru_cache(maxsize=None)
    def values(n: int, k: int) -> frozenset[Fraction]:
        if n > horizon or k == 0:
            return frozenset({Q(0)})
        out: set[Fraction] = set()
        unit = Q(1, 4**n)
        for a in range(k + 1):
            for rest in values(n + 1, 2 * (k - a)):
                out.add(a * unit + rest)
        return frozenset(out)

    return values(0, 1)


# ---------------------------------------------------------------------------
# Interval unions and iterated function systems


class IntervalUnion:
    """Canonical finite union of closed rational-endpoint intervals
    (degenerate intervals are points).

    Stored as sorted, disjoint integer endpoint pairs `pairs` over one
    positive denominator `den`; `intervals` gives the same union as
    `Fraction` pairs.  Equality compares the unions, whatever `den` is.
    """

    __slots__ = ("pairs", "den")

    def __init__(self, intervals: list[tuple[Fraction, Fraction]]):
        ivs = sorted((Q(a), Q(b)) for a, b in intervals)
        merged: list[list[Fraction]] = []
        for a, b in ivs:
            if b < a:
                raise ValueError(f"empty interval ({a}, {b})")
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        den = math.lcm(*(x.denominator for iv in merged for x in iv))
        self.pairs: tuple[tuple[int, int], ...] = tuple(
            (int(a * den), int(b * den)) for a, b in merged
        )
        self.den = den

    @classmethod
    def from_numerators(cls, pairs: list[tuple[int, int]],
                        den: int) -> "IntervalUnion":
        """The union of [a/den, b/den] over `pairs`, which must already be
        sorted and disjoint with a <= b, as `ifs_approximate` makes them."""
        u = cls.__new__(cls)
        u.pairs = tuple(pairs)
        u.den = den
        return u

    @property
    def intervals(self) -> tuple[tuple[Fraction, Fraction], ...]:
        d = self.den
        return tuple((Q(a, d), Q(b, d)) for a, b in self.pairs)

    def measure(self) -> Fraction:
        return Q(sum(b - a for a, b in self.pairs), self.den)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntervalUnion) and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash(self.intervals)

    def __repr__(self) -> str:
        parts = ", ".join(f"[{a}, {b}]" for a, b in self.intervals)
        return f"IntervalUnion({parts})"


@dataclass(frozen=True)
class IfsSystem:
    """Affine contractions x -> x/4 + offset plus an optional condensation
    set included verbatim at every iteration."""

    offsets: tuple[Fraction, ...]
    condensation: IntervalUnion | None = None


def weight_set_system() -> IfsSystem:
    """x/4 + 1/4 and x/4 + 1/8, with condensation [0, 1/8] and the point 1."""
    return IfsSystem(
        offsets=(Q(1, 4), Q(1, 8)),
        condensation=IntervalUnion([(Q(0), Q(1, 8)), (Q(1), Q(1))]),
    )


#: Intervals a cover may hold after any level's merge.  The depth-16 cover
#: of `weight_set_system` has 32 769 intervals and depth 17 would have
#: 65 537: the count doubles at each level.
MAX_COVER_INTERVALS = 2**16


def ifs_approximate(system: IfsSystem, depth: int) -> IntervalUnion:
    """Depth-d image of [0, 1] under the system, exact endpoints.

    The images are a decreasing chain of covers of the attractor, so their
    Lebesgue measures bracket the attractor's from above.

    Runs on integer numerators over one denominator D, which starts at
    L = lcm of the offsets' and the condensation set's denominators and is
    multiplied by 4 at each level.  Over the new D, x -> x/4 + off is the
    shift n -> n + off * D, so a level is one shifted copy of the pairs per
    offset plus the condensation pairs scaled to D, one sort and a linear
    merge.
    Raises BudgetExceeded when a level's merged cover holds more than
    MAX_COVER_INTERVALS intervals.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    cond = system.condensation or IntervalUnion([])
    den = math.lcm(cond.den, *(off.denominator for off in system.offsets))
    shifts = [int(off * den) for off in system.offsets]
    cond_pairs = [(a * den // cond.den, b * den // cond.den)
                  for a, b in cond.pairs]
    pairs = [(0, den)]
    for level in range(1, depth + 1):
        den *= 4
        scale = 4**level
        ivs = [(a + s, b + s) for s in (t * scale for t in shifts)
               for a, b in pairs]
        ivs += [(a * scale, b * scale) for a, b in cond_pairs]
        ivs.sort()
        pairs = []
        lo, hi = ivs[0]
        for a, b in ivs:
            if a > hi:
                pairs.append((lo, hi))
                lo, hi = a, b
            elif b > hi:
                hi = b
        pairs.append((lo, hi))
        if len(pairs) > MAX_COVER_INTERVALS:
            raise BudgetExceeded(
                "MAX_COVER_INTERVALS",
                f"the depth-{level} cover has {len(pairs)} intervals, more "
                f"than MAX_COVER_INTERVALS = {MAX_COVER_INTERVALS}")
    return IntervalUnion.from_numerators(pairs, den)


def ifs_membership(p: Fraction, depth: int) -> str:
    """Membership in the attractor of `weight_set_system` by one inverse
    orbit: 'member', 'nonMember' or 'undecidedAtDepth'.

    A point x has the preimage 4x - 1 when x is in [1/4, 1/2] and
    4x - 1/2 when x is in [1/8, 3/8].  On the overlap [1/4, 3/8] the second
    lands in [1/2, 1], whose points other than 1/2 and 1 have no preimage
    and lie outside the condensation set; at x = 1/4 and x = 3/8 the first
    preimage (0 or 1/2) is a member as well.  So at most one branch can
    lead to a member, and the orbit follows T(x) = 4x - 1 for x >= 1/4 and
    4x - 1/2 below.  The point is a member once the orbit reaches [0, 1/8],
    1/2 (= 1/4 + 1/4) or 1, or repeats (a fixed point of a finite map
    composition); it is out once the orbit reaches (1/2, 1).  Agrees with
    `classify_weight` whenever it decides.

    Over D = lcm(q, 8) the orbit stays on the integers 0..D, so it decides
    every rational; `depth` caps the number of inverse steps.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    p = Q(p)
    if p < 0 or p > 1:
        return "nonMember"
    den = math.lcm(p.denominator, 8)
    x = p.numerator * (den // p.denominator)
    eighth, quarter, half = den // 8, den // 4, den // 2
    seen: set[int] = set()
    for _ in range(depth + 1):
        if x <= eighth or x == half or x == den or x in seen:
            return "member"
        if x > half:
            return "nonMember"
        seen.add(x)
        x = 4 * x - (den if x >= quarter else half)
    return "undecidedAtDepth"
