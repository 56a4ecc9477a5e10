"""Probability measures on the integers with exact rational weights.

Provides the measure type used by every classifier, plus the two objects of
one-dimensional potential theory attached to such a measure: the piecewise
linear potential u(x) = -sum |x - n| mu({n}) and the left-continuous
barycenter (Hardy-Littlewood) step function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .rational import BudgetExceeded, Q, format_rational, known_fields, parse_rational


class MeasureError(ValueError):
    """Raised when input data violates a measure invariant."""


#: Sites a tabulated hull or strip may span.  The potential and the
#: barycenter cost one tail-sum pass over the hull, about 1-1.6 s for 2^16
#: atoms, and a count-engine stage about 1 us per site while its counts
#: are small.
MAX_HULL_SITES = 2**16


def check_hull(lo: int, hi: int) -> None:
    """Raise BudgetExceeded if [lo, hi] has more than MAX_HULL_SITES
    sites."""
    if hi - lo + 1 > MAX_HULL_SITES:
        raise BudgetExceeded(
            "MAX_HULL_SITES",
            f"the hull [{lo}, {hi}] has {hi - lo + 1} sites, more than "
            f"MAX_HULL_SITES = {MAX_HULL_SITES}")


class IntegerMeasure:
    """Finitely supported probability measure on the integers.

    Weights are positive rationals summing exactly to 1.
    """

    __slots__ = ("_atoms",)

    def __init__(self, atoms: dict[int, Fraction]):
        clean: dict[int, Fraction] = {}
        for site, w in atoms.items():
            if not isinstance(site, int):
                raise MeasureError(f"support site must be an integer, got {site!r}")
            if type(w) is not Fraction:
                w = Q(w)
            if w.numerator < 0:
                raise MeasureError(f"weight at {site} is negative: {w}")
            if w.numerator:
                clean[site] = w
        # the sum over the common denominator, in integers
        den = lcm(*(w.denominator for w in clean.values()))
        num = sum(w.numerator * (den // w.denominator) for w in clean.values())
        if num != den:
            raise MeasureError(f"weights sum to {Q(num, den)}, not 1")
        self._atoms = dict(sorted(clean.items()))

    @property
    def atoms(self) -> dict[int, Fraction]:
        return dict(self._atoms)

    @property
    def support(self) -> list[int]:
        return list(self._atoms)

    def weight(self, site: int) -> Fraction:
        return self._atoms.get(site, Q(0))

    def mean(self) -> Fraction:
        return sum((k * w for k, w in self._atoms.items()), Q(0))

    def is_centered(self) -> bool:
        return self.mean() == 0

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegerMeasure) and self._atoms == other._atoms

    def __hash__(self) -> int:
        return hash(tuple(self._atoms.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}: {format_rational(w)}" for k, w in self._atoms.items())
        return f"IntegerMeasure({{{inner}}})"

    # -- JSON wire format: {"atoms": {"-2": "11/32", "0": "5/16", ...}} --

    def to_json_dict(self) -> dict:
        return {"atoms": {str(k): format_rational(w) for k, w in self._atoms.items()}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "IntegerMeasure":
        if not isinstance(data, dict) or "atoms" not in data:
            raise MeasureError('measure JSON must be an object with an "atoms" key')
        known_fields(data, ("atoms",), "measure JSON")
        raw = data["atoms"]
        if not isinstance(raw, dict):
            raise MeasureError('"atoms" must map integer strings to rational strings')
        atoms: dict[int, Fraction] = {}
        for key, val in raw.items():
            try:  # one spelling per site: "1" only, not "01", "+1" or "1_0"
                site = int(key)
            except ValueError:
                site = None
            if key != str(site):
                raise MeasureError(
                    f"site key is not an integer in canonical form: {key!r}")
            atoms[site] = parse_rational(val)
        return cls(atoms)


def measure(atoms: dict[int, object]) -> IntegerMeasure:
    """Shorthand constructor taking ints / strings / Fractions as weights."""
    return IntegerMeasure({k: Q(v) for k, v in atoms.items()})


@dataclass(frozen=True)
class PotentialFunction:
    """Piecewise linear potential of an integrable measure, breaking on Z.

    Values are stored at every integer of the support hull [lo, hi];
    outside the hull the function equals -|x - mean| exactly, so the
    representation is lossless for integer-supported measures.
    """

    lo: int
    hi: int
    mean: Fraction
    values: tuple[Fraction, ...]  # u(lo), u(lo+1), ..., u(hi)

    def value_at(self, k: int) -> Fraction:
        """Value at an integer site (valid for any integer)."""
        if k < self.lo or k > self.hi:
            return -abs(Q(k) - self.mean)
        return self.values[k - self.lo]


def _tails(mu: IntegerMeasure) -> tuple[int, int, list[Fraction], list[Fraction]]:
    """(lo, hi, T, S) over the support hull [lo, hi], in one pass down from
    hi: T[k - lo] = mu([k, hi]), the tail mass, and S[k - lo] = sum_{n >= k}
    n mu({n}), the tail moment.  Raises BudgetExceeded past
    MAX_HULL_SITES."""
    atoms = mu._atoms
    sites = mu.support
    lo, hi = sites[0], sites[-1]
    check_hull(lo, hi)
    mass, moment = [Q(0)] * (hi - lo + 1), [Q(0)] * (hi - lo + 1)
    t = s = Q(0)
    for k in range(hi, lo - 1, -1):
        w = atoms.get(k)
        if w is not None:
            t += w
            s += k * w
        mass[k - lo], moment[k - lo] = t, s
    return lo, hi, mass, moment


def potential(mu: IntegerMeasure) -> PotentialFunction:
    """Exact breakpoint representation of u(x) = -sum_n |x - n| mu({n}).

    Split at k, the sum is (S - kT) + (k(1 - T) - (mean - S)) with T and
    S the tail mass and moment of [k, hi], so u(k) = 2kT - 2S - k + mean.
    """
    lo, hi, mass, moment = _tails(mu)
    mean = moment[0]
    vals = tuple(2 * k * t - 2 * s - k + mean
                 for k, t, s in zip(range(lo, hi + 1), mass, moment))
    return PotentialFunction(lo, hi, mean, vals)


@dataclass(frozen=True)
class BarycenterFunction:
    """Left-continuous nondecreasing step function Psi, constant on (k, k+1].

    Psi(k) is the conditional mean of the measure on [k, infinity); above
    the top of the support the convention Psi(x) = x applies.
    """

    lo: int
    hi: int
    values: tuple[Fraction, ...]  # Psi(lo), ..., Psi(hi)

    def value_at(self, k: int) -> Fraction:
        if k > self.hi:
            return Q(k)
        if k < self.lo:
            return self.values[0]
        return self.values[k - self.lo]


def barycenter(mu: IntegerMeasure) -> BarycenterFunction:
    """Barycenter function of a centered measure, exact at every site."""
    if not mu.is_centered():
        raise MeasureError(f"measure is not centered (mean {mu.mean()})")
    # the tail [k, hi] always holds the atom at hi, so its mass is positive
    lo, hi, mass, moment = _tails(mu)
    return BarycenterFunction(lo, hi, tuple(s / t for t, s in zip(mass, moment)))
