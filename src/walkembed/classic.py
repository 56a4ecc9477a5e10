"""Classic embedding constructions for the simple symmetric walk.

Four constructions, all exact:

* Azema-Yor style rule driven by the barycenter function (stop when the
  running maximum reaches the barycenter of the current position);
* Chacon-Walsh chipping: compositions of first exit times realized as
  successive chord operations on the potential, with a bounded-depth
  membership search on integer states.  A chord lowers every site inside
  it or none, so `_children` writes a child's inside as one progression,
  reduced by the gcd of its step; the tangent completion builds no
  state.  One kink index, `_next_kinks` (the first kink right of each
  hull index), finds the kinks of a state and of the target.  Once a
  witness is in hand, a child is visited but cut, not expanded, when its
  depth plus `_cover`, the fewest linear pieces of the target holding
  every site where the child differs from it, passes the witness's
  length: a live chord is a line above the target that meets it on one
  piece at most, so no chord lowers the cover by more than one.  So the
  commuting skip holds at every depth: the child it passes over is that
  of a sibling tried first, and if that sibling was cut, the child would
  be cut too.  `states_searched` counts every distinct state visited,
  cut children included, but not a cut child reached only through a cut
  sibling.  `chip_apply` is a separate `Fraction` reference that
  replays and checks the search's witnesses;
* Hall-style randomized pair rule (independent pair (U, V), stop on first
  hit of {U, V});
* the minimal embedder that works for every target law, extracting a
  uniform variable from the walk's increments.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

from .measures import (
    IntegerMeasure,
    MeasureError,
    PotentialFunction,
    barycenter,
    potential,
)
from .rational import BudgetExceeded, Q


# ---------------------------------------------------------------------------
# Azema-Yor


@dataclass(frozen=True)
class AzemaYorResult:
    member: bool
    #: site -> barycenter value, defined on the support hull (members only)
    thresholds: dict[int, int] | None = None
    witness_site: int | None = None
    witness_value: Fraction | None = None


def azema_yor_check(mu: IntegerMeasure) -> AzemaYorResult:
    """Decide whether the max-threshold rule embeds `mu`.

    The rule stop-when-max-reaches-barycenter embeds a centered measure
    exactly when the barycenter value at every support site is a
    nonnegative integer; the first site where that fails is returned as a
    witness.
    """
    psi = barycenter(mu)  # raises on non-centered input
    for k in mu.support:
        v = psi.value_at(k)
        if v.denominator != 1 or v < 0:
            return AzemaYorResult(False, witness_site=k, witness_value=v)
    lo, hi = mu.support[0], mu.support[-1]
    table = {k: int(psi.value_at(k)) for k in range(lo, hi + 1)}
    return AzemaYorResult(True, thresholds=table)


# ---------------------------------------------------------------------------
# Chacon-Walsh


@dataclass(frozen=True)
class ChipStep:
    """Exit interval (a, b) of one composed stopping stage; a < b, integers."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a >= self.b:
            raise ValueError(f"need a < b, got ({self.a}, {self.b})")


def chip_apply(u: PotentialFunction, step: ChipStep) -> PotentialFunction:
    """Replace u by min(u, chord) where the chord joins (a, u(a)), (b, u(b)).

    Exact; unchanged outside (a, b), linear on [a, b].  A chord lying above
    the graph is the identity.
    """
    lo = min(u.lo, step.a)
    hi = max(u.hi, step.b)
    vals = [u.value_at(k) for k in range(lo, hi + 1)]
    ua, ub = u.value_at(step.a), u.value_at(step.b)
    for k in range(step.a + 1, step.b):
        chord = ua + Q(k - step.a, step.b - step.a) * (ub - ua)
        idx = k - lo
        if chord < vals[idx]:
            vals[idx] = chord
    # drop hull extension that stayed on the asymptote; an end whose inner
    # neighbour fell below the asymptote is a kink (an atom) and stays
    def on_asymptote(k):
        return vals[k - lo] == -abs(Q(k) - u.mean)

    while lo < u.lo and on_asymptote(lo) and on_asymptote(lo + 1):
        vals.pop(0)
        lo += 1
    while hi > u.hi and on_asymptote(hi) and on_asymptote(hi - 1):
        vals.pop()
        hi -= 1
    return PotentialFunction(lo, hi, u.mean, tuple(vals))


#: distinct states `chw_search` may visit before it answers UNKNOWN
MAX_STATES = 200_000
#: numerators `chw_search` may hold in its visited states, n per state on
#: an n-site hull, before it answers UNKNOWN: 41 * (MAX_STATES + 1), so a
#: hull of at most 41 sites meets `MAX_STATES` first, and a wider one
#: holds no more numerators than such a search may
MAX_NUMERATORS = 8_200_041


class ChwStatus(Enum):
    MEMBER = "member"
    NON_MEMBER_UP_TO_DEPTH = "nonMemberUpToDepth"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ChwResult:
    status: ChwStatus
    steps: tuple[ChipStep, ...] = ()
    depth_searched: int = 0
    #: distinct potential states the search visited, start included
    states_searched: int = 0


# A search state is a potential vector on the support hull as integer
# numerators over one positive denominator, reduced by the gcd of all of
# them: the form is canonical, so equal potentials are equal tuples.
State = tuple[tuple[int, ...], int]
# A chord over hull indices a < b; the search's paths are tuples of them.
Chord = tuple[int, int]


def _to_state(values) -> State:
    """The state of reduced `Fraction`s: the lcm of their denominators is
    the least common denominator, so the result is already gcd-reduced."""
    d = lcm(*(v.denominator for v in values))
    nums = tuple(v.numerator * (d // v.denominator) for v in values)
    return nums, d


def _next_kinks(nums) -> list[int]:
    """The kink index of a numerator vector: for each hull index i, the
    first kink right of i, or n = len(nums), a kink being an index
    0 < k < n - 1 where the vector is not linear.  It depends only on the
    ratios of the numerators, so a state and the target each have one,
    whatever their denominators; from a, following it visits each kink
    right of a in turn."""
    n = len(nums)
    index = [n] * n
    for k in range(n - 2, 0, -1):
        linear = 2 * nums[k] == nums[k - 1] + nums[k + 1]
        index[k - 1] = index[k] if linear else k
    return index


def _children(state: State, target: State, tkinks: list[int], last: Chord):
    """Yield (a, b, child) for each chord over hull indices a < b that
    `chw_search` tries from `state` (on or above the target), in (a, b)
    order; `tkinks` is the target's kink index (`_next_kinks`), and `last`
    is the chord that first reached `state`, (-1, n) if none, whose
    containing and commuting chords are skipped.

    A tried chord passes a kink, and state - chord is concave and 0 at a
    and b, so it lowers every site inside (a, b).  Chord - target is
    convex, linear between the target's kinks, so the chord is dead iff
    below the target at one.  Over d·w, w = b - a, the inside is the
    progression n_a·w + j·step, step = n_b - n_a, the rest n_k·w: the gcd
    is g = gcd(step, d·w) if g | w, else gcd(g, w·O), O the gcd of the n_k
    outside (a, b).  If g == w, d and the outside numerators stay."""
    nums, d = state
    tnums, td = target
    n = len(nums)
    a1, b1 = last
    kinks = _next_kinks(nums)
    prefix = suffix = None
    for a in range(n - 2):
        if kinks[a] == n:
            return  # no kink right of a, nor of any later a
        first, end = kinks[a] + 1, n
        if a <= a1:  # the containing and commuting skips
            first, end = max(first, a1 + 1), b1
        na = nums[a]
        for b in range(first, end):
            w = b - a
            dw = d * w
            step = nums[b] - na
            c = na * w
            k = tkinks[a]
            while k < b and (c + (k - a) * step) * td >= tnums[k] * dw:
                k = tkinks[k]
            if k < b:
                break  # dead, and so is every wider chord from a
            g = gcd(step, dw)
            if w % g:
                if prefix is None:
                    prefix = list(accumulate(nums, gcd))
                    suffix = list(accumulate(reversed(nums), gcd))[::-1]
                g = gcd(g, w * gcd(prefix[a], suffix[b]))
            s, lo = step // g, (c + step) // g
            inner = (tuple(range(lo, lo + (w - 1) * s, s)) if s
                     else (lo,) * (w - 1))
            if g == w:
                yield a, b, (nums[:a + 1] + inner + nums[b:], d)
            else:
                out = [x * w // g for x in nums]  # g may exceed w
                out[a + 1:b] = inner
                yield a, b, (tuple(out), dw // g)


def _cover(state: State, target: State, tkinks: list[int]) -> int:
    """The least number of the target's linear pieces that cover every
    hull index where `state` differs from `target`, a piece being the
    closed interval between two consecutive target kinks, the hull ends
    counted as kinks: at least the chords `state` still needs (see
    `chw_search`).  Left to right, the first uncovered index k takes the
    piece that ends at `tkinks[k]`, the first kink right of k, which
    covers as far as any piece holding k does."""
    nums, d = state
    tnums, td = target
    need = 0
    k, end = 1, len(nums) - 1  # no chord moves a hull end
    while k < end:
        if nums[k] * td != tnums[k] * d:
            need += 1
            k = tkinks[k]
        k += 1
    return need


def _tangent_tail(state: State, target: State, tkinks: list[int],
                  limit: int) -> tuple[Chord, ...] | None:
    """Try to finish an embedding by chords tangent to the target, left to
    right; returns the chords on success, None if stuck or if more than
    `limit` chords would be needed.

    Let m be the first hull index where the state and the target differ
    (m > 0: no chord moves a hull end).  The tangent chord runs from m - 1
    along the target's line L through m - 1 and m, to the first b past m
    where the state meets L (by n - 1, where the state is the target,
    below L); if the state crosses L between integers there is none.  It
    is never dead, and leaves the state on L over [m - 1, b] and as it
    was past b, so the next m is found without building a state: the
    target follows L up to its first kink right of m - 1, `tkinks[m - 1]`,
    and leaves it at the index after, the next m if it is at most b;
    otherwise the next m is the first index past b where the state
    differs.  The next line is below L past m - 1, so its b lies past
    this one."""
    chords: list[Chord] = []
    nums, d = state
    tnums, td = target
    n = len(tnums)
    a = b = 0  # no chord yet: tkinks[0] >= 1 > b
    while True:
        if tkinks[a] < b:
            m = tkinks[a] + 1
        else:
            for m in range(b + 1, n):
                if nums[m] * td != tnums[m] * d:
                    break
            else:
                return tuple(chords)
        if len(chords) == limit:
            return None
        a, rise = m - 1, tnums[m] - tnums[m - 1]
        for b in range(max(m, b) + 1, n):
            gap = nums[b] * td - (tnums[a] + (b - a) * rise) * d
            if gap <= 0:
                break
        if gap:
            return None  # the state crossed L between integers
        chords.append((a, b))


def chw_search(mu: IntegerMeasure, max_depth: int) -> ChwResult:
    """Breadth-first search for a chip sequence embedding `mu`.

    States are potential vectors on the support hull, reachable from
    u0(x) = -|x| by integer-endpoint chords, held as integer numerators
    over one gcd-reduced denominator (`State`), converted once on entry.
    `_children`, the one chord computation, yields each state's children
    and prunes dead ones, below the target somewhere (chords only lower
    potentials): a chord lowers every site inside it or none, and the
    inside is one progression, so its step gives the child's gcd.  A
    state equal to the target is a finite witness; otherwise the
    left-to-right tangent completion `_tangent_tail`, which builds no
    state, captures sequences finishing in the Azema-Yor manner.
    `replay_chips` checks witnesses independently, on `Fraction`s.

    Kinks are found one way, by the kink index `_next_kinks`: for each
    hull index, the first kink right of it.  `_children` reads the
    state's, and walks the target's to test a chord at the target's kinks
    inside it; `_cover` and `_tangent_tail` read the target's, built once.

    Chords run in (a, b) order over hull indices, and skip every chord
    whose outcome is already known:

    * Kinks.  A chord (a, b) changes a state only if a kink is inside it.
    * Dead chords.  For fixed a the chord falls as b grows, so the first
      dead chord from a ends the loop: every wider one is dead too.
    * Commuting chords.  Let (a1, b1) be the last chord of the path that
      first reached state P from its parent V.  A chord (a, b) with
      a < a1 and b <= a1 shares at most an end with it, and P agrees with
      V at a, b, a1 and b1, so P·(a, b) = S·(a1, b1) with S = V·(a, b),
      which V tried before (a1, b1).
    * Containing chords.  A chord (a, b) with a <= a1 and b >= b1 lies on
      or below V's own chord over [a1, b1], as V is concave, so it cuts P
      as it cuts V: P·(a, b) = V·(a, b), a visited child of V.

    So for a <= a1 only b in [max(first, a1 + 1), b1) is tried.  A
    skipped dead chord leaves every wider one dead.

    The bound.  Once a witness of length L is in hand, only a shorter one
    matters.  `_cover(state)`, the least number of the target's linear
    pieces covering every index where the state differs from the target,
    is at most the number of chords the state still needs.  A chord that
    is not dead sets the state on (a, b) to a line l >= target, and
    l - target is convex, so the indices where l meets the target form
    one interval on which the target is linear, inside one piece; an
    index already equal to the target stays equal, since a chord only
    lowers the state and never below the target.  So each chord lowers
    the cover by at most one, and the target's cover is 0.  A new child
    at depth d with d + cover > L is still added to `seen`, but it is
    neither tangent-completed nor kept (it is cut); a kept child skips
    `_tangent_tail` when its cover exceeds the completion's limit.
    Nothing is cut while no witness is in hand.  L only falls, and a
    chord lowers the cover by at most one, so every kept state's parent
    was kept.

    The skips hold at every depth.  A child that the containing skip
    passes over is visited.  One that the commuting skip passes over is
    S·(a1, b1): if S was kept, it was expanded before P and reached that
    child; if S was cut, the child, one chord deeper with a cover at most
    one lower, would be cut too, as L only falls, and it is not the
    target, which the search meets by depth L.  So the kept states, their
    order and first paths, the target and every completion that could
    shorten the witness are those of the search without the skips and
    the bound, and so are the status, witness and `depth_searched` of
    every search that ends within its budgets.  `states_searched` counts
    the start, the kept states and the cut children that `_children`
    yields: a cut child reached only through a cut sibling is not
    counted.  On the five-atom target `_children` yields 603 children at
    depth 3 and 621 at depth 4, against 1 583 and 12 053 without the
    bound.

    Paths are kept as hull index pairs; `ChipStep`s are built only for
    the witness returned.  A tangent completion is worth noting only if
    shorter than the best in hand, so it gives up past len(best) - depth
    - 1 chords.  The last depth's children are not kept, since nothing
    expands them.

    The refutation verdict is explicitly depth-bounded: no termination
    bound exists for chip sequences in general, so exhausting `max_depth`
    yields NON_MEMBER_UP_TO_DEPTH, never an unconditional non-membership.
    UNKNOWN is returned only when `seen` holds more than `MAX_STATES`
    states, or more than `MAX_NUMERATORS` numerators (n per state), and
    no witness is in hand; with one, the search returns it.
    """
    if not mu.is_centered():
        raise MeasureError(f"measure is not centered (mean {mu.mean()})")
    u_mu = potential(mu)
    lo, hi = u_mu.lo, u_mu.hi
    n = hi - lo + 1
    # by Jensen u_mu(x) = -E|x - X| <= -|x|: the start lies above the target
    target = _to_state(u_mu.values)
    start = _to_state([-Q(abs(k)) for k in range(lo, hi + 1)])
    if start == target:
        return ChwResult(ChwStatus.MEMBER, (), 0, 1)
    tkinks = _next_kinks(target[0])

    def steps(path: tuple[Chord, ...]) -> tuple[ChipStep, ...]:
        return tuple(ChipStep(a + lo, b + lo) for a, b in path)

    def verdict(status: ChwStatus, depth: int) -> ChwResult:
        if best is None:
            return ChwResult(status, (), depth, len(seen))
        return ChwResult(ChwStatus.MEMBER, steps(best), depth, len(seen))

    # the shortest tangent witness, for when the BFS stops short: one of
    # length L is a path of the BFS's own chords, so the BFS meets the
    # target by depth L first.  It has at most n - 1 chords: n bounds none.
    best = _tangent_tail(start, target, tkinks, n)

    seen = {start}
    # each state joins one frontier once, and nothing looks it up there
    frontier = [(start, ())]
    for depth in range(1, max_depth + 1):
        nxt = []
        keep = depth < max_depth
        for state, path in frontier:
            # the start has no last chord: (-1, n) skips nothing
            last = path[-1] if path else (-1, n)
            for a, b, new in _children(state, target, tkinks, last):
                size = len(seen)
                seen.add(new)
                if len(seen) == size:
                    continue
                new_path = path + ((a, b),)
                if new == target:
                    return ChwResult(ChwStatus.MEMBER, steps(new_path),
                                     depth, len(seen))
                if best is None:  # nothing is cut without a witness
                    limit, need = n, 1
                else:
                    # a completion from here must be shorter than best
                    limit = len(best) - depth - 1
                    need = _cover(new, target, tkinks)
                if need <= limit:
                    tail = _tangent_tail(new, target, tkinks, limit)
                    if tail is not None:
                        best = new_path + tail
                if keep and need <= limit + 1:
                    nxt.append((new, new_path))
                if (len(seen) > MAX_STATES
                        or len(seen) * n > MAX_NUMERATORS):
                    return verdict(ChwStatus.UNKNOWN, depth)
        frontier = nxt
        if not frontier:
            break
    return verdict(ChwStatus.NON_MEMBER_UP_TO_DEPTH, max_depth)


def exit_law(steps) -> dict[int, Fraction]:
    """Exact law of the walk from 0 after the exits of `steps`, in order.
    By gambler's ruin a chip (a, b) sends the mass m at each x with
    a < x < b to a with weight m (b - x) / (b - a), and the rest to b; mass
    outside (a, b) stays.  The support is kept sorted beside the masses,
    so a chip bisects for the sites inside it and visits no other; a
    site is visited once, when a chip empties it, and a chip adds at most
    its two ends, so the chips visit at most 1 + 2·len(steps) sites in
    all.  No table of sites, so chip ends of any size cost nothing more."""
    law = {0: Q(1)}
    sites = [0]  # the support of `law`, ascending
    for c in steps:
        i, j = bisect_right(sites, c.a), bisect_left(sites, c.b)
        if i == j:
            continue
        total = down = Q(0)
        for x in sites[i:j]:
            m = law.pop(x)
            total += m
            down += m * (c.b - x)
        del sites[i:j]
        down /= c.b - c.a
        for end, m in ((c.a, down), (c.b, total - down)):
            if end in law:
                law[end] += m
            else:
                law[end] = m
                insort(sites, end)
    return law


def replay_chips(steps: list[ChipStep] | tuple[ChipStep, ...]) -> PotentialFunction:
    """Apply a chip sequence to the initial potential -|x|."""
    u = PotentialFunction(0, 0, Q(0), (Q(0),))
    for step in steps:
        u = chip_apply(u, step)
    return u


# ---------------------------------------------------------------------------
# Hall-style randomized pair rule


@dataclass(frozen=True)
class RandomizedRule:
    """Joint law of an independent pair (u, v), u < 0 <= v; the stopping
    rule halts the walk on its first visit to {u, v}."""

    joint_law: tuple[tuple[int, int, Fraction], ...]  # (u, v, weight)

    def __post_init__(self) -> None:
        total = Q(0)
        for u, v, w in self.joint_law:
            if not (u < 0 <= v):
                raise ValueError(f"pair must satisfy u < 0 <= v, got ({u}, {v})")
            if w <= 0:
                raise ValueError(f"weight must be positive, got {w}")
            total += w
        if total != 1:
            raise ValueError(f"weights sum to {total}, not 1")


#: pairs (u, v) that `hall_rule` may build: the atoms below 0 times the
#: atoms at or above 0.  A pair costs about 8 us on a 2-CPU Xeon, where
#: `embed hall` of 500 atoms each side, at the budget, ends in 2.4-3.4 s
#: from the shell.
MAX_HALL_PAIRS = 250_000


def hall_rule(mu: IntegerMeasure) -> RandomizedRule:
    """Joint pair law with weight (v - u) mu({u}) mu({v}) / m on u < 0 <= v,
    where m is the mean of the positive part.

    The printed source formula carries the opposite sign, which is negative
    on the admissible pairs; the nonnegative version used here is validated
    exactly by `hall_stopped_law` via gambler's-ruin probabilities.  Raises
    BudgetExceeded past `MAX_HALL_PAIRS` pairs, before it builds any.
    """
    if not mu.is_centered():
        raise MeasureError(f"measure is not centered (mean {mu.mean()})")
    sites = mu.support
    below = bisect_left(sites, 0)
    count = below * (len(sites) - below)
    if count > MAX_HALL_PAIRS:
        raise BudgetExceeded(
            "MAX_HALL_PAIRS",
            f"{below} atoms below 0 and {len(sites) - below} at or above "
            f"make {count} pairs, more than MAX_HALL_PAIRS = {MAX_HALL_PAIRS}")
    m = sum((k * w for k, w in mu.atoms.items() if k > 0), Q(0))
    if m == 0:  # all mass at 0: the pair (-1, 0) stops at time 0
        return RandomizedRule(((-1, 0, Q(1)),))
    pairs = []
    for u, wu in mu.atoms.items():
        if u >= 0:
            continue
        for v, wv in mu.atoms.items():
            if v < 0:
                continue
            pairs.append((u, v, Q(v - u) * wu * wv / m))
    return RandomizedRule(tuple(pairs))


def hall_stopped_law(rule: RandomizedRule) -> IntegerMeasure:
    """Exact stopped law of the pair rule: the `exit_law` of the chip
    (u, v) from 0, mixed over the pairs; v = 0 stops at 0 at once."""
    mass: dict[int, Fraction] = {}
    for u, v, w in rule.joint_law:
        for site, p in exit_law((ChipStep(u, v),)).items():
            mass[site] = mass.get(site, Q(0)) + w * p
    return IntegerMeasure(mass)


# ---------------------------------------------------------------------------
# Minimal embedder (works for every target law on Z)


@dataclass(frozen=True)
class MinimalCertificate:
    """Data driving the minimal embedding rule.

    Atoms are sorted by decreasing weight (ties broken by ascending site);
    `cut_points` are the cumulative weights.  The rule reads the walk's
    up-step indicator bits as the binary digits of a uniform variable U,
    waits until the dyadic interval pinning U separates from all cut
    points, which selects one atom, then stops at the first visit to it.
    """

    sites: tuple[int, ...]
    weights: tuple[Fraction, ...]
    cut_points: tuple[Fraction, ...] = field(init=False)  # increasing, last == 1

    def __post_init__(self) -> None:
        if len(self.sites) != len(self.weights):
            raise ValueError(f"{len(self.sites)} sites but "
                             f"{len(self.weights)} weights")
        for w in self.weights:
            if w <= 0:
                raise ValueError(f"weights must be positive, got {w}")
        cuts = tuple(accumulate(self.weights))
        if not cuts or cuts[-1] != 1:
            raise ValueError(f"weights sum to {sum(self.weights)}, not 1")
        object.__setattr__(self, "cut_points", cuts)


def minimal_certificate(mu: IntegerMeasure) -> MinimalCertificate:
    order = sorted(mu.atoms.items(), key=lambda kv: (-kv[1], kv[0]))
    return MinimalCertificate(tuple(k for k, _ in order),
                              tuple(w for _, w in order))
