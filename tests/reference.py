"""Reference implementations the tests compare the package against.

Each one is a direct, unoptimized reading of a definition, kept outside the
package because no command runs it:

- `measure_from_potential` inverts `potential` from slope changes;
- `potential_by_definition` sums -|k - n| mu({n}) over every atom at
  every site, where `potential` reads each site off its tail sums;
- `reference_chord` takes min(state, chord) site by site on the chip
  search's integer states and gcd-reduces the whole vector, where
  `classic._children` writes each child's interior as one progression
  and reduces it from its step; `reference_tangent_tail` applies each
  tangent chord with it, where `classic._tangent_tail` builds no state;
- `reference_cover` finds the chip search's lower bound as the smallest
  set of the target's pieces covering the sites where a `Fraction`
  potential differs from it, where `classic._cover` reads it greedily off
  integer states; `reference_chw_search` is the chip search trying every
  chord at every state, with that bound or without it, where
  `classic.chw_search` skips chords whose children it knows;
- `to_rational` sums a base-4 expansion in closed form;
- `series_by_digits` sums an eventually periodic digit series term by
  term, where `digit_series` runs Horner's rule;
- `triple_capacity` decides the triple criterion by the scaled count
  recursion on the digits, where `classify_triple` runs the matrix
  settle scan;
- `affine`, `union`, `contains` and `apply` compute covers on `Fraction`
  endpoints, next to `ifs_approximate`'s integer numerators;
- `weight_set_system_alt` is a second contraction system with the same
  covers as `weight_set_system`;
- `decide` replays a recorded `WalkPath` against a rule's state machine
  and reports where it stops, as a `Decision`;
- `keyed_exact_law` steps a rule's state machine through a DP over integer
  path counts per merged state (`chip_state_key`, `max_state_key`), up to
  a step cap with a residual, where the package has closed forms for
  exit-composition, max-threshold and minimal rules;
- `alive_class_rank` reads a path's rank off the matrix state machine;
- `StripRankState` is that state machine rebuilding its rank at every
  site of the strip each step, zeros included, where
  `rules.MatrixRuleState` keeps only the positive ranks;
- `ruin_masses` shares a strip's survivors out to its ends by exact
  gambler's-ruin probabilities, where the package uses the closed form
  `boundary_masses`;
- `search_matrix_visiting` is `search_matrix` visiting every stage-cap
  leaf one at a time, where the package counts them, checking each spent
  choice's ruin masses, where the package needs no check, and stepping
  its choices down with its own `site_choices` counter;
- `replay_trials` steps a rule's state machine once per trial, for the
  kernels' per-trial outputs to match;
- `frequency` and `tv_distance` compare a simulation report with a target.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction as Q

import numpy as np

from walkembed import matrices
from walkembed.classic import (
    ChipStep,
    Chord,
    ChwResult,
    ChwStatus,
    RandomizedRule,
    State,
    _to_state,
)
from walkembed.kernels import GAMMA, MASK, STREAM, mix64
from walkembed.matrices import (
    MatrixRow,
    SearchResult,
    StoppingMatrix,
    _arrivals,
    _head_row,
)
from walkembed.measures import (
    IntegerMeasure,
    MeasureError,
    PotentialFunction,
    check_hull,
    potential,
)
from walkembed.rational import Base4Expansion, digit_half_weight
from walkembed.rules import MatrixRuleState, PrefixError, RandomizedPairRule
from walkembed.sim import ExactLaw, SimReport, sample_pairs
from walkembed.uiset import IfsSystem, IntervalUnion


def measure_from_potential(u: PotentialFunction) -> IntegerMeasure:
    """The unique measure whose potential is `u`.

    The atom weight at k is half the slope decrease of u at k; slopes just
    outside the hull are +1 (left) and -1 (right).
    """
    ext = [u.value_at(u.lo - 1), *u.values, u.value_at(u.hi + 1)]
    atoms: dict[int, Q] = {}
    for i in range(1, len(ext) - 1):
        drop = (2 * ext[i] - ext[i - 1] - ext[i + 1]) / 2
        if drop < 0:
            raise MeasureError(f"potential is not concave at site {u.lo + i - 1}")
        if drop > 0:
            atoms[u.lo + i - 1] = drop
    mu = IntegerMeasure(atoms)
    if mu.mean() != u.mean:
        raise MeasureError("potential asymptotics inconsistent with its mean")
    return mu


def potential_by_definition(mu: IntegerMeasure) -> PotentialFunction:
    """u(k) = -sum_n |k - n| mu({n}) at every site of the support hull,
    summed atom by atom in integers over the common denominator."""
    atoms = mu.atoms
    d = math.lcm(*(w.denominator for w in atoms.values()))
    scaled = [(n, w.numerator * (d // w.denominator)) for n, w in atoms.items()]
    lo, hi = min(atoms), max(atoms)
    vals = tuple(-Q(sum(abs(k - n) * a for n, a in scaled), d)
                 for k in range(lo, hi + 1))
    return PotentialFunction(lo, hi, Q(sum(n * a for n, a in scaled), d), vals)


def reference_chord(state: State, target: State, a: int,
                    b: int) -> State | None:
    """min(state, chord) for the chord over hull indices a < b; None when
    the chord changes nothing or lowers the state below the target (a dead
    state: chords only decrease potentials).

    Over the common denominator d·(b - a) the chord's numerator at k is
    c_k = n_a·(b - k) + n_b·(k - a), against n_k·(b - a) for the state."""
    nums, d = state
    tnums, td = target
    w = b - a
    dw = d * w
    step = nums[b] - nums[a]
    c = nums[a] * w
    new = None
    for k in range(a + 1, b):
        c += step
        if c < nums[k] * w:
            if c * td < tnums[k] * dw:
                return None
            if new is None:
                new = [n * w for n in nums]
            new[k] = c
    if new is None:
        return None
    g = math.gcd(dw, *new)
    return tuple(n // g for n in new), dw // g


def reference_tangent_tail(state: State, target: State,
                           limit: int) -> tuple[Chord, ...] | None:
    """Chords tangent to the target, left to right, each applied with
    `reference_chord`: from the first hull index m where the state and the
    target differ, the first chord from m - 1 that lowers the state onto
    the target at m.  None when no chord does, or when more than `limit`
    chords would be needed."""
    chords = []
    tnums, td = target
    n = len(tnums)
    while state != target:  # both canonical
        if len(chords) == limit:
            return None
        nums, d = state
        m = next(i for i in range(n) if nums[i] * td != tnums[i] * d)
        if m == 0:
            return None
        for b in range(m + 1, n):
            new = reference_chord(state, target, m - 1, b)
            if new is not None and new[0][m] * td == tnums[m] * new[1]:
                break
        else:
            return None
        state = new
        chords.append((m - 1, b))
    return tuple(chords)


def reference_cover(mu: IntegerMeasure, state: State) -> int:
    """The chip search's lower bound by brute force: the fewest pieces
    [s, t] between consecutive support sites of `mu` (the target's kinks,
    hull ends included) whose union holds every site where the state's
    `Fraction` potential differs from `potential(mu)`."""
    u_mu = potential(mu)
    nums, d = state
    differ = [u_mu.lo + k for k, x in enumerate(nums)
              if Q(x, d) != u_mu.values[k]]
    pieces = list(zip(mu.support, mu.support[1:]))
    for size in range(len(pieces) + 1):
        for cover in itertools.combinations(pieces, size):
            if all(any(s <= x <= t for s, t in cover) for x in differ):
                return size
    raise AssertionError("the pieces cover the hull")


def reference_chw_search(mu: IntegerMeasure, max_depth: int,
                         max_states: int, prune: bool = True) -> ChwResult:
    """The chip search without its skips: every pair a + 2 <= b at every
    state through `reference_chord`, and `reference_tangent_tail`, which
    tries every right end of the chord from m - 1.  With `prune`, once a
    witness is in hand a new state at depth d whose `reference_cover`
    passes len(witness) - d is counted but not completed or expanded."""
    u_mu = potential(mu)
    lo, n = u_mu.lo, u_mu.hi - u_mu.lo + 1
    target = _to_state(u_mu.values)
    start = _to_state([-Q(abs(k)) for k in range(lo, u_mu.hi + 1)])
    if start == target:
        return ChwResult(ChwStatus.MEMBER, (), 0, 1)

    def tangent_tail(state):
        tail = reference_tangent_tail(state, target, n)
        if tail is not None:
            return tuple(ChipStep(a + lo, b + lo) for a, b in tail)
        return None

    best = tangent_tail(start)
    seen, frontier = {start}, {start: ()}
    for depth in range(1, max_depth + 1):
        nxt = {}
        for state, path in frontier.items():
            for a in range(n):
                for b in range(a + 2, n):
                    new = reference_chord(state, target, a, b)
                    if new is None or new in seen:
                        continue
                    seen.add(new)
                    new_path = path + (ChipStep(a + lo, b + lo),)
                    if new == target:
                        return ChwResult(ChwStatus.MEMBER, new_path, depth,
                                         len(seen))
                    if not (prune and best is not None and depth
                            + reference_cover(mu, new) > len(best)):
                        tail = tangent_tail(new)
                        if tail is not None and (best is None or
                                                 len(path) + 1 + len(tail)
                                                 < len(best)):
                            best = new_path + tail
                        nxt[new] = new_path
                    if len(seen) > max_states:
                        if best is not None:
                            return ChwResult(ChwStatus.MEMBER, best, depth,
                                             len(seen))
                        return ChwResult(ChwStatus.UNKNOWN, (), depth,
                                         len(seen))
        frontier = nxt
        if not frontier:
            break
    if best is not None:
        return ChwResult(ChwStatus.MEMBER, best, max_depth, len(seen))
    return ChwResult(ChwStatus.NON_MEMBER_UP_TO_DEPTH, (), max_depth,
                     len(seen))


def to_rational(e: Base4Expansion) -> Q:
    """Exact value of the expansion (round trip with `to_base4`)."""
    m = len(e.preperiod)
    acc = 0
    for d in e.preperiod:
        acc = 4 * acc + d
    value = e.integer_part + Q(acc, 4**m)
    if e.period:
        per = 0
        for d in e.period:
            per = 4 * per + d
        value += Q(per, 4 ** len(e.period) - 1) / 4**m
    return value


def series_by_digits(head, period, base: int) -> Q:
    """sum_n base^{-n} d_n, the head term by term and one period term by
    term times 1 / (1 - base^{-p}) for its repeats."""
    total = sum((Q(d, base**n) for n, d in enumerate(head)), Q(0))
    if period:
        block = sum((Q(d, base ** (len(head) + j))
                     for j, d in enumerate(period)), Q(0))
        total += block / (1 - Q(1, base ** len(period)))
    return total


def triple_capacity(ea: Base4Expansion, eb: Base4Expansion,
                    ec: Base4Expansion) -> tuple[bool, str]:
    """(member, reason) of the triple criterion on the digits (a_n), (b_n),
    (c_n) of p_zero, p_minus/2 and p_plus/2: the digit sum
    sum 2^{-i}(a_i + b_i + c_i) <= 1, then

        L_n >= max(b_n, c_n) for all n,   L_0 = 1/2, L_{n+1} = 2 L_n - (a_n+b_n+c_n),

    L_n being the paths arriving at each of -1 and 1 at stage n.  The
    stage condition over the infinite periodic digit stream terminates
    because the pair (stream phase, L_n) either repeats, fails, or L_n
    grows past the largest possible digit sum and then passes forever.
    """
    if sum(digit_half_weight(e) for e in (ea, eb, ec)) > 1:
        return False, "digitSum"
    # digits at index 0 are the integer parts
    pre = 1 + max(len(e.preperiod) for e in (ea, eb, ec))
    period = 1
    for e in (ea, eb, ec):
        if e.period:
            period = math.lcm(period, len(e.period))
    n = 0
    L: Q | int = Q(1, 2)
    seen: set[tuple[int, Q]] = set()
    while True:
        a, b, c = ea.digit(n), eb.digit(n), ec.digit(n)
        if L < max(b, c):
            return False, f"capacity at stage {n}"
        L = 2 * L - (a + b + c)
        n += 1
        if n >= pre:
            if L >= 9:
                return True, ""  # L can never fall below any digit again
            key = ((n - pre) % period, L)
            if key in seen:
                return True, ""
            seen.add(key)


def affine(u: IntervalUnion, scale: Q, offset: Q) -> IntervalUnion:
    return IntervalUnion([(scale * a + offset, scale * b + offset)
                          for a, b in u.intervals])


def union(u: IntervalUnion, v: IntervalUnion) -> IntervalUnion:
    return IntervalUnion(list(u.intervals) + list(v.intervals))


def contains(u: IntervalUnion, v: IntervalUnion) -> bool:
    """Every interval of v lies inside one interval of u."""
    return all(any(c <= a and b <= f for c, f in u.intervals)
               for a, b in v.intervals)


def apply(system: IfsSystem, a: IntervalUnion) -> IntervalUnion:
    """One level of the system's cover, on `Fraction` endpoints."""
    out = affine(a, Q(1, 4), system.offsets[0])
    for off in system.offsets[1:]:
        out = union(out, affine(a, Q(1, 4), off))
    if system.condensation is not None:
        out = union(out, system.condensation)
    return out


def weight_set_system_alt() -> IfsSystem:
    """Condensation-free variant: x/4 + k/64 for k in {0,2,4,6,8,16},
    plus the fixed point 1."""
    return IfsSystem(
        offsets=tuple(Q(k, 64) for k in (0, 2, 4, 6, 8, 16)),
        condensation=IntervalUnion([(Q(1), Q(1))]),
    )


@dataclass
class WalkPath:
    increments: tuple[int, ...]

    def __post_init__(self):
        if any(e not in (-1, 1) for e in self.increments):
            raise ValueError("increments must be -1 or +1")


@dataclass(frozen=True)
class Decision:
    stopped: bool
    stop_time: int | None
    stop_site: int | None


def decide(rule, path: WalkPath) -> Decision:
    """Replay `path` against `rule`.

    Returns the stop time and site if the rule stops at or before the end of
    the path, else a non-stopped decision.  The replay itself raises nothing
    on a long path: increments after the stop are simply not consumed.
    """
    state = rule.new_state()
    if state.stopped:
        return Decision(True, 0, state.position)
    for t, eps in enumerate(path.increments, start=1):
        state.step(eps)
        if state.stopped:
            return Decision(True, t, state.position)
    return Decision(False, None, None)


def chip_state_key(state):
    return (state.idx, state.position)


def max_state_key(state):
    return (state.position, state.running_max)


# work cap of `keyed_exact_law`: total key-steps, one merged state advanced
# by one step, checked at stage boundaries.  A minimal rule's keys grow with
# the stages whatever the distance to the target; the cap ends the 5/16
# target at stage 579
MAX_KEY_STEPS = 1_000_000


def keyed_exact_law(rule, max_steps: int, key) -> ExactLaw:
    """Stopped law of `rule` after `max_steps` steps by a state-merged DP
    over integer path counts, with memoized transitions.

    `counts[k]` is the number of increment words of the current length t
    that reach merged state `k`; each carries mass 2^-t.  Stopped mass is
    kept as integer numerators over 2^t, doubled once per step, so the loop
    only adds and shifts integers and divides once at the end.

    States with equal keys have equal futures, so the rule's own state
    machine is stepped once per distinct key and direction: a copy of one
    representative state takes the step, and the outcome (stopped at a
    site, or the child's key) is reused on every later visit of that key.

    The loop ends at `max_steps`, when every path has stopped, or at the
    first stage boundary after `MAX_KEY_STEPS` key-steps (the sum over
    steps of the number of keys advanced); the residual covers the rest.
    """
    init = rule.new_state()
    if init.stopped:
        return ExactLaw({init.position: Q(1)}, Q(0), 0)
    k0 = key(init)
    counts = {k0: 1}
    unstepped = {k0: init}  # one representative state per key not yet stepped
    moves: dict = {}  # key -> [(stopped, site or child key)] for eps -1, +1
    stops: dict[int, int] = {}  # site -> stopped mass times 2^steps_done
    steps_done = key_steps = 0
    while counts and steps_done < max_steps:
        if steps_done % 2 == 0 and key_steps >= MAX_KEY_STEPS:
            break
        steps_done += 1
        key_steps += len(counts)
        stops = {site: num << 1 for site, num in stops.items()}
        nxt: dict = {}
        for k, c in counts.items():
            out = moves.get(k)
            if out is None:
                rep = unstepped.pop(k)
                out = moves[k] = []
                for eps in (-1, 1):
                    # a shallow copy is safe: `step` rebinds a state's
                    # fields and only reads the tables it shares
                    child = copy.copy(rep)
                    child.step(eps)
                    if child.stopped:
                        out.append((True, child.position))
                    else:
                        ck = key(child)
                        if ck not in moves:
                            unstepped.setdefault(ck, child)
                        out.append((False, ck))
            for stopped, dest in out:
                if stopped:
                    stops[dest] = stops.get(dest, 0) + c
                else:
                    nxt[dest] = nxt.get(dest, 0) + c
        counts = nxt
    law = {site: Q(num, 1 << steps_done) for site, num in stops.items()}
    residual = Q(sum(counts.values()), 1 << steps_done)
    return ExactLaw(law, residual, (steps_done + 1) // 2)


def alive_class_rank(matrix: StoppingMatrix, path: WalkPath) -> int:
    """Rank of `path` among alive same-endpoint histories under `matrix`.

    Raises PrefixError if the rule stops the path before its end.
    """
    state = MatrixRuleState(matrix)
    if state.stopped:
        raise PrefixError("rule stops at time 0")
    for i, eps in enumerate(path.increments):
        state.step(eps)
        if state.stopped:
            raise PrefixError(f"rule stops after {i + 1} steps")
    return state.smaller.get(state.position, 0)


class StripRankState:
    """`rules.MatrixRuleState` read straight off the definition: each step
    rebuilds the rank at every strip site of the step's parity from its two
    neighbours, zeros included, and subtracts every site's stop count."""

    def __init__(self, matrix: StoppingMatrix):
        self.matrix = matrix
        self.position = 0
        self.t = 0
        self.smaller = {0: 0}
        self.stopped = self._stop_check(0, 0)
        self.smaller = self._survive(self.smaller, 0)

    def _stop_check(self, pos: int, stage: int) -> bool:
        bound = self.matrix.half_width + 1
        if abs(pos) >= bound:
            return True
        return self.smaller[pos] < self.matrix.entry(pos, stage)

    def _survive(self, smaller: dict[int, int], stage: int) -> dict[int, int]:
        N = self.matrix.half_width
        out = {}
        for j, s in smaller.items():
            if abs(j) > N:
                continue  # absorbed
            out[j] = max(0, s - self.matrix.entry(j, stage))
        return out

    def step(self, eps: int) -> None:
        if self.stopped:
            raise PrefixError("step after the rule has stopped")
        prev_pos = self.position
        self.t += 1
        self.position += eps
        stage = (self.t + 1) // 2
        bound = self.matrix.half_width + 1
        parity = self.t % 2  # site parity at this step
        new_smaller = {}
        for j in range(-bound, bound + 1):
            if abs(j) % 2 != parity:
                continue
            s = self.smaller.get(j - 1, 0) + self.smaller.get(j + 1, 0)
            if eps == 1 and j == prev_pos - 1:
                s += 1  # the down-step sibling of the observed history
            new_smaller[j] = s
        self.smaller = new_smaller
        self.stopped = self._stop_check(self.position, stage)
        self.smaller = self._survive(self.smaller, stage)


def ruin_masses(k_even: dict[int, int], stage: int, half_width: int
                ) -> tuple[Q, Q]:
    """Mass eventually absorbed at each end of the strip when the even
    survivors `k_even` of `stage` are never stopped again: exact two-sided
    gambler's-ruin probabilities."""
    bound = half_width + 1
    lo = hi = Q(0)
    w = Q(1, 4**stage)
    for i, k in k_even.items():
        if k == 0 or abs(i) > half_width:
            continue
        p_hi = Q(i + bound, 2 * bound)
        hi += k * w * p_hi
        lo += k * w * (1 - p_hi)
    return lo, hi


def site_choices(caps: list[int], floors: list[int] | None = None):
    """Stop-count assignments with floors[j] <= a_j <= caps[j] (floors 0 by
    default), in decreasing lexicographic order, the last site varying
    fastest: a counter stepped down by hand, where `search_matrix` takes
    `itertools.product` of decreasing ranges."""
    floors = floors or [0] * len(caps)
    if any(f > c for f, c in zip(floors, caps)):
        return
    cur = list(caps)
    while True:
        yield tuple(cur)
        j = len(cur) - 1
        while j >= 0 and cur[j] == floors[j]:
            j -= 1
        if j < 0:
            return
        cur[j] -= 1
        cur[j + 1:] = caps[j + 1:]


def search_matrix_visiting(mu: IntegerMeasure, max_stage: int) -> SearchResult:
    """`search_matrix` enumerating every even choice of the stage cap: each
    one that leaves budget unspent counts its own node and its child's,
    and `matrices.NODE_BUDGET` is checked before each choice."""
    if not mu.is_centered():
        raise MeasureError(f"measure is not centered (mean {mu.mean()})")
    if mu.support == [0]:
        return SearchResult("member", StoppingMatrix(0, {0: MatrixRow((1,))}))
    budget_nodes = matrices.NODE_BUDGET
    bound = max(abs(s) for s in mu.support)
    check_hull(-bound, bound)
    N = bound - 1
    d = 2 * math.lcm(*(w.denominator for w in mu.atoms.values()))
    unit = d * 2 ** (bound % 2)
    interior = range(-N, N + 1)
    budgets = [int(mu.weight(i) * d / 2 ** (i % 2)) for i in interior]
    deficits = int(mu.weight(-bound) * d), int(mu.weight(bound) * d)

    nodes = 0
    capped = False
    even_sites = [i for i in range(-bound, bound + 1) if i % 2 == 0]
    odd_sites = [i for i in range(-bound, bound + 1) if i % 2 != 0]
    even_slots = slice(N % 2, 2 * N + 1, 2)
    odd_slots = slice((N + 1) % 2, 2 * N + 1, 2)
    even_interior, odd_interior = interior[even_slots], interior[odd_slots]
    start = {i: int(i == 0) for i in even_sites}

    def recurse(stage, k_even, rem, lo, hi, path):
        nonlocal nodes, capped
        nodes += 1
        if nodes > budget_nodes or stage > max_stage:
            return None
        k_odd = _arrivals(k_even, odd_sites)
        if bound % 2:
            lo, hi = lo - unit * k_odd[-bound], hi - unit * k_odd[bound]
            if lo < 0 or hi < 0:
                return None
        odd_caps = [min(k_odd[i], r // d)
                    for i, r in zip(odd_interior, rem[odd_slots])]
        odd_floors = None
        if bound % 2 == 0:
            odd_floors = [0] * len(odd_caps)
            odd_floors[0] = max(0, k_odd[-N] - lo // unit)
            odd_floors[-1] = max(0, k_odd[N] - hi // unit)
        even_rem = rem[even_slots]
        taken = [0] * len(rem)
        for odd_choice in site_choices(odd_caps, odd_floors):
            taken[odd_slots] = odd_choice
            surv_odd = {i: k_odd[i] - a for i, a in zip(odd_interior, odd_choice)}
            k_new = _arrivals(surv_odd, even_sites) if stage else start
            lo2, hi2 = lo, hi
            if bound % 2 == 0:
                lo2, hi2 = lo - unit * k_new[-bound], hi - unit * k_new[bound]
            even_caps = [min(k_new[i], r // d)
                         for i, r in zip(even_interior, even_rem)]
            for even_choice in site_choices(even_caps):
                nodes += 1
                if nodes > budget_nodes:
                    return None
                taken[even_slots] = even_choice
                rem2 = [r - a * d for r, a in zip(rem, taken)]
                if stage == max_stage and any(rem2):
                    nodes += 1
                    capped = True
                    continue
                path2 = path + (tuple(taken),)
                surv_even = {i: k_new[i] - a
                             for i, a in zip(even_interior, even_choice)}
                if not any(rem2):
                    extra_lo, extra_hi = ruin_masses(surv_even, stage, N)
                    scale = d * 4**stage
                    if extra_lo * scale == lo2 and extra_hi * scale == hi2:
                        rows = zip(interior, zip(*path2))
                        return StoppingMatrix(N, {i: _head_row(stops)
                                                  for i, stops in rows if any(stops)})
                    continue
                result = recurse(stage + 1, surv_even, [4 * r for r in rem2],
                                 4 * lo2, 4 * hi2, path2)
                if result is not None:
                    return result
        return None

    found = recurse(0, {}, budgets, *deficits, ())
    if found is not None:
        return SearchResult("member", found, nodes=nodes)
    budget = ("nodeBudget" if nodes > budget_nodes
              else "maxStage" if capped else None)
    return SearchResult("unknown", budget=budget, nodes=nodes)


def replay_trials(rule, trials: int, seed: int, max_steps: int):
    """(pos, steps, stopped) arrays of `rule.new_state()` stepped on the
    splitmix64 stream of each trial, as `simulate` seeds it, for at most
    `max_steps` steps.  A pair law first draws each trial's pair with
    `sample_pairs`.  A trial cut at `max_steps` reports where it stands."""
    if isinstance(rule, (RandomizedRule, RandomizedPairRule)):
        pairs = [RandomizedPairRule(u, v) for u, v, _ in rule.joint_law]
        per_trial = [pairs[j] for j in sample_pairs(rule, trials, seed)]
    else:
        per_trial = [rule] * trials
    out = np.zeros((3, trials), dtype=np.int64)
    for i, trial_rule in enumerate(per_trial):
        s = mix64((seed + i * STREAM) & MASK)
        state, t = trial_rule.new_state(), 0
        while not state.stopped and t < max_steps:
            s = (s + GAMMA) & MASK
            state.step(1 if mix64(s) >> 63 else -1)
            t += 1
        out[:, i] = state.position, t, state.stopped
    return out[0], out[1], out[2].astype(bool)


def frequency(report: SimReport, site: int) -> Q:
    return Q(report.counts.get(site, 0), report.trials)


def tv_distance(report: SimReport, mu: IntegerMeasure) -> Q:
    """Total variation against a target, truncated mass counted as lying
    entirely outside the support (worst case)."""
    sites = set(mu.support) | set(report.counts)
    gap = sum(abs(frequency(report, s) - mu.weight(s)) for s in sites)
    return (gap + Q(report.truncated, report.trials)) / 2
