"""Path-count matrices encoding adapted stopping rules on a bounded strip.

A rule stopping the walk inside [-(N+1), N+1] is encoded by integers
a[i][n]: the number of distinct increment histories stopped at site i after
2n steps (even i) or 2n-1 steps (odd i).  The companion counts k[i][n] of
histories still arriving at each site evolve by a two-phase recursion, with
everything reaching +-(N+1) absorbed.  The encoded measure puts weight
2^(i mod 2) * sum_j 4^{-j} a[i][j] at interior sites, plus the absorbed
boundary mass.

The strip is bounded, so every adapted rule on it is uniformly integrable:
its stopped law has mass one and mean zero.  Those two equations fix both
boundary masses from the interior weights alone (`boundary_masses`), so a
check of a matrix only has to confirm a <= k for good.  Rows may terminate,
eventually double (a_{n+1} = 2 a_n, the stop-everything-arriving pattern),
or repeat periodically, in any mix; one settle scan on the counts
(`settle_stage`) confirms every kind exactly.  Past it the stopped law is
closed form, with no truncation: each row's weight inside, and the
boundary masses at the ends.  `verify`, `exact-law` and `simulate` all run
that one scan and that one law.

`CountEngine` is the only code that turns survivors into arrivals.  The
settle scan runs on it, and the search uses its arrivals routine.  One
scan's engine stages, counted in site-stages, stay within
`MAX_SITE_STAGES`.

The search runs on integers too: at stage n it holds each interior atom's
unspent budget and each boundary atom's deficit in units of 1/(d 4^n), with
d twice the lcm of the target's denominators, so stopping a paths spends
a*d and a new stage multiplies every remainder by 4.
"""

from __future__ import annotations

import itertools
import math
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction

from .measures import IntegerMeasure, MeasureError, check_hull
from .rational import BudgetExceeded, Q, known_fields, parse_int


@dataclass(frozen=True)
class MatrixRow:
    """One site's stop counts: explicit head, then a tail pattern.

    tail "zero": the row ends after the head.
    tail "doubling": a_n = head[-1] * 2^(n - len(head) + 1) for n >= len(head).
    tail "periodic": the digits in `period` repeat from index len(head).
    """

    head: tuple[int, ...] = ()
    tail: str = "zero"
    period: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.tail not in ("zero", "doubling", "periodic"):
            raise ValueError(f"unknown tail kind {self.tail!r}")
        if any(a < 0 for a in self.head + self.period):
            raise ValueError("stop counts must be nonnegative")
        if self.tail == "doubling" and not self.head:
            raise ValueError("doubling tail needs a nonempty head")
        if self.tail == "periodic" and not self.period:
            raise ValueError("periodic tail needs digits")
        if self.tail != "periodic" and self.period:
            raise ValueError(f"a {self.tail} tail takes no period")

    def entry(self, n: int) -> int:
        if n < len(self.head):
            return self.head[n]
        if self.tail == "zero":
            return 0
        if self.tail == "doubling":
            return self.head[-1] * 2 ** (n - len(self.head) + 1)
        return self.period[(n - len(self.head)) % len(self.period)]

    def quarter_sum(self) -> Fraction:
        """Exact sum_n 4^{-n} a_n, tails in closed form: one integer over
        4^m, m = len(head), and over 4^m (4^p - 1) with a period of p."""
        m = len(self.head)
        num = sum(a * 4 ** (m - n) for n, a in enumerate(self.head))
        if self.tail == "doubling":
            # sum_{n >= m} a* 2^(n-m+1) 4^-n, with a* = head[-1], is a* 4^(1-m)
            num += 4 * self.head[-1]
        elif self.tail == "periodic":
            p = len(self.period)
            block = sum(d * 4 ** (p - j) for j, d in enumerate(self.period))
            return Q(num * (4**p - 1) + block, 4**m * (4**p - 1))
        return Q(num, 4**m)

    @property
    def is_zero(self) -> bool:
        return self.tail == "zero" and not any(self.head)

    @property
    def tail_stops(self) -> bool:
        """Whether the tail stops any path: a doubling tail after a nonzero
        last head entry, or a period with a nonzero digit."""
        return self.head[-1] > 0 if self.tail == "doubling" else any(self.period)


ZERO_ROW = MatrixRow()


@dataclass(frozen=True)
class StoppingMatrix:
    """Stop counts for every interior site i with |i| <= N."""

    half_width: int  # N; the strip is [-(N+1), N+1]
    rows: dict[int, MatrixRow] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.half_width < 0:
            raise ValueError("half width must be nonnegative")
        for i in self.rows:
            if abs(i) > self.half_width:
                raise ValueError(f"row site {i} outside [-{self.half_width}, {self.half_width}]")

    def row(self, i: int) -> MatrixRow:
        return self.rows.get(i, ZERO_ROW)

    def entry(self, i: int, n: int) -> int:
        return self.row(i).entry(n)

    def site_weight(self, i: int) -> Fraction:
        return 2 ** (abs(i) % 2) * self.row(i).quarter_sum()

    @property
    def head_length(self) -> int:
        """Stages before every row is in its tail (at least one)."""
        return max([1] + [len(r.head) for r in self.rows.values()])

    @property
    def terminates(self) -> bool:
        """Whether every stop is in the heads: no row's tail stops a path."""
        return not any(r.tail_stops for r in self.rows.values())

    # -- JSON: {"N": ..., "rows": [{"site": i, "head": [...], "tail": ...}]}

    def to_json_dict(self) -> dict:
        rows = []
        for i in sorted(self.rows):
            r = self.rows[i]
            if r.is_zero:
                continue
            entry: dict = {"site": i, "head": list(r.head), "tail": r.tail}
            if r.tail == "periodic":
                entry["period"] = list(r.period)
            rows.append(entry)
        return {"N": self.half_width, "rows": rows}

    @classmethod
    def from_json_dict(cls, data: dict) -> "StoppingMatrix":
        if not isinstance(data, dict):
            raise ValueError('matrix JSON must be an object with an "N" key')
        rows = {}
        try:
            known_fields(data, ("N", "rows"), "matrix JSON")
            for r in data.get("rows", []):
                if not isinstance(r, dict):
                    raise ValueError(f"matrix row must be an object, got {r!r}")
                known_fields(r, ("site", "head", "tail", "period"),
                             "matrix JSON")
                site = parse_int(r["site"])
                if site in rows:
                    raise ValueError(f"matrix lists site {site} twice")
                rows[site] = MatrixRow(
                    tuple(parse_int(x) for x in r.get("head", [])),
                    r.get("tail", "zero"),
                    tuple(parse_int(x) for x in r.get("period", [])),
                )
            return cls(parse_int(data["N"]), rows)
        except KeyError as exc:  # an object without a field it needs
            raise ValueError(f"malformed matrix JSON: missing field {exc}") from exc
        except TypeError as exc:  # a field of the wrong shape
            raise ValueError(f"malformed matrix JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# The two-phase arrival-count recursion


#: Work one settle scan may spend, in site-stages: a `CountEngine` stage
#: costs the strip's 2N + 3 sites.
MAX_SITE_STAGES = 2_000_000
#: Stages the settle scan of a matrix whose tails stop paths may run past
#: head_length + p, the first stage that can settle (`settle_stage`), so
#: that long heads and periods do not use up the cap.
MAX_SCAN = 512


def _arrivals(surv: dict[int, int], sites: list[int]) -> dict[int, int]:
    """Paths arriving at each of `sites`: the survivors one step either side."""
    return {j: surv.get(j - 1, 0) + surv.get(j + 1, 0) for j in sites}


class CountEngine:
    """Evolves the arrival counts k[i][n] of a matrix's stop counts.

    Interior site i stops `matrix.entry(i, n)` paths at stage n.  Boundary
    sites +-(N+1) absorb everything that reaches them.
    """

    def __init__(self, matrix: StoppingMatrix):
        self.matrix = matrix
        self.N = matrix.half_width
        self.n = 0
        bound = self.N + 1
        check_hull(-bound, bound)
        self.even_sites = [i for i in range(-bound, bound + 1) if i % 2 == 0]
        self.odd_sites = [i for i in range(-bound, bound + 1) if i % 2 != 0]
        self.k_even = {i: (1 if i == 0 else 0) for i in self.even_sites}
        self.k_odd = {i: 0 for i in self.odd_sites}

    def survivors(self, counts: dict[int, int], stage: int) -> dict[int, int]:
        """`counts` less the stops of `stage`; nothing survives a boundary."""
        surv = {}
        for i, k in counts.items():
            if abs(i) > self.N:
                surv[i] = 0  # absorbed
            else:
                a = self.matrix.entry(i, stage)
                if a > k:
                    raise CountViolation(i, stage, a, k)
                surv[i] = k - a
        return surv

    def advance(self) -> None:
        """Run one full stage: odd arrivals, then even arrivals."""
        self.k_odd = _arrivals(self.survivors(self.k_even, self.n), self.odd_sites)
        self.n += 1
        self.k_even = _arrivals(self.survivors(self.k_odd, self.n), self.even_sites)


class CountViolation(Exception):
    def __init__(self, site: int, stage: int, a: int, k: int):
        super().__init__(f"a[{site}][{stage}] = {a} exceeds arrival count {k}")
        self.site = site
        self.stage = stage
        self.a = a
        self.k = k


def boundary_masses(interior: dict[int, Fraction], half_width: int
                    ) -> dict[int, Fraction]:
    """Masses at -(N+1) and N+1 of a rule on the strip of half width N that
    stops weight interior[i] at each interior site i, given a <= k for good.

    The strip is left almost surely, so the stopped law has mass one, and
    the stopped walk is bounded, so by optional stopping its mean is zero.
    With W the interior weight and S = sum i w_i, that puts
    (1 - W + S/(N+1))/2 at -(N+1) and (1 - W - S/(N+1))/2 at N+1.
    """
    bound = half_width + 1
    rest = 1 - sum(interior.values(), Q(0))
    shift = sum((i * w for i, w in interior.items()), Q(0)) / bound
    return {-bound: (rest + shift) / 2, bound: (rest - shift) / 2}


def settle_stage(matrix: StoppingMatrix) -> int:
    """The stage at which the counts of `matrix` settle, so that a <= k
    holds at every stage; a violation on the way raises `CountViolation`.

    Let p be the lcm of the periods of the periodic rows whose tails stop
    paths (1 if there are none) and c = 2^p if a doubling tail stops paths,
    1 otherwise.  Past the heads every row has a(i, m + p) <= c a(i, m): a
    tail that stops nothing, a zero row's included, has a = 0 there.  The
    recursion is linear and monotone in the counts, so once the even counts
    at a stage n >= head_length + p are at least c times those at n - p,
    the survivors of every later stage are at least c times those p stages
    earlier, and never negative.  Without a tail that stops paths the
    counts settle at the end of the heads, with no `MAX_SCAN` cap.

    The lcm p of a few periods can run to millions of stages, so when it
    passes `MAX_SCAN` and no tail doubles, the counts also settle at the
    first stage n >= head_length from which one stage stopping the largest
    tail entry M at every interior site passes a <= k and lowers no
    interior even count: each later stage starts at or above stage n's
    counts and stops at most M.

    Raises `BudgetExceeded` when a tailed scan runs `MAX_SCAN` stages past
    head_length + p, or past head_length + min(p, MAX_SCAN) beside a
    doubling tail, whose counts gain a bit at every stage; or when any
    scan passes `MAX_SITE_STAGES`.
    """
    N = matrix.half_width
    tails = [r for r in matrix.rows.values() if r.tail_stops]
    period = math.lcm(*(len(r.period) for r in tails if r.tail == "periodic"))
    doubles = any(r.tail == "doubling" for r in tails)
    head = matrix.head_length
    settle = head + (period if tails else 0)
    # the stage MAX_SCAN counts from; each stage of doubling counts costs more
    cap = min(settle, head + MAX_SCAN) if doubles else settle
    sites = 2 * N + 3
    engine = CountEngine(matrix)
    worst = None  # a stage of the largest tail entry at every site
    if tails and not doubles and period > MAX_SCAN:
        top = max(max(r.period) for r in tails)
        worst = CountEngine(StoppingMatrix(N, {
            i: MatrixRow((), "periodic", (top,)) for i in range(-N, N + 1)}))
    counts = []  # the even counts of stages head .. head + MAX_SCAN
    while True:
        if head <= engine.n <= head + MAX_SCAN:
            counts.append(engine.k_even)
        if engine.n >= settle and (not tails or all(
                k >= counts[engine.n - settle][i] << (period * doubles)
                for i, k in engine.k_even.items())):
            return engine.n
        if worst and engine.n >= head:
            worst.k_even = engine.k_even
            with suppress(CountViolation):  # that stage fails a <= k
                worst.advance()
                if all(worst.k_even[i] >= k
                       for i, k in engine.k_even.items() if abs(i) <= N):
                    return engine.n
        if tails and engine.n == cap + MAX_SCAN:
            raise BudgetExceeded("MAX_SCAN", "counts do not settle within "
                                 f"MAX_SCAN = {MAX_SCAN} stages of stage "
                                 f"{cap}")
        if engine.n == MAX_SITE_STAGES // sites:
            raise BudgetExceeded("MAX_SITE_STAGES", "past the work budget "
                                 f"MAX_SITE_STAGES = {MAX_SITE_STAGES} "
                                 f"site-stages on a strip of {sites} sites")
        engine.advance()


def _settled_law(matrix: StoppingMatrix) -> tuple[dict[int, Fraction], int]:
    """The stopped law of `matrix` once `settle_stage` confirms a <= k for
    good, with that stage: each row's weight, and the boundary masses."""
    stages = settle_stage(matrix)
    interior = {i: matrix.site_weight(i) for i in matrix.rows}
    law = {**boundary_masses(interior, matrix.half_width), **interior}
    return {i: w for i, w in law.items() if w}, stages


# ---------------------------------------------------------------------------
# Verification and exact laws


@dataclass(frozen=True)
class VerifyResult:
    status: str  # "valid" | "violation" | "inconclusive"
    site: int | None = None
    stage: int | None = None
    detail: str = ""

    @property
    def valid(self) -> bool:
        return self.status == "valid"


def verify_matrix(matrix: StoppingMatrix, mu: IntegerMeasure) -> VerifyResult:
    """Check that `matrix` encodes an adapted rule embedding `mu`.

    Recomputes the arrival counts and checks a[i][n] <= k[i][n] at every
    stage until they settle (`settle_stage`): past that stage every count
    is at least c times the count p stages earlier, and a <= k holds for
    good.  Tails of every kind, and any mix of them, pass the same test.
    Then each interior site's weight must be mu's, and each boundary mass,
    which `boundary_masses` takes from the interior weights in closed form,
    must be mu's too.  A stop at an odd site at stage 0, which no walk
    reaches, shows as that site's weight.

    Inconclusive when the check would pass `MAX_SITE_STAGES`, or a strip
    of `measures.MAX_HULL_SITES` sites, or the counts do not settle within
    `MAX_SCAN` stages of head_length + p (see `settle_stage`).
    """
    N = matrix.half_width
    bound = N + 1
    for site in mu.support:
        if abs(site) > bound:
            raise MeasureError(f"support site {site} outside [-{bound}, {bound}]")

    try:
        law, _ = _settled_law(matrix)
    except CountViolation as v:
        return VerifyResult("violation", site=v.site, stage=v.stage,
                            detail=str(v))
    except BudgetExceeded as exc:
        return VerifyResult("inconclusive", detail=str(exc))

    # the counts scan passed, so a <= k throughout; now the atom identities,
    # interior sites first, then the ends
    for i in [*range(-N, N + 1), -bound, bound]:
        got = law.get(i, Q(0))
        if got != mu.weight(i):
            what = "encoded weight" if abs(i) <= N else "boundary mass"
            return VerifyResult("violation", site=i,
                                detail=f"{what} {got} != target {mu.weight(i)}")
    return VerifyResult("valid")


def exact_law_matrix(matrix: StoppingMatrix
                     ) -> tuple[dict[int, Fraction], Fraction, int]:
    """Stopped law of a matrix rule as (law, residual, stages): once
    `settle_stage` confirms a <= k for good, each interior site gets its
    row's weight and the ends get `boundary_masses`, with residual zero
    and the stages the scan ran.  A stop at an odd site at stage 0 exceeds
    its arrivals, none, and raises `CountViolation` before the scan."""
    for i in sorted(matrix.rows):
        a = matrix.entry(i, 0)
        if i % 2 and a:
            raise CountViolation(i, 0, a, 0)
    law, stages = _settled_law(matrix)
    return law, Q(0), stages


# ---------------------------------------------------------------------------
# Search


#: Nodes `search_matrix` may visit before it answers "unknown"
NODE_BUDGET = 50_000


@dataclass(frozen=True)
class SearchResult:
    status: str  # "member" | "unknown"
    matrix: StoppingMatrix | None = None
    # what ended an "unknown": "nodeBudget", "maxStage", or None when every
    # zero-tail head on the strip dead-ends before the stage cap
    budget: str | None = None
    nodes: int = 0


def _head_row(stops: tuple[int, ...]) -> MatrixRow:
    """The zero-tail row of per-stage `stops`, trailing zeros dropped."""
    return MatrixRow(stops[:max(n + 1 for n, a in enumerate(stops) if a)])


def search_matrix(mu: IntegerMeasure, max_stage: int) -> SearchResult:
    """Greedy stage-by-stage construction with backtracking.

    At each stage every interior site stops as many paths as both the
    arrival count and the remaining base-4 budget of its atom allow; on a
    dead end the latest choice is decremented.  Sound but deliberately
    incomplete: success is certified (the result verifies), failure within
    `max_stage` stages and `NODE_BUDGET` nodes only yields "unknown".

    The state at stage n is integer: the even survivor counts, each
    interior atom's remaining budget and each boundary atom's deficit, the
    last two in units of 1/(d 4^n) with d twice the lcm of mu's
    denominators.  Stopping a paths spends a*d; a path reaching an even
    boundary spends d, and 2d at an odd one.  A negative deficit is a dead
    end, and the next stage multiplies budgets and deficits by 4.  A choice
    that spends every budget is a member: its interior weights are mu's, so
    `boundary_masses` makes its boundary masses mu's too, and the deficits
    are met without a check.

    Nodes are the even-phase choices plus one per call; odd-phase choices
    are not counted.  Two skips leave every count and result as it was.
    With an even boundary, its arrivals are the odd survivors at -N and N,
    so the deficits floor the odd stops there and an odd choice that would
    overdraw a deficit is never enumerated.  Choices run greedy first: in
    decreasing lexicographic order, the last site varying fastest.
    At the stage cap, a choice that leaves budget unspent is a leaf worth
    two nodes, its own and its child's past the cap.  Only the greedy
    first choice can spend every budget (a_j <= r_j // d at each site), so
    the cap stage returns that choice when it does and otherwise counts
    the leaves, prod(cap_j + 1) of them, without visiting them; node
    counts, and where `NODE_BUDGET` stops, are the same as visiting each
    leaf.
    """
    if not mu.is_centered():
        raise MeasureError(f"measure is not centered (mean {mu.mean()})")
    if mu.support == [0]:
        return SearchResult("member", StoppingMatrix(0, {0: MatrixRow((1,))}))
    bound = max(abs(s) for s in mu.support)
    check_hull(-bound, bound)
    N = bound - 1
    d = 2 * math.lcm(*(w.denominator for w in mu.atoms.values()))
    unit = d * 2 ** (bound % 2)  # what one path reaching the boundary spends
    interior = range(-N, N + 1)
    budgets = [int(mu.weight(i) * d / 2 ** (i % 2)) for i in interior]
    deficits = int(mu.weight(-bound) * d), int(mu.weight(bound) * d)

    nodes = 0
    capped = False  # some branch reached the stage cap with budget unspent
    even_sites = [i for i in range(-bound, bound + 1) if i % 2 == 0]
    odd_sites = [i for i in range(-bound, bound + 1) if i % 2 != 0]
    # the interior sites' positions in `rem` and in each stage's stops
    even_slots = slice(N % 2, 2 * N + 1, 2)
    odd_slots = slice((N + 1) % 2, 2 * N + 1, 2)
    even_interior, odd_interior = interior[even_slots], interior[odd_slots]
    start = {i: int(i == 0) for i in even_sites}

    def solved(path):
        """The matrix of `path`, whose last stage spends every budget."""
        rows = zip(interior, zip(*path))  # each site's stops by stage
        return StoppingMatrix(N, {i: _head_row(stops)
                                  for i, stops in rows if any(stops)})

    def recurse(stage, k_even, rem, lo, hi, path):
        nonlocal nodes, capped
        nodes += 1
        if nodes > NODE_BUDGET or stage > max_stage:
            return None

        # phase 1: odd arrivals (none at stage 0); an odd boundary absorbs now
        k_odd = _arrivals(k_even, odd_sites)
        if bound % 2:
            lo, hi = lo - unit * k_odd[-bound], hi - unit * k_odd[bound]
            if lo < 0 or hi < 0:
                return None
        odd_caps = [min(k_odd[i], r // d)
                    for i, r in zip(odd_interior, rem[odd_slots])]
        odd_floors = [0] * len(odd_caps)
        if bound % 2 == 0:
            # the even boundary arrivals are the odd survivors at +-N, so
            # the deficits floor the stops there
            odd_floors[0] = max(0, k_odd[-N] - lo // unit)
            odd_floors[-1] = max(0, k_odd[N] - hi // unit)
        even_rem = rem[even_slots]
        taken = [0] * len(rem)
        for odd_choice in itertools.product(
                *(range(c, f - 1, -1) for c, f in zip(odd_caps, odd_floors))):
            taken[odd_slots] = odd_choice
            surv_odd = {i: k_odd[i] - a for i, a in zip(odd_interior, odd_choice)}

            # phase 2: even arrivals; stage 0 starts the walk at 0
            k_new = _arrivals(surv_odd, even_sites) if stage else start
            lo2, hi2 = lo, hi
            if bound % 2 == 0:  # never negative, by the floors
                lo2, hi2 = lo - unit * k_new[-bound], hi - unit * k_new[bound]

            even_caps = [min(k_new[i], r // d)
                         for i, r in zip(even_interior, even_rem)]
            if stage == max_stage:  # count the leaves, as the docstring says
                taken[even_slots] = even_caps
                if not any(r - a * d for r, a in zip(rem, taken)):
                    nodes += 1
                    if nodes > NODE_BUDGET:
                        return None
                    return solved(path + (tuple(taken),))
                leaves = math.prod(c + 1 for c in even_caps)
                # leaf j of the run would pass the budget at nodes + 2j + 1
                stop = (NODE_BUDGET - nodes + 1) // 2
                if stop < leaves:
                    nodes += 2 * stop + 1
                    return None
                nodes += 2 * leaves
                capped = True
                continue
            for even_choice in itertools.product(
                    *(range(c, -1, -1) for c in even_caps)):
                nodes += 1
                if nodes > NODE_BUDGET:
                    return None
                taken[even_slots] = even_choice
                rem2 = [r - a * d for r, a in zip(rem, taken)]
                path2 = path + (tuple(taken),)
                if not any(rem2):
                    return solved(path2)

                surv_even = {i: k_new[i] - a
                             for i, a in zip(even_interior, even_choice)}
                result = recurse(stage + 1, surv_even, [4 * r for r in rem2],
                                 4 * lo2, 4 * hi2, path2)
                if result is not None:
                    return result
        return None

    found = recurse(0, {}, budgets, *deficits, ())
    if found is not None:
        return SearchResult("member", found, nodes=nodes)
    budget = ("nodeBudget" if nodes > NODE_BUDGET
              else "maxStage" if capped else None)
    return SearchResult("unknown", budget=budget, nodes=nodes)
