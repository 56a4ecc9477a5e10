"""Stop-count matrices: rows, verification, search."""

import signal
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walkembed import (
    IntegerMeasure,
    MatrixRow,
    StoppingMatrix,
    measure,
    search_matrix,
    verify_matrix,
)
from walkembed import matrices, rules
from walkembed.matrices import exact_law_matrix
from walkembed.rational import BudgetExceeded

import reference
from reference import search_matrix_visiting
from test_classic import centered_measures

MU_DOUBLING = measure({0: Q(3, 4), -4: Q(1, 8), 4: Q(1, 8)})
M_DOUBLING = StoppingMatrix(3, {0: MatrixRow((0, 2, 2), "doubling")})

MU_516 = measure({0: Q(5, 16), -2: Q(11, 32), 2: Q(11, 32)})
M_516 = StoppingMatrix(1, {0: MatrixRow((0, 1, 1))})

MU_SIXTH = measure({0: Q(1, 6), -2: Q(5, 12), 2: Q(5, 12)})
M_SIXTH = StoppingMatrix(1, {0: MatrixRow((0, 0), "periodic", (2,))})


class TestMatrixRow:
    def test_entry_zero_tail(self):
        r = MatrixRow((0, 1, 1))
        assert [r.entry(n) for n in range(6)] == [0, 1, 1, 0, 0, 0]

    def test_entry_doubling(self):
        r = MatrixRow((0, 2, 2), "doubling")
        assert [r.entry(n) for n in range(7)] == [0, 2, 2, 4, 8, 16, 32]

    def test_entry_periodic(self):
        r = MatrixRow((0, 0), "periodic", (2, 1))
        assert [r.entry(n) for n in range(7)] == [0, 0, 2, 1, 2, 1, 2]

    def test_quarter_sums(self):
        assert MatrixRow((0, 1, 1)).quarter_sum() == Q(5, 16)
        assert MatrixRow((0, 2, 2), "doubling").quarter_sum() == Q(3, 4)
        assert MatrixRow((0, 0), "periodic", (2,)).quarter_sum() == Q(1, 6)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            MatrixRow((0, -1))

    def test_json_round_trip(self):
        for m in (M_DOUBLING, M_516, M_SIXTH):
            assert StoppingMatrix.from_json_dict(m.to_json_dict()) == m

    def test_json_drops_all_zero_row(self):
        # a row that stops nothing is not written
        rows = [{"site": 0, "head": [0, 0]}]
        m = StoppingMatrix.from_json_dict({"N": 1, "rows": rows})
        assert m.to_json_dict() == {"N": 1, "rows": []}

    def test_json_rejects_repeated_site(self):
        # keeping the last of two rows would make the verdict depend on
        # the order of the rows
        rows = [{"site": 0, "head": [0]}, {"site": 0, "head": [1]}]
        for order in (rows, rows[::-1]):
            with pytest.raises(ValueError, match="lists site 0 twice"):
                StoppingMatrix.from_json_dict({"N": 1, "rows": order})

    # a key repeated in one object is rejected as the text is parsed, at
    # any depth of the document
    @pytest.mark.parametrize("text, key", [
        ('{"N": 1, "rows": [{"site": 0, "head": [0, 1, 1]}], "rows": []}',
         "rows"),
        ('{"N": 1, "N": 2, "rows": []}', "N"),
        ('{"N": 1, "rows": [{"site": 0, "head": [0, 1, 1], "head": [0]}]}',
         "head"),
        ('{"N": 1, "rows": [{"site": 0, "head": [0], "tail": "zero", '
         '"tail": "doubling"}]}', "tail"),
    ], ids=["rows", "N", "row-head", "row-tail"])
    def test_json_rejects_repeated_key(self, text, key):
        match = f"key '{key}' appears twice in one object"
        with pytest.raises(ValueError, match=match):
            StoppingMatrix.from_json_dict(rules.parse_json(text))
        with pytest.raises(ValueError, match=match):
            rules.rule_from_json(
                f'{{"kind": "pathCountMatrix", "payload": {text}}}')


class TestVerify:
    def test_terminating_valid(self):
        assert verify_matrix(M_516, MU_516).valid

    def test_doubling_valid(self):
        assert verify_matrix(M_DOUBLING, MU_DOUBLING).valid

    def test_periodic_valid(self):
        assert verify_matrix(M_SIXTH, MU_SIXTH).valid

    def test_count_violation_localized(self):
        bad = StoppingMatrix(3, {0: MatrixRow((0, 3, 2), "doubling")})
        res = verify_matrix(bad, MU_DOUBLING)
        assert res.status == "violation"
        assert (res.site, res.stage) == (0, 1)

    def test_starved_counts_localized(self):
        # an extra stop at site 1 removes the path that site 0 needed
        bad = StoppingMatrix(1, {0: MatrixRow((0, 1, 1)),
                                 1: MatrixRow((0, 1))})
        res = verify_matrix(bad, MU_516)
        assert res.status == "violation"
        assert (res.site, res.stage) == (0, 2)

    def test_weight_violation_names_site(self):
        # halving the periodic tail keeps counts feasible but the row
        # no longer encodes the target's atom at 0
        bad = StoppingMatrix(1, {0: MatrixRow((0, 0), "periodic", (1,))})
        res = verify_matrix(bad, MU_SIXTH)
        assert res.status == "violation"
        assert res.site == 0
        assert res.stage is None

    def test_wrong_boundary_mass(self):
        lopsided = measure({0: Q(1, 6), -2: Q(1, 3), 2: Q(1, 2)})
        res = verify_matrix(M_SIXTH, lopsided)
        assert res.status == "violation"
        assert res.site in (-2, 2)

    def test_delta_zero(self):
        m = StoppingMatrix(0, {0: MatrixRow((1,))})
        assert verify_matrix(m, measure({0: 1})).valid


class TestSearch:
    def test_finds_516(self):
        res = search_matrix(MU_516, max_stage=8)
        assert res.status == "member"
        assert res.matrix.rows[0].head == (0, 1, 1)
        assert verify_matrix(res.matrix, MU_516).valid

    def test_found_matrices_always_verify(self):
        targets = [
            measure({0: Q(1, 2), -2: Q(1, 4), 2: Q(1, 4)}),
            measure({0: Q(1, 4), -2: Q(3, 8), 2: Q(3, 8)}),
            measure({0: Q(1, 2), -3: Q(1, 4), 3: Q(1, 4)}),
            measure({0: 1}),
        ]
        for mu in targets:
            res = search_matrix(mu, max_stage=8)
            assert res.status == "member", mu
            assert verify_matrix(res.matrix, mu).valid, mu

    def test_unreachable_interior_weight(self):
        # p0 = 1/3 on a width-one strip is not achievable
        mu = measure({-1: Q(1, 3), 0: Q(1, 3), 1: Q(1, 3)})
        assert search_matrix(mu, max_stage=10).status == "unknown"

    def test_non_centered_rejected(self):
        with pytest.raises(Exception):
            search_matrix(measure({1: 1}), max_stage=4)

    # status and matrix of the named targets, frozen from the earlier
    # Fraction-state search, so they pin the results of the greedy order
    FROZEN = {
        "516": (MU_516, "member",
                {"N": 1, "rows": [{"site": 0, "head": [0, 1, 1], "tail": "zero"}]}),
        "29": (measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)}), "unknown", None),
        "16": (MU_SIXTH, "unknown", None),
        "34": (MU_DOUBLING, "unknown", None),
        "5atom": (measure({-6: Q(1, 8), -2: Q(1, 4), 0: Q(1, 4), 2: Q(1, 4),
                           6: Q(1, 8)}), "member",
                  {"N": 5, "rows": [{"site": s, "head": [0, 1], "tail": "zero"}
                                    for s in (-2, 0, 2)]}),
    }

    @pytest.mark.parametrize("max_stage", [3, 5, 8])
    @pytest.mark.parametrize("name", sorted(FROZEN))
    def test_frozen_results(self, name, max_stage):
        mu, status, matrix = self.FROZEN[name]
        res = search_matrix(mu, max_stage=max_stage)
        assert res.status == status
        assert (res.matrix.to_json_dict() if res.matrix else None) == matrix

    def test_node_budget_pinned(self, monkeypatch):
        # found on exactly the 236th node, so this pins node counting
        mu = measure({-1: Q(89, 128), 0: Q(3, 64), 2: Q(5, 64), 3: Q(23, 128)})
        monkeypatch.setattr(matrices, "NODE_BUDGET", 235)
        assert search_matrix(mu, max_stage=6).status == "unknown"
        monkeypatch.setattr(matrices, "NODE_BUDGET", 236)
        res = search_matrix(mu, max_stage=6)
        assert res.status == "member"
        assert res.matrix == StoppingMatrix(2, {
            -1: MatrixRow((0, 1, 1, 2, 1)),
            0: MatrixRow((0, 0, 0, 2, 4)),
            2: MatrixRow((0, 0, 1, 0, 4)),
        })
        assert verify_matrix(res.matrix, mu).valid


def _atoms(weights: dict[int, str]) -> IntegerMeasure:
    return measure({k: Q(w) for k, w in weights.items()})


def _search_outcome(search, mu, max_stage):
    res = search(mu, max_stage)
    return res.status, res.budget, res.nodes, res.matrix


class TestCountedLeaves:
    """The stage cap counts its leaves where the reference search visits
    them one at a time: status, budget, node count and matrix all agree,
    also when NODE_BUDGET runs out inside a counted run."""

    @settings(max_examples=100)
    @given(centered_measures(), st.integers(1, 6),
           st.sampled_from([2, 57, 300, 301, 5000, 50_000]))
    def test_matches_visiting_search(self, mu, max_stage, budget):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrices, "NODE_BUDGET", budget)
            assert (_search_outcome(search_matrix, mu, max_stage)
                    == _search_outcome(search_matrix_visiting, mu, max_stage))

    # every stopping point of two searches: {0: 3/4, +-4: 1/8} ends
    # "unknown" after 401 nodes, and the four-atom target is found at the
    # stage cap, on its 44th node, by the choice that spends every budget
    @pytest.mark.parametrize("mu, max_stage, nodes", [
        (MU_DOUBLING, 3, 401),
        (measure({-1: Q(89, 128), 0: Q(3, 64), 2: Q(5, 64), 3: Q(23, 128)}),
         4, 44),
    ], ids=["3/4", "89/128"])
    def test_every_budget(self, monkeypatch, mu, max_stage, nodes):
        assert search_matrix(mu, max_stage).nodes == nodes
        for budget in range(1, nodes + 2):
            monkeypatch.setattr(matrices, "NODE_BUDGET", budget)
            assert (_search_outcome(search_matrix, mu, max_stage)
                    == _search_outcome(search_matrix_visiting, mu, max_stage)
                    ), budget


class SearchTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise SearchTimeout


class TestSearchBudgets:
    """Status and matrix of the search at node budgets 300, 2000 and 50 000
    and max_stage 3, 6 and 9, frozen from the search before its odd-phase
    deficit floors and in-place stage-cap leaves.  A moved node count shows
    up here as a flipped status: deeper stages spend the budget on greedy
    branches first, so some targets found at stage 6 are unknown at 9."""

    STAGES = (3, 6, 9)
    # name: (target, its matrix as {site: head}, and per node budget the
    # status at each of STAGES: "m" member with that matrix, "u" unknown)
    FROZEN = {
        "3/4": ({0: "3/4", -4: "1/8", 4: "1/8"}, None,
                {300: "uuu", 2000: "uuu", 50_000: "uuu"}),
        "2/9": ({-3: "2/9", 0: "4/9", 2: "1/3"}, None,
                {300: "uuu", 2000: "uuu", 50_000: "uuu"}),
        "4/5": ({-1: "4/5", 4: "1/5"}, None,
                {300: "uuu", 2000: "uuu", 50_000: "uuu"}),
        "5/6": ({-1: "5/6", 5: "1/6"}, None,
                {300: "uuu", 2000: "uuu", 50_000: "uuu"}),
        "1/4,3/4": ({-3: "1/4", 1: "3/4"}, None,
                    {300: "uuu", 2000: "uuu", 50_000: "uuu"}),
        # drawn with random.Random(12) as the benchmark's centered_target
        # draws (hull width 2-6, 2-4 atoms), kept where every denominator
        # divides 256
        "a": ({-3: "27/128", -1: "1/32", 0: "3/32", 1: "85/128"},
              {-1: (0, 0, 0, 0, 4), 0: (0, 0, 1, 2), 1: (0, 1, 1, 1, 1)},
              {300: "umu", 2000: "umm", 50_000: "umm"}),
        "b": ({-3: "11/64", -2: "5/64", 0: "5/64", 1: "43/64"},
              {-2: (0, 0, 1, 0, 4), 0: (0, 0, 1, 0, 4), 1: (0, 1, 1, 1, 2)},
              {300: "umu", 2000: "umm", 50_000: "umm"}),
        "c": ({-3: "45/256", -2: "5/64", -1: "1/32", 1: "183/256"},
              {-2: (0, 0, 1, 1), -1: (0, 0, 0, 0, 3, 4),
               1: (0, 1, 1, 2, 3, 2)},
              {300: "uuu", 2000: "umu", 50_000: "umu"}),
        "d": ({-1: "93/128", 1: "3/64", 3: "29/128"},
              {-1: (0, 1, 1, 2, 3, 6, 8), 1: (0, 0, 0, 1, 0, 4, 16)},
              {300: "uuu", 2000: "umu", 50_000: "umu"}),
        "e": ({-3: "61/256", -1: "1/64", 0: "1/64", 1: "187/256"},
              {-1: (0, 0, 0, 0, 0, 2, 24), 0: (0, 0, 0, 1),
               1: (0, 1, 1, 2, 3, 7, 12)},
              {300: "uuu", 2000: "uuu", 50_000: "umu"}),
        "f": ({-3: "29/128", -2: "1/64", 0: "3/64", 1: "91/128"},
              {-2: (0, 0, 0, 0, 3, 2, 8), 0: (0, 0, 0, 2, 3, 2, 8),
               1: (0, 1, 1, 2, 2, 3, 4)},
              {300: "uuu", 2000: "uuu", 50_000: "umu"}),
        "g": ({-2: "119/256", -1: "1/64", 1: "3/32", 2: "109/256"},
              {-1: (0, 0, 0, 0, 2), 1: (0, 0, 0, 3)},
              {300: "umm", 2000: "umm", 50_000: "umm"}),
        "h": ({-1: "127/160", 3: "1/32", 4: "7/40"}, None,
              {300: "uuu", 2000: "uuu", 50_000: "uuu"}),
        "i": ({-2: "5/16", 0: "1/16", 1: "5/8"},
              {0: (0, 0, 1), 1: (0, 1, 1)},
              {300: "mmm", 2000: "mmm", 50_000: "mmm"}),
    }

    @pytest.mark.parametrize("name", list(FROZEN))
    def test_frozen_results(self, monkeypatch, name):
        weights, heads, grid = self.FROZEN[name]
        mu = _atoms(weights)
        N = max(abs(k) for k in weights) - 1
        expected = None if heads is None else StoppingMatrix(
            N, {i: MatrixRow(head) for i, head in heads.items()})
        for budget, statuses in grid.items():
            monkeypatch.setattr(matrices, "NODE_BUDGET", budget)
            for max_stage, status in zip(self.STAGES, statuses):
                res = search_matrix(mu, max_stage=max_stage)
                got = (res.status, res.matrix)
                want = ("member", expected) if status == "m" else ("unknown",
                                                                  None)
                assert got == want, (budget, max_stage)
        if expected is not None:
            assert verify_matrix(expected, mu).valid

    def test_wide_two_point_target_ends(self):
        # the odd-phase choices that fail a boundary deficit used to be
        # enumerated uncounted; at stage 12 they ran for minutes
        mu = _atoms({-1: "4/5", 4: "1/5"})
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            res = search_matrix(mu, max_stage=12)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        assert res.status == "unknown"


def plain_scan(matrix, stages):
    """Boundary masses, alive mass and the surviving paths at each interior
    site after `stages` stages, stepping the walk one step at a time over
    integer path counts: at step t the paths at each site lose the site's
    stops, boundary paths are absorbed, and the rest move one step either
    way.  Independent of `CountEngine`."""
    N = matrix.half_width
    bound = N + 1
    counts = {0: 1}
    absorbed = {-bound: 0, bound: 0}  # paths times 2^(2 stages - t)
    for t in range(2 * stages + 1):
        stage = (t + 1) // 2
        nxt = {}
        for i, k in counts.items():
            if abs(i) == bound:
                absorbed[i] += k * 2 ** (2 * stages - t)
                continue
            k -= matrix.entry(i, stage)
            assert k >= 0, (i, stage)
            nxt[i] = k
        if t < 2 * stages:
            counts = {}
            for i, k in nxt.items():
                for j in (i - 1, i + 1):
                    counts[j] = counts.get(j, 0) + k
    w = Q(1, 4**stages)
    return ({b: n * w for b, n in absorbed.items()},
            sum(nxt.values()) * w, nxt)


@st.composite
def tailed_matrices(draw):
    """A matrix with a periodic or doubling row on a strip of half width
    N <= 3, often with stops at several sites, whose other rows mix zero,
    doubling and periodic tails, and a target with the atoms its interior
    rows encode.  Mass one and mean zero fix the boundary atoms, which are
    sometimes shifted to give a wrong one."""
    N = draw(st.integers(0, 3))
    digits = st.integers(0, 3)
    sites = draw(st.lists(st.integers(-N, N), min_size=1, max_size=2 * N + 1,
                          unique=True))
    rows = {}
    for n, site in enumerate(sites):
        kind = draw(st.sampled_from(["periodic", "doubling"] + ["zero"] * (n > 0)))
        head = tuple(draw(st.lists(digits, min_size=kind == "doubling",
                                   max_size=3)))
        period = tuple(draw(st.lists(digits, min_size=1, max_size=2))
                       if kind == "periodic" else ())
        rows[site] = MatrixRow(head, kind, period)
    matrix = StoppingMatrix(N, rows)
    bound = N + 1
    inner = {i: matrix.site_weight(i) for i in range(-N, N + 1)}
    rest = 1 - sum(inner.values())
    hi = (rest - sum(i * w for i, w in inner.items()) / bound) / 2
    hi += draw(st.sampled_from([0, 0, 0, Q(1, 64), Q(-1, 64)]))
    atoms = {**inner, -bound: rest - hi, bound: hi}
    return matrix, atoms


class TestVerifyTails:
    @settings(max_examples=300)
    @given(case=tailed_matrices())
    def test_valid_verdict_brackets_boundary_mass(self, case):
        # a valid periodic or doubling verdict rests on the closed-form
        # boundary tail; every finite scan must sit below it by at most the
        # mass still alive
        matrix, atoms = case
        if any(w < 0 for w in atoms.values()):
            return
        mu = IntegerMeasure({i: w for i, w in atoms.items() if w})
        if not verify_matrix(matrix, mu).valid:
            return
        for stages in (1, 8, 40):
            absorbed, alive, _ = plain_scan(matrix, stages)
            for b, mass in absorbed.items():
                assert 0 <= mu.weight(b) - mass <= alive, (b, stages)

    @pytest.mark.parametrize("rows, atoms", [
        # a doubling row next to a zero row
        ([{"site": -2, "head": [0, 1], "tail": "doubling"},
          {"site": 2, "head": [0, 1]}],
         {-3: Q(1, 24), -2: Q(1, 2), 2: Q(1, 4), 3: Q(5, 24)}),
        # a doubling row next to a periodic row
        ([{"site": -2, "head": [0, 1], "tail": "doubling"},
          {"site": 2, "head": [0], "tail": "periodic", "period": [1]}],
         {-3: Q(1, 36), -2: Q(1, 2), 2: Q(1, 3), 3: Q(5, 36)}),
    ], ids=["doubling-zero", "doubling-periodic"])
    def test_mixed_tails_settle(self, rows, atoms):
        # the counts settle once they grow by 2 a stage, whatever the other
        # rows' tails; a step-by-step scan of 200 stages finds every stop
        # within its arrivals and the boundary masses ahead of the absorbed
        matrix = StoppingMatrix.from_json_dict({"N": 2, "rows": rows})
        mu = IntegerMeasure(atoms)
        assert verify_matrix(matrix, mu).valid
        absorbed, alive, _ = plain_scan(matrix, 200)
        for b, mass in absorbed.items():
            assert 0 <= mu.weight(b) - mass <= alive, b

    @pytest.mark.parametrize("row, site, stage", [
        (MatrixRow((0, 0, 1), "doubling"), 0, 6),
        (MatrixRow((0,), "periodic", (1, 2)), 1, 2),
        (MatrixRow((), "periodic", (0, 2)), 0, 3),
        (MatrixRow((0,) * 120, "periodic", (2**119 + 1,)), 0, 239),
    ], ids=["doubling", "periodic-head", "periodic-lag", "periodic-late"])
    def test_violation_past_heads_is_found(self, row, site, stage):
        # the counts grow past the heads, but by less than the settle test
        # asks (c = 2^p, over a lag of p stages from head_length + p on),
        # and a stop outgrows its arrivals a few stages later.  Late: after
        # 120 zeros the counts 2^120 + 2 - 2^(j+1), j stages into the tail,
        # fall away from its fixed point and pass below the stops 2^119 + 1
        # at stage 239, within MAX_SCAN of stage 121
        matrix = StoppingMatrix(1, {site: row})
        res = verify_matrix(matrix, measure({-2: Q(1, 2), 2: Q(1, 2)}))
        assert (res.status, res.site, res.stage) == ("violation", site, stage)
        with pytest.raises(AssertionError, match=rf"\({site}, {stage}\)"):
            plain_scan(matrix, stage)

    @pytest.mark.parametrize("rows, site, stage", [
        ({0: MatrixRow((0,), "periodic", (1,) + (0,) * 514),
          1: MatrixRow((0,), "periodic", (0,) * 19 + (2**40,))}, 1, 20),
        ({0: MatrixRow((0,) * 10 + (1100,), "periodic",
                       (1,) + (0,) * 514)}, 0, 10),
        ({i: MatrixRow((0,) * 3, "periodic", (2,) * 515)
          for i in (-1, 0, 1)}, 0, 4),
    ], ids=["largest-entry", "past-heads", "falling"])
    def test_long_period_violation_is_found(self, rows, site, stage):
        # p passes MAX_SCAN, so the scan also tries a stage of the largest
        # tail entry at every site: 2^40 here, not 1; only once the heads
        # are past, where the 1100 stops would exceed 1024 arrivals; and it
        # must leave the counts no lower, where the 4 paths at 0 at stage 3
        # pass a <= k for one stage of 2 stops everywhere and then fall to 0
        matrix = StoppingMatrix(1, rows)
        res = verify_matrix(matrix, measure({-2: Q(1, 2), 2: Q(1, 2)}))
        assert (res.status, res.site, res.stage) == ("violation", site, stage)

    def test_multi_site_periodic_valid(self):
        # period 2 on a strip with two interior even sites (dim 2): stops
        # at 0 alternate 1, 0 while every other site stops nothing
        m = StoppingMatrix(2, {0: MatrixRow((0,), "periodic", (1, 0))})
        N, bound = 2, 3
        inner = {i: m.site_weight(i) for i in range(-N, N + 1)}
        half = (1 - sum(inner.values())) / 2
        mu = IntegerMeasure({0: inner[0], -bound: half, bound: half})
        assert verify_matrix(m, mu).valid


@st.composite
def feasible_heads(draw):
    """A zero-tail matrix on a strip of half width N <= 3 whose stops never
    exceed their arrivals: the walk is stepped over integer path counts,
    and each site's stop is drawn up to the paths arriving there."""
    N = draw(st.integers(0, 3))
    stages = draw(st.integers(1, 5))
    stops = {i: [0] * stages for i in range(-N, N + 1)}
    counts = {0: 1}
    for t in range(2 * stages - 1):  # stage n ends at step 2n
        nxt = {}
        for i, k in counts.items():
            if abs(i) > N:
                continue  # absorbed
            a = draw(st.integers(0, k))
            stops[i][(t + 1) // 2] = a
            for j in (i - 1, i + 1):
                nxt[j] = nxt.get(j, 0) + k - a
        counts = nxt
    return StoppingMatrix(N, {i: MatrixRow(tuple(r)) for i, r in stops.items()})


def _closed_form(matrix):
    return matrices.boundary_masses(
        {i: matrix.site_weight(i) for i in matrix.rows}, matrix.half_width)


def _ruin_total(matrix):
    """Boundary masses of a zero-tail matrix: what its heads absorb, plus
    the ruin masses of the paths still alive after them."""
    stages = matrix.head_length
    absorbed, _, alive = plain_scan(matrix, stages)
    extra = reference.ruin_masses(alive, stages, matrix.half_width)
    return {b: m + x for (b, m), x in zip(absorbed.items(), extra)}


class TestBoundaryMasses:
    """Mass one and mean zero fix the boundary masses of a feasible matrix:
    the closed form equals the survivors' gambler's-ruin masses, and every
    scan of a tail brackets it between what is absorbed and that plus what
    is still alive."""

    @settings(max_examples=200)
    @given(matrix=feasible_heads())
    def test_equals_ruin_masses(self, matrix):
        assert _closed_form(matrix) == _ruin_total(matrix)

    @settings(max_examples=60)
    @given(centered_measures(), st.integers(1, 4))
    def test_equals_ruin_masses_of_found_matrices(self, mu, max_stage):
        res = search_matrix(mu, max_stage)
        if res.status != "member":
            return
        bound = res.matrix.half_width + 1
        want = {b: mu.weight(b) for b in (-bound, bound)}
        assert _closed_form(res.matrix) == _ruin_total(res.matrix) == want

    @settings(max_examples=200)
    @given(case=st.one_of(tailed_matrices(),
                          feasible_heads().map(lambda m: (m, None))))
    def test_exact_law_is_the_verified_law(self, case):
        # every matrix that `verify` accepts has that measure as its exact
        # law, residual 0, and a step-by-step scan brackets each end
        matrix, _ = case
        atoms = {i: matrix.site_weight(i) for i in matrix.rows}
        atoms.update(_closed_form(matrix))
        if any(w < 0 for w in atoms.values()):
            return
        mu = IntegerMeasure({i: w for i, w in atoms.items() if w})
        if not verify_matrix(matrix, mu).valid:
            return
        law, residual, stages = exact_law_matrix(matrix)
        assert (law, residual) == (mu.atoms, 0)
        assert stages == matrices.settle_stage(matrix)
        self.assert_brackets(matrix)

    @staticmethod
    def assert_brackets(matrix):
        masses = _closed_form(matrix)
        for stages in (1, 8, 40):
            absorbed, alive, _ = plain_scan(matrix, stages)
            for b, mass in absorbed.items():
                assert mass <= masses[b] <= mass + alive, (b, stages)

    @pytest.mark.parametrize("matrix", [M_DOUBLING, M_SIXTH],
                             ids=["3/4", "1/6"])
    def test_brackets_witness_scans(self, matrix):
        self.assert_brackets(matrix)

    @settings(max_examples=200)
    @given(case=tailed_matrices())
    def test_brackets_feasible_tail_scans(self, case):
        # verify against the matrix's own measure confirms a <= k for good
        matrix, _ = case
        atoms = {i: matrix.site_weight(i) for i in matrix.rows}
        atoms.update(_closed_form(matrix))
        if any(w < 0 for w in atoms.values()):
            return
        mu = IntegerMeasure({i: w for i, w in atoms.items() if w})
        if not verify_matrix(matrix, mu).valid:
            return
        self.assert_brackets(matrix)


class TestWorkBudget:
    """Past MAX_SITE_STAGES, `verify_matrix` is inconclusive and names the
    budget, and `exact_law_matrix` raises it.  The budget is lowered so
    that each case is quick."""

    @pytest.fixture(autouse=True)
    def small_budget(self, monkeypatch):
        # 200 stages on the 7-site strip of N = 2, 20 on the 63-site one
        monkeypatch.setattr(matrices, "MAX_SITE_STAGES", 1400)

    @staticmethod
    def assert_past_budget(res, sites):
        assert res.status == "inconclusive"
        assert res.detail == ("past the work budget MAX_SITE_STAGES = 1400 "
                              f"site-stages on a strip of {sites} sites")

    def test_long_zero_head(self):
        head = (0,) * 30 + (1,)
        long_head = StoppingMatrix(30, {0: MatrixRow(head)})
        self.assert_past_budget(verify_matrix(long_head, measure({0: 1})), 63)

    def test_doubling_regime_past_budget(self):
        # the doubling tail starts after a 31-stage head, past the 20 stages
        # that fit on the 63 sites of N = 30
        wide = StoppingMatrix(30, {0: MatrixRow((0,) * 30 + (1,), "doubling")})
        self.assert_past_budget(verify_matrix(wide, measure({0: 1})), 63)

    def test_periodic_scan_past_budget(self):
        # the stop at stage 250 exceeds its arrivals, but the scan of the
        # 7-site strip stops at stage 200, before the periodic regime
        head = (0,) * 250 + (10**200,)
        late = StoppingMatrix(2, {0: MatrixRow(head, "periodic", (0,))})
        self.assert_past_budget(verify_matrix(late, measure({0: 1})), 7)

    def test_wide_periodic_witness_within_budget(self):
        # a periodic tail costs only its domination scan, a few of the 66
        # stages that fit on the 21 sites of N = 9
        wide = StoppingMatrix(9, {0: MatrixRow((0, 0), "periodic", (2,))})
        mu = measure({0: Q(1, 6), -10: Q(5, 12), 10: Q(5, 12)})
        assert verify_matrix(wide, mu).valid

    def test_zero_tails_scan_past_max_scan(self, monkeypatch):
        # a matrix without tails settles at the end of its heads, however
        # long: MAX_SCAN caps only the scan of a tail
        monkeypatch.setattr(matrices, "MAX_SCAN", 10)
        late = StoppingMatrix(2, {0: MatrixRow((0,) * 20 + (1,))})
        atoms = {0: late.site_weight(0), **_closed_form(late)}
        assert verify_matrix(late, measure(atoms)).valid

    def test_scan_limit_keeps_its_detail(self, monkeypatch):
        # a settle scan that stops at MAX_SCAN, not at the budget: after
        # `head` zeros, 2^(head-1) + 1 stops at every stage, and the counts
        # pass below the stops only at stage 2 head - 1 (the periodic-late
        # case of `test_violation_past_heads_is_found`); the cap counts
        # from head + 1
        monkeypatch.setattr(matrices, "MAX_SCAN", 100)
        for head in (120, 150):
            late = StoppingMatrix(1, {0: MatrixRow(
                (0,) * head, "periodic", (2 ** (head - 1) + 1,))})
            res = verify_matrix(late, measure({0: 1}))
            assert (res.status, res.detail) == (
                "inconclusive", "counts do not settle within MAX_SCAN = 100 "
                                f"stages of stage {head + 1}")

    def test_long_period_scan_cap(self, monkeypatch):
        # beside a doubling tail, whose counts gain a bit at every stage, a
        # period of lcm 2001 * 1999 past MAX_SCAN leaves MAX_SCAN counting
        # from head_length + MAX_SCAN: the scan stops 2 MAX_SCAN stages past
        # the 11-stage heads, not past head_length + p
        monkeypatch.setattr(matrices, "MAX_SCAN", 50)
        m = StoppingMatrix(2, {
            -2: MatrixRow((0,), "periodic", (1,) + (0,) * 2000),
            0: MatrixRow((0,) * 10 + (1,), "doubling"),
            2: MatrixRow((0,), "periodic", (1,) + (0,) * 1998)})
        res = verify_matrix(m, measure({0: 1}))
        assert (res.status, res.detail) == (
            "inconclusive", "counts do not settle within MAX_SCAN = 50 "
                            "stages of stage 61")

    @pytest.mark.parametrize("bad", [
        StoppingMatrix(30, {0: MatrixRow((0, 3) + (0,) * 30)}),
        StoppingMatrix(9, {0: MatrixRow((0, 3), "periodic", (2,))}),
    ])
    def test_violation_within_budget_still_reported(self, bad):
        # a <= k fails at stage 1, long before the budget runs out
        res = verify_matrix(bad, measure({0: 1}))
        assert (res.status, res.site, res.stage) == ("violation", 0, 1)

    def test_exact_law_stops_early(self):
        # a doubling tail after a 0 stops nothing: the counts settle after
        # one stage, well within the 22 that fit on the 63 sites of N = 30
        wide = StoppingMatrix(30, {0: MatrixRow((0,), "doubling")})
        assert exact_law_matrix(wide) == ({-31: Q(1, 2), 31: Q(1, 2)}, 0, 1)
        long_head = StoppingMatrix(30, {0: MatrixRow((0,) * 30 + (1,))})
        with pytest.raises(BudgetExceeded) as exc:
            exact_law_matrix(long_head)
        assert exc.value.budget == "MAX_SITE_STAGES"
