"""Monte Carlo harness and exact stopped laws."""

import json
import time
import tracemalloc
from fractions import Fraction as Q
from itertools import accumulate, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from walkembed import (
    ChipStep,
    ExitCompositionRule,
    MatrixRow,
    MaxThresholdRule,
    MinimalCertificate,
    MinimalRule,
    PathCountMatrixRule,
    RandomizedPairRule,
    RandomizedRule,
    StoppingMatrix,
    exact_law,
    hall_rule,
    kernels,
    measure,
    minimal_certificate,
    sample_pairs,
    simulate,
    simulate_reference,
)
from walkembed import sim
from walkembed.classic import exit_law
from walkembed.matrices import CountViolation, exact_law_matrix
from walkembed.rational import BudgetExceeded
import reference
from reference import (
    WalkPath,
    chip_state_key,
    decide,
    frequency,
    keyed_exact_law,
    max_state_key,
    replay_trials,
    tv_distance,
)

MU_516 = measure({0: Q(5, 16), -2: Q(11, 32), 2: Q(11, 32)})
M_516 = StoppingMatrix(1, {0: MatrixRow((0, 1, 1))})
MU_UNIFORM3 = measure({-2: Q(1, 3), 0: Q(1, 3), 2: Q(1, 3)})
# zero tails: a 4-stage head on a 5-site strip, and no stops at all
M_HEAD4 = StoppingMatrix(2, {-1: MatrixRow((0, 1, 0, 1)),
                             0: MatrixRow((0, 0, 1, 2)),
                             2: MatrixRow((0, 0, 1))})
EMPTY_STRIP = StoppingMatrix(30, {})
# the paper's doubling 3/4 and periodic 1/6 certificates
DOUBLING_34 = StoppingMatrix(3, {0: MatrixRow((0, 2, 2), "doubling")})
PERIODIC_16 = StoppingMatrix(1, {0: MatrixRow((0, 0), "periodic", (2,))})

BACKEND_RULES = [
    RandomizedPairRule(-2, 2),
    ExitCompositionRule((ChipStep(-1, 2), ChipStep(-3, 0))),
    pytest.param(ExitCompositionRule(()), id="exitComposition-empty"),
    MaxThresholdRule(((-1, 0), (0, 1), (1, 1))),
    MinimalRule(minimal_certificate(MU_516)),
    PathCountMatrixRule(M_516),
    pytest.param(PathCountMatrixRule(M_HEAD4), id="pathCountMatrix-head4"),
]


@st.composite
def zero_tail_matrices(draw):
    """Random zero-tail matrices on strips of up to 9 sites, mostly zero."""
    n = draw(st.integers(0, 3))
    heads = draw(st.lists(st.lists(st.sampled_from([0, 0, 1, 2]), max_size=5),
                          min_size=2 * n + 1, max_size=2 * n + 1))
    return StoppingMatrix(n, {j: MatrixRow(tuple(h))
                              for j, h in zip(range(-n, n + 1), heads)})


class TestBackendParity:
    """Each numpy kernel against the state-machine replay, bit for bit."""

    @staticmethod
    def assert_same_run(rule, trials, seed, max_steps):
        a = simulate(rule, trials, seed=seed, max_steps=max_steps)
        b = simulate_reference(rule, trials, seed=seed, max_steps=max_steps)
        assert a.counts == b.counts
        assert a.truncated == b.truncated
        assert a.mean_steps == b.mean_steps
        assert (a.backend, b.backend) == ("numpy", "python")
        return a

    @pytest.mark.parametrize("rule", BACKEND_RULES, ids=lambda r: r.kind)
    def test_kernel_matches_state_machine(self, rule):
        self.assert_same_run(rule, 2_000, seed=7, max_steps=256)

    def test_hall_pairs_backend_independent(self):
        # indices into the joint law, fixed by the seed
        rule = hall_rule(MU_UNIFORM3)
        draws = sample_pairs(rule, 500, seed=11)
        assert draws.tolist() == sample_pairs(rule, 500, seed=11).tolist()
        assert draws.tolist() != sample_pairs(rule, 500, seed=12).tolist()
        assert set(draws.tolist()) == set(range(len(rule.joint_law)))

    def test_sample_pairs_one_pair_law(self, monkeypatch):
        # a pair rule is the law of one pair: every trial draws index 0,
        # and no draw stream is seeded
        seeded = []
        monkeypatch.setattr(kernels, "stream_states",
                            lambda *args: seeded.append(args))
        for rule in (RandomizedPairRule(-BIG, 2),
                     RandomizedRule(((-1, 3, Q(1)),))):
            draws = sample_pairs(rule, 200, seed=3)
            assert draws.dtype == np.intp
            assert draws.tolist() == [0] * 200
        assert seeded == []

    @pytest.mark.parametrize("rule", [hall_rule(MU_UNIFORM3),
                                      RandomizedPairRule(-2, 2)],
                             ids=["hall", "pair"])
    def test_simulate_draws_through_sample_pairs(self, monkeypatch, rule):
        calls = []

        def counted(*args):
            calls.append(args)
            return sample_pairs(*args)

        monkeypatch.setattr(sim, "sample_pairs", counted)
        simulate(rule, 100, seed=5, max_steps=64)
        assert calls == [(rule, 100, 5)]
        simulate_reference(rule, 10, seed=5, max_steps=64)
        assert calls[1:] == [(rule, 10, 5)]

    # the state machine steps every positive rank, up to the 31 sites of
    # one parity, about 13 us a step, so few trials; some are cut at
    # max_steps
    def test_empty_strip_matches_state_machine(self):
        rep = self.assert_same_run(PathCountMatrixRule(EMPTY_STRIP), 30,
                                   seed=7, max_steps=2_000)
        assert rep.truncated > 0

    def test_empty_strip_is_the_pair_exit(self):
        strip = simulate(PathCountMatrixRule(EMPTY_STRIP), 2_000, seed=1)
        pair = simulate(RandomizedPairRule(-31, 31), 2_000, seed=1)
        assert (strip.counts, strip.mean_steps) == (pair.counts, pair.mean_steps)
        assert strip.truncated == pair.truncated == 0

    @settings(max_examples=60, deadline=None)
    @given(matrix=zero_tail_matrices(), seed=st.integers(0, 2**64 - 1),
           max_steps=st.sampled_from([0, 3, 7, 256]))
    def test_matrix_kernel_matches_state_machine(self, matrix, seed,
                                                 max_steps):
        try:
            exact_law_matrix(matrix)
        except CountViolation:
            assume(False)
        self.assert_same_run(PathCountMatrixRule(matrix), 200, seed=seed,
                             max_steps=max_steps)

    def test_unread_count_outside_int64(self):
        # a(1, 0) is never read: odd sites are first reached at stage 1.
        # `simulate` rejects it as `exact_law` does, and the kernel, called
        # directly, clamps it and still matches the state machine
        rule = PathCountMatrixRule(StoppingMatrix(1, {1: MatrixRow((2**70, 1))}))
        with pytest.raises(CountViolation) as exc:
            simulate(rule, 200, seed=1, max_steps=100)
        assert (exc.value.site, exc.value.stage, exc.value.k) == (1, 0, 0)
        pos, steps, stopped = kernels.run_matrix(1, 200, rule.matrix, 100)
        ref = simulate_reference(rule, 200, seed=1, max_steps=100)
        got = sim._report(pos, steps, stopped, 200, 1, "python", 100)
        assert got == ref

    @pytest.mark.parametrize("row", [MatrixRow((0,), "doubling"),
                                     MatrixRow((0, 2, 0), "periodic", (0,))],
                             ids=["doubling", "periodic"])
    def test_tails_that_stop_nothing_run_numpy(self, row):
        # such a tail adds no stop past the head: the kernel runs the rule
        rule = PathCountMatrixRule(StoppingMatrix(30, {0: row}))
        got = self.assert_same_run(rule, 20, seed=3, max_steps=300)
        heads = StoppingMatrix(30, {0: MatrixRow(row.head)})
        assert got == simulate(PathCountMatrixRule(heads), 20, seed=3,
                               max_steps=300)

    def test_matrix_head_in_chunks(self, monkeypatch):
        # rank arrays of at most max(trials, BLOCK) elements, 5 sites a
        # trial: one chunk by default, 5 chunks of 60 trials at BLOCK = 16
        rule = PathCountMatrixRule(M_HEAD4)
        whole = simulate(rule, 300, seed=2, max_steps=64)
        monkeypatch.setattr(kernels, "BLOCK", 16)
        assert simulate(rule, 300, seed=2, max_steps=64) == whole

    def test_hall_kernel_matches_state_machine(self):
        self.assert_same_run(hall_rule(MU_UNIFORM3), 2_000, seed=7,
                             max_steps=256)

    # heavy-tailed first passages: past selection the minimal kernel walks
    # in blocks, and the block that reaches max_steps = 4 099 is cut short
    @pytest.mark.parametrize("mu", [
        measure({-1: Q(1, 3), 0: Q(1, 3), 1: Q(1, 3)}),
        measure({-1: Q(1, 2), 3: Q(1, 2)}),
    ], ids=["uniform3", "non-centred"])
    def test_minimal_blocks_match_state_machine(self, mu):
        rule = MinimalRule(minimal_certificate(mu))
        rep = self.assert_same_run(rule, 2_000, seed=7, max_steps=4_099)
        assert rep.truncated > 0


BIG = 10**23

# sites outside int64, and one inside it whose distance to a position is not
HUGE_SITE_RULES = {
    "minimal": MinimalRule(minimal_certificate(measure({10**30: Q(1)}))),
    "minimal-int64-max": MinimalRule(minimal_certificate(
        measure({-1: Q(1, 2), 2**63 - 1: Q(1, 2)}))),
    "randomizedPair": RandomizedPairRule(-BIG, 2),
    "randomizedRule": RandomizedRule(((-BIG, 2, Q(1, 2)), (-1, BIG, Q(1, 4)),
                                      (-2, 1, Q(1, 4)))),
    "exitComposition": ExitCompositionRule((ChipStep(-BIG, 2),
                                            ChipStep(-3, BIG))),
    "maxThreshold": MaxThresholdRule(((-1, BIG), (0, BIG), (1, -BIG))),
}


class TestHugeSites:
    """Sites outside int64 are clamped out of reach, so the kernels agree
    with the state machine, which keeps exact Python ints."""

    @pytest.mark.parametrize("name", list(HUGE_SITE_RULES))
    def test_kernel_matches_state_machine(self, name):
        rule = HUGE_SITE_RULES[name]
        rep = TestBackendParity.assert_same_run(rule, 300, seed=3,
                                                max_steps=40)
        # only the atom at 10^30 is out of reach of every trial
        assert (rep.truncated == 300) == (name == "minimal")

    def test_clamp_sites(self):
        r = 1 << 62
        got = kernels.clamp_sites([-BIG, -r - 1, -6, 0, r, BIG, 2**63 - 1])
        assert got.dtype == np.int64
        assert got.tolist() == [-r, -r, -6, 0, r, r, r]


class TestBlockSize:
    """The first-passage block size changes no stop site, step or
    truncation."""

    # one trial that stops at step 16 748, many blocks in at the small
    # BLOCK values, and one cut at max_steps; more trials than BLOCK; a prime
    # max_steps, so the last block is cut short; an atom no block reaches;
    # a last byte of 3 steps, whose padding would reach the goal
    @pytest.mark.parametrize("mu, trials, max_steps, seed", [
        (measure({-40: Q(1)}), 1, 20_000, 9),
        (measure({-40: Q(1)}), 1, 20_000, 11),
        (measure({-1: Q(1, 3), 0: Q(1, 3), 1: Q(1, 3)}), 20_000, 300, 11),
        (measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)}), 1_000, 4_099, 11),
        (measure({-1: Q(1, 2), 50_000: Q(1, 2)}), 50, 20_000, 11),
        (measure({-4: Q(1)}), 1, 43, 0),
    ], ids=["one-trial-stop", "one-trial-cut", "many-trials", "ragged-end",
            "far-atom", "pad-stop"])
    def test_same_result_for_any_block(self, monkeypatch, mu, trials,
                                       max_steps, seed):
        cert = minimal_certificate(mu)

        def run():
            return kernels.run_minimal(seed, trials, cert.sites,
                                       cert.cut_points, max_steps)

        want = run()
        for block in (1, 2, 7, 8, 9, 64):
            monkeypatch.setattr(kernels, "BLOCK", block)
            for a, b in zip(run(), want):
                assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("block", [1, 2, 7, 8, 9, 64, kernels.BLOCK])
    def test_visit_on_the_padding_is_dropped(self, monkeypatch, block):
        # trial 0 of seed 0 stays above -4 for 43 steps and ends at -1.
        # Every block spans a multiple of 8 steps, so step 43 is bit 2 of
        # a byte, and 3 of the 5 down-steps padding that byte reach -4
        path = scalar_walk(0, 43)
        assert (min(path), path[-1]) == (-3, -1)
        cert = minimal_certificate(measure({-4: Q(1)}))
        monkeypatch.setattr(kernels, "BLOCK", block)
        pos, steps, stopped = kernels.run_minimal(0, 1, cert.sites,
                                                  cert.cut_points, 43)
        assert (pos.tolist(), steps.tolist(), stopped.tolist()) == (
            [-1], [43], [False])

    @pytest.mark.parametrize("trials, max_steps, bound", [
        (1, 10**5, 1 << 20),
        (100_000, 2_000, 16 << 20),
    ], ids=["one-trial", "many-trials"])
    def test_memory_follows_trials_or_block(self, trials, max_steps, bound):
        # a block holds at most max(trials, BLOCK) elements, whatever
        # max_steps is
        cert = minimal_certificate(measure({-1: Q(1, 2), 3: Q(1, 2)}))
        tracemalloc.start()
        try:
            kernels.run_minimal(7, trials, cert.sites, cert.cut_points,
                                max_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("atoms", [
        {-1: Q(1, 2), 3: Q(1, 2)},
        {0: Q(5, 16), -2: Q(11, 32), 2: Q(11, 32)},
    ], ids=["off-center", "5/16"])
    def test_peak_per_trial(self, atoms):
        # about 99 bytes per trial at 100 000 trials, in the selection;
        # the first passage stays below it
        cert = minimal_certificate(measure(atoms))
        tracemalloc.start()
        try:
            kernels.run_minimal(7, 100_000, cert.sites, cert.cut_points,
                                2_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 << 20


def scalar_walk(seed, steps):
    """Positions after steps 1..`steps` of trial 0 of `seed`, drawn with
    the scalar `mix64`."""
    state, p, path = kernels.mix64(seed), 0, []
    for j in range(1, steps + 1):
        p += 1 if kernels.mix64(state + j * kernels.GAMMA) >> 63 else -1
        path.append(p)
    return path


@st.composite
def small_measures(draw):
    sites = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4,
                          unique=True))
    weights = [draw(st.integers(1, 4)) for _ in sites]
    return measure({s: Q(w, sum(weights)) for s, w in zip(sites, weights)})


class TestPackedScan:
    """The byte tables of the packed first passage, and the kernel against
    the state machine at any block size."""

    def test_tables_match_enumeration(self):
        table, first = kernels._byte_tables()
        assert table.shape == (256, 4) and first.shape == (256, 8)
        for v in range(256):
            walk = list(accumulate(1 if v >> j & 1 else -1 for j in range(8)))
            disp, lod, span = (int(x) for x in table[v, :3])
            assert disp == walk[-1]
            lo = lod + disp
            assert (lo, lo + span) == (min(walk), max(walk))
            for d in range(-16, 17):
                u = d - lo
                visits = 0 <= u <= span
                assert visits == (d in walk)
                if visits:
                    assert first[v, u] == walk.index(d) + 1

    @settings(max_examples=40, deadline=None)
    @given(mu=small_measures(), block=st.integers(1, 80),
           seed=st.integers(0, 2**64 - 1),
           max_steps=st.sampled_from([0, 1, 9, 43, 300]))
    def test_minimal_matches_state_machine(self, mu, block, seed,
                                           max_steps):
        saved = kernels.BLOCK
        kernels.BLOCK = block
        try:
            TestBackendParity.assert_same_run(
                MinimalRule(minimal_certificate(mu)), 60, seed, max_steps)
        finally:
            kernels.BLOCK = saved


class TestLockstepMemory:
    """The lockstep engine holds compact copies of the live trials only
    after it has let go of the full-size columns it copied them from."""

    @pytest.mark.parametrize("run", [
        lambda n: kernels.run_two_point(7, [(-3, 4)],
                                        np.zeros(n, dtype=np.intp), 10**6),
        lambda n: kernels.run_exit_composition(
            7, n, (ChipStep(-1, 2), ChipStep(-3, 0)), 10**6),
        lambda n: kernels.run_max_threshold(7, n, ((-1, 0), (0, 1), (1, 1)),
                                            10**6),
    ], ids=["two-point", "exit-composition", "max-threshold"])
    def test_peak_at_many_trials(self, run):
        # about 8 MB each at 100 000 trials; a copy of every column held
        # next to the full-size arrays passes 12 MB
        tracemalloc.start()
        try:
            run(100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 << 20


class TestFrozenMinimal:
    """`simulate` of minimal rules at the scale of the benchmark, where the
    state-machine replay is too slow to check against; frozen from the
    kernel before the block floor, whose blocks held at most `trials`
    elements."""

    FROZEN = {
        "uniform3": (measure({-1: Q(1, 3), 0: Q(1, 3), 1: Q(1, 3)}),
                     {-1: 1615, 0: 1695, 1: 1632}, 58, 57.46924322136787),
        "off-center": (measure({-1: Q(1, 2), 3: Q(1, 2)}),
                       {-1: 2489, 3: 2455}, 56, 54.52710355987055),
        "5/16": (MU_516, {-2: 1673, 0: 1508, 2: 1748}, 71, 75.35362142422397),
        "2/9": (measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)}),
                {-3: 1027, 0: 2153, 2: 1677}, 143, 139.2973028618489),
    }

    @pytest.mark.parametrize("name", list(FROZEN))
    def test_frozen(self, name):
        mu, counts, truncated, mean_steps = self.FROZEN[name]
        rep = simulate(MinimalRule(minimal_certificate(mu)), 5_000, seed=13,
                       max_steps=5_000)
        assert (rep.counts, rep.truncated, rep.mean_steps) == (
            counts, truncated, mean_steps)


FROZEN_PAIRS_FILE = Path(__file__).with_name("frozen_pairs.json")

# a fixed pair, a pair stopped at time 0, a pair end outside int64, a
# one-pair law and two Hall laws
PAIR_TABLE_RULES = {
    "pair(-2,2)": RandomizedPairRule(-2, 2),
    "pair(-3,0)": RandomizedPairRule(-3, 0),
    "pair(-1e23,2)": RandomizedPairRule(-BIG, 2),
    "law(-1,3)": RandomizedRule(((-1, 3, Q(1)),)),
    "hall-uniform3": hall_rule(MU_UNIFORM3),
    "hall-2/9": hall_rule(measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)})),
}


def pair_table(name):
    """Cell id -> output JSON of `simulate`, `simulate_reference` (at most
    200 trials) and `exact_law` for the rule `PAIR_TABLE_RULES[name]`."""
    rule = PAIR_TABLE_RULES[name]
    table = {f"{name}/exact": exact_law(rule).to_json()}
    for seed, trials, max_steps in product((3, 11), (1, 500, 5_000),
                                           (0, 16, 10**6)):
        # the first passage to 2 from far above -1e23 is heavy-tailed:
        # past one trial, lockstep stepping to 10^6 takes tens of seconds
        if name == "pair(-1e23,2)" and max_steps == 10**6 and trials > 1:
            continue
        cell = f"{name}/seed={seed}/trials={trials}/max_steps={max_steps}"
        table[cell] = [
            simulate(rule, trials, seed, max_steps).to_json(),
            simulate_reference(rule, min(trials, 200), seed,
                               max_steps).to_json(),
        ]
    return table


class TestFrozenPairs:
    """Pair rules and pair laws, frozen from the code that still gave the
    pair rule its own branch and its own closed-form law."""

    @pytest.mark.parametrize("name", list(PAIR_TABLE_RULES))
    def test_frozen(self, name):
        frozen = json.loads(FROZEN_PAIRS_FILE.read_text())
        want = {k: v for k, v in frozen.items()
                if k.startswith(f"{name}/")}
        assert pair_table(name) == want


class TestSeeding:
    """The vectorized stream seeding against the scalar splitmix64."""

    @given(st.integers(-2**70, 2**70), st.integers(0, 64))
    def test_stream_states_match_scalar_mix(self, seed, n):
        # seed ^ 0x5DEECE66D seeds the pair draws of sample_pairs
        for s in (seed, seed ^ 0x5DEECE66D):
            got = kernels.stream_states(s, n)
            want = np.asarray(
                [kernels.mix64((s + i * kernels.STREAM) & kernels.MASK)
                 for i in range(n)], dtype=np.uint64)
            assert got.dtype == want.dtype
            assert got.tolist() == want.tolist()


class TestTruncatedSteps:
    """Trials still running at `max_steps` report exactly that many steps."""

    # for the uniform target a quarter of the trials is still reading
    # selector bits at step 3; the non-centred one has fixed every target
    # after one step and is cut during its block-stepped first passage
    @pytest.mark.parametrize("atoms, max_steps", [
        ({-1: Q(1, 3), 0: Q(1, 3), 1: Q(1, 3)}, 3),
        ({-1: Q(1, 2), 3: Q(1, 2)}, 4_099),
    ], ids=["selection", "first-passage"])
    def test_minimal(self, atoms, max_steps):
        cert = minimal_certificate(measure(atoms))
        _, steps, stopped = kernels.run_minimal(
            7, 2_000, cert.sites, cert.cut_points, max_steps)
        assert stopped.any() and not stopped.all()
        assert (steps[~stopped] == max_steps).all()
        assert (steps[stopped] <= max_steps).all()

    def test_two_point(self):
        draws = np.zeros(500, dtype=np.intp)
        _, steps, stopped = kernels.run_two_point(7, [(-4, 4)], draws, 16)
        assert stopped.any() and not stopped.all()
        assert (steps[~stopped] == 16).all()
        assert (steps[stopped] <= 16).all()


class TestPerTrialParity:
    """Each kernel's per-trial stop site, step count and stopped flag
    against the state-machine replay, array for array.  Every cap cuts
    some trials short, and no report shows where a cut trial ends."""

    @pytest.mark.parametrize("rule, max_steps", [
        (RandomizedRule(((-3, 2, Q(1, 2)), (-1, 5, Q(1, 2)))), 5),
        (ExitCompositionRule((ChipStep(-1, 2), ChipStep(-3, 0))), 7),
        (MaxThresholdRule(((-1, 1), (0, 2), (1, 2), (2, 3))), 7),
        (PathCountMatrixRule(M_HEAD4), 3),  # cut in the head
        (PathCountMatrixRule(M_HEAD4), 9),  # cut on the way to +-3
        # selection fixes every target at step 1, then each first-passage
        # block spans a multiple of 8 steps, so step 43 is bit 2 of a byte
        (MinimalRule(minimal_certificate(measure({-1: Q(1, 2),
                                                  3: Q(1, 2)}))), 43),
        (MinimalRule(minimal_certificate(measure({-1: Q(1, 3), 0: Q(1, 3),
                                                  1: Q(1, 3)}))), 3),
    ], ids=["two-point", "exit-composition", "max-threshold", "matrix-head",
            "matrix-exit", "minimal-byte-cut", "minimal-selection"])
    @pytest.mark.parametrize("block", [9, kernels.BLOCK])
    def test_kernel_matches_replay(self, monkeypatch, rule, max_steps, block):
        monkeypatch.setattr(kernels, "BLOCK", block)
        runs = []
        monkeypatch.setattr(sim, "_report",
                            lambda *args: runs.append(args))
        simulate(rule, 300, seed=5, max_steps=max_steps)
        (pos, steps, stopped, *_, backend, _), = runs
        want = replay_trials(rule, 300, 5, max_steps)
        assert backend == "numpy"
        assert stopped.any() and not stopped.all()
        for got, ref in zip((pos, steps, stopped), want):
            assert got.tolist() == ref.tolist()


class TestSimulate:
    def test_two_point_split(self):
        rep = simulate(RandomizedPairRule(-2, 2), 20_000, seed=1,
                       max_steps=4096)
        assert rep.truncated == 0
        assert abs(frequency(rep, 2) - Q(1, 2)) < Q(1, 50)

    def test_truncation_reported(self):
        rep = simulate(RandomizedPairRule(-2, 2), 500, seed=1,
                       max_steps=1)
        assert rep.truncated == 500
        assert rep.counts == {}
        assert tv_distance(rep, measure({-2: Q(1, 2), 2: Q(1, 2)})) == 1

    def test_matrix_rule_numpy_backend(self):
        rep = simulate(PathCountMatrixRule(M_516), 4_000, seed=5,
                       max_steps=512)
        assert rep.backend == "numpy"
        assert tv_distance(rep, MU_516) < Q(1, 25)

    @pytest.mark.parametrize("matrix", [
        DOUBLING_34,
        PERIODIC_16,
        StoppingMatrix(1, {0: MatrixRow((0, 1) + (0,) * 30)}),
    ], ids=["doubling", "periodic", "head-32"])
    def test_matrix_rule_left_to_state_machine(self, matrix):
        rule = PathCountMatrixRule(matrix)
        rep = simulate(rule, 300, seed=4, max_steps=512)
        assert rep == simulate_reference(rule, 300, seed=4, max_steps=512)
        assert rep.backend == "python"

    def test_report_json_deterministic(self):
        r1 = simulate(RandomizedPairRule(-1, 1), 100, seed=9, max_steps=64)
        r2 = simulate(RandomizedPairRule(-1, 1), 100, seed=9, max_steps=64)
        assert r1.to_json() == r2.to_json()
        assert '"counts"' in r1.to_json()

    def test_seed_changes_draws(self):
        r1 = simulate(RandomizedPairRule(-2, 2), 1_000, seed=1,
                      max_steps=256)
        r2 = simulate(RandomizedPairRule(-2, 2), 1_000, seed=2,
                      max_steps=256)
        assert r1.counts != r2.counts


class TestSiteStepBudget:
    @pytest.mark.parametrize("matrix", [DOUBLING_34, PERIODIC_16],
                             ids=["doubling", "periodic"])
    def test_paper_certificates_fit_at_default_trials(self, matrix):
        # site-steps at 100 000 trials, from 5 000: within half the budget
        rep = simulate_reference(PathCountMatrixRule(matrix), 5_000, seed=1)
        sites = 2 * matrix.half_width + 3
        assert rep.truncated == 0
        assert rep.mean_steps * 100_000 * sites < sim.MAX_SITE_STEPS / 2

    def test_budget_is_exact(self):
        rule = PathCountMatrixRule(DOUBLING_34)
        rep = simulate_reference(rule, 50, seed=3)
        spent = round(rep.mean_steps * 50) * 9
        assert simulate_reference(rule, 50, seed=3,
                                  max_site_steps=spent) == rep
        with pytest.raises(BudgetExceeded,
                           match="budget of 1234 site-steps"):
            simulate_reference(rule, 50, seed=3, max_site_steps=1234)
        with pytest.raises(BudgetExceeded):
            simulate_reference(rule, 50, seed=3, max_site_steps=spent - 1)

    def test_simulate_stops_at_the_budget(self, monkeypatch):
        # 63 sites a step: 630 site-steps are 10 steps for 100 000 trials
        monkeypatch.setattr(sim, "MAX_SITE_STEPS", 630)
        wide = StoppingMatrix(30, {0: MatrixRow((0, 1), "doubling")})
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded) as info:
            simulate(PathCountMatrixRule(wide), 100_000, seed=1)
        assert time.perf_counter() - t0 < 1.0
        assert info.value.budget == "MAX_SITE_STEPS"


class TestExactLaw:
    def test_matrix_terminating_residual_zero(self):
        el = exact_law(PathCountMatrixRule(M_516))
        assert el.residual == 0
        assert el.law == {-2: Q(11, 32), 0: Q(5, 16), 2: Q(11, 32)}

    def test_max_threshold_bernoulli(self):
        el = exact_law(MaxThresholdRule(((-1, 0), (0, 1), (1, 1))))
        assert el.residual == 0
        assert el.law == {-1: Q(1, 2), 1: Q(1, 2)}
        assert el.stages == 0

    def test_chip_law_converges(self):
        target = measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)})
        el = exact_law(ExitCompositionRule((ChipStep(-1, 2), ChipStep(-3, 0))))
        assert (el.law, el.residual) == (target.atoms, 0)

    def test_minimal_law_within_residual(self):
        el = exact_law(MinimalRule(minimal_certificate(MU_516)))
        assert el.residual < Q(1, 10)
        for s in MU_516.support:
            assert abs(el.law[s] - MU_516.weight(s)) <= el.residual

    def test_pair_gambler_ruin(self):
        el = exact_law(RandomizedPairRule(-1, 3))
        assert el.residual == 0
        assert el.law == {-1: Q(3, 4), 3: Q(1, 4)}

    def test_hall_exact(self):
        el = exact_law(hall_rule(MU_UNIFORM3))
        assert el.residual == 0
        assert el.law == {-2: Q(1, 3), 0: Q(1, 3), 2: Q(1, 3)}

    def test_law_json(self):
        el = exact_law(RandomizedPairRule(-1, 1))
        assert el.to_json() == ('{"law": {"-1": "1/2", "1": "1/2"}, '
                                '"residual": "0", "stages": 0}')
        assert el.to_json() == exact_law(RandomizedPairRule(-1, 1)).to_json()


def enumerated_law(rule, stages):
    """Law and residual of `rule` after 2 * `stages` steps, by replaying
    every increment word of that length through `decide`."""
    steps = 2 * stages
    mass = Q(1, 2**steps)
    law: dict[int, Q] = {}
    residual = Q(0)
    for word in product((-1, 1), repeat=steps):
        d = decide(rule, WalkPath(word))
        if d.stopped:
            law[d.stop_site] = law.get(d.stop_site, Q(0)) + mass
        else:
            residual += mass
    return law, residual


@st.composite
def chips(draw):
    a = draw(st.integers(-4, 3))
    return ChipStep(a, draw(st.integers(a + 1, 4)))


@st.composite
def threshold_tables(draw):
    lo, hi = draw(st.integers(-4, 0)), draw(st.integers(0, 4))
    return tuple((s, draw(st.integers(-2, 5))) for s in range(lo, hi + 1))


@st.composite
def pair_laws(draw):
    """Laws over one to four pairs u < 0 <= v; a pair with v = 0 stops its
    trials at time zero."""
    pairs = draw(st.lists(st.tuples(st.integers(-5, -1), st.integers(0, 5)),
                          min_size=1, max_size=4, unique=True))
    weights = [draw(st.integers(1, 4)) for _ in pairs]
    return RandomizedRule(tuple((u, v, Q(w, sum(weights)))
                                for (u, v), w in zip(pairs, weights)))


class TestLockstepEngine:
    """`simulate` against `simulate_reference` at small step caps, where
    the engine's time-zero stops, its in-place steps before the first stop
    and its write-back of truncated trials all show."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(st.lists(chips(), max_size=4).map(
                         lambda c: ExitCompositionRule(tuple(c))),
                     threshold_tables().map(MaxThresholdRule),
                     pair_laws()),
           st.integers(0, 2**64 - 1), st.sampled_from([0, 1, 3, 64]))
    # every trial stops at time zero
    @example(ExitCompositionRule(()), 1, 3)
    @example(MaxThresholdRule(((-1, 2), (0, 0), (1, 1))), 2, 64)
    @example(RandomizedRule(((-2, 0, Q(1)),)), 3, 1)
    # no trial stops at time zero
    @example(ExitCompositionRule((ChipStep(-2, 1), ChipStep(-4, 3))), 4, 64)
    @example(MaxThresholdRule(((-1, 1), (0, 2), (1, 2), (2, 3))), 5, 64)
    @example(RandomizedRule(((-1, 3, Q(1, 2)), (-4, 1, Q(1, 2)))), 6, 3)
    # no trial stops at all before the cap
    @example(RandomizedRule(((-5, 5, Q(1)),)), 7, 3)
    def test_kernel_matches_state_machine(self, rule, seed, max_steps):
        TestBackendParity.assert_same_run(rule, 200, seed, max_steps)

    @pytest.mark.parametrize("run", [
        lambda m: kernels.run_exit_composition(
            7, 500, (ChipStep(-3, 2), ChipStep(-5, 4)), m),
        lambda m: kernels.run_max_threshold(
            7, 500, ((-2, 1), (-1, 2), (0, 3), (1, 3), (2, 4)), m),
    ], ids=["exit-composition", "max-threshold"])
    # no trial stops at step 1, so a one-step run never compacts
    @pytest.mark.parametrize("max_steps", [1, 16])
    def test_truncated_steps(self, run, max_steps):
        _, steps, stopped = run(max_steps)
        assert stopped.any() == (max_steps > 1) and not stopped.all()
        assert (steps[~stopped] == max_steps).all()
        assert (steps[stopped] <= max_steps).all()


def assert_within_residual(law, truncated):
    """Every atom of the exact `law` lies within the residual of the
    `truncated` one, above it: the mass stopped by the cap stays put."""
    for site in set(law) | set(truncated.law):
        gap = law.get(site, 0) - truncated.law.get(site, 0)
        assert 0 <= gap <= truncated.residual, (site, law, truncated)


class TestExactLawOracle:
    """`exact_law` against brute-force enumeration of every increment word
    of length 2s, s <= 5, replayed through the rule's state machine.  The
    closed forms read no stage cap, so the keyed DP of `reference` meets
    the enumeration exactly, and the closed form lies within its residual."""

    @staticmethod
    def assert_closed_form_matches(rule, stages, key):
        law, residual = enumerated_law(rule, stages)
        dp = keyed_exact_law(rule, 2 * stages, key)
        assert (dp.law, dp.residual) == (law, residual)
        el = exact_law(rule)
        assert (el.residual, el.stages) == (0, 0)
        assert_within_residual(el.law, dp)

    @given(st.lists(chips(), max_size=4), st.integers(0, 5))
    def test_exit_composition(self, steps, stages):
        self.assert_closed_form_matches(ExitCompositionRule(tuple(steps)),
                                        stages, chip_state_key)

    @given(threshold_tables(), st.integers(0, 5))
    def test_max_threshold(self, table, stages):
        self.assert_closed_form_matches(MaxThresholdRule(table), stages,
                                        max_state_key)

    @settings(deadline=None)
    @given(st.one_of(
        st.lists(chips(), max_size=4).map(
            lambda c: (ExitCompositionRule(tuple(c)), chip_state_key)),
        threshold_tables().map(lambda t: (MaxThresholdRule(t),
                                          max_state_key))))
    # levels above every site until the running maximum passes the table
    @example((MaxThresholdRule(((-2, 5), (-1, 5), (0, 5), (1, 5), (2, 5))),
              max_state_key))
    def test_closed_forms_within_keyed_dp(self, case):
        # at 400 stages; where every path has stopped, the two are equal
        rule, key = case
        dp = keyed_exact_law(rule, 800, key)
        el = exact_law(rule)
        assert el.residual == 0
        assert_within_residual(el.law, dp)
        if dp.residual == 0:
            assert el.law == dp.law

    # `exit_law` visits only the sites strictly inside each chip, so chips
    # that hold no mass, and ends that already hold mass, must add up
    @settings(deadline=None, max_examples=60)
    @given(st.lists(chips(), max_size=6))
    @example([ChipStep(2, 4)])  # nothing inside
    @example([ChipStep(-1, 1), ChipStep(-1, 1)])  # emptied by the first
    @example([ChipStep(-1, 1), ChipStep(0, 2), ChipStep(-1, 2)])  # both ends
    @example([ChipStep(-1, 1), ChipStep(-3, 1), ChipStep(-4, 4)])
    def test_exit_law_within_keyed_dp(self, steps):
        dp = keyed_exact_law(ExitCompositionRule(tuple(steps)), 800,
                             chip_state_key)
        law = exit_law(steps)
        assert sum(law.values()) == 1 and min(law.values()) > 0
        assert_within_residual(law, dp)
        if dp.residual == 0:
            assert law == dp.law

    # 2/9 and the non-centred target have cut points that are not dyadic,
    # so some words are still selecting their target at every stage
    @pytest.mark.parametrize("mu", [
        MU_516,
        measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)}),
        measure({-5: Q(1, 7), 2: Q(6, 7)}),
    ], ids=["5/16", "2/9", "non-centred"])
    def test_minimal(self, mu):
        rule = MinimalRule(minimal_certificate(mu))
        for stages in range(6):
            self.assert_closed_form_matches(rule, stages, _old_minimal_key)

    def test_early_stop_with_huge_stage_cap(self):
        # the DP ends when every path has stopped; a stage cap far beyond
        # that must cost nothing, and the closed form reads no cap at all
        rule = MaxThresholdRule(((-1, 0), (0, 1), (1, 1)))
        el = keyed_exact_law(rule, 2 * 10**12, max_state_key)
        assert (el.law, el.residual, el.stages) == (
            {-1: Q(1, 2), 1: Q(1, 2)}, 0, 1)
        el = exact_law(rule)
        assert (el.law, el.residual, el.stages) == (
            {-1: Q(1, 2), 1: Q(1, 2)}, 0, 0)

    def test_key_step_cap_ends_at_a_stage_boundary(self, monkeypatch):
        # a keyed DP that the key-step cap ends equals an uncapped run to
        # the stages it reports, so the cap never splits a stage
        rule = MinimalRule(minimal_certificate(MU_516))
        for cap in range(1, 60, 3):
            monkeypatch.setattr(reference, "MAX_KEY_STEPS", cap)
            capped = keyed_exact_law(rule, 200, _old_minimal_key)
            monkeypatch.undo()
            assert capped.stages < 100
            assert keyed_exact_law(rule, 2 * capped.stages,
                                   _old_minimal_key) == capped


def _old_minimal_key(state):
    # the merged-state key the keyed DP once used for minimal rules: the
    # dyadic interval before resolution, (target, position) after
    if state.target is None:
        return (state.low, state.width, state.position)
    return (state.target, state.position)


@st.composite
def minimal_targets(draw):
    """1-5 atoms in [-8, 8] with weights n_i / q, where q has an odd factor
    so that most cut points are not dyadic and some words are still
    selecting at every stage."""
    q = draw(st.sampled_from([3, 5, 7, 9, 11])) << draw(st.integers(0, 3))
    sites = draw(st.lists(st.integers(-8, 8), min_size=1,
                          max_size=min(5, q), unique=True))
    cuts = sorted(draw(st.sets(st.integers(1, q - 1),
                               min_size=len(sites) - 1,
                               max_size=len(sites) - 1)))
    return measure({s: Q(b - a, q)
                    for s, a, b in zip(sites, [0] + cuts, cuts + [q])})


class TestMinimalExactLaw:
    """The closed form of minimal rules against the keyed DP on the rule's
    state machine."""

    @staticmethod
    def keyed_dp(rule, stages):
        return keyed_exact_law(rule, 2 * stages, _old_minimal_key)

    @given(minimal_targets().map(minimal_certificate), st.integers(0, 40))
    # selected at once, far from the origin
    @example(minimal_certificate(measure({5: Q(1)})), 40)
    @example(minimal_certificate(measure({0: Q(1)})), 3)  # stopped at time 0
    # beyond the horizon
    @example(minimal_certificate(measure({-8: Q(1, 3), 8: Q(2, 3)})), 3)
    # a hand-written certificate that lists site 2 twice: its weights add
    @example(MinimalCertificate((2, -1, 2), (Q(1, 2), Q(1, 4), Q(1, 4))), 40)
    def test_same_law_as_keyed_dp(self, cert, stages):
        # the closed form lies within the DP's residual, and equals the
        # DP's law where every path has stopped
        el = exact_law(MinimalRule(cert))
        dp = self.keyed_dp(MinimalRule(cert), stages)
        assert (el.residual, el.stages) == (0, 0)
        assert_within_residual(el.law, dp)
        if dp.residual == 0:
            assert el.law == dp.law

    @pytest.mark.parametrize("mu", [
        MU_516,
        measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)}),
        measure({-5: Q(1, 7), 2: Q(6, 7)}),
    ], ids=["5/16", "2/9", "non-centred"])
    def test_key_step_cap_same_as_keyed_dp(self, monkeypatch, mu):
        # the cap counts live selection words plus live (target, position)
        # keys; a capped DP is the uncapped one at the stages it reports,
        # and the closed form lies within its residual
        rule = MinimalRule(minimal_certificate(mu))
        law = exact_law(rule).law
        for cap in range(1, 2000, 97):
            monkeypatch.setattr(reference, "MAX_KEY_STEPS", cap)
            capped = self.keyed_dp(rule, 60)
            monkeypatch.undo()
            assert capped == self.keyed_dp(rule, capped.stages)
            assert_within_residual(law, capped)

    @pytest.mark.parametrize("mu", [
        measure({10**9: Q(1)}),
        measure({-10**9: Q(1, 3), 10**9: Q(2, 3)}),
        measure({-10**6: Q(1, 2), 10**6: Q(1, 2)}),
    ], ids=["atom-1e9", "atoms-1e9", "centred-1e6"])
    def test_far_sites_stay_small(self, mu):
        # the closed form reads the certificate, not the walk, so a far
        # target returns its law at once
        t0 = time.perf_counter()
        el = exact_law(MinimalRule(minimal_certificate(mu)))
        assert time.perf_counter() - t0 < 0.1
        assert (el.law, el.residual, el.stages) == (mu.atoms, 0, 0)

    @pytest.mark.parametrize("mu, stages", [
        (MU_516, 579),
        (measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)}), 500),
    ], ids=["5/16", "2/9"])
    def test_default_cap_stage(self, mu, stages):
        # the stages at which MAX_KEY_STEPS ends the keyed DP; the closed
        # form lies within the residual it leaves
        rule = MinimalRule(minimal_certificate(mu))
        dp = self.keyed_dp(rule, 8000)
        assert dp.stages == stages
        assert sum(dp.law.values()) + dp.residual == 1
        assert_within_residual(exact_law(rule).law, dp)
