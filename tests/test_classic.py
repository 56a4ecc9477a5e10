"""Classic constructions: barycenter rule, chipping, pair rules, minimal."""

from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walkembed import (
    ChipStep,
    ChwStatus,
    ExitCompositionRule,
    azema_yor_check,
    chip_apply,
    chw_search,
    exact_law,
    hall_rule,
    hall_stopped_law,
    measure,
    minimal_certificate,
    potential,
    replay_chips,
)
from walkembed import classic
from walkembed.classic import (
    _children,
    _cover,
    _next_kinks,
    _tangent_tail,
    _to_state,
)
from reference import (
    measure_from_potential,
    reference_chord,
    reference_chw_search,
    reference_cover,
    reference_tangent_tail,
)

MU_29 = measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)})
MU_516 = measure({0: Q(5, 16), -2: Q(11, 32), 2: Q(11, 32)})
BERNOULLI = measure({-1: Q(1, 2), 1: Q(1, 2)})


def centered_measures():
    @st.composite
    def build(draw):
        sites = draw(st.lists(st.integers(-5, 5), min_size=2, max_size=4,
                              unique=True))
        raw = [draw(st.integers(1, 9)) for _ in sites]
        # recenter by brute force: shift mass between extremes is fiddly,
        # so instead symmetrize: mu(x) + mu(-x) pattern is always centered
        atoms: dict[int, Q] = {}
        total = 2 * sum(raw)
        for s, r in zip(sites, raw):
            for site in (s, -s):
                atoms[site] = atoms.get(site, Q(0)) + Q(r, total)
        return measure(atoms)

    return build()


class TestAzemaYor:
    def test_bernoulli_member(self):
        res = azema_yor_check(BERNOULLI)
        assert res.member
        assert res.thresholds == {-1: 0, 0: 1, 1: 1}

    def test_two_ninths_witness(self):
        res = azema_yor_check(MU_29)
        assert not res.member
        assert res.witness_site == 0
        assert res.witness_value == Q(6, 7)

    def test_uniform_three_nonmember(self):
        res = azema_yor_check(measure({-1: Q(1, 3), 0: Q(1, 3), 1: Q(1, 3)}))
        assert not res.member


class TestChipping:
    def test_chip_is_chord_minimum(self):
        u0 = replay_chips(())
        u1 = chip_apply(u0, ChipStep(-1, 2))
        assert u1.value_at(0) == Q(-4, 3)
        assert u1.value_at(1) == Q(-5, 3)
        assert u1.value_at(-1) == Q(-1)

    def test_replay_matches_target(self):
        u = replay_chips((ChipStep(-1, 2), ChipStep(-3, 0)))
        target = potential(MU_29)
        for k in range(-5, 5):
            assert u.value_at(k) == target.value_at(k)

    def test_search_finds_minimal_witness(self):
        res = chw_search(MU_29, max_depth=4)
        assert res.status is ChwStatus.MEMBER
        assert len(res.steps) == 2

    def test_refutation_is_depth_bounded(self):
        res = chw_search(MU_516, max_depth=8)
        assert res.status is ChwStatus.NON_MEMBER_UP_TO_DEPTH
        assert res.depth_searched == 8

    def test_witness_chips_compose_to_target(self):
        res = chw_search(MU_29, max_depth=4)
        u = replay_chips(res.steps)
        target = potential(MU_29)
        assert all(u.value_at(k) == target.value_at(k) for k in range(-6, 6))

    # every witness of the search, tangent completions included, replays
    # to the target through the independent `chip_apply` reference
    @settings(max_examples=50)
    @given(centered_measures())
    def test_search_witnesses_replay_to_target(self, mu):
        res = chw_search(mu, max_depth=2)
        if res.status is ChwStatus.MEMBER:
            assert measure_from_potential(replay_chips(res.steps)) == mu
        elif res.status is ChwStatus.NON_MEMBER_UP_TO_DEPTH:
            assert res.depth_searched == 2

    def test_reversed_chip_rejected(self):
        with pytest.raises(ValueError):
            ChipStep(1, 0)

    def test_adjacent_chip_is_identity(self):
        # the open interval (0, 1) contains no integer: exiting is immediate
        u0 = replay_chips(())
        u1 = chip_apply(u0, ChipStep(0, 1))
        assert all(u1.value_at(k) == u0.value_at(k) for k in range(-4, 5))


    def test_replay_keeps_kinks_on_asymptote(self):
        # the hull ends -3 and 5 lie on the asymptote while their inner
        # neighbours lie below it, so both are atoms and must stay
        chips = (ChipStep(-1, 3), ChipStep(-3, 0), ChipStep(0, 3),
                 ChipStep(1, 5))
        mu = measure_from_potential(replay_chips(chips))
        assert mu == measure({-3: Q(1, 4), 0: Q(1, 2), 1: Q(1, 8),
                              5: Q(1, 8)})
        el = exact_law(ExitCompositionRule(chips))
        for s in mu.support:
            assert abs(el.law[s] - mu.weight(s)) <= el.residual


def chord_cases():
    """A centred target and a chip prefix with ends on the target's hull."""
    @st.composite
    def build(draw):
        mu = draw(centered_measures())
        lo, hi = mu.support[0], mu.support[-1]
        ends = st.tuples(st.integers(lo, hi), st.integers(lo, hi))
        chips = draw(st.lists(ends.filter(lambda p: p[0] < p[1]), max_size=4))
        return mu, [ChipStep(a, b) for a, b in chips]

    return build()


def searched_state(case):
    """The integer state and target state of a chord case, its chips
    applied by `reference_chord` where they are live, so the state lies
    on or above the target as every search state does."""
    mu, chips = case
    u_mu = potential(mu)
    lo = u_mu.lo
    target = _to_state(u_mu.values)
    state = _to_state([-Q(abs(k)) for k in range(lo, u_mu.hi + 1)])
    for c in chips:
        state = reference_chord(state, target, c.a - lo, c.b - lo) or state
    return state, target


class TestIntegerChord:
    # `reference_chord` on integer states against the `Fraction` reference
    # `chip_apply`, for every hull pair of states reached by chip prefixes
    @settings(max_examples=100)
    @given(chord_cases())
    def test_chord_matches_chip_apply(self, case):
        mu, chips = case
        u_mu = potential(mu)
        sites = range(u_mu.lo, u_mu.hi + 1)
        u = replay_chips(chips)
        before = [u.value_at(k) for k in sites]
        target = [u_mu.value_at(k) for k in sites]
        state, tstate = _to_state(before), _to_state(target)
        n = len(sites)
        for a in range(n):
            for b in range(a + 1, n):
                after = chip_apply(u, ChipStep(sites[a], sites[b]))
                ref = [after.value_at(k) for k in sites]
                lowered = [k for k in range(n) if ref[k] < before[k]]
                got = reference_chord(state, tstate, a, b)
                if not lowered or any(ref[k] < target[k] for k in lowered):
                    assert got is None
                    continue
                nums, d = got
                assert [Q(x, d) for x in nums] == ref
                assert got == _to_state(ref)  # canonical: gcd-reduced

    # with no last chord, `_children` yields for each a every b from the
    # state's first kink right of a up to a's first dead chord, each child
    # the reference chord's
    @settings(max_examples=150)
    @given(chord_cases())
    def test_children_match_reference_chord(self, case):
        state, target = searched_state(case)
        nums, d = state
        n = len(nums)
        kinks = [k for k in range(1, n - 1)
                 if 2 * nums[k] != nums[k - 1] + nums[k + 1]]
        want = []
        for a in range(n):
            first = min((k + 1 for k in kinks if k > a), default=n)
            for b in range(first, n):
                child = reference_chord(state, target, a, b)
                if child is None:
                    break
                want.append((a, b, child))
        assert list(_children(state, target, _next_kinks(target[0]),
                              (-1, n))) == want

    def test_child_denominator_below_state_denominator(self):
        # w = 4 but the child's gcd is g = 6: the outside numerators are
        # scaled by w / g, which w // g would floor to 0
        state = ((-6, -3, -4, -5, -6, -9), 3)
        target = ((-320, -317, -329, -361, -418, -480), 160)
        tkinks = _next_kinks(target[0])
        children = {(a, b): c for a, b, c in _children(state, target, tkinks,
                                                       (-1, 6))}
        assert children[(1, 5)] == ((-4, -2, -3, -4, -5, -6), 2)
        assert children[(1, 5)] == reference_chord(state, target, 1, 5)

    # the chord-free completion against one that applies every tangent
    # chord, at every limit
    @settings(max_examples=150)
    @given(chord_cases())
    def test_tangent_tail_matches_reference(self, case):
        state, target = searched_state(case)
        n = len(target[0])
        tkinks = _next_kinks(target[0])
        for limit in range(n + 1):
            assert (_tangent_tail(state, target, tkinks, limit)
                    == reference_tangent_tail(state, target, limit))

    # the kink index against a brute-force kink list; it reads only the
    # ratios of the numerators, so a multiple has the same one
    @settings(max_examples=200)
    @given(st.lists(st.integers(-30, 30), max_size=12), st.integers(1, 9))
    def test_kink_index_matches_brute_force(self, nums, scale):
        n = len(nums)
        kinks = [k for k in range(1, n - 1)
                 if nums[k - 1] - 2 * nums[k] + nums[k + 1]]
        want = [min((k for k in kinks if k > i), default=n) for i in range(n)]
        assert _next_kinks(nums) == want
        assert _next_kinks([scale * x for x in nums]) == want

    def test_state_is_canonical(self):
        assert _to_state([Q(-2, 4), Q(-1), Q(-3, 2)]) == ((-1, -2, -3), 2)
        assert _to_state([Q(0), Q(-1), Q(0)]) == ((0, -1, 0), 1)


FIVE_ATOM = measure({-6: Q(1, 8), -2: Q(1, 4), 0: Q(1, 4), 2: Q(1, 4),
                     6: Q(1, 8)})


class TestSearchResults:
    # (status, steps, depth_searched) as the `Fraction` search gave them,
    # and the size of the visited set under the cover bound
    FROZEN = [
        (MU_516, 5, "nonMemberUpToDepth", [], 5, 17),
        (MU_29, 5, "member", [(-1, 2), (-3, 0)], 2, 11),
        (measure({0: Q(1, 6), -2: Q(5, 12), 2: Q(5, 12)}), 5, "member",
         [(-1, 1), (-2, 0), (-1, 2), (-2, 0)], 4, 14),
        (measure({0: Q(3, 4), -4: Q(1, 8), 4: Q(1, 8)}), 5, "member",
         [(-1, 1), (-4, 0), (0, 4)], 3, 11),
        (measure({-1: Q(1, 3), 0: Q(1, 3), 1: Q(1, 3)}), 5,
         "nonMemberUpToDepth", [], 5, 1),
        (FIVE_ATOM, 3, "member", [(-3, 1), (0, 6), (-6, 0), (-2, 1), (0, 2)],
         3, 538),
        (FIVE_ATOM, 4, "member", [(-3, 1), (0, 6), (-6, 0), (-2, 1), (0, 2)],
         4, 553),
    ]

    @pytest.mark.parametrize("mu, depth, status, steps, searched, states",
                             FROZEN, ids=["5/16", "2/9", "1/6", "3/4",
                                          "uniform3", "five-atom",
                                          "five-atom-4"])
    def test_frozen_results(self, mu, depth, status, steps, searched, states):
        res = chw_search(mu, max_depth=depth)
        assert res.status.value == status
        assert [(s.a, s.b) for s in res.steps] == steps
        assert res.depth_searched == searched
        assert res.states_searched == states

    def test_state_budget_without_witness(self, monkeypatch):
        monkeypatch.setattr(classic, "MAX_STATES", 3)
        res = chw_search(MU_516, max_depth=8)
        assert res.status is ChwStatus.UNKNOWN
        assert res.steps == ()
        assert (res.depth_searched, res.states_searched) == (1, 4)

    def test_state_budget_with_tangent_witness(self, monkeypatch):
        # the start state's tangent completion is in hand when the budget
        # runs out: it is returned although BFS would find a shorter one
        monkeypatch.setattr(classic, "MAX_STATES", 1)
        res = chw_search(MU_29, max_depth=4)
        assert res.status is ChwStatus.MEMBER
        assert len(res.steps) == 3
        assert measure_from_potential(replay_chips(res.steps)) == MU_29
        assert (res.depth_searched, res.states_searched) == (1, 2)

    # the numerator budget counts n per state: MU_516's 5-site hull passes
    # 15 at its fourth state, and MU_29's 6-site hull passes 6 at its
    # second, with its start's tangent witness in hand
    def test_numerator_budget(self, monkeypatch):
        monkeypatch.setattr(classic, "MAX_NUMERATORS", 15)
        res = chw_search(MU_516, max_depth=8)
        assert res.status is ChwStatus.UNKNOWN
        assert (res.depth_searched, res.states_searched) == (1, 4)
        monkeypatch.setattr(classic, "MAX_NUMERATORS", 6)
        res = chw_search(MU_29, max_depth=4)
        assert res.status is ChwStatus.MEMBER and len(res.steps) == 3
        assert (res.depth_searched, res.states_searched) == (1, 2)

    def test_numerator_budget_spares_41_sites(self):
        # a hull of at most 41 sites passes MAX_STATES first
        assert classic.MAX_NUMERATORS >= 41 * (classic.MAX_STATES + 1)

    def test_states_searched_counts_distinct_states(self):
        assert chw_search(BERNOULLI, max_depth=8).states_searched == 2
        assert chw_search(measure({0: 1}), max_depth=8).states_searched == 1


class TestSearchEquivalence:
    # the kink and containing skips, the dead-chord break, the kink index
    # and the bounded tangent change no verdict, witness or count of the
    # plain search with the same cover bound and commuting skip
    @settings(max_examples=150)
    @given(centered_measures(), st.integers(1, 5),
           st.sampled_from([1, 5, 40, 300]))
    def test_matches_reference(self, mu, depth, max_states):
        # hypothesis reruns the body, so the budget is set per example
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classic, "MAX_STATES", max_states)
            got = chw_search(mu, max_depth=depth)
        assert got == reference_chw_search(mu, depth, max_states)

    @pytest.mark.parametrize("mu", [MU_29, MU_516, FIVE_ATOM],
                             ids=["2/9", "5/16", "five-atom"])
    def test_named_targets_match_reference(self, monkeypatch, mu):
        monkeypatch.setattr(classic, "MAX_STATES", 2000)
        assert chw_search(mu, 3) == reference_chw_search(mu, 3, 2000)

    # budgets around the five-atom search's totals, 538 states by depth 3
    # and 553 by depth 4, around 544 and 561, its totals with the
    # commuting skip off once a witness is in hand, and around 1327, its
    # depth-3 total without the bound: a state found in another order
    # would change the cut
    @pytest.mark.parametrize("max_states", [1, 2, 50, 538, 539, 544, 545,
                                            553, 554, 561, 562, 1327, 1328,
                                            5000])
    def test_five_atom_budgets_match_reference(self, monkeypatch, max_states):
        monkeypatch.setattr(classic, "MAX_STATES", max_states)
        assert (chw_search(FIVE_ATOM, 4)
                == reference_chw_search(FIVE_ATOM, 4, max_states))

    # the skips and the cover bound yield 603 and 621 children at depths
    # 3 and 4, against 1583 and 12053 without the bound, and 2449 and
    # 21411 with only the kink skip and the break
    @pytest.mark.parametrize("depth, children", [(3, 603), (4, 621)])
    def test_skips_save_children(self, monkeypatch, depth, children):
        count = 0

        def counted(*args):
            nonlocal count
            for child in _children(*args):
                count += 1
                yield child

        monkeypatch.setattr(classic, "_children", counted)
        got = chw_search(FIVE_ATOM, depth)
        assert count == children
        assert got == reference_chw_search(FIVE_ATOM, depth,
                                           classic.MAX_STATES)


class TestCoverBound:
    # the package's cover, read off the integer state and the target's
    # kink table, against a brute-force cover on `Fraction` potentials
    @settings(max_examples=150)
    @given(chord_cases())
    def test_cover_matches_reference(self, case):
        state, target = searched_state(case)
        assert (_cover(state, target, _next_kinks(target[0]))
                == reference_cover(case[0], state))

    # admissible: after k chords of a witness of length L the cover is at
    # most L - k, on every witness of the search without the bound
    @settings(max_examples=100)
    @given(centered_measures(), st.integers(1, 4))
    @example(FIVE_ATOM, 3)  # a 5-chord tangent witness
    def test_cover_at_most_chords_left(self, mu, depth):
        res = reference_chw_search(mu, depth, 300, prune=False)
        if res.status is not ChwStatus.MEMBER:
            return
        u_mu = potential(mu)
        lo = u_mu.lo
        target = _to_state(u_mu.values)
        state = _to_state([-Q(abs(k)) for k in range(lo, u_mu.hi + 1)])
        tkinks = _next_kinks(target[0])
        for k, c in enumerate(res.steps):
            assert reference_cover(mu, state) <= len(res.steps) - k
            assert _cover(state, target, tkinks) <= len(res.steps) - k
            state = reference_chord(state, target, c.a - lo, c.b - lo)
        assert state == target and _cover(state, target, tkinks) == 0

    # wherever the search without the bound ends within its budget, the
    # bound changes no status, witness or depth, and visits no more states
    @settings(max_examples=150)
    @given(centered_measures(), st.integers(1, 5),
           st.sampled_from([40, 300, 2000]))
    # searches that the bound cuts: 1327 -> 538 and 18 -> 14 states
    @example(FIVE_ATOM, 3, 2000)
    @example(measure({0: Q(1, 6), -2: Q(5, 12), 2: Q(5, 12)}), 5, 300)
    def test_same_answer_as_unpruned(self, mu, depth, max_states):
        want = reference_chw_search(mu, depth, max_states, prune=False)
        if want.states_searched > max_states:
            return  # the budget cut the search without the bound
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classic, "MAX_STATES", max_states)
            got = chw_search(mu, max_depth=depth)
        assert ((got.status, got.steps, got.depth_searched)
                == (want.status, want.steps, want.depth_searched))
        assert got.states_searched <= want.states_searched


class TestHall:
    def test_uniform_pair_weights(self):
        mu = measure({-2: Q(1, 3), 0: Q(1, 3), 2: Q(1, 3)})
        rule = hall_rule(mu)
        law = {(u, v): w for u, v, w in rule.joint_law}
        assert law == {(-2, 0): Q(1, 3), (-2, 2): Q(2, 3)}

    def test_stopped_law_is_target(self):
        for mu in (MU_29, MU_516, BERNOULLI):
            assert hall_stopped_law(hall_rule(mu)) == mu

    def test_weights_sum_to_one(self):
        rule = hall_rule(MU_516)
        assert sum(w for _, _, w in rule.joint_law) == 1

    def test_requires_centered(self):
        with pytest.raises(Exception):
            hall_rule(measure({1: 1}))

    @given(centered_measures())
    def test_embeds_every_centered_law(self, mu):
        assert hall_stopped_law(hall_rule(mu)) == mu


class TestMinimalCertificate:
    def test_ordering_weight_descending_site_ascending(self):
        mu = measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)})
        cert = minimal_certificate(mu)
        assert cert.sites == (0, 2, -3)
        assert cert.weights == (Q(4, 9), Q(1, 3), Q(2, 9))
        assert cert.cut_points == (Q(4, 9), Q(7, 9), Q(1))

    def test_tie_breaks_by_site(self):
        cert = minimal_certificate(BERNOULLI)
        assert cert.sites == (-1, 1)

    def test_noncentered_allowed(self):
        cert = minimal_certificate(measure({-1: Q(1, 2), 3: Q(1, 2)}))
        assert set(cert.sites) == {-1, 3}
        assert cert.cut_points[-1] == 1
