"""Classic constructions: barycenter rule, chipping, pair rules, minimal."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
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
    measure_from_potential,
    minimal_certificate,
    potential,
    replay_chips,
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
