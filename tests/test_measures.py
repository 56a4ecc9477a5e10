"""Measures, potentials and barycenters."""

from fractions import Fraction as Q

import pytest
from hypothesis import given
from hypothesis import strategies as st

from walkembed import (
    IntegerMeasure,
    MeasureError,
    barycenter,
    measure,
    potential,
)
from reference import measure_from_potential


def random_measures():
    """Strategy: finitely supported measures with denominators <= 64."""

    @st.composite
    def build(draw):
        sites = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=5,
                              unique=True))
        raw = [draw(st.integers(1, 12)) for _ in sites]
        total = sum(raw)
        return measure({s: Q(r, total) for s, r in zip(sites, raw)})

    return build()


class TestIntegerMeasure:
    def test_validation_sums_to_one(self):
        with pytest.raises(MeasureError, match="sum to"):
            measure({0: Q(1, 2)})

    def test_validation_negative(self):
        with pytest.raises(MeasureError, match="negative"):
            measure({0: Q(3, 2), 1: Q(-1, 2)})

    def test_zero_weights_dropped(self):
        mu = measure({0: Q(1), 5: Q(0)})
        assert mu.support == [0]

    def test_mean_and_centering(self):
        mu = measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)})
        assert mu.mean() == 0
        assert mu.is_centered()
        assert not measure({1: 1}).is_centered()

    def test_json_round_trip(self):
        mu = measure({-2: Q(11, 32), 0: Q(5, 16), 2: Q(11, 32)})
        assert IntegerMeasure.from_json_dict(mu.to_json_dict()) == mu

    def test_json_rejects_bad_site(self):
        with pytest.raises(MeasureError):
            IntegerMeasure.from_json_dict({"atoms": {"x": "1"}})

    @pytest.mark.parametrize("key", ["01", "+1", "1_0", "-0", " 1", "1.0"])
    def test_json_rejects_noncanonical_site(self, key):
        # "01" and "1" would both name site 1, and the later would win
        with pytest.raises(MeasureError, match="canonical"):
            IntegerMeasure.from_json_dict({"atoms": {key: "1/2", "-1": "1/2"}})

    @given(random_measures())
    def test_weights_sum_to_one(self, mu):
        assert sum(mu.atoms.values()) == 1


class TestPotential:
    def test_two_ninths_values(self):
        # u(x) = -sum |x-n| mu({n}) at the support hull sites
        mu = measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)})
        u = potential(mu)
        assert u.value_at(0) == Q(-4, 3)
        assert u.value_at(-1) == Q(-17, 9)
        assert u.value_at(-2) == Q(-22, 9)
        assert u.value_at(1) == Q(-5, 3)
        assert u.value_at(-3) == Q(-3)
        assert u.value_at(2) == Q(-2)

    def test_outside_hull_is_cone(self):
        mu = measure({-1: Q(1, 2), 1: Q(1, 2)})
        u = potential(mu)
        assert u.value_at(5) == Q(-5)
        assert u.value_at(-7) == Q(-7)

    def test_five_sixteenths_gap_values(self):
        mu = measure({0: Q(5, 16), -2: Q(11, 32), 2: Q(11, 32)})
        u = potential(mu)
        assert u.value_at(0) == Q(-11, 8)
        assert u.value_at(1) == Q(-27, 16)
        assert u.value_at(-1) == Q(-27, 16)

    @given(random_measures())
    def test_round_trip(self, mu):
        assert measure_from_potential(potential(mu)) == mu

    @given(random_measures())
    def test_concave_and_dominated(self, mu):
        u = potential(mu)
        for k in range(u.lo - 2, u.hi + 3):
            assert 2 * u.value_at(k) >= u.value_at(k - 1) + u.value_at(k + 1)
            assert u.value_at(k) <= -abs(Q(k) - u.mean)


class TestBarycenter:
    def test_two_ninths_witness(self):
        mu = measure({-3: Q(2, 9), 0: Q(4, 9), 2: Q(1, 3)})
        psi = barycenter(mu)
        assert psi.value_at(0) == Q(6, 7)
        assert psi.value_at(2) == 2
        assert psi.value_at(-3) == 0

    def test_above_support_is_identity(self):
        mu = measure({-1: Q(1, 2), 1: Q(1, 2)})
        psi = barycenter(mu)
        assert psi.value_at(7) == 7

    def test_requires_centered(self):
        with pytest.raises(MeasureError):
            barycenter(measure({1: 1}))

    @given(random_measures())
    def test_nondecreasing(self, mu):
        if not mu.is_centered():
            return
        psi = barycenter(mu)
        vals = [psi.value_at(k) for k in range(psi.lo - 1, psi.hi + 2)]
        assert all(x <= y for x, y in zip(vals, vals[1:]))
