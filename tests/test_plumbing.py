import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from strataglue.fields import GaussianRational
from strataglue.plumbing import (
    HorocycleStructure,
    PlumbingError,
    PlumbingFixture,
    blend,
    canonical_horocycle,
    cusp_to_disk,
    excision_region,
    horocycle_length,
    plumb,
    validate_horocycle,
)

import oracles


class TestCuspToDisk:
    def test_boundary_horocycle(self):
        assert abs(cusp_to_disk(1j) - math.exp(-2 * math.pi)) < 1e-15

    def test_period_one(self):
        assert cusp_to_disk(1j) == pytest.approx(cusp_to_disk(1 + 1j))

    def test_height_two(self):
        assert abs(cusp_to_disk(2j)) == pytest.approx(math.exp(-4 * math.pi))

    def test_below_cusp_rejected(self):
        with pytest.raises(PlumbingError):
            cusp_to_disk(0.5j)

    @given(st.floats(1.0, 5.0), st.floats(-3.0, 3.0))
    def test_maps_horocycles_to_circles(self, y, x):
        z = cusp_to_disk(complex(x, y))
        assert abs(z) == pytest.approx(math.exp(-2 * math.pi * y))


class TestHorocycleLength:
    def test_double_cusp_height(self):
        assert horocycle_length(math.exp(-4 * math.pi)) == pytest.approx(0.5)

    def test_height_three_halves(self):
        c = math.exp(-3 * math.pi)
        assert horocycle_length(c) == pytest.approx(Fraction(2, 3))
        assert abs(horocycle_length(c)
                   - oracles.horocycle_length_quadrature(c)) < 1e-9

    def test_agrees_with_quadrature_grid(self):
        for k in range(1, 26):
            c = math.exp(-2 * math.pi * (1 + k / 5))
            assert abs(horocycle_length(c)
                       - oracles.horocycle_length_quadrature(c)) < 1e-9

    def test_monotone_increasing(self):
        cs = [math.exp(-2 * math.pi * y) for y in (4.0, 3.0, 2.0, 1.5)]
        ls = [horocycle_length(c) for c in cs]
        assert ls == sorted(ls)

    def test_out_of_range(self):
        with pytest.raises(PlumbingError):
            horocycle_length(0.5)
        with pytest.raises(PlumbingError):
            horocycle_length(0.0)


class TestPlumb:
    def test_example(self):
        fx = PlumbingFixture(GaussianRational(Fraction(1, 16)),
                             Fraction(1, 2))
        w = plumb(GaussianRational(Fraction(1, 4)), fx)
        assert w == GaussianRational(Fraction(1, 4))

    def test_boundary_rejected(self):
        fx = PlumbingFixture(GaussianRational(Fraction(1, 16)),
                             Fraction(1, 2))
        with pytest.raises(PlumbingError):
            plumb(GaussianRational(Fraction(1, 2)), fx)

    def test_involution(self):
        fx = PlumbingFixture(
            GaussianRational(Fraction(1, 32), Fraction(1, 64)),
            Fraction(1, 2))
        z = GaussianRational(Fraction(1, 4), Fraction(1, 8))
        assert plumb(plumb(z, fx), fx) == z

    @given(st.integers(-40, 40), st.integers(-40, 40))
    def test_exact_product(self, a, b):
        z = GaussianRational(Fraction(a, 100), Fraction(b, 100))
        fx = PlumbingFixture(
            GaussianRational(Fraction(1, 64), Fraction(1, 128)),
            Fraction(1, 2))
        if not fx.in_annulus(z):
            return
        assert z * plumb(z, fx) == fx.t

    def test_fixture_invariants(self):
        with pytest.raises(PlumbingError):
            PlumbingFixture(GaussianRational(1), Fraction(1, 2))
        with pytest.raises(PlumbingError):
            PlumbingFixture(GaussianRational(0), Fraction(1, 2))


class TestExcision:
    def test_nodal(self):
        out = excision_region([GaussianRational(0)], Fraction(1, 2))
        assert out[0]["type"] == "node"
        assert out[0]["identification"] is None

    def test_smoothed(self):
        out = excision_region([GaussianRational(Fraction(1, 16))],
                              Fraction(1, 2))
        assert out[0]["type"] == "annulus"
        assert "z*w" in out[0]["identification"]

    def test_mixed(self):
        out = excision_region(
            [GaussianRational(Fraction(1, 16)), GaussianRational(0)],
            Fraction(1, 2))
        assert [r["type"] for r in out] == ["annulus", "node"]

    def test_large_parameter_rejected(self):
        with pytest.raises(PlumbingError):
            excision_region([GaussianRational(1)], Fraction(1, 2))


def series(*coeffs):
    return tuple(GaussianRational(Fraction(c)) if not isinstance(c, tuple)
                 else GaussianRational(Fraction(c[0]), Fraction(c[1]))
                 for c in coeffs)


class TestValidateHorocycle:
    def test_canonical(self):
        ok, reason = validate_horocycle(canonical_horocycle())
        assert ok and reason is None

    def test_wrong_linear_term(self):
        h = HorocycleStructure(1, Fraction(1, 2), series(2))
        ok, reason = validate_horocycle(h)
        assert not ok and "linear" in reason

    def test_certificate_failure(self):
        h = HorocycleStructure(1, Fraction(1, 2), series(1, 100))
        ok, reason = validate_horocycle(h)
        assert not ok and "certificate" in reason


class TestBlend:
    def test_self_blend_identity(self):
        h = HorocycleStructure(1, Fraction(1, 4), series(1, Fraction(1, 4)))
        out = blend(h, h, Fraction(1, 3))
        assert out == h

    def test_s_zero(self):
        h0 = HorocycleStructure(1, Fraction(1, 2), series(1))
        h1 = HorocycleStructure(2, Fraction(1, 4),
                                series(1, Fraction(1, 4)))
        out = blend(h0, h1, 0)
        assert out.coefficients[:1] == h0.coefficients
        assert out.scale == h0.scale
        assert out.delta <= h0.delta

    def test_midpoint_example(self):
        h0 = HorocycleStructure(1, 1, series(1))
        h1 = HorocycleStructure(1, 1, series(1, Fraction(1, 4)))
        out = blend(h0, h1, Fraction(1, 2))
        assert out.coefficients[1] == GaussianRational(Fraction(1, 8))
        # certificate margin 1 - 2*(1/8)*delta stays positive up to the cap
        assert out.delta == 1

    def test_normalization_preserved_exactly(self):
        h0 = canonical_horocycle()
        h1 = HorocycleStructure(
            Fraction(3, 2), Fraction(1, 8),
            series(1, (Fraction(1, 7), Fraction(-1, 9)), Fraction(2, 11)))
        out = blend(h0, h1, Fraction(5, 13))
        assert out.coefficients[0] == GaussianRational(1)
        ok, _ = validate_horocycle(out)
        assert ok

    @given(st.fractions(0, 1), st.fractions(0, 1))
    @settings(max_examples=40)
    def test_associative_path(self, s, sp):
        h0 = HorocycleStructure(1, Fraction(1, 4),
                                series(1, Fraction(1, 5), Fraction(1, 7)))
        h1 = HorocycleStructure(2, Fraction(1, 4),
                                series(1, Fraction(-1, 6)))
        left = blend(blend(h0, h1, s), h1, sp)
        right = blend(h0, h1, s + sp * (1 - s))
        assert left.coefficients == right.coefficients
        assert left.scale == right.scale

    def test_invalid_input_rejected(self):
        bad = HorocycleStructure(1, Fraction(1, 2), series(2))
        with pytest.raises(PlumbingError):
            blend(bad, canonical_horocycle(), Fraction(1, 2))


class TestSerialization:
    def test_structure_roundtrip(self):
        h = HorocycleStructure(
            Fraction(3, 2), Fraction(1, 8),
            series(1, (Fraction(1, 7), Fraction(-1, 9))))
        assert HorocycleStructure.from_json(h.to_json()) == h

    def test_fixture_roundtrip(self):
        fx = PlumbingFixture(
            GaussianRational(Fraction(1, 32), Fraction(1, 64)),
            Fraction(1, 2))
        assert PlumbingFixture.from_json(fx.to_json()) == fx
