import math
import sys

import mpmath
import pytest

from hypcatenoid import (
    CatenarySample,
    Tolerance,
    area_deficit,
    area_difference,
    catenary_x,
    catenoid,
    compute_K,
    concavity_terms,
    disk_area_total,
    find_cheaper_competitor,
    gomes_rho,
    mvt_f,
    plane_separation,
    sample_catenary,
    tube_area,
)

# Reference values frozen from an independent high-precision evaluation
# (50-digit arithmetic, substituted-head composite rules, direct root solves).
RHO_2 = 0.15996262350963
RHO_1E12 = 2.801731547704844e-11  # mpmath, 30 digits
X_05_1 = 0.42666568117547
TUBE_05_2 = 35.485035220537
PHI_A3 = 0.78131417197
L_06_3 = 0.98659320466039
L_1_3 = 0.78735973880037
I1_06 = -2.91956771379
I2_06 = -9.8652543134


class TestGomesRho:
    def test_near_critical(self, tol):
        assert gomes_rho(0.49577, tol) == pytest.approx(0.501145, abs=1e-4)

    def test_at_minimizing_threshold(self, tol):
        assert gomes_rho(0.847486, tol) == pytest.approx(0.4384475, abs=1e-5)

    def test_frozen_reference(self, tol):
        assert gomes_rho(2.0, tol) == pytest.approx(RHO_2, abs=1e-8)

    def test_tiny_neck_relative(self, tol):
        # Far below the default abs_tol: the value must still be exact.
        assert gomes_rho(1e-12, tol) == pytest.approx(RHO_1E12, rel=1e-14)

    def test_domain(self, tol):
        with pytest.raises(ValueError):
            gomes_rho(0.0, tol)
        with pytest.raises(ValueError):
            gomes_rho(30.0, tol)

    def test_large_neck_decays(self, tol):
        assert 0.0 < gomes_rho(25.0, tol) < 1e-9


class TestCatenaryX:
    def test_neck_value_is_zero(self):
        assert catenary_x(0.7, 0.7) == 0.0

    def test_saturates_to_rho(self, tol):
        assert catenary_x(0.5, 30.0) == pytest.approx(
            gomes_rho(0.5, tol), abs=1e-8
        )

    def test_far_from_neck_equals_rho(self, tol):
        # y - a is clamped where the remaining mass is below rounding.
        assert catenary_x(0.5, 1000.0) == pytest.approx(
            gomes_rho(0.5, tol), abs=1e-15
        )

    def test_frozen_reference(self):
        assert catenary_x(0.5, 1.0) == pytest.approx(X_05_1, abs=1e-10)

    def test_monotone_in_y(self):
        values = [catenary_x(0.5, y) for y in (0.5, 0.6, 1.0, 2.0, 5.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_below_neck_rejected(self):
        with pytest.raises(ValueError):
            catenary_x(0.5, 0.4)

    def test_infinite_y_is_rho(self, tol):
        # The _TAIL_SPAN clamp takes y = inf to the same point as y = 1000.
        for a in (0.01, 0.6, 3.0):
            x = catenary_x(a, math.inf)
            assert x == catenary_x(a, 1000.0)
            assert x == pytest.approx(gomes_rho(a, tol), rel=8.0 * sys.float_info.epsilon)

    def test_smallest_supported_neck(self):
        # Next to the neck the Carlson arguments are all about sinh(a)**2,
        # so the floor is where sinh(a)**3 stops being a normal double.
        floor = catenoid._PROFILE_NECK_MIN
        assert floor == sys.float_info.min ** (1.0 / 3.0)
        for a in (floor, 1e-100, 3e-82):
            for offset in (0.0, 1e-300, a * 1e-12, a, 1e-3, 1.0, 100.0):
                x = catenary_x(a, a + offset)
                assert math.isfinite(x) and x >= 0.0, (a, offset)
        for a in (math.nextafter(floor, 0.0), 1e-155, 1e-200):
            with pytest.raises(ValueError, match="smallest the profile"):
                catenary_x(a, 1.0)

    def test_small_neck_through_callers(self, tol):
        points = sample_catenary(1e-100, 1.0, 3, tol).points
        assert points[0] == (0.0, 1e-100) and points[-1][0] == catenary_x(1e-100, 1.0)
        assert plane_separation(1e-100, 1.0) == 2.0 * points[-1][0]
        with pytest.raises(ValueError, match="smallest the profile"):
            sample_catenary(1e-200, 1.0, 3, tol)
        with pytest.raises(ValueError, match="smallest the profile"):
            plane_separation(1e-200, 1.0)


# Profile shapes (a, y_max, n) of the mesh tests and of the oracle's points.
SAMPLE_SHAPES = (
    (1e-100, 1.0, 4), (1e-8, 1.0, 32), (1e-3, 2.0, 32), (0.6, 3.0, 48),
    (2.0, 6.0, 32), (25.0, 26.0, 9), (0.6, 34.5, 32), (0.3, 0.8, 9),
    (1.5, 2.2, 9), (0.1, 45.0, 9), (19.0, 22.0, 9),
)


class TestSampleCatenary:
    @pytest.mark.parametrize("a, y_max, n", SAMPLE_SHAPES)
    def test_rows_are_catenary_x(self, a, y_max, n, tol):
        # One code path: a row's x is catenary_x at its y bit for bit, in
        # the tail form and the neck form alike.
        points = sample_catenary(a, y_max, n, tol).points
        assert [x for x, _ in points] == [catenary_x(a, y) for _, y in points]

    def test_degenerate_span(self, tol):
        sample = sample_catenary(0.5, 0.5 + 1e-9, 2, tol)
        assert all(abs(x) <= 1e-4 for x, _ in sample.points)

    def test_sample_invariants(self, tol):
        sample = sample_catenary(0.5, 3.0, 64, tol)
        assert isinstance(sample, CatenarySample)
        xs = [x for x, _ in sample.points]
        ys = [y for _, y in sample.points]
        assert xs[0] == 0.0
        assert all(y >= 0.5 for y in ys)
        assert all(b >= a for a, b in zip(xs, xs[1:]))
        assert all(b > a for a, b in zip(ys, ys[1:]))
        rho = gomes_rho(0.5, tol)
        assert all(abs(x) < rho for x in xs)

    def test_below_limit(self, tol):
        sample = sample_catenary(1.0, 4.0, 32, tol)
        assert max(x for x, _ in sample.points) < gomes_rho(1.0, tol)

    def test_conservation_law(self, tol):
        # 2 pi sinh y cosh y sin(theta) must equal pi sinh(2a) along the
        # curve; theta comes from finite-difference tangents in the warped
        # metric ds^2 = cosh^2(y) dx^2 + dy^2.
        a = 0.5
        sample = sample_catenary(a, 3.0, 64, tol)
        k_expected = math.pi * math.sinh(2.0 * a)
        for (x1, y1), (x2, y2) in zip(sample.points, sample.points[1:]):
            ym = 0.5 * (y1 + y2)
            dx = x2 - x1
            dy = y2 - y1
            sin_theta = (
                math.cosh(ym)
                * dx
                / math.hypot(math.cosh(ym) * dx, dy)
            )
            k = 2.0 * math.pi * math.sinh(ym) * math.cosh(ym) * sin_theta
            assert k == pytest.approx(k_expected, rel=0.01)

    def test_domain(self, tol):
        with pytest.raises(ValueError):
            sample_catenary(0.5, 0.4, 8, tol)
        with pytest.raises(ValueError):
            sample_catenary(0.5, 3.0, 1, tol)

    def test_infinite_y_max_rejected(self, tol):
        # The first node would be a + inf * 0 = nan.
        with pytest.raises(ValueError, match="y_max"):
            sample_catenary(0.6, math.inf, 3, tol)


class TestDiskArea:
    def test_zero_radius(self):
        assert disk_area_total(0.0) == 0.0

    def test_closed_form(self):
        assert disk_area_total(1.0) == pytest.approx(
            4.0 * math.pi * (math.cosh(1.0) - 1.0), abs=1e-14
        )
        assert disk_area_total(2.0) == pytest.approx(
            4.0 * math.pi * (math.cosh(2.0) - 1.0), abs=1e-14
        )

    @pytest.mark.parametrize("r", [1e-8, 1e-5, 1e-3, 0.1, 3.0, 700.0])
    def test_matches_mpmath(self, r):
        # 4 pi (cosh r - 1) cancels every digit at r = 1e-8; the area is
        # evaluated without that cancellation, so it keeps full relative
        # accuracy whatever r is.
        with mpmath.workdps(50):
            want = 4 * mpmath.pi * (mpmath.cosh(r) - 1)
            error = abs(disk_area_total(r) - want) / want
        assert error <= 4.0 * sys.float_info.epsilon

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            disk_area_total(-0.1)

    def test_inf_where_cosh_overflows(self):
        assert math.isfinite(disk_area_total(700.0))
        assert disk_area_total(711.0) == disk_area_total(math.inf) == math.inf
        assert disk_area_total(2000.0) == math.inf


class TestAreaDifference:
    def test_collapsed_tube(self):
        for a in (0.2, 0.7, 1.5):
            assert tube_area(a, a) == 0.0
            assert area_difference(a, a) == -(8.0 * math.pi * math.sinh(0.5 * a) ** 2)

    def test_frozen_tube_area(self):
        assert tube_area(0.5, 2.0) == pytest.approx(TUBE_05_2, abs=1e-8)

    def test_report_identity(self):
        # The tube area is Phi plus the disks, bit for bit.
        for a, r in ((0.5, 2.0), (0.9, 5.0), (1.5, 21.5)):
            phi = area_difference(a, r)
            assert type(phi) is float
            assert tube_area(a, r) == phi + disk_area_total(r)

    def test_sign_examples(self):
        assert area_difference(0.5, 3.0) > 0.0
        assert area_difference(1.2, 4.0) < 0.0
        assert tube_area(0.9, 5.0) < disk_area_total(5.0)

    def test_monotone_in_r(self):
        for a in (0.2, 0.5, 0.9, 1.5):
            values = [
                area_difference(a, a + 0.5 * k) for k in range(1, 11)
            ]
            assert all(b >= a_ - 1e-12 for a_, b in zip(values, values[1:]))

    def test_phi_bounds(self):
        K = compute_K()
        for a in (0.2, 0.5, 0.9, 1.5):
            for r in (a + 0.5, a + 2.0, a + 10.0):
                phi = area_difference(a, r)
                lower = -4.0 * math.pi * (math.cosh(a) - 1.0)
                upper = 4.0 * math.pi * K * math.cosh(a) - 4.0 * math.pi * (
                    math.cosh(a) - 1.0
                )
                assert lower - 1e-9 <= phi <= upper + 1e-9

    def test_limit_consistency(self, tol):
        for a in (0.2, 0.5, 0.9, 1.2, 1.5):
            assert area_difference(a, a + 20.0) == pytest.approx(
                area_deficit(a, tol), abs=1e-6
            )

    def test_infinite_radius(self, tol):
        for a in (0.3, 0.6, 1.2):
            assert area_difference(a, math.inf) == area_deficit(a, tol)
            # Past r ~ 710 cosh r overflows; Phi is the r = inf one and the
            # tube's area is infinite.
            assert area_difference(a, 1000.0) == area_difference(a, math.inf)
            assert tube_area(a, 1000.0) == tube_area(a, math.inf) == math.inf

    def test_underflowed_tube(self, tol):
        # Below necks of about 7.5e-155, T = sinh(r - a) sinh(r + a) can
        # underflow to 0 with r > a; Phi is then -disks, as at r = a.
        underflowed = 0
        for a in (10.0**-e for e in range(320, 99, -5)):
            for r in (10.0**-e for e in range(320, -1, -5)):
                if not r > a:
                    continue
                phi = area_difference(a, r)
                assert tube_area(a, r) == phi + disk_area_total(r)
                if math.sinh(r - a) * math.sinh(r + a) == 0.0:
                    assert phi == -disk_area_total(r)
                    underflowed += 1
                try:
                    find_cheaper_competitor(a, r, tol)
                except ValueError as exc:
                    assert "smallest the profile" in str(exc)
        assert underflowed > 400

    def test_domain(self):
        with pytest.raises(ValueError):
            area_difference(0.5, 0.4)
        with pytest.raises(ValueError):
            area_difference(0.0, 1.0)


class TestAreaDeficit:
    def test_reference_point(self, tol):
        assert area_deficit(0.530638, tol) == pytest.approx(0.781314, abs=1e-4)
        assert area_deficit(0.530638, tol) == pytest.approx(PHI_A3, abs=1e-9)

    def test_zero_at_threshold(self, tol):
        assert area_deficit(0.847486, tol) == pytest.approx(0.0, abs=1e-5)

    def test_negative_past_a_l(self, tol):
        assert area_deficit(1.10055, tol) < 0.0

    def test_coarse_profile(self, tol):
        assert area_deficit(0.2, tol) == pytest.approx(0.367414, rel=1e-5)
        assert area_deficit(0.9, tol) == pytest.approx(-0.260307, rel=1e-5)
        assert area_deficit(1.5, tol) == pytest.approx(-6.18128, rel=1e-5)
        assert area_deficit(3.0, tol) == pytest.approx(-63.4475, rel=1e-5)

    def test_upper_bound(self, tol):
        K = compute_K()
        for a in (0.1, 0.5, 1.0, 2.0, 3.0):
            bound = -4.0 * math.pi * (1.0 - K) * math.cosh(a) + 4.0 * math.pi
            assert area_deficit(a, tol) < bound


class TestPlaneSeparation:
    def test_collapsed(self):
        assert plane_separation(0.4, 0.4) == 0.0

    def test_saturates(self, tol):
        assert plane_separation(0.5, 10.0) == pytest.approx(
            2.0 * gomes_rho(0.5, tol), abs=1e-6
        )

    def test_shared_implementation_identity(self):
        assert plane_separation(0.3, 1.0) == 2.0 * catenary_x(0.3, 1.0)

    def test_frozen_references(self):
        assert plane_separation(0.6, 3.0) == pytest.approx(L_06_3, abs=1e-10)
        assert plane_separation(1.0, 3.0) == pytest.approx(L_1_3, abs=1e-10)


class TestMvtF:
    def test_value_at_zero(self):
        K = compute_K()
        assert mvt_f(0.0, K) == pytest.approx(-48.0 + 15.0 * (1.0 - K), abs=1e-12)
        assert mvt_f(0.0, K) < 0.0

    def test_closed_form_at_log_3_2(self):
        K = compute_K()
        expected = (171374697.0 - 215561285.0 * K) / 1119744.0
        value = mvt_f(math.log(1.5), K)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(75.8653194881, abs=1e-6)
        assert value > 0.0

    def test_monotone_on_grid(self):
        K = compute_K()
        values = [mvt_f(2.0 * i / 999.0, K) for i in range(1000)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            mvt_f(-0.1, 0.4)
        with pytest.raises(ValueError):
            mvt_f(0.5, 1.5)


class TestConcavityTerms:
    def test_first_term_negative(self):
        i1, _ = concavity_terms(0.3)
        assert i1 < 0.0

    def test_sum_negative_past_a0(self):
        i1, i2 = concavity_terms(0.6)
        assert i1 + i2 < 0.0

    def test_frozen_references(self):
        i1, i2 = concavity_terms(0.6)
        assert i1 == pytest.approx(I1_06, abs=1e-8)
        assert i2 == pytest.approx(I2_06, abs=1e-8)

    def test_matches_finite_difference(self, tol):
        i1, i2 = concavity_terms(0.6)
        h = 1e-3
        fd = (
            area_deficit(0.6 - h, tol)
            - 2.0 * area_deficit(0.6, tol)
            + area_deficit(0.6 + h, tol)
        ) / (h * h)
        assert i1 + i2 == pytest.approx(fd, rel=0.05)


@pytest.mark.parametrize(
    "call",
    [
        lambda: catenary_x(0.6, math.nan),
        lambda: area_difference(0.6, math.nan),
        lambda: tube_area(0.6, math.nan),
        lambda: plane_separation(0.6, math.nan),
        lambda: disk_area_total(math.nan),
        lambda: mvt_f(math.nan, 0.4),
    ],
    ids=["catenary_x", "area_difference", "tube_area", "plane_separation",
         "disk_area_total", "mvt_f"],
)
def test_nan_argument_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("abs_tol", [0.0, -1e-10, math.inf, -math.inf, math.nan])
def test_tolerance_outside_open_range_rejected(abs_tol):
    # The tie window 2 abs_tol must be a positive finite width; an infinite
    # one would merge every separation into a_c.
    with pytest.raises(ValueError, match="abs_tol must be positive and finite"):
        Tolerance(abs_tol=abs_tol)


def test_tolerance_range_edges_accepted():
    assert Tolerance(abs_tol=5e-324).abs_tol == 5e-324
    assert Tolerance(abs_tol=1e308).abs_tol == 1e308
