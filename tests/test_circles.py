import math
import random

import pytest

from hypcatenoid import (
    BracketError,
    CircleAtInfinity,
    DegenerateCircleError,
    IntersectingCirclesError,
    IsometryMap,
    RegimeKind,
    Tolerance,
    catenoid,
    catenoids_for_circles,
    catenoids_for_separation,
    circle_from_center_radius,
    circle_pair,
    circles,
    constants_bundle,
    gomes_rho,
    inversive_product,
    normalize_coaxial,
    plane_distance,
    solve_root,
)

from _oracles import coaxial_images, decode, moved_pair, random_disjoint_pair

# Frozen roots of 2*rho(a) = d from an independent high-precision solve.
ROOTS_08 = (0.208851818955, 0.980635751523)
ROOTS_095 = (0.33514006972, 0.702753813899)
# mpmath root of 2*rho(a) = 1e-9 on the inner branch.
INNER_ROOT_1E9 = 1.998203049352599e-11
# Concentric partners of the unit circle at plane distance ~ 1e-6 to 1e-12.
NEAR_UNIT_RADII = [1.0 + sign * 10.0**-k for sign in (1, -1) for k in range(6, 13)]


def _norm_sq(circle):
    v1, v2, v3, v4 = circle.coords
    return v1 * v1 + v2 * v2 + v3 * v3 - v4 * v4


def _norm_tol(circle):
    # Recomputing the quadratic form rounds relative to the squared
    # coordinate magnitude, so the unit-norm check must scale with it.
    v1, v2, v3, v4 = circle.coords
    magnitude = v1 * v1 + v2 * v2 + v3 * v3 + v4 * v4
    return 1e-14 * max(1.0, magnitude)


class TestCircleAtInfinity:
    def test_unit_circle_round_trip(self):
        center, radius = decode(circle_from_center_radius(0.0j, 1.0))
        assert abs(center) <= 1e-12
        assert radius == pytest.approx(1.0, abs=1e-12)

    def test_offset_round_trip(self):
        center, radius = decode(circle_from_center_radius(3.0 + 4.0j, 2.0))
        assert center == pytest.approx(3.0 + 4.0j, abs=1e-10)
        assert radius == pytest.approx(2.0, abs=1e-10)

    def test_random_round_trips(self):
        rng = random.Random(2024)
        for _ in range(200):
            center = complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
            radius = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            circle = circle_from_center_radius(center, radius)
            assert abs(_norm_sq(circle) - 1.0) <= _norm_tol(circle)
            decoded_center, decoded_radius = decode(circle)
            assert decoded_center == pytest.approx(
                center, abs=1e-12 * (abs(center) + radius + 1.0)
            )
            # Small circles far from the origin recover their radius with a
            # relative error that grows like (|center| / radius)^2 in ulps.
            conditioning = max(1.0, (abs(center) / radius) ** 2)
            assert decoded_radius == pytest.approx(radius, rel=1e-13 * conditioning)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            circle_from_center_radius(0.0j, 0.0)
        with pytest.raises(ValueError):
            circle_from_center_radius(0.0j, -2.0)
        with pytest.raises(ValueError):
            circle_from_center_radius(complex(math.inf, 0.0), 1.0)
        for r1, r2 in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)):
            with pytest.raises(ValueError):
                circle_pair(0.0j, r1, 2.0 + 0.0j, r2)

    def test_beyond_chart_precision_rejected(self):
        # |c|^2 - rho^2 +- 1 round to one double, so v4 - v3 = 1 / rho is lost.
        with pytest.raises(DegenerateCircleError):
            circle_from_center_radius(1e9 + 0.0j, 1.0)

    def test_out_of_range_named(self):
        # Finite positive inputs whose vector, or whose ratio or offset after
        # the move onto the unit circle, leaves the double range.
        with pytest.raises(DegenerateCircleError, match="inversive chart"):
            circle_from_center_radius(0.0j, 1e-310)
        with pytest.raises(DegenerateCircleError, match="r2/r1 .* overflows"):
            circle_pair(0.0j, 1e-310, 0.0j, 2.2)
        with pytest.raises(DegenerateCircleError, match="r2/r1 .* underflows"):
            circle_pair(0.0j, 1e300, 1.0 + 0.0j, 1e-300)
        # A subnormal ratio: 1e-309 is above 0, but its reciprocal overflows.
        with pytest.raises(DegenerateCircleError, match="r2/r1 .* underflows"):
            circle_pair(0.0j, 1e300, 0.0j, 1e-9)
        with pytest.raises(DegenerateCircleError, match="offset"):
            circle_pair(-1e308 + 0.0j, 1.0, 1e308 + 0.0j, 1.0)

    def test_line_has_no_chart(self):
        line = CircleAtInfinity((1.0, 0.0, 0.5, 0.5))
        assert decode(line) is None

    def test_concentric_product(self):
        # (r1^2 + r2^2) / (2 r1 r2) with r1 = 1, r2 = e gives cosh(1) in
        # magnitude; the canonical per-circle sign makes the product positive
        # for nested pairs.
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(0.0j, math.e)
        assert abs(inversive_product(circle1, circle2)) == pytest.approx(
            math.cosh(1.0), abs=1e-12
        )


class TestPlaneDistance:
    def test_concentric_exponential_gap(self):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(0.0j, math.e)
        assert plane_distance(circle1, circle2) == pytest.approx(1.0, abs=1e-12)
        # Near coincidence |p| - 1 ~ (r - 1)**2 / 2 is read from <n, n>, so
        # the distance |log r| keeps its digits down to r - 1 = 1e-12.
        for radius in NEAR_UNIT_RADII:
            circle2 = circle_from_center_radius(0.0j, radius)
            distance = plane_distance(circle1, circle2)
            assert distance == pytest.approx(abs(math.log(radius)), rel=1e-14)

    def test_identical_circles_rejected(self):
        circle = circle_from_center_radius(1.0 + 1.0j, 2.0)
        with pytest.raises(IntersectingCirclesError):
            plane_distance(circle, circle)

    def test_tangent_circles(self):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(2.0 + 0.0j, 1.0)
        with pytest.raises(IntersectingCirclesError):
            plane_distance(circle1, circle2)

    def test_overlapping_circles(self):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(0.5 + 0.0j, 1.0)
        with pytest.raises(IntersectingCirclesError):
            plane_distance(circle1, circle2)

    def test_classification_boundary_distance(self):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(0.0j, math.exp(0.876895))
        assert plane_distance(circle1, circle2) == pytest.approx(0.876895, abs=1e-9)

    def test_separated_pair_log_ratio(self):
        # Limit points at 0.2087 and 4.7913 give log ratio acosh(11.5).
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(5.0 + 0.0j, 1.0)
        assert plane_distance(circle1, circle2) == pytest.approx(
            math.acosh(11.5), abs=1e-12
        )

    def test_small_far_circle_against_closed_form(self):
        # A circle of radius r centred at x on the real axis lies at distance
        # acosh(|1 + r^2 - x^2| / 2r) from the unit circle.  Its vector has
        # v3 ~ v4 ~ x^2 / 2r, so recomputing its norm cancels every digit.
        rng = random.Random(90210)
        cases = [(1e4, 0.05), (2375.7822453599765, 0.002830409492403474)]
        cases += [
            (10.0 ** rng.uniform(0.5, 5.0), 10.0 ** rng.uniform(-3.0, 0.0))
            for _ in range(2000)
        ]
        unit = circle_from_center_radius(0.0j, 1.0)
        for x, r in cases:
            reference = math.acosh(abs(1.0 + r * r - x * x) / (2.0 * r))
            distance = plane_distance(unit, circle_from_center_radius(x, r))
            assert distance == pytest.approx(reference, rel=1e-13)

    def test_symmetry_is_exact(self):
        rng = random.Random(7)
        for _ in range(50):
            circle1, circle2 = random_disjoint_pair(rng)
            assert plane_distance(circle1, circle2) == plane_distance(
                circle2, circle1
            )


class TestIsometryMap:
    def test_determinant_relative_to_entries(self):
        mapping = IsometryMap(1e3, 1e6 - 1.0 / 3.0, 1.0, 1e3)
        assert mapping(0.0) == pytest.approx((1e6 - 1.0 / 3.0) / 1e3, rel=1e-12)

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            IsometryMap(1.0, 2.0, 2.0, 4.0)

    def test_any_nonsingular_matrix_accepted(self):
        mapping = IsometryMap(2, 0, 0, 1)
        for z in (0j, 1.0, 1.5 - 2.0j, -3e5j):
            assert mapping(z) == 2 * z

    @pytest.mark.parametrize("scale", (2.0, 1e-150, 3j))
    def test_scaling_leaves_the_map_unchanged(self, scale):
        entries = (1.0 + 2.0j, -0.5, 3.0j, 4.0 - 1.0j)
        mapping = IsometryMap(*entries)
        scaled = IsometryMap(*(scale * e for e in entries))
        for z in (0j, 1.0, -2.5 + 0.75j, 1e3j):
            assert abs(scaled(z) - mapping(z)) <= 1e-15 * abs(mapping(z))

class TestNormalizeCoaxial:
    # Each image is read pointwise, as |mapping(z)| at points z of the input
    # circle (see coaxial_images): equal radii put its centre at 0.
    def test_concentric_pair_stays_concentric(self):
        circle1 = circle_from_center_radius(2.0 + 1.0j, 1.0)
        circle2 = circle_from_center_radius(2.0 + 1.0j, 3.0)
        mapping = normalize_coaxial(circle1, circle2)
        (spread1, radius1), (spread2, radius2) = coaxial_images(mapping, circle1, circle2)
        assert spread1 <= 1e-10
        assert spread2 <= 1e-10
        assert radius2 / radius1 == pytest.approx(3.0, rel=1e-10)

    def test_concentric_larger_first_gets_inverted(self):
        circle2 = circle_from_center_radius(0.0j, 1.0)
        for radius in (3.0, *NEAR_UNIT_RADII):
            circle1 = circle_from_center_radius(0.0j, radius)
            mapping = normalize_coaxial(circle1, circle2)
            (_, radius1), (_, radius2) = coaxial_images(mapping, circle1, circle2)
            assert radius1 < radius2

    def test_separated_pair(self):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(5.0 + 0.0j, 1.0)
        mapping = normalize_coaxial(circle1, circle2)
        (spread1, radius1), (spread2, radius2) = coaxial_images(mapping, circle1, circle2)
        assert spread1 <= 1e-9
        assert spread2 <= 1e-9
        assert radius1 < radius2
        log_ratio = math.log(radius2 / radius1)
        assert log_ratio == pytest.approx(
            plane_distance(circle1, circle2), abs=1e-9
        )

    def test_nested_pair(self):
        circle1 = circle_from_center_radius(0.3 + 0.0j, 1.0)
        circle2 = circle_from_center_radius(0.0j, 3.0)
        mapping = normalize_coaxial(circle1, circle2)
        (spread1, radius1), (spread2, radius2) = coaxial_images(mapping, circle1, circle2)
        assert spread1 <= 1e-9
        assert spread2 <= 1e-9
        assert radius1 < radius2
        log_ratio = math.log(radius2 / radius1)
        assert log_ratio == pytest.approx(
            plane_distance(circle1, circle2), abs=1e-9
        )

    def test_intersecting_pair_rejected(self):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(1.0 + 0.0j, 1.0)
        with pytest.raises(IntersectingCirclesError):
            normalize_coaxial(circle1, circle2)

    def test_line_pair(self):
        # The line Re z = 2 and the unit circle, in either order.
        line = CircleAtInfinity((1.0, 0.0, 2.0, 2.0))
        circle = circle_from_center_radius(0.0j, 1.0)
        reference = plane_distance(line, circle)
        for first, second in ((line, circle), (circle, line)):
            mapping = normalize_coaxial(first, second)
            (spread1, radius1), (spread2, radius2) = coaxial_images(mapping, first, second)
            assert spread1 <= 1e-12
            assert spread2 <= 1e-12
            assert radius1 < radius2
            log_ratio = math.log(radius2 / radius1)
            assert log_ratio == pytest.approx(reference, abs=1e-12)
        # Parallel lines touch at infinity.
        with pytest.raises(IntersectingCirclesError):
            normalize_coaxial(line, CircleAtInfinity((1.0, 0.0, -1.0, -1.0)))


class TestDistanceProperties:
    def test_oracle_equivalence_and_moebius_invariance(self):
        rng = random.Random(60601)
        for _ in range(300):
            circle1, circle2 = random_disjoint_pair(rng)
            reference = plane_distance(circle1, circle2)

            # The first circle's image is the inner one, in either order.
            for first, second in ((circle1, circle2), (circle2, circle1)):
                mapping = normalize_coaxial(first, second)
                (spread1, radius1), (spread2, radius2) = coaxial_images(mapping, first, second)
                assert spread1 <= 1e-9
                assert spread2 <= 1e-9
                assert radius1 < radius2
                log_ratio = math.log(radius2 / radius1)
                assert abs(log_ratio - reference) <= 1e-9

            moved1, moved2 = moved_pair(rng, circle1, circle2)
            assert abs(plane_distance(moved1, moved2) - reference) <= 1e-9


class TestCatenoidsForSeparation:
    def test_two_branch_case(self, bundle, tol):
        found = catenoids_for_separation(0.8, bundle, tol)
        assert found.separation == 0.8
        assert len(found.solutions) == 2
        (a_inner, label_inner), (a_outer, label_outer) = found.solutions
        assert a_inner < bundle.a_c < a_outer
        assert a_inner == pytest.approx(ROOTS_08[0], abs=1e-6)
        assert a_outer == pytest.approx(ROOTS_08[1], abs=1e-6)
        assert abs(2.0 * gomes_rho(a_inner, tol) - 0.8) <= 1e-6
        assert abs(2.0 * gomes_rho(a_outer, tol) - 0.8) <= 1e-6
        assert label_inner.kind is RegimeKind.UNSTABLE
        assert label_outer.kind is RegimeKind.AREA_MINIMIZING

    def test_intermediate_separation(self, bundle, tol):
        found = catenoids_for_separation(0.95, bundle, tol)
        assert len(found.solutions) == 2
        (a_inner, label_inner), (a_outer, label_outer) = found.solutions
        assert a_inner == pytest.approx(ROOTS_095[0], abs=1e-6)
        assert a_outer == pytest.approx(ROOTS_095[1], abs=1e-6)
        assert label_inner.kind is RegimeKind.UNSTABLE
        assert label_outer.kind is RegimeKind.STABLE_NOT_MINIMIZING

    def test_critical_separation_collapses_to_single(self, bundle, tol):
        # 2 rho(a_c) is accurate to 2 abs_tol, so d within that of it is
        # indistinguishable from the maximum.
        for d in (bundle.two_rho_ac - tol.abs_tol, bundle.two_rho_ac + tol.abs_tol):
            found = catenoids_for_separation(d, bundle, tol)
            assert len(found.solutions) == 1
            a, label = found.solutions[0]
            assert a == bundle.a_c
            assert label.at_a_c
            assert label.kind is RegimeKind.STABLE_NOT_MINIMIZING

    def test_supercritical_separation_empty(self, bundle, tol):
        assert catenoids_for_separation(1.5, bundle, tol).solutions == ()
        just_above = bundle.two_rho_ac + 2e-4
        assert catenoids_for_separation(just_above, bundle, tol).solutions == ()
        # 4.1e-6 above the true maximum 1.0022859: no catenoid exists.
        assert catenoids_for_separation(1.00229, bundle, tol).solutions == ()

    def test_near_critical_two_roots(self, bundle, tol):
        found = catenoids_for_separation(bundle.two_rho_ac - 0.99e-4, bundle, tol)
        assert len(found.solutions) == 2
        (a_inner, _), (a_outer, _) = found.solutions
        assert a_inner == pytest.approx(0.48798, abs=1e-5)
        assert a_outer == pytest.approx(0.50365, abs=1e-5)

    def test_just_below_window_two_roots(self, bundle, tol):
        d = bundle.two_rho_ac - 2e-4
        found = catenoids_for_separation(d, bundle, tol)
        assert len(found.solutions) == 2
        for a, _ in found.solutions:
            assert abs(2.0 * gomes_rho(a, tol) - d) <= 1e-6

    def test_tiny_separation_two_roots(self, bundle, tol):
        d = 1e-6
        found = catenoids_for_separation(d, bundle, tol)
        assert len(found.solutions) == 2
        (a_inner, label_inner), (a_outer, _) = found.solutions
        assert 0.0 < a_inner < bundle.a_c < a_outer
        assert label_inner.kind is RegimeKind.UNSTABLE
        # The root is solved to solve_root's relative floor and 2 rho is
        # exact to rounding, so the residual is a few ulps of d.
        assert abs(2.0 * gomes_rho(a_inner, tol) - d) <= 1e-13 * d

    def test_tiny_separation_outer_root(self, bundle, tol):
        # The outer root 16.99 lies past the doubling bracket 15.86 but
        # below the branch cap 25.
        found = catenoids_for_separation(1e-7, bundle, tol)
        assert len(found.solutions) == 2
        a_outer, label_outer = found.solutions[1]
        assert 15.86 < a_outer < 25.0
        assert label_outer.kind is RegimeKind.AREA_MINIMIZING
        assert abs(2.0 * gomes_rho(a_outer, tol) - 1e-7) <= 1e-13 * 1e-7

    def test_root_residuals_over_the_range(self, bundle, tol):
        # 413 log-spaced separations up to just below 2 rho(a_c) = 1.0022859,
        # and separations 10**-k below it, past the 2 abs_tol window.
        top = math.log10(1.0022)
        separations = [10.0 ** (-10.0 + k * (top + 10.0) / 412) for k in range(413)]
        separations += [bundle.two_rho_ac - 10.0**-k for k in range(2, 14)]
        for d in separations:
            found = catenoids_for_separation(d, bundle, tol)
            if bundle.two_rho_ac - d <= 2.0 * tol.abs_tol:
                (a, label), = found.solutions
                assert a == bundle.a_c and label.at_a_c
                continue
            (a_inner, label_inner), (a_outer, label_outer) = found.solutions
            assert 0.0 < a_inner < bundle.a_c < a_outer <= 25.0
            assert label_inner.kind is RegimeKind.UNSTABLE
            outer_kind = (
                RegimeKind.STABLE_NOT_MINIMIZING
                if d > bundle.two_rho_aL
                else RegimeKind.AREA_MINIMIZING
            )
            assert label_outer.kind is outer_kind
            for a in (a_inner, a_outer):
                assert abs(2.0 * gomes_rho(a, tol) - d) <= 1e-14 * d, (d, a)

    def test_chebyshev_slopes_keep_their_sign(self, bundle, tol, monkeypatch):
        # The residual hands solve_root the slope g' / (1 + t), t = g g'' /
        # (2 g'**2); it must keep g''s sign, since solve_root reads the
        # crossing direction off it.  rho'' is checked here by a central
        # difference of rho', not through the phi'' the residual reads.
        calls = []

        def recording(f, lo, hi, start=None):
            def g(x):
                calls.append((x, *f(x)))
                return calls[-1][1:]

            return solve_root(g, lo, hi, start)

        monkeypatch.setattr(circles, "solve_root", recording)
        top = math.log10(1.0022)
        separations = [10.0 ** (-10.0 + k * (top + 10.0) / 4000) for k in range(4001)]
        separations += [bundle.two_rho_ac - 10.0 ** (-2.0 - k / 20) for k in range(160)]
        # Just outside the 2 abs_tol tie window, where the roots meet at a_c.
        separations += [bundle.two_rho_ac - 2e-10 * (1.0 + 2.0**-k) for k in range(53)]
        for d in separations:
            catenoids_for_separation(d, bundle, tol)
        assert len(calls) > 20000
        for a, value, slope in calls:
            rho, drho = catenoid._neck_terms(a)[:2]
            if drho == 0.0:
                continue
            h = 1e-5 * a
            drho2 = (catenoid._neck_terms(a + h)[1] - catenoid._neck_terms(a - h)[1]) / (2 * h)
            t = 0.5 * value * (rho * drho2 / (drho * drho) - 1.0)
            assert slope * drho > 0.0, a
            assert 1.0 + t > 0.0, a
            assert slope == pytest.approx(drho / rho / (1.0 + t), rel=1e-6), a

    def test_below_the_outer_branch_cap(self, bundle, tol):
        # The outer root is sought up to a = 25, so d < 2 rho(25) has none.
        two_rho_cap = 2.0 * gomes_rho(25.0, tol)
        # Below ~2.2e-308, 4 / d overflows; subnormal d raise the same error.
        for d in (0.999 * two_rho_cap, 1e-11, 1e-300, 1e-310, 5e-324):
            with pytest.raises(BracketError, match="outer branch"):
                catenoids_for_separation(d, bundle, tol)
        assert catenoids_for_separation(two_rho_cap, bundle, tol).solutions[1][0] == 25.0
        a_outer = catenoids_for_separation(1.001 * two_rho_cap, bundle, tol).solutions[1][0]
        assert 24.99 < a_outer < 25.0

    @pytest.mark.parametrize("abs_tol", (1e-8, 1e-10, 1e-12))
    def test_tiny_inner_root_relative(self, abs_tol):
        # The root is 2e-11, so only a relative stopping rule resolves it.
        tol = Tolerance(abs_tol=abs_tol)
        found = catenoids_for_separation(1e-9, constants_bundle(tol), tol)
        assert found.solutions[0][0] == pytest.approx(INNER_ROOT_1E9, rel=1e-12)

    def test_domain(self, bundle, tol):
        with pytest.raises(ValueError):
            catenoids_for_separation(0.0, bundle, tol)
        with pytest.raises(ValueError):
            catenoids_for_separation(-0.5, bundle, tol)

    @pytest.mark.parametrize("d", [math.inf, -math.inf, math.nan])
    def test_non_finite_separation_rejected(self, bundle, tol, d):
        # An infinite separation is not a distance between two disjoint
        # circles; it is named, not reported as a pair with no catenoid.
        with pytest.raises(ValueError, match=f"must be positive and finite, got {d}"):
            catenoids_for_separation(d, bundle, tol)


class TestCatenoidsForCircles:
    def test_matches_separation_solver(self, bundle, tol):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(0.0j, math.exp(0.8))
        found = catenoids_for_circles(circle1, circle2, bundle, tol)
        assert found.separation == pytest.approx(0.8, abs=1e-12)
        assert len(found.solutions) == 2
        by_separation = catenoids_for_separation(0.8, bundle, tol)
        for (a1, _), (a2, _) in zip(found.solutions, by_separation.solutions):
            assert a1 == pytest.approx(a2, abs=1e-9)

    def test_distant_pair_empty(self, bundle, tol):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(0.0j, math.exp(2.0))
        found = catenoids_for_circles(circle1, circle2, bundle, tol)
        assert found.solutions == ()

    def test_intersecting_pair_rejected(self, bundle, tol):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(0.5 + 0.0j, 1.0)
        with pytest.raises(IntersectingCirclesError):
            catenoids_for_circles(circle1, circle2, bundle, tol)
