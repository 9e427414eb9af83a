import cmath
import math
import random

import pytest

from hypcatenoid import (
    CircleAtInfinity,
    DegenerateCircleError,
    IntersectingCirclesError,
    IsometryMap,
    RegimeKind,
    Tolerance,
    apply_isometry,
    axis_translation,
    boundary_circles,
    catenoids_for_circles,
    catenoids_for_separation,
    circle_from_center_radius,
    constants_bundle,
    gomes_rho,
    inversive_product,
    normalize_coaxial,
    plane_distance,
)

from _oracles import mapped_pair, random_disjoint_pair, random_isometry

# Frozen roots of 2*rho(a) = d from an independent high-precision solve.
ROOTS_08 = (0.208851818955, 0.980635751523)
ROOTS_095 = (0.33514006972, 0.702753813899)
# mpmath root of 2*rho(a) = 1e-9 on the inner branch.
INNER_ROOT_1E9 = 1.998203049352599e-11


def _norm_sq(circle):
    v1, v2, v3, v4 = circle.coords
    return v1 * v1 + v2 * v2 + v3 * v3 - v4 * v4


def _norm_tol(circle):
    # Recomputing the quadratic form rounds relative to the squared
    # coordinate magnitude, so the unit-norm check must scale with it.
    v1, v2, v3, v4 = circle.coords
    magnitude = v1 * v1 + v2 * v2 + v3 * v3 + v4 * v4
    return 1e-14 * max(1.0, magnitude)


def _incidence(circle, w):
    """Scale-free distance of the point w from a circle or line.

    w is the null vector P = (Re w, Im w, (|w|^2 - 1)/2, (|w|^2 + 1)/2); it
    lies on the circle exactly when the Minkowski product <v, P> vanishes.
    """
    p = (w.real, w.imag, 0.5 * (abs(w) ** 2 - 1.0), 0.5 * (abs(w) ** 2 + 1.0))
    v = circle.coords
    product = v[0] * p[0] + v[1] * p[1] + v[2] * p[2] - v[3] * p[3]
    return abs(product) / (math.hypot(*v) * math.hypot(*p))


class TestCircleAtInfinity:
    def test_unit_circle_round_trip(self):
        circle = circle_from_center_radius(0.0j, 1.0)
        assert abs(circle.center) <= 1e-12
        assert circle.radius == pytest.approx(1.0, abs=1e-12)

    def test_offset_round_trip(self):
        circle = circle_from_center_radius(3.0 + 4.0j, 2.0)
        assert circle.center == pytest.approx(3.0 + 4.0j, abs=1e-10)
        assert circle.radius == pytest.approx(2.0, abs=1e-10)

    def test_random_round_trips(self):
        rng = random.Random(2024)
        for _ in range(200):
            center = complex(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
            radius = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
            circle = circle_from_center_radius(center, radius)
            assert abs(_norm_sq(circle) - 1.0) <= _norm_tol(circle)
            assert circle.center == pytest.approx(
                center, abs=1e-12 * (abs(center) + radius + 1.0)
            )
            # Small circles far from the origin recover their radius with a
            # relative error that grows like (|center| / radius)^2 in ulps.
            conditioning = max(1.0, (abs(center) / radius) ** 2)
            assert circle.radius == pytest.approx(radius, rel=1e-13 * conditioning)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            circle_from_center_radius(0.0j, 0.0)
        with pytest.raises(ValueError):
            circle_from_center_radius(0.0j, -2.0)
        with pytest.raises(ValueError):
            circle_from_center_radius(complex(math.inf, 0.0), 1.0)

    def test_line_has_no_chart(self):
        line = CircleAtInfinity((1.0, 0.0, 0.5, 0.5))
        assert line.is_line
        with pytest.raises(DegenerateCircleError):
            line.radius
        with pytest.raises(DegenerateCircleError):
            line.center

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

    def test_symmetry_is_exact(self):
        rng = random.Random(7)
        for _ in range(50):
            circle1, circle2 = random_disjoint_pair(rng)
            assert plane_distance(circle1, circle2) == plane_distance(
                circle2, circle1
            )


class TestIsometryMap:
    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            IsometryMap(2.0 + 0.0j, 0.0j, 0.0j, 1.0 + 0.0j)

    def test_determinant_relative_to_entries(self):
        mapping = IsometryMap.from_matrix(1e3, 1e6 - 1.0 / 3.0, 1.0, 1e3)
        assert mapping(0.0) == pytest.approx((1e6 - 1.0 / 3.0) / 1e3, rel=1e-12)

    def test_repeated_composition(self):
        step = IsometryMap.from_matrix(1.1, 0.3 + 0.2j, 0.05, 0.95)
        mapping = step
        for _ in range(300):
            mapping = mapping.compose(step)
        z = 0.1 + 0.2j
        expected = z
        for _ in range(301):
            expected = step(expected)
        assert mapping(z) == pytest.approx(expected, rel=1e-9)

    def test_from_matrix_normalizes(self):
        mapping = IsometryMap.from_matrix(2.0, 0.0, 0.0, 2.0)
        assert abs(mapping.a * mapping.d - mapping.b * mapping.c - 1.0) <= 1e-12

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            IsometryMap.from_matrix(1.0, 2.0, 2.0, 4.0)

    def test_identity_action(self):
        ident = IsometryMap.identity()
        assert ident(3.0 + 4.0j) == 3.0 + 4.0j

    def test_compose_order(self):
        scale = axis_translation(4.0)
        shift = IsometryMap.from_matrix(1.0, 1.0, 0.0, 1.0)
        z = 0.5 + 0.25j
        assert (shift.compose(scale))(z) == pytest.approx(4.0 * z + 1.0, abs=1e-12)
        assert (scale.compose(shift))(z) == pytest.approx(4.0 * (z + 1.0), abs=1e-12)

    def test_inverse(self):
        rng = random.Random(11)
        for _ in range(20):
            mapping = IsometryMap.from_matrix(
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            )
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            assert mapping(mapping.inverse()(z)) == pytest.approx(z, abs=1e-9)


class TestAxisTranslation:
    def test_identity(self):
        mapping = axis_translation(1.0)
        assert mapping.a == 1.0 and mapping.b == 0.0
        assert mapping.c == 0.0 and mapping.d == 1.0

    def test_group_law(self):
        twice = axis_translation(2.0).compose(axis_translation(2.0))
        four = axis_translation(4.0)
        assert twice.a == pytest.approx(four.a, abs=1e-12)
        assert twice.d == pytest.approx(four.d, abs=1e-12)

    def test_distance_invariance(self):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(0.0j, math.exp(2.0))
        mapping = axis_translation(math.e)
        moved = plane_distance(
            apply_isometry(mapping, circle1), apply_isometry(mapping, circle2)
        )
        assert moved == pytest.approx(2.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            axis_translation(0.0)
        with pytest.raises(ValueError):
            axis_translation(-1.0)


class TestApplyIsometry:
    def test_identity_fixes_circle(self):
        circle = circle_from_center_radius(2.0 - 1.0j, 1.5)
        image = apply_isometry(IsometryMap.identity(), circle)
        for got, want in zip(image.coords, circle.coords):
            assert got == pytest.approx(want, abs=1e-12)

    def test_scaling_action(self):
        circle = circle_from_center_radius(0.0j, 1.0)
        image = apply_isometry(axis_translation(2.0), circle)
        assert abs(image.center) <= 1e-12
        assert image.radius == pytest.approx(2.0, abs=1e-12)

    def test_norm_preserved_on_random_inputs(self):
        rng = random.Random(31337)
        for _ in range(1000):
            circle, other = random_disjoint_pair(rng)
            image1, image2 = mapped_pair(rng, circle, other)
            assert abs(_norm_sq(image1) - 1.0) <= _norm_tol(image1)
            assert abs(_norm_sq(image2) - 1.0) <= _norm_tol(image2)

    def test_circle_through_pole_becomes_line(self):
        # z -> 1/(z - 1) sends the unit circle to the line Re z = -1/2.
        circle = circle_from_center_radius(0.0j, 1.0)
        mapping = IsometryMap.from_matrix(0.0, 1.0, 1.0, -1.0)
        image = apply_isometry(mapping, circle)
        assert image.is_line
        for got, want in zip(image.coords, (1.0, 0.0, -0.5, -0.5)):
            assert got == pytest.approx(want, abs=1e-15)

    def test_pole_on_or_near_circle_keeps_distance(self):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(3.0 + 1.0j, 0.5)
        reference = plane_distance(circle1, circle2)
        for angle in (0.0, 0.7, math.pi / 2.0, 2.5, 4.0):
            on_circle = cmath.exp(1j * angle)
            for pole in (on_circle, on_circle * (1.0 + 1e-9), on_circle * (1.0 - 1e-9)):
                mapping = IsometryMap.from_matrix(0.0, 1.0, 1.0, -pole)
                moved = plane_distance(
                    apply_isometry(mapping, circle1), apply_isometry(mapping, circle2)
                )
                assert abs(moved - reference) <= 1e-12

    def test_sampled_points_lie_on_image(self):
        # Independent of the Hermitian action: push five points of a random
        # circle or line through the map pointwise and check each against the
        # image.  Half the maps invert about a point within 1e-9 of the circle,
        # so those images are nearly lines.
        rng = random.Random(4242)
        for trial in range(600):
            circle, _ = random_disjoint_pair(rng)
            center, radius = circle.center, circle.radius
            points = [
                center + radius * cmath.exp(2j * math.pi * (k + rng.random()) / 5)
                for k in range(5)
            ]
            if trial % 3 == 2:
                normal = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
                offset = rng.uniform(-3.0, 3.0)
                circle = CircleAtInfinity((normal.real, normal.imag, offset, offset))
                points = [normal * (offset + 1j * rng.uniform(-5.0, 5.0)) for _ in range(5)]
            mapping = random_isometry(rng)
            if trial % 2:
                pole = rng.choice(points) * (1.0 + rng.uniform(-1e-9, 1e-9))
                mapping = mapping.compose(IsometryMap.from_matrix(0.0, 1.0, 1.0, -pole))
            image = apply_isometry(mapping, circle)
            for z in points:
                assert _incidence(image, mapping(z)) <= 1e-12

    def test_line_maps_to_circle(self):
        # Inversion of the line Re z = 1/2 is the circle through 0 and 2.
        line = CircleAtInfinity((1.0, 0.0, 0.5, 0.5))
        inversion = IsometryMap.from_matrix(0.0, 1.0, 1.0, 0.0)
        image = apply_isometry(inversion, line)
        assert image.center == pytest.approx(1.0 + 0.0j, abs=1e-10)
        assert image.radius == pytest.approx(1.0, abs=1e-10)


class TestNormalizeCoaxial:
    def test_concentric_pair_stays_concentric(self):
        circle1 = circle_from_center_radius(2.0 + 1.0j, 1.0)
        circle2 = circle_from_center_radius(2.0 + 1.0j, 3.0)
        mapping = normalize_coaxial(circle1, circle2)
        image1 = apply_isometry(mapping, circle1)
        image2 = apply_isometry(mapping, circle2)
        assert abs(image1.center) <= 1e-10
        assert abs(image2.center) <= 1e-10
        assert image2.radius / image1.radius == pytest.approx(3.0, rel=1e-10)

    def test_concentric_larger_first_gets_inverted(self):
        circle1 = circle_from_center_radius(0.0j, 3.0)
        circle2 = circle_from_center_radius(0.0j, 1.0)
        mapping = normalize_coaxial(circle1, circle2)
        image1 = apply_isometry(mapping, circle1)
        image2 = apply_isometry(mapping, circle2)
        assert image1.radius < image2.radius

    def test_separated_pair(self):
        circle1 = circle_from_center_radius(0.0j, 1.0)
        circle2 = circle_from_center_radius(5.0 + 0.0j, 1.0)
        mapping = normalize_coaxial(circle1, circle2)
        image1 = apply_isometry(mapping, circle1)
        image2 = apply_isometry(mapping, circle2)
        assert abs(image1.center) <= 1e-9 * image1.radius
        assert abs(image2.center) <= 1e-9 * image2.radius
        assert image1.radius < image2.radius
        log_ratio = math.log(image2.radius / image1.radius)
        assert log_ratio == pytest.approx(
            plane_distance(circle1, circle2), abs=1e-9
        )

    def test_nested_pair(self):
        circle1 = circle_from_center_radius(0.3 + 0.0j, 1.0)
        circle2 = circle_from_center_radius(0.0j, 3.0)
        mapping = normalize_coaxial(circle1, circle2)
        image1 = apply_isometry(mapping, circle1)
        image2 = apply_isometry(mapping, circle2)
        assert abs(image1.center) <= 1e-9 * image1.radius
        assert abs(image2.center) <= 1e-9 * image2.radius
        log_ratio = abs(math.log(image2.radius / image1.radius))
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
            image1 = apply_isometry(mapping, first)
            image2 = apply_isometry(mapping, second)
            assert abs(image1.center) <= 1e-12 * image1.radius
            assert abs(image2.center) <= 1e-12 * image2.radius
            assert image1.radius < image2.radius
            log_ratio = math.log(image2.radius / image1.radius)
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

            mapping = normalize_coaxial(circle1, circle2)
            image1 = apply_isometry(mapping, circle1)
            image2 = apply_isometry(mapping, circle2)
            log_ratio = abs(math.log(image2.radius / image1.radius))
            assert abs(log_ratio - reference) <= 1e-9

            moved1, moved2 = mapped_pair(rng, circle1, circle2)
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
        assert abs(2.0 * gomes_rho(a_outer, tol) - 1e-7) <= tol.abs_tol

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


class TestBoundaryCircles:
    def test_critical_distance(self, bundle, tol):
        inner, outer = boundary_circles(bundle.a_c, tol)
        assert plane_distance(inner, outer) == pytest.approx(1.00229, abs=1e-4)

    def test_threshold_distance(self, bundle, tol):
        inner, outer = boundary_circles(bundle.a_L, tol)
        assert plane_distance(inner, outer) == pytest.approx(0.876895, abs=1e-5)

    def test_matches_doubled_rho(self, tol):
        inner, outer = boundary_circles(0.6, tol)
        assert plane_distance(inner, outer) == pytest.approx(
            2.0 * gomes_rho(0.6, tol), abs=1e-8
        )

    def test_swapped_by_unit_inversion(self, tol):
        inner, outer = boundary_circles(0.6, tol)
        inversion = IsometryMap.from_matrix(0.0, 1.0, 1.0, 0.0)
        swapped = apply_isometry(inversion, inner)
        for got, want in zip(swapped.coords, outer.coords):
            assert got == pytest.approx(want, abs=1e-10)
