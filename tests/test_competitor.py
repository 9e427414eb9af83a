import math

import numpy as np
import pytest

from hypcatenoid import (
    RegimeKind,
    area_difference,
    classify_regime,
    competitor_area,
    disk_area_total,
    find_cheaper_competitor,
    plane_separation,
    tube_area,
)

# Frozen against an independent evaluation of the closed form
# 2 pi L sinh(s) cosh(s) + disks(r) - 4 pi (cosh(s) - 1).
PI_06_3_005 = 114.24235424238
MARGIN_06_3_005 = 0.42652908564463
# Best margin for a = 0.6 at s = 0.6 / 2**20 once r - a is large enough that
# Phi(0.6, r) has reached phi(0.6).
MARGIN_06_FAR = 0.72245463918920


class TestClassifyRegime:
    def test_unstable_below_critical(self, bundle):
        label = classify_regime(0.3, bundle)
        assert label.kind is RegimeKind.UNSTABLE
        assert not label.at_a_c
        assert not label.at_a_L

    def test_stable_not_minimizing_in_middle(self, bundle):
        label = classify_regime(0.6, bundle)
        assert label.kind is RegimeKind.STABLE_NOT_MINIMIZING
        assert not label.at_a_c
        assert not label.at_a_L

    def test_area_minimizing_above_threshold(self, bundle):
        label = classify_regime(1.2, bundle)
        assert label.kind is RegimeKind.AREA_MINIMIZING

    def test_exactly_at_critical(self, bundle):
        label = classify_regime(bundle.a_c, bundle)
        assert label.kind is RegimeKind.STABLE_NOT_MINIMIZING
        assert label.at_a_c

    def test_just_below_critical_within_tolerance(self, bundle):
        label = classify_regime(bundle.a_c - 1e-12, bundle)
        assert label.kind is RegimeKind.STABLE_NOT_MINIMIZING
        assert label.at_a_c

    def test_clearly_below_critical(self, bundle):
        label = classify_regime(bundle.a_c - 1e-6, bundle)
        assert label.kind is RegimeKind.UNSTABLE
        assert not label.at_a_c

    def test_exactly_at_threshold(self, bundle):
        label = classify_regime(bundle.a_L, bundle)
        assert label.kind is RegimeKind.AREA_MINIMIZING
        assert label.at_a_L

    def test_just_below_threshold(self, bundle):
        label = classify_regime(bundle.a_L - 1e-12, bundle)
        assert label.kind is RegimeKind.STABLE_NOT_MINIMIZING
        assert label.at_a_L

    def test_domain(self, bundle):
        with pytest.raises(ValueError):
            classify_regime(0.0, bundle)
        with pytest.raises(ValueError):
            classify_regime(-0.4, bundle)

    def test_kind_serializes_as_string(self, bundle):
        assert classify_regime(0.3, bundle).kind.value == "unstable"


class TestCompetitorArea:
    def test_thin_cylinder_limit(self, tol):
        # As s -> 0 the cylinder and the removed footprints vanish, leaving
        # just the two full disks.
        value = competitor_area(0.6, 3.0, 1e-8, tol)
        assert value == pytest.approx(disk_area_total(3.0), abs=1e-6)

    def test_frozen_value(self, tol):
        assert competitor_area(0.6, 3.0, 0.05, tol) == pytest.approx(
            PI_06_3_005, abs=1e-9
        )

    def test_closed_form(self, tol):
        a, r, s = 0.7, 2.5, 0.2
        L = plane_separation(a, r, tol)
        expected = (
            2.0 * math.pi * L * math.sinh(s) * math.cosh(s)
            + disk_area_total(r)
            - 4.0 * math.pi * (math.cosh(s) - 1.0)
        )
        assert competitor_area(a, r, s, tol) == pytest.approx(expected, rel=1e-12)

    def test_beats_catenoid_in_middle_regime(self, tol):
        assert competitor_area(0.6, 3.0, 0.05, tol) < tube_area(0.6, 3.0, tol)

    def test_neck_width_allowed_up_to_a(self, tol):
        value = competitor_area(0.6, 3.0, 0.6, tol)
        assert math.isfinite(value) and value > 0.0

    def test_domain(self, tol):
        with pytest.raises(ValueError):
            competitor_area(0.6, 3.0, 0.0, tol)
        with pytest.raises(ValueError):
            competitor_area(0.6, 3.0, -0.1, tol)
        with pytest.raises(ValueError):
            competitor_area(0.6, 3.0, 0.7, tol)
        with pytest.raises(ValueError):
            competitor_area(0.6, 0.5, 0.1, tol)


class TestFindCheaperCompetitor:
    def test_witness_in_middle_regime(self, tol):
        report = find_cheaper_competitor(0.6, 3.0, tol)
        assert report.a == 0.6 and report.r == 3.0
        assert report.s is not None
        assert 0.0 < report.s < 0.6
        assert report.margin is not None and report.margin > 0.0
        assert report.area_catenoid == pytest.approx(
            tube_area(0.6, 3.0, tol), abs=1e-9
        )
        assert report.margin == pytest.approx(
            report.area_catenoid - report.area_competitor, abs=1e-9
        )

    def test_margin_at_fixed_s(self, tol):
        report = find_cheaper_competitor(0.6, 3.0, tol)
        fixed = report.area_catenoid - competitor_area(0.6, 3.0, 0.05, tol)
        assert fixed == pytest.approx(MARGIN_06_3_005, abs=1e-9)
        assert report.margin >= fixed

    def test_margin_approaches_area_difference(self, tol):
        # On the finest grid point the cylinder contribution is about
        # 2 pi L a / 2**20, so the best margin sits within 1e-5 of Phi.
        report = find_cheaper_competitor(0.6, 3.0, tol)
        phi = area_difference(0.6, 3.0, tol).phi_a_r
        assert abs(report.margin - phi) < 1e-5

    @pytest.mark.parametrize("r", [30.0, 40.0, 60.0])
    def test_margin_at_large_radius(self, tol, r):
        # Tube and competitor areas are both about 4 pi cosh r, so their
        # difference would lose every digit; the margin comes from Phi.
        report = find_cheaper_competitor(0.6, r, tol)
        assert report.s == 0.6 / 2**20
        s = report.s
        phi = area_difference(0.6, r, tol).phi_a_r
        L = plane_separation(0.6, r, tol)
        expected = (
            phi
            - math.pi * L * math.sinh(2.0 * s)
            + 4.0 * math.pi * (math.cosh(s) - 1.0)
        )
        assert abs(report.margin - expected) <= 1e-12
        assert report.margin == pytest.approx(MARGIN_06_FAR, abs=1e-12)

    def test_radius_past_cosh_overflow(self, tol):
        far = find_cheaper_competitor(0.6, 1000.0, tol)
        limit = find_cheaper_competitor(0.6, math.inf, tol)
        assert (far.s, far.margin) == (limit.s, limit.margin)
        assert far.area_competitor == competitor_area(0.6, 1000.0, 0.1, tol) == math.inf

    def test_no_witness_above_threshold(self, tol):
        report = find_cheaper_competitor(1.0, 3.0, tol)
        assert report.s is None
        assert report.area_competitor is None
        assert report.margin is None
        assert report.area_catenoid == pytest.approx(
            tube_area(1.0, 3.0, tol), abs=1e-9
        )

    def test_no_witness_confirmed_by_dense_scan(self, tol):
        # margin(s) = Phi - 2 pi L sinh(s) cosh(s) + 4 pi (cosh(s) - 1), so
        # absence means the cylinder penalty dominates Phi for every s.
        phi = area_difference(1.0, 3.0, tol).phi_a_r
        L = plane_separation(1.0, 3.0, tol)
        s = np.linspace(1e-6, 1.0, 200_000)
        penalty = (
            2.0 * math.pi * L * np.sinh(s) * np.cosh(s)
            - 4.0 * math.pi * (np.cosh(s) - 1.0)
        )
        assert float(np.min(penalty - phi)) > 0.0

    def test_no_witness_for_short_tube(self, tol):
        report = find_cheaper_competitor(0.6, 0.61, tol)
        assert report.s is None and report.margin is None

    def test_witness_present_across_middle_regime(self, bundle, tol):
        for a in np.linspace(bundle.a_c + 0.01, bundle.a_L - 0.01, 5):
            a = float(a)
            found = any(
                find_cheaper_competitor(a, a + dr, tol).margin is not None
                for dr in (1.0, 3.0, 10.0)
            )
            assert found, f"no witness for a={a}"

    def test_witness_absent_at_and_above_threshold(self, bundle, tol):
        for a in (bundle.a_L + 0.01, 1.0, 1.5, 2.0):
            for dr in (1.0, 3.0, 10.0):
                report = find_cheaper_competitor(a, a + dr, tol)
                assert report.margin is None, f"witness at a={a}, r={a + dr}"

    def test_domain(self, tol):
        with pytest.raises(ValueError):
            find_cheaper_competitor(0.6, 0.6, tol)
        with pytest.raises(ValueError):
            find_cheaper_competitor(0.6, 0.5, tol)
