import math
import pickle

import numpy as np
import pytest

from hypcatenoid import (
    CompetitorReport,
    RegimeKind,
    RegimeLabel,
    area_difference,
    classify_regime,
    competitor_report,
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
        for a in (26.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="neck distance"):
                classify_regime(a, bundle)

    def test_kind_serializes_as_string(self, bundle):
        assert classify_regime(0.3, bundle).kind.value == "unstable"

    def test_one_regime_one_label(self, bundle):
        # Labels are read-only, so two necks in one regime share one object;
        # it equals, hashes, prints and pickles as a label built afresh.
        pairs = (
            (0.2, 0.3),
            (0.6, 0.7),
            (1.2, 3.0),
            (bundle.a_c, bundle.a_c - 1e-12),
            (bundle.a_L, bundle.a_L + 1e-12),
            (bundle.a_L - 1e-12, bundle.a_L - 2e-12),
        )
        labels = set()
        for first, second in pairs:
            label = classify_regime(first, bundle)
            assert classify_regime(second, bundle) is label
            fresh = RegimeLabel(label.kind, label.at_a_c, label.at_a_L)
            assert fresh == label and hash(fresh) == hash(label)
            assert repr(fresh) == repr(label)
            assert pickle.loads(pickle.dumps(label)) == label
            labels.add(label)
        assert len(labels) == len(pairs)


class TestCompetitorArea:
    def test_thin_cylinder_limit(self):
        # As s -> 0 the cylinder and the removed footprints vanish, leaving
        # just the two full disks.
        value = competitor_report(0.6, 3.0, 1e-8).area_competitor
        assert value == pytest.approx(disk_area_total(3.0), abs=1e-6)

    def test_frozen_value(self):
        # The margin, taken from Phi, agrees with the difference of the areas.
        report = competitor_report(0.6, 3.0, 0.05)
        assert report.area_competitor == pytest.approx(PI_06_3_005, abs=1e-9)
        assert report.margin == pytest.approx(MARGIN_06_3_005, abs=1e-9)

    def test_closed_form(self):
        a, r, s = 0.7, 2.5, 0.2
        L = plane_separation(a, r)
        expected = (
            2.0 * math.pi * L * math.sinh(s) * math.cosh(s)
            + disk_area_total(r)
            - 4.0 * math.pi * (math.cosh(s) - 1.0)
        )
        area = competitor_report(a, r, s).area_competitor
        assert area == pytest.approx(expected, rel=1e-12)

    def test_beats_catenoid_in_middle_regime(self):
        assert competitor_report(0.6, 3.0, 0.05).area_competitor < tube_area(0.6, 3.0)

    @pytest.mark.parametrize(
        "a, r",
        [(0.6, 3.0), (0.6, 0.9), (0.6, 0.6 + 1e-7), (1e-6, 0.3), (1e-6, 0.5),
         (0.3, 45.0), (20.0, 20.2), (20.0, 21.0), (1e-100, 1.0)],
    )
    def test_fields_from_public_values(self, a, r):
        # L and Phi share one AGM loop and one duplication sequence, and
        # equal plane_separation and area_difference bit for bit on both
        # sides of the profile's tail form (r = 0.9 and 0.6 + 1e-7 at a =
        # 0.6, 0.3 at a = 1e-6 and 20.2 at a = 20 lie below it).
        L, phi = plane_separation(a, r), area_difference(a, r)
        disks = disk_area_total(r)
        for s in (a * 2.0**-20, a / 3.0, a):
            footprints = disk_area_total(s)
            assert competitor_report(a, r, s) == CompetitorReport(
                s,
                phi + disks,
                2.0 * math.pi * L * math.sinh(s) * math.cosh(s) + disks - footprints,
                phi - math.pi * L * math.sinh(2.0 * s) + footprints,
            ), s

    def test_neck_width_allowed_up_to_a(self):
        value = competitor_report(0.6, 3.0, 0.6).area_competitor
        assert math.isfinite(value) and value > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            competitor_report(0.6, 3.0, 0.0)
        with pytest.raises(ValueError):
            competitor_report(0.6, 3.0, -0.1)
        with pytest.raises(ValueError):
            competitor_report(0.6, 3.0, 0.7)
        with pytest.raises(ValueError):
            competitor_report(0.6, 0.5, 0.1)


class TestFindCheaperCompetitor:
    def test_witness_in_middle_regime(self, tol):
        report = find_cheaper_competitor(0.6, 3.0, tol)
        assert report.s is not None
        assert 0.0 < report.s < 0.6
        assert report.margin is not None and report.margin > 0.0
        assert report.area_catenoid == pytest.approx(
            tube_area(0.6, 3.0), abs=1e-9
        )
        assert report.margin == pytest.approx(
            report.area_catenoid - report.area_competitor, abs=1e-9
        )

    @pytest.mark.parametrize("a, r", [(0.6, 3.0), (0.3, 1.0), (0.8, 20.0), (1e-6, 30.0)])
    def test_is_report_at_search_radius(self, tol, a, r):
        # Where the margin is positive the search returns the report at
        # s = a / 2**20 unchanged.
        report = find_cheaper_competitor(a, r, tol)
        assert report.margin > 0.0
        assert report == competitor_report(a, r, a * 2**-20)

    def test_margin_at_fixed_s(self, tol):
        report = find_cheaper_competitor(0.6, 3.0, tol)
        at_s = competitor_report(0.6, 3.0, 0.05)
        fixed = report.area_catenoid - at_s.area_competitor
        assert fixed == pytest.approx(MARGIN_06_3_005, abs=1e-9)
        assert report.margin >= fixed

    def test_margin_approaches_area_difference(self, tol):
        # At s = a / 2**20 the cylinder contribution is about
        # 2 pi L a / 2**20, so the margin sits within 1e-5 of Phi.
        report = find_cheaper_competitor(0.6, 3.0, tol)
        phi = area_difference(0.6, 3.0)
        assert abs(report.margin - phi) < 1e-5

    @pytest.mark.parametrize("r", [30.0, 40.0, 60.0])
    def test_margin_at_large_radius(self, tol, r):
        # Tube and competitor areas are both about 4 pi cosh r, so their
        # difference would lose every digit; the margin comes from Phi.
        report = find_cheaper_competitor(0.6, r, tol)
        assert report.s == 0.6 / 2**20
        s = report.s
        phi = area_difference(0.6, r)
        L = plane_separation(0.6, r)
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
        fixed = competitor_report(0.6, 1000.0, 0.1)
        assert far.area_competitor == fixed.area_competitor == math.inf

    def test_no_witness_above_threshold(self, tol):
        report = find_cheaper_competitor(1.0, 3.0, tol)
        assert report.s is None
        assert report.area_competitor is None
        assert report.margin is None
        assert report.area_catenoid == pytest.approx(
            tube_area(1.0, 3.0), abs=1e-9
        )

    def test_no_witness_confirmed_by_dense_scan(self):
        # margin(s) = Phi - 2 pi L sinh(s) cosh(s) + 4 pi (cosh(s) - 1), so
        # absence means the cylinder penalty dominates Phi for every s.
        phi = area_difference(1.0, 3.0)
        L = plane_separation(1.0, 3.0)
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

    def test_matches_grid_scan(self, tol):
        # The reference is the 20-point scan s = a / 2**k, k = 1..20, that
        # kept the largest positive margin.  Where the sign of Phi is
        # resolved it always picks k = 20, the one radius searched now.
        necks = [min(float(a), 25.0) for a in np.geomspace(1e-6, 25.0, 60)]
        gaps = [float(dr) for dr in np.geomspace(1e-9, 60.0, 60)]
        witnesses = 0
        for a in necks:
            for r in (a + dr for dr in gaps):
                phi = area_difference(a, r)
                if abs(phi) <= 1e-12:
                    continue
                L = plane_separation(a, r)
                best_s, best = None, 0.0
                for k in range(1, 21):
                    s = a / 2.0**k
                    margin = (
                        phi
                        - math.pi * L * math.sinh(2.0 * s)
                        + 8.0 * math.pi * math.sinh(0.5 * s) ** 2
                    )
                    if margin > best:
                        best_s, best = s, margin
                report = find_cheaper_competitor(a, r, tol)
                expected = (best_s, best if best_s is not None else None)
                assert (report.s, report.margin) == expected, (a, r)
                witnesses += best_s is not None
        assert witnesses > 1000

    def test_separation_exceeds_bound_where_phi_vanishes(self, bundle):
        # margin(s) < Phi exactly when L > 2 tanh(s/2) / cosh s.  The bound
        # rises on (0, a_L], and at the zero r0 of Phi(a, .) the separation
        # already exceeds it at s = a by a factor of at least 1.27.
        def bound(s):
            return 2.0 * math.tanh(0.5 * s) / math.cosh(s)

        grid = np.linspace(1e-6, 1.06, 500)
        assert all(bound(u) < bound(v) for u, v in zip(grid, grid[1:]))
        assert bundle.a_L < 1.06
        necks = list(np.geomspace(1e-6, bundle.a_L, 40)[:-1])
        for a in necks + [bundle.a_L * (1.0 - 1e-3), bundle.a_L * (1.0 - 1e-6)]:
            a = float(a)
            lo, hi = a, a + 41.0  # Phi(a, .) is constant past r - a = 40
            assert area_difference(a, hi) > 0.0
            while lo < (mid := 0.5 * (lo + hi)) < hi:
                if area_difference(a, mid) > 0.0:
                    hi = mid
                else:
                    lo = mid
            assert plane_separation(a, hi) > 1.27 * bound(a), a

    def test_margin_sign_matches_phi_where_separation_is_large(self):
        # Where L >= 1/sqrt(2) the margin m(s) falls strictly from Phi, and
        # m(s) >= Phi - pi L sinh 2s, so outside that gap around 0 the
        # margin at s = a / 2**20 has the sign of Phi.
        checked = positive = 0
        for a in (float(a) for a in np.geomspace(0.15, 1.1, 150)):
            for r in (a + float(dr) for dr in np.geomspace(1e-9, 60.0, 150)):
                L = plane_separation(a, r)
                if L < 1.0 / math.sqrt(2.0):
                    continue
                s = a * 2.0**-20
                phi = area_difference(a, r)
                if abs(phi) <= math.pi * L * math.sinh(2.0 * s):
                    continue
                margin = competitor_report(a, r, s).margin
                assert (margin > 0.0) == (phi > 0.0), (a, r)
                checked += 1
                positive += phi > 0.0
        assert checked > 4000 and 0 < positive < checked

    def test_smallest_neck(self, tol):
        report = find_cheaper_competitor(1e-100, 1.0, tol)
        assert report.s is None and math.isfinite(report.area_catenoid)
        assert math.isfinite(competitor_report(1e-100, 1.0, 1e-101).area_competitor)
        with pytest.raises(ValueError, match="smallest the profile"):
            find_cheaper_competitor(1e-200, 1.0, tol)
        with pytest.raises(ValueError, match="smallest the profile"):
            competitor_report(1e-200, 1.0, 1e-201)

    def test_domain(self, tol):
        with pytest.raises(ValueError):
            find_cheaper_competitor(0.6, 0.6, tol)
        with pytest.raises(ValueError):
            find_cheaper_competitor(0.6, 0.5, tol)
        for a in (0.0, -0.4, 26.0):
            with pytest.raises(ValueError, match="neck distance must be in"):
                find_cheaper_competitor(a, 30.0, tol)
