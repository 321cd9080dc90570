import math
import warnings

import numpy as np
import pytest

from hetcap import (DuplexConfig, DuplexMode, MacroBS,
                    MeanInterferenceBreakdown, NetworkTopology,
                    QuadratureDomainError, Region, TaylorAccuracyWarning,
                    TaylorValidityError, dbm_to_watts, mean_interference_bs_ue,
                    mean_interference_ue_ue, mean_pathloss_numeric,
                    mean_pathloss_taylor, total_mean_interference)
from hetcap.interference import _disk_pair_pathloss

P_UE = 0.2


def _paper_ue_ue(d):
    """The paper's UE-UE composition of its series, alpha = 3, 90 m disks."""
    return (mean_pathloss_taylor(d, 90.0, 3.0)
            + (9.0 * 90.0**2 / 8.0) * mean_pathloss_taylor(d, 90.0, 5.0)
            + (15.0 * 90.0**4 / 24.0) * mean_pathloss_taylor(d, 90.0, 7.0))


class TestTaylorClosedForm:
    def test_point_interferer_is_plain_pathloss(self):
        assert mean_pathloss_taylor(500.0, 0.0, 3.0) == pytest.approx(8e-9)

    def test_zero_exponent_is_unity(self):
        assert mean_pathloss_taylor(500.0, 90.0, 0.0) == pytest.approx(1.0)

    def test_reference_bracket(self):
        value = mean_pathloss_taylor(500.0, 90.0, 3.0)
        assert value == pytest.approx(1.037106 * 8e-9, rel=1e-6)

    def test_validity_error_inside_disk(self):
        with pytest.raises(TaylorValidityError):
            mean_pathloss_taylor(80.0, 90.0, 3.0)

    def test_accuracy_warning_below_twice_radius(self):
        with pytest.warns(TaylorAccuracyWarning):
            mean_pathloss_taylor(150.0, 90.0, 3.0)

    def test_no_warning_at_twice_radius(self, recwarn):
        mean_pathloss_taylor(180.0, 90.0, 3.0)
        assert not [w for w in recwarn if w.category is TaylorAccuracyWarning]

    def test_always_at_least_plain_pathloss(self):
        for d in (200.0, 400.0, 800.0):
            for alpha in (2.0, 3.0, 4.0):
                assert mean_pathloss_taylor(d, 90.0, alpha) >= d ** (-alpha)


class TestQuadratureOracle:
    def test_degenerate_disk(self):
        assert mean_pathloss_numeric(500.0, 0.0, 3.0) == pytest.approx(8e-9)

    def test_agrees_with_plain_monte_carlo(self, rng):
        n = 10**6
        r = 90.0 * np.sqrt(rng.random(n))
        t = 2 * math.pi * rng.random(n)
        x = np.hypot(500.0 - r * np.cos(t), r * np.sin(t))
        samples = x ** -3.0
        mc, se = samples.mean(), samples.std(ddof=1) / math.sqrt(n)
        oracle = mean_pathloss_numeric(500.0, 90.0, 3.0)
        assert abs(oracle - mc) < 4 * se

    def test_rotational_symmetry(self, rng):
        # rotating the victim disk around the interferer leaves the mean alone
        oracle = mean_pathloss_numeric(500.0, 90.0, 3.0)
        for phi in (0.7, 2.1):
            n = 4 * 10**5
            r = 90.0 * np.sqrt(rng.random(n))
            t = 2 * math.pi * rng.random(n) + phi
            cx, cy = 500.0 * math.cos(phi), 500.0 * math.sin(phi)
            x = np.hypot(cx - r * np.cos(t), cy - r * np.sin(t))
            samples = x ** -3.0
            se = samples.std(ddof=1) / math.sqrt(n)
            assert abs(samples.mean() - oracle) < 4 * se

    def test_divergent_domain_raises(self):
        with pytest.raises(QuadratureDomainError):
            mean_pathloss_numeric(50.0, 90.0, 3.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            mean_pathloss_numeric(0.0, 90.0, 3.0)
        with pytest.raises(ValueError):
            mean_pathloss_numeric(500.0, -1.0, 3.0)

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 4.0, 5.0])
    @pytest.mark.parametrize("ratio", [1.001, 1.01, 1.1, 2.0, 10.0])
    def test_matches_mpmath_outside_the_disk(self, alpha, ratio):
        oracle = _mp_disk_mean(ratio * 90.0, 0.0, 90.0, alpha)
        with np.errstate(all="raise"):
            value = mean_pathloss_numeric(ratio * 90.0, 90.0, alpha)
        assert abs(value - oracle) <= 1e-12 * oracle

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    def test_inside_the_disk_is_finite(self, alpha):
        # the disk average is finite for alpha < 2 wherever the point is;
        # near the centre it tends to the centred mean 2 R^-alpha/(2 - alpha)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            values = [mean_pathloss_numeric(d, 90.0, alpha)
                      for d in (81.0, 45.0, 90e-6)]
        assert all(math.isfinite(v) and v > 0 for v in values)
        centred = 2.0 * 90.0**-alpha / (2.0 - alpha)
        assert abs(values[2] - centred) <= 1e-12 * centred

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    @pytest.mark.parametrize("d", [45.0, 81.0])
    def test_inside_the_disk_agrees_with_monte_carlo(self, rng, alpha, d):
        # x^-alpha has a finite variance over the disk for alpha < 1
        n = 10**6
        r = 90.0 * np.sqrt(rng.random(n))
        t = 2 * math.pi * rng.random(n)
        samples = np.hypot(r * np.cos(t) - d, r * np.sin(t)) ** -alpha
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(mean_pathloss_numeric(d, 90.0, alpha) - samples.mean()) < 4 * se

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
    def test_on_the_disk_edge(self, alpha):
        # at d = R the chord at angle phi from the diameter is 2R cos(phi);
        # mpmath integrates it (as 2R sin, from the tangent) against a
        # closed form that lies between the values just inside and just
        # outside the disk, as the mean falls with d
        mp = pytest.importorskip("mpmath")
        with mp.workdps(25):
            b = 2 - mp.mpf(alpha)
            oracle = float(2 * mp.quad(lambda p: (180 * mp.sin(p)) ** b / b,
                                       [0, mp.pi / 2]) / (mp.pi * 90**2))
        value = mean_pathloss_numeric(90.0, 90.0, alpha)
        assert abs(value - oracle) <= 1e-13 * oracle
        assert (mean_pathloss_numeric(90.0 * (1 - 1e-6), 90.0, alpha) > value
                > mean_pathloss_numeric(90.0 * (1 + 1e-6), 90.0, alpha))


class TestTaylorVsOracle:
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
    def test_within_one_percent_beyond_twice_pair_radius(self, alpha):
        # guarantee region d >= 2(R1+R2) = 360 m for 90 m disks
        for d in (360.0, 450.0, 720.0, 1800.0):
            approx = mean_pathloss_taylor(d, 90.0, alpha)
            oracle = mean_pathloss_numeric(d, 90.0, alpha)
            assert abs(approx - oracle) / oracle < 0.01

    def test_error_monotone_in_separation(self):
        errors = []
        for d in 90.0 * np.array([2.5, 4.0, 6.4, 10.24, 16.4]):
            approx = mean_pathloss_taylor(d, 90.0, 3.0)
            oracle = mean_pathloss_numeric(d, 90.0, 3.0)
            errors.append(abs(approx - oracle) / oracle)
        assert all(a > b for a, b in zip(errors, errors[1:]))


class TestMeanInterferenceBsUe:
    def test_reference_product(self):
        # exact disk mean 8.3018e-9 (mpmath), not the paper series' 8.2969e-9
        value = mean_interference_bs_ue(3.1623, 500.0, 90.0, 3.0)
        assert value == pytest.approx(2.625271e-8, rel=1e-6)

    def test_silent_bs(self):
        assert mean_interference_bs_ue(0.0, 500.0, 90.0, 3.0) == 0.0

    def test_point_victim_reduces_to_pathloss(self):
        assert mean_interference_bs_ue(1.0, 500.0, 0.0, 3.0) == pytest.approx(8e-9)

    def test_propagates_validity_error(self):
        with pytest.raises(TaylorValidityError):
            mean_interference_bs_ue(1.0, 50.0, 90.0, 3.0)


class TestMeanInterferenceUeUe:
    def test_reference_composition(self):
        # exact value from an mpmath double quadrature over both disks
        value = mean_interference_ue_ue(P_UE, 500.0, 90.0, 90.0, 3.0)
        assert value == pytest.approx(1.727493e-9, rel=1e-6)
        # the paper's composition of its series, as the three terms stack
        # up; it truncates, so it sits below the exact mean
        paper = _paper_ue_ue(500.0)
        assert paper == pytest.approx(8.2968e-9 + 3.2157e-10 + 6.3047e-12,
                                      rel=1e-3)
        assert paper < value / P_UE

    def test_point_terminals(self):
        assert mean_interference_ue_ue(P_UE, 500.0, 0.0, 0.0, 3.0) \
            == pytest.approx(P_UE * 8e-9)

    def test_zero_power(self):
        assert mean_interference_ue_ue(0.0, 500.0, 90.0, 90.0, 3.0) == 0.0

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
    def test_zero_radius_reduces_to_bs_ue(self, alpha):
        for d in (182.0, 500.0):
            point_to_disk = mean_interference_bs_ue(P_UE, d, 90.0, alpha)
            for r_i, r_v in ((0.0, 90.0), (90.0, 0.0)):
                value = mean_interference_ue_ue(P_UE, d, r_i, r_v, alpha)
                assert value == pytest.approx(point_to_disk, rel=1e-13)

    def test_touching_or_overlapping_disks_raise(self):
        # 180.01 m is within 1e-4 of touching: past the series' term cap
        for d in (180.01, 180.0, 150.0):
            with pytest.raises(TaylorValidityError):
                mean_interference_ue_ue(P_UE, d, 90.0, 90.0, 3.0)

    def test_never_below_paper_series(self):
        # the paper's truncation drops positive terms
        for d in (190.0, 250.0, 500.0, 1000.0):
            assert mean_interference_ue_ue(1.0, d, 90.0, 90.0, 3.0) \
                > _paper_ue_ue(d)

    def test_double_monte_carlo_oracle(self, rng):
        n = 10**6
        r1 = 90.0 * np.sqrt(rng.random(n))
        t1 = 2 * math.pi * rng.random(n)
        r2 = 90.0 * np.sqrt(rng.random(n))
        t2 = 2 * math.pi * rng.random(n)
        x = np.hypot(500.0 + r1 * np.cos(t1) - r2 * np.cos(t2),
                     r1 * np.sin(t1) - r2 * np.sin(t2))
        samples = P_UE * x ** -3.0
        analytic = mean_interference_ue_ue(P_UE, 500.0, 90.0, 90.0, 3.0)
        # the 1% closed-form contract; the acceptance suite pins 3 sigma
        assert abs(analytic - samples.mean()) / samples.mean() < 0.01


def _mp_disk_mean(d, r_i, r_v, alpha):
    """mpmath oracle for the mean of d^-alpha between two uniform disks.

    Integrates the circle mean d^-alpha 2F1(a, a; 1; s^2/d^2), a = alpha/2,
    against the density of s = |X - Y|: 2 s lens(s)/(pi r_i^2 r_v^2), with
    lens(s) the overlap area of the two disks at center distance s, or
    2 s/R^2 when one radius R is zero (a point and a disk).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(25):
        d, r_i, r_v, alpha = (mp.mpf(v) for v in (d, r_i, r_v, alpha))
        a = alpha / 2

        def density(s):
            if min(r_i, r_v) == 0:
                return 2 * s / (r_i + r_v) ** 2
            if s <= abs(r_i - r_v):
                lens = mp.pi * min(r_i, r_v) ** 2
            else:
                lens = (r_i**2 * mp.acos((s * s + r_i**2 - r_v**2) / (2 * s * r_i))
                        + r_v**2 * mp.acos((s * s + r_v**2 - r_i**2) / (2 * s * r_v))
                        - mp.sqrt((-s + r_i + r_v) * (s + r_i - r_v)
                                  * (s - r_i + r_v) * (s + r_i + r_v)) / 2)
            return 2 * s * lens / (mp.pi * r_i**2 * r_v**2)

        return float(mp.quad(
            lambda s: density(s) * d**-alpha * mp.hyp2f1(a, a, 1, (s / d) ** 2),
            sorted({mp.mpf(0), abs(r_i - r_v), r_i + r_v})))


class TestExactMeanVsMpmath:
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
    @pytest.mark.parametrize("ratio", [1.01, 1.037, 2.8])
    def test_matches_mpmath(self, alpha, ratio):
        # ratio is d/(R_i + R_v); 1.037 is the closest pair in the dense
        # figure sweeps, 1.01 near the series' reach
        for r_i, r_v in ((90.0, 90.0), (50.0, 90.0), (0.0, 90.0)):
            d = ratio * (r_i + r_v)
            oracle = _mp_disk_mean(d, r_i, r_v, alpha)
            values = [mean_interference_ue_ue(1.0, d, r_i, r_v, alpha)]
            if r_i == 0.0:
                values.append(mean_interference_bs_ue(1.0, d, r_v, alpha))
            for value in values:
                assert abs(value - oracle) <= 1e-12 * oracle

    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
    def test_point_to_disk_at_the_disk_edge(self, alpha):
        # 0.2% outside the disk the series needs ~11k-16k terms and stays
        # exact; 0.01% outside it would need more than MAX_SERIES_TERMS
        oracle = _mp_disk_mean(1.002 * 90.0, 0.0, 90.0, alpha)
        value = mean_interference_bs_ue(1.0, 1.002 * 90.0, 90.0, alpha)
        assert abs(value - oracle) <= 1e-12 * oracle
        with pytest.raises(TaylorValidityError, match="too close to touching"):
            mean_interference_bs_ue(1.0, (1.0 + 1e-4) * 90.0, 90.0, alpha)


class TestTotalMeanInterference:
    def test_macro_only_when_single_cell(self, single_cell_topology, fd_duplex):
        breakdown = total_mean_interference(single_cell_topology, fd_duplex)
        assert len(breakdown.per_bs) == 1
        assert len(breakdown.cells) == 0        # per_bs[0] is the macro
        assert len(breakdown.per_ue) == 0
        assert breakdown.total == pytest.approx(breakdown.per_bs[0])

    def test_fd_single_cell_has_no_uplink_terms(self, single_cell_topology,
                                                fd_duplex):
        # no other cell, so the uplink series runs on zero pairs
        breakdown = total_mean_interference(single_cell_topology, fd_duplex)
        assert breakdown.per_ue.shape == (0,)
        assert breakdown.total == breakdown.per_bs[0]

    def test_zero_pairs_give_an_empty_array(self):
        empty = np.empty(0)
        out = _disk_pair_pathloss(empty, empty, 90.0, empty)
        assert out.shape == (0,) and out.dtype == float

    @pytest.mark.parametrize("per_bs,per_ue", [
        ([1e-9, math.nan], []),
        ([1e-9, 2e-9], [math.nan]),
        ([1e-9, -2e-9], []),
        ([1e-9, 2e-9], [-1e-12]),
    ])
    def test_breakdown_refuses_nan_and_negative_entries(self, per_bs, per_ue):
        with pytest.raises(ValueError, match=">= 0, not nan"):
            MeanInterferenceBreakdown(per_bs, per_ue, [1])

    @pytest.mark.parametrize("per_bs,per_ue", [
        ([1e-9], []),
        ([1e-9, 2e-9, 3e-9], []),
        ([1e-9, 2e-9], [1e-12, 2e-12]),
    ])
    def test_breakdown_refuses_terms_that_do_not_match_the_cells(self, per_bs,
                                                                per_ue):
        # one cell: the macro and its BS, and none or one uplink UE
        with pytest.raises(ValueError, match="1 cells need 2 BS terms"):
            MeanInterferenceBreakdown(per_bs, per_ue, [1])

    def test_breakdown_arrays_are_read_only_copies(self, two_cell_topology,
                                                   fd_duplex):
        breakdown = total_mean_interference(two_cell_topology, fd_duplex)
        per_bs, cells = np.array([1e-9, 2e-9]), np.array([1])
        copy = MeanInterferenceBreakdown(per_bs, [3e-9], cells)
        per_bs[0], cells[0] = 5.0, 7
        assert copy.per_bs.tolist() == [1e-9, 2e-9] and copy.cells.tolist() == [1]
        for array in (breakdown.per_bs, breakdown.per_ue, breakdown.cells):
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert breakdown.cells.tolist() == two_cell_topology.others.tolist()
        assert breakdown.total == (sum(breakdown.per_bs.tolist())
                                   + sum(breakdown.per_ue.tolist()))

    def test_hd_has_no_ue_terms(self, two_cell_topology, hd_duplex):
        breakdown = total_mean_interference(two_cell_topology, hd_duplex)
        assert len(breakdown.per_ue) == 0
        assert breakdown.total == pytest.approx(breakdown.per_bs.sum())

    def test_two_cell_composition(self, two_cell_topology):
        duplex = DuplexConfig(DuplexMode.FD, 1e-8, 1.0, P_UE)
        breakdown = total_mean_interference(two_cell_topology, duplex)
        macro_term = mean_interference_bs_ue(dbm_to_watts(46.0), 400.0, 90.0, 3.0)
        assert breakdown.total == pytest.approx(
            macro_term + 2.625271e-8 + 1.727493e-9, rel=1e-6)

    def test_linearity_in_powers(self, two_cell_topology):
        duplex = DuplexConfig(DuplexMode.FD, 0.0, 1.0, P_UE)
        base = total_mean_interference(two_cell_topology, duplex)
        k = 3.0
        t = two_cell_topology
        scaled = NetworkTopology(
            MacroBS(t.macro_bs.position, k * t.macro_bs.power, t.macro_bs.alpha),
            t.centers, t.radius, k * t.power, t.alpha, t.hard_core_distance,
            t.tagged_index, t.region)
        scaled_duplex = DuplexConfig(DuplexMode.FD, 0.0, 1.0, k * P_UE)
        got = total_mean_interference(scaled, scaled_duplex)
        for a, b in zip([*base.per_bs, *base.per_ue], [*got.per_bs, *got.per_ue]):
            assert b == pytest.approx(k * a, rel=1e-12)

    def test_mixed_cells_match_one_pair_at_a_time(self):
        # a cell 185 m from the tagged one (its uplink series needs ~900
        # terms) and 59 far cells with mixed radii and exponents: the terms
        # are grouped by (radius, exponent), large groups summed with baby
        # and giant steps, and each must equal its single-pair mean
        rng = np.random.default_rng(5)
        angle = np.arange(59) * 2.0 * math.pi / 59
        dist = 2000.0 + 40.0 * rng.random(59)
        centers = ([(0.0, 0.0), (185.0, 0.0)]
                   + list(zip(dist * np.cos(angle), dist * np.sin(angle))))
        mostly = [0.8, 0.1, 0.1]
        radius = [90.0, 90.0] + list(rng.choice([90.0, 50.0, 25.0], 59, p=mostly))
        alpha = [3.0, 3.0] + list(rng.choice([3.0, 2.5, 4.0], 59, p=mostly))
        topology = NetworkTopology(MacroBS((-400.0, 300.0), 40.0, 3.5), centers,
                                   radius, 2.0, alpha, 180.0, 0, Region(3000.0))
        breakdown = total_mean_interference(
            topology, DuplexConfig(DuplexMode.FD, 0.0, 1.0, P_UE))
        macro = mean_interference_bs_ue(40.0, 500.0, 90.0, 3.5)
        assert breakdown.per_bs[0] == pytest.approx(macro, rel=1e-13)
        for k in range(1, 61):
            d = math.hypot(*centers[k])
            assert breakdown.per_bs[k] == pytest.approx(
                mean_interference_bs_ue(2.0, d, 90.0, alpha[k]), rel=1e-13)
            assert breakdown.per_ue[k - 1] == pytest.approx(
                mean_interference_ue_ue(P_UE, d, radius[k], 90.0, alpha[k]), rel=1e-13)

    def test_macro_inside_tagged_disk_raises(self):
        topology = NetworkTopology(MacroBS((0.0, 0.0), 39.8, 3.0), [(50.0, 0.0)],
                                   90.0, 3.1623, 3.0, 180.0, 0, Region(1000.0))
        with pytest.raises(TaylorValidityError, match="macro"):
            total_mean_interference(topology,
                                    DuplexConfig(DuplexMode.FD, 0.0, 1.0, P_UE))

    def test_matches_trial_interference_mean(self, sparse_topology, hd_duplex,
                                             fd_duplex):
        # Analytic total, the mean the lower bound freezes, vs. the empirical
        # mean of the exact-MC kernel's per-trial interference, per mode.
        from hetcap import simulate_components

        components = simulate_components(sparse_topology, P_UE, 10**5, 11)
        for duplex, totals in (
                (hd_duplex, components.bs_interference),
                (fd_duplex, components.bs_interference
                 + components.ue_interference)):
            analytic = total_mean_interference(sparse_topology, duplex).total
            se = totals.std(ddof=1) / math.sqrt(len(totals))
            assert abs(analytic - totals.mean()) < 3 * se
