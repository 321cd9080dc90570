import hashlib
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from scipy import stats

from conftest import (NOISE, P_MACRO, P_PICO, P_UE, g, g_is_concave,
                      g_second_derivative, ray_angle)

from hetcap import (DuplexConfig, DuplexMode, ECEstimate, MacroBS,
                    NetworkTopology, QoSConfig, Region, TaylorValidityError,
                    ec_exact_mc, ec_from_components, ec_lower_bound,
                    mean_rate_from_components, sample_matern_hcpp,
                    simulate_components, total_mean_interference)
from hetcap import capacity
from hetcap.channel import path_loss_gain
from hetcap.geometry import disk_points_xy, sample_uniform_disk_batch
from hetcap.interference import _gauss_legendre


class TestG:
    """The test-side kernel the concavity lemma is checked on."""

    def test_zero_signal(self):
        assert g(0.0, 5.0, 1.0, 0.7) == 1.0

    def test_zero_beta(self):
        assert g(3.0, 2.0, 1.0, 0.0) == 1.0

    def test_reference_value(self):
        assert g(3.0, 0.0, 1.0, 1.0) == pytest.approx(0.25)

    def test_range(self, rng):
        s = rng.uniform(0, 10, 1000)
        i = rng.uniform(0, 10, 1000)
        values = g(s, i, 1e-3, 0.8)
        assert ((values > 0) & (values <= 1)).all()


class TestConcavity:
    def test_true_for_beta_half(self, rng):
        s = rng.uniform(0.01, 50, 300)
        i = rng.uniform(0, 50, 300)
        assert g_is_concave(s, i, 0.3, 0.5)

    def test_true_at_beta_one(self, rng):
        s = rng.uniform(0.01, 50, 300)
        i = rng.uniform(0, 50, 300)
        assert g_is_concave(s, i, 1.0, 1.0)

    def test_false_beyond_sharper_condition(self):
        # beta = 5 with SINR = 10 violates beta < 1 + 2/SINR
        assert not g_is_concave(10.0, 0.0, 1.0, 5.0)

    def test_second_derivative_matches_finite_differences(self, rng):
        for _ in range(200):
            a = float(10 ** rng.uniform(-6, 1))
            beta = float(rng.uniform(0.05, 1.0))
            s = float(10 ** rng.uniform(-4, 2))
            i = float(10 ** rng.uniform(-4, 2))
            h = 1e-3 * (i + a)
            fd = (g(s, i + h, a, beta) - 2 * g(s, i, a, beta)
                  + g(s, i - h, a, beta)) / h**2
            if i - h < 0:
                continue
            exact = g_second_derivative(s, i, a, beta)
            assert fd == pytest.approx(exact, rel=1e-4)


class TestThetaConstraint:
    def test_reference_theta_ok(self):
        qos = QoSConfig(1e-3, 0.5e-3, 180e3)
        assert qos.theta_bound == pytest.approx(1 / (90 * math.log2(math.e)))
        assert qos.theta <= qos.theta_bound

    def test_large_theta_exceeds_bound(self):
        qos = QoSConfig(1e-1, 0.5e-3, 180e3)
        assert qos.theta > qos.theta_bound

    def test_loose_theta_ok(self):
        qos = QoSConfig(1e-9, 0.5e-3, 180e3)
        assert qos.theta <= qos.theta_bound


class TestExactMonteCarlo:
    def test_loose_qos_limit_is_mean_rate(self, sparse_topology, fd_duplex):
        qos = QoSConfig(1e-6, 0.5e-3, 180e3)
        components = simulate_components(sparse_topology, P_UE, 10**5, 3)
        estimate = ec_from_components(components, fd_duplex, qos, NOISE)
        rate = mean_rate_from_components(components, fd_duplex, qos, NOISE)
        assert abs(estimate.ec - rate) / rate < 0.01

    def test_fd_without_cancellation_below_hd(self, sparse_topology, qos_default):
        fd = DuplexConfig(DuplexMode.FD, 1.0, 1.0, P_UE)
        hd = DuplexConfig(DuplexMode.HD, 1.0, 1.0, P_UE)
        ec_fd = ec_exact_mc(sparse_topology, fd, qos_default, NOISE, 20000, 5)
        ec_hd = ec_exact_mc(sparse_topology, hd, qos_default, NOISE, 20000, 5)
        assert ec_fd.ec < ec_hd.ec

    def test_degenerate_draw_matches_closed_form(self, single_cell_topology,
                                                 fd_duplex, qos_default,
                                                 fixed_draws):
        # the uniform 0.25 puts stratum k's tagged UE at u = (k + 0.25) / 32:
        # the estimate averages the closed form over the 32 strata
        estimate = ec_exact_mc(single_cell_topology, fd_duplex, qos_default,
                               NOISE, 500, 1)
        cell = single_cell_topology.tagged_cell
        r = cell.radius * np.sqrt((np.arange(32) + 0.25) / 32)
        s = cell.power * r ** -3.0
        d_macro = np.hypot(cell.center[0], cell.center[1] + r)
        i = single_cell_topology.macro_bs.power * d_macro ** -3.0
        sinr_det = s / (i + fd_duplex.eta * P_UE + NOISE)
        z = (1.0 + sinr_det) ** -qos_default.beta
        expected = -math.log(z.mean()) / qos_default.theta
        # float32 link arithmetic moves each interference sum I by a
        # relative e <= 1e-6, so D = I + RSI + noise by at most e and
        # ln z = -beta ln(1 + s/D) by at most beta e; EC = -ln(mean z)/theta
        # then moves by at most (beta / theta) e, ~1.3e-4 bits here
        tolerance = qos_default.beta / qos_default.theta * 1e-6
        assert estimate.ec == pytest.approx(expected, abs=tolerance)
        assert estimate.std_error < 1e-9  # summation noise on identical draws

    def test_theta_monotone(self, sparse_topology, fd_duplex):
        components = simulate_components(sparse_topology, P_UE, 20000, 9)
        previous = math.inf
        for theta in (1e-5, 1e-4, 1e-3, 5e-3):
            qos = QoSConfig(theta, 0.5e-3, 180e3)
            estimate = ec_from_components(components, fd_duplex, qos, NOISE)
            assert estimate.ec < previous
            previous = estimate.ec

    def test_eta_monotone_fd_constant_hd(self, sparse_topology, qos_default):
        components = simulate_components(sparse_topology, P_UE, 20000, 9)
        previous = math.inf
        hd_values = []
        for eta in (0.0, 1e-10, 1e-7, 1e-4, 1e-1, 1.0):
            fd = DuplexConfig(DuplexMode.FD, eta, 1.0, P_UE)
            hd = DuplexConfig(DuplexMode.HD, eta, 1.0, P_UE)
            value = ec_from_components(components, fd, qos_default, NOISE).ec
            assert value <= previous
            previous = value
            hd_values.append(ec_from_components(components, hd, qos_default,
                                                NOISE).ec)
        assert len(set(hd_values)) == 1

    def test_deterministic_across_workers(self, sparse_topology, fd_duplex,
                                          qos_default):
        serial = ec_exact_mc(sparse_topology, fd_duplex, qos_default, NOISE,
                             3 * 8192 + 100, 21, workers=1)
        parallel = ec_exact_mc(sparse_topology, fd_duplex, qos_default, NOISE,
                               3 * 8192 + 100, 21, workers=3)
        assert serial == parallel

    def test_rejects_zero_trials(self, sparse_topology, fd_duplex, qos_default):
        with pytest.raises(ValueError):
            ec_exact_mc(sparse_topology, fd_duplex, qos_default, NOISE, 0, 1)

    def test_rejects_empty_topology(self, fd_duplex, qos_default):
        from hetcap import (InvalidTopologyError, MacroBS, NetworkTopology,
                            Region)

        empty = NetworkTopology(MacroBS((0.0, 0.0), 39.8, 3.0), [], 90.0,
                                1.0, 3.0, 180.0, None, Region(1000.0))
        with pytest.raises(InvalidTopologyError):
            ec_exact_mc(empty, fd_duplex, qos_default, NOISE, 100, 1)


def lb_by_quadrature(topology, duplex, qos, noise):
    """Jensen bound with the signal expectation by nested quadrature.

    Same frozen mean as ``ec_lower_bound``; E_s (1 + s/denom)^-expo is
    integrated over the tagged UE's radius and, inside, over the fading
    (h = -log u for uniform u), by scipy's adaptive rules rather than the
    library's fixed ones.
    """
    from scipy import integrate

    from hetcap import D_MIN, path_loss_gain
    from hetcap.channel import _duplex_terms

    tagged = topology.tagged_cell
    _, rsi, share = _duplex_terms(duplex)
    denom = total_mean_interference(topology, duplex).total + (rsi + noise)
    expo = share * qos.beta

    def fading_avg(r):
        b = tagged.power * path_loss_gain(r, tagged.alpha) / denom
        inner, _ = integrate.quad(
            lambda u: (1.0 - b * np.log(u)) ** (-expo), 0.0, 1.0, limit=200)
        return inner

    z_mean, _ = integrate.quad(
        lambda r: fading_avg(r) * 2.0 * r / tagged.radius**2,
        0.0, tagged.radius, points=[min(D_MIN, tagged.radius)], limit=200)
    return max(-math.log(z_mean) / qos.theta, 0.0)


def lb_by_monte_carlo(topology, duplex, qos, noise, draws, seed, i_mean=None):
    """Jensen bound with the signal expectation as a Monte Carlo average.

    The interference is frozen at ``i_mean`` (the closed-form mean if None);
    ``draws`` stratified tagged-UE radii and unit-mean fadings come from
    their own stream of ``seed``. Returns (ec, standard error).
    """
    from hetcap.channel import _duplex_terms

    tagged = topology.tagged_cell
    _, rsi, share = _duplex_terms(duplex)
    if i_mean is None:
        i_mean = total_mean_interference(topology, duplex).total
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    r = capacity._tagged_radius(tagged.radius, draws, rng,
                                capacity._strata(draws))
    s = tagged.power * rng.standard_exponential(size=draws) \
        * path_loss_gain(r, tagged.alpha)
    z = (1.0 + s / (i_mean + (rsi + noise))) ** (-share * qos.beta)
    return capacity._reduce_ec(z, qos.theta)


def fading_average_by_mpmath(lam, b):
    """E_h[(1 + h/lam)^-b] = lam U(1, 2 - b, lam) and 1 minus it, at 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        f = mpmath.mpf(lam) * mpmath.hyperu(1, 2 - mpmath.mpf(b), lam)
        return float(f), float(1 - f)


class TestFadingAverage:
    """The bound's closed-form fading average and its quadrature rules."""

    @pytest.mark.parametrize("b", [0.065, 0.5, 1, 2, 4, 13, 20, 50])
    def test_matches_mpmath(self, b):
        lam = np.logspace(-18, 6, 49)
        with np.errstate(all="raise"):
            got = capacity._fading_average(1.0 / lam, b)
        want, want_complement = np.array(
            [fading_average_by_mpmath(x, b) for x in lam]).T
        np.testing.assert_allclose(got, want, rtol=1e-7, atol=0)
        # 1 - F sets the bound where F is near 1: it keeps its accuracy
        kept = want_complement > 1e-9
        np.testing.assert_allclose(1.0 - got[kept], want_complement[kept],
                                   rtol=1e-7, atol=0)

    def test_broadcasts_exponent_per_row(self):
        snr = np.array([[1e3, 1.0], [1e3, 1.0]])
        got = capacity._fading_average(snr, np.array([[0.5], [2.0]]))
        np.testing.assert_array_equal(got[0], capacity._fading_average(snr[0], 0.5))
        np.testing.assert_array_equal(got[1], capacity._fading_average(snr[1], 2.0))

    def test_silent_link_averages_to_one(self):
        with np.errstate(all="raise"):
            assert capacity._fading_average(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 16, 256])
    def test_gauss_legendre_matches_numpy(self, n):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = _gauss_legendre(n)
        want_nodes, want_weights = leggauss(n)
        np.testing.assert_allclose(nodes, want_nodes, rtol=0, atol=1e-14)
        # at n = 256 numpy's weights are 2.1e-11 off a 40-digit rule, and
        # these 6.9e-13
        np.testing.assert_allclose(weights, want_weights,
                                   rtol=1e-13 if n <= 16 else 1e-10)

    @pytest.mark.parametrize("radius,alpha", [(0.5, 3.0), (1.0, 3.0),
                                              (90.0, 3.0), (4000.0, 5.0),
                                              (90.0, 0.0)])
    def test_radius_rule_integrates_the_disk(self, radius, alpha):
        # weights sum to 1 (uniform u), and E_u 1/g(R sqrt u) has a closed
        # form: the clamp's share plus the integral of R^alpha u^(alpha/2)
        gain, weights = capacity._radius_rule(radius, alpha)
        u_clamp = min(1.0 / radius**2, 1.0)
        assert weights.sum() == pytest.approx(1.0, rel=1e-13)
        want = u_clamp + radius**alpha * (1.0 - u_clamp ** (alpha / 2 + 1)) \
            / (alpha / 2 + 1)
        assert (1.0 / gain) @ weights == pytest.approx(want, rel=1e-12)


class TestLowerBound:
    def test_ordering_quick(self, sparse_topology, fd_duplex, qos_default):
        exact = ec_exact_mc(sparse_topology, fd_duplex, qos_default, NOISE,
                            20000, 13)
        lb = ec_lower_bound(sparse_topology, fd_duplex, qos_default, NOISE,
                            20000, 13)
        margin = 3 * math.hypot(exact.std_error, lb.std_error)
        assert lb.ec <= exact.ec + margin

    def test_half_duplex_skips_the_uplink_series(self, hd_duplex, fd_duplex,
                                                 qos_default):
        # a cell 0.006% from touching the tagged disk: its uplink UE's mean
        # is past the series' term cap, its BS's is not
        topology = NetworkTopology(MacroBS((0.0, 500.0), P_MACRO, 3.0),
                                   [(0.0, 0.0), (180.01, 0.0)], 90.0, P_PICO,
                                   3.0, 180.0, 0, Region(1000.0))
        with pytest.raises(TaylorValidityError, match="touching"):
            ec_lower_bound(topology, fd_duplex, qos_default, NOISE, 1, 1)
        hd = ec_lower_bound(topology, hd_duplex, qos_default, NOISE, 1, 1)
        assert hd.ec > 0

    def test_equality_for_degenerate_draws(self, single_cell_topology,
                                           fd_duplex, qos_default, fixed_draws,
                                           monkeypatch):
        # constant interference and signal (one tagged-radius stratum): Jensen
        # is tight
        monkeypatch.setattr(capacity, "_STRATA", 1)
        components = simulate_components(single_cell_topology, P_UE, 200, 1)
        exact = ec_from_components(components, fd_duplex, qos_default, NOISE)
        i_mean = float((components.bs_interference
                        + components.ue_interference).mean())
        lb, _ = lb_by_monte_carlo(single_cell_topology, fd_duplex, qos_default,
                                  NOISE, 200, 1, i_mean)
        assert lb == pytest.approx(exact.ec, rel=1e-12)

    def test_analytic_and_simulated_sources_agree(self, sparse_topology,
                                                  fd_duplex, qos_default):
        # Freezing the empirical mean of exact-MC trials instead of the closed
        # form moves the bound by no more than that mean's own error allows.
        analytic = ec_lower_bound(sparse_topology, fd_duplex, qos_default,
                                  NOISE, 40000, 17)
        components = simulate_components(sparse_topology, P_UE, 10**5, 17)
        totals = components.bs_interference + components.ue_interference
        i_mean = float(totals.mean())
        i_mean_se = float(totals.std(ddof=1)) / math.sqrt(len(totals))
        simulated, simulated_se = lb_by_monte_carlo(
            sparse_topology, fd_duplex, qos_default, NOISE, 40000, 17, i_mean)
        # sensitivity of the bound to the frozen mean, by finite difference
        # on the same signal draws
        delta = 1e-6 * i_mean
        shifted, _ = lb_by_monte_carlo(sparse_topology, fd_duplex, qos_default,
                                       NOISE, 40000, 17, i_mean + delta)
        dec_di = abs(shifted - simulated) / delta
        margin = 3 * math.hypot(analytic.std_error, simulated_se,
                                dec_di * i_mean_se)
        assert abs(analytic.ec - simulated) <= margin
        assert analytic.method == "lower_bound_analytic"

    def test_quadrature_signal_expectation_agrees(self, sparse_topology,
                                                  fd_duplex, hd_duplex,
                                                  qos_default):
        for duplex in (fd_duplex, hd_duplex):
            lb = ec_lower_bound(sparse_topology, duplex, qos_default, NOISE,
                                2 * 10**5, 19)
            quad = lb_by_quadrature(sparse_topology, duplex, qos_default, NOISE)
            assert lb.method == "lower_bound_analytic"
            assert lb.std_error == 0.0
            assert quad == pytest.approx(lb.ec, rel=1e-6)

    def test_monte_carlo_form_agrees(self, sparse_topology, fd_duplex,
                                     qos_default):
        # the Monte Carlo average the bound's rule replaces, at 10^6 draws
        lb = ec_lower_bound(sparse_topology, fd_duplex, qos_default, NOISE,
                            10**6, 29)
        mc, mc_se = lb_by_monte_carlo(sparse_topology, fd_duplex, qos_default,
                                      NOISE, 10**6, 29)
        assert abs(mc - lb.ec) <= 4 * mc_se

    def test_deterministic_and_draws_nothing(self, sparse_topology, fd_duplex,
                                             qos_default, monkeypatch):
        first = ec_lower_bound(sparse_topology, fd_duplex, qos_default, NOISE,
                               10**4, 1)

        def no_draws(*args, **kwargs):
            raise AssertionError("the bound drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        for samples, seed in ((1, 2), (10**6, 0), (63, 41)):
            assert ec_lower_bound(sparse_topology, fd_duplex, qos_default,
                                  NOISE, samples, seed) == first
        assert first.std_error == 0.0 and first.trials > 1000

    def test_beta_above_one_annotated(self, sparse_topology, fd_duplex):
        qos = QoSConfig(2e-2, 0.5e-3, 180e3)
        lb = ec_lower_bound(sparse_topology, fd_duplex, qos, NOISE, 5000, 23)
        assert any("not guaranteed" in note for note in lb.notes)

    def test_half_duplex_guarantee_uses_halved_exponent(self, sparse_topology,
                                                       fd_duplex, hd_duplex):
        # HD averages (1 + SINR)^(-beta/2), concave in I up to beta = 2
        theta_bound = 1 / (90 * math.log2(math.e))
        for beta, hd_noted in ((1.5, False), (2.5, True)):
            qos = QoSConfig(beta * theta_bound, 0.5e-3, 180e3)
            fd, hd = (ec_lower_bound(sparse_topology, duplex, qos, NOISE,
                                     2000, 23)
                      for duplex in (fd_duplex, hd_duplex))
            assert fd.notes == (f"beta={qos.beta:.4g} > 1: bound not guaranteed",)
            assert bool(hd.notes) is hd_noted

    def test_randomized_jensen_ordering(self, rng):
        # compact version of the acceptance sweep: 15 random valid scenarios
        from hetcap import Region, sample_matern_hcpp

        checked = 0
        while checked < 15:
            density = float(rng.uniform(2e-6, 1.2e-5))
            seed = int(rng.integers(1 << 30))
            topology = sample_matern_hcpp(Region(1000.0), density, 180.0, 90.0,
                                          seed, cell_power=3.1623, alpha=3.0,
                                          macro_power=39.81)
            if topology.tagged_index is None:
                continue
            d_macro = math.hypot(*topology.tagged_cell.center)
            if d_macro <= topology.tagged_cell.radius:
                continue
            theta = float(rng.uniform(1e-4, 7e-3))
            eta = float(10 ** rng.uniform(-10, 0))
            duplex = DuplexConfig(DuplexMode.FD, eta, float(rng.uniform(0.8, 1.0)),
                                  P_UE)
            qos = QoSConfig(theta, 0.5e-3, 180e3)
            trial_seed = int(rng.integers(1 << 30))
            exact = ec_exact_mc(topology, duplex, qos, NOISE, 8000, trial_seed)
            lb = ec_lower_bound(topology, duplex, qos, NOISE, 8000, trial_seed)
            margin = 3 * math.hypot(exact.std_error, lb.std_error)
            assert lb.ec <= exact.ec + margin
            checked += 1


class TestComponents:
    def test_reproducible_and_seed_sensitive(self, sparse_topology):
        a = simulate_components(sparse_topology, P_UE, 5000, 31)
        b = simulate_components(sparse_topology, P_UE, 5000, 31)
        np.testing.assert_array_equal(a.signal, b.signal)
        np.testing.assert_array_equal(a.ue_interference, b.ue_interference)
        c = simulate_components(sparse_topology, P_UE, 5000, 32)
        assert not np.array_equal(a.signal, c.signal)

    def test_worker_count_does_not_change_draws(self, sparse_topology):
        a = simulate_components(sparse_topology, P_UE, 20000, 31, workers=1)
        b = simulate_components(sparse_topology, P_UE, 20000, 31, workers=4)
        np.testing.assert_array_equal(a.signal, b.signal)
        np.testing.assert_array_equal(a.bs_interference, b.bs_interference)
        np.testing.assert_array_equal(a.ue_interference, b.ue_interference)

    def test_all_powers_nonnegative(self, sparse_topology):
        comp = simulate_components(sparse_topology, P_UE, 5000, 33)
        assert (comp.signal >= 0).all()
        assert (comp.bs_interference >= 0).all()
        assert (comp.ue_interference >= 0).all()


class TestSquaredDistanceKernel:
    # d^2 = 0, inside the D_MIN clamp, at the kink, and far beyond it
    D2 = np.array([0.0, 1e-6, 0.25, 0.999999, 1.0, 1.000001, 2.0, 8100.0,
                   3.3e5, 4e6, 1e12])[:, None]

    @pytest.mark.parametrize("alpha", [3.0, np.full(3, 3.0),
                                       np.array([3.5, 3.0, 3.0]),
                                       np.array([2.0, 3.7, 4.0])],
                             ids=["scalar", "uniform-array", "macro-cells",
                                  "mixed"])
    def test_gain_matches_path_loss_gain(self, alpha):
        from hetcap.channel import _path_loss_gain_sq, path_loss_gain

        d2 = np.repeat(self.D2, 3, axis=1)
        got = _path_loss_gain_sq(d2, alpha)
        want = path_loss_gain(np.sqrt(d2), alpha)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(got[self.D2[:, 0] <= 1.0], 1.0)

    @pytest.mark.parametrize("alpha", [3.0, np.array([3.5, 3.0, 3.0])],
                             ids=["scalar", "float64-array"])
    def test_float32_distances_take_float32_pow(self, alpha):
        # a float64 exponent would run numpy's float64 pow and round it: the
        # gains must be those of the float32 loop, within 3e-7 of float64
        # (alpha/2 here is a float32 number; a rounded one adds
        # |alpha/2 - float32(alpha/2)| ln d^2)
        from hetcap.channel import _path_loss_gain_sq

        d2 = np.repeat(np.concatenate((self.D2[:, 0], np.logspace(
            -3, 12, 1000)))[:, None], 3, axis=1).astype(np.float32)
        got = _path_loss_gain_sq(d2, alpha)
        assert got.dtype == np.float32
        exponent = (-0.5 * np.asarray(alpha)).astype(np.float32)
        np.testing.assert_array_equal(
            got, np.power(np.maximum(d2, np.float32(1.0)), exponent))
        want = _path_loss_gain_sq(d2.astype(float), alpha)
        np.testing.assert_allclose(got, want, rtol=3e-7, atol=0.0)

    def test_components_match_cartesian_oracle(self, fixed_draws):
        # pinned UEs and unit fading: every link has one Cartesian length,
        # and the macro's exponent differs from the cells'
        centers = np.array([(400.0, 0.0), (-150.0, 250.0), (100.0, -420.0)])
        radius, power = np.array([90.0, 60.0, 90.0]), np.array([3.1623, 2.0, 1.5])
        macro = MacroBS((0.0, 0.0), 39.81, 3.6)
        topology = NetworkTopology(macro, centers, radius, power, 3.0, 180.0, 0,
                                   Region(1000.0))
        comp = simulate_components(topology, P_UE, 5, 1)
        victim = (centers[0, 0], centers[0, 1] + radius[0] / 2.0)

        def uplink_ue(k):
            # angle pi/4 from the ray from the cell centre toward the victim,
            # as the kernel's float32 sine resolves it
            phi = math.atan2(victim[1] - centers[k, 1],
                             victim[0] - centers[k, 0]) + ray_angle(0.25)
            return (centers[k, 0] + radius[k] / 2.0 * math.cos(phi),
                    centers[k, 1] + radius[k] / 2.0 * math.sin(phi))

        def gain(a, b, alpha):
            return max(math.hypot(a[0] - b[0], a[1] - b[1]), 1.0) ** -alpha

        signal = power[0] * gain(victim, centers[0], 3.0)
        i_bs = macro.power * gain(victim, macro.position, macro.alpha) \
            + sum(power[k] * gain(victim, centers[k], 3.0) for k in (1, 2))
        i_ue = sum(P_UE * gain(victim, uplink_ue(k), 3.0) for k in (1, 2))
        # float64 signal; float32 links within the kernel's 1e-6 contract,
        # which the macro's rounded alpha/2 = 1.8 still meets at 400 m
        np.testing.assert_allclose(comp.signal, signal, rtol=1e-12, atol=0.0)
        for got, want in ((comp.bs_interference, i_bs),
                          (comp.ue_interference, i_ue)):
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=0.0)


@pytest.fixture(scope="module")
def dense_topology() -> NetworkTopology:
    """The criterion-9 dense deployment: M = 157 cells of radius 25 m."""
    return sample_matern_hcpp(Region(1000.0), 157 / math.pi * 1e-6, 50.0, 25.0,
                              50, cell_power=P_PICO, alpha=3.0,
                              macro_power=P_MACRO)


def replay_chunk(topology, ue_tx_power: float, seed: int, chunk: int, n: int,
                 float32: bool = True):
    """Chunk ``chunk`` of ``n`` trials, every draw made whole in stream order.

    Main stream (seed, chunk): tagged u (trial i in stratum i mod 32), tagged
    angle, signal fading, BS fading (n, M); BS links in the global frame.
    Substreams (seed, chunk, 1..3): uplink u, float32 v and UE fading, each
    (n, M-1); UE links in the ray frame, in the kernel's operation order.
    The link arithmetic, from the coordinate differences and sin^2(pi v / 2)
    to the gains, is float32 as in the kernel or, if not ``float32``,
    float64; draws, products and sums are float64 either way.
    """
    rng, u_rng, v_rng, h_rng = (np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(0, chunk) + k))
        for k in ((), (1,), (2,), (3,)))
    t, others = topology.tagged_index, topology.others
    bs_xy, bs_power, bs_alpha = topology.interfering_bs
    link = np.float32 if float32 else np.float64
    u = (np.arange(n) % 32 + rng.random(n)) / 32
    r_t = topology.radius[t] * np.sqrt(u)
    th_t = 2.0 * np.pi * rng.random(n)
    signal = topology.power[t] * rng.exponential(size=n) \
        * path_loss_gain(r_t, topology.alpha[t])
    x, y = disk_points_xy(topology.centers[t], r_t, th_t)
    d2 = (((x[:, None] - bs_xy[:, 0]) ** 2).astype(link)
          + ((y[:, None] - bs_xy[:, 1]) ** 2).astype(link))
    h = rng.exponential(size=d2.shape) * bs_power
    h *= np.maximum(d2, 1.0) ** (-0.5 * bs_alpha).astype(link)
    i_bs = h.sum(axis=1)
    shape = (n, len(others))
    rho = np.sqrt(d2[:, 1:])
    r = np.sqrt(u_rng.random(shape).astype(link)) \
        * topology.radius[others].astype(link)
    v = v_rng.random(shape, dtype=np.float32).astype(link)
    sin_sq = np.sin(v * link(0.5 * np.pi)) ** 2
    d2 = (rho - r) ** 2 + sin_sq * rho * r * 4.0
    h = h_rng.exponential(size=shape) * ue_tx_power
    h *= np.maximum(d2, 1.0) ** (-0.5 * topology.alpha[others]).astype(link)
    return signal, i_bs, h.sum(axis=1)


class TestBlockedKernel:
    """Row blocks and ray-frame uplink angles against whole-stream replays."""

    def test_signal_and_bs_interference_match_global_frame_replay(
            self, sparse_topology):
        got = capacity._simulate_chunk(sparse_topology, P_UE, 5, 2, 1808)
        for values, want in zip(got, replay_chunk(sparse_topology, P_UE, 5, 2,
                                                  1808)):
            np.testing.assert_array_equal(values, want)

    @pytest.mark.parametrize("topology", ["sparse_topology", "dense_topology"])
    def test_interference_within_contract_of_float64_replay(self, request,
                                                            topology):
        # the precision contract: float32 link arithmetic keeps each trial's
        # BS and UE interference within 1e-6 of float64 on the same draws,
        # relative, while every gain is a normal float32 and alpha/2 = 1.5
        # is exact; the signal is float64
        topology = request.getfixturevalue(topology)
        got = capacity._simulate_chunk(topology, P_UE, 5, 2, 1808)
        want = replay_chunk(topology, P_UE, 5, 2, 1808, float32=False)
        np.testing.assert_array_equal(got[0], want[0])
        for values, expected in zip(got[1:], want[1:]):
            np.testing.assert_allclose(values, expected, rtol=1e-6, atol=0.0)

    @pytest.mark.parametrize("n", [1, 1808, 8192])
    @pytest.mark.parametrize("rows", [1, 7, 8192])
    def test_output_does_not_depend_on_block_rows(self, sparse_topology,
                                                  monkeypatch, n, rows):
        want = capacity._simulate_chunk(sparse_topology, P_UE, 5, 1, n)
        monkeypatch.setattr(capacity, "_BLOCK_ROWS", rows)
        for got, expected in zip(
                capacity._simulate_chunk(sparse_topology, P_UE, 5, 1, n), want):
            np.testing.assert_array_equal(got, expected)

    #: sha256 of the signal, BS and UE interference bytes per (M, trials).
    #: The signal digests are those the kernel has given since it drew the
    #: uplink uniforms whole: its main stream and float64 signal are
    #: unchanged. The BS and UE digests date from the float32 link
    #: arithmetic. They are exact float64 bytes, computed with numpy 2.4 on
    #: an x86-64 CPU with AVX-512: they assume its SIMD float32 ``sin`` and
    #: ``pow`` code paths, and another code path needs new BS and UE digests.
    DIGESTS = {
        (17, 1): ("d776cfb38abf37c2f3657ea924cbe2a33fc4dbd9ee51db854853a2e2e487d4be",
                  "cb6a52bbe1fd1b74e834807e39dd28e3b310d5db971967d79e14b53a612e2f78",
                  "738ecd7ce259a6f827ab163dd5d8581161c328ab8e78ec3f1c9e8455ca98b6b2"),
        (17, 1808): ("360518828821ee7fe31451b65c6a6f5d67f20b84098f1a35a016e30b153f496d",
                     "32e678843e1a5d5076d0eba91adbf05fbbdc04f8c7dfdf9b4642ad72b012d408",
                     "d996d81506d4025451c05823d093720f0ee489d343ea64bf00565a60fbd5dbc8"),
        (17, 8192): ("8944818c50414f284960a7c71ef16a7cc7371951259763724f38193461399869",
                     "8d8024e738e88f04b5b1c4ed2b2743555c88e11171e92a24ebabfea063946e14",
                     "9ce64db360f2bc48d6cd11dda0a7efd69fe2f517e612382b5be09c030b87c305"),
        (17, 8193): ("8a109f1df6bd43c6426914fffe49166f4b2f43d70d408731dcaa859ba6945b30",
                     "1d712da44e10c4ee3bf59760a0f1a7c31ec414ca986b5a62c70d97f4f6de489b",
                     "388132b1000bfc41c38cd276ccda73fecf57e43daa3d2f03a36cfce3e254a778"),
        (157, 1): ("4bb18e2d364dc1205f3bcc80d18b724944839d711cf006811316478d0ca8b6cf",
                   "b9565c5e7e92ebfa4baea67bec1e9f6e343834ef3da77fb04d7a95a16220687a",
                   "a89a5d6fe822071a2d8e28b1cf4e1be6d0aa86c84889b7a28dd7acad74bbfd6e"),
        (157, 1808): ("bd2f25622c5340e52cc3dab30990112b51b496273153960fe91576ec261c0165",
                      "d3c0b4203210819039e00d1d0945329db703a37c2aac9e01a5ac79f1c2f72be7",
                      "17804c107bc2d0e4564df7800d06f9ec4dcf22688efb998b5cef1ec2bcec5031"),
        (157, 8192): ("e933897a52132d2d38d26a2dc23a0b0866ff8ce03eb0b3b6be6c5c3b6c439673",
                      "1b020d4363836b11ec2cd821b6b023fa589c700d3680b9f9170add8c18e56a5c",
                      "17bbd1a57bf13414c5fbcc3f91c9b3b5b9cdfd8d9249cf3bdfb7c70d10ac0139"),
        (157, 8193): ("dde95e6977aa99de0cc77910d8ae5f29437d37a2a36c3f7da7ceddcd6244f8ed",
                      "3fd2bcfb2f0629466f42add66c26030c273713fb89975f88c9e168160d20cde1",
                      "e0fb8d0a630597061828abe0e1386440d031a1a9d259a7b0a7db5574bb70d6d6"),
    }

    @pytest.mark.parametrize("m,n", list(DIGESTS))
    def test_components_keep_pinned_bits(self, sparse_topology, dense_topology,
                                         m, n):
        # n = 8193 spans two chunks
        topology = sparse_topology if m == 17 else dense_topology
        assert len(topology.centers) == m
        components = simulate_components(topology, P_UE, n, 5)
        got = tuple(hashlib.sha256(values.tobytes()).hexdigest()
                    for values in (components.signal,
                                   components.bs_interference,
                                   components.ue_interference))
        assert got == self.DIGESTS[m, n]

    def test_ue_interference_matches_global_frame_law(self):
        # an independent sample with global-frame angles; the two 1 m disks
        # touch, so the 1 m path-loss clamp acts on ~5% of links
        topology = NetworkTopology(MacroBS((0.0, 0.0), 1.0, 3.0),
                                   [(300.0, 0.0), (302.0, 0.0)], 1.0, 1.0, 3.0,
                                   2.0, 0, Region(1000.0))
        n = 20000
        got = simulate_components(topology, P_UE, n, 3).ue_interference
        rng = np.random.default_rng(4)
        ux, uy = disk_points_xy((300.0, 0.0), *sample_uniform_disk_batch(
            1.0, n, rng))
        ix, iy = disk_points_xy((302.0, 0.0), *sample_uniform_disk_batch(
            1.0, n, rng))
        dist = np.hypot(ux - ix, uy - iy)
        assert (dist < 1.0).mean() > 0.03
        want = P_UE * rng.exponential(size=n) * np.maximum(dist, 1.0) ** -3.0
        assert stats.ks_2samp(got, want).pvalue > 0.01

    def test_chunk_peak_memory(self, dense_topology):
        # a full chunk at M=157 holds per-trial vectors and one row-block
        # workspace only: no (trials, cells) array, and no temporaries per
        # block; the kernel that allocated them per block peaked at 2.62 MB,
        # and the all-float64 workspace (1.12 MB of it) at 1.72 MB
        m = len(dense_topology.centers)
        assert m == 157
        n = capacity.CHUNK_TRIALS
        tracemalloc.start()
        try:
            capacity._simulate_chunk(dense_topology, P_UE, 1, 0, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1_600_000

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts minor page faults with getrusage")
    def test_chunks_take_no_page_faults(self):
        # the row blocks write into one workspace per chunk, so once the
        # heap holds it a chunk touches no new page; the kernel that
        # allocated per block took ~6,000 minor faults per chunk here. The
        # first chunk maps its workspace and the second grows the heap to
        # hold it, so two chunks warm up. The child imports no scipy, whose
        # import leaves the heap in another state
        code = textwrap.dedent("""
            import math, resource, sys
            from hetcap import Region, capacity, sample_matern_hcpp
            topology = sample_matern_hcpp(
                Region(1000.0), 157 / math.pi * 1e-6, 50.0, 25.0, 50,
                cell_power=%r, alpha=3.0, macro_power=%r)
            assert len(topology.centers) == 157
            faults = []
            for chunk in range(5):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                capacity._simulate_chunk(topology, %r, 1, chunk, 8192)
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                              - before)
            assert not any(m.split(".")[0] == "scipy" for m in sys.modules)
            print(*faults[2:])
            """) % (P_PICO, P_MACRO, P_UE)
        src = str(pathlib.Path(capacity.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True).stdout
        faults = [int(f) for f in out.split()]
        assert len(faults) == 3 and max(faults) < 50, faults


class TestOneTrial:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_standard_error_is_inf(self, sparse_topology, fd_duplex,
                                   qos_default):
        est = ec_exact_mc(sparse_topology, fd_duplex, qos_default, NOISE, 1, 3)
        assert est.trials == 1 and math.isfinite(est.ec)
        assert est.std_error == math.inf

    @pytest.mark.parametrize("ec,se", [(math.nan, 0.1), (1.0, math.nan)])
    def test_estimate_rejects_nan(self, ec, se):
        with pytest.raises(ValueError, match="NaN"):
            ECEstimate(ec, se, 10, 1e-3, DuplexMode.FD, "exact_mc")


class TestTaggedRadiusStrata:
    """Stratified tagged-UE radius: layout, small runs, honest errors."""

    def test_each_trial_draws_from_its_stratum(self, sparse_topology,
                                               monkeypatch):
        # record the tagged radii that reach the signal's path loss, over a
        # full chunk and a partial one
        radii = []

        def recorded(r, alpha):
            radii.append(np.array(r))
            return path_loss_gain(r, alpha)

        monkeypatch.setattr(capacity, "path_loss_gain", recorded)
        tagged = sparse_topology.tagged_cell
        n = capacity.CHUNK_TRIALS + 1808
        simulate_components(sparse_topology, P_UE, n, 3)
        assert [len(r) for r in radii] == [capacity.CHUNK_TRIALS, 1808]
        u = (np.concatenate(radii) / tagged.radius) ** 2
        np.testing.assert_array_equal(np.floor(32 * u), np.arange(len(u)) % 32)

    @pytest.mark.parametrize("n,strata", [(2, 32), (63, 32), (10**4, 1)])
    def test_one_stratum_reduces_as_plain_mean_and_std(self, rng, monkeypatch,
                                                        n, strata):
        # under 64 trials every run has one stratum
        monkeypatch.setattr(capacity, "_STRATA", strata)
        z = rng.uniform(0.2, 0.9, n)
        ec, se = capacity._reduce_ec(z, 1e-3)
        z_mean = float(z.mean())
        assert ec == max(-math.log(z_mean) / 1e-3, 0.0)
        assert se == float(z.std(ddof=1)) / math.sqrt(n) / (1e-3 * z_mean)

    @pytest.mark.parametrize("mode,exact,exact_se,bound,bound_se", [
        (DuplexMode.FD, 404.3684127803353, 22.0104993815787,
         391.96097323791, 0.0),
        (DuplexMode.HD, 209.05028374211716, 11.27598289439756,
         203.9004057367944, 0.0)])
    def test_small_runs_keep_unstratified_values(self, sparse_topology,
                                                 qos_default, mode, exact,
                                                 exact_se, bound, bound_se):
        # values of the unstratified exact estimator at 63 trials, and of the
        # deterministic bound; the tolerance only allows for libm differences
        # between platforms
        duplex = DuplexConfig(mode, 1e-8 if mode is DuplexMode.FD else 0.0,
                              1.0, P_UE)
        got = [estimator(sparse_topology, duplex, qos_default, NOISE, 63, 41)
               for estimator in (ec_exact_mc, ec_lower_bound)]
        want = ((exact, exact_se), (bound, bound_se))
        for estimate, (ec, se) in zip(got, want):
            assert estimate.ec == pytest.approx(ec, rel=1e-12)
            assert estimate.std_error == pytest.approx(se, rel=1e-12)

    def test_standard_errors_are_honest(self):
        # 200 runs of 10^4 trials on the README topology: 95% intervals around
        # a 1.5M-trial reference cover within binomial tolerance, and the
        # standardized errors have unit spread
        from hetcap.config import ScenarioConfig

        cfg = ScenarioConfig()
        topology = cfg.sample_topology()
        setups = [(duplex, QoSConfig(theta, 0.5e-3, 180e3))
                  for duplex in (cfg.duplex("fd"), cfg.duplex("hd"))
                  for theta in (1e-3, 7e-3)]

        def estimates(trials, seed):
            components = simulate_components(topology, P_UE, trials, seed)
            return [ec_from_components(components, duplex, qos, NOISE)
                    for duplex, qos in setups]

        reference = [e.ec for e in estimates(1_500_000, 10**6)]
        runs = np.array([[(e.ec - ref) / e.std_error
                          for e, ref in zip(estimates(10**4, seed), reference)]
                         for seed in range(200)])
        coverage = (np.abs(runs) <= 1.96).mean(axis=0)
        tolerance = 3 * math.sqrt(0.95 * 0.05 / len(runs))
        assert np.all(np.abs(coverage - 0.95) <= tolerance), coverage
        spread = runs.std(axis=0, ddof=1)
        assert np.all(np.abs(spread - 1.0) <= 3 / math.sqrt(2 * len(runs))), \
            spread
