import math
import tracemalloc

import numpy as np
import pytest

from scipy import stats

from conftest import (NOISE, P_MACRO, P_PICO, P_UE, g, g_is_concave,
                      g_second_derivative)

from hetcap import (DuplexConfig, DuplexMode, ECEstimate, MacroBS,
                    NetworkTopology, QoSConfig, Region, SmallCell, ec_exact_mc,
                    ec_from_components, ec_lower_bound,
                    mean_rate_from_components, sample_matern_hcpp,
                    simulate_components, total_mean_interference)
from hetcap import capacity
from hetcap.channel import path_loss_gain
from hetcap.geometry import disk_points_xy, sample_uniform_disk_batch


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

    def test_large_theta_warns(self):
        with pytest.warns(UserWarning):
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
        estimate = ec_exact_mc(single_cell_topology, fd_duplex, qos_default,
                               NOISE, 500, 1)
        cell = single_cell_topology.tagged_cell
        s = cell.power * (cell.radius / 2) ** -3.0
        d_macro = math.hypot(cell.center[0], cell.center[1] + cell.radius / 2)
        i = single_cell_topology.macro_bs.power * d_macro ** -3.0
        sinr_det = s / (i + fd_duplex.eta * P_UE + NOISE)
        expected = 90.0 * math.log2(1.0 + sinr_det)
        assert estimate.ec == pytest.approx(expected, rel=1e-12)
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

        empty = NetworkTopology(MacroBS((0.0, 0.0), 39.8, 3.0), (), 180.0,
                                None, Region(1000.0))
        with pytest.raises(InvalidTopologyError):
            ec_exact_mc(empty, fd_duplex, qos_default, NOISE, 100, 1)


def lb_by_quadrature(topology, duplex, qos, noise):
    """Jensen bound with the signal expectation by nested quadrature.

    Same frozen mean as ``ec_lower_bound``; E_s (1 + s/denom)^-expo is
    integrated over the tagged UE's radius and, inside, over the fading
    (h = -log u for uniform u), independently of the Monte Carlo draws.
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


class TestLowerBound:
    def test_ordering_quick(self, sparse_topology, fd_duplex, qos_default):
        exact = ec_exact_mc(sparse_topology, fd_duplex, qos_default, NOISE,
                            20000, 13)
        lb = ec_lower_bound(sparse_topology, fd_duplex, qos_default, NOISE,
                            20000, 13)
        margin = 3 * math.hypot(exact.std_error, lb.std_error)
        assert lb.ec <= exact.ec + margin

    def test_equality_for_degenerate_draws(self, single_cell_topology,
                                           fd_duplex, qos_default, fixed_draws):
        # constant interference and signal: Jensen is tight
        from hetcap.capacity import _lb_reduce, _lb_signal_draws

        components = simulate_components(single_cell_topology, P_UE, 200, 1)
        exact = ec_from_components(components, fd_duplex, qos_default, NOISE)
        i_mean = float((components.bs_interference
                        + components.ue_interference).mean())
        s = _lb_signal_draws(single_cell_topology.tagged_cell, 200, 1)
        lb = _lb_reduce(s, i_mean, fd_duplex, qos_default, NOISE)
        assert lb.ec == pytest.approx(exact.ec, rel=1e-12)

    def test_analytic_and_simulated_sources_agree(self, sparse_topology,
                                                  fd_duplex, qos_default):
        # Freezing the empirical mean of exact-MC trials instead of the closed
        # form moves the bound by no more than that mean's own error allows.
        from hetcap.capacity import _lb_reduce, _lb_signal_draws

        analytic = ec_lower_bound(sparse_topology, fd_duplex, qos_default,
                                  NOISE, 40000, 17)
        components = simulate_components(sparse_topology, P_UE, 10**5, 17)
        totals = components.bs_interference + components.ue_interference
        i_mean = float(totals.mean())
        i_mean_se = float(totals.std(ddof=1)) / math.sqrt(len(totals))
        s = _lb_signal_draws(sparse_topology.tagged_cell, 40000, 17)
        simulated = _lb_reduce(s, i_mean, fd_duplex, qos_default, NOISE)
        # sensitivity of the bound to the frozen mean, by finite difference
        delta = 1e-6 * i_mean
        shifted = _lb_reduce(s, i_mean + delta, fd_duplex, qos_default, NOISE)
        dec_di = abs(shifted.ec - simulated.ec) / delta
        margin = 3 * math.hypot(analytic.std_error, simulated.std_error,
                                dec_di * i_mean_se)
        assert abs(analytic.ec - simulated.ec) <= margin
        assert analytic.method == "lower_bound_analytic"

    def test_quadrature_signal_expectation_agrees(self, sparse_topology,
                                                  fd_duplex, qos_default):
        mc = ec_lower_bound(sparse_topology, fd_duplex, qos_default, NOISE,
                            2 * 10**5, 19)
        quad = lb_by_quadrature(sparse_topology, fd_duplex, qos_default, NOISE)
        assert mc.method == "lower_bound_analytic"
        assert quad == pytest.approx(mc.ec, abs=4 * mc.std_error)

    def test_beta_above_one_annotated(self, sparse_topology, fd_duplex):
        with pytest.warns(UserWarning):
            qos = QoSConfig(2e-2, 0.5e-3, 180e3)
        lb = ec_lower_bound(sparse_topology, fd_duplex, qos, NOISE, 5000, 23)
        assert any("not guaranteed" in note for note in lb.notes)

    def test_half_duplex_guarantee_uses_halved_exponent(self, sparse_topology,
                                                       fd_duplex, hd_duplex):
        # HD averages (1 + SINR)^(-beta/2), concave in I up to beta = 2
        theta_bound = 1 / (90 * math.log2(math.e))
        for beta, hd_noted in ((1.5, False), (2.5, True)):
            with pytest.warns(UserWarning):
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

    def test_components_match_cartesian_oracle(self, fixed_draws):
        # pinned UEs and unit fading: every link has one Cartesian length,
        # and the macro's exponent differs from the cells'
        from hetcap import MacroBS, NetworkTopology, Region, SmallCell

        cells = (SmallCell((400.0, 0.0), 90.0, 3.1623, 3.0),
                 SmallCell((-150.0, 250.0), 60.0, 2.0, 3.0),
                 SmallCell((100.0, -420.0), 90.0, 1.5, 3.0))
        macro = MacroBS((0.0, 0.0), 39.81, 3.6)
        topology = NetworkTopology(macro, cells, 180.0, 0, Region(1000.0))
        comp = simulate_components(topology, P_UE, 5, 1)
        tagged, others = cells[0], cells[1:]
        victim = (tagged.center[0], tagged.center[1] + tagged.radius / 2.0)

        def uplink_ue(cell):
            # angle pi/4 from the ray from the cell centre toward the victim
            phi = math.atan2(victim[1] - cell.center[1],
                             victim[0] - cell.center[0]) + math.pi / 4.0
            return (cell.center[0] + cell.radius / 2.0 * math.cos(phi),
                    cell.center[1] + cell.radius / 2.0 * math.sin(phi))

        def gain(a, b, alpha):
            return max(math.hypot(a[0] - b[0], a[1] - b[1]), 1.0) ** -alpha

        signal = tagged.power * gain(victim, tagged.center, tagged.alpha)
        i_bs = macro.power * gain(victim, macro.position, macro.alpha) \
            + sum(c.power * gain(victim, c.center, c.alpha) for c in others)
        i_ue = sum(P_UE * gain(victim, uplink_ue(c), c.alpha) for c in others)
        for got, want in ((comp.signal, signal), (comp.bs_interference, i_bs),
                          (comp.ue_interference, i_ue)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestBlockedKernel:
    """Row blocks and ray-frame uplink angles against global-frame replays."""

    def test_signal_and_bs_interference_match_global_frame_replay(
            self, sparse_topology):
        # replay the stream's first three draws whole, with every position in
        # the global frame: the uplink-UE frame leaves these links' bits alone
        spec = capacity._kernel_spec(sparse_topology, P_UE, 5)
        n = 1808
        signal, i_bs, _ = capacity._simulate_chunk(spec, 2, n)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=5, spawn_key=(0, 2)))
        r_t, th_t = sample_uniform_disk_batch(spec.tagged_radius, n, rng)
        want_signal = spec.tagged_power * rng.exponential(size=n) \
            * path_loss_gain(r_t, spec.tagged_alpha)
        x, y = disk_points_xy(spec.tagged_center, r_t, th_t)
        d2 = (x[:, None] - spec.bs_xy[:, 0]) ** 2 \
            + (y[:, None] - spec.bs_xy[:, 1]) ** 2
        h = rng.exponential(size=d2.shape) * spec.bs_power
        h *= np.maximum(d2, 1.0) ** (-0.5 * spec.bs_alpha)
        np.testing.assert_array_equal(signal, want_signal)
        np.testing.assert_array_equal(i_bs, h.sum(axis=1))

    @pytest.mark.parametrize("n", [1, 1808, 8192])
    @pytest.mark.parametrize("rows", [1, 7, 8192])
    def test_output_does_not_depend_on_block_rows(self, sparse_topology,
                                                  monkeypatch, n, rows):
        spec = capacity._kernel_spec(sparse_topology, P_UE, 5)
        want = capacity._simulate_chunk(spec, 1, n)
        monkeypatch.setattr(capacity, "_BLOCK_ROWS", rows)
        for got, expected in zip(capacity._simulate_chunk(spec, 1, n), want):
            np.testing.assert_array_equal(got, expected)

    def test_ue_interference_matches_global_frame_law(self):
        # an independent sample with global-frame angles; the two 1 m disks
        # touch, so the 1 m path-loss clamp acts on ~5% of links
        tagged = SmallCell((300.0, 0.0), 1.0, 1.0, 3.0)
        other = SmallCell((302.0, 0.0), 1.0, 1.0, 3.0)
        topology = NetworkTopology(MacroBS((0.0, 0.0), 1.0, 3.0),
                                   (tagged, other), 2.0, 0, Region(1000.0))
        n = 20000
        got = simulate_components(topology, P_UE, n, 3).ue_interference
        rng = np.random.default_rng(4)
        ux, uy = disk_points_xy(tagged.center, *sample_uniform_disk_batch(
            tagged.radius, n, rng))
        ix, iy = disk_points_xy(other.center, *sample_uniform_disk_batch(
            other.radius, n, rng))
        dist = np.hypot(ux - ix, uy - iy)
        assert (dist < 1.0).mean() > 0.03
        want = P_UE * rng.exponential(size=n) * np.maximum(dist, 1.0) ** -3.0
        assert stats.ks_2samp(got, want).pvalue > 0.01

    def test_chunk_peak_memory(self):
        # a full chunk at M=157 keeps its uplink radius and angle draws and
        # cache-sized blocks, not a dozen (trials, cells) arrays
        topology = sample_matern_hcpp(Region(1000.0), 157 / math.pi * 1e-6,
                                      50.0, 25.0, 50, cell_power=P_PICO,
                                      alpha=3.0, macro_power=P_MACRO)
        m = len(topology.small_cells)
        assert m == 157
        spec = capacity._kernel_spec(topology, P_UE, 1)
        n = capacity.CHUNK_TRIALS
        tracemalloc.start()
        try:
            capacity._simulate_chunk(spec, 0, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * m * 8


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
