import math

import numpy as np
import pytest

from conftest import NOISE, P_MACRO, P_PICO, P_UE

from hetcap import (DuplexConfig, DuplexMode, QoSConfig, Region,
                    benchmark_runtime, ec_exact_mc, ec_from_components,
                    ec_lower_bound, eta_grid_db, fd_gain, find_crossover,
                    sample_matern_hcpp, simulate_components, sweep_eta)


@pytest.fixture(scope="module")
def sparse_sweep(sparse_topology, qos_default_module):
    grid = eta_grid_db(-80.0, 0.0, 5.0)
    return sweep_eta(sparse_topology, qos_default_module, NOISE, P_UE, grid,
                     trials=20000, seed=101)


@pytest.fixture(scope="module")
def qos_default_module():
    return QoSConfig(1e-3, 0.5e-3, 180e3)


class TestSweep:
    def test_grid_ascending_and_one_row_each(self, sparse_sweep):
        assert len(sparse_sweep.rows) == len(sparse_sweep.eta_grid) == 17
        assert (np.diff(sparse_sweep.eta_grid) > 0).all()

    def test_hd_identical_across_grid(self, sparse_sweep):
        values = {row.ec_hd_exact.ec for row in sparse_sweep.rows}
        assert len(values) == 1
        lb_values = {row.ec_hd_lb.ec for row in sparse_sweep.rows}
        assert len(lb_values) == 1

    def test_fd_exact_nonincreasing_in_eta(self, sparse_sweep):
        fd = [row.ec_fd_exact.ec for row in sparse_sweep.rows]
        assert all(a >= b for a, b in zip(fd, fd[1:]))

    def test_lb_below_exact_within_3_sigma_everywhere(self, sparse_sweep):
        for row in sparse_sweep.rows:
            margin = 3 * math.hypot(row.ec_fd_exact.std_error,
                                    row.ec_fd_lb.std_error)
            assert row.ec_fd_lb.ec <= row.ec_fd_exact.ec + margin
            margin_hd = 3 * math.hypot(row.ec_hd_exact.std_error,
                                       row.ec_hd_lb.std_error)
            assert row.ec_hd_lb.ec <= row.ec_hd_exact.ec + margin_hd

    def test_fingerprint_carries_provenance(self, sparse_sweep, sparse_topology):
        assert sparse_sweep.fingerprint["topology"] == sparse_topology.fingerprint()
        assert sparse_sweep.fingerprint["seed"] == 101

    def test_empty_grid_rejected(self, sparse_topology, qos_default_module):
        with pytest.raises(ValueError):
            sweep_eta(sparse_topology, qos_default_module, NOISE, P_UE, [],
                      trials=100, seed=1)

    def test_rows_equal_standalone_estimators(self, sparse_topology,
                                              qos_default_module, monkeypatch):
        # the sweep computes the eta-independent work once, the bound's mean
        # interference in one full-duplex call whose BS series half duplex
        # shares; every row must still equal the standalone estimators, each
        # of which evaluates its own mode's series, bit for bit
        from hetcap import capacity, interference

        calls = {"mean": 0, "series": 0}

        def counted(name, original):
            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return call

        for module, attr, name in ((capacity, "total_mean_interference", "mean"),
                                   (interference, "_disk_pair_pathloss",
                                    "series")):
            monkeypatch.setattr(module, attr,
                                counted(name, getattr(module, attr)))
        qos, trials, seed = qos_default_module, 5000, 41
        sweep = sweep_eta(sparse_topology, qos, NOISE, P_UE,
                          [-80.0, -45.0, 0.0], trials=trials, seed=seed)
        assert calls == {"mean": 1, "series": 2}    # BS terms, then UE terms

        components = simulate_components(sparse_topology, P_UE, trials, seed)
        hd = DuplexConfig(DuplexMode.HD, 0.0, 1.0, P_UE)
        hd_exact = ec_from_components(components, hd, qos, NOISE)
        hd_lb = ec_lower_bound(sparse_topology, hd, qos, NOISE, trials, seed)
        for row in sweep.rows:
            fd = DuplexConfig(DuplexMode.FD, row.eta, 1.0, P_UE)
            assert row.ec_hd_exact == hd_exact
            assert row.ec_hd_lb == hd_lb
            assert row.ec_fd_exact == ec_from_components(components, fd, qos,
                                                         NOISE)
            assert row.ec_fd_lb == ec_lower_bound(sparse_topology, fd, qos,
                                                  NOISE, trials, seed)


class TestGainAndCrossover:
    def test_gain_at_strong_cancellation(self, sparse_sweep):
        gain = fd_gain(sparse_sweep)
        assert 1.5 < gain < 2.0
        best = max(range(len(sparse_sweep.rows)),
                   key=lambda i: sparse_sweep.rows[i].ec_fd_exact.ec)
        assert best == 0  # strongest cancellation wins

    def test_gain_below_one_without_cancellation(self, sparse_topology,
                                                 qos_default_module):
        sweep = sweep_eta(sparse_topology, qos_default_module, NOISE, P_UE,
                          [0.0], trials=20000, seed=101)
        assert fd_gain(sweep) < 1.0

    def test_crossover_in_plausible_band(self, sparse_sweep):
        crossover = find_crossover(sparse_sweep)
        assert crossover is not None
        assert -70.0 < crossover < -30.0

    def test_no_crossover_when_fd_always_wins(self, qos_default_module):
        # noise-dominated toy: single tagged cell, negligible interferers
        topology = sample_matern_hcpp(Region(1000.0), 2e-6, 180.0, 90.0, 11,
                                      cell_power=P_PICO, alpha=3.0,
                                      macro_power=1e-12)
        sweep = sweep_eta(topology, qos_default_module, NOISE, 1e-12,
                          eta_grid_db(-40.0, 0.0, 10.0), trials=4000, seed=5)
        assert find_crossover(sweep) is None

    def test_crossover_stable_under_grid_refinement(self, sparse_topology,
                                                    qos_default_module):
        coarse = sweep_eta(sparse_topology, qos_default_module, NOISE, P_UE,
                           eta_grid_db(-60.0, -35.0, 1.0), trials=20000,
                           seed=101)
        fine = sweep_eta(sparse_topology, qos_default_module, NOISE, P_UE,
                         eta_grid_db(-60.0, -35.0, 0.5), trials=20000,
                         seed=101)
        c0, c1 = find_crossover(coarse), find_crossover(fine)
        assert c0 is not None and c1 is not None
        assert abs(c0 - c1) < 1.0
        assert fd_gain(coarse) == pytest.approx(fd_gain(fine), rel=1e-12)

    def test_crossover_against_zero_eta_edge(self):
        # flip directly against the eta=0 grid edge: no dB axis to
        # interpolate on, the finite endpoint is reported
        from hetcap import ECEstimate, SweepResult, SweepRow

        def estimate(value, mode):
            return ECEstimate(value, 0.0, 1, 1e-3, mode, "exact_mc")

        rows = [SweepRow(0.0, estimate(5.0, DuplexMode.HD),
                         estimate(6.0, DuplexMode.FD),
                         estimate(4.0, DuplexMode.HD),
                         estimate(4.0, DuplexMode.FD)),
                SweepRow(1e-5, estimate(5.0, DuplexMode.HD),
                         estimate(3.0, DuplexMode.FD),
                         estimate(4.0, DuplexMode.HD),
                         estimate(4.0, DuplexMode.FD))]
        sweep = SweepResult((0.0, 1e-5), tuple(rows), {"seed": 0})
        assert find_crossover(sweep) == pytest.approx(-50.0)

    def test_eta_grid_rejects_bad_step(self):
        with pytest.raises(ValueError):
            eta_grid_db(-60.0, 0.0, 0.0)

    @pytest.mark.parametrize("step_db", [1e-7, 1e-300])
    def test_eta_grid_refuses_more_points_than_the_cap(self, step_db):
        # 8e8 points (6.4 GB) and an infinite count raise before allocating
        with pytest.raises(ValueError, match="points above"):
            eta_grid_db(-80.0, 0.0, step_db)

    def test_gain_refuses_zero_hd_capacity(self):
        # a silent tagged cell: HD and FD capacities both 0, gain 0/0
        from hetcap import ECEstimate, SweepResult, SweepRow

        def estimate(value, mode):
            return ECEstimate(value, 0.0, 1, 1e-3, mode, "exact_mc")

        rows = tuple(SweepRow(eta, estimate(0.0, DuplexMode.HD),
                              estimate(0.0, DuplexMode.FD),
                              estimate(0.0, DuplexMode.HD),
                              estimate(0.0, DuplexMode.FD))
                     for eta in (1e-8, 1e-4))
        sweep = SweepResult((1e-8, 1e-4), rows, {"seed": 0})
        with pytest.raises(ValueError, match="HD capacity is 0 at eta = 1e-08"):
            fd_gain(sweep)

    def test_synthetic_interpolation(self):
        # hand-built rows: FD-HD crosses zero midway between -20 and -10 dB
        from hetcap import ECEstimate, SweepResult, SweepRow

        def estimate(value, mode):
            return ECEstimate(value, 0.0, 1, 1e-3, mode, "exact_mc")

        rows = []
        for eta_db, diff in ((-30.0, 2.0), (-20.0, 1.0), (-10.0, -1.0)):
            rows.append(SweepRow(10 ** (eta_db / 10),
                                 estimate(5.0, DuplexMode.HD),
                                 estimate(5.0 + diff, DuplexMode.FD),
                                 estimate(4.0, DuplexMode.HD),
                                 estimate(4.0, DuplexMode.FD)))
        sweep = SweepResult(tuple(r.eta for r in rows), tuple(rows),
                            {"seed": 0})
        assert find_crossover(sweep) == pytest.approx(-15.0)


class TestDensityContrast:
    def test_lower_bound_tighter_when_denser(self):
        # the relative LB gap shrinks as the deployment gets more crowded
        import warnings

        from hetcap import SaturationWarning

        qos = QoSConfig(1e-3, 0.5e-3, 180e3)
        duplex = DuplexConfig(DuplexMode.FD, 0.0, 1.0, P_UE)
        gaps = {}
        for label, density in (("sparse", 5e-6), ("dense", 50e-6)):
            values = []
            for seed in range(10):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", SaturationWarning)
                    topology = sample_matern_hcpp(
                        Region(1000.0), density, 180.0, 90.0, 300 + seed,
                        cell_power=P_PICO, alpha=3.0, macro_power=P_MACRO)
                exact = ec_exact_mc(topology, duplex, qos, NOISE, 20000,
                                    400 + seed)
                lb = ec_lower_bound(topology, duplex, qos, NOISE, 20000,
                                    400 + seed)
                values.append((exact.ec - lb.ec) / exact.ec)
            gaps[label] = float(np.mean(values))
        assert gaps["dense"] < gaps["sparse"]


class TestBenchmark:
    def test_lb_never_slower_at_matched_accuracy_single_cell(
            self, single_cell_topology):
        duplex = DuplexConfig(DuplexMode.FD, 1e-8, 1.0, P_UE)
        qos = QoSConfig(1e-3, 0.5e-3, 180e3)
        report = benchmark_runtime(single_cell_topology, duplex, qos, NOISE,
                                   target_std_error=0.5, seed=7)
        assert report.cell_count == 1
        assert report.speedup >= 1.0
        assert report.exact_seconds > 0 and report.lb_seconds > 0

    def test_report_fields(self, sparse_topology):
        duplex = DuplexConfig(DuplexMode.FD, 1e-8, 1.0, P_UE)
        qos = QoSConfig(1e-3, 0.5e-3, 180e3)
        report = benchmark_runtime(sparse_topology, duplex, qos, NOISE,
                                   target_std_error=2.0, seed=7)
        assert report.cell_count == len(sparse_topology.small_cells)
        assert report.exact_trials >= 1000
        assert report.lb_trials >= 1000
