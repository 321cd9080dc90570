"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 2 and 3 check the mean interference the Jensen bound uses, which
is exact: the point-to-disk mean d^-alpha 2F1(alpha/2, alpha/2; 2; R^2/d^2)
and the disk-to-disk series. Criterion 2 also pins the spot value of the
paper's three-term series, ``mean_pathloss_taylor``; that series is kept as
the reproduced formula, but no second-order truncation meets 1% at d/R = 2,
so the grid checks the closed form the library evaluates. Criterion 3 prints
the paper's UE-UE value 1.725e-9 W as a reference; the exact mean is
1.7275e-9 W.
"""
import math
import warnings

import numpy as np
import pytest

from conftest import (NOISE, P_MACRO, P_PICO, P_UE, g, g_is_concave,
                      g_second_derivative)

from hetcap import (DuplexConfig, DuplexMode, QoSConfig, Region,
                    SaturationWarning, TrialComponents, benchmark_runtime,
                    ec_exact_mc, ec_from_components, ec_lower_bound,
                    eta_grid_db, fd_gain, find_crossover,
                    mean_interference_bs_ue, mean_interference_ue_ue,
                    mean_pathloss_numeric, mean_pathloss_taylor,
                    mean_rate_from_components, sample_matern_hcpp,
                    simulate_components, sweep_eta)
from hetcap.cli import main

QOS_FIG = QoSConfig(1e-3, 0.5e-3, 180e3)
SWEEP_SEEDS = (1000, 1001, 1002, 1003, 1004)
SWEEP_TRIALS = 40000
BENCH_SPARSE_SEED = 11   # 16 cells with the reference geometry
BENCH_DENSE_SEED = 50    # 157 cells with 25 m cells / 50 m hard core


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def sample_scenario_topology(density_km2: float, seed: int):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        return sample_matern_hcpp(Region(1000.0), density_km2 * 1e-6, 180.0,
                                  90.0, seed, cell_power=P_PICO, alpha=3.0,
                                  macro_power=P_MACRO)


@pytest.fixture(scope="module")
def figure_sweeps():
    """Cancellation sweeps for the sparse and dense scenarios, 5 seeds each."""
    grid = np.concatenate([[-120.0], eta_grid_db(-80.0, 0.0, 2.5)])
    sweeps = {"sparse": [], "dense": []}
    for label, density in (("sparse", 5.0), ("dense", 50.0)):
        for seed in SWEEP_SEEDS:
            topology = sample_scenario_topology(density, seed)
            sweeps[label].append(sweep_eta(
                topology, QOS_FIG, NOISE, P_UE, grid, SWEEP_TRIALS,
                seed=seed + 7))
    return sweeps


def test_criterion_01_jensen_bound_ordering():
    """Lower bound never exceeds the exact estimate beyond 3 combined sigma."""
    rng = np.random.default_rng(42)
    holds = 0
    scenarios = 0
    attempts = 0
    while scenarios < 100 and attempts < 400:
        attempts += 1
        density = float(rng.uniform(2.0, 15.0))
        topo_seed = int(rng.integers(1 << 30))
        topology = sample_scenario_topology(density, topo_seed)
        if topology.tagged_index is None:
            continue
        if math.hypot(*topology.tagged_cell.center) <= topology.tagged_cell.radius:
            continue
        theta = float(rng.uniform(1e-4, 7.5e-3))
        qos = QoSConfig(theta, 0.5e-3, 180e3)
        assert qos.beta <= 1.0
        duplex = DuplexConfig(
            DuplexMode.FD, float(10 ** rng.uniform(-10, 0)),
            float(rng.uniform(0.8, 1.0)), P_UE)
        trial_seed = int(rng.integers(1 << 30))
        exact = ec_exact_mc(topology, duplex, qos, NOISE, 10**4, trial_seed)
        lb = ec_lower_bound(topology, duplex, qos, NOISE, 10**4, trial_seed)
        margin = 3.0 * math.hypot(exact.std_error, lb.std_error)
        scenarios += 1
        holds += lb.ec <= exact.ec + margin
    ok = scenarios == 100 and holds == 100
    report(1, ok, f"{holds}/{scenarios} randomized scenarios satisfy "
                  "EC_LB <= EC_exact + 3 sigma")
    assert ok


def test_criterion_02_taylor_vs_quadrature_grid():
    """Closed form within 1% of the quadrature oracle on the stated grid.

    The closed form on the grid is the point-to-disk mean the library's
    mean interference uses (``mean_interference_bs_ue`` at unit power); the
    spot value pins the paper's three-term series.
    """
    violations = []
    worst = 0.0
    for alpha in (2.0, 3.0, 4.0):
        for ratio in (2, 3, 5, 10):
            d = ratio * 90.0
            approx = mean_interference_bs_ue(1.0, d, 90.0, alpha)
            oracle = mean_pathloss_numeric(d, 90.0, alpha)
            err = abs(approx - oracle) / oracle
            worst = max(worst, err)
            if err >= 0.01:
                violations.append(f"alpha={alpha:.0f},d/R={ratio}: {err:.2%}")
    spot = mean_pathloss_taylor(500.0, 90.0, 3.0)
    spot_ok = abs(spot - 8.2969e-9) / 8.2969e-9 < 1e-4
    ok = not violations and spot_ok
    detail = (f"worst grid error {worst:.2e}, paper-series spot 8.2969e-9 "
              f"{'ok' if spot_ok else 'bad'}")
    if violations:
        detail += "; >1% at " + "; ".join(violations)
    report(2, ok, detail)
    assert spot_ok
    assert not violations, (
        "closed-form mean path loss differs from quadrature by more than 1% "
        "at these separations: " + "; ".join(violations))


def test_criterion_03_ue_ue_vs_double_monte_carlo():
    """Exact UE-UE mean within 3 sigma of a 10^6-pair position oracle."""
    rng = np.random.default_rng(0)
    n = 10**6
    r1 = 90.0 * np.sqrt(rng.random(n))
    t1 = 2 * math.pi * rng.random(n)
    r2 = 90.0 * np.sqrt(rng.random(n))
    t2 = 2 * math.pi * rng.random(n)
    x = np.hypot(500.0 + r1 * np.cos(t1) - r2 * np.cos(t2),
                 r1 * np.sin(t1) - r2 * np.sin(t2))
    samples = 0.2 * x ** -3.0
    oracle = float(samples.mean())
    se = float(samples.std(ddof=1)) / math.sqrt(n)
    analytic = mean_interference_ue_ue(0.2, 500.0, 90.0, 90.0, 3.0)
    sigmas = abs(analytic - oracle) / se
    ok = sigmas <= 3.0
    paper_offset = (analytic - 1.725e-9) / 1.725e-9
    report(3, ok, f"analytic {analytic:.4e} W vs oracle {oracle:.4e} W "
                  f"= {sigmas:.2f} sigma (paper 1.725e-9 W, analytic "
                  f"{paper_offset:+.2e} from it)")
    assert ok, (
        f"analytic UE-UE mean is {sigmas:.2f} oracle standard errors from "
        "the 10^6-pair Monte Carlo mean")


def test_criterion_04_loose_qos_limit():
    """EC at theta=1e-6 matches the mean service rate within 1%."""
    topology = sample_scenario_topology(5.0, 1000)
    duplex = DuplexConfig(DuplexMode.FD, 1e-8, 1.0, P_UE)
    qos = QoSConfig(1e-6, 0.5e-3, 180e3)
    components = simulate_components(topology, P_UE, 10**5, 12345)
    estimate = ec_from_components(components, duplex, qos, NOISE)
    rate = mean_rate_from_components(components, duplex, qos, NOISE)
    rel = abs(estimate.ec - rate) / rate
    ok = rel < 0.01
    report(4, ok, f"EC(1e-6) = {estimate.ec:.3f}, mean rate = {rate:.3f} "
                  f"bits/block, rel diff {rel:.2e}")
    assert ok


def test_criterion_05_fd_gain_reproduction(figure_sweeps):
    """Perfect-cancellation FD/HD gain lands in the reference bands."""
    bands = {"sparse": (1.78, 2.00), "dense": (1.74, 2.00)}
    details = []
    ok = True
    for label, (low, high) in bands.items():
        gains = [fd_gain(sweep) for sweep in figure_sweeps[label]]
        mean_gain = float(np.mean(gains))
        ok &= low <= mean_gain <= high
        details.append(f"{label} {mean_gain:.3f} in [{low}, {high}]")
    report(5, ok, "; ".join(details))
    assert ok


def test_criterion_06_crossover_reproduction(figure_sweeps):
    """FD-beats-HD cancellation threshold lands in the reference bands."""
    bands = {"sparse": (-60.0, -40.0), "dense": (-55.0, -35.0)}
    details = []
    ok = True
    for label, (low, high) in bands.items():
        crossings = [find_crossover(sweep) for sweep in figure_sweeps[label]]
        assert all(c is not None for c in crossings)
        mean_crossover = float(np.mean(crossings))
        ok &= low <= mean_crossover <= high
        details.append(f"{label} {mean_crossover:.1f} dB in [{low}, {high}]")
    report(6, ok, "; ".join(details))
    assert ok


def test_criterion_07_hd_invariance(figure_sweeps):
    """HD capacity is bit-identical across the whole cancellation grid."""
    sweep = figure_sweeps["sparse"][0]
    exact_values = {row.ec_hd_exact.ec for row in sweep.rows}
    lb_values = {row.ec_hd_lb.ec for row in sweep.rows}
    topology = sample_scenario_topology(5.0, SWEEP_SEEDS[0])
    direct = [
        ec_exact_mc(topology,
                    DuplexConfig(DuplexMode.HD, eta, 1.0, P_UE), QOS_FIG,
                    NOISE, 5000, 99).ec
        for eta in (0.0, 1e-6, 1.0)]
    ok = len(exact_values) == 1 and len(lb_values) == 1 and len(set(direct)) == 1
    report(7, ok, f"{len(sweep.rows)} grid points, HD exact/LB value sets "
                  f"{len(exact_values)}/{len(lb_values)}, direct recompute "
                  f"identical: {len(set(direct)) == 1}")
    assert ok


def test_criterion_08_concavity():
    """Concavity holds on 10^4 random tuples; closed-form second derivative
    matches central finite differences to 1e-4 relative.

    The kernel g checked here is the one the library reduces: on a single
    trial, exp(-theta * EC) from ``ec_from_components`` equals g.
    """
    a, s, i = 2e-12, 3e-9, 5e-10
    qos = QoSConfig(0.7 / (0.5e-3 * 180e3 * math.log2(math.e)), 0.5e-3, 180e3)
    one_trial = TrialComponents(np.array([s]), np.array([i]), np.array([0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # one trial's SE is inf
        ec = ec_from_components(one_trial, DuplexConfig(DuplexMode.FD, 0.0,
                                                        1.0, P_UE), qos, a)
    assert math.exp(-qos.theta * ec.ec) == pytest.approx(
        g(s, i, a, qos.beta), rel=1e-12)

    rng = np.random.default_rng(8)
    n = 10**4
    checked = 0
    fd_checked = 0
    worst_rel = 0.0
    while checked < n:
        a = float(10 ** rng.uniform(-6, 1))
        beta = float(rng.uniform(0.0, 1.0))
        s = float(10 ** rng.uniform(-4, 2))
        i = float(10 ** rng.uniform(-4, 2))
        if not g_is_concave(s, i, a, beta):
            report(8, False, f"concavity violated at a={a}, beta={beta}, "
                             f"s={s}, I={i}")
            assert False
        checked += 1
        # relative agreement is well-posed only away from the beta=0
        # degeneracy where the second derivative vanishes identically
        if beta < 0.05:
            continue

        def central(h):
            return (g(s, i + h, a, beta) - 2 * g(s, i, a, beta)
                    + g(s, i - h, a, beta)) / h**2

        # Richardson-extrapolated central difference: kills the h^2 term so
        # a step large enough to beat roundoff stays inside the tolerance
        h = 1e-2 * (i + a)
        fd2 = (4.0 * central(h / 2) - central(h)) / 3.0
        exact = g_second_derivative(s, i, a, beta)
        rel = abs(fd2 - exact) / abs(exact)
        worst_rel = max(worst_rel, rel)
        fd_checked += 1
    ok = worst_rel < 1e-4
    report(8, ok, f"{checked} tuples concave; worst second-derivative "
                  f"mismatch {worst_rel:.2e} over {fd_checked} "
                  "finite-difference checks")
    assert ok


def test_criterion_09_speedup_scaling():
    """Lower-bound cost flat in network size; exact cost and speedup grow."""
    sparse = sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0,
                                BENCH_SPARSE_SEED, cell_power=P_PICO,
                                alpha=3.0, macro_power=P_MACRO)
    assert len(sparse.small_cells) == 16
    dense = sample_matern_hcpp(Region(1000.0), 157.0 / math.pi * 1e-6, 50.0,
                               25.0, BENCH_DENSE_SEED, cell_power=P_PICO,
                               alpha=3.0, macro_power=P_MACRO)
    assert len(dense.small_cells) == 157
    duplex = DuplexConfig(DuplexMode.FD, 1e-8, 1.0, P_UE)
    # one standard-error target for all four runs: 0.1% of the sparse capacity
    pilot = ec_exact_mc(sparse, duplex, QOS_FIG, NOISE, 4000, 77)
    target = 0.001 * pilot.ec
    reports = {}
    for label, topology in (("M=16", sparse), ("M=157", dense)):
        reports[label] = benchmark_runtime(topology, duplex, QOS_FIG, NOISE,
                                           target, 77)
    r16, r157 = reports["M=16"], reports["M=157"]
    lb_ratio = max(r157.lb_seconds, r16.lb_seconds) \
        / min(r157.lb_seconds, r16.lb_seconds)
    exact_growth = r157.exact_seconds / r16.exact_seconds
    ok = (r16.speedup >= 10.0 and r157.speedup >= 30.0
          and lb_ratio < 2.0 and exact_growth >= 5.0)
    report(9, ok,
           f"speedup {r16.speedup:.0f}x at M=16 (>=10), {r157.speedup:.0f}x "
           f"at M=157 (>=30); LB time ratio {lb_ratio:.2f} (<2); exact "
           f"growth {exact_growth:.1f}x (>=5)")
    assert ok


def test_criterion_10_deterministic_csv_across_workers(tmp_path):
    """Identical seeds give byte-identical CSVs for any worker count."""
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("density_per_km2 = 5\ntrials = 20000\n"
                        "topology_seed = 7\ntrial_seed = 7\n")
    outputs = []
    for run, workers in (("a", 1), ("b", 3), ("c", 1)):
        out = tmp_path / f"sweep_{run}.csv"
        code = main(["sweep", "--scenario", str(scenario), "--out", str(out),
                     "--eta-from", "-70", "--eta-to", "-40", "--eta-step",
                     "10", "--workers", str(workers)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(10, ok, f"3 runs ({len(outputs[0])} bytes each), workers 1/3/1, "
                   f"byte-identical: {ok}")
    assert ok
