"""Duplexing experiments: cancellation sweeps, gain/crossover, runtime scaling.

A sweep evaluates the four capacity variants (exact and lower bound, for HD
and FD) on one set of trial draws, so curves share common random numbers
across the cancellation grid and across duplex modes. HD entries do not
depend on the cancellation factor and are computed once.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .capacity import (ECEstimate, _lb_over_duplexes, _strata, ec_exact_mc,
                       ec_from_components, ec_lower_bound, simulate_components)
from .channel import DuplexConfig, DuplexMode, QoSConfig
from .geometry import NetworkTopology


@dataclass(frozen=True)
class SweepRow:
    eta: float
    ec_hd_exact: ECEstimate
    ec_fd_exact: ECEstimate
    ec_hd_lb: ECEstimate
    ec_fd_lb: ECEstimate


@dataclass(frozen=True)
class SweepResult:
    """Capacity versus linear cancellation factor, one row per grid point."""

    eta_grid: tuple[float, ...]
    rows: tuple[SweepRow, ...]
    fingerprint: dict

    def __post_init__(self) -> None:
        if len(self.eta_grid) != len(self.rows):
            raise ValueError("one row per grid point required")
        diffs = np.diff(self.eta_grid)
        if len(diffs) and not (diffs > 0).all():
            raise ValueError("eta grid must be strictly increasing")


@dataclass(frozen=True)
class BenchmarkReport:
    """Wall-clock comparison of the exact estimator and the lower bound."""

    exact_seconds: float
    lb_seconds: float
    exact_trials: int
    lb_trials: int
    cell_count: int
    target_std_error: float

    def __post_init__(self) -> None:
        if self.exact_seconds <= 0 or self.lb_seconds <= 0:
            raise ValueError("times must be > 0")

    @property
    def speedup(self) -> float:
        return self.exact_seconds / self.lb_seconds


#: Most points ``eta_grid_db`` builds; the README sweep has 33.
MAX_GRID_POINTS = 100_000


def eta_grid_db(start_db: float, stop_db: float, step_db: float) -> np.ndarray:
    """Inclusive dB grid, ascending; above ``MAX_GRID_POINTS`` points it raises."""
    if step_db <= 0:
        raise ValueError("step_db must be > 0")
    steps = (stop_db - start_db) / step_db
    if not steps < MAX_GRID_POINTS - 0.5:           # nan and inf fail too
        raise ValueError(f"eta grid of {steps + 1:,.0f} points above {MAX_GRID_POINTS:,}")
    return start_db + step_db * np.arange(int(round(steps)) + 1)


def sweep_eta(topology: NetworkTopology, qos: QoSConfig, noise: float,
              ue_tx_power: float, grid_db, trials: int, seed: int, *,
              kappa: float = 1.0, workers: int = 1) -> SweepResult:
    """Evaluate all four capacity variants over a cancellation grid.

    ``grid_db`` holds 10*log10(eta) values (``-inf`` allowed for perfect
    cancellation); it is sorted ascending. The eta-independent work is done
    once: the exact-MC trial draws and their FD interference sum, the lower
    bound's signal draws and its mean interference per duplex mode. Each
    grid point then only runs the two FD reductions, which equal standalone
    ``ec_from_components`` and ``ec_lower_bound`` calls bit for bit.
    """
    grid_db = np.sort(np.asarray(grid_db, dtype=float))
    if grid_db.size == 0:
        raise ValueError("grid must be nonempty")
    etas = 10.0 ** (grid_db / 10.0)
    etas[np.isneginf(grid_db)] = 0.0

    components = simulate_components(topology, ue_tx_power, trials, seed,
                                     workers=workers)
    hd = DuplexConfig(DuplexMode.HD, 0.0, kappa, ue_tx_power)
    ec_hd = ec_from_components(components, hd, qos, noise)
    fds = [DuplexConfig(DuplexMode.FD, float(eta), kappa, ue_tx_power)
           for eta in etas]
    ec_hd_lb, *ec_fd_lbs = _lb_over_duplexes(topology, [hd, *fds], qos, noise,
                                            trials, seed)
    rows = [SweepRow(eta=fd.eta, ec_hd_exact=ec_hd,
                     ec_fd_exact=ec_from_components(components, fd, qos, noise),
                     ec_hd_lb=ec_hd_lb, ec_fd_lb=ec_fd_lb)
            for fd, ec_fd_lb in zip(fds, ec_fd_lbs)]
    fingerprint = {
        "topology": topology.fingerprint(),
        "seed": seed,
        "trials": trials,
        "theta": qos.theta,
        "kappa": kappa,
        "tagged_radius_strata": _strata(trials),
    }
    return SweepResult(tuple(float(e) for e in etas), tuple(rows), fingerprint)


def fd_gain(sweep: SweepResult) -> float:
    """Best FD-over-HD capacity ratio across the cancellation grid."""
    if not sweep.rows:
        raise ValueError("sweep is empty")
    if hd_zero := [r.eta for r in sweep.rows if r.ec_hd_exact.ec == 0]:
        raise ValueError(f"HD capacity is 0 at eta = {hd_zero[0]:.6g}: no FD/HD gain")
    return max(r.ec_fd_exact.ec / r.ec_hd_exact.ec for r in sweep.rows)


def find_crossover(sweep: SweepResult) -> float | None:
    """Cancellation level (dB) where FD starts to beat HD, or None.

    Interpolates the sign change of (FD - HD) linearly on the dB axis; with
    FD nonincreasing in eta there is at most one change, the last one is
    used if noise produces several.
    """
    if not sweep.rows:
        raise ValueError("sweep is empty")
    with np.errstate(divide="ignore"):
        grid_db = np.array([10.0 * math.log10(e) if e > 0 else -math.inf
                            for e in sweep.eta_grid])
    diff = np.array([r.ec_fd_exact.ec - r.ec_hd_exact.ec for r in sweep.rows])
    sign = np.sign(diff)
    flips = np.nonzero(sign[:-1] != sign[1:])[0]
    if flips.size == 0:
        return None
    i = int(flips[-1])
    x0, x1 = grid_db[i], grid_db[i + 1]
    if not np.isfinite(x0):
        return float(x1)  # flip against the eta=0 edge: no dB to interpolate on
    y0, y1 = diff[i], diff[i + 1]
    return float(x0 - y0 * (x1 - x0) / (y1 - y0))


#: Trials in each of ``benchmark_runtime``'s two pilot runs.
_PILOT_TRIALS = 4000


def _required_trials(pilot_se: float, pilot_trials: int, target_se: float) -> int:
    n = int(math.ceil(pilot_trials * (pilot_se / target_se) ** 2))
    return max(min(n, 4_000_000), 1000)


def benchmark_runtime(topology: NetworkTopology, duplex: DuplexConfig,
                      qos: QoSConfig, noise: float, target_std_error: float,
                      seed: int) -> BenchmarkReport:
    """Time the exact estimator against the analytic lower bound.

    Both are run to the same capacity standard-error target; trial counts
    come from a pilot run of each estimator (which doubles as warmup). Each
    timed section takes the faster of two runs and executes serially, so the
    comparison is worker-independent.
    """
    pilot_exact = ec_exact_mc(topology, duplex, qos, noise, _PILOT_TRIALS, seed)
    n_exact = _required_trials(pilot_exact.std_error, _PILOT_TRIALS,
                               target_std_error)
    pilot_lb = ec_lower_bound(topology, duplex, qos, noise, _PILOT_TRIALS, seed)
    n_lb = _required_trials(pilot_lb.std_error, _PILOT_TRIALS, target_std_error)

    def timed(run) -> float:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            run()
            best = min(best, time.perf_counter() - t0)
        return best

    exact_seconds = timed(
        lambda: ec_exact_mc(topology, duplex, qos, noise, n_exact, seed))
    lb_seconds = timed(
        lambda: ec_lower_bound(topology, duplex, qos, noise, n_lb, seed))
    return BenchmarkReport(exact_seconds, lb_seconds, n_exact, n_lb,
                           len(topology.centers), target_std_error)
