"""The benchmark's workloads: input building, one op, and output checks.

Every workload calls the library in a closed loop: one caller waits on each
call and passes ``workers=1``, so no process pool starts. The benchmark's
seed drives the trial seeds only; topology seeds are pinned, so cell counts
and topology fingerprints do not move with the seed.

Constructing a workload builds its inputs (the part of set-up after
``import hetcap``). ``op`` is the timed unit of work. ``check`` verifies the
op's outputs with statistical tolerances, so the checks survive numeric
changes that keep the estimators honest, and returns the problems found.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import time
import warnings

from hetcap import capacity, cli, config, geometry
from hetcap.channel import DuplexConfig, DuplexMode, QoSConfig

SIGMAS = 3.0

REFERENCE_SCENARIO = """\
# README reference scenario
macro_radius_m = 1000
macro_power_dbm = 46
pico_power_dbm = 35
pico_radius_m = 90
path_loss_exponent = 3
density_per_km2 = 5
hard_core_m = 180
duplex_mode = fd
eta_db = -80
kappa = 1
theta_per_bit = 1e-3
frame_time_s = 0.0005
bandwidth_hz = 180000
noise_dbm = -120
ue_power_dbm = 23
topology_seed = 1
trial_seed = {seed}
trials = 10000
"""

SWEEP_COLUMNS = 8


def required_trials(pilot_se: float, pilot_trials: int, target_se: float) -> int:
    """Trials that bring a pilot's standard error down to ``target_se``.

    Same rule as criterion 9's runtime comparison: SE scales as n^-1/2,
    clamped to [1000, 4e6].
    """
    n = math.ceil(pilot_trials * (pilot_se / target_se) ** 2)
    return max(min(n, 4_000_000), 1000)


class Workload:
    params: dict

    def op(self) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        """Workload-specific end-to-end figures, as name -> (value, unit)."""
        return {}


class SweepRef(Workload):
    """``hetcap sweep`` on the README reference scenario, called in process.

    What users run, and the only workload where per-grid-point work (34
    bound, reduction and mean-interference calls) matters.
    """

    ROWS = 33
    FINGERPRINT = "3d17141228e8b620"

    def __init__(self, seed: int, workdir) -> None:
        scenario = workdir / "scenario.txt"
        scenario.write_text(REFERENCE_SCENARIO.format(seed=seed), encoding="utf-8")
        self.out = workdir / "sweep.csv"
        self.meta = workdir / "sweep.csv.meta.json"
        self.argv = ["sweep", "--scenario", str(scenario), "--out", str(self.out),
                     "--eta-from", "-80", "--eta-to", "0", "--eta-step", "2.5",
                     "--workers", "1"]
        self.params = {"scenario": "README reference", "macro_radius_m": 1000,
                       "density_per_km2": 5, "topology_seed": 1,
                       "trial_seed": seed, "trials": 10000,
                       "eta_db": {"from": -80, "to": 0, "step": 2.5},
                       "workers": 1}
        self.first_csv: bytes | None = None
        self.code: int | None = None

    def op(self) -> None:
        self.out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            self.code = cli.main(self.argv)

    def check(self) -> list[str]:
        if self.code != 0:
            return [f"exit code {self.code}"]
        problems = []
        data = self.out.read_bytes()
        rows = [line.split(",") for line in data.decode().splitlines()[1:]]
        if len(rows) != self.ROWS or any(len(r) != SWEEP_COLUMNS for r in rows):
            return [f"expected {self.ROWS} rows of {SWEEP_COLUMNS} columns"]
        values = [[float(x) for x in r] for r in rows]
        if not all(math.isfinite(x) for r in values for x in r):
            problems.append("non-finite value in the sweep CSV")
        for eta_db, hd, hd_se, fd, fd_se, hd_lb, fd_lb, fd_lb_se in values:
            if hd_lb > hd + SIGMAS * hd_se:
                problems.append(f"HD bound above exact at {eta_db} dB")
            if fd_lb > fd + SIGMAS * math.hypot(fd_se, fd_lb_se):
                problems.append(f"FD bound above exact at {eta_db} dB")
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            problems.append("CSV bytes differ from the run's first op")
        topology = json.loads(self.meta.read_text(encoding="utf-8")).get("topology")
        if topology != self.FINGERPRINT:
            problems.append(f"topology fingerprint {topology}")
        return problems


class MatchedSEDense(Workload):
    """Criterion 9's dense deployment (M=157), exact MC to a fixed SE.

    The op is a pilot plus an exact run sized to the SE target, so its time
    is wall time at matched accuracy: kernel speed-ups and variance
    reduction both show. The bound is run to the same target in ``check``,
    outside the op, and reported as ``lb_s_at_se``.
    """

    CELLS = 157
    PILOT_TRIALS = 4000
    # Criterion 9 targets 0.1% of the M=16 pilot EC (~9 s per op); 0.5%
    # needs 25x fewer trials, so a run holds enough ops for a tail figure.
    TARGET_FRACTION = 0.005

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.qos = QoSConfig(1e-3, 0.5e-3, 180e3)
        self.noise = config.dbm_to_watts(-120.0)
        self.duplex = DuplexConfig(DuplexMode.FD, 1e-8, 1.0,
                                   config.dbm_to_watts(23.0))
        powers = dict(cell_power=config.dbm_to_watts(35.0), alpha=3.0,
                      macro_power=config.dbm_to_watts(46.0))
        region = geometry.Region(1000.0)
        sparse = geometry.sample_matern_hcpp(region, 5e-6, 180.0, 90.0, 11,
                                             **powers)
        pilot = capacity.ec_exact_mc(sparse, self.duplex, self.qos, self.noise,
                                     self.PILOT_TRIALS, seed)
        self.target_se = self.TARGET_FRACTION * pilot.ec
        self.topology = geometry.sample_matern_hcpp(
            region, self.CELLS / math.pi * 1e-6, 50.0, 25.0, 50, **powers)
        self.params = {"macro_radius_m": 1000, "cell_radius_m": 25,
                       "hard_core_m": 50, "topology_seed": 50,
                       "target_topology_seed": 11, "trial_seed": seed,
                       "mode": "fd", "eta_db": -80, "theta_per_bit": 1e-3,
                       "pilot_trials": self.PILOT_TRIALS,
                       "target_fraction_of_m16_pilot_ec": self.TARGET_FRACTION,
                       "target_se_bits": self.target_se}
        self.trials_at_se: list[int] = []
        self.lb_s_at_se: list[float] = []

    def _to_target(self, estimator):
        pilot = estimator(self.topology, self.duplex, self.qos, self.noise,
                          self.PILOT_TRIALS, self.seed)
        n = required_trials(pilot.std_error, self.PILOT_TRIALS, self.target_se)
        return estimator(self.topology, self.duplex, self.qos, self.noise, n,
                         self.seed), self.PILOT_TRIALS + n

    def op(self) -> None:
        self.exact, self.trials = self._to_target(capacity.ec_exact_mc)

    def check(self) -> list[str]:
        t0 = time.perf_counter()
        lb, _ = self._to_target(capacity.ec_lower_bound)
        self.lb_s_at_se.append(time.perf_counter() - t0)
        self.trials_at_se.append(self.trials)
        problems = []
        if len(self.topology.small_cells) != self.CELLS:
            problems.append(f"M = {len(self.topology.small_cells)}")
        sigma = math.hypot(self.exact.std_error, lb.std_error)
        if lb.ec > self.exact.ec + SIGMAS * sigma:
            problems.append(f"bound {lb.ec} above exact {self.exact.ec}")
        if self.exact.std_error > 1.25 * self.target_se:
            problems.append(f"SE {self.exact.std_error} misses target {self.target_se}")
        if self.trials != self.trials_at_se[0]:
            problems.append("trials_at_se differs from the run's first op")
        return problems

    def extra_metrics(self) -> dict[str, tuple[float, str]]:
        if not self.trials_at_se:
            return {}
        return {"trials_at_se": (self.trials_at_se[0], "count"),
                "lb_s_at_se": (statistics.median(self.lb_s_at_se), "s")}


class LargeRegionLB(Workload):
    """A 4 km macro disk at the paper's dense 50 cells/km^2, analytic bound only.

    The O(parents^2) Matern sampler dominates time and memory; the exact-MC
    kernel never runs, so kernel changes should leave this workload alone.
    """

    CELLS = 466
    FINGERPRINT = "7d824f8595845d97"
    SIGNAL_SAMPLES = 100_000

    def __init__(self, seed: int, workdir) -> None:
        self.cfg = config.ScenarioConfig(macro_radius_m=4000.0,
                                         density_per_km2=50.0,
                                         topology_seed=1, trial_seed=seed)
        self.qos = self.cfg.qos()
        self.modes = (self.cfg.duplex(mode="hd"), self.cfg.duplex(mode="fd"))
        self.params = {"macro_radius_m": 4000, "density_per_km2": 50,
                       "pico_radius_m": 90, "hard_core_m": 180,
                       "topology_seed": 1, "trial_seed": seed,
                       "eta_db": -80, "theta_per_bit": 1e-3,
                       "signal_samples": self.SIGNAL_SAMPLES}

    def op(self) -> None:
        with warnings.catch_warnings():
            # 50 cells/km^2 is above the hard-core packing limit by design.
            warnings.simplefilter("ignore", geometry.SaturationWarning)
            self.topology = self.cfg.sample_topology()
        self.bounds = [capacity.ec_lower_bound(
            self.topology, duplex, self.qos, self.cfg.noise_watts,
            self.SIGNAL_SAMPLES, self.cfg.trial_seed) for duplex in self.modes]

    def check(self) -> list[str]:
        problems = []
        if len(self.topology.small_cells) != self.CELLS:
            problems.append(f"M = {len(self.topology.small_cells)}")
        if self.topology.fingerprint() != self.FINGERPRINT:
            problems.append(f"topology fingerprint {self.topology.fingerprint()}")
        hd, fd = (b.ec for b in self.bounds)
        if not all(math.isfinite(x) and x > 0 for x in (hd, fd)):
            problems.append(f"bounds HD {hd}, FD {fd} not finite and > 0")
        elif not 1.0 < fd / hd <= 2.0:
            problems.append(f"FD/HD bound ratio {fd / hd} outside (1, 2]")
        return problems


WORKLOADS = {"sweep_ref": SweepRef, "matched_se_dense": MatchedSEDense,
             "large_region_lb": LargeRegionLB}
