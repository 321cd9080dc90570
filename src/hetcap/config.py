"""Scenario files, topology files and result serialization.

Scenario files are flat ``key = value`` text with ``#`` comments; every key
is optional and defaults to the reference parameter set (46 dBm macro,
35 dBm pico, 23 dBm UE, path-loss exponent 3, -120 dBm noise, 180 m minimum
pico spacing, 90 m pico radius). Powers cross the dBm/watt boundary here and
nowhere else: P_W = 10^((dBm - 30)/10).
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .channel import DuplexConfig, DuplexMode, QoSConfig
from .experiments import BenchmarkReport, SweepResult
from .geometry import MacroBS, NetworkTopology, Region, sample_matern_hcpp
from .interference import MeanInterferenceBreakdown


class ScenarioFormatError(ValueError):
    """Scenario or topology file could not be parsed."""


class ScenarioValidationError(ValueError):
    """Parsed scenario violates a model invariant."""


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    if watts < 0:
        raise ValueError("watts must be >= 0")
    if watts == 0:
        return -math.inf  # silent transmitter; round-trips through 10^x
    return 10.0 * math.log10(watts) + 30.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Full experiment description with reference defaults."""

    macro_radius_m: float = 1000.0
    macro_power_dbm: float = 46.0
    pico_power_dbm: float = 35.0
    pico_radius_m: float = 90.0
    path_loss_exponent: float = 3.0
    density_per_km2: float = 5.0
    hard_core_m: float = 180.0
    duplex_mode: str = "fd"
    eta: float = 1e-8          # linear; -80 dB
    kappa: float = 1.0
    theta_per_bit: float = 1e-3
    frame_time_s: float = 0.5e-3
    bandwidth_hz: float = 180e3
    noise_dbm: float = -120.0
    ue_power_dbm: float = 23.0
    topology_seed: int = 1
    trial_seed: int = 1
    trials: int = 10000

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        checks = [
            (self.macro_radius_m > 0, "macro_radius_m must be > 0"),
            (self.pico_radius_m > 0, "pico_radius_m must be > 0"),
            (self.pico_radius_m < self.macro_radius_m,
             "pico_radius_m must be smaller than macro_radius_m"),
            (self.hard_core_m >= 2 * self.pico_radius_m,
             f"hard_core_m must be >= 2*pico_radius_m = {2 * self.pico_radius_m}"),
            (self.density_per_km2 >= 0, "density_per_km2 must be >= 0"),
            (self.path_loss_exponent >= 0, "path_loss_exponent must be >= 0"),
            (self.duplex_mode in ("hd", "fd"), "duplex_mode must be hd or fd"),
            (0.0 <= self.eta <= 1.0, "eta must lie in [0, 1]"),
            (0.0 <= self.kappa <= 1.0, "kappa must lie in [0, 1]"),
            (self.theta_per_bit > 0, "theta_per_bit must be > 0"),
            (self.frame_time_s > 0, "frame_time_s must be > 0"),
            (self.bandwidth_hz > 0, "bandwidth_hz must be > 0"),
            (self.trials >= 1, "trials must be >= 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ScenarioValidationError(message)

    # -- unit-converted views -------------------------------------------------

    @property
    def noise_watts(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    def region(self) -> Region:
        return Region(self.macro_radius_m)

    def duplex(self, mode: str | None = None) -> DuplexConfig:
        return DuplexConfig(DuplexMode(mode or self.duplex_mode), self.eta,
                            self.kappa, dbm_to_watts(self.ue_power_dbm))

    def qos(self) -> QoSConfig:
        return QoSConfig(self.theta_per_bit, self.frame_time_s, self.bandwidth_hz)

    def sample_topology(self) -> NetworkTopology:
        return sample_matern_hcpp(
            self.region(),
            self.density_per_km2 * 1e-6,
            self.hard_core_m,
            self.pico_radius_m,
            self.topology_seed,
            cell_power=dbm_to_watts(self.pico_power_dbm),
            alpha=self.path_loss_exponent,
            macro_power=dbm_to_watts(self.macro_power_dbm))

    def fingerprint(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


_INT_KEYS = {"topology_seed", "trial_seed", "trials"}
_SCENARIO_KEYS = {f.name for f in fields(ScenarioConfig)}


def _parse_kv_lines(path: str) -> list[tuple[int, str, str]]:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioFormatError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            entries.append((lineno, key, value))
    return entries


def _parse(path: str, lineno: int, key: str, text: str, convert):
    """``convert(text)``, a failure raised as a located ``ScenarioFormatError``."""
    try:
        return convert(text)
    except ValueError as exc:
        raise ScenarioFormatError(
            f"{path}:{lineno}: bad value {text!r} for {key}") from exc


def load_scenario(path: str) -> ScenarioConfig:
    """Load a scenario file; omitted keys fall back to the reference defaults.

    ``eta`` may be given either as ``eta_db`` (the figures' axis) or as
    ``eta`` (linear); giving both is an error.
    """
    values: dict = {}
    saw_eta_db = saw_eta = False
    for lineno, key, text in _parse_kv_lines(path):
        if key == "eta_db":
            saw_eta_db = True
            values["eta"] = 10.0 ** (_parse(path, lineno, key, text, float) / 10.0)
        elif key == "duplex_mode":
            values[key] = text.lower()
        elif key in _SCENARIO_KEYS:
            saw_eta |= key == "eta"
            values[key] = _parse(path, lineno, key, text,
                                 int if key in _INT_KEYS else float)
        else:
            raise ScenarioFormatError(f"{path}:{lineno}: unknown key {key!r}")
    if saw_eta_db and saw_eta:
        raise ScenarioFormatError(f"{path}: give eta_db or eta, not both")
    try:
        return ScenarioConfig(**values)
    except ScenarioValidationError as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from exc


def save_scenario(config: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# hetcap scenario\n")
        for f in fields(ScenarioConfig):
            value = getattr(config, f.name)
            if f.name in _INT_KEYS or f.name == "duplex_mode":
                fh.write(f"{f.name} = {value}\n")
            else:
                fh.write(f"{f.name} = {value!r}\n")


# -- topology files -----------------------------------------------------------

def save_topology(topology: NetworkTopology, path: str) -> None:
    """Write a deployment as key = value lines plus one ``cell`` line per cell.

    Cell lines carry ``x_m y_m radius_m power_dbm alpha``; powers are stored
    in dBm for readability.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# hetcap topology\n")
        fh.write(f"macro_radius_m = {topology.region.macro_radius!r}\n")
        fh.write(f"macro_x_m = {topology.macro_bs.position[0]!r}\n")
        fh.write(f"macro_y_m = {topology.macro_bs.position[1]!r}\n")
        fh.write(f"macro_power_dbm = {watts_to_dbm(topology.macro_bs.power)!r}\n")
        fh.write(f"macro_alpha = {topology.macro_bs.alpha!r}\n")
        fh.write(f"hard_core_m = {topology.hard_core_distance!r}\n")
        fh.write(f"tagged_index = {topology.tagged_index}\n")
        for x, y, radius, power, alpha in topology._table():  # Python floats
            fh.write(f"cell = {x!r} {y!r} {radius!r} {watts_to_dbm(power)!r} "
                     f"{alpha!r}\n")


_TOPOLOGY_KEYS = {"macro_radius_m": float, "macro_x_m": float, "macro_y_m": float,
                  "macro_power_dbm": float, "macro_alpha": float, "hard_core_m": float,
                  "tagged_index": lambda text: None if text == "None" else int(text)}


def load_topology(path: str) -> NetworkTopology:
    """Read a ``save_topology`` file; a bad line raises ``ScenarioFormatError``."""
    values: dict = {}
    cells = []      # x, y, radius, power (W), alpha per cell
    for lineno, key, text in _parse_kv_lines(path):
        if key == "cell":
            parts = text.split()
            if len(parts) != 5:
                raise ScenarioFormatError(
                    f"{path}:{lineno}: cell needs 5 fields, got {len(parts)}")
            x, y, radius, dbm, alpha = (
                _parse(path, lineno, key, p, float) for p in parts)
            cells.append((x, y, radius, dbm_to_watts(dbm), alpha))
        elif key in _TOPOLOGY_KEYS:
            values[key] = _parse(path, lineno, key, text, _TOPOLOGY_KEYS[key])
        else:
            raise ScenarioFormatError(f"{path}:{lineno}: unknown key {key!r}")
    try:
        region = Region(values["macro_radius_m"])
        macro = MacroBS((values.get("macro_x_m", 0.0), values.get("macro_y_m", 0.0)),
                        dbm_to_watts(values["macro_power_dbm"]),
                        values.get("macro_alpha", 3.0))
        table = np.array(cells).reshape(-1, 5)    # radius, power, alpha columns
        return NetworkTopology(macro, table[:, :2], *table[:, 2:].T,
                               values["hard_core_m"], values.get("tagged_index"), region)
    except KeyError as exc:
        raise ScenarioFormatError(f"{path}: missing key {exc.args[0]!r}") from exc


# -- result emission ----------------------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.10g}"


SWEEP_COLUMNS = ("eta_dB", "ec_hd_exact", "ec_hd_se", "ec_fd_exact", "ec_fd_se",
                 "ec_hd_lb", "ec_fd_lb", "ec_fd_lb_se")


def _write_sidecar(path: str, payload: dict) -> None:
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_sweep_csv(sweep: SweepResult, path: str) -> None:
    """Write the sweep table plus a reproducibility sidecar next to it."""
    lines = [",".join(SWEEP_COLUMNS)]
    for eta, row in zip(sweep.eta_grid, sweep.rows):
        eta_db = 10.0 * math.log10(eta) if eta > 0 else -math.inf
        lines.append(",".join([
            _fmt(eta_db),
            _fmt(row.ec_hd_exact.ec), _fmt(row.ec_hd_exact.std_error),
            _fmt(row.ec_fd_exact.ec), _fmt(row.ec_fd_exact.std_error),
            _fmt(row.ec_hd_lb.ec),
            _fmt(row.ec_fd_lb.ec), _fmt(row.ec_fd_lb.std_error),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_sidecar(path, {"kind": "sweep", **sweep.fingerprint})


def emit_breakdown_csv(breakdown: MeanInterferenceBreakdown, path: str) -> None:
    labels = ["macro", *map(str, breakdown.cells.tolist())]
    lines = ["interferer_id,type,mean_watts"]
    lines += [f"{j},bs,{_fmt(w)}" for j, w in zip(labels, breakdown.per_bs.tolist())]
    lines += [f"{j},ue,{_fmt(w)}" for j, w in zip(labels[1:], breakdown.per_ue.tolist())]
    lines.append(f"total,total,{_fmt(breakdown.total)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_benchmark_csv(report: BenchmarkReport, path: str,
                       fingerprint: dict | None = None) -> None:
    header = "exact_seconds,lb_seconds,speedup,M"
    row = ",".join([_fmt(report.exact_seconds), _fmt(report.lb_seconds),
                    _fmt(report.speedup), str(report.cell_count)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n" + row + "\n")
    _write_sidecar(path, {"kind": "benchmark",
                          "exact_trials": report.exact_trials,
                          "lb_trials": report.lb_trials,
                          "target_std_error": report.target_std_error,
                          **(fingerprint or {})})
