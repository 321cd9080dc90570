"""Hard-core small-cell deployments and uniform-in-disk user placement.

Distances are in meters and powers in watts throughout. Polar angles are
radians in [0, 2*pi) against the global +x axis, so an absolute position is
``center + (r cos t, r sin t)``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Parent intensity cap used when the requested density sits above the
# hard-core saturation limit (retention probability ~ 99.9% saturated).
_SATURATION_KNEE = -math.log(1e-3)


class InfeasibleRegionError(ValueError):
    """The region cannot admit even a single small cell."""


class InvalidTopologyError(ValueError):
    """A topology violates a hard-core, containment or index invariant."""


class SaturationWarning(UserWarning):
    """Requested density exceeds the hard-core packing limit."""


@dataclass(frozen=True)
class Region:
    """Circular macro coverage disk."""

    macro_radius: float
    macro_center: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.macro_radius <= 0:
            raise ValueError(f"macro_radius must be > 0, got {self.macro_radius}")

    @property
    def area(self) -> float:
        return math.pi * self.macro_radius**2


@dataclass(frozen=True)
class SmallCell:
    """One low-power cell: center, coverage radius, BS power, path-loss exponent."""

    center: tuple[float, float]
    radius: float
    power: float
    alpha: float


@dataclass(frozen=True)
class MacroBS:
    position: tuple[float, float]
    power: float
    alpha: float


@dataclass(frozen=True)
class NetworkTopology:
    """Fixed macro BS plus a hard-core set of small cells with one tagged cell.

    ``tagged_index`` is None only for an empty deployment.
    """

    macro_bs: MacroBS
    small_cells: tuple[SmallCell, ...]
    hard_core_distance: float
    tagged_index: int | None
    region: Region

    def __post_init__(self) -> None:
        object.__setattr__(self, "small_cells", tuple(self.small_cells))
        self.validate()

    def validate(self) -> None:
        n = len(self.small_cells)
        if n == 0:
            if self.tagged_index is not None:
                raise InvalidTopologyError("tagged_index set on an empty deployment")
            return
        if self.tagged_index is None or not 0 <= self.tagged_index < n:
            raise InvalidTopologyError(
                f"tagged_index {self.tagged_index} invalid for {n} cells")
        centers = np.array([c.center for c in self.small_cells], dtype=float)
        radii = np.array([c.radius for c in self.small_cells], dtype=float)
        if n > 1:
            diff = centers[:, None, :] - centers[None, :, :]
            dist = np.hypot(diff[..., 0], diff[..., 1])
            dist[np.diag_indices(n)] = np.inf
            rh = radii[:, None] + radii[None, :]
            if self.hard_core_distance < rh[~np.eye(n, dtype=bool)].max() - 1e-9:
                raise InvalidTopologyError(
                    "hard core distance smaller than a pair of cell radii")
            if dist.min() < self.hard_core_distance - 1e-9:
                raise InvalidTopologyError(
                    f"min center distance {dist.min():.3f} m violates hard core "
                    f"{self.hard_core_distance} m")
        off = np.hypot(centers[:, 0] - self.region.macro_center[0],
                       centers[:, 1] - self.region.macro_center[1])
        if (off + radii > self.region.macro_radius + 1e-9).any():
            raise InvalidTopologyError("a small-cell disk crosses the macro boundary")

    @property
    def tagged_cell(self) -> SmallCell:
        if self.tagged_index is None:
            raise InvalidTopologyError("empty topology has no tagged cell")
        return self.small_cells[self.tagged_index]

    def fingerprint(self) -> str:
        """Stable short hash of the deployment, for result provenance."""
        import hashlib

        parts = [f"{self.macro_bs.position[0]:.6f},{self.macro_bs.position[1]:.6f},"
                 f"{self.macro_bs.power:.9e},{self.macro_bs.alpha:.6f}",
                 f"{self.hard_core_distance:.6f},{self.tagged_index}",
                 f"{self.region.macro_radius:.6f}"]
        for c in self.small_cells:
            parts.append(f"{c.center[0]:.6f},{c.center[1]:.6f},{c.radius:.6f},"
                         f"{c.power:.9e},{c.alpha:.6f}")
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def sample_uniform_disk_batch(
    radius: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized uniform-in-disk draw; returns (r, theta) arrays of length n."""
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    return r, theta


def disk_points_xy(center: tuple[float, float], r: np.ndarray,
                   theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Absolute coordinates of polar offsets (global angle frame)."""
    return center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)


def default_tagged_index(centers: np.ndarray, region: Region) -> int:
    """Cell nearest to the mid-radius anchor (macro_radius/2, 0)."""
    anchor = (region.macro_center[0] + region.macro_radius / 2.0,
              region.macro_center[1])
    return int(np.argmin(np.hypot(centers[:, 0] - anchor[0],
                                  centers[:, 1] - anchor[1])))


def matern_parent_intensity(target_density: float, hard_core: float,
                            compensation: float = 1.0) -> tuple[float, bool]:
    """Parent Poisson intensity whose type-II thinning retains ``target_density``.

    ``compensation`` scales the retained-intensity goal (used to offset the
    loss from boundary containment). Returns (parent intensity, saturated).
    The retained intensity of type-II thinning with parent intensity p is
    (1 - exp(-p*A)) / A with A = pi*hard_core^2, capped at 1/A; above that
    cap the request saturates.
    """
    if target_density == 0:
        return 0.0, False
    area_hc = math.pi * hard_core**2
    wanted = target_density * compensation * area_hc
    if wanted >= 1.0:
        return _SATURATION_KNEE / area_hc, True
    return -math.log1p(-wanted) / area_hc, False


def sample_matern_hcpp(
    region: Region,
    target_density: float,
    hard_core: float,
    cell_radius: float,
    seed: int,
    *,
    cell_power: float = 1.0,
    alpha: float = 3.0,
    macro_power: float = 1.0,
    macro_alpha: float | None = None,
    tagged_index: int | None = None,
) -> NetworkTopology:
    """Sample a Matern type-II hard-core deployment inside the macro disk.

    ``target_density`` is the retained density in cells per square meter over
    the macro disk. Parents are drawn on a disk dilated by ``hard_core`` so
    mark competition has no edge bias, thinned (lowest mark within the hard
    core wins), then restricted to centers that keep the whole cell inside
    the macro disk. The parent intensity is solved so the expected retained
    count is ``target_density * region.area`` despite thinning and the
    containment margin; a request above the type-II saturation limit
    1/(pi*hard_core^2) raises ``SaturationWarning`` and delivers the
    saturated process instead.

    Deterministic for a fixed seed.
    """
    if target_density < 0:
        raise ValueError("target_density must be >= 0")
    if cell_radius <= 0:
        raise ValueError("cell_radius must be > 0")
    if hard_core < 2 * cell_radius:
        raise ValueError(
            f"hard_core {hard_core} m must be >= 2*cell_radius = {2 * cell_radius} m "
            "(non-overlap condition)")
    eligible = region.macro_radius - cell_radius
    if eligible < 0:
        raise InfeasibleRegionError(
            f"cell radius {cell_radius} m does not fit in macro radius "
            f"{region.macro_radius} m")

    macro = MacroBS(region.macro_center, macro_power,
                    alpha if macro_alpha is None else macro_alpha)
    rng = np.random.default_rng(seed)
    if target_density == 0 or eligible == 0:
        cells: tuple[SmallCell, ...] = ()
        if target_density > 0 and eligible == 0:
            cells = (SmallCell(region.macro_center, cell_radius, cell_power, alpha),)
        idx = 0 if cells else None
        return NetworkTopology(macro, cells, hard_core, idx, region)

    # Containment keeps centers within the eligible radius, so aim the
    # retained intensity higher by the area ratio macro/eligible.
    compensation = (region.macro_radius / eligible) ** 2
    parent_intensity, saturated = matern_parent_intensity(
        target_density, hard_core, compensation)
    if saturated:
        warnings.warn(
            f"requested density {target_density:.3e} /m^2 (x{compensation:.3f} "
            "containment compensation) exceeds the hard-core packing limit "
            f"{1.0 / (math.pi * hard_core**2):.3e} /m^2; delivering the "
            "saturated process",
            SaturationWarning, stacklevel=2)

    extended = eligible + hard_core
    n_parent = rng.poisson(parent_intensity * math.pi * extended**2)
    r, theta = sample_uniform_disk_batch(extended, n_parent, rng)
    marks = rng.random(n_parent)
    x, y = disk_points_xy(region.macro_center, r, theta)
    if n_parent > 0:
        pts = np.column_stack([x, y])
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        np.fill_diagonal(d2, np.inf)
        competing = d2 < hard_core**2
        keep = np.empty(n_parent, dtype=bool)
        for i in range(n_parent):
            rivals = marks[competing[i]]
            keep[i] = rivals.size == 0 or marks[i] < rivals.min()
        keep &= r <= eligible
        centers = pts[keep]
    else:
        centers = np.empty((0, 2))

    cells = tuple(SmallCell((float(cx), float(cy)), cell_radius, cell_power, alpha)
                  for cx, cy in centers)
    if not cells:
        return NetworkTopology(macro, (), hard_core, None, region)
    idx = default_tagged_index(centers, region) if tagged_index is None else tagged_index
    return NetworkTopology(macro, cells, hard_core, idx, region)
