"""Hard-core small-cell deployments and uniform-in-disk user placement.

A ``NetworkTopology`` holds its M cells as read-only arrays ``centers``
(M, 2), ``radius``, ``power`` and ``alpha`` (M,), built once by its one
constructor, which pickling also goes through; ``SmallCell`` records are
derived from them for display only. One numpy pair search (all pairs for
a few points, a uniform grid beyond) finds the point pairs closer than the
hard core, for Matern thinning and for validation; the module needs numpy
alone.

Distances are in meters and powers in watts throughout. Polar angles are
radians in [0, 2*pi) against the global +x axis, so an absolute position is
``center + (r cos t, r sin t)``. The trial kernel alone measures uplink-UE
angles from the ray toward the tagged UE; see ``capacity._simulate_chunk``.
"""
from __future__ import annotations

import functools
import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

# Parent intensity cap used when the requested density sits above the
# hard-core saturation limit (retention probability ~ 99.9% saturated).
_SATURATION_KNEE = -math.log(1e-3)

# Largest expected parent count ``sample_matern_hcpp`` accepts; see its
# docstring for the per-parent memory this is sized from.
MAX_PARENTS = 1_000_000


class InfeasibleRegionError(ValueError):
    """The region cannot admit even a single small cell."""


class InvalidTopologyError(ValueError):
    """A topology violates a hard-core, containment or index invariant."""


class RegionTooLargeError(ValueError):
    """The expected Matern parent count exceeds ``MAX_PARENTS``."""


class SaturationWarning(UserWarning):
    """Requested density exceeds the hard-core packing limit."""


@dataclass(frozen=True)
class Region:
    """Circular macro coverage disk, centred on the macro BS."""

    macro_radius: float

    def __post_init__(self) -> None:
        if not self.macro_radius > 0:
            raise ValueError(f"macro_radius must be > 0, got {self.macro_radius}")


@dataclass(frozen=True)
class SmallCell:
    """One cell, for display: center, coverage radius, BS power, path-loss exponent."""

    center: tuple[float, float]
    radius: float
    power: float
    alpha: float


@dataclass(frozen=True)
class MacroBS:
    position: tuple[float, float]
    power: float
    alpha: float


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class NetworkTopology:
    """Macro BS plus hard-core small cells, one tagged (None only when empty).

    Cell k: center ``centers[k]``, radius ``radius[k]``, BS power ``power[k]``
    (W), path-loss exponent ``alpha[k]``, copied into read-only float64
    arrays; a scalar applies to every cell. Topologies compare by identity.
    """

    macro_bs: MacroBS
    centers: np.ndarray
    radius: np.ndarray
    power: np.ndarray
    alpha: np.ndarray
    hard_core_distance: float
    tagged_index: int | None
    region: Region

    def __post_init__(self) -> None:
        centers = np.array(self.centers, dtype=float).reshape(-1, 2)
        if len(centers) != len(self.centers):
            raise InvalidTopologyError(
                f"centers must have shape (M, 2), got {np.shape(self.centers)}")
        object.__setattr__(self, "centers", _readonly(centers))
        for name in ("radius", "power", "alpha"):      # copies, scalars broadcast
            object.__setattr__(self, name, _readonly(np.array(np.broadcast_to(
                np.asarray(getattr(self, name), dtype=float), len(centers)))))
        self.validate()

    def __reduce__(self):
        """Pickle as a constructor call on the arrays and scalars: a copy
        comes back validated and read-only at any protocol, and the cached
        views (``others``, ``interfering_bs``, ``small_cells``) stay behind."""
        return (NetworkTopology, (self.macro_bs, self.centers, self.radius, self.power,
                                  self.alpha, self.hard_core_distance,
                                  self.tagged_index, self.region))

    def validate(self) -> None:
        n = len(self.centers)
        # radius and power 0 are valid: a point cell, a silent transmitter
        values = np.concatenate((self.radius, self.power, self.alpha,
                                 (self.macro_bs.power, self.macro_bs.alpha)))
        bad = ~(np.isfinite(values) & (values >= 0))
        if bad.any():
            k = int(np.argmax(bad))
            what = ("macro power", "macro alpha")[k - 3 * n] if k >= 3 * n \
                else f"cell {k % n} {('radius', 'power', 'alpha')[k // n]}"
            raise InvalidTopologyError(f"{what} must be finite and >= 0, got {values[k]}")
        if n == 0:
            if self.tagged_index is not None:
                raise InvalidTopologyError("tagged_index set on an empty deployment")
            return
        if self.tagged_index is None or not 0 <= self.tagged_index < n:
            raise InvalidTopologyError(
                f"tagged_index {self.tagged_index} invalid for {n} cells")
        centers = self.centers
        if not np.isfinite(centers).all():
            raise InvalidTopologyError("a small-cell center is not finite")
        if n > 1:
            two_largest = np.partition(self.radius, n - 2)[n - 2:].sum()
            if self.hard_core_distance < two_largest - 1e-9:
                raise InvalidTopologyError(
                    "hard core distance smaller than a pair of cell radii")
            i, j = _close_pairs(centers, self.hard_core_distance)
            if i.size:
                diff = centers[i] - centers[j]
                closest = np.hypot(diff[:, 0], diff[:, 1]).min()
                if closest < self.hard_core_distance - 1e-9:
                    raise InvalidTopologyError(
                        f"min center distance {closest:.3f} m violates hard core "
                        f"{self.hard_core_distance} m")
        off = np.hypot(centers[:, 0] - self.macro_bs.position[0],
                       centers[:, 1] - self.macro_bs.position[1])
        if (off + self.radius > self.region.macro_radius + 1e-9).any():
            raise InvalidTopologyError("a small-cell disk crosses the macro boundary")

    def _tagged(self) -> int:
        """``tagged_index``; an empty deployment raises ``InvalidTopologyError``."""
        if self.tagged_index is None:
            raise InvalidTopologyError("empty topology has no tagged cell")
        return self.tagged_index

    @functools.cached_property
    def others(self) -> np.ndarray:
        """Indices of the non-tagged cells, in index order."""
        return _readonly(np.delete(np.arange(len(self.centers)), self._tagged()))

    @functools.cached_property
    def interfering_bs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Positions (K, 2), powers and path-loss exponents of the BSs heard at
        the tagged UE: the macro first, then ``others`` (kernel and mean)."""
        macro, others = self.macro_bs, self.others
        return (_readonly(np.vstack((macro.position, self.centers[others]))),
                _readonly(np.concatenate(([macro.power], self.power[others]))),
                _readonly(np.concatenate(([macro.alpha], self.alpha[others]))))

    def _table(self) -> list[list[float]]:
        """Rows x, y, radius, power, alpha per cell, as Python floats."""
        return np.column_stack((self.centers, self.radius, self.power,
                                self.alpha)).tolist()

    @functools.cached_property
    def small_cells(self) -> tuple[SmallCell, ...]:
        """The cells as ``SmallCell`` records, for display."""
        return tuple(SmallCell((x, y), r, p, a) for x, y, r, p, a in self._table())

    def fingerprint(self) -> str:
        """Stable short hash of the deployment, for result provenance."""
        parts = [f"{self.macro_bs.position[0]:.6f},{self.macro_bs.position[1]:.6f},"
                 f"{self.macro_bs.power:.9e},{self.macro_bs.alpha:.6f}",
                 f"{self.hard_core_distance:.6f},{self.tagged_index}",
                 f"{self.region.macro_radius:.6f}"]
        parts += [f"{x:.6f},{y:.6f},{r:.6f},{p:.9e},{a:.6f}"
                  for x, y, r, p, a in self._table()]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


#: Candidate pairs ``_close_pair_blocks`` tests per block; bounds its
#: temporaries.
_PAIR_BLOCK = 1 << 12
#: Up to this many pairs in all, ``_close_pair_blocks`` tests every pair:
#: the grid's fixed cost is the larger there (n up to ~180 points).
_ALL_PAIRS = 1 << 14


@functools.lru_cache(maxsize=4)
def _all_pairs(n: int) -> tuple[np.ndarray, ...]:
    """``np.triu_indices(n, 1)``, read-only; cached, since listing the pairs
    costs more than testing them."""
    return tuple(_readonly(k) for k in np.triu_indices(n, 1))


def _dense_rank(values: np.ndarray) -> np.ndarray:
    """Rank of each value among the distinct values, from 0.

    ``np.unique(values, return_inverse=True)[1]`` without its fixed cost,
    which dominates ``validate`` on a few hundred cells.
    """
    order = np.argsort(values)
    ordered = values[order]
    rank = np.empty(len(values), dtype=np.intp)
    rank[order] = np.cumsum(np.concatenate(([0], ordered[1:] != ordered[:-1])))
    return rank


def _close_pair_blocks(points: np.ndarray, distance: float):
    """Yield index arrays (i, j) of the pairs with dx^2 + dy^2 < distance^2.

    Each unordered pair comes once, in no particular orientation. Up to
    ``_ALL_PAIRS`` pairs in all, every pair is tested. Beyond that, a
    uniform grid (cell list) over the ranks of the occupied cells: points
    are binned into square cells of side ``distance`` padded by 1e-9
    relative, plus the rounding of coord/side at the largest coordinate, so
    the cell indices are exact integers below 2^51 and a close pair lies in
    one cell or in two adjacent ones. Adjacent cells have adjacent ranks on
    each axis, and ranks keep the keys below n^2 whatever the extent. With
    the points sorted by key, each point is paired with the later points of
    its own cell and of the next cell up, and with every point of the three
    cells (x+1, y-1..y+1), which sort contiguously. Either way the exact
    strict test decides, so a pair at the boundary resolves as an all-pairs
    ``d2 < distance**2`` would. Cells go in blocks of about ``_PAIR_BLOCK``
    candidate pairs, so apart from the pairs found, memory is linear in the
    points whatever their extent.
    """
    n = len(points)
    if n < 2 or not distance > 0:
        return
    if n * (n - 1) // 2 <= _ALL_PAIRS:
        yield _closer_than(points[:, 0], points[:, 1], *_all_pairs(n), distance)
        return
    side = distance * (1.0 + 1e-9) + float(np.abs(points).max()) * 2.0**-51
    row = _dense_rank(np.floor(points[:, 1] / side)) + 1
    stride = int(row.max()) + 2        # rows 0 and max + 1 stay empty
    key = _dense_rank(np.floor(points[:, 0] / side))
    key *= stride
    key += row
    del row                 # per-point temporaries go early: bytes per parent
    order = np.argsort(key)
    key = key[order]
    x, y = points[order, 0], points[order, 1]       # in cell order
    starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    cell_key = key[starts]
    del key
    bounds = np.append(starts, n)
    # own cell and the next one up: up to the end of cell c or c + 1
    own_end = bounds[1:].copy()
    up = np.flatnonzero(cell_key[1:] == cell_key[:-1] + 1)
    own_end[up] = bounds[up + 2]
    # the next column's three cells y-1..y+1
    side_lo = bounds[np.searchsorted(cell_key, cell_key + stride - 1)]
    side_hi = bounds[np.searchsorted(cell_key, cell_key + stride + 1, "right")]
    del cell_key
    sizes = np.diff(bounds)
    candidates = np.cumsum(sizes * (sizes - 1) // 2
                           + sizes * (own_end - bounds[1:] + side_hi - side_lo))
    first = 0
    while first < len(starts):
        done = candidates[first - 1] if first else 0
        last = max(int(np.searchsorted(candidates, done + _PAIR_BLOCK, "right")),
                   first + 1)
        source = np.arange(starts[first], bounds[last])
        cell = np.repeat(np.arange(first, last), sizes[first:last])
        lo = np.column_stack((source + 1, side_lo[cell]))
        length = np.column_stack((own_end[cell], side_hi[cell]))
        del cell
        length -= lo
        length = length.ravel()
        offset = np.cumsum(length)
        offset -= length
        i = np.repeat(source, length.reshape(-1, 2).sum(axis=1))
        j = np.repeat(lo.ravel() - offset, length)
        del source, lo, length, offset
        j += np.arange(len(j))
        i, j = _closer_than(x, y, i, j, distance)
        yield order[i], order[j]
        first = last


def _closer_than(x: np.ndarray, y: np.ndarray, i: np.ndarray, j: np.ndarray,
                 distance: float) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (i, j) with dx^2 + dy^2 < distance^2."""
    dx = x[i] - x[j]
    dx *= dx
    dy = y[i] - y[j]
    dy *= dy
    dx += dy
    close = dx < distance**2
    return i[close], j[close]


def _close_pairs(points: np.ndarray,
                 distance: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of the point pairs with dx^2 + dy^2 < distance^2.

    All blocks of ``_close_pair_blocks`` at once; see there for the search.
    """
    blocks = list(_close_pair_blocks(points, distance))
    if not blocks:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    i, j = (np.concatenate(side) for side in zip(*blocks))
    return np.minimum(i, j), np.maximum(i, j)


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
    """Cell nearest to the mid-radius anchor (macro_radius/2, 0).

    The anchor is taken from the sampler's macro BS at the origin.
    """
    return int(np.argmin(np.hypot(centers[:, 0] - region.macro_radius / 2.0,
                                  centers[:, 1])))


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
) -> NetworkTopology:
    """Sample a Matern type-II hard-core deployment inside the macro disk.

    The macro BS sits at the origin with path-loss exponent ``alpha``, like
    the cells; the tagged cell is the one ``default_tagged_index`` picks.

    ``target_density`` is the retained density in cells per square meter over
    the macro disk. Parents are drawn on a disk dilated by ``hard_core`` so
    mark competition has no edge bias, thinned (lowest mark within the hard
    core wins), then restricted to centers that keep the whole cell inside
    the macro disk. The parent intensity is solved so the expected retained
    count is ``target_density * pi * macro_radius^2`` despite thinning and
    the containment margin; a request above the type-II saturation limit
    1/(pi*hard_core^2) raises ``SaturationWarning`` and delivers the
    saturated process instead.

    Thinning finds rivals with one pair search (``_close_pair_blocks``, a
    grid beyond ~180 parents) and takes the rival minimum block by block,
    so time is O(parents log parents) and memory is linear in parents:
    traced peaks of ~120-180 bytes per parent, from the saturation
    intensity (~3.5k and ~31k parents) to the highest parent intensity the
    solver returns (~28/(pi*hard_core^2)), retained cells included. A
    request whose expected parent count exceeds ``MAX_PARENTS`` (1e6, so
    at most ~0.2 GB) raises ``RegionTooLargeError`` before any draw.

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

    macro = MacroBS((0.0, 0.0), macro_power, alpha)
    if target_density == 0 or eligible == 0:
        # a cell as large as the macro disk fits only at its centre
        n = int(target_density > 0)
        return NetworkTopology(macro, np.zeros((n, 2)), cell_radius, cell_power,
                               alpha, hard_core, 0 if n else None, region)

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
    expected_parents = parent_intensity * math.pi * extended**2
    if expected_parents > MAX_PARENTS:
        raise RegionTooLargeError(
            f"expected {expected_parents:.3e} Matern parents exceed the cap "
            f"MAX_PARENTS = {MAX_PARENTS:,}; use a smaller macro radius, "
            "density or hard core")
    rng = np.random.default_rng(seed)
    n_parent = rng.poisson(expected_parents)
    r, theta = sample_uniform_disk_batch(extended, n_parent, rng)
    marks = rng.random(n_parent)
    x, y = disk_points_xy(macro.position, r, theta)
    pts = np.column_stack([x, y])
    # type II: a parent survives when its mark is below every rival's mark
    # within the hard core
    rival = np.full(n_parent, np.inf)
    for i, j in _close_pair_blocks(pts, hard_core):
        np.minimum.at(rival, i, marks[j])
        np.minimum.at(rival, j, marks[i])
    centers = pts[(marks < rival) & (r <= eligible)]
    tagged = default_tagged_index(centers, region) if len(centers) else None
    return NetworkTopology(macro, centers, cell_radius, cell_power, alpha,
                           hard_core, tagged, region)
