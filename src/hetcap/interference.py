"""Disk-averaged mean interference: exact forms, the paper's series, an oracle.

When terminals are uniform in disks of radii R_i and R_v with centers d
apart, the mean of d^-alpha is the power series
d^-alpha * sum_n ((alpha/2)_n / n!)^2 E|X - Y|^2n / d^2n in the moments of
the difference of the two positions; it converges for d > R_i + R_v. A
point interferer is R_i = 0, where the series is exactly
d^-alpha * 2F1(alpha/2, alpha/2; 2; R_v^2/d^2) (DLMF 15.2.1: average the
circle mean over the radial density). This one series gives every mean
interference term the Jensen bound needs, base station and uplink UE alike,
with numpy alone; its term cap makes both raise within ~0.1% of touching.

``mean_pathloss_taylor`` keeps the paper's three-term truncation of the
2F1 form as the reproduced formula; it underestimates the mean. The
quadrature oracle, a 1-D rule, evaluates the disk average directly and is
independent of the series.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import DuplexConfig, _duplex_terms
from .geometry import NetworkTopology, _readonly


class TaylorValidityError(ValueError):
    """Mean requested outside its domain: a disk reaches the other terminal.

    Point to disk needs d > R; disk to disk needs d > R_i + R_v.
    """


class TaylorAccuracyWarning(UserWarning):
    """The paper's series evaluated where its truncation error grows (d < 2R)."""


class QuadratureDomainError(ValueError):
    """The disk-average integral diverges: d <= R at alpha >= 2."""


def mean_pathloss_taylor(d: float, cell_radius: float, alpha: float) -> float:
    """The paper's three-term series for the point-to-disk mean path loss.

    Implements d^-alpha * [1 + (alpha^2/8)(R^4/(3d^4) + R^2/d^2)
    + (alpha/4) R^4/(3d^4)]; requires d > R, warns for R < d < 2R where the
    truncation error grows.
    """
    if d <= cell_radius:
        raise TaylorValidityError(
            f"closed form needs separation d > disk radius; got d={d}, R={cell_radius}")
    if d < 2 * cell_radius:
        warnings.warn(
            f"d={d} < 2R={2 * cell_radius}: truncation error of the closed form "
            "may exceed 1%", TaylorAccuracyWarning, stacklevel=2)
    quartic = cell_radius**4 / (3.0 * d**4)
    quadratic = cell_radius**2 / d**2
    bracket = 1.0 + (alpha * alpha / 8.0) * (quartic + quadratic) \
        + (alpha / 4.0) * quartic
    return d ** (-alpha) * bracket


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], ascending; cached, read-only.

    Newton's method on the Legendre polynomial P_n, elementwise: LAPACK's
    eigensolver would add ~0.9 MB of resident memory to the import.
    """
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(100):
        p_prev, p = np.ones(n), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        slope = n * (x * p - p_prev) / (x * x - 1.0)    # P_n'(x)
        step = p / slope
        if np.abs(step).max() < 1e-15:      # converged quadratically
            return _readonly(x), _readonly(2.0 / ((1.0 - x * x) * slope * slope))
        x = x - step
    raise ArithmeticError(f"{n}-point Gauss-Legendre nodes did not converge")


def mean_pathloss_numeric(d: float, cell_radius: float, alpha: float) -> float:
    """Disk-averaged path loss by a 1-D quadrature about the interferer.

    A ray's radial integral of rho^(1-alpha) has a closed form, and its entry
    and exit distances multiply to d^2 - R^2. Outside the disk sin(phi) =
    (R/d) sin(psi) smooths the tangent rays; inside (alpha < 2) each node adds
    a ray and its opposite; d = R is a Beta integral. 256 Gauss-Legendre
    nodes agree with mpmath to 1.6e-14 for d/R >= 1.000001 and 8e-16 for
    d/R <= 0.99999 (~5e-7 within 1e-6 R of the edge at 1 < alpha < 2).
    """
    if not (d > 0 and cell_radius >= 0):
        raise ValueError(f"need d > 0 and cell_radius >= 0; got {d}, {cell_radius}")
    if cell_radius == 0:
        return d ** (-alpha)
    if d <= cell_radius and alpha >= 2:
        raise QuadratureDomainError(
            f"victim disk contains the interferer (d={d} <= R={cell_radius}); "
            "the disk average diverges for alpha >= 2")
    r, beta = cell_radius, 2.0 - alpha
    if d == r:                      # chords 2R cos(phi) for |phi| < pi/2
        return (2.0**beta * math.gamma(0.5 + beta / 2.0) / r**alpha
                / (math.sqrt(math.pi) * beta * math.gamma(1.0 + beta / 2.0)))
    x, weights = _gauss_legendre(256)               # ~4 ms on first use
    angle, power = np.pi / 4.0 * (x + 1.0), (d - r) * (d + r)   # on [0, pi/2]
    if d > r:
        sin_phi = (r / d) * np.sin(angle)
        cos_phi = np.sqrt((1.0 - sin_phi) * (1.0 + sin_phi))
        half_chord = r * np.cos(angle)
        near = power / (d * cos_phi + half_chord)
        radial = np.log1p(2.0 * half_chord / near)          # ln(far/near)
        if beta:
            radial = near**beta * np.expm1(beta * radial) / beta
        integrand = radial * half_chord / (d * cos_phi)
    else:
        s = d * np.sin(angle)
        far = d * np.cos(angle) + np.sqrt((r - s) * (r + s))
        integrand = (far**beta + (-power / far) ** beta) / beta
    return float(weights @ integrand) / (2.0 * r * r)


#: Hard cap on the series length, reached only for disks within ~0.1% of
#: touching, or a point within ~0.1% of a disk's edge (the hard core allows
#: touching; sampling rarely comes that close).
MAX_SERIES_TERMS = 1 << 15
#: Series truncation target, relative to the leading term.
_SERIES_TAIL = 1e-17
#: Largest pairs x terms evaluated as plain powers; beyond it the powers
#: split into baby and giant steps, 2*sqrt(terms) per pair.
_ONE_STEP = 1024
_EXPONENTS = np.arange(float(_ONE_STEP))[:, None]
_TINY = np.finfo(float).tiny
_LOG_TAIL, _LOG_CAP = math.log(_SERIES_TAIL), math.log(MAX_SERIES_TERMS)


@functools.lru_cache(maxsize=16)
def _series_coefficients(share: float, alpha: float, count: int,
                         step: int) -> np.ndarray:
    """c_n mu_n, n < count, of the disk-to-disk series; see ``_disk_pair_pathloss``.

    ``share`` is R_i/(R_i+R_v). mu_n = E(|X - Y|/(R_i+R_v))^2n for X and Y
    uniform in the disks: expanding |X - Y|^2n and keeping the
    rotation-invariant terms gives sum_j C(n,j)^2 p^j/(j+1) q^(n-j)/(n-j+1)
    with p = share^2, q = (1-share)^2, a Jacobi polynomial in disguise. Its
    three-term recurrence is forward-stable for this dominant solution.
    Returned zero-padded as a (ceil(count/step), step) table, row j holding
    terms j*step to j*step + step - 1, for ``_power_series``.
    Cached: a sweep asks for the same few tables at every grid point.
    """
    p, q = share**2, (1.0 - share) ** 2
    mu = [1.0, (p + q) / 2.0]
    for n in range(2, count):
        mu.append(((2 * n + 1) * n * (p + q) * mu[-1]
                   - (n - 1) ** 2 * (q - p) ** 2 * mu[-2]) / ((n + 1) * (n + 2)))
    n = np.arange(1, count)
    table = np.zeros(-(-count // step) * step)
    ratio = ((alpha / 2.0 + n - 1.0) / n) ** 2
    table[:count] = np.cumprod(np.concatenate(([1.0], ratio)))
    table[:count] *= mu[:count]
    table = table.reshape(-1, step)
    table.flags.writeable = False
    return table


def _power_series(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_n c_n x^n per element of x, with c_n in a ``_series_coefficients`` table.

    A (g, s) table takes baby steps x^0..x^(s-1) and, when g > 1, giant
    steps x^(js): s + g powers per element rather than s*g. All terms are
    positive, so the regrouped sum is as accurate as the plain one.
    """
    rows, step = table.shape
    sums = table @ x ** _EXPONENTS[:step]
    if rows == 1:
        return sums[0]
    return np.einsum("jm,jm->m", sums, x ** (step * _EXPONENTS[:rows]))


def _term_count(x: float, alpha: float) -> int:
    """Terms after which the series' tail is below ``_SERIES_TAIL``, for x < 1.

    c_n mu_n <= (n+1)^max(alpha-2, 0), so the tail after N terms is below
    (N+1)^max(alpha-2, 0) x^N/(1-x); bound N+1 by MAX_SERIES_TERMS in the
    power. The floor on x keeps two point terminals (x = 0) at two terms.
    Increasing in x.
    """
    return 1 + math.ceil((_LOG_TAIL + math.log1p(-x) - max(alpha - 2.0, 0.0) * _LOG_CAP)
                         / math.log(max(x, _TINY)))


def _domain_error(d: float, reach: float, alpha: float) -> TaylorValidityError:
    """The error for a pair at separation d whose series cannot be summed."""
    if not d > reach:
        return TaylorValidityError(
            f"mean needs separation d > R_i + R_v; got d={d:.6g}, "
            f"R_i + R_v={reach:.6g}")
    return TaylorValidityError(
        f"disks at d={d:.6g} m with R_i + R_v={reach:.6g} m are too close to "
        f"touching: the series needs {_term_count((reach / d) ** 2, alpha)} terms "
        f"(cap {MAX_SERIES_TERMS})")


def _groups(r_interferer: np.ndarray, alpha: np.ndarray):
    """(index set, R_i, alpha) per distinct (R_i, alpha) pair, members in index order.

    One group, the common case, comes back as ``slice(None)``.
    """
    order = np.lexsort((alpha, r_interferer))
    if not len(order):
        return []
    first, last = order[0], order[-1]
    if r_interferer[first] == r_interferer[last] and alpha[first] == alpha[last]:
        return [(slice(None), float(r_interferer[first]), float(alpha[first]))]
    r_sorted, alpha_sorted = r_interferer[order], alpha[order]
    edges = ((r_sorted[1:] != r_sorted[:-1])
             | (alpha_sorted[1:] != alpha_sorted[:-1])).nonzero()[0] + 1
    return [(order[lo:hi], float(r_sorted[lo]), float(alpha_sorted[lo]))
            for lo, hi in zip([0, *edges.tolist()], [*edges.tolist(), len(order)])]


def _disk_pair_pathloss(d: np.ndarray, r_interferer: np.ndarray,
                        r_victim: float, alpha: np.ndarray) -> np.ndarray:
    """Exact mean of d^-alpha between uniform disks, for 1-D arrays of pairs, d > 0.

    Sums d^-alpha sum_n c_n mu_n x^n with c_n = ((alpha/2)_n/n!)^2, mu_n the
    normalised moments of ``_series_coefficients`` and x = ((R_i+R_v)/d)^2.
    R_i = 0 is a point interferer: then mu_n = 1/(n+1) and the sum is
    d^-alpha 2F1(alpha/2, alpha/2; 2; R_v^2/d^2), the point-to-disk mean.
    Every term is positive. Pairs with equal (R_i, alpha) share one
    coefficient table, with as many terms as their largest x needs. Zero
    pairs give an empty array.
    """
    series = np.empty_like(d)
    for members, r_i, alpha_k in _groups(r_interferer, alpha):
        reach = r_i + r_victim
        x = reach / d[members]
        x *= x                # for d > 0, x >= 1 exactly when d <= R_i + R_v
        x_max = float(x.max())                        # nan if any is nan
        count = _term_count(x_max, alpha_k) if x_max < 1.0 else MAX_SERIES_TERMS + 1
        if count > MAX_SERIES_TERMS:
            raise _domain_error(float(d[members][x.argmax()]), reach, alpha_k)
        # all terms in one step while that is small, else sqrt(count) steps
        step = count if len(x) * count <= _ONE_STEP else math.isqrt(count - 1) + 1
        series[members] = _power_series(x, _series_coefficients(
            r_i / reach if reach > 0 else 0.0, alpha_k, count, step))
    series /= d ** alpha
    return series


def mean_interference_bs_ue(p_bs: float, d: float, r_victim: float,
                            alpha: float) -> float:
    """Mean interference a BS at range d causes to a UE uniform in its disk.

    Unit-mean fading drops out, so this is transmit power times the exact
    disk-averaged path loss d^-alpha 2F1(alpha/2, alpha/2; 2; R^2/d^2),
    summed as the disk-to-disk series with a point interferer. Raises
    ``TaylorValidityError`` unless d > R, or when the UE disk reaches to
    within ~0.1% of the BS (d/R below ~1.0007 at alpha = 2, ~1.00085 at 3,
    ~1.001 at 4), where the series would exceed ``MAX_SERIES_TERMS`` terms.
    From d/R = 1.002 on it agrees with a 30-digit 2F1 to 2.3e-13.
    """
    return mean_interference_ue_ue(p_bs, d, 0.0, r_victim, alpha)


def mean_interference_ue_ue(p_ue: float, d: float, r_interferer: float,
                            r_victim: float, alpha: float) -> float:
    """Mean interference between UEs uniform in two disks with centers d apart.

    Exact: the disk-to-disk power series, summed to double precision.
    Raises ``TaylorValidityError`` unless d > R_i + R_v, or when the disks
    are so close to touching that the series would exceed
    ``MAX_SERIES_TERMS`` terms.
    """
    if p_ue < 0:
        raise ValueError(f"transmit power must be >= 0, got {p_ue}")
    if not d > r_interferer + r_victim:
        raise _domain_error(d, r_interferer + r_victim, alpha)
    d, r_i, alpha = np.array([[d], [r_interferer], [alpha]], dtype=float)
    return p_ue * float(_disk_pair_pathloss(d, r_i, float(r_victim), alpha)[0])


@dataclass(frozen=True, eq=False)
class MeanInterferenceBreakdown:
    """Per-interferer mean powers (W) at the tagged UE, in read-only arrays.

    ``per_bs``: the macro, then the non-tagged ``cells`` (``interfering_bs``
    order); ``per_ue``: the uplink UEs of ``cells``, empty in half duplex.
    A negative or nan entry raises ``ValueError``.
    """

    per_bs: np.ndarray
    per_ue: np.ndarray
    cells: np.ndarray

    def __post_init__(self) -> None:
        k, m = len(self.per_bs), len(self.cells)  # per_bs, per_ue: views of one copy
        parts = _readonly(np.concatenate((self.per_bs, self.per_ue), dtype=float))
        if k != m + 1 or len(parts) - k not in (0, m):
            raise ValueError(f"{m} cells need {m + 1} BS terms and 0 or {m} UE terms")
        if not parts.min() >= 0:                                # nan fails too
            raise ValueError("mean interference entries must be >= 0, not nan")
        object.__setattr__(self, "per_bs", parts[:k])
        object.__setattr__(self, "per_ue", parts[k:])
        object.__setattr__(self, "cells", _readonly(np.array(self.cells, dtype=int)))

    @property
    def total(self) -> float:
        """The BS terms, then the UE terms, summed left to right."""
        return sum(self.per_bs.tolist()) + sum(self.per_ue.tolist())


def total_mean_interference(topology: NetworkTopology,
                            duplex: DuplexConfig) -> MeanInterferenceBreakdown:
    """Aggregate mean interference at the tagged UE over all co-channel sources.

    Every non-tagged BS (macro included) contributes a downlink term; in full
    duplex every non-tagged small cell also contributes one uplink UE at
    ``duplex.ue_tx_power``. The macro-attached UE is scheduled on other
    resources and never contributes. All terms are exact means, from one
    ``_disk_pair_pathloss`` call for the point BSs and, in full duplex, one
    for the uplink UEs. Raises ``TaylorValidityError`` when the macro BS
    sits inside the tagged disk (re-draw or re-tag the topology rather than
    accept a corrupted bound) or within ~0.1% of its edge (see
    ``mean_interference_bs_ue``), or, in full duplex, when a cell is within
    ~0.1% of touching the tagged disk (see ``mean_interference_ue_ue``).
    """
    t = topology._tagged()
    r_t = float(topology.radius[t])
    xy, power, alpha = topology.interfering_bs      # the macro first
    offset = xy - topology.centers[t]
    d = np.hypot(offset[:, 0], offset[:, 1])
    if d[0] <= r_t:
        raise TaylorValidityError(
            f"macro BS at {d[0]:.1f} m is inside the tagged disk "
            f"(R={r_t} m); re-draw or re-tag the topology")
    per_bs = power * _disk_pair_pathloss(d, np.zeros(len(d)), r_t, alpha)
    per_ue = np.empty(0)
    if _duplex_terms(duplex)[0]:
        per_ue = duplex.ue_tx_power * _disk_pair_pathloss(
            d[1:], topology.radius[topology.others], r_t, alpha[1:])
    return MeanInterferenceBreakdown(per_bs, per_ue, topology.others)
