"""Disk-averaged mean interference: exact forms, the paper's series, an oracle.

The mean of d^-alpha from a point to a victim uniform in a disk of radius R
at range d > R is exactly d^-alpha * 2F1(alpha/2, alpha/2; 2; R^2/d^2) (DLMF
15.2.1: average the circle mean over the radial density). When both
terminals are uniform in disks of radii R_i and R_v, the mean is the power
series d^-alpha * sum_n ((alpha/2)_n / n!)^2 E|X - Y|^2n / d^2n in the
moments of the difference of the two positions; it converges for
d > R_i + R_v. These two forms give the mean interference the Jensen bound
needs.

``mean_pathloss_taylor`` keeps the paper's three-term truncation of the
first form as the reproduced formula; it underestimates the mean. The
quadrature oracle evaluates the disk average directly and is independent of
both.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import DuplexConfig, _duplex_terms
from .geometry import NetworkTopology


class TaylorValidityError(ValueError):
    """Mean requested outside its domain: a disk reaches the other terminal.

    Point to disk needs d > R; disk to disk needs d > R_i + R_v.
    """


class TaylorAccuracyWarning(UserWarning):
    """The paper's series evaluated where its truncation error grows (d < 2R)."""


class QuadratureDomainError(ValueError):
    """The disk-average integral diverges or exceeds the quadrature budget."""


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


def mean_pathloss_numeric(d: float, cell_radius: float, alpha: float) -> float:
    """Disk-averaged path loss by adaptive 2-D quadrature in polar form.

    Evaluates (1/(pi R^2)) * int_0^2pi int_0^R (d^2 + r^2 - 2 d r cos t)^(-alpha/2)
    r dr dt to relative tolerance 1e-8. Validation oracle for the
    closed forms; independent of them.
    """
    if d <= 0:
        raise ValueError("d must be > 0")
    if cell_radius < 0:
        raise ValueError("cell_radius must be >= 0")
    if cell_radius == 0:
        return d ** (-alpha)
    if d <= cell_radius and alpha >= 2:
        raise QuadratureDomainError(
            f"victim disk contains the interferer (d={d} <= R={cell_radius}); "
            "the disk average diverges for alpha >= 2")

    from scipy import integrate  # only this oracle needs it; slow to import

    def integrand(r, t):
        return (d * d + r * r - 2.0 * d * r * np.cos(t)) ** (-alpha / 2.0) * r

    value, _ = integrate.dblquad(integrand, 0.0, 2.0 * np.pi, 0.0, cell_radius,
                                 epsabs=0.0, epsrel=1e-8)
    return value / (np.pi * cell_radius**2)


#: Hard cap on the disk-to-disk series length, reached only for disks within
#: ~0.1% of touching (the hard core allows touching; sampling rarely comes
#: that close).
MAX_SERIES_TERMS = 1 << 15
#: Series truncation target, relative to the leading term.
_SERIES_TAIL = 1e-17
#: Terms evaluated per pass over the cells, to bound memory near touching.
_SERIES_BLOCK = 256
_TINY = np.finfo(float).tiny


def _disk_pathloss(d, r_victim, alpha) -> np.ndarray:
    """Exact mean of d^-alpha from a point to a uniform disk, elementwise."""
    d, r_victim, alpha = (np.asarray(v, dtype=float) for v in (d, r_victim, alpha))
    if (d <= r_victim).any():
        raise TaylorValidityError(
            f"point-to-disk mean needs separation d > disk radius; got "
            f"d={d.min():.6g}, R={r_victim.max():.6g}")
    a = alpha / 2.0
    return d ** -alpha * special.hyp2f1(a, a, 2.0, (r_victim / d) ** 2)


@functools.lru_cache(maxsize=16)
def _series_coefficients(share: float, alpha: float, count: int) -> np.ndarray:
    """c_n mu_n, n < count, of the disk-to-disk series; see ``_disk_pair_pathloss``.

    ``share`` is R_i/(R_i+R_v). mu_n = E(|X - Y|/(R_i+R_v))^2n for X and Y
    uniform in the disks: expanding |X - Y|^2n and keeping the
    rotation-invariant terms gives sum_j C(n,j)^2 p^j/(j+1) q^(n-j)/(n-j+1)
    with p = share^2, q = (1-share)^2, a Jacobi polynomial in disguise. Its
    three-term recurrence is forward-stable for this dominant solution.
    Cached: a sweep asks for the same few vectors at every grid point.
    """
    p, q = share**2, (1.0 - share) ** 2
    mu = [1.0, (p + q) / 2.0]
    for n in range(2, count):
        mu.append(((2 * n + 1) * n * (p + q) * mu[-1]
                   - (n - 1) ** 2 * (q - p) ** 2 * mu[-2]) / ((n + 1) * (n + 2)))
    n = np.arange(1, count)
    coef = np.cumprod(np.concatenate(([1.0], ((alpha / 2.0 + n - 1.0) / n) ** 2)))
    coef *= mu[:count]
    coef.flags.writeable = False
    return coef


def _disk_pair_pathloss(d: np.ndarray, r_interferer: np.ndarray,
                        r_victim: float, alpha: np.ndarray) -> np.ndarray:
    """Exact mean of d^-alpha between uniform disks, for 1-D arrays of pairs.

    Sums d^-alpha sum_n c_n mu_n x^n with c_n = ((alpha/2)_n/n!)^2, mu_n the
    normalised moments of ``_series_coefficients`` and x = ((R_i+R_v)/d)^2.
    Every term is positive; the term count adapts per pair to x, so close
    pairs do not slow the distant ones.
    """
    reach = r_interferer + r_victim
    if (d <= reach).any():
        k = int(np.argmax(reach - d))
        raise TaylorValidityError(
            f"disk-to-disk mean needs separation d > R_i + R_v; got d={d[k]:.6g}, "
            f"R_i + R_v={reach[k]:.6g}")
    x = (reach / d) ** 2
    # c_n mu_n <= (n+1)^max(alpha-2, 0), so the tail after N terms is below
    # (N+1)^max(alpha-2, 0) x^N/(1-x); bound N+1 by MAX_SERIES_TERMS in the
    # power. The floor on x keeps two point terminals (x = 0) at one term.
    counts = 1 + np.ceil(
        (math.log(_SERIES_TAIL) + np.log1p(-x)
         - np.maximum(alpha - 2.0, 0.0) * math.log(MAX_SERIES_TERMS))
        / np.log(np.maximum(x, _TINY))).astype(np.intp)
    if counts.max() > MAX_SERIES_TERMS:
        k = int(np.argmax(counts))
        raise TaylorValidityError(
            f"disks at d={d[k]:.6g} m with R_i + R_v={reach[k]:.6g} m are too "
            f"close to touching: the series needs {counts[k]} terms "
            f"(cap {MAX_SERIES_TERMS})")
    groups: dict[tuple[float, float], list[int]] = {}
    for k, key in enumerate(zip(r_interferer.tolist(), alpha.tolist())):
        groups.setdefault(key, []).append(k)
    series = np.zeros_like(d)
    for (r_i, alpha_k), members in groups.items():
        members = np.array(members)
        count = int(counts[members].max())
        share = r_i / (r_i + r_victim) if r_i + r_victim > 0 else 0.0
        coef = _series_coefficients(share, alpha_k, count)
        for start in range(0, count, _SERIES_BLOCK):
            live = members[counts[members] > start]
            stop = min(start + _SERIES_BLOCK, count)
            series[live] += (x[live, None] ** np.arange(start, stop)) @ coef[start:stop]
    return d ** -alpha * series


def mean_interference_bs_ue(p_bs: float, d: float, r_victim: float,
                            alpha: float) -> float:
    """Mean interference a BS at range d causes to a UE uniform in its disk.

    Unit-mean fading drops out, so this is transmit power times the exact
    disk-averaged path loss d^-alpha 2F1(alpha/2, alpha/2; 2; R^2/d^2).
    Raises ``TaylorValidityError`` unless d > R.
    """
    if p_bs < 0:
        raise ValueError("p_bs must be >= 0")
    return p_bs * float(_disk_pathloss(d, r_victim, alpha))


def mean_interference_ue_ue(p_ue: float, d: float, r_interferer: float,
                            r_victim: float, alpha: float) -> float:
    """Mean interference between UEs uniform in two disks with centers d apart.

    Exact: the disk-to-disk power series, summed to double precision.
    Raises ``TaylorValidityError`` unless d > R_i + R_v, or when the disks
    are so close to touching that the series would exceed
    ``MAX_SERIES_TERMS`` terms.
    """
    if p_ue < 0:
        raise ValueError("p_ue must be >= 0")
    return p_ue * float(_disk_pair_pathloss(
        np.array([d], dtype=float), np.array([r_interferer], dtype=float),
        float(r_victim), np.array([alpha], dtype=float))[0])


@dataclass(frozen=True)
class MeanInterferenceBreakdown:
    """Per-interferer mean powers at the tagged UE; total is their sum.

    ``per_bs`` labels are "macro" or the small-cell index; ``per_ue`` holds
    the uplink interferers (empty in half duplex).
    """

    per_bs: tuple[tuple[str, float], ...]
    per_ue: tuple[tuple[str, float], ...]
    total: float

    def __post_init__(self) -> None:
        parts = [w for _, w in self.per_bs] + [w for _, w in self.per_ue]
        if any(w < 0 for w in parts):
            raise ValueError("negative mean interference entry")
        if abs(self.total - sum(parts)) > 1e-9 * max(self.total, 1e-300):
            raise ValueError("total does not equal the sum of parts")


def total_mean_interference(topology: NetworkTopology,
                            duplex: DuplexConfig) -> MeanInterferenceBreakdown:
    """Aggregate mean interference at the tagged UE over all co-channel sources.

    Every non-tagged BS (macro included) contributes a downlink term; in full
    duplex every non-tagged small cell also contributes one uplink UE at
    ``duplex.ue_tx_power``. The macro-attached UE is scheduled on other
    resources and never contributes. All terms are exact means, evaluated
    for all cells at once. Raises ``TaylorValidityError`` when the macro BS
    sits inside the tagged disk (re-draw or re-tag the topology rather than
    accept a corrupted bound), or, in full duplex, when a cell is within
    ~0.1% of touching the tagged disk (see ``mean_interference_ue_ue``).
    """
    t = topology._tagged()
    (cx, cy), r_t = topology.centers[t].tolist(), float(topology.radius[t])
    xy, power, alpha = topology.interfering_bs      # the macro first
    labels = ["macro"] + [str(k) for k in topology.others.tolist()]
    d_macro = math.hypot(cx - xy[0, 0], cy - xy[0, 1])
    if d_macro <= r_t:
        raise TaylorValidityError(
            f"macro BS at {d_macro:.1f} m is inside the tagged disk "
            f"(R={r_t} m); re-draw or re-tag the topology")

    d = np.hypot(cx - xy[1:, 0], cy - xy[1:, 1])
    bs = power * _disk_pathloss(np.concatenate(([d_macro], d)), r_t, alpha)
    per_bs = tuple(zip(labels, bs.tolist()))
    per_ue: tuple[tuple[str, float], ...] = ()
    if _duplex_terms(duplex)[0] and len(d):
        ue = duplex.ue_tx_power * _disk_pair_pathloss(
            d, topology.radius[topology.others], r_t, alpha[1:])
        per_ue = tuple(zip(labels[1:], ue.tolist()))

    total = sum(w for _, w in per_bs) + sum(w for _, w in per_ue)
    return MeanInterferenceBreakdown(per_bs, per_ue, total)
