"""Effective capacity: exact Monte Carlo estimate and the Jensen lower bound.

The exact estimator averages (1+SINR)^-beta over joint draws of UE
placements and fading, with beta = theta * T_f * BW * log2(e) so natural
logs reproduce the bits-per-block definition. The lower bound freezes the
interference at its mean and only averages over the desired signal power,
which makes its cost independent of the network size.

Trials are split into fixed-size chunks, each with an RNG substream keyed by
(seed, chunk index), and partial results are reduced in chunk order, so
estimates are bit-identical for any worker count.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (DuplexConfig, DuplexMode, QoSConfig, _duplex_terms,
                      _path_loss_gain_sq, path_loss_gain)
from .geometry import (NetworkTopology, SmallCell, disk_points_xy,
                       sample_uniform_disk_batch)
from .interference import total_mean_interference

#: Trials per RNG substream; fixed so results never depend on worker count.
CHUNK_TRIALS = 8192

#: Trials per cache-sized row block of a chunk; the output does not depend on it.
_BLOCK_ROWS = 256

#: spawn_key namespaces keeping the lower bound's signal stream disjoint
#: from the exact-MC trial streams.
_STREAM_TRIALS = 0
_STREAM_LB_SIGNAL = 1


@dataclass(frozen=True)
class ECEstimate:
    """Effective capacity in bits per block with its Monte Carlo error."""

    ec: float
    std_error: float
    trials: int
    theta: float
    mode: DuplexMode
    method: str  # exact_mc | lower_bound_analytic
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (self.ec >= 0 and self.std_error >= 0):
            raise ValueError("ec and std_error must be >= 0, not NaN")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True)
class TrialComponents:
    """Per-trial signal and interference powers of the tagged downlink UE.

    The three arrays are aligned per trial. RSI and noise are not included;
    they are added by the reduction so one component set serves every
    (eta, kappa, mode) combination with common random numbers.
    """

    signal: np.ndarray
    bs_interference: np.ndarray
    ue_interference: np.ndarray

    @property
    def trials(self) -> int:
        return len(self.signal)

    @functools.cached_property
    def _bs_ue_interference(self) -> np.ndarray:
        """bs + ue per trial, summed once for every FD setup reduced here."""
        return self.bs_interference + self.ue_interference


def _interference(components: TrialComponents, ue_counts: bool) -> np.ndarray:
    """Per-trial interference the duplex mode hears, RSI and noise aside."""
    return components._bs_ue_interference if ue_counts \
        else components.bs_interference


@dataclass(frozen=True)
class _KernelSpec:
    """Plain-array picture of a topology, picklable for worker processes."""

    tagged_center: tuple[float, float]
    tagged_radius: float
    tagged_power: float
    tagged_alpha: float
    bs_xy: np.ndarray        # (n_bs, 2): macro first, then non-tagged cells
    bs_power: np.ndarray
    bs_alpha: np.ndarray
    other_xy: np.ndarray     # (n_other, 2): non-tagged cell centers
    other_radius: np.ndarray
    other_alpha: np.ndarray
    ue_tx_power: float
    seed: int


def _kernel_spec(topology: NetworkTopology, ue_tx_power: float,
                 seed: int) -> _KernelSpec:
    tagged = topology.tagged_cell
    others = [c for k, c in enumerate(topology.small_cells)
              if k != topology.tagged_index]
    bs_xy = np.array([topology.macro_bs.position] + [c.center for c in others],
                     dtype=float).reshape(-1, 2)
    bs_power = np.array([topology.macro_bs.power] + [c.power for c in others])
    bs_alpha = np.array([topology.macro_bs.alpha] + [c.alpha for c in others])
    other_xy = np.array([c.center for c in others], dtype=float).reshape(-1, 2)
    return _KernelSpec(
        tagged.center, tagged.radius, tagged.power, tagged.alpha,
        bs_xy, bs_power, bs_alpha,
        other_xy, np.array([c.radius for c in others]),
        np.array([c.alpha for c in others]),
        ue_tx_power, seed)


def _squared_distance(x: np.ndarray, y: np.ndarray, px, py) -> np.ndarray:
    """(trials, links) squared distances from per-trial points (x, y) to (px, py)."""
    dx = x[:, None] - px
    dy = y[:, None] - py
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _faded_sum(rng: np.random.Generator, d2: np.ndarray, alpha,
               power) -> np.ndarray:
    """Per-row sum of power * unit-mean fading * path-loss gain at ``d2``."""
    h = rng.exponential(size=d2.shape)
    h *= power
    h *= _path_loss_gain_sq(d2, alpha)
    return h.sum(axis=1)


def _simulate_chunk(spec: _KernelSpec, chunk: int, n: int) -> tuple[np.ndarray, ...]:
    """Simulate one chunk of ``n`` trials: signal, BS and UE interference.

    Draw order is fixed: tagged-UE radii and angles, signal fading, BS
    fading, uplink-UE radii and angles, UE fading. An uplink UE's angle t
    runs from the ray from its cell centre toward the tagged UE, on [0, pi):
    the distance depends on t only through cos t, whose law is the same as
    for a global angle. With rho = |tagged UE - centre|, the squared distance
    (rho - r)^2 + 4 rho r sin^2(t/2) is never negative and costs one sine.
    Fading and per-link work run in cache-sized row blocks of
    ``_BLOCK_ROWS`` trials; rows are summed whole, so the output does not
    depend on the block length.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=spec.seed, spawn_key=(_STREAM_TRIALS, chunk)))
    r_t, th_t = sample_uniform_disk_batch(spec.tagged_radius, n, rng)
    signal = spec.tagged_power * rng.exponential(size=n) \
        * path_loss_gain(r_t, spec.tagged_alpha)
    ue_x, ue_y = disk_points_xy(spec.tagged_center, r_t, th_t)
    blocks = [slice(a, a + _BLOCK_ROWS) for a in range(0, n, _BLOCK_ROWS)]
    i_bs = np.empty(n)
    for blk in blocks:
        d2 = _squared_distance(ue_x[blk], ue_y[blk], spec.bs_xy[:, 0],
                               spec.bs_xy[:, 1])
        i_bs[blk] = _faded_sum(rng, d2, spec.bs_alpha, spec.bs_power)

    u = rng.random((n, len(spec.other_xy)))     # r = R sqrt(u)
    v = rng.random(u.shape)                     # t = pi v
    i_ue = np.empty(n)
    for blk in blocks:
        rho = np.sqrt(_squared_distance(ue_x[blk], ue_y[blk],
                                        spec.other_xy[:, 0], spec.other_xy[:, 1]))
        r = np.sqrt(u[blk], out=u[blk])
        r *= spec.other_radius
        c = np.sin(np.multiply(v[blk], 0.5 * np.pi, out=v[blk]), out=v[blk])
        c *= c
        c *= rho
        c *= r
        c *= 4.0                                # 4 rho r sin^2(t/2)
        d2 = rho - r
        d2 *= d2
        d2 += c
        i_ue[blk] = _faded_sum(rng, d2, spec.other_alpha, spec.ue_tx_power)
    return signal, i_bs, i_ue


def _chunk_sizes(trials: int) -> list[int]:
    full, rest = divmod(trials, CHUNK_TRIALS)
    return [CHUNK_TRIALS] * full + ([rest] if rest else [])


def simulate_components(topology: NetworkTopology, ue_tx_power: float,
                        trials: int, seed: int, *,
                        workers: int = 1) -> TrialComponents:
    """Joint per-trial draws of signal and interference powers.

    Each trial places the tagged UE and one uplink UE per non-tagged cell
    uniformly in their disks and draws independent unit-mean fading on every
    link.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    spec = _kernel_spec(topology, ue_tx_power, seed)
    sizes = _chunk_sizes(trials)
    if workers > 1 and len(sizes) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_simulate_chunk, [spec] * len(sizes),
                                  range(len(sizes)), sizes, chunksize=1))
    else:
        parts = [_simulate_chunk(spec, c, n) for c, n in enumerate(sizes)]
    signal, i_bs, i_ue = (np.concatenate(arrs) for arrs in zip(*parts))
    return TrialComponents(signal, i_bs, i_ue)


def _reduce_ec(z: np.ndarray, theta: float) -> tuple[float, float]:
    """EC and its delta-method standard error from per-trial g values."""
    z_mean = float(z.mean())
    ec = -math.log(z_mean) / theta
    if len(z) < 2:      # one trial has no spread to estimate
        return max(ec, 0.0), math.inf
    se = float(z.std(ddof=1)) / math.sqrt(len(z)) / (theta * z_mean)
    return max(ec, 0.0), se


def _denominator(components: TrialComponents, duplex: DuplexConfig,
                 noise: float) -> tuple[np.ndarray, float]:
    """Per-trial interference + RSI + noise, and the duplex's share of the block."""
    if noise <= 0:
        raise ValueError("noise must be > 0")
    ue_counts, rsi, share = _duplex_terms(duplex)
    return _interference(components, ue_counts) + rsi + noise, share


def ec_from_components(components: TrialComponents, duplex: DuplexConfig,
                       qos: QoSConfig, noise: float) -> ECEstimate:
    """Exact-MC reduction of precomputed trial components for one duplex setup."""
    denom, share = _denominator(components, duplex, noise)
    z = (1.0 + components.signal / denom) ** (-share * qos.beta)
    ec, se = _reduce_ec(z, qos.theta)
    return ECEstimate(ec, se, components.trials, qos.theta, duplex.mode, "exact_mc")


def mean_rate_from_components(components: TrialComponents, duplex: DuplexConfig,
                              qos: QoSConfig, noise: float) -> float:
    """Average bits per block over the same draws; the theta -> 0 reference."""
    denom, share = _denominator(components, duplex, noise)
    rates = share * qos.bits_per_use * np.log2(1.0 + components.signal / denom)
    return float(rates.mean())


def ec_exact_mc(topology: NetworkTopology, duplex: DuplexConfig, qos: QoSConfig,
                noise: float, trials: int, seed: int, *,
                workers: int = 1) -> ECEstimate:
    """Exact effective capacity by Monte Carlo over placements and fading."""
    components = simulate_components(topology, duplex.ue_tx_power, trials,
                                     seed, workers=workers)
    return ec_from_components(components, duplex, qos, noise)


def _lb_signal_draws(tagged: SmallCell, n: int, seed: int) -> np.ndarray:
    """Desired-signal powers the bound averages over; independent of eta."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_STREAM_LB_SIGNAL,)))
    r = tagged.radius * np.sqrt(rng.random(n))
    return tagged.power * rng.exponential(size=n) * path_loss_gain(r, tagged.alpha)


def _lb_reduce(s: np.ndarray, i_mean: float, duplex: DuplexConfig,
               qos: QoSConfig, noise: float) -> ECEstimate:
    """Jensen bound with the interference frozen at ``i_mean``.

    ``s`` holds the signal draws of ``_lb_signal_draws``; the standard error
    is the Monte Carlo error of their average. Only this step depends on eta.
    The bound is guaranteed while the kernel's exponent share * beta is at
    most 1, so half duplex keeps it up to twice ``qos.theta_bound``.
    """
    _, rsi, share = _duplex_terms(duplex)
    exponent = share * qos.beta
    notes = ((f"beta={qos.beta:.4g} > 1: bound not guaranteed",)
             if exponent > 1.0 else ())
    z = (1.0 + s / (i_mean + (rsi + noise))) ** (-exponent)
    ec, se = _reduce_ec(z, qos.theta)
    return ECEstimate(ec, se, len(s), qos.theta, duplex.mode,
                      "lower_bound_analytic", notes)


def _lb_over_duplexes(topology: NetworkTopology, duplexes: list[DuplexConfig],
                      qos: QoSConfig, noise: float, signal_samples: int,
                      seed: int) -> list[ECEstimate]:
    """``ec_lower_bound`` for each of ``duplexes``, sharing the eta-free work.

    The signal draws are made once, and the exact mean interference once per
    (duplex mode, UE power); only ``_lb_reduce`` runs per duplex.
    """
    s = _lb_signal_draws(topology.tagged_cell, signal_samples, seed)
    means: dict[tuple, float] = {}
    bounds = []
    for duplex in duplexes:
        key = (duplex.mode, duplex.ue_tx_power)
        if key not in means:
            means[key] = total_mean_interference(topology, duplex).total
        bounds.append(_lb_reduce(s, means[key], duplex, qos, noise))
    return bounds


def ec_lower_bound(topology: NetworkTopology, duplex: DuplexConfig,
                   qos: QoSConfig, noise: float, signal_samples: int,
                   seed: int) -> ECEstimate:
    """Jensen lower bound on the effective capacity.

    The interference is frozen at its exact closed-form mean, and the one
    remaining expectation, over the desired signal power, is a Monte Carlo
    average of ``signal_samples`` draws.
    """
    return _lb_over_duplexes(topology, [duplex], qos, noise, signal_samples,
                             seed)[0]
