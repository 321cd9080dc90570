"""Effective capacity: exact Monte Carlo estimate and the Jensen lower bound.

The exact estimator averages (1+SINR)^-beta over joint draws of UE
placements and fading, with beta = theta * T_f * BW * log2(e) so natural
logs reproduce the bits-per-block definition. The lower bound freezes the
interference at its mean and only averages over the desired signal power;
the network size enters its cost through one O(M) mean per duplex mode.

Both estimators stratify the tagged UE's u = r^2/R^2: trial g draws it from
bin g mod K of K equal-probability bins, and the reductions average the bin
means, with the stratified delta-method standard error.

Trials are split into fixed-size chunks, each with an RNG substream keyed by
(seed, chunk index) and, for the uplink UEs' draws, three more keyed by
(seed, chunk index, segment); partial results are reduced in chunk order, so
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
from .geometry import NetworkTopology, disk_points_xy
from .interference import total_mean_interference

#: Trials per RNG substream; fixed so results never depend on worker count.
CHUNK_TRIALS = 8192

#: Trials per cache-sized row block of a chunk; the output does not depend on it.
_BLOCK_ROWS = 256

#: Equal-probability bins of the tagged UE's u = r^2/R^2. Trial g lies in bin
#: g mod _STRATA; a chunk holds a multiple of it, so workers cannot move it.
_STRATA = 32

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


def _strata(trials: int) -> int:
    """Strata of a ``trials``-trial run: 1 unless each gets two trials."""
    return _STRATA if trials >= 2 * _STRATA else 1


def _tagged_radius(radius: float, n: int, rng: np.random.Generator,
                   strata: int) -> np.ndarray:
    """R sqrt(u), trial i's u uniform on [k, k+1) / strata, k = i % strata."""
    u = rng.random(n)
    if strata > 1:
        full = n - n % strata
        u[:full].reshape(-1, strata)[:] += np.arange(strata)
        u[full:] += np.arange(n - full)
        u /= strata
    return np.multiply(np.sqrt(u, out=u), radius, out=u)


def _faded_sum(rng: np.random.Generator, d2: np.ndarray, alpha,
               power) -> np.ndarray:
    """Per-row sum of power * unit-mean fading * path-loss gain at ``d2``."""
    h = rng.standard_exponential(size=d2.shape)
    h *= power
    h *= _path_loss_gain_sq(d2, alpha)
    return h.sum(axis=1)


def _simulate_chunk(topology: NetworkTopology, ue_tx_power: float, seed: int,
                    chunk: int, n: int) -> tuple[np.ndarray, ...]:
    """Simulate one chunk of ``n`` trials: signal, BS and UE interference.

    The chunk's main stream, keyed (seed, chunk), gives in this order: the
    tagged-UE radii (stratified) and angles, the signal fading, then the BS
    fading row block by row block. The uplink UEs' radius uniforms u, angle
    uniforms v and fading come from three substreams keyed (seed, chunk, k)
    for k = 1, 2, 3, read block by block. An uplink UE's angle t = pi v runs
    from the ray from its cell centre toward the tagged UE, on [0, pi): the
    distance depends on t only through cos t, whose law is the same as for a
    global angle. With rho = |tagged UE - centre|, the squared distance
    (rho - r)^2 + 4 rho r sin^2(t/2) is never negative and costs one sine,
    taken in float32: v is uniform on 2^24 points and sin^2(t/2) lies within
    3.5e-7 of its float64 value, relative; everything else is float64. Each
    row block of ``_BLOCK_ROWS`` trials builds its squared distances to all
    BSs once; rows are summed whole, so the output does not depend on the
    block length.
    """
    rng, u_rng, v_rng, h_rng = (np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(_STREAM_TRIALS, chunk) + k))
        for k in ((), (1,), (2,), (3,)))
    t, others = topology._tagged(), topology.others
    bs_xy, bs_power, bs_alpha = topology.interfering_bs
    other_radius, other_alpha = topology.radius[others], topology.alpha[others]
    # the run's trial count if this chunk is its last, and larger otherwise
    r_t = _tagged_radius(topology.radius[t], n, rng,
                         _strata(chunk * CHUNK_TRIALS + n))
    th_t = 2.0 * np.pi * rng.random(n)
    signal = topology.power[t] * rng.standard_exponential(size=n) \
        * path_loss_gain(r_t, topology.alpha[t])
    ue_x, ue_y = disk_points_xy(topology.centers[t], r_t, th_t)
    i_bs, i_ue = np.empty(n), np.empty(n)
    for a in range(0, n, _BLOCK_ROWS):
        blk = slice(a, a + _BLOCK_ROWS)
        d2 = ue_x[blk, None] - bs_xy[:, 0]     # squared distances to all BSs
        d2 *= d2
        d2 += np.square(ue_y[blk, None] - bs_xy[:, 1])
        rho = np.sqrt(d2[:, 1:])                # macro first, then the cells
        i_bs[blk] = _faded_sum(rng, d2, bs_alpha, bs_power)
        r = np.sqrt(u_rng.random(rho.shape))    # r = R sqrt(u)
        r *= other_radius
        s = v_rng.random(rho.shape, dtype=np.float32)
        s *= np.float32(0.5 * np.pi)
        np.sin(s, out=s)
        s *= s                                  # sin^2(t/2), t = pi v
        c = rho * s
        c *= r
        c *= 4.0                                # 4 rho r sin^2(t/2)
        d2 = rho - r
        d2 *= d2
        d2 += c
        i_ue[blk] = _faded_sum(h_rng, d2, other_alpha, ue_tx_power)
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
    run = functools.partial(_simulate_chunk, topology, ue_tx_power, seed)
    sizes = _chunk_sizes(trials)
    if workers > 1 and len(sizes) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, range(len(sizes)), sizes, chunksize=1))
    else:
        parts = [run(c, n) for c, n in enumerate(sizes)]
    signal, i_bs, i_ue = (np.concatenate(arrs) for arrs in zip(*parts))
    return TrialComponents(signal, i_bs, i_ue)


@functools.lru_cache(maxsize=16)
def _strata_layout(n: int, strata: int) -> tuple[np.ndarray, ...]:
    """Trials per stratum n_k, weights 1/(n_k (n_k - 1)), n // strata ones."""
    counts = n // strata + (np.arange(strata) < n % strata)
    layout = counts, 1.0 / (counts * (counts - 1.0)), np.ones(n // strata)
    for shared in layout:       # every caller with this n gets these arrays
        shared.flags.writeable = False
    return layout


def _mean_and_se(y: np.ndarray) -> tuple[float, float]:
    """Mean of the K stratum means of ``y``; its SE, sqrt(sum s_k^2/n_k)/K."""
    n = len(y)
    strata = _strata(n)
    if strata == 1:     # one trial has no spread to estimate
        se = float(y.std(ddof=1)) / math.sqrt(n) if n > 1 else math.inf
        return float(y.mean()), se
    counts, weights, ones = _strata_layout(n, strata)
    rows = y[:len(ones) * strata].reshape(-1, strata)
    tail = y[rows.size:]        # one more trial in strata 0 .. len(tail) - 1
    means = ones @ rows
    means[:len(tail)] += tail
    means /= counts
    dev = rows - means
    dev *= dev
    ss = ones @ dev
    ss[:len(tail)] += (tail - means[:len(tail)]) ** 2
    return float(means.sum()) / strata, math.sqrt(float(ss @ weights)) / strata


def _reduce_ec(z: np.ndarray, theta: float) -> tuple[float, float]:
    """EC and its delta-method standard error from per-trial g values."""
    z_mean, z_se = _mean_and_se(z)
    return max(-math.log(z_mean) / theta, 0.0), z_se / (theta * z_mean)


def _denominator(components: TrialComponents, duplex: DuplexConfig,
                 noise: float) -> tuple[np.ndarray, float]:
    """Per-trial interference + RSI + noise, and the duplex's share of the block."""
    if noise <= 0:
        raise ValueError("noise must be > 0")
    ue_counts, rsi, share = _duplex_terms(duplex)
    denom = (components._bs_ue_interference if ue_counts
             else components.bs_interference) + rsi     # a new array
    denom += noise
    return denom, share


def _one_plus_ratio(s: np.ndarray, denom, out=None) -> np.ndarray:
    """1 + s/denom per trial, written into ``out`` (a new array if None)."""
    ratio = np.divide(s, denom, out=out)
    ratio += 1.0
    return ratio


def ec_from_components(components: TrialComponents, duplex: DuplexConfig,
                       qos: QoSConfig, noise: float) -> ECEstimate:
    """Exact-MC reduction of precomputed trial components for one duplex setup."""
    denom, share = _denominator(components, duplex, noise)
    z = _one_plus_ratio(components.signal, denom, out=denom)
    z **= -share * qos.beta
    ec, se = _reduce_ec(z, qos.theta)
    return ECEstimate(ec, se, components.trials, qos.theta, duplex.mode, "exact_mc")


def mean_rate_from_components(components: TrialComponents, duplex: DuplexConfig,
                              qos: QoSConfig, noise: float) -> float:
    """Average bits per block over the same draws; the theta -> 0 reference."""
    denom, share = _denominator(components, duplex, noise)
    rates = np.log2(_one_plus_ratio(components.signal, denom, out=denom),
                    out=denom)
    rates *= share * qos.bits_per_use
    return _mean_and_se(rates)[0]


def ec_exact_mc(topology: NetworkTopology, duplex: DuplexConfig, qos: QoSConfig,
                noise: float, trials: int, seed: int, *,
                workers: int = 1) -> ECEstimate:
    """Exact effective capacity by Monte Carlo over placements and fading."""
    components = simulate_components(topology, duplex.ue_tx_power, trials,
                                     seed, workers=workers)
    return ec_from_components(components, duplex, qos, noise)


def _lb_signal_draws(topology: NetworkTopology, n: int, seed: int) -> np.ndarray:
    """Desired-signal powers the bound averages over; independent of eta."""
    t = topology._tagged()
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_STREAM_LB_SIGNAL,)))
    r = _tagged_radius(topology.radius[t], n, rng, _strata(n))
    return topology.power[t] * rng.standard_exponential(size=n) \
        * path_loss_gain(r, topology.alpha[t])


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
    z = _one_plus_ratio(s, i_mean + (rsi + noise))
    z **= -exponent
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
    s = _lb_signal_draws(topology, signal_samples, seed)
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
