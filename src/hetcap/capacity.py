"""Effective capacity: exact Monte Carlo estimate and the Jensen lower bound.

The exact estimator averages (1+SINR)^-beta over joint draws of UE
placements and fading, with beta = theta * T_f * BW * log2(e) so natural
logs reproduce the bits-per-block definition. The lower bound freezes the
interference at its mean; the one remaining expectation, over the tagged
link's Rayleigh fading and the tagged UE's radius, is a fixed quadrature
rule, so the bound draws no random numbers and has no standard error. The
network size enters its cost through one O(M) mean per UE power.

The exact estimator stratifies the tagged UE's u = r^2/R^2: trial g draws
it from bin g mod K of K equal-probability bins, and the reduction averages
the bin means, with the stratified delta-method standard error. Its trial
kernel takes link distances and path-loss gains alone in float32.

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

from .channel import (D_MIN, DuplexConfig, DuplexMode, QoSConfig,
                      _duplex_terms, _path_loss_gain_sq, path_loss_gain)
from .geometry import NetworkTopology, disk_points_xy
from .interference import _gauss_legendre, total_mean_interference

#: Trials per RNG substream; fixed so results never depend on worker count.
CHUNK_TRIALS = 8192

#: Trials per cache-sized row block of a chunk; the output does not depend on it.
_BLOCK_ROWS = 256

#: Equal-probability bins of the tagged UE's u = r^2/R^2. Trial g lies in bin
#: g mod _STRATA; a chunk holds a multiple of it, so workers cannot move it.
_STRATA = 32

#: spawn_key namespace of the exact-MC trial streams.
_STREAM_TRIALS = 0


def _fading_rule(step: float, lo: float, hi: float) -> tuple[np.ndarray, ...]:
    """Trapezoid nodes h = e^x, x = lo, lo + step, ..., hi, for E over h ~ Exp(1).

    The log-weights x - e^x are shifted to sum to 1, so a constant
    integrand is exact and 1 - F keeps its relative accuracy as F -> 1.
    """
    x = np.arange(lo, hi + step / 2, step)
    h = np.exp(x)
    log_weight = x - h
    log_weight -= math.log(np.exp(log_weight).sum())
    return h, log_weight


#: Step 0.45 on [-66, 3.5] in ln h: F within 1e-8 and 1 - F within 7e-8 of
#: mpmath, relative, for b in (0, 50] and snr in [1e-6, 1e18].
_FADING_H, _FADING_LOG_WEIGHT = _fading_rule(0.45, -66.0, 3.5)

#: Clip on the log of each fading term: e^-700 is a normal double, and a
#: term that small is below F's rounding anywhere on the domain above.
_LOG_TERM_FLOOR = -700.0

#: Fading terms per block of a batched bound: 128 KB blocks stay on glibc's
#: heap, below its default mmap threshold, and are reused block to block.
_BOUND_BLOCK_TERMS = 16_000


#: Gauss-Legendre rule of each panel in ln u, for the tagged UE's
#: u = r^2/R^2 beyond the D_MIN clamp. A panel spans at most
#: ``_PANEL_E_FOLDS`` e-folds of the snr, which goes as u^(-alpha/2); the
#: README topology takes one panel, and the rule is within 3e-8 of a 16x
#: finer one, relative, for R up to 4 km and alpha from 2 to 5.
_PANEL_NODES, _PANEL_WEIGHTS = _gauss_legendre(16)
_PANEL_E_FOLDS = 14.0


@dataclass(frozen=True)
class ECEstimate:
    """Effective capacity in bits per block with its Monte Carlo error.

    For the deterministic lower bound the error is 0 and ``trials`` counts
    the quadrature's integrand evaluations.
    """

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


def _faded_sum(rng: np.random.Generator, d2: np.ndarray, alpha, power,
               h: np.ndarray, out: np.ndarray) -> None:
    """Per-row sums into ``out`` of power * unit-mean fading * gain at ``d2``.

    The fading is drawn into ``h``, a float64 array of d2's shape, and the
    path-loss gains overwrite ``d2``, float32: a row block of the kernel
    allocates nothing here, and its products and sums are float64.
    """
    rng.standard_exponential(out=h)
    h *= power
    h *= _path_loss_gain_sq(d2, alpha, out=d2)
    h.sum(axis=1, out=out)


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
    (rho - r)^2 + 4 rho r sin^2(t/2) is never negative and costs one sine.
    Each row block of ``_BLOCK_ROWS`` trials builds its squared distances to
    all BSs once; rows are summed whole, so the output does not depend on
    the block length.

    Precision: draws (v is uniform on 2^24 float32 points), the tagged UE,
    the signal, the power * fading * gain products and the row sums are
    float64; the link arithmetic, from the squared coordinate differences
    (taken in float64, then rounded) to the gains, is float32. Per trial,
    the BS and UE interference then lie within 1e-6 of a float64
    evaluation of the same draws, relative, wherever every gain is a normal
    float32 (>= 1.2e-38, i.e. alpha log10(d / 1 m) < 38; a link below it
    carries < 1.2e-38 P watts) and alpha/2 is a float32 number, as 1.5 is.
    Else the rounded exponent adds up to |alpha/2 - float32(alpha/2)|
    ln(d^2 / 1 m^2): 6e-7 at alpha = 3.6 and d = 500 m.

    The chunk allocates one workspace: one float64 row-block buffer, for
    the coordinate differences and then the draws, and three float32 ones.
    Every block writes in place, into views of the workspace or into the
    chunk's outputs; the BS half's buffers, viewed as (rows, M - 1), serve
    the uplink half. A chunk's memory is then that of its per-trial
    vectors and one workspace, whatever its block count.
    """
    rng, u_rng, v_rng, h_rng = (np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=(_STREAM_TRIALS, chunk) + k))
        for k in ((), (1,), (2,), (3,)))
    t, others = topology._tagged(), topology.others
    bs_xy, bs_power, bs_alpha = topology.interfering_bs
    other_radius = topology.radius[others].astype(np.float32)
    other_alpha = topology.alpha[others]
    # the run's trial count if this chunk is its last, and larger otherwise
    r_t = _tagged_radius(topology.radius[t], n, rng,
                         _strata(chunk * CHUNK_TRIALS + n))
    th_t = 2.0 * np.pi * rng.random(n)
    signal = topology.power[t] * rng.standard_exponential(size=n) \
        * path_loss_gain(r_t, topology.alpha[t])
    ue_x, ue_y = disk_points_xy(topology.centers[t], r_t, th_t)
    i_bs, i_ue = np.empty(n), np.empty(n)
    m, rows = len(bs_power), min(_BLOCK_ROWS, n)
    # one allocation: as two, the heap was trimmed and grown again chunk
    # after chunk (~210 minor page faults per chunk at M=157)
    work = np.empty(5 * rows * m, dtype=np.float32)
    draws = work[:2 * rows * m].view(np.float64)
    d2_buf, s_buf, rho_buf = work[2 * rows * m:].reshape(3, rows * m)
    for a in range(0, n, rows):
        k = min(rows, n - a)
        blk = slice(a, a + k)
        h, d2, tmp = (buf[:k * m].reshape(k, m)
                      for buf in (draws, d2_buf, s_buf))
        # (k, M - 1) views: the uplink's fading reuses draws, r and d2 d2_buf
        h_ue, rho, r, s = (buf[:k * (m - 1)].reshape(k, m - 1)
                           for buf in (draws, rho_buf, d2_buf, s_buf))
        # to all BSs: float64 differences, squared and rounded to float32
        np.square(np.subtract(ue_x[blk, None], bs_xy[:, 0], out=h), out=d2)
        d2 += np.square(np.subtract(ue_y[blk, None], bs_xy[:, 1], out=h),
                        out=tmp)
        np.sqrt(d2[:, 1:], out=rho)             # macro first, then the cells
        _faded_sum(rng, d2, bs_alpha, bs_power, h, i_bs[blk])
        np.sqrt(u_rng.random(out=h_ue), out=r, dtype=np.float32)
        r *= other_radius                       # r = R sqrt(u)
        v_rng.random(dtype=np.float32, out=s)
        s *= np.float32(0.5 * np.pi)
        np.sin(s, out=s)
        s *= s                                  # sin^2(t/2), t = pi v
        s *= rho
        s *= r
        s *= 4.0                                # 4 rho r sin^2(t/2)
        d2 = np.subtract(rho, r, out=r)
        d2 *= d2
        d2 += s
        _faded_sum(h_rng, d2, other_alpha, ue_tx_power, h_ue, i_ue[blk])
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


def _fading_average(snr, b) -> np.ndarray:
    """F = E_h[(1 + snr h)^-b] over unit-mean exponential fading h.

    With lam = 1/snr, F = lam U(1, 2 - b, lam), Kummer's U; here it is the
    trapezoid rule in ln h of ``_FADING_H``. ``snr`` and ``b`` broadcast.
    Finite and positive, with no floating-point exception, for b in (0, 50]
    and snr in [1e-6, 1e18]; snr = 0 gives 1 to rounding.
    """
    terms = np.multiply.outer(snr, _FADING_H)
    np.log1p(terms, out=terms)
    terms *= -np.asarray(b, dtype=float)[..., None]
    terms += _FADING_LOG_WEIGHT
    np.maximum(terms, _LOG_TERM_FLOOR, out=terms)
    return np.exp(terms, out=terms).sum(axis=-1)


@functools.lru_cache(maxsize=16)
def _radius_rule(radius: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes g(r) and weights of the rule for E_u over u = r^2/R^2 on [0, 1].

    The first node is the D_MIN clamp, on which g is constant: weight
    (D_MIN/R)^2. The rest are Gauss-Legendre panels in ln u on the span
    from there to u = 1, with the Jacobian u in their weights.
    """
    u_clamp = min((D_MIN / radius) ** 2, 1.0)
    span = -math.log(u_clamp)
    panels = max(1, math.ceil(0.5 * alpha * span / _PANEL_E_FOLDS))
    half = 0.5 * span / panels
    mids = math.log(u_clamp) + half * (2.0 * np.arange(panels) + 1.0)
    u = np.exp((mids[:, None] + half * _PANEL_NODES).ravel())
    radii = np.concatenate(([D_MIN], radius * np.sqrt(u)))
    weights = np.concatenate(([u_clamp],
                              half * np.tile(_PANEL_WEIGHTS, panels) * u))
    rule = path_loss_gain(radii, alpha), weights
    for shared in rule:         # every caller with this cell gets these arrays
        shared.flags.writeable = False
    return rule


def _signal_average(topology: NetworkTopology, denom: np.ndarray,
                    exponent: np.ndarray) -> tuple[np.ndarray, int]:
    """E[(1 + S/D)^-b] over the tagged link's fading and UE radius, per D.

    S = P h g(R sqrt u) with u = r^2/R^2 uniform on [0, 1], so the fading
    average is F at snr = P g / D, integrated over u by ``_radius_rule``.
    Also returns the integrand evaluations per D: radius times fading nodes.
    """
    t = topology._tagged()
    gain, weights = _radius_rule(float(topology.radius[t]),
                                 float(topology.alpha[t]))
    nodes = len(gain) * len(_FADING_H)
    rows = max(1, _BOUND_BLOCK_TERMS // nodes)
    z = np.empty(len(denom))
    for a in range(0, len(denom), rows):
        blk = slice(a, a + rows)
        f = _fading_average(np.multiply.outer(topology.power[t] / denom[blk],
                                              gain), exponent[blk, None])
        f *= weights
        z[blk] = f.sum(axis=1)
    return z, nodes


def _lb_over_duplexes(topology: NetworkTopology, duplexes: list[DuplexConfig],
                      qos: QoSConfig, noise: float) -> list[ECEstimate]:
    """``ec_lower_bound`` for each of ``duplexes``, sharing the eta-free work.

    The exact mean interference is computed once per UE power, in full
    duplex if any duplex of that power is: half duplex sums its BS terms.
    The signal expectation of every duplex is one batched rule. The bound
    is guaranteed while the kernel's exponent share * beta is at most 1,
    so half duplex keeps it up to twice ``qos.theta_bound``.
    """
    fd = {d.ue_tx_power: d for d in duplexes if _duplex_terms(d)[0]}
    series, means = {}, {}
    denoms, exponents = [], []
    for duplex in duplexes:
        ues, rsi, share = _duplex_terms(duplex)
        power = duplex.ue_tx_power
        if (ues, power) not in means:
            if power not in series:     # HD alone skips the uplink series
                series[power] = total_mean_interference(
                    topology, fd.get(power, duplex))
            means[ues, power] = (series[power].total if ues
                                 else sum(series[power].per_bs.tolist()))
        denoms.append(means[ues, power] + (rsi + noise))
        exponents.append(share * qos.beta)
    z, nodes = _signal_average(topology, np.array(denoms), np.array(exponents))
    return [ECEstimate(max(-math.log(z_mean) / qos.theta, 0.0), 0.0,
                       nodes, qos.theta, duplex.mode,
                       "lower_bound_analytic",
                       (f"beta={qos.beta:.4g} > 1: bound not guaranteed",)
                       if exponent > 1.0 else ())
            for z_mean, exponent, duplex in zip(z.tolist(), exponents,
                                                duplexes)]


def ec_lower_bound(topology: NetworkTopology, duplex: DuplexConfig,
                   qos: QoSConfig, noise: float, signal_samples: int,
                   seed: int) -> ECEstimate:
    """Jensen lower bound on the effective capacity.

    The interference is frozen at its exact closed-form mean, and the one
    remaining expectation, over the desired signal power, is a fixed
    quadrature rule. The estimate is deterministic: its ``std_error`` is 0
    and its ``trials`` counts the rule's integrand evaluations.
    ``signal_samples`` and ``seed`` are accepted for compatibility and
    ignored.
    """
    return _lb_over_duplexes(topology, [duplex], qos, noise)[0]
