"""Link gains, Rayleigh fading, residual self-interference, SINR and rate.

Powers are linear watts; rates are bits per scheduling block of
``frame_time * bandwidth`` symbol-hertz. A half-duplex link only spends half
the block on the downlink, which is applied at the rate level.
"""
from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

LOG2E = math.log2(math.e)

#: Near-field clamp on path loss: d^-alpha is evaluated at max(d, D_MIN) so
#: Monte Carlo moments stay finite when a UE lands on top of a transmitter.
D_MIN = 1.0


class DuplexMode(enum.Enum):
    HD = "hd"
    FD = "fd"


class QoSBoundWarning(UserWarning):
    """theta exceeds the range for which the lower bound is guaranteed."""


@dataclass(frozen=True)
class DuplexConfig:
    """Duplexing mode and self-interference cancellation quality.

    ``eta`` is the linear cancellation factor and ``kappa`` the nonlinear
    exponent; residual self-interference power is eta * P^kappa. eta = 0 is
    perfect cancellation, eta = kappa = 1 is none.
    """

    mode: DuplexMode
    eta: float = 0.0
    kappa: float = 1.0
    ue_tx_power: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not 0.0 <= self.kappa <= 1.0:
            raise ValueError(f"kappa must lie in [0, 1], got {self.kappa}")
        if self.ue_tx_power < 0:
            raise ValueError("ue_tx_power must be >= 0")


@dataclass(frozen=True)
class QoSConfig:
    """QoS exponent theta (1/bit) plus the scheduling-block dimensions."""

    theta: float
    frame_time: float = 0.5e-3
    bandwidth: float = 180e3

    def __post_init__(self) -> None:
        if self.theta <= 0:
            raise ValueError("theta must be > 0")
        if self.frame_time <= 0 or self.bandwidth <= 0:
            raise ValueError("frame_time and bandwidth must be > 0")
        if self.beta > 1.0:
            warnings.warn(
                f"beta = {self.beta:.4g} > 1: the Jensen lower bound is not "
                f"guaranteed (theta bound {self.theta_bound:.4g})",
                QoSBoundWarning, stacklevel=2)

    @property
    def bits_per_use(self) -> float:
        """Bits per block per unit of log2(1+SINR)."""
        return self.frame_time * self.bandwidth

    @property
    def beta(self) -> float:
        """Exponent theta * T_f * BW * log2(e) of the capacity expectation."""
        return self.theta * self.frame_time * self.bandwidth * LOG2E

    @property
    def theta_bound(self) -> float:
        """Largest theta with a concavity guarantee, 1 / (T_f * BW * log2 e)."""
        return 1.0 / (self.frame_time * self.bandwidth * LOG2E)


@dataclass(frozen=True)
class LinkBudget:
    """Per-trial power budget at the victim receiver, all in watts."""

    signal_power: float
    bs_interference: float
    ue_interference: float
    rsi: float
    noise: float

    def __post_init__(self) -> None:
        for name in ("signal_power", "bs_interference", "ue_interference", "rsi"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.noise <= 0:
            raise ValueError("noise must be > 0")


def path_loss_gain(distance, alpha: float, d_min: float = D_MIN):
    """Linear path-loss gain max(distance, d_min)^-alpha. Array-friendly."""
    return np.maximum(distance, d_min) ** (-alpha)


def _path_loss_gain_sq(dist_sq, alpha):
    """``path_loss_gain`` from squared distances: max(d^2, D_MIN^2)^(-alpha/2).

    Saves the square root of every distance.
    """
    gain = np.maximum(dist_sq, D_MIN * D_MIN)
    return np.power(gain, -0.5 * alpha, out=gain)


def sample_fading(rng: np.random.Generator, size=None):
    """Unit-mean exponential power fading (Rayleigh amplitude)."""
    return rng.exponential(size=size)


def rsi_power(tx_power: float, duplex: DuplexConfig) -> float:
    """Residual self-interference power eta * P^kappa; zero in half duplex."""
    if tx_power < 0:
        raise ValueError("tx_power must be >= 0")
    if duplex.mode is DuplexMode.HD:
        return 0.0
    return duplex.eta * tx_power**duplex.kappa


def sinr(link: LinkBudget, mode: DuplexMode) -> float:
    """SINR of the downlink UE; HD drops UE interference and RSI."""
    if mode is DuplexMode.FD:
        denom = link.bs_interference + link.ue_interference + link.rsi + link.noise
    else:
        denom = link.bs_interference + link.noise
    return link.signal_power / denom


def rate_bits(sinr_value, qos: QoSConfig, mode: DuplexMode):
    """Bits delivered in one block; half duplex carries the 1/2 factor here."""
    bits = qos.bits_per_use * np.log2(1.0 + sinr_value)
    if mode is DuplexMode.HD:
        return 0.5 * bits
    return bits
