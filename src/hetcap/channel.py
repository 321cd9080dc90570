"""Link gains, duplexing and QoS settings, and the HD/FD rule.

Powers are linear watts; rates are bits per scheduling block of
``frame_time * bandwidth`` symbol-hertz. ``_duplex_terms`` is the one place
that says how half and full duplex differ.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

LOG2E = math.log2(math.e)

#: Near-field clamp on path loss: d^-alpha is evaluated at max(d, D_MIN) so
#: Monte Carlo moments stay finite when a UE lands on top of a transmitter.
D_MIN = 1.0


class DuplexMode(enum.Enum):
    HD = "hd"
    FD = "fd"


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


def path_loss_gain(distance, alpha: float):
    """Linear path-loss gain max(distance, D_MIN)^-alpha. Array-friendly."""
    gain = np.maximum(distance, D_MIN)
    gain **= -alpha     # in place: no second array
    return gain


def _path_loss_gain_sq(dist_sq, alpha, out=None):
    """``path_loss_gain`` from squared distances: max(d^2, D_MIN^2)^(-alpha/2).

    Saves the square root of every distance. With ``out``, which may be
    ``dist_sq`` itself, the gains are written there and no array is made.
    The exponent takes the gains' dtype: float32 squared distances get
    float32 ``pow``, not numpy's float64 loop rounded.
    """
    gain = np.maximum(dist_sq, D_MIN * D_MIN, out=out)
    return np.power(gain, -0.5 * np.asarray(alpha, gain.dtype), out=gain)


def _duplex_terms(duplex: DuplexConfig) -> tuple[bool, float, float]:
    """The whole HD/FD difference: (UE interference counts, RSI power, share).

    Full duplex hears the uplink UEs and its own residual self-interference
    eta * P^kappa over the whole block. Half duplex hears neither but spends
    only half the block on the downlink; that share scales both the rate and
    the exponent beta.
    """
    if duplex.mode is DuplexMode.FD:
        return True, duplex.eta * duplex.ue_tx_power**duplex.kappa, 1.0
    return False, 0.0, 0.5
