import numpy as np
import pytest

from hetcap import (DuplexConfig, DuplexMode, MacroBS, NetworkTopology,
                    QoSConfig, Region, SmallCell, dbm_to_watts,
                    sample_matern_hcpp)

P_MACRO = dbm_to_watts(46.0)
P_PICO = dbm_to_watts(35.0)
P_UE = dbm_to_watts(23.0)
NOISE = dbm_to_watts(-120.0)


@pytest.fixture(scope="session")
def sparse_topology() -> NetworkTopology:
    """Reference-parameter deployment at 5 cells/km^2 (17 cells at this seed)."""
    return sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0, 7,
                              cell_power=P_PICO, alpha=3.0, macro_power=P_MACRO)


@pytest.fixture(scope="session")
def two_cell_topology() -> NetworkTopology:
    """Tagged cell plus one interferer at exactly 500 m, macro far away."""
    tagged = SmallCell((400.0, 0.0), 90.0, 3.1623, 3.0)
    other = SmallCell((-100.0, 0.0), 90.0, 3.1623, 3.0)
    return NetworkTopology(MacroBS((0.0, 0.0), P_MACRO, 3.0), (tagged, other),
                           180.0, 0, Region(1000.0))


@pytest.fixture(scope="session")
def single_cell_topology() -> NetworkTopology:
    """Only the tagged cell; the macro BS is the single interferer."""
    tagged = SmallCell((500.0, 0.0), 90.0, P_PICO, 3.0)
    return NetworkTopology(MacroBS((0.0, 0.0), P_MACRO, 3.0), (tagged,),
                           180.0, 0, Region(1000.0))


@pytest.fixture
def fd_duplex() -> DuplexConfig:
    return DuplexConfig(DuplexMode.FD, 1e-8, 1.0, P_UE)


@pytest.fixture
def hd_duplex() -> DuplexConfig:
    return DuplexConfig(DuplexMode.HD, 0.0, 1.0, P_UE)


@pytest.fixture
def qos_default() -> QoSConfig:
    return QoSConfig(1e-3, 0.5e-3, 180e3)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)


class _FixedDraws:
    """Generator stand-in: every uniform draw is 0.25, every fading draw 1."""

    def random(self, size):
        return np.full(size, 0.25)

    def exponential(self, size):
        return np.ones(size)


@pytest.fixture
def fixed_draws(monkeypatch):
    """Every library draw degenerate: each UE at (cx, cy + R/2), fading 1.

    A uniform draw of 0.25 gives radius R*sqrt(0.25) = R/2 and angle
    2*pi*0.25 = pi/2 in every cell, so each link has one Cartesian length.
    """
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args, **kwargs: _FixedDraws())
