import numpy as np
import pytest

from hetcap import (DuplexConfig, DuplexMode, MacroBS, NetworkTopology,
                    QoSConfig, Region, dbm_to_watts, sample_matern_hcpp)

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
    return NetworkTopology(MacroBS((0.0, 0.0), P_MACRO, 3.0),
                           [(400.0, 0.0), (-100.0, 0.0)], 90.0, 3.1623, 3.0,
                           180.0, 0, Region(1000.0))


@pytest.fixture(scope="session")
def single_cell_topology() -> NetworkTopology:
    """Only the tagged cell; the macro BS is the single interferer."""
    return NetworkTopology(MacroBS((0.0, 0.0), P_MACRO, 3.0), [(500.0, 0.0)],
                           90.0, P_PICO, 3.0, 180.0, 0, Region(1000.0))


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


def ray_angle(v) -> np.ndarray:
    """The uplink angle t, from its ray, that the kernel resolves from ``v``.

    The kernel takes sin^2(t/2) for t = pi v in float32; this is the angle in
    [0, pi] whose float64 sin^2(t/2) is that float32 value, so a Cartesian
    oracle placed at it measures the kernel's distances to float64 rounding.
    """
    s = np.sin(np.asarray(v, dtype=np.float32) * np.float32(0.5 * np.pi))
    s *= s
    return 2.0 * np.arcsin(np.sqrt(s.astype(float)))


class _FixedDraws:
    """Generator stand-in: every uniform draw is 0.25, every fading draw 1.

    Like ``np.random.Generator``, it fills ``out`` in place when given one.
    """

    @staticmethod
    def _fill(value, size, dtype, out):
        if out is None:
            return np.full(size, value, dtype=dtype)
        out[...] = value
        return out

    def random(self, size=None, dtype=np.float64, out=None):
        return self._fill(0.25, size, dtype, out)

    def standard_exponential(self, size=None, out=None):
        return self._fill(1.0, size, np.float64, out)


@pytest.fixture
def fixed_draws(monkeypatch):
    """Every library draw degenerate: each UE at radius R/2, fading 1.

    A uniform draw of 0.25 gives radius R*sqrt(0.25) = R/2 in every cell.
    The tagged UE sits at angle 2*pi*0.25 = pi/2, at (cx, cy + R/2); an
    uplink UE at angle pi*0.25 = pi/4 from the ray from its cell centre
    toward the tagged UE, its sine taken in float32 as the kernel takes it.
    Each link then has one Cartesian length. From 64 trials on, the tagged
    radius is stratified: trial i's tagged UE sits at radius
    R*sqrt((i % 32 + 0.25) / 32) instead.
    """
    monkeypatch.setattr(np.random, "default_rng",
                        lambda *args, **kwargs: _FixedDraws())


# -- the lemma behind the Jensen bound -----------------------------------------
# g(s, I) = (1 + s/(I+a))^-beta is concave in the interference I when
# beta <= 1, so freezing I at its mean gives a lower bound. These closed forms
# are oracles for that lemma; the library evaluates g only inside its
# reductions, where exp(-theta * EC) of one trial is g of that trial.

def g(s, interference, a, beta):
    """Capacity-expectation kernel (1 + s/(I+a))^-beta, in (0, 1]."""
    return (1.0 + s / (interference + a)) ** (-beta)


def g_second_derivative(s, interference, a, beta):
    """d^2 g / dI^2 written exactly as derived: negative wherever g is concave."""
    denom = interference + a
    return (beta * s / denom**4
            * (1.0 + s / denom) ** (-(beta + 2.0))
            * (-2.0 * denom + (beta - 1.0) * s))


def g_is_concave(s, i_grid, a, beta) -> bool:
    """True iff g is concave in I over the grid.

    Checks the sign of the closed-form second derivative and the sharper
    sufficient condition beta < 1 + 2/SINR at every grid point.
    """
    s = np.asarray(s, dtype=float)
    i_grid = np.asarray(i_grid, dtype=float)
    d2 = g_second_derivative(s, i_grid, a, beta)
    sinr_grid = s / (i_grid + a)
    with np.errstate(divide="ignore"):
        sharper = beta < 1.0 + 2.0 / sinr_grid
    return bool(np.all(d2 <= 0.0) and np.all(sharper))
