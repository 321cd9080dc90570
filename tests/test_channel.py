import math
import warnings

import numpy as np
import pytest

from hetcap import (DuplexConfig, DuplexMode, MacroBS, NetworkTopology,
                    QoSConfig, Region, TrialComponents, ec_from_components,
                    mean_rate_from_components, path_loss_gain,
                    simulate_components)
from hetcap.channel import _duplex_terms


class TestPathLoss:
    def test_unit_distance(self):
        assert path_loss_gain(1.0, 3.0) == pytest.approx(1.0)

    def test_inverse_cube(self):
        assert path_loss_gain(500.0, 3.0) == pytest.approx(8e-9)

    def test_near_field_clamp(self):
        assert path_loss_gain(0.0, 3.0) == pytest.approx(1.0)
        assert path_loss_gain(0.5, 3.0) == pytest.approx(1.0)

    def test_monotone_nonincreasing(self, rng):
        d = np.sort(1.0 + 2000.0 * rng.random(500))
        gains = path_loss_gain(d, 3.0)
        assert (np.diff(gains) <= 0).all()


@pytest.fixture(scope="module")
def kernel_fading() -> np.ndarray:
    """Fading the trial kernel draws on the signal link and on a BS link.

    A zero-radius tagged cell of unit power puts the UE on its BS, where the
    clamped gain is 1, so the signal power is the fading draw itself; the
    macro BS, at 500 m with unit power, shows its link's draw scaled by
    500^-3.
    """
    topology = NetworkTopology(MacroBS((0.0, 0.0), 1.0, 3.0), [(500.0, 0.0)],
                               0.0, 1.0, 3.0, 180.0, 0, Region(1000.0))
    comp = simulate_components(topology, 0.0, 5 * 10**5, 11)
    return np.concatenate([comp.signal, comp.bs_interference * 500.0**3])


class TestFading:
    def test_unit_mean(self, kernel_fading):
        assert abs(kernel_fading.mean() - 1.0) < 0.005

    def test_unit_variance(self, kernel_fading):
        assert abs(kernel_fading.var(ddof=1) - 1.0) < 0.02

    def test_cdf_at_one(self, kernel_fading):
        empirical = (kernel_fading <= 1.0).mean()
        assert abs(empirical - (1 - math.exp(-1))) < 0.01

    def test_nonnegative(self, kernel_fading):
        assert (kernel_fading >= 0).all()


class TestRSI:
    def test_perfect_cancellation(self):
        assert _duplex_terms(DuplexConfig(DuplexMode.FD, 0.0, 1.0, 0.2))[1] == 0.0

    def test_no_cancellation(self):
        rsi = _duplex_terms(DuplexConfig(DuplexMode.FD, 1.0, 1.0, 0.2))[1]
        assert rsi == pytest.approx(0.2)

    def test_linear_product(self):
        rsi = _duplex_terms(DuplexConfig(DuplexMode.FD, 1e-8, 1.0, 0.2))[1]
        assert rsi == pytest.approx(2e-9)

    def test_half_duplex_always_zero(self, rng):
        for _ in range(50):
            duplex = DuplexConfig(DuplexMode.HD, rng.random(), rng.random(),
                                  10 * rng.random())
            assert _duplex_terms(duplex) == (False, 0.0, 0.5)

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            DuplexConfig(DuplexMode.FD, 1.5, 1.0)
        with pytest.raises(ValueError):
            DuplexConfig(DuplexMode.FD, 0.5, -0.1)


def components(signal, bs, ue) -> TrialComponents:
    return TrialComponents(*(np.atleast_1d(np.asarray(v, dtype=float))
                             for v in (signal, bs, ue)))


def duplex(mode: DuplexMode, rsi: float = 0.0) -> DuplexConfig:
    """Duplex setup whose RSI is ``rsi`` watts (unit UE power, eta = rsi)."""
    return DuplexConfig(mode, rsi, 1.0, 1.0)


class TestSINR:
    """The SINR the reductions form, read back from the per-block rate."""

    QOS = QoSConfig(1e-3, 0.5e-3, 180e3)
    BUDGET = components(1e-9, 1e-10, 1e-10)

    def sinr(self, comp, mode, rsi=1e-10, noise=1e-12):
        rate = mean_rate_from_components(comp, duplex(mode, rsi), self.QOS,
                                         noise)
        share = 1.0 if mode is DuplexMode.FD else 0.5
        return 2.0 ** (rate / (share * 90.0)) - 1.0

    def test_fd_arithmetic(self):
        assert self.sinr(self.BUDGET, DuplexMode.FD) == \
            pytest.approx(1e-9 / 3.01e-10, rel=1e-12)

    def test_hd_drops_ue_and_rsi(self, rng):
        assert self.sinr(self.BUDGET, DuplexMode.HD) == \
            pytest.approx(1e-9 / 1.01e-10, rel=1e-12)
        # HD EC is bitwise blind to the uplink UEs and to eta
        signal, bs = 1e-9 * rng.random((2, 1000))
        hd = [ec_from_components(components(signal, bs, ue),
                                 duplex(DuplexMode.HD, rsi), self.QOS, 1e-12)
              for ue in (np.zeros(1000), 1e-9 * rng.random(1000))
              for rsi in (0.0, 1e-6, 1.0)]
        assert len({(e.ec, e.std_error) for e in hd}) == 1

    def test_zero_signal(self):
        comp = components(0.0, 1e-10, 0.0)
        assert self.sinr(comp, DuplexMode.FD, rsi=0.0) == 0.0

    def test_monotonicity(self, rng):
        base = self.sinr(self.BUDGET, DuplexMode.FD)
        for _ in range(50):
            bump = float(rng.uniform(1e-12, 1e-10))
            up = components(1e-9 + bump, 1e-10, 1e-10)
            assert self.sinr(up, DuplexMode.FD) > base
            assert self.sinr(components(1e-9, 1e-10 + bump, 1e-10),
                             DuplexMode.FD) < base
            assert self.sinr(components(1e-9, 1e-10, 1e-10 + bump),
                             DuplexMode.FD) < base
            assert self.sinr(self.BUDGET, DuplexMode.FD, rsi=1e-10 + bump) < base
            assert self.sinr(self.BUDGET, DuplexMode.FD,
                             noise=1e-12 + bump) < base

    def test_budget_invariants(self):
        for noise in (0.0, -1e-12):
            with pytest.raises(ValueError):
                ec_from_components(self.BUDGET, duplex(DuplexMode.FD),
                                   self.QOS, noise)


class TestRate:
    QOS = QoSConfig(1e-3, 0.5e-3, 180e3)
    UNIT_SINR = components(1e-10, 5e-11, 0.0)   # noise 5e-11: SINR 1

    def test_fd_block(self):
        assert mean_rate_from_components(self.UNIT_SINR, duplex(DuplexMode.FD),
                                         self.QOS, 5e-11) == 90.0

    def test_hd_half_block(self):
        assert mean_rate_from_components(self.UNIT_SINR, duplex(DuplexMode.HD),
                                         self.QOS, 5e-11) == 45.0

    def test_zero_sinr(self):
        comp = components(0.0, 1e-10, 1e-10)
        assert mean_rate_from_components(comp, duplex(DuplexMode.FD),
                                         self.QOS, 1e-12) == 0.0

    def test_fd_doubles_hd_exactly(self, rng):
        # without uplink UEs and RSI the two modes share every SINR
        comp = components(rng.uniform(0, 100, size=200),
                          rng.uniform(0.5, 2, size=200), np.zeros(200))
        fd = mean_rate_from_components(comp, duplex(DuplexMode.FD), self.QOS, 1.0)
        hd = mean_rate_from_components(comp, duplex(DuplexMode.HD), self.QOS, 1.0)
        assert fd == 2.0 * hd

    @pytest.mark.parametrize("mode", [DuplexMode.FD, DuplexMode.HD])
    @pytest.mark.parametrize("noise", [0.0, -1e-12])
    def test_rejects_nonpositive_noise(self, mode, noise):
        # without the check, noise 0 gives an infinite rate and -1e-12 a nan
        comp = TrialComponents(np.array([1e-9]), np.array([0.0]), np.array([0.0]))
        with pytest.raises(ValueError, match="noise must be > 0"):
            mean_rate_from_components(comp, duplex(mode), self.QOS, noise)


class TestQoSConfig:
    def test_beta_value(self):
        qos = QoSConfig(1e-3, 0.5e-3, 180e3)
        assert qos.beta == pytest.approx(1e-3 * 90.0 * math.log2(math.e))

    def test_theta_bound(self):
        qos = QoSConfig(1e-3, 0.5e-3, 180e3)
        assert qos.theta_bound == pytest.approx(1.0 / (90.0 * math.log2(math.e)))

    def test_constructs_above_bound_without_warning(self):
        # whether the bound holds depends on the duplex mode, which the
        # bound's own note reports; the QoS settings alone do not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qos = QoSConfig(1e-1, 0.5e-3, 180e3)
        assert qos.beta > 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            QoSConfig(0.0)
        with pytest.raises(ValueError):
            QoSConfig(1e-3, -1.0, 180e3)
