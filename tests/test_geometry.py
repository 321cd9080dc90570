import math

import numpy as np
import pytest
from scipy import stats

from conftest import P_UE

from hetcap import (InfeasibleRegionError, MacroBS, NetworkTopology, Region,
                    SaturationWarning, SmallCell, sample_matern_hcpp,
                    sample_uniform_disk_batch, simulate_components)
from hetcap.geometry import disk_points_xy


def pairwise_min_distance(topology):
    centers = np.array([c.center for c in topology.small_cells])
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    dist[np.diag_indices(len(centers))] = np.inf
    return dist.min()


class TestMaternSampling:
    @pytest.mark.parametrize("density_km2,seed", [(5.0, 1), (5.0, 99), (8.0, 3)])
    def test_hard_core_property(self, density_km2, seed):
        topology = sample_matern_hcpp(Region(1000.0), density_km2 * 1e-6,
                                      180.0, 90.0, seed)
        if len(topology.small_cells) > 1:
            assert pairwise_min_distance(topology) >= 180.0

    def test_containment(self):
        topology = sample_matern_hcpp(Region(1000.0), 8e-6, 180.0, 90.0, 5)
        for cell in topology.small_cells:
            assert math.hypot(*cell.center) + cell.radius <= 1000.0 + 1e-9

    def test_zero_density_gives_empty_topology(self):
        topology = sample_matern_hcpp(Region(1000.0), 0.0, 180.0, 90.0, 1)
        assert topology.small_cells == ()
        assert topology.tagged_index is None

    def test_mean_count_matches_target_density(self):
        # Expected retained count = density * macro area = 5*pi = 15.71,
        # within 15% after the type-II thinning and containment correction.
        counts = [len(sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0,
                                         seed).small_cells)
                  for seed in range(1000)]
        mean = np.mean(counts)
        assert abs(mean - 5 * math.pi) / (5 * math.pi) < 0.15

    def test_determinism(self):
        a = sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0, 42)
        b = sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0, 42)
        assert a == b
        c = sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0, 43)
        assert a != c

    def test_infeasible_region(self):
        with pytest.raises(InfeasibleRegionError):
            sample_matern_hcpp(Region(80.0), 5e-6, 180.0, 90.0, 1)

    def test_hard_core_below_packing_limit_warns_and_saturates(self):
        with pytest.warns(SaturationWarning):
            topology = sample_matern_hcpp(Region(1000.0), 50e-6, 180.0, 90.0, 1)
        # saturated type-II retention tops out near 1/(pi rh^2) ~ 9.8 /km^2
        assert 15 <= len(topology.small_cells) <= 35
        assert pairwise_min_distance(topology) >= 180.0

    def test_hard_core_smaller_than_diameter_rejected(self):
        with pytest.raises(ValueError, match="hard_core"):
            sample_matern_hcpp(Region(1000.0), 5e-6, 100.0, 90.0, 1)

    def test_tagged_default_near_mid_radius(self):
        topology = sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0, 7)
        anchor = np.array([500.0, 0.0])
        centers = np.array([c.center for c in topology.small_cells])
        dist = np.hypot(centers[:, 0] - anchor[0], centers[:, 1] - anchor[1])
        assert topology.tagged_index == int(np.argmin(dist))


class TestUniformDisk:
    def test_support(self, rng):
        r, theta = sample_uniform_disk_batch(90.0, 10**4, rng)
        assert ((0 <= r) & (r <= 90.0)).all()
        assert ((0 <= theta) & (theta < 2 * math.pi)).all()

    def test_radial_moments(self, rng):
        r, _ = sample_uniform_disk_batch(90.0, 10**5, rng)
        assert abs(r.mean() - 60.0) / 60.0 < 0.01          # E[r] = 2R/3
        assert abs((r**2).mean() - 4050.0) / 4050.0 < 0.01  # E[r^2] = R^2/2

    def test_radial_cdf_kolmogorov_smirnov(self, rng):
        r, _ = sample_uniform_disk_batch(90.0, 10**5, rng)
        # (r/R)^2 is uniform iff the radial CDF is (r/R)^2
        result = stats.kstest((r / 90.0) ** 2, "uniform")
        assert result.pvalue > 0.01

    def test_angle_uniform(self, rng):
        _, theta = sample_uniform_disk_batch(90.0, 10**5, rng)
        result = stats.kstest(theta / (2 * math.pi), "uniform")
        assert result.pvalue > 0.01


def _ue_interference(tagged: SmallCell, other: SmallCell, trials: int = 3,
                     seed: int = 1) -> np.ndarray:
    topology = NetworkTopology(MacroBS((0.0, 0.0), 39.81, 3.0), (tagged, other),
                               180.0, 0, Region(1000.0))
    return simulate_components(topology, P_UE, trials, seed).ue_interference


class TestInterfererDistance:
    """UE-to-UE distances as the trial kernel measures them."""

    def test_both_at_centers(self, fixed_draws):
        # zero-radius cells hold their UEs at the centers, 500 m apart
        i_ue = _ue_interference(SmallCell((400.0, 0.0), 0.0, 1.0, 3.0),
                                SmallCell((-100.0, 0.0), 0.0, 1.0, 3.0))
        np.testing.assert_allclose(i_ue, P_UE * 500.0**-3, rtol=1e-12)

    def test_collinear_victim_toward_interferer(self, fixed_draws):
        # the tagged UE sits 90 m from its BS toward the interferer's center
        i_ue = _ue_interference(SmallCell((300.0, 0.0), 180.0, 1.0, 3.0),
                                SmallCell((300.0, 500.0), 0.0, 1.0, 3.0))
        np.testing.assert_allclose(i_ue, P_UE * 410.0**-3, rtol=1e-12)

    def test_matches_cartesian_oracle(self):
        # replay the kernel's stream (draw order: tagged radius and angle,
        # signal fading, BS fading, interferer radii and angles, UE fading)
        # and measure every link with hypot on the Cartesian positions
        tagged = SmallCell((300.0, 0.0), 90.0, 1.0, 3.0)
        other = SmallCell((-100.0, 200.0), 60.0, 1.0, 3.5)
        n = 1000
        got = _ue_interference(tagged, other, n, 9)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=9, spawn_key=(0, 0)))
        r_t, th_t = sample_uniform_disk_batch(tagged.radius, n, rng)
        rng.exponential(size=n)
        rng.exponential(size=(n, 2))
        r_i, th_i = sample_uniform_disk_batch(other.radius, n, rng)
        h = rng.exponential(size=n)
        ux, uy = disk_points_xy(tagged.center, r_t, th_t)
        ix, iy = disk_points_xy(other.center, r_i, th_i)
        dist = np.hypot(ux - ix, uy - iy)
        np.testing.assert_allclose(got, P_UE * h * dist**-other.alpha,
                                   rtol=1e-12)


class TestTrialDraw:
    def test_disk_points_xy_roundtrip(self, rng):
        r = np.array([10.0, 20.0])
        theta = np.array([0.0, math.pi / 2])
        x, y = disk_points_xy((5.0, -3.0), r, theta)
        assert x == pytest.approx([15.0, 5.0])
        assert y == pytest.approx([-3.0, 17.0])
