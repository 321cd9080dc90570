import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from conftest import P_UE

from hetcap import (InfeasibleRegionError, InvalidTopologyError, MacroBS,
                    NetworkTopology, Region, RegionTooLargeError,
                    SaturationWarning, ScenarioConfig, SmallCell,
                    sample_matern_hcpp, sample_uniform_disk_batch,
                    simulate_components)
from hetcap.geometry import (MAX_PARENTS, _close_pairs, disk_points_xy,
                             matern_parent_intensity)


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
        # signal fading, BS fading, interferer radii and angles, UE fading),
        # place the interferer at angle pi * v from the ray from its centre
        # toward the tagged UE, and measure every link with hypot on the
        # Cartesian positions
        tagged = SmallCell((300.0, 0.0), 90.0, 1.0, 3.0)
        other = SmallCell((-100.0, 200.0), 60.0, 1.0, 3.5)
        n = 1000
        got = _ue_interference(tagged, other, n, 9)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=9, spawn_key=(0, 0)))
        r_t, th_t = sample_uniform_disk_batch(tagged.radius, n, rng)
        rng.exponential(size=n)
        rng.exponential(size=(n, 2))
        r_i = other.radius * np.sqrt(rng.random(n))
        t_i = np.pi * rng.random(n)
        h = rng.exponential(size=n)
        ux, uy = disk_points_xy(tagged.center, r_t, th_t)
        phi = np.arctan2(uy - other.center[1], ux - other.center[0])
        ix, iy = disk_points_xy(other.center, r_i, phi + t_i)
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


def dense_type_ii_keep(pts, r, marks, hard_core, eligible):
    """All-pairs type-II thinning, as the sampler did it before its pair search.

    The squared distances equal the old ``((p_i - p_j)**2).sum(-1)`` bitwise
    (a two-term sum is one addition), and the row minimum of the rival marks
    is the old per-parent loop.
    """
    x, y = pts[:, 0], pts[:, 1]
    d2 = (x[:, None] - x[None, :]) ** 2 + (y[:, None] - y[None, :]) ** 2
    np.fill_diagonal(d2, np.inf)
    rival = np.where(d2 < hard_core**2, marks[None, :], np.inf).min(axis=1)
    return (marks < rival) & (r <= eligible)


def replay_parents(region, density, hard_core, cell_radius, seed):
    """The sampler's parents, from its own draws in its own order."""
    eligible = region.macro_radius - cell_radius
    intensity, _ = matern_parent_intensity(
        density, hard_core, (region.macro_radius / eligible) ** 2)
    extended = eligible + hard_core
    rng = np.random.default_rng(seed)
    n = rng.poisson(intensity * math.pi * extended**2)
    r, theta = sample_uniform_disk_batch(extended, n, rng)
    marks = rng.random(n)
    x, y = disk_points_xy((0.0, 0.0), r, theta)
    return np.column_stack([x, y]), r, marks, eligible


class TestDenseOracle:
    """The pair-search thinning keeps exactly the parents the dense one kept."""

    GEOMETRIES = {
        "reference": (1000.0, 5e-6, 180.0, 90.0),
        "criterion_9_dense": (1000.0, 157.0 / math.pi * 1e-6, 50.0, 25.0),
        "2km_30_per_km2": (2000.0, 30e-6, 80.0, 40.0),
        "saturated": (1000.0, 50e-6, 180.0, 90.0),
    }

    @pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
    def test_same_keep_mask_as_dense_thinning(self, geometry):
        macro, density, hard_core, cell_radius = self.GEOMETRIES[geometry]
        region = Region(macro)
        kept = 0
        for seed in range(100):
            pts, r, marks, eligible = replay_parents(region, density, hard_core,
                                                     cell_radius, seed)
            keep = dense_type_ii_keep(pts, r, marks, hard_core, eligible)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SaturationWarning)
                topology = sample_matern_hcpp(region, density, hard_core,
                                              cell_radius, seed)
            centers = np.array([c.center for c in topology.small_cells])
            # parents are distinct, so equal retained rows mean equal masks
            np.testing.assert_array_equal(centers.reshape(-1, 2), pts[keep])
            kept += keep.sum()
        assert kept > 100

    def test_pairs_at_exactly_the_hard_core_do_not_compete(self):
        # lattice neighbours sit at exactly 180 m (dx^2 + dy^2 == 180^2)
        grid = 180.0 * np.arange(6.0)
        pts = np.column_stack([np.repeat(grid, 6), np.tile(grid, 6)])
        assert _close_pairs(pts, 180.0)[0].size == 0
        i, j = _close_pairs(pts, 180.0 * (1 + 1e-12))
        assert i.size == 2 * 6 * 5
        assert (i < j).all()

    def test_pairs_match_all_pairs_search(self, rng):
        pts = rng.uniform(0, 2000.0, size=(600, 2))
        i, j = _close_pairs(pts, 150.0)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        want = np.argwhere(np.triu(d2 < 150.0**2, k=1))
        got = np.column_stack([i, j])
        np.testing.assert_array_equal(got[np.lexsort(got.T[::-1])], want)

    @pytest.mark.parametrize("overrides,fingerprint", [
        ({}, "3d17141228e8b620"),
        ({"macro_radius_m": 4000.0, "density_per_km2": 50.0}, "7d824f8595845d97"),
    ])
    def test_pinned_fingerprints(self, overrides, fingerprint):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            topology = ScenarioConfig(topology_seed=1, **overrides).sample_topology()
        assert topology.fingerprint() == fingerprint


@pytest.mark.filterwarnings("ignore::hetcap.SaturationWarning")
class TestParentCap:
    def test_oversized_region_refused_before_allocating(self):
        region = Region(1e6)   # 1000 km at 50 /km^2: ~2e8 parents expected
        tracemalloc.start()
        try:
            with pytest.raises(RegionTooLargeError, match="MAX_PARENTS"):
                sample_matern_hcpp(region, 50e-6, 180.0, 90.0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_refusal_is_a_value_error_at_the_cap(self):
        assert issubclass(RegionTooLargeError, ValueError)
        # the saturated parent intensity is -ln(1e-3)/(pi*180^2); put the
        # expected count just above the cap
        extended = math.sqrt(MAX_PARENTS * 180.0**2 / -math.log(1e-3)) * 1.001
        with pytest.raises(RegionTooLargeError):
            sample_matern_hcpp(Region(extended - 90.0), 50e-6, 180.0, 90.0, 1)


def _lattice_cells(side: int, spacing: float, radius: float = 90.0):
    offsets = spacing * (np.arange(side) - (side - 1) / 2)
    return [SmallCell((float(x), float(y)), radius, 1.0, 3.0)
            for x in offsets for y in offsets]


def _topology(cells, hard_core=180.0, tagged=0, macro_radius=10_000.0):
    return NetworkTopology(MacroBS((0.0, 0.0), 1.0, 3.0), tuple(cells),
                           hard_core, tagged, Region(macro_radius))


class TestValidate:
    def test_lattice_accepted(self):
        assert len(_topology(_lattice_cells(45, 200.0)).small_cells) == 2025

    def test_close_pair_far_apart_in_index_order(self):
        cells = _lattice_cells(45, 200.0)
        first = cells[0].center
        # the last cell moves to just outside the first, 170 m away
        cells[-1] = SmallCell((first[0] - 150.0, first[1] - 80.0), 90.0, 1.0, 3.0)
        with pytest.raises(InvalidTopologyError,
                           match="min center distance 170.000 m"):
            _topology(cells)

    def test_hard_core_below_two_largest_radii(self):
        radii = [50.0, 90.0, 30.0, 85.0]
        cells = [SmallCell((1000.0 * k, 0.0), rad, 1.0, 3.0)
                 for k, rad in enumerate(radii)]
        with pytest.raises(InvalidTopologyError, match="pair of cell radii"):
            _topology(cells, hard_core=174.0)
        # the two largest radii, not twice the largest, set the floor
        assert _topology(cells, hard_core=175.0).hard_core_distance == 175.0

    def test_disk_crossing_macro_boundary(self):
        cells = [SmallCell((0.0, 0.0), 90.0, 1.0, 3.0),
                 SmallCell((920.0, 0.0), 90.0, 1.0, 3.0)]
        with pytest.raises(InvalidTopologyError, match="macro boundary"):
            _topology(cells, macro_radius=1000.0)
        assert _topology(cells, macro_radius=1010.0)

    @pytest.mark.parametrize("tagged", [None, -1, 2])
    def test_bad_tagged_index(self, tagged):
        cells = _lattice_cells(2, 200.0)[:2]
        with pytest.raises(InvalidTopologyError, match="tagged_index"):
            _topology(cells, tagged=tagged)

    def test_tagged_index_on_empty_deployment(self):
        with pytest.raises(InvalidTopologyError, match="empty deployment"):
            _topology([], tagged=0)

    @pytest.mark.parametrize("other", [(180.0, 0.0), (108.0, 144.0),
                                       (180.0 - 5e-10, 0.0)])
    def test_pair_at_hard_core_accepted(self, other):
        cells = [SmallCell((0.0, 0.0), 90.0, 1.0, 3.0),
                 SmallCell(other, 90.0, 1.0, 3.0)]
        assert _topology(cells).hard_core_distance == 180.0

    def test_pair_past_tolerance_rejected(self):
        cells = [SmallCell((0.0, 0.0), 90.0, 1.0, 3.0),
                 SmallCell((180.0 - 1e-6, 0.0), 90.0, 1.0, 3.0)]
        with pytest.raises(InvalidTopologyError, match="violates hard core"):
            _topology(cells)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_center(self, bad):
        cells = [SmallCell((0.0, 0.0), 90.0, 1.0, 3.0),
                 SmallCell((bad, 0.0), 90.0, 1.0, 3.0)]
        with pytest.raises(InvalidTopologyError, match="not finite"):
            _topology(cells)
