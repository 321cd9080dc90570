import math
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from conftest import P_UE, ray_angle

from hetcap import (InfeasibleRegionError, InvalidTopologyError, MacroBS,
                    NetworkTopology, Region, RegionTooLargeError,
                    SaturationWarning, ScenarioConfig, SmallCell,
                    sample_matern_hcpp, sample_uniform_disk_batch,
                    simulate_components)
from hetcap.geometry import (_ALL_PAIRS, MAX_PARENTS, _close_pairs,
                             disk_points_xy, matern_parent_intensity)


def pairwise_min_distance(topology):
    centers = topology.centers
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    dist[np.diag_indices(len(centers))] = np.inf
    return dist.min()


class TestMaternSampling:
    @pytest.mark.parametrize("density_km2,seed", [(5.0, 1), (5.0, 99), (8.0, 3)])
    def test_hard_core_property(self, density_km2, seed):
        topology = sample_matern_hcpp(Region(1000.0), density_km2 * 1e-6,
                                      180.0, 90.0, seed)
        if len(topology.centers) > 1:
            assert pairwise_min_distance(topology) >= 180.0

    def test_containment(self):
        topology = sample_matern_hcpp(Region(1000.0), 8e-6, 180.0, 90.0, 5)
        off = np.hypot(topology.centers[:, 0], topology.centers[:, 1])
        assert (off + topology.radius <= 1000.0 + 1e-9).all()

    def test_zero_density_gives_empty_topology(self):
        topology = sample_matern_hcpp(Region(1000.0), 0.0, 180.0, 90.0, 1)
        assert topology.centers.shape == (0, 2)
        assert topology.small_cells == ()
        assert topology.tagged_index is None

    def test_mean_count_matches_target_density(self):
        # Expected retained count = density * macro area = 5*pi = 15.71,
        # within 15% after the type-II thinning and containment correction.
        counts = [len(sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0,
                                         seed).centers)
                  for seed in range(1000)]
        mean = np.mean(counts)
        assert abs(mean - 5 * math.pi) / (5 * math.pi) < 0.15

    def test_determinism(self):
        a = sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0, 42)
        b = sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0, 42)
        np.testing.assert_array_equal(a.centers, b.centers)
        assert (a.tagged_index, a.fingerprint()) == (b.tagged_index,
                                                     b.fingerprint())
        c = sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0, 43)
        assert a.fingerprint() != c.fingerprint()

    def test_infeasible_region(self):
        with pytest.raises(InfeasibleRegionError):
            sample_matern_hcpp(Region(80.0), 5e-6, 180.0, 90.0, 1)

    def test_hard_core_below_packing_limit_warns_and_saturates(self):
        with pytest.warns(SaturationWarning):
            topology = sample_matern_hcpp(Region(1000.0), 50e-6, 180.0, 90.0, 1)
        # saturated type-II retention tops out near 1/(pi rh^2) ~ 9.8 /km^2
        assert 15 <= len(topology.centers) <= 35
        assert pairwise_min_distance(topology) >= 180.0

    def test_hard_core_smaller_than_diameter_rejected(self):
        with pytest.raises(ValueError, match="hard_core"):
            sample_matern_hcpp(Region(1000.0), 5e-6, 100.0, 90.0, 1)

    def test_tagged_default_near_mid_radius(self):
        topology = sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0, 7)
        anchor = np.array([500.0, 0.0])
        centers = topology.centers
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


def _ue_interference(centers, radius, alpha=3.0, trials: int = 3,
                     seed: int = 1) -> np.ndarray:
    """UE interference at cell 0's UE from cell 1's, both cells of unit power."""
    topology = NetworkTopology(MacroBS((0.0, 0.0), 39.81, 3.0), centers, radius,
                               1.0, alpha, 180.0, 0, Region(1000.0))
    return simulate_components(topology, P_UE, trials, seed).ue_interference


class TestInterfererDistance:
    """UE-to-UE distances as the trial kernel measures them.

    The kernel's link arithmetic is float32, so its UE interference is held
    to its precision contract, 1e-6 relative, not to float64 rounding.
    """

    def test_both_at_centers(self, fixed_draws):
        # zero-radius cells hold their UEs at the centers, 500 m apart
        i_ue = _ue_interference([(400.0, 0.0), (-100.0, 0.0)], 0.0)
        np.testing.assert_allclose(i_ue, P_UE * 500.0**-3, rtol=1e-6)

    def test_collinear_victim_toward_interferer(self, fixed_draws):
        # the tagged UE sits 90 m from its BS toward the interferer's center
        i_ue = _ue_interference([(300.0, 0.0), (300.0, 500.0)], [180.0, 0.0])
        np.testing.assert_allclose(i_ue, P_UE * 410.0**-3, rtol=1e-6)

    def test_matches_cartesian_oracle(self):
        # replay the kernel's streams (main stream: tagged radius, its u in
        # stratum i mod 32 for trial i, and angle, signal fading, BS fading;
        # substreams 1-3: interferer radii, float32 angles, UE fading), place
        # the interferer at the angle the kernel resolves from pi * v, from
        # the ray from its centre toward the tagged UE, and measure every
        # link with hypot on the Cartesian positions
        centers = np.array([(300.0, 0.0), (-100.0, 200.0)])
        radius, alpha = np.array([90.0, 60.0]), np.array([3.0, 3.5])
        n = 1000
        got = _ue_interference(centers, radius, alpha, n, 9)
        rng, u_rng, v_rng, h_rng = (np.random.default_rng(
            np.random.SeedSequence(entropy=9, spawn_key=(0, 0) + k))
            for k in ((), (1,), (2,), (3,)))
        r_t = radius[0] * np.sqrt((np.arange(n) % 32 + rng.random(n)) / 32)
        th_t = 2.0 * np.pi * rng.random(n)
        r_i = radius[1] * np.sqrt(u_rng.random(n))
        t_i = ray_angle(v_rng.random(n, dtype=np.float32))
        h = h_rng.exponential(size=n)
        ux, uy = disk_points_xy(centers[0], r_t, th_t)
        phi = np.arctan2(uy - centers[1, 1], ux - centers[1, 0])
        ix, iy = disk_points_xy(centers[1], r_i, phi + t_i)
        dist = np.hypot(ux - ix, uy - iy)
        np.testing.assert_allclose(got, P_UE * h * dist**-alpha[1], rtol=1e-6)


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
            # parents are distinct, so equal retained rows mean equal masks
            np.testing.assert_array_equal(topology.centers, pts[keep])
            kept += keep.sum()
        assert kept > 100

    def test_pairs_at_exactly_the_hard_core_do_not_compete(self):
        # lattice neighbours sit at exactly 180 m (dx^2 + dy^2 == 180^2);
        # 6 x 6 points are tested all pairs, 14 x 14 go through the grid
        for k in (6, 14):
            grid = 180.0 * np.arange(float(k))
            pts = np.column_stack([np.repeat(grid, k), np.tile(grid, k)])
            assert _close_pairs(pts, 180.0)[0].size == 0
            i, j = _close_pairs(pts, 180.0 * (1 + 1e-12))
            assert i.size == 2 * k * (k - 1)
            assert (i < j).all()

    def test_pairs_match_all_pairs_search(self, rng):
        pts = rng.uniform(0, 2000.0, size=(600, 2))
        i, j = _close_pairs(pts, 150.0)
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        want = np.argwhere(np.triu(d2 < 150.0**2, k=1))
        got = np.column_stack([i, j])
        np.testing.assert_array_equal(got[np.lexsort(got.T[::-1])], want)

    @staticmethod
    def _extreme_points(case):
        rng = np.random.default_rng(3)
        line = 0.5 * np.arange(200.0)
        # 200 points within 1e-5 m of (1e9, -1e9), near the 1.2e-7 m float
        # step there; the cell side's rounding pad, 4.4e-7 m, is not small
        # against d = 1e-6
        far_cluster = np.array([1e9, -1e9]) + rng.uniform(0.0, 1e-5, (200, 2))
        huge = 1e150 + np.spacing(1e150) * np.arange(120.0)[:, None] * [1.0, 2.0]
        return {
            # 1e15 cells per axis between the first two points
            "far apart, tiny distance": (np.vstack([[[0.0, 0.0], [1e9, 0.0]],
                                                    far_cluster]), 1e-6),
            "close pairs at 1e9 m": (np.vstack([[[1e9, 1e9], [1e9 + 5e-7, 1e9],
                                                 [1e9, 1e9 + 9.9e-7], [-1e9, 3.0]],
                                                far_cluster]), 1e-6),
            # coord/d would overflow; duplicates are the only close pairs
            "duplicates at 1e150 m": (np.vstack([huge, huge[:80],
                                                 [[0.0, 0.0], [5.0, 5.0]]]), 1e-160),
            "cluster and far outlier": (np.vstack([rng.normal(0.0, 1.0, (300, 2)),
                                                   [[1e12, -1e12]]]), 0.3),
            "all in one cell": (rng.uniform(0.0, 0.7, (200, 2)), 1.0),
            # neighbours at 0.5 compete, next neighbours at exactly 1.0 do not
            "collinear": (np.column_stack([line, np.zeros(200)]), 1.0),
            "collinear diagonal": (np.column_stack([line, line]), 1.0),
        }[case]

    @pytest.mark.parametrize("case", [
        "far apart, tiny distance", "close pairs at 1e9 m", "duplicates at 1e150 m",
        "cluster and far outlier", "all in one cell", "collinear", "collinear diagonal"])
    def test_pairs_match_all_pairs_at_extremes(self, case):
        pts, distance = self._extreme_points(case)
        assert len(pts) * (len(pts) - 1) // 2 > _ALL_PAIRS   # the grid, not all pairs
        with np.errstate(all="raise"):
            i, j = _close_pairs(pts, distance)
        assert (i < j).all()
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        want = np.argwhere(np.triu(d2 < distance**2, k=1))
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


def _lattice_centers(side: int, spacing: float) -> np.ndarray:
    offsets = spacing * (np.arange(side) - (side - 1) / 2)
    return np.array([(x, y) for x in offsets for y in offsets])


def _topology(centers, hard_core=180.0, tagged=0, macro_radius=10_000.0, *,
              radius=90.0, power=1.0, alpha=3.0, macro=MacroBS((0.0, 0.0), 1.0, 3.0)):
    return NetworkTopology(macro, centers, radius, power, alpha, hard_core,
                           tagged, Region(macro_radius))


class TestValidate:
    def test_lattice_accepted(self):
        assert len(_topology(_lattice_centers(45, 200.0)).centers) == 2025

    def test_close_pair_far_apart_in_index_order(self):
        centers = _lattice_centers(45, 200.0)
        # the last cell moves to just outside the first, 170 m away
        centers[-1] = centers[0] - (150.0, 80.0)
        with pytest.raises(InvalidTopologyError,
                           match="min center distance 170.000 m"):
            _topology(centers)

    def test_hard_core_below_two_largest_radii(self):
        radii = [50.0, 90.0, 30.0, 85.0]
        centers = [(1000.0 * k, 0.0) for k in range(len(radii))]
        with pytest.raises(InvalidTopologyError, match="pair of cell radii"):
            _topology(centers, hard_core=174.0, radius=radii)
        # the two largest radii, not twice the largest, set the floor
        assert _topology(centers, hard_core=175.0,
                         radius=radii).hard_core_distance == 175.0

    def test_disk_crossing_macro_boundary(self):
        centers = [(0.0, 0.0), (920.0, 0.0)]
        with pytest.raises(InvalidTopologyError, match="macro boundary"):
            _topology(centers, macro_radius=1000.0)
        assert _topology(centers, macro_radius=1010.0)

    @pytest.mark.parametrize("tagged", [None, -1, 2])
    def test_bad_tagged_index(self, tagged):
        with pytest.raises(InvalidTopologyError, match="tagged_index"):
            _topology(_lattice_centers(2, 200.0)[:2], tagged=tagged)

    def test_tagged_index_on_empty_deployment(self):
        with pytest.raises(InvalidTopologyError, match="empty deployment"):
            _topology([], tagged=0)

    @pytest.mark.parametrize("other", [(180.0, 0.0), (108.0, 144.0),
                                       (180.0 - 5e-10, 0.0)])
    def test_pair_at_hard_core_accepted(self, other):
        assert _topology([(0.0, 0.0), other]).hard_core_distance == 180.0

    def test_pair_past_tolerance_rejected(self):
        with pytest.raises(InvalidTopologyError, match="violates hard core"):
            _topology([(0.0, 0.0), (180.0 - 1e-6, 0.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_center(self, bad):
        with pytest.raises(InvalidTopologyError, match="not finite"):
            _topology([(0.0, 0.0), (bad, 0.0)])

    @pytest.mark.parametrize("field,value", [
        ("radius", -90.0), ("radius", math.nan), ("power", math.nan),
        ("power", -1.0), ("power", math.inf), ("alpha", -3.0),
        ("alpha", math.inf)])
    def test_non_physical_cell_rejected(self, field, value):
        with pytest.raises(InvalidTopologyError,
                           match=f"cell 1 {field} must be finite and >= 0, "
                                 f"got {value}"):
            _topology([(0.0, 0.0), (500.0, 0.0)], **{field: [90.0, value]})

    @pytest.mark.parametrize("macro,message", [
        (MacroBS((0.0, 0.0), math.nan, 3.0), "macro power .* got nan"),
        (MacroBS((0.0, 0.0), 1.0, -3.0), "macro alpha .* got -3.0"),
    ])
    def test_non_physical_macro_rejected(self, macro, message):
        with pytest.raises(InvalidTopologyError, match=message):
            _topology([(500.0, 0.0)], macro=macro)
        with pytest.raises(InvalidTopologyError, match=message):
            _topology([], tagged=None, macro=macro)

    def test_point_cells_and_silent_transmitters_accepted(self):
        # fixtures use zero-radius cells; -inf dBm loads as 0 W
        topology = _topology([(0.0, 0.0), (500.0, 0.0)], radius=0.0,
                             power=[0.0, 1.0])
        np.testing.assert_array_equal(topology.radius, [0.0, 0.0])


class TestArrayModel:
    """Cells as read-only arrays; records derived from them."""

    def test_scalars_broadcast_to_every_cell(self):
        topology = _topology([(0.0, 0.0), (500.0, 0.0)], radius=[90.0, 60.0],
                             power=2.0)
        assert topology.centers.shape == (2, 2)
        for values, want in ((topology.radius, [90.0, 60.0]),
                             (topology.power, [2.0, 2.0]),
                             (topology.alpha, [3.0, 3.0])):
            assert values.dtype == np.float64
            np.testing.assert_array_equal(values, want)

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidTopologyError, match="shape"):
            _topology([(0.0, 0.0, 0.0), (500.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            _topology([(0.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            _topology([(0.0, 0.0), (500.0, 0.0)], radius=[90.0, 90.0, 90.0])

    def test_arrays_are_read_only(self, sparse_topology):
        bs_xy, bs_power, bs_alpha = sparse_topology.interfering_bs
        for values in (sparse_topology.centers, sparse_topology.radius,
                       sparse_topology.power, sparse_topology.alpha,
                       sparse_topology.others, bs_xy, bs_power, bs_alpha):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0

    def test_input_arrays_are_copied(self):
        centers, radius = np.array([(0.0, 0.0), (500.0, 0.0)]), np.full(2, 90.0)
        topology = _topology(centers, radius=radius)
        centers[1] = (100.0, 0.0)
        radius[:] = 1.0
        assert topology.centers[1, 0] == 500.0 and topology.radius[0] == 90.0

    def test_interferers_are_macro_then_other_cells_in_index_order(self):
        centers = [(0.0, 500.0), (500.0, 0.0), (-500.0, 0.0)]
        topology = _topology(centers, tagged=1, power=[1.0, 2.0, 3.0],
                             macro=MacroBS((0.0, 0.0), 40.0, 3.5))
        np.testing.assert_array_equal(topology.others, [0, 2])
        bs_xy, bs_power, bs_alpha = topology.interfering_bs
        np.testing.assert_array_equal(bs_xy, [(0.0, 0.0), (0.0, 500.0),
                                              (-500.0, 0.0)])
        np.testing.assert_array_equal(bs_power, [40.0, 1.0, 3.0])
        np.testing.assert_array_equal(bs_alpha, [3.5, 3.0, 3.0])

    def test_records_derive_from_arrays(self, sparse_topology):
        t = sparse_topology.tagged_index
        cells = sparse_topology.small_cells
        assert len(cells) == len(sparse_topology.centers)
        assert cells[t] == SmallCell(tuple(sparse_topology.centers[t]), 90.0,
                                     sparse_topology.power[t], 3.0)
        assert type(cells[t].radius) is float

    def test_empty_topology_has_no_tagged_cell(self):
        empty = _topology([], tagged=None)
        for read in (lambda: empty.interfering_bs, lambda: empty.others):
            with pytest.raises(InvalidTopologyError, match="no tagged cell"):
                read()

    def test_pickle_keeps_fingerprint(self, sparse_topology):
        clone = pickle.loads(pickle.dumps(sparse_topology))
        assert clone.fingerprint() == sparse_topology.fingerprint()
        np.testing.assert_array_equal(clone.centers, sparse_topology.centers)

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle_comes_back_read_only(self, sparse_topology, protocol):
        clone = pickle.loads(pickle.dumps(sparse_topology, protocol=protocol))
        assert clone.fingerprint() == sparse_topology.fingerprint()
        for name in ("centers", "radius", "power", "alpha"):
            assert not getattr(clone, name).flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                getattr(clone, name)[0] = 0.0

    @pytest.mark.parametrize("protocol", [2, 3, 4, 5])
    def test_pickle_leaves_cached_views_behind(self, sparse_topology, protocol):
        t = sparse_topology
        fresh = NetworkTopology(t.macro_bs, t.centers, t.radius, t.power, t.alpha,
                                t.hard_core_distance, t.tagged_index, t.region)
        size = len(pickle.dumps(fresh, protocol=protocol))
        fresh.small_cells, fresh.interfering_bs       # fill the caches
        assert len(pickle.dumps(fresh, protocol=protocol)) == size
