"""Hard-core deployment sampling: repulsion, calibration, saturation.

Walks through the Matern type-II sampler: what a deployment looks like, how
well the retained count tracks the requested density, and what happens when
the request exceeds the hard-core packing limit.
"""
import math
import warnings

import numpy as np

from hetcap import Region, SaturationWarning, dbm_to_watts, sample_matern_hcpp

REGION = Region(1000.0)
P_PICO = dbm_to_watts(35.0)
P_MACRO = dbm_to_watts(46.0)


def min_spacing(topology):
    centers = topology.centers
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    dist[np.diag_indices(len(centers))] = np.inf
    return dist.min()


print("== one sparse deployment (5 cells/km^2, 180 m hard core) ==")
topology = sample_matern_hcpp(REGION, 5e-6, 180.0, 90.0, seed=7,
                              cell_power=P_PICO, alpha=3.0,
                              macro_power=P_MACRO)
print(f"retained {len(topology.centers)} cells, "
      f"tagged index {topology.tagged_index}")
print(f"min center spacing {min_spacing(topology):.1f} m (hard core 180 m)")
for i, (x, y) in enumerate(topology.centers[:5]):
    tag = " <- tagged" if i == topology.tagged_index else ""
    print(f"  cell {i}: ({x:8.1f}, {y:8.1f}) m{tag}")
print("  ...")

print("\n== calibration: mean retained count vs. requested density ==")
for density in (2.0, 5.0, 8.0):
    counts = [len(sample_matern_hcpp(REGION, density * 1e-6, 180.0, 90.0,
                                     seed).centers)
              for seed in range(300)]
    expected = density * math.pi  # density * macro area in km^2
    print(f"  {density:4.1f}/km^2: mean {np.mean(counts):5.2f} "
          f"(target {expected:5.2f}), spread {np.std(counts):.2f}")

print("\n== saturation: requesting more than the packing limit ==")
limit = 1.0 / (math.pi * 0.18**2)
print(f"type-II saturation limit at 180 m hard core: {limit:.1f} cells/km^2")
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    dense = sample_matern_hcpp(REGION, 50e-6, 180.0, 90.0, seed=7,
                               cell_power=P_PICO, alpha=3.0,
                               macro_power=P_MACRO)
saturated = [w for w in caught if issubclass(w.category, SaturationWarning)]
print(f"requested 50/km^2 -> {len(dense.centers)} cells retained, "
      f"warning raised: {bool(saturated)}")
print(f"min spacing still {min_spacing(dense):.1f} m: "
      "the hard core is never compromised")
