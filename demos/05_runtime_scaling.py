"""Why the lower bound matters: cost vs. network size.

The exact estimator touches every interferer in every trial, so its cost
grows linearly with the number of cells. The lower bound pays a one-off
closed-form pass over the interferers and then integrates over a single
link by a fixed quadrature rule. The exact estimator is run to a capacity
standard error; the bound is deterministic, so one call meets any target.
"""
import math

from hetcap import (DuplexConfig, DuplexMode, QoSConfig, Region,
                    benchmark_runtime, dbm_to_watts, ec_exact_mc,
                    sample_matern_hcpp)

NOISE = dbm_to_watts(-120.0)
QOS = QoSConfig(1e-3, 0.5e-3, 180e3)
duplex = DuplexConfig(DuplexMode.FD, 1e-8, 1.0, dbm_to_watts(23.0))

deployments = [
    ("16 cells ", sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0, 11,
                                     cell_power=dbm_to_watts(35.0), alpha=3.0,
                                     macro_power=dbm_to_watts(46.0))),
    ("157 cells", sample_matern_hcpp(Region(1000.0), 157.0 / math.pi * 1e-6,
                                     50.0, 25.0, 50,
                                     cell_power=dbm_to_watts(35.0), alpha=3.0,
                                     macro_power=dbm_to_watts(46.0))),
]

pilot = ec_exact_mc(deployments[0][1], duplex, QOS, NOISE, 4000, 77)
target = 0.001 * pilot.ec
print(f"standard-error target: {target:.2f} bits/block "
      "(0.1% of the sparse capacity)\n")
print(f"{'deployment':>10} {'exact':>12} {'lower bound':>13} {'speedup':>8}")
for label, topology in deployments:
    report = benchmark_runtime(topology, duplex, QOS, NOISE, target, 77)
    print(f"{label:>10} {report.exact_seconds:10.2f} s "
          f"{report.lb_seconds * 1e3:10.3f} ms {report.speedup:8.0f}x")
print("\nexact cost scales with the cell count; the bound's does not.")
