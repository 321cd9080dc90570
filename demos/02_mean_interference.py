"""Mean interference: exact forms and the paper's series vs. quadrature and MC.

The library averages path loss over a disk of victim positions exactly,
d^-alpha 2F1(alpha/2, alpha/2; 2; R^2/d^2); the paper truncates that average
to three Taylor terms. This script shows both against the quadrature
oracle across separations (numpy only: a Gauss-Legendre rule over the angle
about the interferer, with the radial integral in closed form), the exact
UE-to-UE mean and the paper's composition against a double Monte Carlo
average, and a full per-interferer breakdown.
"""
import math

import numpy as np

from hetcap import (DuplexConfig, DuplexMode, Region, dbm_to_watts,
                    emit_breakdown_csv, mean_interference_bs_ue,
                    mean_interference_ue_ue,
                    mean_pathloss_numeric, mean_pathloss_taylor,
                    sample_matern_hcpp, total_mean_interference)

print("== exact closed form and paper series vs. quadrature (R = 90 m) ==")
print(f"{'alpha':>5} {'d [m]':>7} {'quadrature':>13} {'exact err':>10} "
      f"{'paper err':>10}")
for alpha in (2.0, 3.0, 4.0):
    for d in (180.0, 360.0, 500.0, 900.0, 1800.0):
        oracle = mean_pathloss_numeric(d, 90.0, alpha)
        exact = mean_interference_bs_ue(1.0, d, 90.0, alpha)
        paper = mean_pathloss_taylor(d, 90.0, alpha)
        print(f"{alpha:5.0f} {d:7.0f} {oracle:13.5e} "
              f"{abs(exact - oracle) / oracle:10.2e} "
              f"{abs(paper - oracle) / oracle:10.2e}")

print("\n== UE-to-UE mean vs. double Monte Carlo (d=500 m, both disks 90 m) ==")
rng = np.random.default_rng(1)
n = 10**6
r1 = 90 * np.sqrt(rng.random(n))
t1 = 2 * math.pi * rng.random(n)
r2 = 90 * np.sqrt(rng.random(n))
t2 = 2 * math.pi * rng.random(n)
x = np.hypot(500 + r1 * np.cos(t1) - r2 * np.cos(t2),
             r1 * np.sin(t1) - r2 * np.sin(t2))
samples = 0.2 * x ** -3.0
analytic = mean_interference_ue_ue(0.2, 500.0, 90.0, 90.0, 3.0)
# the paper composes its series at alpha, alpha+2 and alpha+4
paper = 0.2 * (mean_pathloss_taylor(500.0, 90.0, 3.0)
               + (9.0 * 90.0**2 / 8.0) * mean_pathloss_taylor(500.0, 90.0, 5.0)
               + (15.0 * 90.0**4 / 24.0) * mean_pathloss_taylor(500.0, 90.0, 7.0))
se = samples.std(ddof=1) / math.sqrt(n)
print(f"exact mean   {analytic:.5e} W ({(analytic - samples.mean()) / se:+.2f} sigma)")
print(f"paper series {paper:.5e} W ({(paper - samples.mean()) / se:+.2f} sigma)")
print(f"monte carlo  {samples.mean():.5e} W +- {se:.1e} ({n} position pairs)")

print("\n== per-interferer breakdown at the tagged user ==")
topology = sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0, seed=7,
                              cell_power=dbm_to_watts(35.0), alpha=3.0,
                              macro_power=dbm_to_watts(46.0))
duplex = DuplexConfig(DuplexMode.FD, 1e-8, 1.0, dbm_to_watts(23.0))
breakdown = total_mean_interference(topology, duplex)
bs_total = breakdown.per_bs.sum()
ue_total = breakdown.per_ue.sum()
print(f"{len(breakdown.per_bs)} downlink interferers: {bs_total:.4e} W")
print(f"{len(breakdown.per_ue)} uplink interferers:   {ue_total:.4e} W")
print(f"total mean interference:  {breakdown.total:.4e} W")
emit_breakdown_csv(breakdown, "mean_interference_breakdown.csv")
print("full table -> mean_interference_breakdown.csv")
