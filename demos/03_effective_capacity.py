"""Effective capacity: exact Monte Carlo against the Jensen lower bound.

The exact estimator pays for every interferer in every trial; the lower
bound freezes interference at its closed-form mean and integrates over the
desired signal's fading and radius by a fixed quadrature rule, so it is
deterministic. This script compares them on one deployment, shows the
loose-QoS limit, and sweeps the QoS exponent.
"""
from hetcap import (DuplexConfig, DuplexMode, QoSConfig, Region, dbm_to_watts,
                    ec_from_components, ec_lower_bound,
                    mean_rate_from_components, sample_matern_hcpp,
                    simulate_components)

NOISE = dbm_to_watts(-120.0)
P_UE = dbm_to_watts(23.0)

topology = sample_matern_hcpp(Region(1000.0), 5e-6, 180.0, 90.0, seed=7,
                              cell_power=dbm_to_watts(35.0), alpha=3.0,
                              macro_power=dbm_to_watts(46.0))
duplex = DuplexConfig(DuplexMode.FD, 1e-8, 1.0, P_UE)
print(f"deployment: {len(topology.centers)} cells, "
      f"tagged {topology.tagged_index}, -80 dB cancellation, full duplex")

print("\n== exact vs. lower bound at theta = 1e-3 ==")
qos = QoSConfig(1e-3, 0.5e-3, 180e3)
components = simulate_components(topology, P_UE, 10**5, seed=21)
exact = ec_from_components(components, duplex, qos, NOISE)
bound = ec_lower_bound(topology, duplex, qos, NOISE, 10**5, 21)
print(f"exact Monte Carlo  {exact.ec:8.2f} +- {exact.std_error:.2f} bits/block")
print(f"Jensen lower bound {bound.ec:8.2f} (deterministic, "
      f"{bound.trials} quadrature nodes)")
print(f"relative gap       {(exact.ec - bound.ec) / exact.ec:8.2%}")

print("\n== loose-QoS limit: capacity approaches the mean rate ==")
rate = mean_rate_from_components(components, duplex, qos, NOISE)
for theta in (1e-6, 1e-4, 1e-3, 5e-3):
    estimate = ec_from_components(components, duplex,
                                  QoSConfig(theta, 0.5e-3, 180e3), NOISE)
    print(f"theta {theta:7.0e}: EC {estimate.ec:7.2f} bits/block "
          f"({estimate.ec / rate:6.1%} of the {rate:.2f} mean rate)")

print("\n== theta guarantee range for the bound ==")
# the bound needs (1 + SINR)^-(share * beta) concave in the interference,
# i.e. share * beta <= 1; half duplex halves the exponent
print(f"full duplex: guaranteed up to theta = {qos.theta_bound:.3e} 1/bit")
print(f"half duplex: guaranteed up to theta = {2 * qos.theta_bound:.3e} 1/bit")
strict = QoSConfig(1e-2, 0.5e-3, 180e3)
print("theta = 1e-2: each bound notes it when its mode's guarantee lapses")
hd = DuplexConfig(DuplexMode.HD, 0.0, 1.0, P_UE)
for label, setup in (("full", duplex), ("half", hd)):
    notes = ec_lower_bound(topology, setup, strict, NOISE, 10**4, 21).notes
    print(f"  {label} duplex bound notes: {', '.join(notes) or 'none'}")
