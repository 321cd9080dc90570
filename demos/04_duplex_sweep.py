"""Half vs. full duplex across the self-interference cancellation range.

Downlink effective capacity of the tagged user versus the linear
cancellation factor, for the sparse (5 cells/km^2) and dense
(50 cells/km^2, saturated) deployments. Prints the peak FD/HD gain and the
cancellation level where FD starts to win, and writes the sparse curve set
to CSV.
"""
import warnings

import numpy as np

from hetcap import (QoSConfig, Region, SaturationWarning, dbm_to_watts,
                    emit_sweep_csv, eta_grid_db, fd_gain, find_crossover,
                    sample_matern_hcpp, sweep_eta)

NOISE = dbm_to_watts(-120.0)
P_UE = dbm_to_watts(23.0)
QOS = QoSConfig(1e-3, 0.5e-3, 180e3)
GRID = np.concatenate([[-120.0], eta_grid_db(-90.0, 0.0, 5.0)])

for label, density in (("sparse 5 /km^2", 5e-6), ("dense 50 /km^2", 50e-6)):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        topology = sample_matern_hcpp(Region(1000.0), density, 180.0, 90.0,
                                      seed=1000, cell_power=dbm_to_watts(35.0),
                                      alpha=3.0, macro_power=dbm_to_watts(46.0))
    sweep = sweep_eta(topology, QOS, NOISE, P_UE, GRID, trials=40000, seed=5)
    print(f"== {label}: {len(topology.centers)} cells ==")
    print(f"{'eta [dB]':>9} {'HD exact':>9} {'FD exact':>9} "
          f"{'HD bound':>9} {'FD bound':>9}")
    for eta, row in zip(sweep.eta_grid, sweep.rows):
        eta_db = 10 * np.log10(eta) if eta > 0 else -np.inf
        if eta_db in (-120.0, -80.0, -60.0, -50.0, -40.0, -20.0, 0.0):
            print(f"{eta_db:9.0f} {row.ec_hd_exact.ec:9.2f} "
                  f"{row.ec_fd_exact.ec:9.2f} {row.ec_hd_lb.ec:9.2f} "
                  f"{row.ec_fd_lb.ec:9.2f}")
    crossover = find_crossover(sweep)
    print(f"peak FD/HD gain {fd_gain(sweep):.2f}x at perfect cancellation")
    print(f"FD overtakes HD at {crossover:.1f} dB cancellation\n")
    if label.startswith("sparse"):
        emit_sweep_csv(sweep, "duplex_sweep_sparse.csv")
        print("curves -> duplex_sweep_sparse.csv (+ .meta.json)\n")
