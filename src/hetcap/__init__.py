"""Statistical QoS of half/full-duplex heterogeneous cellular deployments.

Monte Carlo estimation of effective capacity for a tagged downlink user in a
hard-core small-cell deployment, plus a Jensen lower bound built on
closed-form mean-interference formulas; the network size enters the bound's
cost only through one O(M) mean per duplex mode, not per trial.
"""
from .capacity import (ECEstimate, TrialComponents, ec_exact_mc,
                       ec_from_components, ec_lower_bound,
                       mean_rate_from_components, simulate_components)
from .channel import (D_MIN, DuplexConfig, DuplexMode, QoSConfig,
                      path_loss_gain)
from .config import (ScenarioConfig, ScenarioFormatError,
                     ScenarioValidationError, dbm_to_watts, emit_benchmark_csv,
                     emit_breakdown_csv, emit_sweep_csv, load_scenario,
                     load_topology, save_topology, watts_to_dbm)
from .experiments import (BenchmarkReport, SweepResult, SweepRow,
                          benchmark_runtime, eta_grid_db, fd_gain,
                          find_crossover, sweep_eta)
from .geometry import (InfeasibleRegionError, InvalidTopologyError, MacroBS,
                       NetworkTopology, Region, RegionTooLargeError,
                       SaturationWarning, SmallCell, sample_matern_hcpp,
                       sample_uniform_disk_batch)
from .interference import (MeanInterferenceBreakdown, QuadratureDomainError,
                           TaylorAccuracyWarning, TaylorValidityError,
                           mean_interference_bs_ue, mean_interference_ue_ue,
                           mean_pathloss_numeric, mean_pathloss_taylor,
                           total_mean_interference)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
