"""Magnetic beamforming toolkit for multi-coil resonant wireless power transfer.

Models the phasor circuit of N driven coils powering Q receiver coils at a
shared resonant frequency, optimizes the TX current phasors under total
power and per-TX peak limits (semidefinite relaxation with time-sharing
and randomized rounding), traces multi-user power regions, and simulates
coupling-matrix estimation from noisy receiver-current feedback.
"""

__version__ = "0.1.0"

from .beamforming import (BeamformingSolution, PowerProfile, SolveOptions,
                          benchmark_uncoordinated, solve_p0, solve_p1,
                          solve_p2_closed_form_single_rx)
from .circuit import (Excitation, ImpedanceModel, Scenario, build_impedance,
                      constraint_slacks, delivered_powers, efficiency,
                      tx_total_power, tx_voltages)
from .errors import (EfficiencyUndefinedError, EstimationError,
                     InfeasibleError, MagbeamError, ScenarioError, SolverError)
from .estimation import (EstimationResult, TrainingProtocol, TrainingRecord,
                         estimate_ls, estimate_pairwise_benchmark, estimate_perfect,
                         ls_first_order_nmse, monte_carlo_mse, simulate_training)
from .geometry import (CoilGeometry, layout_mutual_matrix, mutual_inductance,
                       tabletop_layout)
from .region import (PowerRegionPoint, RegionSweep, boundary_point,
                     sweep_region)
from .scenario import (load_scenario, save_scenario, scenario_hash,
                       select_receivers, table_scenario)

__all__ = [
    "__version__",
    # circuit
    "Scenario", "ImpedanceModel", "Excitation", "build_impedance",
    "delivered_powers", "tx_voltages",
    "tx_total_power", "efficiency", "constraint_slacks",
    # beamforming
    "PowerProfile", "BeamformingSolution", "SolveOptions",
    "solve_p2_closed_form_single_rx", "solve_p1", "solve_p0",
    "benchmark_uncoordinated",
    # region
    "PowerRegionPoint", "RegionSweep", "boundary_point", "sweep_region",
    # estimation
    "TrainingProtocol", "TrainingRecord", "EstimationResult",
    "simulate_training", "estimate_perfect", "estimate_ls",
    "estimate_pairwise_benchmark", "monte_carlo_mse", "ls_first_order_nmse",
    # geometry and scenarios
    "CoilGeometry", "mutual_inductance", "tabletop_layout",
    "layout_mutual_matrix", "load_scenario", "save_scenario", "scenario_hash",
    "select_receivers", "table_scenario",
    # errors
    "MagbeamError", "ScenarioError", "InfeasibleError", "SolverError",
    "EfficiencyUndefinedError", "EstimationError",
]
