"""Pseudo-spectral decay laboratory for the fractional pseudo-parabolic
equation u_t - m Lap(u_t) + (-Lap)^alpha u = u^(theta+1).

The package computes the exact linear semigroup and the mild (Duhamel)
nonlinear flow on a periodic lattice, measures algebraic decay rates
against a continuum quadrature oracle, and probes the gain/loss dichotomy
of the high-frequency dissipation.
"""

from .model import (GAIN, LOSS, ModelParams, RegimeReport, b_inverse,
                    cutoff_chi, decay_exponent, sigma, validate)
from .grid import (GridSpec, SpectralField, apply_radial_multiplier,
                   field_from_spectral_profile, lp_norm, make_grid,
                   sobolev_norm, sobolev_seminorm, split_low_high, to_physical,
                   to_spectral)
from .oracle import (DecayClass, OracleConvergenceError, RadialProfile,
                     gaussian_profile, oracle_decay_fit, power_tail_profile,
                     radial_weighted_l2, sphere_area, truncated_profile)
from .propagator import ProbeReport, probe_high_band, probe_low_band, propagate
from .solver import (EnergyLedger, SolveResult, SolverBlowupError, SolverConfig,
                     StepState, energy_balance_residual, phi1, phi2, solve)
from .diagnostics import (DecayFit, NormSeries, WeightedFunctionals,
                          contamination_horizon, fit_decay, record,
                          weighted_functionals)
from .scenarios import ConfigError, RunSummary, ScenarioConfig, run_scenario

__version__ = "0.1.0"

__all__ = [
    "GAIN", "LOSS", "ModelParams", "RegimeReport", "b_inverse", "cutoff_chi",
    "decay_exponent", "sigma", "validate",
    "GridSpec", "SpectralField", "apply_radial_multiplier",
    "field_from_spectral_profile", "lp_norm", "make_grid", "sobolev_norm",
    "sobolev_seminorm", "split_low_high", "to_physical", "to_spectral",
    "DecayClass", "OracleConvergenceError", "RadialProfile", "gaussian_profile",
    "oracle_decay_fit", "power_tail_profile", "radial_weighted_l2",
    "sphere_area", "truncated_profile",
    "ProbeReport", "probe_high_band", "probe_low_band", "propagate",
    "EnergyLedger", "SolveResult", "SolverBlowupError", "SolverConfig",
    "StepState", "energy_balance_residual", "phi1", "phi2", "solve",
    "DecayFit", "NormSeries", "WeightedFunctionals", "contamination_horizon",
    "fit_decay", "record", "weighted_functionals",
    "ConfigError", "RunSummary", "ScenarioConfig", "run_scenario",
]
