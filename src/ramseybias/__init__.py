"""Ramsey-biased spectroscopy of a flux-tunable transmon.

Simulates the transition-probability spectrum of a qubit probed through an
alternating resonant/dispersive bias train, averages it over a Maxwell
duration ensemble, extracts peak/linewidth/fringe metrics, and searches the
duration parameters for the narrowest line.
"""

from .averaging import AveragingParams, McConfig, i_s, mc_oracle, sample_maxwell
from .errors import (ConfigError, DomainError, InfeasibleError, MetricsError,
                     NoCrossingError, NoPeakError)
from .evolution import (BiasTrain, QubitAmplitudes, compose_train,
                        dispersive_phase, propagate_segment)
from .optimizer import ObjectiveConfig, SearchSpace, optimize, seed_points
from .qubit import DriveParams, TransmonParams, omega_eg, regime_quantities
from .spectroscopy import (Spectrum, SpectrumMetrics, make_grid, metrics,
                           pe_average, sweep, sweep_refined)
from .validation import run_validation

__version__ = "0.1.0"

__all__ = [
    "AveragingParams", "BiasTrain", "ConfigError", "DomainError",
    "DriveParams", "InfeasibleError", "McConfig", "MetricsError",
    "NoCrossingError", "NoPeakError", "ObjectiveConfig", "QubitAmplitudes",
    "SearchSpace", "Spectrum", "SpectrumMetrics", "TransmonParams",
    "compose_train", "dispersive_phase", "i_s", "make_grid", "mc_oracle",
    "metrics", "omega_eg", "optimize", "pe_average", "propagate_segment",
    "regime_quantities", "run_validation", "sample_maxwell", "seed_points",
    "sweep", "sweep_refined",
]
