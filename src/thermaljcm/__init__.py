"""Finite-temperature dynamics of the multiphoton Jaynes-Cummings model.

A second-order low-temperature perturbation series for the excitation
probability and atomic coherence of the l-photon JCM driven by a thermal
coherent state, an exact truncated-Fock oracle in the doubled Hilbert space
that validates it, and collapse/revival period analysis on top.
"""

from . import analysis, coherence, model, oracle, perturbation, validation
from .model import (
    EigenvalueTable,
    ModelParams,
    ThermalParams,
    bogoliubov_angles,
    thermal_from_inv_beta,
)
from .perturbation import TruncationPolicy, pe_thermal, pe_zero_temperature, rho01_thermal

__version__ = "0.1.0"

__all__ = [
    "analysis",
    "coherence",
    "model",
    "oracle",
    "perturbation",
    "validation",
    "EigenvalueTable",
    "ModelParams",
    "ThermalParams",
    "bogoliubov_angles",
    "thermal_from_inv_beta",
    "TruncationPolicy",
    "pe_thermal",
    "pe_zero_temperature",
    "rho01_thermal",
    "__version__",
]
