"""Simulation engine for coherent excitation transfer in dipolar spin chains.

Chains of pseudo-spin-1/2 atoms coupled by the resonant dipole-dipole
interaction realize an exchange (XY) Hamiltonian whose single excitation
hops between sites at c3 / R^3.  The package provides exact closed-system
dynamics, a full open-system model of the experimental pulse sequence,
thermal-motion Monte Carlo, the detection-error forward model, fitting
utilities, and pre-built scenarios behind a CLI.
"""

__version__ = "0.1.0"

from .model import ChainGeometry, PhysicalParams, angular_c3, pair_coupling
from .xy import CouplingMatrix, SpinState, build_coupling_matrix, eigenmodes, propagate
from .obe import Level, PulseSegment, PulseSequence, run_sequence
from .thermal import ThermalSample, run_ensemble, sample_thermal
from .detection import EpsilonModel, fit_epsilon, forward_detection
from .analysis import beat_spectrum, fit_power_law, fit_sinusoid
from .scenarios import ScenarioResult, run_scenario

__all__ = [
    "ChainGeometry",
    "PhysicalParams",
    "angular_c3",
    "pair_coupling",
    "CouplingMatrix",
    "SpinState",
    "build_coupling_matrix",
    "eigenmodes",
    "propagate",
    "Level",
    "PulseSegment",
    "PulseSequence",
    "run_sequence",
    "ThermalSample",
    "run_ensemble",
    "sample_thermal",
    "EpsilonModel",
    "fit_epsilon",
    "forward_detection",
    "beat_spectrum",
    "fit_power_law",
    "fit_sinusoid",
    "ScenarioResult",
    "run_scenario",
]
