"""Deterministic protocol-economics engine and discrete-block market
simulator for rug-pull recovery mechanics: vaults with inversely pegged
anticoins, supply regulation, penalty games, perpetuals, drain detection
and intervention, and bonded dispute resolution.
"""

from .core import FixedAmount, amt, quantize
from .harness import Simulation, run_scenario
from .scenario import load_scenario, load_scenario_file, reference_scenario, scam_scenario

__all__ = [
    "FixedAmount",
    "Simulation",
    "amt",
    "load_scenario",
    "load_scenario_file",
    "quantize",
    "reference_scenario",
    "run_scenario",
    "scam_scenario",
]

__version__ = "0.1.0"
