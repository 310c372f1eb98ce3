"""Deterministic protocol-economics engine and discrete-block market
simulator for rug-pull recovery mechanics: vaults with inversely pegged
anticoins, supply regulation, penalty games, perpetuals, drain detection
and intervention, and bonded dispute resolution.
"""

import importlib.util
import sys

# each module is registered unexecuted and compiled and run when one of its
# attributes is first read, so `rugsim verify` runs only core and trace; not
# cli, which `python -m rugsim.cli` warns about if it finds it registered
for _name in ("core", "detection", "disputes", "harness", "insurance", "ledger", "market",
              "perps", "rugproof", "scenario", "tokenomics", "trace", "vault"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    globals()[_name] = sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module

# exported name -> the module that defines it
_EXPORTS = {
    "FixedAmount": "core", "amt": "core", "quantize": "core",
    "Simulation": "harness", "run_scenario": "harness",
    "load_scenario": "scenario", "load_scenario_file": "scenario",
    "reference_scenario": "scenario", "scam_scenario": "scenario",
}
__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
