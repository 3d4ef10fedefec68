"""Privacy filters for single-shot guessing.

Computes how well an observer can guess a variable Y from displayed data Z
while the probability of guessing a correlated secret X from Z stays capped:
exact LP-based optimization for arbitrary finite alphabets, closed forms for
binary channels and i.i.d. binary blocks, and seeded Monte Carlo validation.

Importing the package loads only its errors. Every other name, and each
submodule, is imported on first use (PEP 562), so that a caller of the
closed forms or the simulation never loads the LP layer.
"""

import importlib

from . import errors
from .errors import *  # noqa: F403

__version__ = "0.1.0"

#: which pivot loop runs, always ``lp``'s NumPy one; recorded by the benchmark, not public
KERNEL_BACKEND = "python"

#: the submodule that defines each public name, imported when one of its names is first read
_EXPORTS = {
    "prob": ("Axis", "JointDistribution", "Channel", "guess_prob", "cond_guess_prob", "compose",
             "renyi_entropy", "arimoto_cond_entropy", "arimoto_mutual_information"),
    "solver": ("FilterSolution", "GuessCurve", "OrderBounds", "best_filter", "curve_point",
               "guessing_gain", "finite_order_gain_bounds", "read_curve", "trace_curve"),
    "bibo": ("BiboParams", "BranchTag", "branch", "to_joint", "from_joint",
             "perfect_privacy_utility", "nontrivial_utility", "closed_form_utility", "crossover",
             "optimal_filter"),
    "vector": ("VectorModel", "ZnChannel", "Validity", "BlockUtility", "ThresholdEstimate",
               "memoryless_utility", "block_utility", "block_utility_detail", "zn_filter",
               "gap_bounds", "certificate_threshold", "heuristic_threshold", "validity_threshold",
               "brute_force_block_utility"),
    "mc": ("SimConfig", "SimReport", "simulate", "vector_sim_config"),
}

__all__ = ["__version__", *errors.__all__, *(name for names in _EXPORTS.values() for name in names)]

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = frozenset({"bibo", "cli", "lp", "mc", "prob", "solver", "vector"})


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # bound as an eager import would bind it: later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
