"""Privacy filters for single-shot guessing.

Computes how well an observer can guess a variable Y from displayed data Z
while the probability of guessing a correlated secret X from Z stays capped:
exact LP-based optimization for arbitrary finite alphabets, closed forms for
binary channels and i.i.d. binary blocks, and seeded Monte Carlo validation.
"""

from .bibo import (
    BiboParams,
    BranchTag,
    branch,
    closed_form_utility,
    crossover,
    from_joint,
    nontrivial_utility,
    optimal_filter,
    perfect_privacy_utility,
    to_joint,
)
from .errors import (
    CapacityError,
    DegenerateChannelError,
    DimensionMismatchError,
    InfeasibleThresholdError,
    InvalidChannelError,
    InvalidDistributionError,
    InvalidOrderError,
    NumericalError,
    ParameterError,
    PrivguessError,
)
from .lp import KERNEL_BACKEND, LinearProgram, LpSolution, LpStatus, solve_lp
from .mc import SimConfig, SimReport, simulate, vector_sim_config
from .prob import (
    Axis,
    Channel,
    JointDistribution,
    arimoto_cond_entropy,
    arimoto_mutual_information,
    compose,
    cond_guess_prob,
    guess_prob,
    renyi_entropy,
)
from .solver import (
    FilterSolution,
    GuessCurve,
    OrderBounds,
    best_filter,
    curve_point,
    finite_order_gain_bounds,
    guessing_gain,
    read_curve,
    trace_curve,
)
from .vector import (
    BlockUtility,
    ThresholdEstimate,
    Validity,
    VectorModel,
    ZnChannel,
    block_utility,
    block_utility_detail,
    brute_force_block_utility,
    certificate_threshold,
    gap_bounds,
    heuristic_threshold,
    memoryless_utility,
    validity_threshold,
    zn_filter,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    # errors
    "PrivguessError", "InvalidDistributionError", "InvalidChannelError",
    "InvalidOrderError", "DimensionMismatchError", "ParameterError",
    "DegenerateChannelError", "InfeasibleThresholdError", "CapacityError",
    "NumericalError",
    # probability primitives
    "Axis", "JointDistribution", "Channel", "guess_prob", "cond_guess_prob",
    "compose", "renyi_entropy", "arimoto_cond_entropy", "arimoto_mutual_information",
    # linear programming
    "LinearProgram", "LpSolution", "LpStatus", "solve_lp",
    # frontier solver
    "FilterSolution", "GuessCurve", "OrderBounds", "best_filter", "curve_point",
    "guessing_gain", "finite_order_gain_bounds", "read_curve", "trace_curve",
    # binary closed forms
    "BiboParams", "BranchTag", "branch", "to_joint", "from_joint", "perfect_privacy_utility",
    "nontrivial_utility", "closed_form_utility", "crossover", "optimal_filter",
    # block vectors
    "VectorModel", "ZnChannel", "Validity", "BlockUtility", "ThresholdEstimate",
    "memoryless_utility", "block_utility", "block_utility_detail", "zn_filter",
    "gap_bounds", "certificate_threshold", "heuristic_threshold",
    "validity_threshold", "brute_force_block_utility",
    # simulation
    "SimConfig", "SimReport", "simulate", "vector_sim_config",
]
