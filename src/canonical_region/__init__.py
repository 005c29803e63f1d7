"""Finite-alphabet multiterminal rate regions with quantized descriptions.

The package models M discrete sources, the first J of which the decoder
sees losslessly, the rest through per-source memoryless test channels,
plus side information and a reconstruction target.  It provides:

* exact construction of the augmented joint law and its rate region,
  whose M! extreme points are corner points of a contra-polymatroid;
* randomized verification of the chain identities behind that structure;
* per-slot simplex functionals that linearize the weighted objective
  over a channel's reverse (mixture) form, the LP that optimizes one
  slot globally, and the coordinate descent built on it;
* a budget-guarded exhaustive lattice search used as an oracle and to
  confirm that output alphabets never need to exceed the source size;
* a small JSON problem-file format, bundled example instances, and a
  deterministic command-line interface.
"""
from .errors import (
    BudgetError,
    CanonicalRegionError,
    DegeneracyWarning,
    InputError,
    NumericIntegrityError,
    PreconditionError,
    StructuralError,
)
from .pmf import (
    Alphabet,
    JointPmf,
    entropy,
    mi_sets,
)
from .augment import (
    AugmentedPmf,
    Channel,
    ProblemSpec,
    ReverseChannelPair,
    attach_channels,
    constant_channel,
    forward_to_reverse,
    identity_channel,
    mixture_error,
    random_channel,
    random_channels,
    reverse_to_forward,
)
from .region import (
    ChainIdentityReport,
    ConstraintReport,
    NondegeneracyReport,
    check_permutation,
    corner_point,
    enumerate_extreme_points,
    expected_active_groups,
    identity_permutation,
    membership,
    nondegeneracy_report,
    rate_lhs,
    source_nondegeneracy_report,
    verify_chain_identities,
    verify_noncrossing,
)
from .functionals import (
    DecompositionReport,
    Direction,
    FunctionalContext,
    direct_weighted_value,
    distortion_component,
    random_direction,
    theta,
    verify_linear_decomposition,
)
from .simplex import LpResult, solve_equality_lp
from .optimize import (
    AlphabetBoundReport,
    OptimizeResult,
    TracePoint,
    brute_force_search,
    coordinate_descent,
    default_multistart_inits,
    estimate_brute_force_evals,
    optimize_single_channel,
    trace_inner_bound,
    verify_alphabet_bound,
)
from .problem_io import (
    bundled_problem_path,
    list_bundled_problems,
    load_channels,
    load_directions,
    load_problem,
    resolve_problem,
    save_problem,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "AlphabetBoundReport", "AugmentedPmf", "BudgetError",
    "CanonicalRegionError", "ChainIdentityReport", "Channel",
    "ConstraintReport", "DecompositionReport", "DegeneracyWarning",
    "Direction", "FunctionalContext",
    "InputError", "JointPmf", "LpResult", "NondegeneracyReport",
    "NumericIntegrityError", "OptimizeResult", "PreconditionError",
    "ProblemSpec", "ReverseChannelPair", "StructuralError",
    "TracePoint", "attach_channels", "brute_force_search",
    "bundled_problem_path", "check_permutation",
    "constant_channel", "coordinate_descent", "corner_point",
    "default_multistart_inits", "direct_weighted_value",
    "distortion_component", "entropy", "enumerate_extreme_points",
    "estimate_brute_force_evals",
    "expected_active_groups", "forward_to_reverse", "identity_channel",
    "identity_permutation", "list_bundled_problems",
    "load_channels", "load_directions", "load_problem",
    "membership", "mi_sets", "mixture_error", "nondegeneracy_report",
    "optimize_single_channel", "random_channel",
    "random_channels", "random_direction",
    "rate_lhs", "resolve_problem", "reverse_to_forward", "save_problem",
    "solve_equality_lp", "source_nondegeneracy_report", "theta",
    "trace_inner_bound", "verify_alphabet_bound", "verify_chain_identities",
    "verify_linear_decomposition", "verify_noncrossing",
]
