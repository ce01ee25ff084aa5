"""Product-state approximations for maximization Heisenberg Hamiltonians.

The library models 2-local Hamiltonians sum_e w_e (I - a XX - b YY - g ZZ)
on weighted multigraphs, solves their level-1 moment relaxation as one
rank-p coordinate ascent per distinct axis coupling, rounds the relaxation
to product states by Gaussian projection or single-axis hyperplane cuts,
and certifies per-instance approximation ratios against the relaxation
value or, for small n, against exact oracles. The relaxation value bounds
lambda_max from above at the optimum; the solver also reports a dual bound
on that optimum, which holds at any iterate.
"""

from .edge_analysis import (
    EdgeOptimum,
    edge_opt,
    edge_opt_prod,
    edge_opt_states,
    product_ratio_bound,
)
from .instance import (
    Edge,
    FamilyTag,
    Instance,
    ParseError,
    generate,
    is_family_uniform,
    parse_instance,
    parse_instance_file,
    serialize_instance,
)
from .moment_sdp import (
    FeasibilityReport,
    MomentSolution,
    SolveDiagnostics,
    SolverConfig,
    check_feasibility,
    parse_moment_solution,
    sdp_objective,
    serialize_moment_solution,
    solve_moment_sdp,
)
from .oracle import (
    ExactResult,
    OracleLimitError,
    ProductSearchResult,
    best_product_state,
    exact_max_eigenvalue,
)
from .pauli import (
    DenseHermitian,
    FanoForm,
    ProductState,
    SingleQubitUnitary,
    adjoint_rotation,
    build_dense,
    fano_compose,
    fano_decompose,
    product_energy,
    product_state_vector,
    reduce_instance,
    su2_lift,
)
from .ratio_numerics import (
    RatioCurve,
    approx_ratio_axis,
    approx_ratio_bfv,
    bfv_expectation,
    curve_to_csv,
    hyp2f1_half,
)
from .rounding import (
    CornerDecomposition,
    RoundingOutcome,
    bfv_round,
    caratheodory_split,
    gw_axis_round,
    split_instance,
)

__version__ = "0.1.0"

__all__ = [
    "Edge",
    "Instance",
    "FamilyTag",
    "ParseError",
    "generate",
    "is_family_uniform",
    "parse_instance",
    "parse_instance_file",
    "serialize_instance",
    "DenseHermitian",
    "ProductState",
    "FanoForm",
    "SingleQubitUnitary",
    "build_dense",
    "product_energy",
    "product_state_vector",
    "fano_decompose",
    "fano_compose",
    "su2_lift",
    "adjoint_rotation",
    "reduce_instance",
    "EdgeOptimum",
    "edge_opt",
    "edge_opt_prod",
    "edge_opt_states",
    "product_ratio_bound",
    "RatioCurve",
    "hyp2f1_half",
    "bfv_expectation",
    "approx_ratio_bfv",
    "approx_ratio_axis",
    "curve_to_csv",
    "SolverConfig",
    "SolveDiagnostics",
    "MomentSolution",
    "FeasibilityReport",
    "solve_moment_sdp",
    "sdp_objective",
    "check_feasibility",
    "serialize_moment_solution",
    "parse_moment_solution",
    "ExactResult",
    "OracleLimitError",
    "ProductSearchResult",
    "exact_max_eigenvalue",
    "best_product_state",
    "RoundingOutcome",
    "CornerDecomposition",
    "caratheodory_split",
    "split_instance",
    "bfv_round",
    "gw_axis_round",
    "__version__",
]
