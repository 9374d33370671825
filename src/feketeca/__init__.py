"""Exact analysis of cellular automata on finite rectangular supports:
reachable-pattern counts, information loss, orphan certificates, the 1D
surjectivity decision, and a standalone multivariate Fekete-lemma engine
for coordinate-wise subadditive functions."""

from .subadditive import (
    FeketeEstimate,
    MultiIndex,
    SubadditiveFn,
    Violation,
    as_index,
    check_subadditivity,
    check_subadditivity_on_table,
    decomposition_bound,
    diagonal_schedule,
    geometric_schedule,
    running_infimum,
    subadditivity_triple_count,
)
from .ca import (
    BUILTIN_NAMES,
    CellularAutomaton,
    Pattern,
    RightPolytope,
    decode_states,
    encode_states,
    induced_map,
    make_builtin,
    minkowski_sum,
)
from .counting import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    OrphanCertificate,
    OutRecord,
    OutTable,
    decide_surjectivity_1d,
    find_orphan,
    out_size_transfer_1d,
    out_sizes,
    out_sizes_bruteforce,
)
from .analysis import (
    LambdaEstimate,
    SurjectivityVerdict,
    ThresholdReport,
    VerdictStatus,
    boundary_excess,
    lambda_estimate,
    surjectivity_report,
    theorem2_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "MultiIndex", "as_index", "SubadditiveFn", "Violation",
    "FeketeEstimate", "subadditivity_triple_count", "check_subadditivity",
    "check_subadditivity_on_table", "running_infimum", "decomposition_bound",
    "diagonal_schedule", "geometric_schedule",
    "CellularAutomaton", "RightPolytope", "Pattern",
    "encode_states", "decode_states", "minkowski_sum",
    "induced_map", "make_builtin", "BUILTIN_NAMES",
    "DEFAULT_BUDGET", "BudgetExceeded", "OutRecord", "OutTable", "OrphanCertificate",
    "out_sizes_bruteforce", "out_size_transfer_1d", "out_sizes", "find_orphan",
    "decide_surjectivity_1d",
    "LambdaEstimate", "ThresholdReport", "VerdictStatus",
    "SurjectivityVerdict", "lambda_estimate",
    "boundary_excess", "theorem2_threshold", "surjectivity_report",
]
