"""Switching-game solvers in arbitrary dimension and their lp generalization.

Maximize sum a_I x^(0)_{i_0} ... x^(m-1)_{i_{m-1}} over +/-1 switch vectors
(exactly or heuristically) or over unit lp spheres (monotone alternating
ascent), evaluate every exponent and constant formula attached to the
problem, and run desk-scale sharpness experiments on random sign tensors.
"""

from .bounds import (
    KM_EXPONENT_LIMIT,
    RegionKind,
    RegionVerdict,
    bh_asymptotic_constant,
    blowup_exponent,
    blowup_lower_exponent,
    classify_point,
    conjecture_exponent,
    g_lower_bound_formula,
    haagerup_f,
    hl_exponent,
    km_constant,
    ksz_exponent,
    unimodular_sharp_exponent,
    weak_l1_norm,
)
from .errors import (
    AxisOutOfRange,
    BudgetExceeded,
    DegenerateInput,
    DimMismatch,
    InvalidExponent,
    LengthMismatch,
    NonUnimodularEntry,
    SizeOverflow,
)
from .experiments import (
    FitResult,
    NormSample,
    SharpnessResult,
    fit_exponent,
    sample_min_norm,
    sharpness_experiment,
)
from .lp import (
    AscentResult,
    AscentTrace,
    LpPoint,
    alternating_max,
    dual_update,
)
from .rng import generator, mix, sign_draws
from .solvers import (
    EXACT_BUDGET_BITS,
    Method,
    SolveResult,
    classify_extremal,
    exact_max,
    exact_max_batch,
    local_search,
    majority_fix,
    normal_form_boards,
    random_restart_greedy,
    sign_rows,
    value_census,
)
from .tensor import (
    DimSpec,
    SignTensor,
    SwitchAssignment,
    all_ones_assignment,
    apply_switch,
    evaluate,
    evaluate_real,
    from_json_dict,
    make_assignment,
    make_tensor,
    mixed_norm,
    partial_contraction,
    random_tensor,
    read_tensor,
    to_json_dict,
    write_tensor,
)

__version__ = "0.1.0"
