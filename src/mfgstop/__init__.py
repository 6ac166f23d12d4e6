"""Relaxed equilibria for mean-field games of optimal stopping.

A population of small agents each choose a stopping time for a scalar
diffusion on an interval with absorbing ends; the running reward depends
on the time-marginal flow of the not-yet-stopped crowd.  The package
solves the single-agent obstacle problem, pushes measures through the
stopped forward equation, and finds equilibria of potential couplings by
Frank-Wolfe iteration, with independent enumeration, linear-programming,
and Monte-Carlo backends to verify every identity the theory promises.
"""

from .errors import *  # noqa: F401,F403
from .model_core import (  # noqa: F401
    CoefficientFn,
    DiffusionModel,
    InitialMeasure,
    ProductField,
    SpaceTimeGrid,
    TransitionOperator,
    TransitionSlice,
    Tridiagonal,
    build_grid,
    build_transition_operator,
    discretize_generator,
    fold_reward,
)
from .measures import (  # noqa: F401
    AdmissibilityReport,
    MeasureFamily,
    convex_combine,
    is_admissible,
    moment,
    pair,
)
from .obstacle import (  # noqa: F401
    ComplementarityReport,
    ValueFunction,
    complementarity_report,
    solve_vi,
    value_at_initial,
)
from .forward import (  # noqa: F401
    MassLedger,
    fokker_planck_residual,
    measure_ledger,
    random_test_function,
    stopped_forward_measure,
)
from .reward import (  # noqa: F401
    FBarFn,
    Iterate,
    RewardSpec,
    antimonotonicity_check,
    directional_gain,
    evaluate_reward,
    potential_value,
)
from .lp_oracle import (  # noqa: F401
    enumerate_stopping_rules,
    lp_solve_small,
    random_admissible_measure,
    test_function_audit,
)
from .mfg import (  # noqa: F401
    BestResponse,
    FixedPointResult,
    IterationTrace,
    ModelContext,
    best_response,
    fixed_point_solve,
    line_search,
)
from .montecarlo import McResult, PathStats, simulate_paths  # noqa: F401

__version__ = "0.1.0"
