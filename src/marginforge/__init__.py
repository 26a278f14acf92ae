"""Soft-margin boosting via conditional-gradient updates.

One generic booster loop with swappable step rules (classic, short
step, line search, pairwise) and secondary updates (restricted LP,
fully corrective), reproducing the LP and entropy-regularised baselines
as configurations, with a certified optimality-gap stopping rule.
"""

from .boosting import (
    BoosterConfig,
    IterationRecord,
    PoolOracleLearner,
    TrainedModel,
    predict,
    run_lpboost,
    run_scheme,
    secondary_erlpboost,
    secondary_lpboost,
)
from .core import CapParams, Dataset, GainMatrix, edges, margins, relative_entropy
from .entropy import (
    ProjectionResult,
    capped_entropy_projection,
    capped_min_linear,
    smoothed_conjugate,
)
from .fw import FwStepOutcome, classic_step, line_search_step, pairwise_step, short_step
from .lp import EdgeMinSolution, solve_edge_min
from .stumps import StumpHypothesis, StumpLearner, StumpPool, best_stump, full_gain_matrix, pool_oracle

__version__ = "0.1.0"

__all__ = [
    "BoosterConfig",
    "CapParams",
    "Dataset",
    "EdgeMinSolution",
    "FwStepOutcome",
    "GainMatrix",
    "IterationRecord",
    "PoolOracleLearner",
    "ProjectionResult",
    "StumpHypothesis",
    "StumpLearner",
    "StumpPool",
    "TrainedModel",
    "best_stump",
    "capped_entropy_projection",
    "capped_min_linear",
    "classic_step",
    "edges",
    "full_gain_matrix",
    "line_search_step",
    "margins",
    "pairwise_step",
    "pool_oracle",
    "predict",
    "relative_entropy",
    "run_lpboost",
    "run_scheme",
    "secondary_erlpboost",
    "secondary_lpboost",
    "short_step",
    "smoothed_conjugate",
    "solve_edge_min",
]
