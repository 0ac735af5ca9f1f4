"""Success-based offspring population control laboratory.

Simulate the self-adjusting (1,lambda) EA (plus elitist and static-lambda
baselines) on pseudo-Boolean benchmarks, compute exact finite-n transition
probabilities and potential drifts, and reproduce the study figures at
desk scale.
"""

from .ea import (
    AlgorithmKind,
    ControllerParams,
    RunRecord,
    StopCause,
    StoppingCondition,
    default_static_lambda,
    round_lambda,
    run,
    update_lambda,
)
from .fitness import FitnessFunction
from .oracle import (
    check_transition_bounds,
    drift_grid_check,
    elitist_evaluations_bound,
    make_potential,
    selected_child_law,
    state_quantities,
)

__version__ = "0.1.0"
