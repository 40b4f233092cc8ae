"""Adam-to-SGD transition optimizers and an online-convex test bench."""

from .config import (BoundsSpec, ExperimentConfig, OptimizerSpec, ProblemSpec,
                     ScheduleSpec, load_config, parse_config, serialize_config)
from .diagnostics import (ConditionReport, LrHistogram, TheoryParams,
                          bound_corollary1, bound_corollary2, check_c2,
                          estimate_zeta, eta_bound_check, lemma_a1_holds)
from .optim import (Adam, Amsgrad, ClippedTransition, DstAdam, FeasibleBox,
                    MomentumSgd, OptimizerState, StepConfig, project_box)
from .problems import (LogisticMinibatch, Mlp, MlpClassification,
                       OnlineProblem, QuadraticTracking, ReddiCycle,
                       RegretLedger, make_logistic, make_mlp_problem,
                       make_quadratic, make_reddi)
from .runner import RunRecord, compare_records, run_batch, run_experiment
from .schedule import (BoundFunctionSpec, TransitionSchedule, eval_bounds,
                       rho_from_horizon)

__version__ = "0.1.0"

__all__ = [
    "Adam", "Amsgrad", "BoundFunctionSpec", "BoundsSpec", "ClippedTransition",
    "ConditionReport", "DstAdam", "ExperimentConfig", "FeasibleBox",
    "LogisticMinibatch", "LrHistogram", "Mlp", "MlpClassification",
    "MomentumSgd", "OnlineProblem", "OptimizerSpec", "OptimizerState",
    "ProblemSpec", "QuadraticTracking", "ReddiCycle", "RegretLedger",
    "RunRecord", "ScheduleSpec", "StepConfig", "TheoryParams",
    "TransitionSchedule", "bound_corollary1", "bound_corollary2",
    "check_c2", "compare_records", "estimate_zeta", "eta_bound_check",
    "eval_bounds", "lemma_a1_holds", "load_config", "make_logistic",
    "make_mlp_problem", "make_quadratic", "make_reddi", "parse_config",
    "project_box", "rho_from_horizon", "run_batch", "run_experiment",
    "serialize_config",
]
