"""Approximate best configuration selection.

Given n candidate ML configurations over a large labeled dataset, select
one whose real test accuracy is within a tolerance of the best, using
confidence-interval based progressive sampling and pruning instead of
fully training every candidate.
"""

from .baselines import full_run, relative_accuracy_loss, successive_halving
from .ci_estimator import IntervalRule
from .core import (
    BackendError,
    ConfidenceInterval,
    ConfigurationState,
    ProbeOutcome,
    RunParams,
    RunTrace,
    TraceRound,
    clamp_interval,
    initial_states,
    load_trace_rounds,
)
from .engine import (
    EngineState,
    anytime_best_guess,
    build_report,
    run_abc,
    select_with_budget,
    verify_selection,
)
from .harness import (
    ExperimentSpec,
    InstanceSource,
    MetricsRow,
    containment_audit,
    run_experiment,
    structural_audit,
)
from .probes import (
    CurveSpec,
    DatasetHandle,
    LearnerBackend,
    LearnerSpec,
    ProbeBackend,
    SyntheticBackend,
    SyntheticInstance,
    load_csv_dataset,
    probe_learner,
)
from .scheduler import (
    GradientEstimate,
    GradientSum,
    SchedulerKind,
    gradient_ci_pick,
    next_sample_size,
    optimal_step_size,
    sweeps,
    ucb_pick,
)

__version__ = "0.1.0"
