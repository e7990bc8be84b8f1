"""Stochastic proximal point method with variance-reduced inner solves,
robust candidate selection, and a replicated-trial benchmark harness."""

from .booster import PbConfig, PbOutcome, pb, q_floor, tau_from_eps
from .config import (
    AlgoSpec,
    ExperimentConfig,
    NoiseSpec,
    ProblemSpec,
    RunSpec,
    load_config,
    parse_config,
    serialize_config,
)
from .driver import (
    RunRecord,
    Schedule,
    derive_schedule,
    select_best,
    sgd_baseline,
    sppm_run,
    total_samples,
)
from .errors import (
    ConfigError,
    DomainError,
    InfeasibleScheduleError,
    NumericError,
    ValidationError,
)
from .generate import generate_problem
from .harness import (
    TrialRecord,
    TrialReport,
    compare_budget,
    emit_report,
    run_trials,
    wilson_interval,
)
from .noise import NoiseModel
from .problems import (
    CompositeProblem,
    FiniteSumOracle,
    evaluate_phi,
    exact_prox_point,
    minimize_composite,
    minimize_phi,
    sample_gradient,
    sample_gradient_batch,
    shifted_value,
)
from .pss import CandidatePair, PssConfig, alpha_floor, epsilon_k_bound, pss_run
from .regularizers import Box, L1, L1Box, L2Ball, Zero, prox_map
from .rng import RngStream
from .selection import DhParams, EuclideanMetric, bregman_dh, make_dh, rge, sts

__version__ = "0.1.0"
