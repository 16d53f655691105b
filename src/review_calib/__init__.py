"""Synthetic peer-review simulation and rank-based score calibration.

The package generates conference-scale synthetic review data (papers,
authors, reviewers, biased noisy scores constrained by sampled reviewer
rankings) and benchmarks four paper-quality estimators: plain score
averaging, calibration by a reviewer-derived global ranking, calibration
by authors' rankings of their own papers, and the combination of both.

The names below are the public API; the submodules hold the rest.
"""

from .bench import ExperimentConfig, ResultsTable, run_experiment
from .conference import Conference, GenConfig, gen_conference, scaled_config
from .distributions import DiscreteDistribution
from .errors import ConfigurationError, GenerationError
from .estimators import (
    OwnerPartition,
    avg_scores,
    build_owner_partition,
    calibrate_author,
    calibrate_reviewer,
    rmse,
)
from .isotonic import isotonic_project_indexed
from .ranking import full_ranking, hierarchical_tiers
from .scoring import NOISE_CASES, generate_final_scores, get_noise_case

__version__ = "0.1.0"

__all__ = [
    "Conference",
    "ConfigurationError",
    "DiscreteDistribution",
    "ExperimentConfig",
    "GenConfig",
    "GenerationError",
    "NOISE_CASES",
    "OwnerPartition",
    "ResultsTable",
    "avg_scores",
    "build_owner_partition",
    "calibrate_author",
    "calibrate_reviewer",
    "full_ranking",
    "gen_conference",
    "generate_final_scores",
    "get_noise_case",
    "hierarchical_tiers",
    "isotonic_project_indexed",
    "rmse",
    "run_experiment",
    "scaled_config",
]
