"""Membership-inference auditing of DP graphical-model synthetic data.

Modules:
    data        categorical datasets, CSV ingestion, household splits
    marginals   contingency-table kernels with zero-probability flooring
    dp          noise mechanisms, exponential mechanism, privacy accountant
    sdg         tree-model and Bayesian-network synthetic data generators
    recovery    attacker-side structure estimation and shadow modeling
    attack      attack score functions, household aggregation, activations
    evaluation  AUROC, balanced accuracy, structure-recovery metrics
    harness     replica orchestration and report files
    cli         command-line entry point
"""

from . import attack, cli, data, dp, evaluation, harness, marginals, recovery, sdg
from .errors import SynthmiaError

__version__ = "0.1.0"

__all__ = [
    "attack",
    "cli",
    "data",
    "dp",
    "evaluation",
    "harness",
    "marginals",
    "recovery",
    "sdg",
    "SynthmiaError",
    "__version__",
]
