"""Contextual-bandit simulation engine.

Submodules:

* ``env``      -- environments with known ground truth, closed-form best
                  linear approximations and their approximation errors
* ``linmodel`` -- per-arm linear models, (weighted) least squares, and the
                  constrained regression oracle
* ``falcon``   -- inverse-gap-weighted epoch agents and baselines
* ``diag``     -- Monte Carlo estimates on a sample of contexts the caller
                  drew, and the inequality checks
* ``harness``  -- configs, runs, suites, comparisons, CSV artifacts
"""

from .env import EnvSpec, Environment, best_linear_fit_uniform
from .falcon import EpochSchedule, EpsilonFalconAgent, LinUCBAgent, RateParams, UniformAgent
from .harness import RunConfig, compare, run_one, run_suite
from .linmodel import ConstraintSpec, DataBatch, LinearModel, constrained_fit, fit_ols

__all__ = [
    "EnvSpec", "Environment", "best_linear_fit_uniform",
    "EpochSchedule", "EpsilonFalconAgent", "LinUCBAgent", "RateParams", "UniformAgent",
    "RunConfig", "compare", "run_one", "run_suite",
    "ConstraintSpec", "DataBatch", "LinearModel", "constrained_fit", "fit_ols",
]

__version__ = "0.1.0"
