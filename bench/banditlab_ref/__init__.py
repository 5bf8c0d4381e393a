"""Contextual-bandit simulation engine.

FROZEN REFERENCE COPY for the benchmark: ``src/banditlab`` as it was when
the benchmark was added.  ``bench/run.py`` times every operation back to
back with the same operation on this copy, so that the machine's speed
drifts cancel out of the reported times.  Do not edit it.

Submodules:

* ``env``      -- environments with known ground truth and closed-form
                  best linear approximations
* ``linmodel`` -- per-arm linear models, (weighted) least squares, and the
                  constrained regression oracle
* ``falcon``   -- inverse-gap-weighted epoch agents and baselines
* ``diag``     -- Monte Carlo estimators and inequality checks
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
