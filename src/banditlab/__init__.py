"""Contextual-bandit simulation engine.

Submodules:

* ``env``      -- environments with known ground truth, closed-form best
                  linear approximations and their approximation errors
* ``linmodel`` -- per-arm linear models, (weighted) least squares, and the
                  constrained regression oracle
* ``falcon``   -- inverse-gap-weighted epoch agents and baselines
* ``diag``     -- Monte Carlo estimates on a sample of contexts the caller
                  drew, and the inequality checks
* ``harness``  -- configs, runs, suites, comparisons
* ``csvio``    -- the CSV writer and the files of runs, suites and comparisons

``import banditlab`` imports no submodule: a public name imports its module
on first use, so a process loads only the modules it runs.
"""

from importlib import import_module

_MODULE_OF = {name: module for module, names in (
    ("env", "EnvSpec Environment best_linear_fit_uniform"),
    ("falcon", "EpochSchedule EpsilonFalconAgent LinUCBAgent RateParams UniformAgent"),
    ("harness", "RunConfig compare run_one run_suite"),
    ("linmodel", "ConstraintSpec DataBatch LinearModel constrained_fit fit_ols"),
) for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
