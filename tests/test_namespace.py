"""The package's cold start, each case in a fresh interpreter: ``import
banditlab`` loads no submodule, a submodule loads only the modules it runs,
every module imports on its own, and the lazy namespace hands out each
submodule's own objects."""

import json
import os
import subprocess
import sys

import pytest

import banditlab
from banditlab import harness

SRC = os.path.dirname(os.path.dirname(os.path.abspath(banditlab.__file__)))
MODULES = ("env", "linmodel", "falcon", "diag", "harness", "csvio", "cli")


def fresh(code: str):
    """What ``code``, run in a new interpreter with the package's source
    first on its path, prints as JSON."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded_by(statement: str) -> set[str]:
    """The package's submodules in ``sys.modules`` after ``statement``."""
    return set(fresh(f"import json, sys\n{statement}\nprint(json.dumps("
                     "[name for name in sys.modules if name.startswith('banditlab.')]))"))


def test_import_banditlab_loads_no_submodule():
    assert loaded_by("import banditlab") == set()


def test_linmodel_loads_no_other_module():
    assert loaded_by("import banditlab.linmodel") == {"banditlab.linmodel"}


@pytest.mark.parametrize("statement", ["import banditlab.harness",
                                       "from banditlab import EnvSpec, RunConfig, run_one"])
def test_runs_load_neither_the_writer_nor_the_cli(statement):
    loaded = loaded_by(statement)
    assert "banditlab.harness" in loaded
    assert not loaded & {"banditlab.csvio", "banditlab.cli"}
    # and the writer is not left in harness
    assert not [name for name in vars(harness) if "csv" in name or name.endswith("_HEADER")]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_on_its_own(module):
    # importing csvio or cli first catches an import cycle with harness
    assert f"banditlab.{module}" in loaded_by(f"import banditlab.{module}")


NAMESPACE = """
import importlib, json, banditlab
names = list(banditlab.__all__)
homes = {name: getattr(banditlab, name).__module__ for name in names}
same = all(getattr(importlib.import_module(homes[n]), n) is getattr(banditlab, n) for n in names)
star = {}
exec("from banditlab import *", star)
try:
    banditlab.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"names": names, "homes": sorted(set(homes.values())), "same": same,
                  "dir": dir(banditlab), "star": sorted(set(star) - {"__builtins__"}),
                  "unknown": unknown}))
"""


def test_public_names_are_their_submodules_objects():
    seen = fresh(NAMESPACE)
    assert seen["names"] == [
        "EnvSpec", "Environment", "best_linear_fit_uniform",
        "EpochSchedule", "EpsilonFalconAgent", "LinUCBAgent", "RateParams", "UniformAgent",
        "RunConfig", "compare", "run_one", "run_suite",
        "ConstraintSpec", "DataBatch", "LinearModel", "constrained_fit", "fit_ols",
    ]
    assert seen["homes"] == ["banditlab.env", "banditlab.falcon", "banditlab.harness",
                             "banditlab.linmodel"]
    assert seen["same"]
    assert set(seen["names"]) <= set(seen["dir"])
    assert seen["star"] == sorted(seen["names"])
    assert seen["unknown"] == "module 'banditlab' has no attribute 'no_such_name'"
