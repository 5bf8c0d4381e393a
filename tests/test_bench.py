"""The benchmark's workloads, run against the package under test.

``bench/workloads.py`` is read as it stands (nothing is written next to it)
and each workload's set-up, operation and output check run twice, so a
change that would make the benchmark's operations fail, such as dropping a
call it makes, fails here first.  No digest is pinned: the benchmark pins
BLAS to one thread and the tests do not, which can move the last bits of
large fits.
"""

import pathlib
import sys
import types

import pytest

WORKLOADS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(WORKLOADS)
    # dataclasses look their module up by name while the source runs
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize("name", ["falcon_run", "linucb_suite", "oracle_refit"])
def test_workload_ops_pass_their_checks(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](1, str(tmp_path), "banditlab")
    first, second = (workload.check(workload.op()) for _ in range(2))
    assert first.problems == [] and second.problems == []
    assert first.digest and first.digest == second.digest
