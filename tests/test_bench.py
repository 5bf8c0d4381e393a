"""The benchmark's workloads and tracer targets, against the package under test.

``bench/workloads.py`` is read as it stands (nothing is written next to it)
and each workload's set-up, operation and output check run twice, so a
change that would make the benchmark's operations fail, such as dropping a
call it makes, fails here first.  No digest is pinned: the benchmark pins
BLAS to one thread and the tests do not, which can move the last bits of
large fits.  ``bench/tracer.py`` is read the same way, and the targets it
can wrap must stay plain functions, so that a refactor cannot quietly drop
a layer from the traced run.
"""

import pathlib
import sys
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
# the tracer's targets that resolve: each other target names a function
# the package no longer has, and the tracer reports it absent
RESOLVED_TARGETS = ["falcon.epoch_of", "falcon.phase_of", "falcon.linucb_refresh",
                    "linmodel.append", "linmodel.constrained_fit", "linmodel.fit_weighted",
                    "linmodel.fit_ols", "diag.lemma_suite", "harness.loop", "cli.main"]


def load(path: pathlib.Path, name: str) -> types.ModuleType:
    """The module run from ``path`` as it stands, not imported from ``bench/``."""
    module = types.ModuleType(name)
    module.__file__ = str(path)
    # dataclasses look their module up by name while the source runs
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.fixture(scope="module")
def workloads():
    return load(BENCH / "workloads.py", "bench_workloads")


@pytest.mark.parametrize("name", ["falcon_run", "linucb_suite", "oracle_refit"])
def test_workload_ops_pass_their_checks(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](1, str(tmp_path), "banditlab")
    first, second = (workload.check(workload.op()) for _ in range(2))
    assert first.problems == [] and second.problems == []
    assert first.digest and first.digest == second.digest


def test_tracer_targets_resolve_to_plain_functions():
    tracer = load(BENCH / "tracer.py", "bench_tracer")
    for name in RESOLVED_TARGETS:
        assert isinstance(tracer._resolve(tracer.TARGETS[name])[2], types.FunctionType), name
