"""Outside-in span tracer for the traced benchmark run.

The program is not instrumented.  ``Tracer.install`` replaces public
functions and methods of ``banditlab`` with timing wrappers and
``Tracer.uninstall`` puts the originals back.

* A module-level function is replaced under every name that any
  ``banditlab`` module binds to it, because callers look names up in their
  own module: ``falcon`` imports ``constrained_fit`` and ``fit_ols`` by name,
  so wrapping only ``linmodel.constrained_fit`` would miss every agent refit.
* A target that no longer exists is reported as absent; it does not stop
  the run.  Later refactors may delete some of these functions, and the
  benchmark has to keep working across them.
* Spans are counted only while an operation is open (``begin``/``end``), so
  output checks made between operations are not charged to any layer.

Self time is a span's duration minus the time of the wrapped calls it made.
The self times of all wrapped functions plus ``other`` (time of the
operation spent outside every wrapped function) add up to the operation's
traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

PACKAGE = "banditlab"
_MISSING = object()  # marks an attribute the class did not define itself

# metric prefix -> dotted path of the wrapped callable under the package.
TARGETS = {
    "env.observe": "env.Environment.observe",
    "env.sample_context": "env.Environment.sample_context",
    "falcon.epoch_of": "falcon.EpochSchedule.epoch_of",
    "falcon.phase_of": "falcon.EpsilonFalconAgent.phase_of",
    "falcon.action_kernel": "falcon.action_kernel",
    "falcon.kernel_sample": "falcon.ActionKernel.sample",
    "falcon.act": "falcon.EpsilonFalconAgent.act",
    "falcon.record": "falcon.EpsilonFalconAgent.record",
    "falcon.linucb_act": "falcon.LinUCBAgent.act",
    "falcon.linucb_record": "falcon.LinUCBAgent.record",
    "falcon.linucb_refresh": "falcon.LinUCBAgent._refresh",
    "linmodel.append": "linmodel.DataBatch.append",
    "linmodel.constrained_fit": "linmodel.constrained_fit",
    "linmodel.fit_weighted": "linmodel.fit_weighted",
    "linmodel.fit_ols": "linmodel.fit_ols",
    "diag.lemma_suite": "diag.lemma_suite",
    "harness.loop": "harness.run_one",
    "harness.write_trace_csv": "harness.write_trace_csv",
    "harness.write_run_dir": "harness.write_run_dir",
    "cli.main": "cli.main",
}


class Counters:
    """Counts read from the return values of wrapped calls."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.refits = 0
        self.weighted_fits = 0
        self.converged = 0
        self.ridge_fallback = 0

    def on_constrained_fit(self, result):
        report = result[1]
        self.refits += 1
        self.weighted_fits += int(report.n_weighted_fits)
        self.converged += int(bool(report.converged))

    def on_fit(self, model):
        self.ridge_fallback += int(bool(model.ridge_fallback))


def _resolve(dotted: str):
    """(owner, attribute name, raw attribute); the attribute is None when
    the path no longer exists."""
    module_name, *path = dotted.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None, path[-1], None
    for name in path[:-1]:
        owner = getattr(owner, name, None)
    return owner, path[-1], inspect.getattr_static(owner, path[-1], None)


class Tracer:
    def __init__(self, targets: dict[str, str] = TARGETS):
        self.targets = targets
        self.calls = {name: 0 for name in targets}
        self.self_s = {name: 0.0 for name in targets}
        self.counters = Counters()
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._t0 = 0.0
        self._hooks = {
            "linmodel.constrained_fit": self.counters.on_constrained_fit,
            "linmodel.fit_weighted": self.counters.on_fit,
            "linmodel.fit_ols": self.counters.on_fit,
        }

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name, dotted in self.targets.items():
            owner, attr, raw = _resolve(dotted)
            if not isinstance(raw, types.FunctionType):
                self.absent.append(name)  # gone, or no longer a plain function
                continue
            wrapped = self._wrap(name, raw)
            if isinstance(owner, type):
                self._restore.append((owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, wrapped)
                continue
            for module in _package_modules():
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._restore.append((module, key, raw))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        hook = self._hooks.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    try:
                        hook(result)
                    except (AttributeError, TypeError, IndexError):
                        pass  # the return type changed; the counter stays as it was
                return result
            finally:
                elapsed = clock() - t0
                stack.pop()
                stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]

        return wrapper

    # -- one operation ----------------------------------------------------

    def begin(self) -> None:
        for name in self.calls:
            self.calls[name] = 0
            self.self_s[name] = 0.0
        self.counters.reset()
        self._stack.append([0.0])
        self._t0 = time.perf_counter()

    def end(self) -> dict:
        """Close the operation; returns its wall time and per-layer split."""
        total = time.perf_counter() - self._t0
        (inside,) = self._stack.pop()
        c = self.counters
        return {
            "op_s": total,
            "other_s": total - inside,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "refits": c.refits,
            "weighted_fits": c.weighted_fits,
            "converged": c.converged,
            "ridge_fallback": c.ridge_fallback,
        }



def _package_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
