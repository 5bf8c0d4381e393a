"""The benchmark's three workloads.

Each workload makes its inputs from the seed in its constructor (part of
set-up), runs one operation in ``op`` (timed) and checks that operation's
output in ``check`` (not timed).  A workload runs against the package it is
given by name: ``banditlab`` from ``src/``, or the frozen reference copy
``banditlab_ref``.  The package is driven only through its public calls:
``cli.main``, ``harness.load_config``/``run_suite`` and
``linmodel.DataBatch``/``ConstraintSpec``/``constrained_fit`` (plus
``linmodel.fit_weighted`` in the oracle check).

``ref_op_s`` and ``ref_setup_s`` are the reference copy's median operation
and set-up times on the machine the baseline was measured on (a 2-vCPU
Intel Xeon KVM guest); ``run.py`` reports times as multiples of them.

Which per-layer metric (traced run, names from ``tracer.TARGETS``) should
move which end-to-end metric, on which workload:

  layer metric                                   workload                    end-to-end
  ---------------------------------------------  --------------------------  --------------------
  env.observe.*, env.sample_context.*            falcon_run, linucb_suite    op_s
  falcon.epoch_of.*, falcon.phase_of.*,          falcon_run                  op_s
    falcon.action_kernel.*, falcon.kernel_sample.*,
    falcon.act.*, falcon.record.*
  falcon.linucb_act.*, falcon.linucb_record.*,   linucb_suite                op_s
    falcon.linucb_refresh.*
  linmodel.append.*                              falcon_run, oracle_refit    op_s
  linmodel.constrained_fit.*, .fit_weighted.*,   oracle_refit (falcon_run    op_s, peak_rss_mb
    .fit_ols.*, constrained_fit.s_n1e4/_n1e5/      slightly)
    _n4e5, weighted_fits_per_refit,
    dual_converged_ratio, ridge_fallback.count
  diag.lemma_suite.*, diag.lemma_checks,         falcon_run                  op_s
    diag.lemma_failed
  harness.loop.self_s (run_one minus children)   falcon_run, linucb_suite    op_s
  harness.write_trace_csv.*,                     falcon_run                  op_s
    harness.write_run_dir.*, harness.csv_bytes
  cli.main.self_s                                falcon_run                  op_s

Expected zero calls: env.* on oracle_refit; falcon.epoch_of/phase_of,
linmodel.constrained_fit/fit_weighted/fit_ols and diag.* on linucb_suite.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np


def _modules(package: str, *names: str):
    return [importlib.import_module(f"{package}.{name}") for name in names]


@dataclass
class Outcome:
    """Result of checking one operation's output."""

    problems: list[str] = field(default_factory=list)
    digest: str = ""
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _csv_column(path: str, name: str, problems: list[str]) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if rows and name not in rows[0]:
        problems.append(f"{os.path.basename(path)}: no column {name!r}")
        return []
    return [row[name] for row in rows]


# ---------------------------------------------------------------------------
# falcon_run
#
# Why: the paper's headline instance (eps-FALCON on the sensitivity family)
# run through the verb users run, `banditlab run`.  It touches every layer,
# and the per-round epoch loop dominates.
# ---------------------------------------------------------------------------

FALCON_CONFIG = """\
env.kind = sensitivity_family
env.theta = 0.05
agent.name = epsilon_falcon
agent.epsilon = 0.1
run.horizon = {horizon}
run.mc_samples = 20000
run.base_seed = {seed}
"""


class FalconRun:
    name = "falcon_run"
    horizon = 2 ** 16
    epochs = 15            # tau1 = 4 doubling: tau_15 = 4 * 2^14 = T
    unit = "round"
    units_per_op = horizon
    ref_op_s = 3.9
    ref_setup_s = 0.25

    def __init__(self, seed: int, workdir: str, package: str):
        (self.cli,) = _modules(package, "cli")
        self.config_path = os.path.join(workdir, "falcon.cfg")
        self.out_dir = os.path.join(workdir, "falcon_out")
        _write(self.config_path, FALCON_CONFIG.format(horizon=self.horizon, seed=seed))

    def op(self):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = self.cli.main(["run", "--config", self.config_path, "--out", self.out_dir])
        return code

    def check(self, code) -> Outcome:
        out = Outcome()
        try:
            self._check_dir(code, out)
        finally:
            shutil.rmtree(self.out_dir, ignore_errors=True)
        return out

    def _check_dir(self, code, out: Outcome) -> None:
        if code != 0:
            out.problems.append(f"banditlab run exited with {code}")
            return
        trace_path = os.path.join(self.out_dir, "trace.csv")
        with open(trace_path, "rb") as fh:
            out.digest = hashlib.file_digest(fh, "sha256").hexdigest()
        self._check_trace(trace_path, out.problems)

        every_epoch = {str(m) for m in range(1, self.epochs + 1)}
        for name in ("epochs.csv", "weights.csv"):
            seen = set(_csv_column(os.path.join(self.out_dir, name), "m", out.problems))
            if seen != every_epoch:
                out.problems.append(f"{name}: epochs {sorted(seen, key=int)} "
                                    f"instead of 1..{self.epochs}")

        # Lemma checks are 3-standard-error Monte Carlo tests that can flip
        # on some seeds: they are counted, never treated as failed output.
        passed = _csv_column(os.path.join(self.out_dir, "lemmas.csv"), "passed", out.problems)
        out.counters["lemma_checks"] = len(passed)
        out.counters["lemma_failed"] = sum(p.strip() != "1" for p in passed)
        out.counters["csv_bytes"] = sum(
            os.path.getsize(os.path.join(self.out_dir, f)) for f in os.listdir(self.out_dir))

    def _check_trace(self, path: str, problems: list[str]) -> None:
        """T rows of finite cells for rounds 1..T, e_regret >= 0 and a
        nondecreasing cum_e_regret.  Read row by row, so that the check
        does not raise the process's peak memory above the operation's."""
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            wanted = ["t", "x", "action", "reward", "e_regret", "cum_e_regret"]
            missing = [c for c in wanted if c not in header]
            if missing:
                problems.append(f"trace.csv: missing columns {missing}")
                return
            cols = [header.index(c) for c in wanted]
            rows, last_cum = 0, 0.0
            for row in reader:
                rows += 1
                t, x, action, reward, e_regret, cum = (float(row[i]) for i in cols)
                if t != rows:
                    problems.append(f"trace.csv: row {rows} has round {row[cols[0]]}")
                elif not all(map(math.isfinite, (x, action, reward, e_regret, cum))):
                    problems.append(f"trace.csv: non-finite cell in round {rows}")
                elif e_regret < 0:
                    problems.append(f"trace.csv: negative e_regret in round {rows}")
                elif cum < last_cum:
                    problems.append(f"trace.csv: cum_e_regret decreases at round {rows}")
                else:
                    last_cum = cum
                    continue
                return
        if rows != self.horizon:
            problems.append(f"trace.csv: {rows} rows, expected {self.horizon}")


# ---------------------------------------------------------------------------
# linucb_suite
#
# Why: one `harness.run_suite` call in the criterion-5 configuration.  It
# exercises env, the harness loop and LinUCB, and never reaches the kernel,
# the epoch schedule, the oracle, diag or the CSV writers: it is the
# "should not move" workload for changes to those.  Criterion 5 uses 50
# replications; 5 keep one operation short enough for a run to hold several
# operations, each between two reference operations.
# ---------------------------------------------------------------------------

LINUCB_CONFIG = """\
env.kind = step_function
agent.name = lin_ucb
agent.batch_size = 100
agent.alpha_ucb = 0.2
agent.ridge = 1.0
run.horizon = {horizon}
run.replications = {reps}
run.base_seed = {seed}
"""


class LinucbSuite:
    name = "linucb_suite"
    horizon = 10_000
    replications = 5
    unit = "round"
    units_per_op = horizon * replications
    ref_op_s = 1.6
    ref_setup_s = 0.25

    def __init__(self, seed: int, workdir: str, package: str):
        (self.harness,) = _modules(package, "harness")
        path = os.path.join(workdir, "linucb.cfg")
        _write(path, LINUCB_CONFIG.format(horizon=self.horizon, reps=self.replications,
                                          seed=seed))
        self.config = self.harness.load_config(path)

    def op(self):
        return self.harness.run_suite(self.config)

    def check(self, summary) -> Outcome:
        out = Outcome()
        arrays = [summary.mean_e_regret, summary.se_e_regret,
                  summary.mean_cum_e_regret, summary.se_cum_e_regret]
        digest = hashlib.sha256()
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=float)
            digest.update(a.tobytes())
            if a.shape != (self.horizon,):
                out.problems.append(f"summary array of shape {a.shape}, expected ({self.horizon},)")
            elif not np.isfinite(a).all() or (a < 0).any():
                out.problems.append("summary array not finite and nonnegative")
        if summary.replications != self.replications:
            out.problems.append(f"{summary.replications} replications, expected {self.replications}")
        out.digest = digest.hexdigest()
        return out


# ---------------------------------------------------------------------------
# oracle_refit
#
# Why: the end-of-epoch constrained refit alone, at active sizes 1e4, 1e5
# and 4e5.  linmodel does about 90% of the work here against about 8% in
# falcon_run, so a faster oracle must show here without costing falcon_run's
# per-round appends.  The timed operation appends the rows into fresh
# batches and fits, so cost moved between append and fit shows in one
# number.
#
# Inputs follow criterion 1: active rows come from the best-fit policy on
# the sensitivity family (theta = 0.05, noise 0.1), on which the
# unconstrained fit collapses and the constraint binds; passive rows use
# uniform arms at an epsilon = 0.1 share.  The slack is the agent's budget
# formula at the epoch holding these rows, with C1 = 1, delta = 0.1,
# comp = 4, rho = 1, rho' = 0.
# ---------------------------------------------------------------------------

THETA = 0.05
NOISE_SD = 0.1
EPSILON = 0.1
DELTA = 0.1
COMP = 4.0
TOL = 1e-6
SIZES = (("n1e4", 10_000), ("n1e5", 100_000), ("n4e5", 400_000))


# Closed forms of the family: arm 1 pays 0.1 below x = 1 - theta and 1 above,
# arm 2 is the line 1 + SLOPE2 * x, and arm 1's best uniform-design linear
# fit is INTERCEPT1 + SLOPE1 * x.
SLOPE1 = 5.4 * THETA * (1.0 - THETA)
INTERCEPT1 = 0.1 + 0.9 * THETA - 2.7 * THETA * (1.0 - THETA)
SLOPE2 = (INTERCEPT1 + SLOPE1 * (1.0 - THETA) - 1.0) / (1.0 - THETA)


def _mean_reward(x: np.ndarray, arm: np.ndarray) -> np.ndarray:
    return np.where(arm == 1, np.where(x <= 1.0 - THETA, 0.1, 1.0), 1.0 + SLOPE2 * x)


def _best_fit_arm(x: np.ndarray) -> np.ndarray:
    # ties go to the lower arm index, as in the package
    return np.where(INTERCEPT1 + SLOPE1 * x >= 1.0 + SLOPE2 * x, 1, 2)


def _rows(rng, n: int, policy: str) -> tuple[list, list, list]:
    x = rng.random(n)
    arm = _best_fit_arm(x) if policy == "best_fit" else rng.integers(1, 3, size=n)
    reward = _mean_reward(x, arm) + NOISE_SD * rng.standard_normal(n)
    return x.tolist(), arm.tolist(), reward.tolist()


def _passive_rows(n_active: int) -> int:
    """Passive rows beside n_active active ones at an epsilon share."""
    return math.ceil(EPSILON * n_active / (1.0 - EPSILON))


def agent_slack(n_active: int, n_passive: int) -> float:
    """The agent's constraint budget at the first epoch long enough to hold
    the rows: C1 * ln(12 m^2 / delta) * comp / n_passive (rho = 1, rho' = 0).
    With tau1 = 4, epoch m >= 2 has 2^m rounds."""
    m = max(2, math.ceil(math.log2(n_active + n_passive)))
    return math.log(12.0 * m * m / DELTA) * COMP / n_passive


@dataclass
class Refit:
    label: str
    active: object
    passive: object
    model: object
    report: object
    fit_s: float


class OracleRefit:
    name = "oracle_refit"
    unit = "row"
    units_per_op = sum(n + _passive_rows(n) for _, n in SIZES)
    ref_op_s = 3.6
    ref_setup_s = 0.35

    def __init__(self, seed: int, workdir: str, package: str):
        (self.linmodel,) = _modules(package, "linmodel")
        self.inputs = []
        for i, (label, n) in enumerate(SIZES):
            rng = np.random.Generator(np.random.Philox([seed, i]))
            n_passive = _passive_rows(n)
            self.inputs.append((label, _rows(rng, n, "best_fit"),
                                _rows(rng, n_passive, "uniform"),
                                agent_slack(n, n_passive)))

    def op(self):
        linmodel = self.linmodel
        refits = []
        for label, active_rows, passive_rows, slack in self.inputs:
            active = linmodel.DataBatch(2, 1)
            passive = linmodel.DataBatch(2, 1)
            for batch, rows in ((active, active_rows), (passive, passive_rows)):
                append = batch.append
                for x, a, r in zip(*rows):
                    append(x, a, r)
            t0 = time.perf_counter()
            model, report = linmodel.constrained_fit(
                active, linmodel.ConstraintSpec(passive, slack), tol=TOL)
            refits.append(Refit(label, active, passive, model, report,
                                time.perf_counter() - t0))
        return refits

    def check(self, refits) -> Outcome:
        out = Outcome()
        digest = hashlib.sha256()
        for fit in refits:
            rep = fit.report
            if not rep.converged:
                out.problems.append(f"{fit.label}: dual did not converge")
            if not rep.constraint_residual <= TOL:
                out.problems.append(f"{fit.label}: constraint residual "
                                    f"{rep.constraint_residual:.3g} > {TOL}")
            again = self.linmodel.fit_weighted(fit.active, fit.passive, rep.lam)
            if again.weights.tobytes() != fit.model.weights.tobytes():
                out.problems.append(f"{fit.label}: model differs from fit_weighted at lambda")
            weights = np.ascontiguousarray(fit.model.weights, dtype=float)
            digest.update(fit.label.encode() + weights.tobytes() + float(rep.lam).hex().encode())
            out.counters[f"s_{fit.label}"] = fit.fit_s
            out.counters[f"lambda_{fit.label}"] = float(rep.lam)
            out.counters[f"weighted_fits_{fit.label}"] = rep.n_weighted_fits
        out.digest = digest.hexdigest()
        return out


WORKLOADS = {w.name: w for w in (FalconRun, LinucbSuite, OracleRefit)}
