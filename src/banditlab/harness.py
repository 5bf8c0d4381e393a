"""Experiment runner: configuration, single runs, multi-seed suites, and
flat-file artifacts.

A run is fully determined by (config, seed).  The seed feeds a
SeedSequence that is split into three independent Philox streams -- one
for the environment, which splits it again into a context and a noise
child, one for the agent's arm draws, one for the run's one Monte Carlo
diagnostics sample -- so adding diagnostics never perturbs the trajectory.

``run_many`` plays R seeds in lockstep through one agent and one
``Environment`` that each hold R replications.  Each step draws up to
``ROUNDS_PER_DRAW // R`` rounds of one epoch for all R at once (one call to
each replication's context and noise child) and plays those rounds in
blocks under one frozen policy per replication: the agent takes (R, n) or
(R, n, d) contexts and returns (R, n) arms, and the rewards and regrets of
all R come from the stacked (R, n, K) draws.  ``run_one`` is its one-seed
case plus diagnostics.
Replication r of a suite uses seed base_seed + r, which makes every
replication independent of how many others are requested, and
``run_suite`` plays ``REPLICATIONS_PER_CHUNK`` of them at a time: a
replication's trace does not depend on which others share its chunk.

Artifacts are plain CSV, every file written by ``write_csv``.  A run's
record takes one path: ``run_artifacts`` turns the config and the weights
in force in each epoch into what the inequality suite reads, and
``run_lemmas``, the diagnostics pass, sets every ``mse_to_fhatstar`` and
runs the suite on one sample from the seed's diagnostics stream.
``run_one`` feeds them the agent's refits, ``reanalyze_run_dir``
(``banditlab diag``) the stored ``weights.csv`` and ``config.txt``, so
``diag`` reproduces the run's ``lemmas.csv`` byte for byte.  Schemas:

* trace:   t,epoch,phase,x,action,reward,e_regret,cum_e_regret
* epochs:  m,tau_start,tau_end,gamma,alpha,slack,lambda_star,duality_gap,mse_to_fhatstar
* weights: m,arm,w0,w1,...   (model in force during epoch m)

Config files are flat ``key = value`` lines; ``#`` starts a comment.  Each
row of ``CONFIG_KEYS`` is one key, in file order, with the field it sets,
its parser and its allowed interval: parsing, serialisation, validation and
README's table of keys all follow it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from itertools import chain
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import diag as diagmod
from . import env as envmod
from .diag import LemmaCheck, RegretTrace, RunArtifacts
from .env import Environment, EnvSpec, draw_contexts, interval_errors, make_generator
from .falcon import (EpochEvent, EpochSchedule, EpsilonFalconAgent, LinUCBAgent,
                     RateParams, UniformAgent, gamma_for_epoch)
from .linmodel import LinearModel, row_max_argmax

AGENT_NAMES = ("epsilon_falcon", "falcon", "lin_ucb", "uniform")

TRACE_HEADER = "t,epoch,phase,x,action,reward,e_regret,cum_e_regret"
EPOCHS_HEADER = "m,tau_start,tau_end,gamma,alpha,slack,lambda_star,duality_gap,mse_to_fhatstar"
SUMMARY_HEADER = "t,mean_e_regret,se_e_regret,mean_cum_e_regret,se_cum_e_regret"
COMPARE_HEADER = "checkpoint,config,agent,cum_e_regret_mean,cum_e_regret_se"
LEMMAS_HEADER = "name,epoch,lhs,rhs,se,passed,note"

# rounds drawn and played per step of the run loop (over all replications
# played in lockstep), replications played in lockstep by a suite, and trace
# rows formatted per write: they bound the working memory of a run, of a
# suite and of a trace file
ROUNDS_PER_DRAW = 4096
REPLICATIONS_PER_CHUNK = 16
TRACE_ROWS_PER_WRITE = 1024


class ConfigError(ValueError):
    """Invalid configuration; ``errors`` lists offending fields."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


class ConfigMismatchError(ValueError):
    """compare() was given configs with different environments/horizons."""


def _auto_or_float(text: str) -> Optional[float]:
    return None if text == "auto" else float(text)


# one row per config-file key, in file order: (key, EnvSpec or RunConfig
# field, parser, allowed interval or None)
CONFIG_KEYS = envmod.ENV_KEYS + (
    ("agent.name", "agent", str, None),
    ("agent.epsilon", "epsilon", float, "[0, 0.5)"),
    ("agent.delta", "delta", float, "(0, 0.5]"),
    ("agent.tau1", "tau1", int, "[4, inf)"),
    ("agent.c1", "c1", float, "(0, inf)"),
    ("agent.c3", "c3", float, "(0, inf)"),
    ("agent.rho", "rho", float, "(0, 1]"),
    ("agent.rho_prime", "rho_prime", float, "[0, inf)"),
    ("agent.comp", "comp", _auto_or_float, "(0, inf)"),
    ("agent.alpha_ucb", "alpha_ucb", float, "(-inf, inf)"),
    ("agent.ridge", "ridge", float, "(0, inf)"),
    ("agent.batch_size", "batch_size", int, "[1, inf)"),
    ("run.horizon", "horizon", int, "[1, inf)"),
    ("run.replications", "replications", int, "[1, inf)"),
    ("run.base_seed", "base_seed", int, "[0, inf)"),
    # the diagnostics' standard errors need two samples
    ("run.mc_samples", "mc_samples", int, "[2, inf)"),
    ("run.out_dir", "out_dir", str, None),
)


@dataclass
class RunConfig:
    env: EnvSpec = field(default_factory=EnvSpec)
    agent: str = "epsilon_falcon"
    epsilon: float = 0.1
    delta: float = 0.1
    tau1: int = 4
    c1: float = 1.0
    c3: float = 1.0
    rho: float = 1.0
    rho_prime: float = 0.0
    comp: Optional[float] = None      # None: total parameter count K*(d+1)
    alpha_ucb: float = 0.2
    ridge: float = 1.0
    batch_size: int = 100
    horizon: int = 1000
    replications: int = 1
    base_seed: int = 0
    mc_samples: int = 100_000
    out_dir: Optional[str] = None

    def validation_errors(self) -> list[str]:
        errs = self.env.validation_errors()
        if self.agent not in AGENT_NAMES:
            errs.append(f"agent.name: unknown agent {self.agent!r}")
        for key, name, _, allowed in CONFIG_KEYS:
            if not key.startswith("env."):  # EnvSpec checks its own rows
                errs += interval_errors(key, getattr(self, name), allowed)
        return errs

    def validate(self) -> None:
        errs = self.validation_errors()
        if errs:
            raise ConfigError(errs)

    def rate_params(self) -> RateParams:
        comp = self.comp
        if comp is None:
            comp = float(self.env.num_arms * (self.env.context_dim + 1))
        return RateParams(rho=self.rho, rho_prime=self.rho_prime, comp=comp,
                          C1=self.c1, C3=self.c3, delta=self.delta)


# ---------------------------------------------------------------------------
# config file format
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def serialize_config(config: RunConfig) -> str:
    lines = []
    for key, name, parse, _ in CONFIG_KEYS:
        value = getattr(config.env if key.startswith("env.") else config, name)
        if value is not None:
            lines.append(f"{key} = {_fmt(value)}")
        elif parse is _auto_or_float:
            lines.append(f"{key} = auto")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value format; raises ConfigError with field names
    on anything unreadable, repeated or invalid.  A key left out keeps its
    field's default."""
    raw: dict[str, tuple[int, str]] = {}  # key: (line number, value)
    errs: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errs.append(f"line {lineno}: expected key = value")
            continue
        key, val = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            errs.append(f"{key}: repeated on lines {raw[key][0]} and {lineno}")
        raw.setdefault(key, (lineno, val))
    if errs:
        raise ConfigError(errs)

    env_kwargs, kwargs = {}, {}
    for key, name, parse, _ in CONFIG_KEYS:
        if key in raw:
            val = raw.pop(key)[1]
            try:
                (env_kwargs if key.startswith("env.") else kwargs)[name] = parse(val)
            except (ValueError, KeyError):
                errs.append(f"{key}: cannot parse {val!r}")
    for key in raw:
        errs.append(f"{key}: unknown key")
    if errs:
        raise ConfigError(errs)
    # EnvSpec raises once built: check every env rule on the plain fields,
    # and the other sections on a config with the default spec, so that one
    # ConfigError lists the errors of every section
    env_fields = SimpleNamespace(**{**vars(EnvSpec()), **env_kwargs})
    config = RunConfig(**kwargs)
    errs = EnvSpec.validation_errors(env_fields) + config.validation_errors()
    if errs:
        raise ConfigError(errs)
    return replace(config, env=EnvSpec(**env_kwargs))


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def save_config(config: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_config(config))


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------

def build_agent(config: RunConfig, replications: int = 1):
    """The config's agent, holding ``replications`` runs in lockstep."""
    spec = config.env
    K, dim = spec.num_arms, spec.context_dim
    if config.agent in ("epsilon_falcon", "falcon"):
        epsilon = 0.0 if config.agent == "falcon" else config.epsilon
        return EpsilonFalconAgent(K, dim, epsilon, EpochSchedule(config.tau1),
                                  config.rate_params(), replications=replications)
    if config.agent == "lin_ucb":
        return LinUCBAgent(K, dim, config.alpha_ucb, config.ridge, config.batch_size,
                           replications=replications)
    if config.agent == "uniform":
        return UniformAgent(K, dim)
    raise ConfigError([f"agent.name: unknown agent {config.agent!r}"])


@dataclass
class RunResult:
    config: RunConfig
    seed: int
    trace: RegretTrace
    events: list[EpochEvent]
    artifacts: RunArtifacts
    lemma_report: Optional[list[LemmaCheck]]


def run_many(config: RunConfig, seeds: list[int]) -> list[RunResult]:
    """Play ``horizon`` rounds under each seed, all replications in
    lockstep through one agent; one result per seed, in order, without
    diagnostics (``mse_to_best_fit`` stays nan, ``lemma_report`` None).

    Each replication draws from its own context, noise and agent streams
    exactly as a single run does, so its result does not depend on the
    other seeds.  A non-finite reward (``Environment.draw``), and after the
    last round a non-finite noisy-regret total or refit weight, is a
    FloatingPointError with the position in ``seeds`` of the first
    replication at fault as its ``replication`` attribute.
    """
    config.validate()
    R, spec, T = len(seeds), config.env, config.horizon
    streams = [np.random.SeedSequence(seed).spawn(3) for seed in seeds]
    env = Environment(spec, [env_ss for env_ss, _, _ in streams])
    agent_rngs = [make_generator(agent_ss) for _, agent_ss, _ in streams]
    agent = build_agent(config, R)
    schedule = EpochSchedule(config.tau1)
    is_falcon = isinstance(agent, EpsilonFalconAgent)

    K, dim = spec.num_arms, spec.context_dim
    xs = np.empty((R, T) if dim == 1 else (R, T, dim))
    epochs = np.empty(T, dtype=np.int64)
    phases = np.empty(T, dtype="<U7")
    actions = np.empty((R, T), dtype=np.int64)
    rewards = np.empty((R, T))
    e_regret = np.empty((R, T))
    noisy_total = np.zeros(R)

    # The environment's draws do not depend on the arms: draw up to
    # ROUNDS_PER_DRAW rounds of one epoch over all replications, then play
    # them block by block.
    t, step = 1, max(1, ROUNDS_PER_DRAW // R)
    while t <= T:
        epoch = schedule.epoch_of(t)
        lo, stop = t - 1, min(T, schedule.boundary(epoch), t + step - 1)
        n = stop - lo
        xs[:, lo:stop], means, rvec = env.draw(n)
        # replication r's reward at arm a in round i is flat[arm_base[r, i] + a]
        rmeans, flat = means.reshape(-1), rvec.reshape(-1)
        arm_base = (np.arange(R)[:, None] * n + np.arange(n)) * K - 1
        while t <= stop:
            end = agent.block_end(t, stop)
            i, j = t - 1 - lo, end - lo
            xb = xs[:, t - 1:end]
            phases[t - 1:end] = agent.phase_of(t) if is_falcon else "active"
            actions[:, t - 1:end] = a = agent.act_block(t, xb, agent_rngs)
            rewards[:, t - 1:end] = r = flat[arm_base[:, i:j] + a]
            agent.record_block(t, xb, a, r)
            t = end + 1
        best = arm_base + 1 + row_max_argmax(means.reshape(R * n, K))[1].reshape(R, n)
        chosen = arm_base + actions[:, lo:stop]
        epochs[lo:stop] = epoch
        e_regret[:, lo:stop] = rmeans[best] - rmeans[chosen]
        # summed round by round, like the cumulative regret
        noisy_total = np.cumsum(np.column_stack([noisy_total, flat[best] - rewards[:, lo:stop]]),
                                axis=1)[:, -1]

    # finite rewards can still overflow a sum, a refit or LinUCB's state;
    # checked after the loop, so a non-finite reward is reported first, with
    # its round
    state_ok = np.ones(R, dtype=bool)
    if isinstance(agent, LinUCBAgent):
        state = np.concatenate([agent.bvec.reshape(R, -1), agent.theta.reshape(R, -1)], axis=1)
        state_ok = np.isfinite(state).all(axis=1)
    started, results = schedule.epoch_of(T), []
    for r, seed in enumerate(seeds):
        events = agent.events[r] if is_falcon else []
        bad = [ev.m for ev in events if not np.isfinite(ev.new_weights).all()]
        problem = None
        if bad:
            problem = f"non-finite weights from the refit after epoch {bad[0]}"
        elif not math.isfinite(noisy_total[r]):
            problem = "non-finite noisy regret total"
        elif not state_ok[r]:
            problem = "non-finite LinUCB state (bvec or theta)"
        if problem:
            exc = FloatingPointError(problem)
            exc.replication = r
            raise exc
        trace = RegretTrace(np.arange(1, T + 1), epochs, phases, xs[r], actions[r], rewards[r],
                            e_regret[r], np.cumsum(e_regret[r]), float(noisy_total[r]))
        # in force during each epoch that started: the zero model, then each refit's
        weights = [np.zeros((K, dim + 1)), *(ev.new_weights for ev in events)][:started] \
            if is_falcon else []
        results.append(RunResult(config, seed, trace, events, run_artifacts(config, weights),
                                 None))
    return results


def run_one(config: RunConfig, seed: Optional[int] = None) -> RunResult:
    """Play ``horizon`` rounds of agent vs. environment under one seed: the
    one replication of ``run_many``, plus the diagnostics pass."""
    if seed is None:
        seed = config.base_seed
    result = run_many(config, [seed])[0]
    result.lemma_report = run_lemmas(config, seed, result.artifacts, result.events)
    return result


def run_artifacts(config: RunConfig, weights: list[np.ndarray]) -> RunArtifacts:
    """What the inequality suite reads of a run: the weights in force
    during each epoch that started, from the zero model on (none for the
    agents without epochs), with the gammas the schedule gives them."""
    schedule, rates = EpochSchedule(config.tau1), config.rate_params()
    gammas = [gamma_for_epoch(m, schedule, rates, config.env.num_arms)
              for m in range(1, len(weights) + 1)]
    epsilon = config.epsilon if config.agent == "epsilon_falcon" else None
    return RunArtifacts(config.env, [LinearModel(w) for w in weights], gammas,
                        epsilon=epsilon, rho=config.rho)


def run_lemmas(config: RunConfig, seed: int, artifacts: RunArtifacts,
               events: list[EpochEvent]) -> list[LemmaCheck]:
    """The diagnostics pass on ``min(mc_samples, 20_000)`` contexts from the
    first child of the seed's diagnostics stream: each event's
    ``mse_to_best_fit`` against the best-fit matrix, then the inequality
    suite, all on that one sample.  The report of a run and, from its
    directory, of ``reanalyze_run_dir``."""
    diag_ss = np.random.SeedSequence(seed).spawn(3)[2].spawn(1)[0]
    xs = draw_contexts(config.env, min(config.mc_samples, 20_000), make_generator(diag_ss))
    fit_preds = envmod.best_linear_fit_uniform(config.env).predict_rows(xs)
    for ev in events:
        ev.mse_to_best_fit = diagmod.mse_from(LinearModel(ev.new_weights).predict_matrix(xs),
                                              fit_preds).value
    return diagmod.lemma_suite(artifacts, xs, fit_preds)


@dataclass
class SuiteSummary:
    t: np.ndarray
    mean_e_regret: np.ndarray
    se_e_regret: np.ndarray
    mean_cum_e_regret: np.ndarray
    se_cum_e_regret: np.ndarray
    replications: int


def run_suite(config: RunConfig, order: Optional[list[int]] = None) -> SuiteSummary:
    """Run all replications, ``REPLICATIONS_PER_CHUNK`` at a time in
    lockstep, and aggregate per-round regret by replication index.
    ``order`` only changes which replications share a chunk and which
    chunk runs first; a replication's trace does not depend on either, and
    the aggregation is index-keyed, so any order produces the same summary.
    """
    config.validate()
    R = config.replications
    if order is None:
        order = list(range(R))
    if sorted(order) != list(range(R)):
        raise ValueError("order must be a permutation of range(replications)")
    per_rep: list[Optional[np.ndarray]] = [None] * R
    for lo in range(0, R, REPLICATIONS_PER_CHUNK):
        chunk = order[lo:lo + REPLICATIONS_PER_CHUNK]
        try:
            results = run_many(config, [config.base_seed + r for r in chunk])
        except Exception as exc:
            # a failure shared by the whole chunk is charged to its first replication
            exc.add_note(f"replication {chunk[getattr(exc, 'replication', 0)]}")
            raise
        for r, res in zip(chunk, results):
            per_rep[r] = res.trace.e_regret
    e = np.stack(per_rep)
    cum = np.cumsum(e, axis=1)
    if R > 1:
        se = e.std(axis=0, ddof=1) / math.sqrt(R)
        cum_se = cum.std(axis=0, ddof=1) / math.sqrt(R)
    else:
        se = np.zeros(config.horizon)
        cum_se = np.zeros(config.horizon)
    return SuiteSummary(np.arange(1, config.horizon + 1), e.mean(axis=0), se,
                        cum.mean(axis=0), cum_se, R)


def checkpoints(horizon: int) -> list[int]:
    return sorted({max(1, horizon // 8), max(1, horizon // 4),
                   max(1, horizon // 2), horizon})


@dataclass
class CompareRow:
    checkpoint: int
    config_index: int
    agent: str
    cum_mean: float
    cum_se: float


@dataclass
class CompareTable:
    rows: list[CompareRow]

    def format_text(self) -> str:
        cps = sorted({r.checkpoint for r in self.rows})
        idxs = sorted({r.config_index for r in self.rows})
        by_key = {(r.config_index, r.checkpoint): r for r in self.rows}
        names = {i: by_key[(i, cps[0])].agent for i in idxs}
        header = "checkpoint" + "".join(f"  {names[i]}[{i}]".rjust(24) for i in idxs)
        lines = [header]
        for cp in cps:
            cells = "".join(
                f"  {by_key[(i, cp)].cum_mean:.3f} +- {by_key[(i, cp)].cum_se:.3f}".rjust(24)
                for i in idxs)
            lines.append(f"{cp:>10}" + cells)
        return "\n".join(lines)


def compare(configs: list[RunConfig]) -> CompareTable:
    """Cumulative expected regret at {T/8, T/4, T/2, T} for each config.

    All configs must share the environment and the horizon.
    """
    if len(configs) < 2:
        raise ConfigMismatchError("compare needs at least two configs")
    first = configs[0]
    for i, cfg in enumerate(configs[1:], start=1):
        if cfg.env != first.env:
            raise ConfigMismatchError(f"config {i} has a different env than config 0")
        if cfg.horizon != first.horizon:
            raise ConfigMismatchError(f"config {i} has a different horizon than config 0")
    cps = checkpoints(first.horizon)
    rows: list[CompareRow] = []
    for i, cfg in enumerate(configs):
        summary = run_suite(cfg)
        for cp in cps:
            rows.append(CompareRow(cp, i, cfg.agent,
                                   float(summary.mean_cum_e_regret[cp - 1]),
                                   float(summary.se_cum_e_regret[cp - 1])))
    return CompareTable(rows)


# ---------------------------------------------------------------------------
# flat-file artifacts
# ---------------------------------------------------------------------------

def write_csv(path: str, header: str, row: str, columns) -> None:
    """``header``, then one line per row of the equal-length ``columns``,
    formatted by ``row``, a template of one ``%`` cell format per column.
    Rows are formatted and written ``TRACE_ROWS_PER_WRITE`` at a time (which
    bounds the memory the text takes), each chunk by one ``%`` of the
    template repeated over its rows."""
    step = TRACE_ROWS_PER_WRITE
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), step):
            chunk = [np.asarray(col)[lo:lo + step].tolist() for col in columns]
            fh.write((row + "\n") * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk))))


def write_trace_csv(trace: RegretTrace, path: str) -> None:
    """One line per round; a d-dimensional context is one cell of d
    ``;``-separated values."""
    x = np.asarray(trace.x)
    x_cols = [x] if x.ndim == 1 else list(x.T)
    write_csv(path, TRACE_HEADER,
              "%d,%d,%s," + ";".join(["%.17g"] * len(x_cols)) + ",%d,%.17g,%.17g,%.17g",
              (trace.t, trace.epoch, trace.phase, *x_cols, trace.action, trace.reward,
               trace.e_regret, trace.cum_e_regret))


def write_events_csv(events: list[EpochEvent], path: str) -> None:
    names = ("m", "tau_start", "tau_end", "gamma", "alpha", "slack", "lambda_star",
             "duality_gap", "mse_to_best_fit")
    write_csv(path, EPOCHS_HEADER, "%d,%d,%d" + ",%.17g" * 6,
              [[getattr(ev, name) for ev in events] for name in names])


def write_weights_csv(artifacts: RunArtifacts, path: str) -> None:
    """One line per (epoch, arm); with no models, the header of the run's d."""
    M, K, p = len(artifacts.models), artifacts.spec.num_arms, artifacts.spec.context_dim + 1
    W = np.array([model.weights for model in artifacts.models]).reshape(M * K, p)
    write_csv(path, "m,arm," + ",".join(f"w{j}" for j in range(p)), "%d,%d" + ",%.17g" * p,
              [np.repeat(np.arange(1, M + 1), K), np.tile(np.arange(1, K + 1), M), *W.T])


def write_lemmas_csv(report: list[LemmaCheck], path: str) -> None:
    write_csv(path, LEMMAS_HEADER, "%s,%s,%.17g,%.17g,%.17g,%d,%s",
              [[c.name for c in report], ["" if c.epoch is None else c.epoch for c in report],
               [c.lhs for c in report], [c.rhs for c in report], [c.se for c in report],
               [c.passed for c in report], [c.note for c in report]])


def write_summary_csv(summary: SuiteSummary, path: str) -> None:
    write_csv(path, SUMMARY_HEADER, "%d" + ",%.17g" * 4,
              (summary.t, summary.mean_e_regret, summary.se_e_regret,
               summary.mean_cum_e_regret, summary.se_cum_e_regret))


def write_compare_csv(table: CompareTable, path: str) -> None:
    names = ("checkpoint", "config_index", "agent", "cum_mean", "cum_se")
    write_csv(path, COMPARE_HEADER, "%d,%d,%s,%.17g,%.17g",
              [[getattr(row, name) for row in table.rows] for name in names])


def write_run_dir(result: RunResult, out_dir: str) -> None:
    """One directory per ``run_one`` result: trace, epoch events, model
    weights, lemma checks, and the resolved config (which `diag` uses to
    re-analyze)."""
    os.makedirs(out_dir, exist_ok=True)
    save_config(replace(result.config, base_seed=result.seed),
                os.path.join(out_dir, "config.txt"))
    write_trace_csv(result.trace, os.path.join(out_dir, "trace.csv"))
    write_events_csv(result.events, os.path.join(out_dir, "epochs.csv"))
    write_weights_csv(result.artifacts, os.path.join(out_dir, "weights.csv"))
    write_lemmas_csv(result.lemma_report, os.path.join(out_dir, "lemmas.csv"))


def read_weights_csv(path: str) -> list[np.ndarray]:
    """Inverse of write_weights_csv: per-epoch weight matrices."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [[float(c) for c in ln.split(",")] for ln in fh.read().splitlines()[1:] if ln]
    by_epoch: dict[float, list[list[float]]] = {}
    for m, _, *w in rows:  # written epoch by epoch, arm by arm
        by_epoch.setdefault(m, []).append(w)
    return [np.array(ws) for ws in by_epoch.values()]


def reanalyze_run_dir(run_dir: str) -> list[LemmaCheck]:
    """Re-run the inequality suite from a stored run directory: the stored
    weights and config (whose ``base_seed`` is the run's seed) rebuild the
    run's artifacts and its diagnostics stream, so the report equals the
    run's own."""
    config = load_config(os.path.join(run_dir, "config.txt"))
    weights = read_weights_csv(os.path.join(run_dir, "weights.csv"))
    return run_lemmas(config, config.base_seed, run_artifacts(config, weights), [])
