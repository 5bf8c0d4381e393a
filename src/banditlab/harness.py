"""Experiment runner: configs, runs, suites, comparisons.

A run is fully determined by (config, seed).  The seed feeds a
SeedSequence that is split into three independent Philox streams -- one
for the environment, which splits it again into a context and a noise
child, one for the agent's arm draws, one for the run's one Monte Carlo
diagnostics sample -- so adding diagnostics never perturbs the trajectory.

``run_many`` plays R seeds in lockstep through one agent and one
``Environment`` that each hold R replications.  Each step draws up to
``ROUNDS_PER_DRAW // R`` rounds for all R at once (one call to each
replication's context and noise child), within one epoch for an epoch
agent and in whole refresh batches for LinUCB when a batch fits, and plays
those rounds in blocks under one frozen policy per replication: the agent
takes (R, n) or (R, n, d) contexts and returns (R, n) arms, and the
rewards and regrets of all R come from the stacked (R, n, K) draws.
``run_one`` is its one-seed case plus diagnostics.
Replication r of a suite uses seed base_seed + r, which makes every
replication independent of how many others are requested, and
``run_suite`` plays ``REPLICATIONS_PER_CHUNK`` of them at a time: a
replication's trace does not depend on which others share its chunk.
``csvio`` writes their artifacts.

Config files are flat ``key = value`` lines; ``#`` starts a comment.  Each
row of ``CONFIG_KEYS`` is one key, in file order, with the field it sets,
its parser and its allowed interval: parsing, serialisation, validation and
README's table of keys all follow it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import diag as diagmod
from .diag import LemmaCheck, RegretTrace, cumsum_after
from .env import (ENV_KEYS, Environment, EnvSpec, draw_contexts, interval_errors,
                  make_generator, python_numbers)
from .falcon import (AGENT_KEYS, EpochEvent, EpochSchedule, EpsilonFalconAgent, LinUCBAgent,
                     RateParams, UniformAgent, _auto_or_float, gamma_for_epoch)
from .linmodel import LinearModel, check_finite, row_max_argmax

AGENT_NAMES = ("epsilon_falcon", "falcon", "lin_ucb", "uniform")

# rounds drawn and played per step of the run loop (over all replications
# played in lockstep) and replications played in lockstep by a suite: they
# bound the working memory of a run and of a suite
ROUNDS_PER_DRAW = 4096
REPLICATIONS_PER_CHUNK = 16
# rounds of a suite's summary aggregated per block: it bounds the summary's
# working memory
ROUNDS_PER_SUMMARY_BLOCK = 4096


class ConfigError(ValueError):
    """Invalid configuration; ``errors`` lists offending fields."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


class ConfigMismatchError(ValueError):
    """compare() was given configs with different environments/horizons."""


# one row per config-file key, in file order: (key, EnvSpec or RunConfig
# field, parser, allowed interval or None)
CONFIG_KEYS = ENV_KEYS + (("agent.name", "agent", str, None),) + AGENT_KEYS + (
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

    def __post_init__(self):
        python_numbers(self)

    def validation_errors(self) -> list[str]:
        errs = self.env.validation_errors()
        if self.agent not in AGENT_NAMES:
            errs.append(f"agent.name: unknown agent {self.agent!r}")
        # EnvSpec checks its own rows
        errs += interval_errors(CONFIG_KEYS[len(ENV_KEYS):], vars(self))
        out = self.out_dir  # as the config file would hold it: one line, no comment
        if isinstance(out, str) and (out != out.strip() or "#" in out or len(out.splitlines()) > 1):
            errs.append("run.out_dir: must hold no '#', line break or leading or trailing blank")
        return errs

    def validate(self) -> None:
        errs = self.validation_errors()
        if errs:
            raise ConfigError(errs)

    def rate_params(self) -> RateParams:
        """The rate constants; ``comp = auto`` (None) is K * (d + 1) here alone."""
        spec = self.env
        comp = float(spec.num_arms * (spec.context_dim + 1)) if self.comp is None else self.comp
        return RateParams(rho=self.rho, rho_prime=self.rho_prime, comp=comp, C1=self.c1,
                          C3=self.c3, delta=self.delta)


# ---------------------------------------------------------------------------
# config file format
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, np.generic):  # a numpy scalar set on a config after it was built
        v = v.item()
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

def passive_share(config: RunConfig) -> float:
    """The share of each epoch played passively: ``epsilon`` for
    ``epsilon_falcon``, 0 for every other agent (``falcon`` included)."""
    return config.epsilon if config.agent == "epsilon_falcon" else 0.0


def epochs_started(config: RunConfig) -> int:
    """The epochs a run of ``config`` starts (none for LinUCB and uniform)."""
    if config.agent in ("epsilon_falcon", "falcon"):
        return EpochSchedule(config.tau1).epoch_of(config.horizon)
    return 0


def build_agent(config: RunConfig, replications: int = 1):
    """The config's agent, holding ``replications`` runs in lockstep."""
    spec = config.env
    K, dim = spec.num_arms, spec.context_dim
    if config.agent in ("epsilon_falcon", "falcon"):
        return EpsilonFalconAgent(K, dim, rates=config.rate_params(), epsilon=passive_share(config),
                                  schedule=EpochSchedule(config.tau1), replications=replications)
    if config.agent == "lin_ucb":
        return LinUCBAgent(K, dim, alpha_ucb=config.alpha_ucb, ridge=config.ridge,
                           batch_size=config.batch_size, replications=replications)
    if config.agent == "uniform":
        return UniformAgent(K, dim)
    raise ConfigError([f"agent.name: unknown agent {config.agent!r}"])


@dataclass
class RunResult:
    config: RunConfig
    seed: int
    trace: RegretTrace
    events: list[EpochEvent]
    models: list[LinearModel]  # in force in each epoch started: zero, then refits' new_model
    lemma_report: Optional[list[LemmaCheck]]


def run_many(config: RunConfig, seeds: list[int]) -> list[RunResult]:
    """Play ``horizon`` rounds under each seed, all replications in
    lockstep through one agent; one result per seed, in order, without
    diagnostics (``mse_to_best_fit`` stays nan, ``lemma_report`` None).

    Each replication draws from its own context, noise and agent streams
    exactly as a single run does, so its result does not depend on the
    other seeds.  Each number is checked where it is made, and the first
    that is not finite stops the run: a reward (``Environment.draw``), a
    refit's moments, weights or dual report, LinUCB's ``theta`` after a
    refresh or its scores in a block, the noisy-regret total after each
    draw and LinUCB's ``bvec`` after the last round.  Each is a
    FloatingPointError with the position in ``seeds`` of the first
    replication at fault as its ``replication`` attribute.
    """
    return _run_many(config, seeds, keep_data=True)


def _run_many(config: RunConfig, seeds: list[int], keep_data: bool) -> list[RunResult]:
    """``run_many``; without ``keep_data`` each trace keeps ``e_regret``
    alone (x, action and reward are None), which is all a suite reads."""
    config.validate()
    R, spec, T = len(seeds), config.env, config.horizon
    streams = [np.random.SeedSequence(seed).spawn(3) for seed in seeds]
    env = Environment(spec, [env_ss for env_ss, _, _ in streams])
    agent_rngs = [make_generator(agent_ss) for _, agent_ss, _ in streams]
    agent = build_agent(config, R)
    schedule = EpochSchedule(config.tau1)
    is_falcon = isinstance(agent, EpsilonFalconAgent)

    K, dim = spec.num_arms, spec.context_dim
    if keep_data:
        xs = np.empty((R, T) if dim == 1 else (R, T, dim))
        actions = np.empty((R, T), dtype=np.int64)
        rewards = np.empty((R, T))
    e_regret = np.empty((R, T))
    noisy_total = np.zeros(R)

    # The environment's draws do not depend on the arms: draw up to
    # ROUNDS_PER_DRAW rounds over all replications, then play them block by
    # block.  An epoch agent's draw stops at its epoch's end, so a refit
    # that fails is reported before the next epoch's rewards; LinUCB's
    # draw holds whole refresh batches when a batch fits in one.
    t, step = 1, max(1, ROUNDS_PER_DRAW // R)
    if isinstance(agent, LinUCBAgent) and step >= agent.batch_size:
        step -= step % agent.batch_size
    while t <= T:
        lo, stop = t - 1, min(T, t + step - 1)
        if is_falcon:
            stop = min(stop, schedule.boundary(schedule.epoch_of(t)))
        n = stop - lo
        x_n, means, rvec = env.draw(n)
        a_n, r_n = np.empty((R, n), dtype=np.int64), np.empty((R, n))
        # replication r's reward at arm a in round i is flat[arm_base[r, i] + a]
        rmeans, flat = means.reshape(-1), rvec.reshape(-1)
        arm_base = (np.arange(R)[:, None] * n + np.arange(n)) * K - 1
        while t <= stop:
            end = agent.block_end(t, stop)
            i, j = t - 1 - lo, end - lo
            a_n[:, i:j] = a = agent.act_block(t, x_n[:, i:j], agent_rngs)
            r_n[:, i:j] = r = flat[arm_base[:, i:j] + a]
            agent.record_block(t, x_n[:, i:j], a, r)
            t = end + 1
        best = arm_base + 1 + row_max_argmax(means.reshape(R * n, K))[1].reshape(R, n)
        e_regret[:, lo:stop] = rmeans[best] - rmeans[arm_base + a_n]
        # summed round by round, like the cumulative regret, and checked
        # after each draw, so an overflowed total stops the run there
        with np.errstate(over="ignore", invalid="ignore"):
            noisy_total = cumsum_after(flat[best] - r_n, noisy_total)[:, -1]
        check_finite(noisy_total, "non-finite noisy regret total")
        if keep_data:
            xs[:, lo:stop], actions[:, lo:stop], rewards[:, lo:stop] = x_n, a_n, r_n

    if isinstance(agent, LinUCBAgent):  # bvec can overflow after the last refresh's check
        check_finite(agent.bvec, "non-finite LinUCB state (bvec or theta)")
    started, results = epochs_started(config), []
    for r, seed in enumerate(seeds):
        events = agent.events[r] if is_falcon else []
        data = (xs[r], actions[r], rewards[r]) if keep_data else (None, None, None)
        trace = RegretTrace(*data, e_regret[r], config.tau1, passive_share(config),
                            float(noisy_total[r]))
        models = [LinearModel(np.zeros((K, dim + 1))), *(ev.new_model for ev in events)][:started]
        results.append(RunResult(config, seed, trace, events, models, None))
    return results


def run_one(config: RunConfig, seed: Optional[int] = None) -> RunResult:
    """Play ``horizon`` rounds of agent vs. environment under one seed: the
    one replication of ``run_many``, plus the diagnostics pass."""
    if seed is None:
        seed = config.base_seed
    result = run_many(config, [seed])[0]
    result.lemma_report = run_lemmas(config, seed, result.models, result.events)
    return result


def run_lemmas(config: RunConfig, seed: int, models: list[LinearModel],
               events: list[EpochEvent]) -> list[LemmaCheck]:
    """The diagnostics pass on ``min(mc_samples, 20_000)`` contexts from the
    first child of the seed's diagnostics stream: the inequality suite over
    ``models`` (in force in epochs 1, 2, ..., each with its epoch's gamma)
    and each event's ``mse_to_best_fit`` against the best fit, all on that
    one sample.  The report of a run and, from its directory, of
    ``csvio.reanalyze_run_dir``."""
    schedule, rates = EpochSchedule(config.tau1), config.rate_params()
    gammas = [gamma_for_epoch(m, schedule, rates, config.env.num_arms)
              for m in range(1, len(models) + 1)]
    diag_ss = np.random.SeedSequence(seed).spawn(3)[2].spawn(1)[0]
    xs = draw_contexts(config.env, min(config.mc_samples, 20_000), make_generator(diag_ss))
    with np.errstate(over="ignore", invalid="ignore"):  # lemma_suite checks what it reports
        return diagmod.lemma_suite(config.env, models, gammas, xs, events)


@dataclass
class SuiteSummary:
    t: np.ndarray
    mean_e_regret: np.ndarray
    se_e_regret: np.ndarray
    mean_cum_e_regret: np.ndarray
    se_cum_e_regret: np.ndarray
    replications: int


def run_suite(config: RunConfig) -> SuiteSummary:
    """Run all replications, ``REPLICATIONS_PER_CHUNK`` at a time in
    lockstep, and aggregate per-round regret by replication index; a
    replication's trace does not depend on which others share its chunk.

    Each replication keeps only its ``e_regret``.  The summary is built in
    blocks of rounds, each block's cumulative regret continued from the
    last column of the block before, in the bits of the whole-array
    ``mean``, ``std(ddof=1)`` and ``cumsum``.
    """
    config.validate()
    R, T = config.replications, config.horizon
    e_rows: list[np.ndarray] = []
    for lo in range(0, R, REPLICATIONS_PER_CHUNK):
        chunk = range(lo, min(R, lo + REPLICATIONS_PER_CHUNK))
        try:
            results = _run_many(config, [config.base_seed + r for r in chunk], keep_data=False)
        except Exception as exc:
            # a failure shared by the whole chunk is charged to its first replication
            exc.add_note(f"replication {chunk[getattr(exc, 'replication', 0)]}")
            raise
        e_rows += [res.trace.e_regret for res in results]
    mean, se, cum_mean, cum_se = (np.zeros(T) for _ in range(4))
    # blocks of 2 to ROUNDS_PER_SUMMARY_BLOCK + 1 rounds (T = 1 aside):
    # numpy reduces a block of one column in another order
    edges = [*range(0, max(T - 1, 1), max(2, ROUNDS_PER_SUMMARY_BLOCK)), T]
    cum_end = None
    for lo, hi in zip(edges, edges[1:]):
        e = np.stack([row[lo:hi] for row in e_rows])
        cum = cumsum_after(e, cum_end)
        cum_end = cum[:, -1]
        for block, block_mean, block_se in ((e, mean, se), (cum, cum_mean, cum_se)):
            block_mean[lo:hi] = block.mean(axis=0)
            if R > 1:
                block_se[lo:hi] = block.std(axis=0, ddof=1) / math.sqrt(R)
    return SuiteSummary(np.arange(1, T + 1), mean, se, cum_mean, cum_se, R)


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

    All configs must share the environment and the horizon.  An exception
    from a config's suite leaves noting its index, ``config i``.
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
        try:
            summary = run_suite(cfg)
        except Exception as exc:
            exc.add_note(f"config {i}")
            raise
        for cp in cps:
            rows.append(CompareRow(cp, i, cfg.agent,
                                   float(summary.mean_cum_e_regret[cp - 1]),
                                   float(summary.se_cum_e_regret[cp - 1])))
    return CompareTable(rows)
