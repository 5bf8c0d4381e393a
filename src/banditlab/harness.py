"""Experiment runner: configuration, single runs, multi-seed suites, and
flat-file artifacts.

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

Artifacts are plain CSV, every file written by ``write_csv`` in the bytes
of Python's ``%`` formatting.  A run's record takes one path:
``run_artifacts`` turns the config and the weights in force in each epoch
into what the inequality suite reads, and ``run_lemmas``, the diagnostics
pass, runs the suite and sets every ``mse_to_fhatstar`` on one sample from
the seed's diagnostics stream.
``run_one`` feeds them the agent's refits, ``reanalyze_run_dir``
(``banditlab diag``) the stored ``weights.csv`` and ``config.txt``, so
``diag`` reproduces the run's ``lemmas.csv`` byte for byte.  Schemas:

* trace:   t,epoch,phase,x,action,reward,e_regret,cum_e_regret
  (a run stores x, action, reward and e_regret, a suite e_regret alone;
  ``write_trace_csv`` makes t, epoch, phase and cum_e_regret chunk by chunk)
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
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import diag as diagmod
from . import env as envmod
from .diag import LemmaCheck, RegretTrace, RunArtifacts, cumsum_after
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
# played in lockstep), replications played in lockstep by a suite, and CSV
# rows formatted per write: they bound the working memory of a run, of a
# suite and of a CSV file
ROUNDS_PER_DRAW = 4096
REPLICATIONS_PER_CHUNK = 16
TRACE_ROWS_PER_WRITE = 1024
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
    other seeds.  A non-finite reward (``Environment.draw``), a refit on
    moments that overflow (``linmodel.checked_moments``), a LinUCB refresh
    to a non-finite ``theta``, and after the last round a non-finite
    noisy-regret total, refit weight or LinUCB state (``bvec`` can overflow
    after the last refresh), is a FloatingPointError with the position in
    ``seeds`` of the first replication at fault as its ``replication``
    attribute.
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
        # summed round by round, like the cumulative regret; a total that
        # overflows is reported by the finiteness check after the loop
        with np.errstate(over="ignore", invalid="ignore"):
            noisy_total = np.cumsum(np.column_stack([noisy_total, flat[best] - r_n]),
                                    axis=1)[:, -1]
        if keep_data:
            xs[:, lo:stop], actions[:, lo:stop], rewards[:, lo:stop] = x_n, a_n, r_n

    # finite rewards can still overflow a sum, or LinUCB's bvec after its
    # last refresh (each refresh checks theta); checked after the loop, so a
    # non-finite reward is reported first, with its round
    state_ok = np.ones(R, dtype=bool)
    if isinstance(agent, LinUCBAgent):
        state_ok = np.isfinite(agent.bvec.reshape(R, -1)).all(axis=1)
    started, results = schedule.epoch_of(T), []
    epsilon = agent.epsilon if is_falcon else 0.0
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
        data = (xs[r], actions[r], rewards[r]) if keep_data else (None, None, None)
        trace = RegretTrace(*data, e_regret[r], config.tau1, epsilon, float(noisy_total[r]))
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
    first child of the seed's diagnostics stream: the inequality suite and
    each event's ``mse_to_best_fit`` against the best fit, all on that one
    sample.  The report of a run and, from its directory, of
    ``reanalyze_run_dir``."""
    diag_ss = np.random.SeedSequence(seed).spawn(3)[2].spawn(1)[0]
    xs = draw_contexts(config.env, min(config.mc_samples, 20_000), make_generator(diag_ss))
    return diagmod.lemma_suite(artifacts, xs, events)


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

    Each replication keeps only its ``e_regret``.  The summary is built in
    blocks of rounds, each block's cumulative regret continued from the
    last column of the block before, in the bits of the whole-array
    ``mean``, ``std(ddof=1)`` and ``cumsum``.
    """
    config.validate()
    R, T = config.replications, config.horizon
    if order is None:
        order = list(range(R))
    if sorted(order) != list(range(R)):
        raise ValueError("order must be a permutation of range(replications)")
    e_rows: list[Optional[np.ndarray]] = [None] * R
    for lo in range(0, R, REPLICATIONS_PER_CHUNK):
        chunk = order[lo:lo + REPLICATIONS_PER_CHUNK]
        try:
            results = _run_many(config, [config.base_seed + r for r in chunk], keep_data=False)
        except Exception as exc:
            # a failure shared by the whole chunk is charged to its first replication
            exc.add_note(f"replication {chunk[getattr(exc, 'replication', 0)]}")
            raise
        for r, res in zip(chunk, results):
            e_rows[r] = res.trace.e_regret
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

# write_csv builds a chunk of text as one uint8 matrix, a row per line: each
# cell is NUL-padded and the separators are columns of their own, so
# dropping every NUL leaves the lines.  A number is spelled as a row of
# 4-byte words, indices into _WORDS: the ASCII digits of 0000..9999, then
# NUL, "-" and "." padded with NUL.
# (The tables are built in small dtypes: large temporaries at import would
# raise the peak memory of every process that imports the package.)
_WORDS = np.zeros((10_003, 4), np.uint8)
_WORDS[:10_000] = np.arange(10_000, dtype=np.int16)[:, None] \
    // np.array([1000, 100, 10, 1], np.int16) % 10 + 48
_WORDS[10_001:, 0] = ord("-"), ord(".")
_WORDS = _WORDS.view(np.uint32).ravel()
_NUL, _MINUS, _POINT = 10_000, 10_001, 10_002
_TRAILING_ZEROS = sum(np.arange(10_000, dtype=np.int16) % 10 ** k == 0
                      for k in range(1, 5)).astype(np.int8)
_SPLIT = 134_217_729.0  # 2^27 + 1, Veltkamp's splitter for Dekker's exact product
_TENS = 10.0 ** np.arange(22)  # exact: 5^21 < 2^53
_TENS_HI = _SPLIT * _TENS - (_SPLIT * _TENS - _TENS)
_TENS_LO = _TENS - _TENS_HI
_INT_TENS = 10 ** np.arange(18, dtype=np.int64)


def _keep_masks(q: int) -> np.ndarray:
    """Byte masks (0 or 0xFF, read as words) over a number's words: sign,
    q words of integer digits, point, 5 words of fraction digits.  Row
    (X + 4) * 21 + end keeps the max(X, 0) + 1 last integer digits and the
    fraction positions in [X + 4, end)."""
    X, end = np.arange(-4, 16)[:, None, None], np.arange(21)[None, :, None]
    pos = np.arange(4 * q + 28)
    whole, frac = pos - 4, pos - 4 * q - 8
    keep = (pos < 4) | ((whole >= 4 * q - np.maximum(X, 0) - 1) & (whole < 4 * q)) \
        | ((frac >= -4) & (frac < 0)) | ((frac >= X + 4) & (frac < end))
    return (keep.astype(np.uint8) * 0xFF).reshape(420, -1).view(np.uint32)


_KEEP = [None] + [_keep_masks(q) for q in range(1, 5)]


def _put_words(out: np.ndarray, a: np.ndarray) -> list[np.ndarray]:
    """Write the base-10^4 digits of the int64s 0 <= a < 10^(4 k) into the k
    columns of ``out``, most significant first, and return them."""
    words = []
    for _ in range(out.shape[1] - 1):
        q = a // 10_000
        words.insert(0, a - q * 10_000)
        a = q
    words.insert(0, a)
    for j, w in enumerate(words):
        out[:, j] = w
    return words


def _number_cells(negative, whole, X, fraction=None) -> np.ndarray:
    """One NUL-padded row per number: a sign, the max(X, 0) + 1 digits of
    the int64 ``whole``, and, if the int64 ``fraction`` (right-aligned in 20
    digits, from position X + 4) is given, a point and its digits up to the
    last nonzero one; no point when none is left."""
    q = (max(int(X.max()), 0) + 4) // 4
    words = np.empty((len(whole), q + (1 if fraction is None else 7)), np.int64)
    words[:, 0] = np.where(negative, _MINUS, _NUL)
    _put_words(words[:, 1:q + 1], whole)
    end = 0
    if fraction is not None:
        _, *low = _put_words(words[:, q + 2:], fraction)
        # the digits end where the trailing zeros of the last 16 begin
        t = [_TRAILING_ZEROS[w] for w in low]
        end = 20 - (t[3] + (low[3] == 0) * (t[2] + (low[2] == 0) * (t[1] + (low[1] == 0) * t[0])))
        words[:, q + 1] = np.where(end > X + 4, _POINT, _NUL)
    cells = np.take(_WORDS, words)
    cells &= np.take(_KEEP[q], (X + 4) * 21 + end, axis=0)[:, :words.shape[1]]
    return cells.view(np.uint8)


def _scaled(a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10^(16 - X)) exactly, as int64.  Dekker's product
    gives a * 10^k = hi + lo exactly; where hi >= 2^53 it is an even
    integer, so hi + rint(lo) is the sum rounded half to even."""
    k = 16 - X
    p, p_hi, p_lo = _TENS[k], _TENS_HI[k], _TENS_LO[k]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    hi = a * p
    lo = a_lo * p_lo - (((hi - a_hi * p_hi) - a_lo * p_hi) - a_hi * p_lo)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _text_rows(items: list[bytes]) -> np.ndarray:
    return np.array(items, dtype=bytes).view(np.uint8).reshape(len(items), -1)


def _with_python(cells: np.ndarray, v: np.ndarray, fast: np.ndarray, fmt: str) -> np.ndarray:
    """``cells`` with the rows of the values outside the mask ``fast``
    formatted by Python's ``fmt % x``."""
    if fast.all():
        return cells
    fill = _text_rows([(fmt % x).encode() for x in v[~fast].tolist()])
    out = np.zeros((len(cells), max(cells.shape[1], fill.shape[1])), np.uint8)
    out[fast, :cells.shape[1]] = cells[fast]
    out[~fast, :fill.shape[1]] = fill
    return out


def _float_cells(v: np.ndarray) -> np.ndarray:
    """``'%.17g' % x`` of each float64, one NUL-padded row per value.

    Finite values with 1e-4 <= |x| < 1e15, and +-0, are printed in fixed
    notation with 17 significant digits N * 10^(X - 16): X is estimated as
    floor(log10|x|), N is |x| * 10^(16 - X) rounded half to even exactly
    (``_scaled``), and where N falls outside [10^16, 10^17) -- the estimate
    was off by one or the rounding carried -- X moves by one and N is made
    again.  Every other value (nan, +-inf, and those at or near where
    ``%.17g`` turns to scientific notation) is rare in the artifacts and goes
    through Python's own ``'%.17g'``, one at a time, which keeps the output
    exact for all."""
    a = np.abs(v)
    fast = ((a >= 1e-4) & (a < 1e15)) | (a == 0)
    a[~fast] = 1.0
    X = np.floor(np.log10(a, out=np.zeros_like(a), where=a > 0)).astype(np.int64)
    N = _scaled(a, X)
    bad = np.flatnonzero(((N < 10 ** 16) | (N >= 10 ** 17)) & (a > 0))
    while bad.size:
        X[bad] += np.where(N[bad] >= 10 ** 16, 1, -1)
        N[bad] = _scaled(a[bad], X[bad])
        bad = bad[(N[bad] < 10 ** 16) | (N[bad] >= 10 ** 17)]
    unit = _INT_TENS[np.minimum(16 - X, 17)]
    whole = N // unit
    return _with_python(_number_cells(np.signbit(v), whole, X, N - whole * unit), v, fast, "%.17g")


def _int_cells(v: np.ndarray) -> np.ndarray:
    """``'%d' % x`` of each integer (a bool is 0 or 1), one NUL-padded row
    per value; those of 16 digits or more, and a column of any other type,
    go through Python's ``'%d'``."""
    if v.dtype.kind == "b" or v.dtype.kind in "iu" and v.itemsize < 8:
        v = v.astype(np.int64)  # a narrower int's minimum has no absolute value
    if v.dtype.kind != "i":
        return _text_rows([b"%d" % x for x in v.tolist()])
    fast = (v > -10 ** 16) & (v < 10 ** 16)
    a = np.abs(np.where(fast, v, 0))
    digits = np.searchsorted(_INT_TENS[1:17], a, side="right") + 1
    return _with_python(_number_cells(v < 0, a, digits - 1), v, fast, "%d")


def _text_cells(v: np.ndarray) -> np.ndarray:
    """Each string, UTF-8 encoded, one NUL-padded row per value: ASCII
    directly from the code points, other text as its distinct values, each
    encoded once."""
    points = v.view(np.uint32).reshape(-1, v.itemsize // 4)
    if points.max() < 128:
        return points.astype(np.uint8)
    values, inverse = np.unique(v, return_inverse=True)
    return np.take(_text_rows([s.encode() for s in values.tolist()]), inverse.ravel(), axis=0)


def _text_column(values) -> np.ndarray:
    """``values`` as a str array; a string holding a NUL is a ValueError."""
    texts = np.asarray(values, dtype=str)
    points = texts.view(np.uint32).reshape(-1, texts.itemsize // 4)
    # numpy keeps a NUL inside a string and drops those that end it
    if ((points[:, :-1] == 0) & (points[:, 1:] != 0)).any() or (
            not isinstance(values, np.ndarray) and any("\0" in str(s) for s in values)):
        raise ValueError("a text cell holds a NUL character")
    return texts


_CELLS = {"g": _float_cells, "d": _int_cells, "s": _text_cells}
_COLUMNS = {"g": lambda values: np.asarray(values, dtype=float), "d": np.asarray,
            "s": _text_column}


def write_csv(path: str, header: str, columns) -> None:
    """``header``, then one line per row of ``columns``, a list of (kind,
    values) with values of one length: kind ``g`` formats a cell as
    ``'%.17g'``, ``d`` as ``'%d'`` and ``s`` as ``'%s'``, and 2-D values
    (n, d) make a cell of d ``;``-separated values.

    Rows are written ``TRACE_ROWS_PER_WRITE`` at a time (which bounds the
    memory the text takes), each chunk by ``_write_chunks``.  A text cell
    holding a NUL is a ValueError."""
    columns = [(kind, _COLUMNS[kind](values)) for kind, values in columns]
    n, step = len(columns[0][1]), TRACE_ROWS_PER_WRITE
    _write_chunks(path, header, ([(kind, values[lo:lo + step]) for kind, values in columns]
                                 for lo in range(0, n, step)))


def _write_chunks(path: str, header: str, chunks) -> None:
    """``header``, then the rows of each chunk: a list of (kind, values) as
    ``write_csv`` makes them, arrays of one length with the same kinds and
    widths in every chunk.  A chunk's cells of one kind are made in one
    call (``_float_cells``, ``_int_cells``, ``_text_cells``) as NUL-padded
    uint8 rows; they are laid side by side with ``,``, ``;`` and newline
    columns, and the chunk is written as that matrix with its NUL bytes
    dropped: the same bytes as Python's ``%`` formatting of every cell."""
    layout = None
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for columns in chunks:
            columns = [(kind, v[:, None] if v.ndim == 1 else v) for kind, v in columns]
            by_kind = {kind: [v for k, v in columns if k == kind] for kind, _ in columns}
            if layout is None:
                # a line: (kind, index among the kind's cell columns, separator after)
                layout, count = [], dict.fromkeys(by_kind, 0)
                for kind, values in columns:
                    for j in range(values.shape[1]):
                        layout.append((kind, count[kind], ";" if j + 1 < values.shape[1] else ","))
                        count[kind] += 1
                layout[-1] = (*layout[-1][:2], "\n")
            rows = len(columns[0][1])
            cells = {kind: _CELLS[kind](np.concatenate([v.T for v in vals]).ravel())
                     .reshape(count[kind], rows, -1) for kind, vals in by_kind.items()}
            sep = {c: np.full((rows, 1), ord(c), np.uint8) for c in ",;\n"}
            text = np.concatenate([part for kind, i, after in layout
                                   for part in (cells[kind][i], sep[after])], axis=1)
            fh.write(text[text != 0].tobytes())


def write_trace_csv(trace: RegretTrace, path: str) -> None:
    """One line per round; a d-dimensional context is one cell of d
    ``;``-separated values.  Only x, action, reward and e_regret are
    stored: each chunk's t, epoch, phase and cum_e_regret are made as it is
    written, the running total continued from the chunk before."""
    data = [(kind, _COLUMNS[kind](values)) for kind, values in
            (("g", trace.x), ("d", trace.action), ("g", trace.reward), ("g", trace.e_regret))]

    def chunks():
        cum = None
        for lo in range(0, len(trace), TRACE_ROWS_PER_WRITE):
            hi = min(len(trace), lo + TRACE_ROWS_PER_WRITE)
            t, epoch, phase = trace.schedule_rows(lo, hi)
            cum = cumsum_after(data[3][1][lo:hi], None if cum is None else cum[-1])
            yield [("d", t), ("d", epoch), ("s", phase),
                   *((kind, values[lo:hi]) for kind, values in data), ("g", cum)]

    _write_chunks(path, TRACE_HEADER, chunks())


def write_events_csv(events: list[EpochEvent], path: str) -> None:
    names = ("m", "tau_start", "tau_end", "gamma", "alpha", "slack", "lambda_star",
             "duality_gap", "mse_to_best_fit")
    write_csv(path, EPOCHS_HEADER, [(kind, [getattr(ev, name) for ev in events])
                                    for kind, name in zip("dddgggggg", names)])


def write_weights_csv(artifacts: RunArtifacts, path: str) -> None:
    """One line per (epoch, arm); with no models, the header of the run's d."""
    M, K, p = len(artifacts.models), artifacts.spec.num_arms, artifacts.spec.context_dim + 1
    W = np.array([model.weights for model in artifacts.models]).reshape(M * K, p)
    write_csv(path, "m,arm," + ",".join(f"w{j}" for j in range(p)),
              [("d", np.repeat(np.arange(1, M + 1), K)), ("d", np.tile(np.arange(1, K + 1), M)),
               *(("g", w) for w in W.T)])


def write_lemmas_csv(report: list[LemmaCheck], path: str) -> None:
    write_csv(path, LEMMAS_HEADER,
              [("s", [c.name for c in report]),
               ("s", ["" if c.epoch is None else c.epoch for c in report]),
               ("g", [c.lhs for c in report]), ("g", [c.rhs for c in report]),
               ("g", [c.se for c in report]), ("d", [c.passed for c in report]),
               ("s", [c.note for c in report])])


def write_summary_csv(summary: SuiteSummary, path: str) -> None:
    write_csv(path, SUMMARY_HEADER,
              [("d", summary.t), ("g", summary.mean_e_regret), ("g", summary.se_e_regret),
               ("g", summary.mean_cum_e_regret), ("g", summary.se_cum_e_regret)])


def write_compare_csv(table: CompareTable, path: str) -> None:
    names = ("checkpoint", "config_index", "agent", "cum_mean", "cum_se")
    write_csv(path, COMPARE_HEADER, [(kind, [getattr(row, name) for row in table.rows])
                                     for kind, name in zip("ddsgg", names)])


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
