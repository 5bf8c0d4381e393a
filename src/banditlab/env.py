"""Stochastic contextual-bandit environments with known ground truth.

Three built-in families, all with contexts drawn uniformly from (0,1).  The
two misspecified ones have one two-arm shape (lo, hi, w, a0): arm 1 pays lo
on x <= 1-w and hi above; arm 2 is the line through (0, a0) that meets the
best linear fit of arm 1 exactly at the knee x = 1-w.

* ``step_function`` -- (0, 1, 0.5, 0.5): arm 2 pays a constant 0.5.  The
  best linear approximation to arm 1 is the line 1.5x - 0.25, which induces
  the same threshold policy as the truth.
* ``sensitivity_family`` -- (0.1, 1, theta, 1), theta in (0, 0.05].  The
  best-in-class policy is optimal here, yet data collected under it makes
  the unconstrained least-squares fit of arm 1 collapse to the constant 1.
* ``realizable_linear`` -- K arms with truly linear mean rewards whose
  weights are drawn once from the spec seed; arms are kept well separated
  so the instance has a clear optimal arm at every context.

Mean rewards are deterministic functions of (x, arm); observation noise is
Gaussian with standard deviation ``noise_sd`` and is NOT clipped to [0,1]
unless ``clip_rewards`` is set (clipping would bias the closed-form
least-squares oracles below).  ``closed_form_errors`` gives the best
uniform-design fit's exact approximation errors b and B; ``diag``
estimates them on a sample.  A live ``Environment`` holds R replications,
each with its own context and noise streams, and draws the next rounds of
all R with one call; a non-finite reward is a ``FloatingPointError``.

Everything random flows through ``numpy.random.Generator`` seeded with the
Philox counter-based bit generator, so streams are reproducible across
platforms.
"""

from __future__ import annotations

import copy
import functools
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linmodel import LinearModel

STEP_FUNCTION = "step_function"
SENSITIVITY_FAMILY = "sensitivity_family"
REALIZABLE_LINEAR = "realizable_linear"
ENV_KINDS = (STEP_FUNCTION, SENSITIVITY_FAMILY, REALIZABLE_LINEAR)


def make_generator(seed) -> np.random.Generator:
    """Philox-backed generator; the single RNG family used everywhere."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.Generator(np.random.Philox(seed))


def _parse_bool(text: str) -> bool:
    return {"true": True, "false": False}[text.lower()]


def interval_errors(rows, values: dict) -> list[str]:
    """Why each of ``values`` (by field) breaks its row of ``rows``: no integer
    for an ``int`` row or no real number for another row with an interval (a
    bool is neither), or out of the interval; None passes."""
    errs = []
    for key, name, parse, allowed in rows:
        value = values.get(name)
        if value is None or allowed is None:
            continue
        if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if parse is int else numbers.Real):
            errs.append(f"{key}: must be {'an integer' if parse is int else 'a number'}")
            continue
        lo, hi = (float(end) for end in allowed[1:-1].split(", "))
        # every comparison with nan is false, so nan lies in no interval
        if not ((lo <= value if allowed[0] == "[" else lo < value)
                and (value <= hi if allowed[-1] == "]" else value < hi)):
            errs.append(f"{key}: must be in {allowed}")
    return errs


# The env.* rows of the config key table (harness.CONFIG_KEYS), in file
# order: (key, EnvSpec field, parser, allowed interval).  EnvSpec checks its
# fields against them, so a spec built in code meets the same intervals.
ENV_KEYS = (
    ("env.kind", "kind", str, None),
    ("env.num_arms", "num_arms", int, "[2, inf)"),
    ("env.noise_sd", "noise_sd", float, "[0, inf)"),
    ("env.theta", "theta", float, "(0, 0.05]"),
    ("env.seed", "seed", int, "[0, inf)"),
    ("env.clip_rewards", "clip_rewards", _parse_bool, None),
    ("env.context_dim", "context_dim", int, "[1, inf)"),
)


@dataclass(frozen=True)
class EnvSpec:
    """Declarative description of an environment instance.

    ``theta`` must be present iff kind is ``sensitivity_family`` (and lie in
    (0, 0.05]).  The two misspecified families fix ``num_arms = 2``;
    ``realizable_linear`` additionally supports ``context_dim`` > 1.
    """

    kind: str = STEP_FUNCTION
    num_arms: int = 2
    noise_sd: float = 0.1
    theta: Optional[float] = None
    seed: int = 0
    clip_rewards: bool = False
    context_dim: int = 1

    def __post_init__(self):
        errs = self.validation_errors()
        if errs:
            raise ValueError("; ".join(errs))

    def validation_errors(self) -> list[str]:
        errs = []
        if self.kind not in ENV_KINDS:
            errs.append(f"env.kind: unknown kind {self.kind!r}")
        if self.kind in (STEP_FUNCTION, SENSITIVITY_FAMILY):
            if self.num_arms != 2:
                errs.append("env.num_arms: must be 2 for this kind")
            if self.context_dim != 1:
                errs.append("env.context_dim: must be 1 for this kind")
        if self.kind == SENSITIVITY_FAMILY and self.theta is None:
            errs.append("env.theta: required for sensitivity_family")
        elif self.kind != SENSITIVITY_FAMILY and self.theta is not None:
            errs.append("env.theta: only valid for sensitivity_family")
        return errs + interval_errors(ENV_KEYS, vars(self))


# ---------------------------------------------------------------------------
# closed forms for the misspecified families
#
# For a scalar target g on Unif(0,1) the least-squares line has
# slope = Cov(x, g)/Var(x) = 12 Cov(x, g) and intercept = E[g] - slope/2,
# and its mean squared residual is Var(g) - slope^2 Var(x).
# ---------------------------------------------------------------------------

def _two_level(spec: EnvSpec) -> Optional[tuple[float, float, float, float]]:
    """(lo, hi, w, a0) of a misspecified kind, None for a linear truth: arm 1
    pays lo up to the knee x = 1 - w and hi above it; arm 2 is the line
    through (0, a0) that meets arm 1's best fit at the knee."""
    return {STEP_FUNCTION: (0.0, 1.0, 0.5, 0.5),
            SENSITIVITY_FAMILY: (0.1, 1.0, spec.theta, 1.0)}.get(spec.kind)


def _two_level_fit(lo: float, hi: float, w: float, a0: float) -> tuple[tuple, tuple]:
    """((intercept, slope) of arm 1's best fit, (a0, slope) of arm 2): with
    d = hi - lo, g has Cov(x, g) = d w (1-w) / 2 and E[g] = lo + d w."""
    d = hi - lo
    slope = 6 * d * w * (1 - w)
    intercept = lo + d * w - 3 * d * w * (1 - w)
    knee = 1 - w
    return (intercept, slope), (a0, (intercept + slope * knee - a0) / knee)


@functools.lru_cache(maxsize=16)
def _realizable_weights(spec: EnvSpec) -> np.ndarray:
    """True weights for a realizable instance, drawn from the spec seed.  The
    16 most recent specs' weights are cached and shared read-only, so the
    draws of a run and its diagnostics build them once.

    Intercepts are spread so arms stay separated (no reward crossings in the
    context box); slope mass is kept small enough that every mean reward
    stays inside [0, 1].
    """
    rng = make_generator([spec.seed, 0x7EA15])
    K, dx = spec.num_arms, spec.context_dim
    intercepts = 0.25 + 0.35 * np.arange(K) / (K - 1) + rng.uniform(-0.05, 0.05, size=K)
    order = rng.permutation(K)
    slopes = rng.uniform(-0.075, 0.075, size=(K, dx)) / dx
    w = np.zeros((K, dx + 1))
    w[:, 0] = intercepts[order]
    w[:, 1:] = slopes
    w.flags.writeable = False
    return w


def true_model(spec: EnvSpec) -> Optional[LinearModel]:
    """The true mean-reward model when it is linear (realizable kind only)."""
    if spec.kind == REALIZABLE_LINEAR:
        return LinearModel(_realizable_weights(spec))
    return None


def mean_reward_matrix(spec: EnvSpec, xs: np.ndarray) -> np.ndarray:
    """The truth surface, one formula for runs and diagnostics: (n, K) mean
    rewards, a linear truth row by row (a row never depends on the others)."""
    xs = np.asarray(xs, dtype=float)
    shape = _two_level(spec)
    if shape is None:
        return true_model(spec).predict_rows(xs)
    lo, hi, w, a0 = shape
    out = np.empty((xs.shape[0], 2))
    out[:, 0] = np.where(xs <= 1 - w, lo, hi)
    out[:, 1] = a0 + _two_level_fit(*shape)[1][1] * xs
    return out


def best_linear_fit_uniform(spec: EnvSpec) -> LinearModel:
    """Population least-squares fit per arm under Unif(0,1) contexts and
    uniformly sampled arms (the objective separates across arms, so each
    arm is fit independently): the truth itself for a linear kind."""
    shape = _two_level(spec)
    return true_model(spec) if shape is None else LinearModel(np.array(_two_level_fit(*shape)))


def closed_form_errors(spec: EnvSpec) -> tuple[float, float]:
    """(b, B) exactly: the best uniform-design fit's mean squared error
    against the truth, averaged over arms (b) or at the worst arm per
    context (B).  Only arm 1 of a misspecified family is misfit, so B is
    its mean squared residual and b half of it."""
    shape, arm1 = _two_level(spec), 0.0
    if shape is not None:
        lo, hi, w, _ = shape
        d2 = (hi - lo) ** 2  # Var(g) = d2 w (1-w), slope^2 Var(x) = 3 d2 w^2 (1-w)^2
        arm1 = d2 * w * (1 - w) - 3 * d2 * w**2 * (1 - w) ** 2
    return arm1 / 2.0, arm1


def draw_contexts(spec: EnvSpec, num: int, rng) -> np.ndarray:
    """``num`` contexts ~ Unif(0,1)^d, (num,) or (num, d), from a generator or a seed."""
    rng = make_generator(rng)
    return rng.random(num if spec.context_dim == 1 else (num, spec.context_dim))


class Environment:
    """A live environment for R replications (a single run is R = 1): an
    EnvSpec plus two private RNG streams per seed, the children of its
    generator: child 0 draws the replication's contexts and child 1 its
    reward noise.  One instance per simulation run; do not share it across
    concurrent runs."""

    def __init__(self, spec: EnvSpec, seeds):
        self.spec, self.rounds = spec, 0
        # contexts and reward noise are independent draws, so each has its
        # own child stream and a block of rounds takes one call from each;
        # spawning from a copy leaves a caller's SeedSequence where it was
        self.context_rngs, self.noise_rngs = map(list, zip(*(
            make_generator(copy.deepcopy(seed)).spawn(2) for seed in seeds)))

    def draw(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Contexts (R, n) or (R, n, d), mean rewards (R, n, K) and noisy
        rewards (R, n, K) of the next n rounds.  Each replication takes n
        contexts and n * K noises from its own streams, in order, so any
        split of the rounds into draws gives the same values; the truth, the
        noise scaling and the clip act row by row on all R * n rows at once,
        so replication r draws what an environment on its seed alone would.
        All K noisy entries make the realized regret sum (optimal arm minus
        chosen arm) well defined.  A non-finite reward raises
        FloatingPointError naming its round, with ``replication`` the first
        replication that drew one."""
        spec, R, K = self.spec, len(self.context_rngs), self.spec.num_arms
        xs = np.stack([draw_contexts(spec, n, rng) for rng in self.context_rngs])
        means = mean_reward_matrix(spec, xs.reshape(R * n, *xs.shape[2:])).reshape(R, n, K)
        with np.errstate(over="ignore"):  # a non-finite reward is reported below
            r = means + spec.noise_sd * np.stack([rng.standard_normal((n, K))
                                                  for rng in self.noise_rngs]) \
                if spec.noise_sd > 0 else means.copy()
        if spec.clip_rewards:
            np.clip(r, 0.0, 1.0, out=r)
        if not np.isfinite(r).all():
            rep, i, _ = np.argwhere(~np.isfinite(r))[0]
            exc = FloatingPointError(f"non-finite reward in round {self.rounds + i + 1}")
            exc.replication = int(rep)
            raise exc
        self.rounds += n
        return xs, means, r
