"""Monte Carlo estimators of policy values, regrets, and divergence, plus
the inequality checks used as run diagnostics and test oracles.

Every estimator here draws fresh contexts (never reusing run data) and
reports a standard error alongside the point estimate.  Inequality checks
compare population statements at a 3-standard-error band, since sampling
noise sits on both sides.

A regret trace records EXPECTED instantaneous regret per round,
f*(x, best-arm) - f*(x, a), which is nonnegative row by row and gives
low-variance curves; the realized noisy regret sum (difference of drawn
reward vectors) is kept as a single per-run scalar for fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import env as envmod
from .env import EnvSpec, make_generator
from .falcon import kernel_prob_matrix
from .linmodel import LinearModel


@dataclass(frozen=True)
class PolicyHandle:
    """A deterministic context -> arm map, tagged with where it came from.

    ``fn`` must be vectorized: it takes an array of contexts (shape (n,) or
    (n, d)) and returns an int array of 1-based arms.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    tag: str

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(xs), dtype=int)


def constant_policy(arm: int, num_arms: int) -> PolicyHandle:
    if not 1 <= arm <= num_arms:
        raise ValueError(f"arm {arm} out of range 1..{num_arms}")
    return PolicyHandle(lambda xs: np.full(np.shape(xs)[0], arm, dtype=int),
                        tag=f"constant({arm})")


def induced_policy(model: LinearModel, tag: Optional[str] = None) -> PolicyHandle:
    return PolicyHandle(model.induced_actions, tag=tag or "induced")


def optimal_policy(spec: EnvSpec) -> PolicyHandle:
    return PolicyHandle(lambda xs: envmod.optimal_actions(spec, xs), tag="optimal")


RewardSurface = Union[LinearModel, EnvSpec]


def _surface_matrix(f: RewardSurface, spec: EnvSpec, xs: np.ndarray) -> np.ndarray:
    """(n, K) reward matrix under a model, or under the environment truth
    when the surface is the spec itself."""
    if isinstance(f, LinearModel):
        return f.predict_matrix(xs)
    return envmod.mean_reward_matrix(f, xs)


def _contexts(spec: EnvSpec, num_mc: int, rng) -> np.ndarray:
    rng = make_generator(rng)
    if spec.context_dim == 1:
        return rng.random(num_mc)
    return rng.random((num_mc, spec.context_dim))


@dataclass(frozen=True)
class MCEstimate:
    value: float
    se: float
    n: int

    def __float__(self) -> float:
        return self.value


def _estimate(samples: np.ndarray) -> MCEstimate:
    n = len(samples)
    return MCEstimate(float(samples.mean()),
                      float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf"),
                      n)


def policy_value(spec: EnvSpec, pi: PolicyHandle, f: RewardSurface,
                 num_mc: int = 100_000, rng=0) -> MCEstimate:
    """E_x[f(x, pi(x))] by Monte Carlo over fresh uniform contexts."""
    xs = _contexts(spec, num_mc, rng)
    rewards = _surface_matrix(f, spec, xs)
    picked = rewards[np.arange(num_mc), pi(xs) - 1]
    return _estimate(picked)


def policy_regret(spec: EnvSpec, pi: PolicyHandle, f: RewardSurface,
                  num_mc: int = 100_000, rng=0) -> MCEstimate:
    """E_x[f(x, best arm under f) - f(x, pi(x))].  With f the environment
    truth this is the policy's true per-round regret."""
    xs = _contexts(spec, num_mc, rng)
    rewards = _surface_matrix(f, spec, xs)
    picked = rewards[np.arange(num_mc), pi(xs) - 1]
    return _estimate(rewards.max(axis=1) - picked)


def decisional_divergence(spec: EnvSpec, kernel_fn: Callable[[np.ndarray], np.ndarray],
                          pi: PolicyHandle, num_mc: int = 100_000, rng=0) -> MCEstimate:
    """E_x[1 / p(pi(x) | x)] for a kernel given as xs -> (n, K) probability
    matrix.  The inverse-gap-weighted form keeps every probability strictly
    positive, so the expectation is well defined."""
    xs = _contexts(spec, num_mc, rng)
    probs = np.asarray(kernel_fn(xs), dtype=float)
    picked = probs[np.arange(num_mc), pi(xs) - 1]
    if np.any(picked <= 0.0):
        raise ZeroDivisionError("kernel assigned zero probability to a policy action")
    return _estimate(1.0 / picked)


def model_mse(f: RewardSurface, g: RewardSurface, spec: EnvSpec,
              sampling: Union[str, Callable[[np.ndarray], np.ndarray]] = "uniform",
              num_mc: int = 100_000, rng=0) -> MCEstimate:
    """Mean squared difference between two reward surfaces.

    ``sampling`` is either "uniform" (average the squared gap over all arms)
    or a kernel function xs -> (n, K) probabilities to weight arms by.
    """
    xs = _contexts(spec, num_mc, rng)
    sq = (_surface_matrix(f, spec, xs) - _surface_matrix(g, spec, xs)) ** 2
    if sampling == "uniform":
        per_x = sq.mean(axis=1)
    elif callable(sampling):
        probs = np.asarray(sampling(xs), dtype=float)
        per_x = (probs * sq).sum(axis=1)
    else:
        raise ValueError("sampling must be 'uniform' or a kernel function")
    return _estimate(per_x)


def kernel_estimated_regret(spec: EnvSpec, model: LinearModel, gamma: float,
                            num_mc: int = 10_000, rng=0) -> MCEstimate:
    """E_x[sum_a p(a|x) * (f(x, best) - f(x, a))] for the inverse-gap
    kernel built from ``model`` -- the kernel's regret as measured by its
    own model.  Bounded by K/gamma pointwise."""
    xs = _contexts(spec, num_mc, rng)
    preds = model.predict_matrix(xs)
    gaps = preds.max(axis=1, keepdims=True) - preds
    probs = kernel_prob_matrix(model, xs, gamma)
    return _estimate((probs * gaps).sum(axis=1))


def kernel_true_regret(spec: EnvSpec, model: LinearModel, gamma: float,
                       num_mc: int = 10_000, rng=0) -> MCEstimate:
    """Per-round expected regret of the kernel under the TRUTH:
    E_x[sum_a p(a|x) * (f*(x, best true arm) - f*(x, a))]."""
    xs = _contexts(spec, num_mc, rng)
    truth = envmod.mean_reward_matrix(spec, xs)
    gaps = truth.max(axis=1, keepdims=True) - truth
    probs = kernel_prob_matrix(model, xs, gamma)
    return _estimate((probs * gaps).sum(axis=1))


def mean_model_gap(spec: EnvSpec, model: LinearModel, pi: PolicyHandle,
                   num_mc: int = 10_000, rng=0) -> MCEstimate:
    """E_x[model(x, best under model) - model(x, pi(x))]."""
    xs = _contexts(spec, num_mc, rng)
    preds = model.predict_matrix(xs)
    picked = preds[np.arange(len(xs)), pi(xs) - 1]
    return _estimate(preds.max(axis=1) - picked)


# ---------------------------------------------------------------------------
# regret traces
# ---------------------------------------------------------------------------

@dataclass
class RegretTrace:
    """Per-round record of a run.  ``e_regret`` is the expected
    instantaneous regret under the truth; ``noisy_regret_total`` is the
    realized sum of (reward at optimal arm - reward at chosen arm) over the
    drawn reward vectors."""

    t: np.ndarray
    epoch: np.ndarray
    phase: np.ndarray          # 'active' | 'passive' (dtype <U7)
    x: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    e_regret: np.ndarray
    cum_e_regret: np.ndarray
    noisy_regret_total: float = 0.0

    def __len__(self) -> int:
        return len(self.t)


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------

@dataclass
class LemmaCheck:
    name: str
    epoch: Optional[int]
    lhs: float
    rhs: float
    se: float
    passed: bool
    note: str = ""


@dataclass
class RunArtifacts:
    """What the inequality suite needs from a completed run: the per-epoch
    model snapshots (the model in force DURING each epoch, starting with
    the zero model of epoch 1) and the matching gamma values.  ``epsilon``
    and ``rho``, when known, feed the logged-only regret trend."""

    spec: EnvSpec
    models: list[LinearModel]
    gammas: list[float]
    epsilon: Optional[float] = None
    rho: float = 1.0


def lemma_suite(artifacts: RunArtifacts, num_mc: int = 20_000, rng=0) -> list[LemmaCheck]:
    """Check the testable population inequalities on a finished run.

    * error ordering: b <= B <= K*b;
    * the policy induced by the best uniform-design fit has true regret
      at most 2*sqrt(B);
    * per epoch m >= 2: the kernel's estimated regret is at most K/gamma_m;
    * per epoch m >= 2: gamma*E[gap] <= V(p_m, pi) <= K + gamma*E[gap] for
      the best-fit policy, and V(p_m, pi_{f_m}) <= K for the kernel's own
      induced policy.

    All comparisons allow 3 combined standard errors of Monte Carlo slack.

    One extra row per epoch is logged but NEVER asserted: the kernel's true
    per-round regret against the trend reference K/gamma + sqrt(K*B /
    sqrt(eps^rho)).  The theoretical version of that bound carries unknown
    constants, so only the measured ratio is reported (in the note field).
    """
    rng = make_generator(rng)
    spec = artifacts.spec
    K = spec.num_arms
    checks: list[LemmaCheck] = []

    b = envmod.approximation_error_b(spec, num_mc, rng)
    B = envmod.worst_case_error_B(spec, num_mc, rng)
    tol_lo = 3.0 * math.hypot(b.se, B.se)
    checks.append(LemmaCheck("error_ordering_lower", None, b.mc, B.mc + tol_lo,
                             tol_lo, b.mc <= B.mc + tol_lo, "b <= B"))
    tol_hi = 3.0 * math.hypot(B.se, K * b.se)
    checks.append(LemmaCheck("error_ordering_upper", None, B.mc, K * b.mc + tol_hi,
                             tol_hi, B.mc <= K * b.mc + tol_hi, "B <= K*b"))

    best_fit = envmod.best_linear_fit_uniform(spec)
    pi_best = induced_policy(best_fit, "best_fit")
    reg_best = policy_regret(spec, pi_best, spec, num_mc, rng)
    bound = 2.0 * math.sqrt(max(B.mc, 0.0))
    checks.append(LemmaCheck("best_fit_policy_regret", None, reg_best.value,
                             bound + 3.0 * reg_best.se, reg_best.se,
                             reg_best.value <= bound + 3.0 * reg_best.se,
                             "Reg(pi_bestfit) <= 2*sqrt(B)"))

    for m, (model, gamma) in enumerate(zip(artifacts.models, artifacts.gammas), start=1):
        if m == 1:
            continue
        est = kernel_estimated_regret(spec, model, gamma, num_mc, rng)
        rhs = K / gamma + 3.0 * est.se
        checks.append(LemmaCheck("kernel_estimated_regret", m, est.value, rhs,
                                 est.se, est.value <= rhs, "<= K/gamma"))

        def kernel_fn(xs, _model=model, _gamma=gamma):
            return kernel_prob_matrix(_model, xs, _gamma)

        V = decisional_divergence(spec, kernel_fn, pi_best, num_mc, rng)
        gap = mean_model_gap(spec, model, pi_best, num_mc, rng)
        band = 3.0 * math.hypot(V.se, abs(gamma) * gap.se)
        lo, hi = gamma * gap.value, K + gamma * gap.value
        ok = (lo - band <= V.value <= hi + band)
        checks.append(LemmaCheck("divergence_sandwich", m, V.value, hi + band, band, ok,
                                 f"gamma*E[gap]={lo:.4g} <= V <= K+gamma*E[gap]"))

        pi_self = induced_policy(model, f"induced_m{m}")
        V_self = decisional_divergence(spec, kernel_fn, pi_self, num_mc, rng)
        checks.append(LemmaCheck("divergence_self", m, V_self.value,
                                 K + 3.0 * V_self.se, V_self.se,
                                 V_self.value <= K + 3.0 * V_self.se, "V(p, pi_p) <= K"))

        true_reg = kernel_true_regret(spec, model, gamma, num_mc, rng)
        trend = K / gamma + math.sqrt(max(K * B.mc, 0.0))
        if artifacts.epsilon:
            trend = K / gamma + math.sqrt(
                max(K * B.mc, 0.0) / math.sqrt(artifacts.epsilon ** artifacts.rho))
        ratio = true_reg.value / trend if trend > 0 else float("nan")
        checks.append(LemmaCheck("true_regret_trend", m, true_reg.value, trend,
                                 true_reg.se, True,
                                 f"ratio {ratio:.3f} logged only; constants unknown"))
    return checks
