"""Monte Carlo estimators of policy values, regrets, and divergence, plus
the inequality checks used as run diagnostics and test oracles.

Every estimator here draws fresh contexts (never reusing run data) and
reports a standard error alongside the point estimate; its formula lives
in a matrix helper, which the inequality suite calls on one sample.
Inequality checks compare population statements at a 3-standard-error
band, since sampling noise sits on both sides.

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
from .env import EnvSpec, draw_contexts
from .falcon import igw_kernel
from .linmodel import LinearModel, row_max_argmax


# A deterministic context -> arm map, vectorized: it takes an array of
# contexts, (n,) or (n, d), and returns an int array of 1-based arms.
Policy = Callable[[np.ndarray], np.ndarray]


def constant_policy(arm: int, num_arms: int) -> Policy:
    if not 1 <= arm <= num_arms:
        raise ValueError(f"arm {arm} out of range 1..{num_arms}")
    return lambda xs: np.full(np.shape(xs)[0], arm, dtype=int)


def induced_policy(model: LinearModel) -> Policy:
    return model.induced_actions


def optimal_policy(spec: EnvSpec) -> Policy:
    return lambda xs: envmod.optimal_actions(spec, xs)


RewardSurface = Union[LinearModel, EnvSpec]


def _surface_matrix(f: RewardSurface, spec: EnvSpec, xs: np.ndarray) -> np.ndarray:
    """(n, K) reward matrix under a model, or under the environment truth
    when the surface is the spec itself."""
    if isinstance(f, LinearModel):
        return f.predict_matrix(xs)
    return envmod.mean_reward_matrix(f, xs)


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


def gaps_from(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, K) gaps below each row's maximum, and the 0-based argmax (ties first)."""
    top, best = row_max_argmax(values)
    return top[:, None] - values, best


def mean_at(values: np.ndarray, actions: np.ndarray) -> MCEstimate:
    """Mean of each row's entry at its action (1-based arms)."""
    return _estimate(values[np.arange(len(values)), actions - 1])


def divergence_from(probs: np.ndarray, actions: np.ndarray) -> MCEstimate:
    """Mean inverse probability of the actions under a kernel matrix."""
    picked = probs[np.arange(len(probs)), actions - 1]
    if np.any(picked <= 0.0):
        raise ZeroDivisionError("kernel assigned zero probability to a policy action")
    return _estimate(1.0 / picked)


def kernel_regret_from(probs: np.ndarray, gaps: np.ndarray) -> MCEstimate:
    """Mean over rows of sum_a p(a) * gap(a)."""
    return _estimate(np.einsum("ij,ij->i", probs, gaps))


def mse_from(f_values: np.ndarray, g_values: np.ndarray,
             probs: Optional[np.ndarray] = None) -> MCEstimate:
    """Mean squared gap between two reward matrices, over arms or weighted by ``probs``."""
    sq = (f_values - g_values) ** 2
    return _estimate(sq.mean(axis=1) if probs is None else (probs * sq).sum(axis=1))


def policy_value(spec: EnvSpec, pi: Policy, f: RewardSurface,
                 num_mc: int = 100_000, rng=0) -> MCEstimate:
    """E_x[f(x, pi(x))] by Monte Carlo over fresh uniform contexts."""
    xs = draw_contexts(spec, num_mc, rng)
    return mean_at(_surface_matrix(f, spec, xs), pi(xs))


def policy_regret(spec: EnvSpec, pi: Policy, f: RewardSurface,
                  num_mc: int = 100_000, rng=0) -> MCEstimate:
    """E_x[f(x, best arm under f) - f(x, pi(x))].  With f the environment
    truth this is the policy's true per-round regret."""
    xs = draw_contexts(spec, num_mc, rng)
    return mean_at(gaps_from(_surface_matrix(f, spec, xs))[0], pi(xs))


def decisional_divergence(spec: EnvSpec, kernel_fn: Callable[[np.ndarray], np.ndarray],
                          pi: Policy, num_mc: int = 100_000, rng=0) -> MCEstimate:
    """E_x[1 / p(pi(x) | x)] for a kernel given as xs -> (n, K) probability
    matrix.  The inverse-gap-weighted form keeps every probability strictly
    positive, so the expectation is well defined."""
    xs = draw_contexts(spec, num_mc, rng)
    return divergence_from(np.asarray(kernel_fn(xs), dtype=float), pi(xs))


def model_mse(f: RewardSurface, g: RewardSurface, spec: EnvSpec,
              sampling: Union[str, Callable[[np.ndarray], np.ndarray]] = "uniform",
              num_mc: int = 100_000, rng=0) -> MCEstimate:
    """Mean squared difference between two reward surfaces.

    ``sampling`` is either "uniform" (average the squared gap over all arms)
    or a kernel function xs -> (n, K) probabilities to weight arms by.
    """
    if sampling != "uniform" and not callable(sampling):
        raise ValueError("sampling must be 'uniform' or a kernel function")
    xs = draw_contexts(spec, num_mc, rng)
    probs = None if sampling == "uniform" else np.asarray(sampling(xs), dtype=float)
    return mse_from(_surface_matrix(f, spec, xs), _surface_matrix(g, spec, xs), probs)


def kernel_estimated_regret(spec: EnvSpec, model: LinearModel, gamma: float,
                            num_mc: int = 10_000, rng=0) -> MCEstimate:
    """E_x[sum_a p(a|x) * (f(x, best) - f(x, a))] for the inverse-gap
    kernel built from ``model`` -- the kernel's regret as measured by its
    own model.  Bounded by K/gamma pointwise."""
    preds = model.predict_matrix(draw_contexts(spec, num_mc, rng))
    return kernel_regret_from(igw_kernel(preds, gamma), gaps_from(preds)[0])


def kernel_true_regret(spec: EnvSpec, model: LinearModel, gamma: float,
                       num_mc: int = 10_000, rng=0) -> MCEstimate:
    """Per-round expected regret of the kernel under the TRUTH:
    E_x[sum_a p(a|x) * (f*(x, best true arm) - f*(x, a))]."""
    xs = draw_contexts(spec, num_mc, rng)
    return kernel_regret_from(igw_kernel(model.predict_matrix(xs), gamma),
                              gaps_from(envmod.mean_reward_matrix(spec, xs))[0])


def mean_model_gap(spec: EnvSpec, model: LinearModel, pi: Policy,
                   num_mc: int = 10_000, rng=0) -> MCEstimate:
    """E_x[model(x, best under model) - model(x, pi(x))]."""
    xs = draw_contexts(spec, num_mc, rng)
    return mean_at(gaps_from(model.predict_matrix(xs))[0], pi(xs))


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
    Every check reads one shared sample of ``num_mc`` contexts (common random numbers).

    One extra row per epoch is logged but NEVER asserted: the kernel's true
    per-round regret against the trend reference K/gamma + sqrt(K*B /
    sqrt(eps^rho)).  The theoretical version of that bound carries unknown
    constants, so only the measured ratio is reported (in the note field).
    """
    xs = draw_contexts(artifacts.spec, num_mc, rng)
    return lemma_suite_from(artifacts, xs,
                            envmod.best_linear_fit_uniform(artifacts.spec).predict_rows(xs))


def lemma_suite_from(artifacts: RunArtifacts, xs: np.ndarray,
                     fit_preds: np.ndarray) -> list[LemmaCheck]:
    """``lemma_suite`` on the contexts ``xs``, given the best uniform-design
    fit's (n, K) predictions ``fit_preds`` at them."""
    spec = artifacts.spec
    K = spec.num_arms
    checks: list[LemmaCheck] = []

    def check(name, m, lhs, rhs, se, note, ok=None):  # passed: ok, by default lhs <= rhs
        checks.append(LemmaCheck(name, m, lhs, rhs, se, lhs <= rhs if ok is None else ok, note))

    truth = envmod.mean_reward_matrix(spec, xs)
    b, B = envmod.error_estimates_from(spec, fit_preds, truth)
    tol_lo, tol_hi = 3.0 * math.hypot(b.se, B.se), 3.0 * math.hypot(B.se, K * b.se)
    check("error_ordering_lower", None, b.mc, B.mc + tol_lo, tol_lo, "b <= B")
    check("error_ordering_upper", None, B.mc, K * b.mc + tol_hi, tol_hi, "B <= K*b")

    a_best = row_max_argmax(fit_preds)[1] + 1  # the best-fit policy's arms
    truth_gaps = gaps_from(truth)[0]
    del fit_preds, truth
    reg_best = mean_at(truth_gaps, a_best)
    check("best_fit_policy_regret", None, reg_best.value,
          2.0 * math.sqrt(max(B.mc, 0.0)) + 3.0 * reg_best.se, reg_best.se,
          "Reg(pi_bestfit) <= 2*sqrt(B)")

    for m, (model, gamma) in enumerate(zip(artifacts.models[1:], artifacts.gammas[1:]), start=2):
        preds = model.predict_matrix(xs)
        probs = igw_kernel(preds, gamma)
        gaps, best = gaps_from(preds)
        est = kernel_regret_from(probs, gaps)
        check("kernel_estimated_regret", m, est.value, K / gamma + 3 * est.se, est.se, "<= K/gamma")

        V = divergence_from(probs, a_best)
        gap = mean_at(gaps, a_best)
        band = 3.0 * math.hypot(V.se, abs(gamma) * gap.se)
        lo, hi = gamma * gap.value, K + gamma * gap.value
        check("divergence_sandwich", m, V.value, hi + band, band,
              f"gamma*E[gap]={lo:.4g} <= V <= K+gamma*E[gap]", lo - band <= V.value <= hi + band)

        V_self = divergence_from(probs, best + 1)
        check("divergence_self", m, V_self.value, K + 3 * V_self.se, V_self.se, "V(p, pi_p) <= K")

        true_reg = kernel_regret_from(probs, truth_gaps)
        del preds, probs, gaps
        scale = math.sqrt(artifacts.epsilon ** artifacts.rho) if artifacts.epsilon else 1.0
        trend = K / gamma + math.sqrt(max(K * B.mc, 0.0) / scale)
        ratio = true_reg.value / trend if trend > 0 else float("nan")
        check("true_regret_trend", m, true_reg.value, trend, true_reg.se,
              f"ratio {ratio:.3f} logged only; constants unknown", True)
    return checks
