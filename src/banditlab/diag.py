"""Monte Carlo estimates of regrets, divergences and model errors, plus
the inequality checks used as run diagnostics.

Every function here is pure: it reads (n, K) matrices evaluated on one
sample of contexts that the caller drew (a run's sample comes from its
seed's diagnostics stream, in ``harness.run_lemmas``) and reports a
standard error alongside the point estimate.  Inequality checks compare
population statements at a 3-standard-error band, since sampling noise
sits on both sides.

A regret trace records EXPECTED instantaneous regret per round,
f*(x, best-arm) - f*(x, a), which is nonnegative row by row and gives
low-variance curves; the realized noisy regret sum (difference of drawn
reward vectors) is kept as a single per-run scalar for fidelity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .env import EnvSpec, mean_reward_matrix
from .falcon import igw_kernel, schedule_position
from .linmodel import LinearModel, row_max_argmax


@dataclass(frozen=True)
class MCEstimate:
    value: float
    se: float


def _estimate(samples: np.ndarray) -> MCEstimate:
    n = len(samples)
    return MCEstimate(float(samples.mean()),
                      float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf"))


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


def error_estimates_from(fit_preds: np.ndarray,
                         truth: np.ndarray) -> tuple[MCEstimate, MCEstimate]:
    """b and B from (n, K) best-fit predictions and truth at the same
    contexts: the fit's squared error averaged over arms (b), or at the
    worst arm (B), in mean over the contexts."""
    sq = (fit_preds - truth) ** 2
    return _estimate(sq.mean(axis=1)), _estimate(row_max_argmax(sq)[0])


# ---------------------------------------------------------------------------
# regret traces
# ---------------------------------------------------------------------------

def cumsum_after(values: np.ndarray, before=None) -> np.ndarray:
    """``np.cumsum(values, axis=-1)`` continued from ``before``, the running
    totals just ahead of the first column (None: nothing ahead): with the
    bits of one cumsum over the whole rows, since the totals are summed one
    value after another and ``before`` is added to the first value first."""
    out = np.array(values, dtype=float)
    if before is not None and out.shape[-1]:
        out[..., 0] += before
    return np.cumsum(out, axis=-1, out=out)


@dataclass
class RegretTrace:
    """Per-round record of a run.  ``e_regret`` is the expected
    instantaneous regret under the truth; ``noisy_regret_total`` is the
    realized sum of (reward at optimal arm - reward at chosen arm) over the
    drawn reward vectors.

    Only the data columns are stored (a suite's traces keep ``e_regret``
    alone, the others None).  The round ``t``, its ``epoch`` and ``phase``
    (the schedule of ``tau1`` with a passive share ``epsilon``, 0 for the
    agents without phases) and ``cum_e_regret`` are made on demand, whole by
    the attributes; the trace writer makes them chunk by chunk, with
    ``schedule_rows`` and ``cumsum_after``, in the same bits."""

    x: Optional[np.ndarray]
    action: Optional[np.ndarray]
    reward: Optional[np.ndarray]
    e_regret: np.ndarray
    tau1: int
    epsilon: float = 0.0
    noisy_regret_total: float = 0.0

    def __len__(self) -> int:
        return len(self.e_regret)

    def schedule_rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``t``, ``epoch`` and ``phase`` ('active' | 'passive', <U7) of rows lo..hi-1."""
        t = np.arange(lo + 1, hi + 1, dtype=np.int64)
        epoch, passive = schedule_position(t, self.tau1, self.epsilon)
        return t, epoch, np.where(passive, "passive", "active")

    @property
    def t(self) -> np.ndarray:
        return self.schedule_rows(0, len(self))[0]

    @property
    def epoch(self) -> np.ndarray:
        return self.schedule_rows(0, len(self))[1]

    @property
    def phase(self) -> np.ndarray:
        return self.schedule_rows(0, len(self))[2]

    @property
    def cum_e_regret(self) -> np.ndarray:
        return np.cumsum(self.e_regret)


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


def lemma_suite(artifacts: RunArtifacts, xs: np.ndarray,
                fit_preds: np.ndarray) -> list[LemmaCheck]:
    """Check the testable population inequalities on a finished run, at the
    contexts ``xs``, given the best uniform-design fit's (n, K) predictions
    ``fit_preds`` at them:

    * error ordering: b <= B <= K*b;
    * the policy induced by the best uniform-design fit has true regret
      at most 2*sqrt(B);
    * per epoch m >= 2: the kernel's estimated regret is at most K/gamma_m;
    * per epoch m >= 2: gamma*E[gap] <= V(p_m, pi) <= K + gamma*E[gap] for
      the best-fit policy, and V(p_m, pi_{f_m}) <= K for the kernel's own
      induced policy.

    All comparisons allow 3 combined standard errors of Monte Carlo slack.
    Every check reads the one sample (common random numbers).

    One extra row per epoch is logged but NEVER asserted: the kernel's true
    per-round regret against the trend reference K/gamma + sqrt(K*B /
    sqrt(eps^rho)).  The theoretical version of that bound carries unknown
    constants, so only the measured ratio is reported (in the note field).
    """
    spec = artifacts.spec
    K = spec.num_arms
    checks: list[LemmaCheck] = []

    def check(name, m, lhs, rhs, se, note, ok=None):  # passed: ok, by default lhs <= rhs
        checks.append(LemmaCheck(name, m, lhs, rhs, se, lhs <= rhs if ok is None else ok, note))

    truth = mean_reward_matrix(spec, xs)
    b, B = error_estimates_from(fit_preds, truth)
    tol_lo, tol_hi = 3.0 * math.hypot(b.se, B.se), 3.0 * math.hypot(B.se, K * b.se)
    check("error_ordering_lower", None, b.value, B.value + tol_lo, tol_lo, "b <= B")
    check("error_ordering_upper", None, B.value, K * b.value + tol_hi, tol_hi, "B <= K*b")

    a_best = row_max_argmax(fit_preds)[1] + 1  # the best-fit policy's arms
    truth_gaps = gaps_from(truth)[0]
    del fit_preds, truth
    reg_best = mean_at(truth_gaps, a_best)
    check("best_fit_policy_regret", None, reg_best.value,
          2.0 * math.sqrt(max(B.value, 0.0)) + 3.0 * reg_best.se, reg_best.se,
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
        check("divergence_self", m, V_self.value, K + 3 * V_self.se, V_self.se, "V(p; pi_p) <= K")

        true_reg = kernel_regret_from(probs, truth_gaps)
        del preds, probs, gaps
        scale = math.sqrt(artifacts.epsilon ** artifacts.rho) if artifacts.epsilon else 1.0
        trend = K / gamma + math.sqrt(max(K * B.value, 0.0) / scale)
        ratio = true_reg.value / trend if trend > 0 else float("nan")
        check("true_regret_trend", m, true_reg.value, trend, true_reg.se,
              f"ratio {ratio:.3f} logged only; constants unknown", True)
    return checks
