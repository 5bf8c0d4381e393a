"""Monte Carlo estimates of regrets, divergences and model errors, plus
the inequality checks used as run diagnostics.

The checks read matrices evaluated on one sample of contexts that the
caller drew (a run's sample comes from its seed's diagnostics stream, in
``harness.run_lemmas``) and report a standard error alongside each point
estimate.  Every matrix over arms is arm-major, (K, n) with one context
per column, so each operation runs along the n contexts and none along
the K arms; every sum over arms goes through ``linmodel.arm_sum``, which
has the bits of numpy's sum over the arms of the row-major (n, K) layout.
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
from typing import Optional

import numpy as np

from .env import EnvSpec, best_linear_fit_uniform, mean_reward_matrix
from .falcon import arm_gaps, igw_kernel, schedule_position
from .linmodel import LinearModel, arm_sum, featurize, row_max_argmax


@dataclass(frozen=True)
class MCEstimate:
    value: float
    se: float


def _estimate(samples: np.ndarray) -> MCEstimate:
    n = len(samples)
    return MCEstimate(float(samples.mean()),
                      float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf"))


def _divergence(picked: np.ndarray) -> MCEstimate:
    """Mean inverse probability of the arms a kernel gives ``picked``."""
    if np.any(picked <= 0.0):
        raise ZeroDivisionError("kernel assigned zero probability to a policy action")
    return _estimate(1.0 / picked)


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
    """Per-round record of a run: ``e_regret`` is the expected regret under
    the truth, ``noisy_regret_total`` the realized sum of (reward at the
    optimal arm - reward at the chosen arm) over the drawn reward vectors.

    Only the data columns are stored (a suite's traces keep ``e_regret``
    alone, the others None).  The round ``t``, its ``epoch`` and ``phase``
    (the schedule of ``tau1`` with a passive share ``epsilon``, 0 for the
    agents without phases) and ``cum_e_regret`` are made on demand by the
    attributes, and chunk by chunk by the trace writer with ``schedule_rows``
    and ``cumsum_after``, in the same bits."""

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

    t = property(lambda self: self.schedule_rows(0, len(self))[0])
    epoch = property(lambda self: self.schedule_rows(0, len(self))[1])
    phase = property(lambda self: self.schedule_rows(0, len(self))[2])
    cum_e_regret = property(lambda self: np.cumsum(self.e_regret))


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


def lemma_suite(spec: EnvSpec, models: list[LinearModel], gammas: list[float], xs: np.ndarray,
                events=()) -> list[LemmaCheck]:
    """Check the testable population inequalities of a finished run at the
    contexts ``xs`` against the best uniform-design fit (predicted row by
    row), each with 3 combined standard errors of Monte Carlo slack, all on
    the one sample (common random numbers).  ``models`` are the models in
    force during each epoch that started, the zero model of epoch 1 first,
    and ``gammas`` their epochs' gammas:

    * error ordering: b <= B <= K*b;
    * the best-fit policy's true regret is at most 2*sqrt(B);
    * per epoch m >= 2: the kernel's estimated regret is at most K/gamma_m,
      gamma*E[gap] <= V(p_m, pi) <= K + gamma*E[gap] for the best-fit
      policy, and V(p_m, pi_{f_m}) <= K for the kernel's own policy.

    Each epoch model is predicted once, by ``Phi @ W.T`` transposed
    (OpenBLAS's ``W @ Phi.T`` rounds differently at some K and n), and
    dropped after its checks and its refit's ``mse_to_best_fit`` (the k-th
    of ``events`` installed epoch k+1's model; one whose model no epoch
    ran is predicted for that alone).  The kernel regrets sum in ``arm_sum``'s
    order: at K >= 3 their last bits may differ from a row-major ``einsum``'s.
    """
    K = spec.num_arms
    checks: list[LemmaCheck] = []

    def check(name, m, lhs, rhs, se, note, ok=None):  # passed: ok, by default lhs <= rhs
        checks.append(LemmaCheck(name, m, lhs, rhs, se, lhs <= rhs if ok is None else ok, note))

    fit_preds = np.ascontiguousarray(best_linear_fit_uniform(spec).predict_rows(xs).T)
    truth = np.ascontiguousarray(mean_reward_matrix(spec, xs).T)
    sq = (fit_preds - truth) ** 2
    # b: the squared errors averaged over the arms; B: at the worst arm
    b, B = _estimate(arm_sum(sq) / K), _estimate(row_max_argmax(sq.T)[0])
    tol_lo, tol_hi = 3.0 * math.hypot(b.se, B.se), 3.0 * math.hypot(B.se, K * b.se)
    check("error_ordering_lower", None, b.value, B.value + tol_lo, tol_lo, "b <= B")
    check("error_ordering_upper", None, B.value, K * b.value + tol_hi, tol_hi, "B <= K*b")

    # flat indices of each context's best-fit policy arm in a (K, n) matrix
    cols = np.arange(xs.shape[0])
    at_best_fit = row_max_argmax(fit_preds.T)[1] * len(cols) + cols
    reg_best = _estimate(arm_gaps(truth)[0].take(at_best_fit))
    del sq, truth
    check("best_fit_policy_regret", None, reg_best.value,
          2.0 * math.sqrt(max(B.value, 0.0)) + 3.0 * reg_best.se, reg_best.se,
          "Reg(pi_bestfit) <= 2*sqrt(B)")

    Phi = featurize(xs, spec.context_dim)
    weights = [model.weights for model in models[1:]]
    weights += [ev.new_model.weights for ev in events[len(weights):]]
    for m, w in enumerate(weights, start=2):
        preds = (Phi @ w.T).T.copy()
        if m - 2 < len(events):
            sq = preds - fit_preds
            sq *= sq
            events[m - 2].mse_to_best_fit = float((arm_sum(sq) / K).mean())
            del sq
        if m > len(models):
            continue
        gamma = gammas[m - 1]
        gaps, best = arm_gaps(preds)
        del preds
        probs = igw_kernel(gaps, best, gamma)
        V, V_self = (_divergence(probs.take(at)) for at in (at_best_fit, best * len(cols) + cols))
        gap = _estimate(gaps.take(at_best_fit))
        gaps *= probs  # then the products p(a) * gap(a)
        est = _estimate(arm_sum(gaps))
        del probs, gaps
        check("kernel_estimated_regret", m, est.value, K / gamma + 3 * est.se, est.se, "<= K/gamma")
        band = 3.0 * math.hypot(V.se, abs(gamma) * gap.se)
        lo, hi = gamma * gap.value, K + gamma * gap.value
        check("divergence_sandwich", m, V.value, hi + band, band,
              f"gamma*E[gap]={lo:.4g} <= V <= K+gamma*E[gap]", lo - band <= V.value <= hi + band)
        check("divergence_self", m, V_self.value, K + 3 * V_self.se, V_self.se, "V(p; pi_p) <= K")
    return checks
