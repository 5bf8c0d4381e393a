"""Inverse-gap-weighted bandit agents on a doubling epoch schedule.

The main agent runs in epochs whose boundaries double (tau_m = tau1 *
2^(m-1)).  Within epoch m it carries a fixed linear reward model f_m and a
scale gamma_m, and splits the epoch into an ACTIVE prefix, where arms are
drawn from the inverse-gap-weighted kernel

    p(a | x) = 1 / (K + gamma * (f_m(x, best) - f_m(x, a)))   for a != best,

with the predicted-best arm taking the remainder, and a PASSIVE suffix of
ceil(epsilon * epoch_length) uniformly-random rounds.  At the epoch boundary
the model is refit: the passive rounds define a budget (best attainable
normalized SSE on them plus a shrinking slack) and the next model minimizes
the active-round error subject to that budget, via the constrained
regression oracle in ``linmodel``.  With epsilon = 0 there is no passive
data and the update degrades to the plain unconstrained fit -- that is the
un-guarded variant offered as the ``falcon`` baseline.

Baselines: ``LinUCBAgent`` (per-arm ridge regression with an upper
confidence bonus, refreshed in batches) and ``UniformAgent``.

Every agent is played in blocks, runs of rounds under one frozen policy:
``block_end(t, last)`` is the last round (capped at ``last``) of the block
that round t opens, ``act_block(t, xs, rng)`` draws the arms of rounds t,
t+1, ... of one block, and ``record_block(t, xs, arms, rewards)`` stores
them.  A single round is a one-row block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linmodel import (ConstraintSpec, DataBatch, LinearModel, constrained_fit,
                       featurize, fit_ols, row_max_argmax, rowwise_predict)


class SequencingError(RuntimeError):
    """Rounds were played outside the agent's current epoch or block."""


class InvalidConfidenceError(ValueError):
    """gamma schedule hit a nonpositive log term."""


@dataclass(frozen=True)
class EpochSchedule:
    """Doubling boundaries: tau_0 = 0, tau_m = tau1 * 2^(m-1)."""

    tau1: int = 4

    def __post_init__(self):
        if self.tau1 < 4:
            raise ValueError("tau1 must be >= 4")

    def boundary(self, m: int) -> int:
        if m < 0:
            raise ValueError("epoch index must be >= 0")
        return 0 if m == 0 else self.tau1 * 2 ** (m - 1)

    def epoch_length(self, m: int) -> int:
        return self.boundary(m) - self.boundary(m - 1)

    def epoch_of(self, t: int) -> int:
        """Smallest m with tau_m >= t, for t >= 1."""
        if t < 1:
            raise ValueError("round index starts at 1")
        return 1 + (-(-int(t) // self.tau1) - 1).bit_length()


@dataclass(frozen=True)
class RateParams:
    """Rate knobs for the gamma schedule and the constraint budget.

    The linear preset is rho = 1, rho_prime = 0, comp = total parameter
    count.  The constants C1 and C3 are not pinned by theory; both default
    to 1.
    """

    rho: float = 1.0
    rho_prime: float = 0.0
    comp: float = 4.0
    C1: float = 1.0
    C3: float = 1.0
    delta: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        if self.rho_prime < 0:
            raise ValueError("rho_prime must be >= 0")
        if self.comp <= 0 or self.C1 <= 0 or self.C3 <= 0:
            raise ValueError("comp, C1, C3 must be > 0")
        if not 0.0 < self.delta <= 0.5:
            raise ValueError("delta must be in (0, 0.5]")

    @staticmethod
    def linear_preset(num_arms: int, context_dim: int = 1, **overrides) -> "RateParams":
        d = num_arms * (context_dim + 1)
        return RateParams(rho=1.0, rho_prime=0.0, comp=float(d), **overrides)


def _log_pow(n: float, rho_prime: float) -> float:
    # ln^rho'(n); exactly 1 when rho' == 0 regardless of n
    if rho_prime == 0.0:
        return 1.0
    return math.log(n) ** rho_prime


def gamma_for_epoch(m: int, sched: EpochSchedule, rates: RateParams, num_arms: int) -> float:
    """Active-phase exploration scale for epoch m.

    gamma_1 = 1; for m >= 2,
    gamma_m = sqrt(C3 * K * len_{m-1}^rho
                   / (ln^rho'(len_{m-1}) * ln((m-1)/delta) * comp))
    with len_{m-1} = tau_{m-1} - tau_{m-2}.  Larger gamma means less
    exploration.
    """
    if m < 1:
        raise ValueError("epoch index starts at 1")
    if m == 1:
        return 1.0
    if (m - 1) / rates.delta <= 1.0:
        raise InvalidConfidenceError(
            f"ln((m-1)/delta) nonpositive for m={m}, delta={rates.delta}")
    n_prev = sched.epoch_length(m - 1)
    denom = _log_pow(n_prev, rates.rho_prime) * math.log((m - 1) / rates.delta) * rates.comp
    return math.sqrt(rates.C3 * num_arms * n_prev ** rates.rho / denom)


def igw_kernel(preds: np.ndarray, gamma: float) -> np.ndarray:
    """(n, K) inverse-gap-weighted kernel from (n, K) predictions.  Gaps
    are nonnegative, so every denominator is >= K and the best arm's
    remainder is >= 1/K."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    top, best = row_max_argmax(preds)
    probs = 1.0 / (preds.shape[1] + gamma * (top[:, None] - preds))
    rows = np.arange(len(preds))
    probs[rows, best] = 0.0
    probs[rows, best] = 1.0 - probs.sum(axis=1)
    return probs


def sample_kernel(probs: np.ndarray, rng) -> np.ndarray:
    """One arm (1-based) per row of ``probs``: the first arm whose cumulative
    probability exceeds one uniform draw per row, else arm K.  Cumulative
    sums of nonnegative terms never decrease, so that arm is one plus the
    count of the first K-1 sums at or below the draw."""
    u = rng.random(len(probs))
    return (probs[:, :-1].cumsum(axis=1) <= u[:, None]).sum(axis=1) + 1


def tune_epsilon(b_guess: float, num_arms: int, c: float = 1.0) -> float:
    """Passive-exploration fraction from a guess of the approximation error:
    c * K^(4/5) * b^(2/5), capped at 0.49 (the analysis needs eps < 0.5)."""
    if b_guess < 0:
        raise ValueError("b_guess must be >= 0")
    if c <= 0:
        raise ValueError("c must be > 0")
    return min(c * num_arms ** 0.8 * b_guess ** 0.4, 0.49)


@dataclass
class EpochEvent:
    """What happened at one epoch boundary (the refit of the model)."""

    m: int
    tau_start: int            # first round of epoch m
    tau_end: int              # last round of epoch m
    gamma: float              # gamma_m in force during the epoch
    alpha: float              # best normalized SSE on the passive batch
    slack: float              # constraint budget above alpha
    lambda_star: float
    duality_gap: float
    new_weights: np.ndarray   # model installed for epoch m+1
    constraint_residual: float = float("nan")
    unconstrained: bool = False  # no passive data: plain least-squares update
    ridge_fallback: bool = False
    converged: bool = True    # the dual bisection met its tolerance
    mse_to_best_fit: float = float("nan")  # filled by the harness


class EpsilonFalconAgent:
    """Epoch state machine: kernel sampling, phase bookkeeping, refits.

    Its blocks are the active prefix and the passive suffix of each epoch.
    ``record_block`` fires the end-of-epoch update automatically when its
    rounds close the epoch.  Rounds must arrive in order -- playing a round
    outside the current epoch, or one block across both phases, raises
    ``SequencingError``.
    """

    def __init__(self, num_arms: int, context_dim: int = 1, epsilon: float = 0.1,
                 schedule: EpochSchedule = EpochSchedule(), rates: Optional[RateParams] = None,
                 tol: float = 1e-6):
        if not 0.0 <= epsilon < 0.5:
            raise ValueError("epsilon must be in [0, 0.5)")
        self.num_arms = num_arms
        self.context_dim = context_dim
        self.epsilon = epsilon
        self.schedule = schedule
        self.rates = rates if rates is not None else RateParams.linear_preset(num_arms, context_dim)
        self.tol = tol
        self.m = 1
        self.model = LinearModel.zeros(num_arms, context_dim)
        self.gamma = gamma_for_epoch(1, schedule, self.rates, num_arms)
        self.active_batch = DataBatch(num_arms, context_dim)
        self.passive_batch = DataBatch(num_arms, context_dim)
        self.events: list[EpochEvent] = []
        self.model_history: list[np.ndarray] = [self.model.weights.copy()]
        self.gamma_history: list[float] = [self.gamma]

    def passive_rounds(self, m: Optional[int] = None) -> int:
        length = self.schedule.epoch_length(self.m if m is None else m)
        return math.ceil(self.epsilon * length)

    def phase_of(self, t: int) -> str:
        """'active' or 'passive' for round t of the current epoch."""
        m = self.schedule.epoch_of(t)
        if m != self.m:
            raise SequencingError(
                f"round {t} belongs to epoch {m}, agent is in epoch {self.m}")
        last_active = self.schedule.boundary(m) - self.passive_rounds(m)
        return "active" if t <= last_active else "passive"

    def block_end(self, t: int, last: int) -> int:
        end = self.schedule.boundary(self.m)
        if self.phase_of(t) == "active":
            end -= self.passive_rounds()
        return min(end, last)

    def _block_phase(self, t: int, n: int) -> str:
        phase = self.phase_of(t)
        if n > 1 and self.phase_of(t + n - 1) != phase:
            raise SequencingError(f"rounds {t}..{t + n - 1} span both phases")
        return phase

    def act_block(self, t: int, xs, rng) -> np.ndarray:
        """Kernel draws in the active prefix, uniform draws in the passive
        suffix."""
        if self._block_phase(t, len(xs)) == "passive":
            return rng.integers(self.num_arms, size=len(xs)) + 1
        return sample_kernel(igw_kernel(self.model.predict_rows(xs), self.gamma), rng)

    def record_block(self, t: int, xs, arms, rewards) -> Optional[EpochEvent]:
        """Store the block's rounds; returns the epoch event if they close
        the current epoch."""
        phase = self._block_phase(t, len(arms))
        (self.active_batch if phase == "active" else self.passive_batch).extend(xs, arms, rewards)
        if t + len(arms) - 1 == self.schedule.boundary(self.m):
            return self.end_of_epoch_update()
        return None

    def end_of_epoch_update(self) -> EpochEvent:
        """Refit the model from this epoch's data and advance the epoch.

        With passive data present the refit is the constrained oracle with
        budget slack = C1 * ln^rho'(n') * ln(12 m^2 / delta) * comp / n'^rho
        over the passive ERM's normalized SSE.  With epsilon = 0 there is
        nothing to constrain against and the update falls back to the plain
        unconstrained fit on the active batch.
        """
        m, rates = self.m, self.rates
        tau_start = self.schedule.boundary(m - 1) + 1
        tau_end = self.schedule.boundary(m)
        if len(self.passive_batch) > 0:
            n_pass = len(self.passive_batch)
            slack = (rates.C1 * _log_pow(n_pass, rates.rho_prime)
                     * math.log(12.0 * m * m / rates.delta) * rates.comp
                     / n_pass ** rates.rho)
            cons = ConstraintSpec(self.passive_batch, slack)
            new_model, report = constrained_fit(self.active_batch, cons, self.tol)
            event = EpochEvent(m, tau_start, tau_end, self.gamma, report.alpha,
                               slack, report.lam, report.duality_gap,
                               new_model.weights.copy(),
                               constraint_residual=report.constraint_residual,
                               ridge_fallback=new_model.ridge_fallback,
                               converged=report.converged)
        else:
            new_model = fit_ols(self.active_batch)
            event = EpochEvent(m, tau_start, tau_end, self.gamma,
                               float("nan"), float("nan"), float("nan"),
                               float("nan"), new_model.weights.copy(),
                               unconstrained=True,
                               ridge_fallback=new_model.ridge_fallback)
        self.model = new_model
        self.m = m + 1
        self.gamma = gamma_for_epoch(self.m, self.schedule, rates, self.num_arms)
        self.active_batch = DataBatch(self.num_arms, self.context_dim)
        self.passive_batch = DataBatch(self.num_arms, self.context_dim)
        self.events.append(event)
        self.model_history.append(self.model.weights.copy())
        self.gamma_history.append(self.gamma)
        return event


class LinUCBAgent:
    """Disjoint per-arm ridge regression with an upper-confidence bonus.

    Scores are theta_a . phi(x) + alpha_ucb * sqrt(phi' A_a^{-1} phi).  The
    sufficient statistics accumulate every round, but theta and A^{-1} are
    refreshed only every ``batch_size`` observations; the rounds between two
    refreshes form one block.
    """

    def __init__(self, num_arms: int, context_dim: int = 1, alpha_ucb: float = 0.2,
                 ridge: float = 1.0, batch_size: int = 100):
        if ridge <= 0:
            raise ValueError("ridge must be > 0")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        p = context_dim + 1
        self.num_arms = num_arms
        self.context_dim = context_dim
        self.alpha_ucb = alpha_ucb
        self.batch_size = batch_size
        self.G = np.stack([ridge * np.eye(p) for _ in range(num_arms)])
        self.bvec = np.zeros((num_arms, p))
        self._refresh()
        self._since_refresh = 0
        self._last_features = (None, None)

    def _refresh(self) -> None:
        self.G_inv = np.linalg.inv(self.G)
        self.theta = np.einsum("aij,aj->ai", self.G_inv, self.bvec)

    def block_end(self, t: int, last: int) -> int:
        return min(last, t + self.batch_size - self._since_refresh - 1)

    def _features(self, xs) -> np.ndarray:
        # act_block and record_block of one block share the design rows;
        # record_block drops them
        if self._last_features[0] is not xs:
            self._last_features = (xs, featurize(xs, self.context_dim))
        return self._last_features[1]

    def act_block(self, t: int, xs, rng) -> np.ndarray:
        Phi = self._features(xs)
        means = rowwise_predict(self.theta, Phi)
        widths = np.sqrt(np.einsum("ni,aij,nj->na", Phi, self.G_inv, Phi))
        # a block has at most batch_size rows: numpy's argmax beats row_max_argmax there
        return (means + self.alpha_ucb * widths).argmax(axis=1) + 1

    def record_block(self, t: int, xs, arms, rewards) -> None:
        """Accumulate the rank-one updates in round order; refresh when the
        block completes a batch.  A block may not run past a refresh."""
        n = len(arms)
        if n > self.batch_size - self._since_refresh:
            raise SequencingError(f"{n} rounds run past the next refresh")
        Phi = self._features(xs)
        outer, rphi = Phi[:, :, None] * Phi[:, None, :], np.asarray(rewards)[:, None] * Phi
        # np.add.at adds row after row, like a round-by-round run; a one-row
        # block does without its overhead
        if n == 1:
            a = int(arms[0]) - 1
            self.G[a] += outer[0]
            self.bvec[a] += rphi[0]
        else:
            idx = np.asarray(arms) - 1
            np.add.at(self.G, idx, outer)
            np.add.at(self.bvec, idx, rphi)
        self._last_features = (None, None)
        self._since_refresh += n
        if self._since_refresh >= self.batch_size:
            self._refresh()
            self._since_refresh = 0


class UniformAgent:
    """Context-free uniform arm choice; the whole horizon is one block."""

    def __init__(self, num_arms: int, context_dim: int = 1):
        self.num_arms = num_arms
        self.context_dim = context_dim

    def block_end(self, t: int, last: int) -> int:
        return last

    def act_block(self, t: int, xs, rng) -> np.ndarray:
        return rng.integers(self.num_arms, size=len(xs)) + 1

    def record_block(self, t: int, xs, arms, rewards) -> None:
        pass
