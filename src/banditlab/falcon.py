"""Inverse-gap-weighted bandit agents on a doubling epoch schedule.

The main agent runs in epochs whose boundaries double (tau_m = tau1 *
2^(m-1)).  Within epoch m it carries a fixed linear reward model f_m and a
scale gamma_m, and splits the epoch into an ACTIVE prefix, where arms are
drawn from the inverse-gap-weighted kernel

    p(a | x) = 1 / (K + gamma * (f_m(x, best) - f_m(x, a)))   for a != best,

with the predicted-best arm taking the remainder, and a PASSIVE suffix of
ceil(epsilon * epoch length) uniformly-random rounds.  At the epoch boundary
the model is refit: the passive rounds define a budget (best attainable
normalized SSE on them plus a shrinking slack) and the next model minimizes
the active-round error subject to that budget, via the constrained
regression oracle in ``linmodel``.  With epsilon = 0 there is no passive
data and the update degrades to the plain unconstrained fit -- that is the
un-guarded variant offered as the ``falcon`` baseline.

Baselines: ``LinUCBAgent`` (per-arm ridge regression with an upper
confidence bonus, refreshed in batches) and ``UniformAgent``.

Every agent plays R replications in lockstep, in blocks: runs of rounds
under one frozen policy per replication, with the same boundaries in every
replication (FALCON's from the schedule, LinUCB's from the refresh count).
``block_end(t, last)`` is the last round (capped at ``last``, the end of
the environment draw being played) of the block that round t opens; the
harness ends an epoch agent's draws at its epoch ends and a LinUCB draw
after whole refresh batches, so a LinUCB block is cut at a draw's end only
where its batch is longer than a draw.  ``act_block(t, xs, rngs)`` maps the
(R, n) or (R, n, d) contexts of rounds t..t+n-1 and one generator per
replication to (R, n) arms; ``record_block(t, xs, arms, rewards)`` stores
them.  Each step is one stacked numpy call whose result rows equal the
one-replication call's bit for bit; draws stay per replication.  LinUCB
and the epoch agents record into a ``linmodel.MomentStore``, one call per
block, and an epoch agent refits in one ``linmodel.fit_replications``.  The
kernel is arm-major, (K, n) with one context per column, so no operation
runs along the K arms; its sums over arms take ``linmodel.arm_sum``'s order.
LinUCB's widths take the design rows feature-major, (R, p, n), so their
einsum's inner loop runs along the n rows, not the p features; each width
still adds its p * p terms in the (i, j) order of the row-major
"rni,raij,rnj->rna" on (R, n, p) rows, so it keeps that formula's bits
at every p, K and n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .env import interval_errors
from .linmodel import (DualReport, LinearModel, MomentStore, arm_sum, check_finite, featurize,
                       fit_replications, row_max_argmax, rowwise_predict)


class SequencingError(RuntimeError):
    """Rounds were played outside the agent's current epoch or block."""


def _auto_or_float(text: str) -> Optional[float]:
    return None if text == "auto" else float(text)


# The agent.* rows of harness.CONFIG_KEYS after agent.name, laid out as
# env.ENV_KEYS; the agents, RateParams and EpochSchedule check against them.
AGENT_KEYS = (
    ("agent.epsilon", "epsilon", float, "[0, 0.5)"),
    ("agent.delta", "delta", float, "(0, 0.5]"),
    # at most 2^62, so that the first epoch's rounds fit schedule_position's int64 arrays
    ("agent.tau1", "tau1", int, "[4, 4611686018427387904]"),
    ("agent.c1", "c1", float, "(0, inf)"),
    ("agent.c3", "c3", float, "(0, inf)"),
    ("agent.rho", "rho", float, "(0, 1]"),
    ("agent.rho_prime", "rho_prime", float, "[0, inf)"),
    ("agent.comp", "comp", _auto_or_float, "(0, inf)"),
    ("agent.alpha_ucb", "alpha_ucb", float, "(-inf, inf)"),
    ("agent.ridge", "ridge", float, "(0, inf)"),
    ("agent.batch_size", "batch_size", int, "[1, inf)"),
)


def _check_agent_values(**values) -> None:
    """A ValueError naming each of ``values`` (by field) its row rejects, None included."""
    errs = interval_errors(AGENT_KEYS, {k: math.nan if v is None else v for k, v in values.items()})
    if errs:
        raise ValueError("; ".join(errs))


@dataclass(frozen=True)
class EpochSchedule:
    """Doubling boundaries: tau_0 = 0, tau_m = tau1 * 2^(m-1)."""

    tau1: int

    def __post_init__(self):
        _check_agent_values(tau1=self.tau1)

    def boundary(self, m: int) -> int:
        if m < 0:
            raise ValueError("epoch index must be >= 0")
        return 0 if m == 0 else epoch_rounds(m, self.tau1, 0.0)[1]

    def epoch_of(self, t: int) -> int:
        """Smallest m with tau_m >= t, for t >= 1."""
        if t < 1:
            raise ValueError("round index starts at 1")
        return int(schedule_position(t, self.tau1, 0.0)[0])


def epoch_rounds(m, tau1: int, epsilon: float):
    """(last active round, last round tau_m) of epoch m >= 1, an int or an
    int64 array: the last ceil(epsilon * len_m) of the epoch's len_m =
    tau_m - tau_{m-1} rounds are passive.  The last active round is a
    float, exact below 2^53."""
    end = tau1 << (m - 1)
    length = end - (end >> 1) * (m > 1)  # tau_0 = 0
    return end - np.ceil(epsilon * length), end


def schedule_position(t, tau1: int, epsilon: float):
    """Epoch m (the smallest with tau_m >= t) and whether the round is
    passive, of a round t >= 1 or of an int64 array of rounds below 2^53:
    the one epoch/phase formula, which ``EpochSchedule.epoch_of`` and
    ``EpsilonFalconAgent.phase_of`` apply to one round and
    ``diag.RegretTrace`` to a chunk of a trace's rounds."""
    q = (t - 1) // tau1  # m - 1 is the bit length of ceil(t / tau1) - 1
    m = 1 + (q.bit_length() if isinstance(q, int) else np.frexp(q)[1].astype(np.int64))
    return m, t > epoch_rounds(m, tau1, epsilon)[0]


@dataclass(frozen=True)
class RateParams:
    """Rate knobs for the gamma schedule and the constraint budget; defaults
    in ``harness.RunConfig``.  C1 and C3 are not pinned by theory."""

    rho: float
    rho_prime: float
    comp: float
    C1: float
    C3: float
    delta: float

    def __post_init__(self):
        _check_agent_values(delta=self.delta, c1=self.C1, c3=self.C3, rho=self.rho,
                           rho_prime=self.rho_prime, comp=self.comp)


def _usable_rate(name: str, m: int, formula) -> float:
    """``formula()``, epoch m's gamma or budget slack, if it is finite and > 0
    (a power past the float range is inf); else a FloatingPointError naming m."""
    try:
        if 0.0 < (value := formula()) < math.inf:
            return value
    except OverflowError:
        value = math.inf
    raise FloatingPointError(f"{name} of epoch {m} is {value!r}; it must be finite and > 0")


def gamma_for_epoch(m: int, sched: EpochSchedule, rates: RateParams, num_arms: int) -> float:
    """Active-phase exploration scale for epoch m.

    gamma_1 = 1; for m >= 2,
    gamma_m = sqrt(C3 * K * len_{m-1}^rho
                   / (ln^rho'(len_{m-1}) * ln((m-1)/delta) * comp))
    with len_{m-1} = tau_{m-1} - tau_{m-2}.  Larger gamma means less
    exploration.
    """
    if m == 1:
        return 1.0
    # an m < 1 is refused by sched.boundary; delta <= 0.5 (RateParams), so
    # ln((m-1)/delta) >= ln 2; x ** 0.0 is 1.0
    n_prev = sched.boundary(m - 1) - sched.boundary(m - 2)
    return _usable_rate("gamma", m, lambda: math.sqrt(rates.C3 * num_arms * n_prev ** rates.rho / (
        math.log(n_prev) ** rates.rho_prime * math.log((m - 1) / rates.delta) * rates.comp)))


def arm_gaps(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaps below each context's maximum in an arm-major (K, n) matrix, one
    context per column, laid out C-contiguous whatever the layout of
    ``values``, and each context's 0-based argmax (ties to the first arm)."""
    top, best = row_max_argmax(values.T)
    return np.subtract(top, values, order="C"), best


def igw_kernel(gaps: np.ndarray, best: np.ndarray, gamma: float) -> np.ndarray:
    """Arm-major (K, n) inverse-gap-weighted kernel from the ``arm_gaps`` of
    (K, n) predictions.  Gaps are nonnegative, so every denominator is >= K;
    the best arm takes 1 minus the others' ``arm_sum``, which is >= 1/K."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    probs = gaps * gamma
    probs += len(gaps)
    np.divide(1.0, probs, out=probs)
    # the best arm's entry to 0, then to the remainder; the other entries
    # are positive, so multiplying by 1 and adding 0 keeps them
    is_best = best == np.arange(len(gaps))[:, None]
    probs *= ~is_best
    probs += is_best * (1.0 - arm_sum(probs))
    return probs


def sample_kernel(probs: np.ndarray, rngs) -> np.ndarray:
    """(R, n) arms (1-based) from arm-major (K, R, n) ``probs`` and one
    generator per replication: the first arm whose cumulative probability
    exceeds one uniform draw per context, else arm K, which is one plus the
    count of the first K-1 cumulative sums (they never decrease) at or below it."""
    u = np.stack([rng.random(probs.shape[-1]) for rng in rngs])
    total, arms = probs[0], (probs[0] <= u) + 1
    for p in probs[1:-1]:
        total = total + p
        arms += total <= u
    return arms


def uniform_arms(num_arms: int, n: int, rngs) -> np.ndarray:
    """(R, n) uniformly random arms (1-based), n from each generator."""
    return np.stack([rng.integers(num_arms, size=n) for rng in rngs]) + 1


@dataclass
class EpochEvent:
    """The refit at the end of epoch m: the very ``LinearModel`` it returned,
    installed for epoch m + 1, and the ``DualReport`` that ``fit_replications``
    returned with it (None for FALCON's plain least squares)."""

    m: int
    tau_start: int            # first round of epoch m
    tau_end: int              # last round of epoch m
    gamma: float              # gamma_m in force during the epoch
    new_model: LinearModel
    report: Optional[DualReport]
    mse_to_best_fit: float = float("nan")  # to f-hat*, on the diagnostics sample: run_lemmas


class EpsilonFalconAgent:
    """Epoch state machine: kernel sampling, phase bookkeeping, refits, for
    ``replications`` runs in lockstep.

    ``weights`` (R, K, 1 + d) holds the model in force in each replication
    and ``events`` one list per replication, each event with the model
    its refit installed; the epoch, the phase and gamma are shared.
    ``stores`` holds the current epoch's "active" moments and, for epsilon
    > 0, its "passive" ones.  Its blocks are each epoch's active prefix and
    passive suffix, and ``record_block`` refits when its rounds close the
    epoch.  Rounds must arrive in order: a round outside the current epoch,
    or a block across both phases, raises ``SequencingError``.
    """

    def __init__(self, num_arms: int, context_dim: int = 1, *, epsilon: float,
                 schedule: EpochSchedule, rates: RateParams, replications: int = 1):
        _check_agent_values(epsilon=epsilon)
        self.num_arms, self.context_dim = num_arms, context_dim
        self.epsilon = epsilon
        self.schedule = schedule
        self.rates = rates
        self.m = 1
        self.weights = np.zeros((replications, num_arms, context_dim + 1))
        self.gamma = gamma_for_epoch(1, schedule, self.rates, num_arms)
        self._new_stores()
        self.events: list[list[EpochEvent]] = [[] for _ in range(replications)]

    def _new_stores(self) -> None:
        R, K, d = len(self.weights), self.num_arms, self.context_dim
        phases = ("active", "passive") if self.epsilon > 0 else ("active",)
        self.stores = {phase: MomentStore(R, K, d) for phase in phases}

    def phase_of(self, t: int) -> str:
        """'active' or 'passive' for round t of the current epoch."""
        if t < 1:
            raise ValueError("round index starts at 1")
        m, passive = schedule_position(t, self.schedule.tau1, self.epsilon)
        if m != self.m:
            raise SequencingError(
                f"round {t} belongs to epoch {m}, agent is in epoch {self.m}")
        return "passive" if passive else "active"

    def block_end(self, t: int, last: int) -> int:
        last_active, end = epoch_rounds(self.m, self.schedule.tau1, self.epsilon)
        if self.phase_of(t) == "active":
            end = int(last_active)
        return min(end, last)

    def _block_phase(self, t: int, n: int) -> str:
        phase = self.phase_of(t)
        if n > 1 and self.phase_of(t + n - 1) != phase:
            raise SequencingError(f"rounds {t}..{t + n - 1} span both phases")
        return phase

    def act_block(self, t: int, xs, rngs) -> np.ndarray:
        """Kernel draws in the active prefix, uniform draws in the passive
        suffix."""
        n = np.shape(xs)[1]
        if self._block_phase(t, n) == "passive":
            return uniform_arms(self.num_arms, n, rngs)
        preds = rowwise_predict(self.weights, featurize(xs, self.context_dim))
        probs = igw_kernel(*arm_gaps(preds.reshape(-1, self.num_arms).T), self.gamma)
        return sample_kernel(probs.reshape(-1, *preds.shape[:2]), rngs)

    def record_block(self, t: int, xs, arms, rewards) -> None:
        """Add the block's rounds to the moments of its phase; refit if
        they close the current epoch."""
        n = np.shape(arms)[1]
        self.stores[self._block_phase(t, n)].add_block(xs, arms, rewards)
        if t + n - 1 == self.schedule.boundary(self.m):
            self.end_of_epoch_update()

    def end_of_epoch_update(self) -> None:
        """Refit all replications in one ``fit_replications`` call and advance
        the epoch: with epsilon > 0 the constrained oracle, budget slack = C1 *
        ln^rho'(n') * ln(12 m^2 / delta) * comp / n'^rho over the passive ERM's
        normalized SSE on the n' passive rounds; with epsilon = 0 least squares.
        An exception leaves noting the epoch, with the replication at fault (0
        for the shared slack) as its ``replication``."""
        m, rates = self.m, self.rates
        try:
            active, passive = (self.stores[p].moments() if p in self.stores else None
                               for p in ("active", "passive"))
            slack = None
            if passive is not None:  # every replication has the same passive count
                n_pass = int(passive[3][0].sum())
                slack = _usable_rate("slack", m, lambda: rates.C1 * math.log(n_pass)
                                     ** rates.rho_prime * math.log(12.0 * m * m / rates.delta)
                                     * rates.comp / n_pass ** rates.rho)
            fits = fit_replications(active, passive, slack)
            check_finite(np.stack([model.weights for model, _ in fits]),
                         "non-finite weights from the refit")
        except Exception as exc:
            exc.replication = getattr(exc, "replication", 0)
            exc.add_note(f"the refit after epoch {m}")
            raise
        tau_start, tau_end = self.schedule.boundary(m - 1) + 1, self.schedule.boundary(m)
        events = [EpochEvent(m, tau_start, tau_end, self.gamma, *fit) for fit in fits]
        self.m += 1
        self.gamma = gamma_for_epoch(self.m, self.schedule, self.rates, self.num_arms)
        self._new_stores()
        for r, event in enumerate(events):
            self.weights[r] = event.new_model.weights
            self.events[r].append(event)


class LinUCBAgent:
    """Disjoint per-arm ridge regression with an upper-confidence bonus, for
    ``replications`` runs in lockstep.

    Scores are theta_a . phi(x) + alpha_ucb * sqrt(phi' A_a^{-1} phi).  The
    sufficient statistics ``G`` (R, K, p, p, from ridge * I) and ``bvec``
    (R, K, p), the store ``stats``' ``G`` and ``b``, accumulate every
    round, but ``theta`` and ``G_inv`` are refreshed only
    every ``batch_size`` observations; the rounds between two refreshes form
    one block.
    """

    def __init__(self, num_arms: int, context_dim: int = 1, *, alpha_ucb: float, ridge: float,
                 batch_size: int, replications: int = 1):
        _check_agent_values(alpha_ucb=alpha_ucb, ridge=ridge, batch_size=batch_size)
        self.num_arms, self.context_dim = num_arms, context_dim
        self.alpha_ucb, self.batch_size = alpha_ucb, batch_size
        self.stats = MomentStore(replications, num_arms, context_dim)
        self.stats.G[:] = ridge * np.eye(context_dim + 1)
        self.G, self.bvec = self.stats.G, self.stats.b
        self._refresh()
        self._since_refresh = 0

    def _refresh(self) -> None:
        """Invert ``G`` and solve for ``theta``, which ``check_finite`` checks
        (its ``bvec`` can overflow) before any score is taken from it."""
        self.G_inv = np.linalg.inv(self.G)
        self.theta = np.einsum("raij,raj->rai", self.G_inv, self.bvec)
        check_finite(self.theta, "non-finite LinUCB state (bvec or theta)")

    def block_end(self, t: int, last: int) -> int:
        return min(last, t + self.batch_size - self._since_refresh - 1)

    def widths(self, Phi: np.ndarray) -> np.ndarray:
        """(R, n, K) confidence widths sqrt(phi' G_inv_a phi) of (R, n, p)
        design rows, summed over the rows held feature-major (see the module
        docstring) and copied back to (R, n, K), where scoring runs."""
        cols = np.ascontiguousarray(Phi.transpose(0, 2, 1))
        sums = np.einsum("rin,raij,rjn->ran", cols, self.G_inv, cols)
        return np.sqrt(np.ascontiguousarray(sums.transpose(0, 2, 1)))

    def act_block(self, t: int, xs, rngs) -> np.ndarray:
        Phi = featurize(xs, self.context_dim)
        # scores that overflow are reported by check_finite, before any arm is taken
        with np.errstate(over="ignore", invalid="ignore"):
            scores = rowwise_predict(self.theta, Phi) + self.alpha_ucb * self.widths(Phi)
        check_finite(scores, "non-finite LinUCB scores (theta . phi + alpha_ucb * width)")
        # a block has at most batch_size rows: numpy's argmax beats row_max_argmax there
        return scores.argmax(axis=-1) + 1

    def record_block(self, t: int, xs, arms, rewards) -> None:
        """Add the block's rounds to ``stats`` (``MomentStore.add_block``,
        which checks the arms); refresh when the block completes a batch.
        A block that runs past a refresh raises with ``stats`` untouched."""
        n = np.shape(arms)[-1] if np.ndim(arms) else 0
        if n > self.batch_size - self._since_refresh:
            raise SequencingError(f"{n} rounds run past the next refresh")
        # overflowed sums are reported by the next refresh or the harness's check
        self.stats.add_block(xs, arms, rewards)
        self._since_refresh += n
        if self._since_refresh >= self.batch_size:
            self._refresh()
            self._since_refresh = 0


class UniformAgent:
    """Context-free uniform arm choice; the whole horizon is one block.  It
    holds no per-replication state."""

    def __init__(self, num_arms: int, context_dim: int = 1):
        self.num_arms = num_arms
        self.context_dim = context_dim

    def block_end(self, t: int, last: int) -> int:
        return last

    def act_block(self, t: int, xs, rngs) -> np.ndarray:
        return uniform_arms(self.num_arms, np.shape(xs)[1], rngs)

    def record_block(self, t: int, xs, arms, rewards) -> None:
        pass
