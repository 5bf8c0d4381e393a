"""Independent numerical oracles used to pin expected values in tests.

Nothing here shares code with the package's own closed forms: integrals are
done by Simpson quadrature on a dense grid, regressions by numpy lstsq on
large samples, the constrained problem by grid search (column by column,
and checked against the brute-force grid on coarse grids),
row-weighted fits by rebuilding every arm's design from the raw rows, running
moments by summing each row's products in Python floats, epochs
by walking the doubling schedule, and whole runs by a round-by-round
simulator with its own kernel, sampler and phase bookkeeping, on an
environment drawn one round at a time (its truth surface is the
package's), in the package's stream layout or in the earlier single-stream
one.  The estimators, the kernel, the sampler and the diagnostics pass
in the row-major (n, K) formulas the package used before it held these
matrices arm-major are the references for its arm-major code, and
LinUCB's widths from row-major design rows for its feature-major ones; the
inequality suite as it ran before it shared one context sample (every
check on its own draw, in those formulas) is the reference for the
shared-sample suite, and each epoch's model MSE as the harness computed it
before it joined that sample (a fresh draw per epoch) is the reference for
``mse_to_fhatstar``.  The truth, best fit and (b, B) of the two
misspecified families, expanded by hand once per family as ``env`` wrote
them before it shared one (lo, hi, w, a0) formula, are the reference for
that formula.
"""

import math

import numpy as np

from banditlab import env as envmod
from banditlab.diag import LemmaCheck, MCEstimate
from banditlab.env import (Environment, draw_contexts, make_generator, mean_reward_matrix,
                           true_model)
from banditlab.falcon import EpochSchedule, arm_gaps, gamma_for_epoch, igw_kernel
from banditlab.linmodel import LinearModel, featurize, rowwise_predict


def simpson(f, a: float, b: float, n: int = 2_000_001) -> float:
    """Composite Simpson rule on n (odd) equally spaced nodes."""
    if n % 2 == 0:
        n += 1
    xs = np.linspace(a, b, n)
    ys = f(xs)
    h = (b - a) / (n - 1)
    return float(h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum()))


def lstsq_line(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """(intercept, slope) via numpy's generic least squares."""
    A = np.column_stack([np.ones_like(xs), xs])
    w, *_ = np.linalg.lstsq(A, ys, rcond=None)
    return float(w[0]), float(w[1])


def grid_search_constrained_dense(active_rows, passive_rows, slack: float,
                                  lo: float = -2.0, hi: float = 2.0,
                                  step: float = 1e-3) -> tuple[float, float, float]:
    """Brute-force minimizer of the single-arm 2-parameter constrained
    problem over an (intercept, slope) grid.

    Returns (w0, w1, objective) of the best feasible grid point, where
    feasibility means normalized SSE on the passive rows <= alpha + slack
    and alpha is the best normalized passive SSE ON THE GRID (so the oracle
    is self-contained).

    The mean squared error is a quadratic in (w0, w1):
        mean((w0 + w1 x - y)^2)
        = w0^2 + 2 w0 w1 E[x] + w1^2 E[x^2] - 2 w0 E[y] - 2 w1 E[xy] + E[y^2],
    so each grid surface is evaluated from six data moments (this only
    rearranges the brute-force objective; no solver is involved).
    """
    w0s = w1s = np.arange(lo, hi + step / 2, step)

    def mse_grid(rows):
        my, mx, q = _grid_moments(rows, w1s)
        # complete the square in w0: the grid is (w0 + mx w1 - my)^2 + q(w1)
        surface = (w0s - my)[:, None] + mx * w1s[None, :]
        np.square(surface, out=surface)
        surface += q[None, :]
        return surface

    passive_mse = mse_grid(passive_rows)
    alpha = float(passive_mse.min())
    active_mse = mse_grid(active_rows)
    active_mse[passive_mse > alpha + slack + 1e-12] = np.inf
    idx = np.unravel_index(np.argmin(active_mse), active_mse.shape)
    return float(w0s[idx[0]]), float(w1s[idx[1]]), float(active_mse[idx])


def _grid_moments(rows, w1s) -> tuple[float, float, np.ndarray]:
    """E[y], E[x] and, per slope, q(w1) = Var(x) w1^2 - 2 Cov(x, y) w1 + Var(y)."""
    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    mx, mxx = xs.mean(), (xs * xs).mean()
    my, mxy, myy = ys.mean(), (xs * ys).mean(), (ys * ys).mean()
    return my, mx, ((mxx - mx * mx) * w1s * w1s - 2 * (mxy - mx * my) * w1s + (myy - my * my))


def grid_search_constrained(active_rows, passive_rows, slack: float,
                            lo: float = -2.0, hi: float = 2.0,
                            step: float = 1e-3) -> tuple[float, float, float]:
    """``grid_search_constrained_dense``'s result, bit for bit and ties
    included, from O(log grid) grid points per slope column.

    Down a slope column, each surface evaluates the dense grid's float
    expression (fl(w0 - E[y]) + E[x] w1)^2 + q(w1).  The base of the square
    is nondecreasing in w0 (rounding is monotone), so the column falls up to
    its vertex, the first row where the base is >= 0, and rises from there:
    its minimum is at the vertex or the row before it, the passive-feasible
    rows form one interval around the passive minimum, and the active
    minimum over that interval is at the active vertex clipped into it.
    Binary searches down these monotone runs find each vertex, the interval
    ends and the first row attaining each column minimum, which is the row
    the dense grid's first-in-row-major-order ``argmin`` picks."""
    w0s = w1s = np.arange(lo, hi + step / 2, step)
    n, m = len(w0s), len(w1s)

    def first(pred, start, stop):
        """Per column, the first row in [start, stop) where ``pred``, false
        and then true down the column, holds (stop where it never does)."""
        a, b = (np.broadcast_to(v, (m,)).copy() for v in (start, stop))
        while (a < b).any():
            live, mid = a < b, (a + b) // 2
            ok = pred(np.minimum(mid, n - 1))
            a, b = np.where(live & ~ok, mid + 1, a), np.where(live & ok, mid, b)
        return a

    def surface(rows):
        """The surface at one row per column, and each column's vertex."""
        my, mx, q = _grid_moments(rows, w1s)

        def base(i):
            return (w0s[i] - my) + mx * w1s

        return (lambda i: np.square(base(i)) + q), first(lambda i: base(i) >= 0, 0, n)

    def column_min(value, vertex, a, b):
        """Per column, the minimum over rows a..b and the first row with it:
        the rows attaining it are contiguous."""
        below, at = np.clip(vertex - 1, a, b), np.clip(vertex, a, b)
        v_below, v_at = value(below), value(at)
        low, row = np.minimum(v_below, v_at), np.where(v_below <= v_at, below, at)
        return low, first(lambda i: value(i) <= low, a, row + 1)

    passive, p_vertex = surface(passive_rows)
    p_low, p_row = column_min(passive, p_vertex, 0, n - 1)
    threshold = float(p_low.min()) + slack + 1e-12
    feasible = p_low <= threshold
    # the feasible rows of a column: a..b around its passive minimum
    a = np.where(feasible, first(lambda i: passive(i) <= threshold, 0, p_row + 1), p_row)
    b = np.where(feasible, first(lambda i: passive(i) > threshold, p_row, n) - 1, p_row)
    active, a_vertex = surface(active_rows)
    low, row = column_min(active, a_vertex, a, b)
    low = np.where(feasible, low, np.inf)
    i, j = divmod(int((row * m + np.arange(m))[low == low.min()].min()), m)
    return float(w0s[i]), float(w1s[j]), float(low.min())


def fit_rowweighted_rows(rows_and_weights, num_arms: int, context_dim: int,
                         ridge: float = 1e-8) -> tuple[np.ndarray, bool]:
    """Row-weighted per-arm least squares straight from the rows.

    For every (rows, weight) pair, ``rows`` being the raw (x, arm, reward)
    triples in the order they were appended, the design [1, x] is rebuilt
    and each arm's masked rows are accumulated as ``G_a += w * Pa.T @ Pa``,
    active part first, in the order given.  Each arm is then solved on its
    own: an arm without rows keeps zero weights; an arm with fewer rows than
    parameters, or a near-singular Gram, is solved with a small ridge.
    Returns (weights of shape (K, 1 + context_dim), ridge flag).
    """
    p = context_dim + 1
    G = np.zeros((num_arms, p, p))
    bvec = np.zeros((num_arms, p))
    counts = np.zeros(num_arms, dtype=int)
    for rows, w in rows_and_weights:
        if len(rows) == 0 or w == 0.0:
            continue
        xs, arms, r = zip(*rows)
        Phi = np.empty((len(rows), p))
        Phi[:, 0] = 1.0
        Phi[:, 1:] = np.asarray(xs, dtype=float).reshape(len(rows), context_dim)
        arms = np.asarray(arms, dtype=int)
        r = np.asarray(r, dtype=float)
        for a in range(1, num_arms + 1):
            mask = arms == a
            if not mask.any():
                continue
            Pa = Phi[mask]
            G[a - 1] += w * (Pa.T @ Pa)
            bvec[a - 1] += w * (Pa.T @ r[mask])
            counts[a - 1] += int(mask.sum())
    weights = np.zeros((num_arms, p))
    any_ridge = False
    for a in range(num_arms):
        if counts[a] == 0:
            any_ridge = True
            continue
        Ga = G[a]
        deficient = counts[a] < p
        if not deficient:
            eigs = np.linalg.eigvalsh(Ga)
            deficient = eigs[0] <= 1e-10 * max(eigs[-1], 1.0)
        if deficient:
            Ga = Ga + ridge * np.eye(p)
        weights[a] = np.linalg.solve(Ga, bvec[a])
        any_ridge = any_ridge or deficient
    return weights, any_ridge


def fold_rows(rows, num_arms: int, context_dim: int, ridge: float = 0.0):
    """Per-arm moments (G, b, yy, n) of one replication's (x, arm, reward)
    rows, each entry summed in Python floats one row after another, in the
    order given, from 0 (G's diagonal from ``ridge``): the round-order
    reference of ``MomentStore``."""
    p = context_dim + 1
    G = [[[ridge if i == j else 0.0 for j in range(p)] for i in range(p)]
         for _ in range(num_arms)]
    b, yy, n = [[0.0] * p for _ in range(num_arms)], [0.0] * num_arms, [0] * num_arms
    for x, a, r in rows:
        phi, r = [1.0, *np.ravel(x).tolist()], float(r)
        for i in range(p):
            for j in range(p):
                G[a - 1][i][j] += phi[i] * phi[j]
            b[a - 1][i] += r * phi[i]
        yy[a - 1] += r * r
        n[a - 1] += 1
    return np.array(G), np.array(b), np.array(yy), np.array(n)


def zero_model(num_arms: int, context_dim: int = 1) -> LinearModel:
    """The all-zero model: every arm predicts 0 everywhere."""
    return LinearModel(np.zeros((num_arms, context_dim + 1)))


def tune_epsilon(b_guess: float, num_arms: int, c: float = 1.0) -> float:
    """Passive-exploration fraction from a guess of the approximation error:
    c * K^(4/5) * b^(2/5), capped at 0.49 (the analysis needs eps < 0.5)."""
    if b_guess < 0:
        raise ValueError("b_guess must be >= 0")
    if c <= 0:
        raise ValueError("c must be > 0")
    return min(c * num_arms ** 0.8 * b_guess ** 0.4, 0.49)


def epoch_of_walk(tau1: int, t: int) -> int:
    """Smallest m with tau1 * 2^(m-1) >= t, by walking the boundaries."""
    m = 1
    while tau1 * 2 ** (m - 1) < t:
        m += 1
    return m


def epochs_by_walk(tau1: int, horizon: int) -> np.ndarray:
    """Epoch index of rounds 1..horizon: one doubling walk over the
    boundaries, each epoch repeated over its rounds."""
    out, m, start = [], 1, 0
    while start < horizon:
        end = tau1 * 2 ** (m - 1)
        out.append(np.full(min(end, horizon) - start, m))
        m, start = m + 1, end
    return np.concatenate(out)


def phases_by_walk(tau1: int, epsilon: float, horizon: int) -> list[str]:
    """Phase of rounds 1..horizon: the last ceil(epsilon * length) rounds of
    each epoch of the doubling walk are passive."""
    phases = []
    for t in range(1, horizon + 1):
        m = epoch_of_walk(tau1, t)
        end, start = tau1 * 2 ** (m - 1), (0 if m == 1 else tau1 * 2 ** (m - 2))
        phases.append("passive" if t > end - math.ceil(epsilon * (end - start)) else "active")
    return phases


def igw_kernel_one(weights: np.ndarray, x, gamma: float) -> np.ndarray:
    """Inverse-gap-weighted kernel at one context, from ``weights @ phi``."""
    phi = np.empty(weights.shape[1])
    phi[0] = 1.0
    phi[1:] = x
    preds = weights @ phi
    K = len(preds)
    best = int(np.argmax(preds))
    probs = 1.0 / (K + gamma * (preds[best] - preds))
    probs[best] = 0.0
    probs[best] = 1.0 - probs.sum()
    return probs


# ---------------------------------------------------------------------------
# The row-major formulas: (n, K) matrices, one context per row, reduced along
# the rows by numpy.  The package holds these matrices arm-major, (K, n);
# these are the references its kernel, sampler and diagnostics are checked
# against.
# ---------------------------------------------------------------------------

def predict_matrix(model, xs) -> np.ndarray:
    """(n, K) predictions of a ``LinearModel`` as one GEMM, ``Phi @ W.T``."""
    return featurize(xs, model.context_dim) @ model.weights.T


def estimate(samples: np.ndarray) -> MCEstimate:
    n = len(samples)
    return MCEstimate(float(samples.mean()),
                      float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf"))


def gaps_from(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, K) gaps below each row's maximum, and the 0-based argmax (ties first)."""
    return values.max(axis=1)[:, None] - values, values.argmax(axis=1)


def mean_at(values: np.ndarray, actions: np.ndarray) -> MCEstimate:
    """Mean of each row's entry at its action (1-based arms)."""
    return estimate(values[np.arange(len(values)), actions - 1])


def divergence_from(probs: np.ndarray, actions: np.ndarray) -> MCEstimate:
    """Mean inverse probability of the actions under a kernel matrix."""
    picked = probs[np.arange(len(probs)), actions - 1]
    if np.any(picked <= 0.0):
        raise ZeroDivisionError("kernel assigned zero probability to a policy action")
    return estimate(1.0 / picked)


def kernel_regret_from(probs: np.ndarray, gaps: np.ndarray) -> MCEstimate:
    """Mean over rows of sum_a p(a) * gap(a)."""
    return estimate(np.einsum("ij,ij->i", probs, gaps))


def mse_from(f_values: np.ndarray, g_values: np.ndarray,
             probs=None) -> MCEstimate:
    """Mean squared gap between two reward matrices, over arms or weighted by ``probs``."""
    sq = (f_values - g_values) ** 2
    return estimate(sq.mean(axis=1) if probs is None else (probs * sq).sum(axis=1))


def error_estimates_from(fit_preds: np.ndarray, truth: np.ndarray):
    """b and B: the fit's squared error averaged over arms, or at the worst arm."""
    sq = (fit_preds - truth) ** 2
    return estimate(sq.mean(axis=1)), estimate(sq.max(axis=1))


def igw_kernel_rows(preds: np.ndarray, gamma: float) -> np.ndarray:
    """(n, K) inverse-gap-weighted kernel from (n, K) predictions, the best
    arm's remainder from each row's ``sum``."""
    gaps, best = gaps_from(preds)
    probs = 1.0 / (preds.shape[1] + gamma * gaps)
    rows = np.arange(len(preds))
    probs[rows, best] = 0.0
    probs[rows, best] = 1.0 - probs.sum(axis=1)
    return probs


def sample_kernel_rows(probs: np.ndarray, rngs) -> np.ndarray:
    """(R, n) arms (1-based) from (R, n, K) ``probs``: one plus the count of
    each row's first K-1 cumulative sums at or below its uniform draw."""
    u = np.stack([rng.random(probs.shape[1]) for rng in rngs])
    return (probs[..., :-1].cumsum(axis=-1) <= u[..., None]).sum(axis=-1) + 1


def package_kernel_rows(preds: np.ndarray, gamma: float) -> np.ndarray:
    """The package's arm-major kernel (``falcon.igw_kernel``) on (n, K)
    predictions, viewed as (n, K)."""
    return igw_kernel(*arm_gaps(preds.T), gamma).T


def linucb_scores_rows(agent, xs) -> tuple[np.ndarray, np.ndarray]:
    """A LinUCB agent's (R, n, K) widths and (R, n) arms (1-based) for
    contexts ``xs``, from (R, n, p) design rows in the row-major einsum
    "rni,raij,rnj->rna", whose inner loop runs over the p features."""
    Phi = featurize(xs, agent.context_dim)
    widths = np.sqrt(np.einsum("rni,raij,rnj->rna", Phi, agent.G_inv, Phi))
    scores = rowwise_predict(agent.theta, Phi) + agent.alpha_ucb * widths
    return widths, scores.argmax(axis=-1) + 1


def lemma_suite_rows(spec, models, gammas, xs, fit_preds: np.ndarray) -> list:
    """The inequality suite on one sample with (n, K) matrices: each
    epoch's model predicted by ``predict_matrix``, the row-major helpers
    above, ``einsum`` for the kernel regrets; ``fit_preds`` is (n, K)."""
    K = spec.num_arms
    checks = []

    def check(name, m, lhs, rhs, se, note, ok=None):
        checks.append(LemmaCheck(name, m, lhs, rhs, se, lhs <= rhs if ok is None else ok, note))

    truth = mean_reward_matrix(spec, xs)
    b, B = error_estimates_from(fit_preds, truth)
    tol_lo, tol_hi = 3.0 * math.hypot(b.se, B.se), 3.0 * math.hypot(B.se, K * b.se)
    check("error_ordering_lower", None, b.value, B.value + tol_lo, tol_lo, "b <= B")
    check("error_ordering_upper", None, B.value, K * b.value + tol_hi, tol_hi, "B <= K*b")
    a_best = gaps_from(fit_preds)[1] + 1
    reg_best = mean_at(gaps_from(truth)[0], a_best)
    check("best_fit_policy_regret", None, reg_best.value,
          2.0 * math.sqrt(max(B.value, 0.0)) + 3.0 * reg_best.se, reg_best.se,
          "Reg(pi_bestfit) <= 2*sqrt(B)")
    for m, (model, gamma) in enumerate(zip(models[1:], gammas[1:]), start=2):
        preds = predict_matrix(model, xs)
        probs = igw_kernel_rows(preds, gamma)
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
    return checks


def epoch_gammas(config, epochs: int) -> list[float]:
    """``gamma_for_epoch`` of epochs 1..epochs of a run of ``config``."""
    schedule, rates = EpochSchedule(config.tau1), config.rate_params()
    return [gamma_for_epoch(m, schedule, rates, config.env.num_arms)
            for m in range(1, epochs + 1)]


def run_lemmas_rows(config, seed: int, models, events) -> tuple[list, list[float]]:
    """A run's diagnostics pass in the row-major formulas: (the report, each
    event's MSE to the best fit), on the sample ``harness.run_lemmas`` draws,
    every event's model predicted by its own ``predict_matrix``."""
    gammas = epoch_gammas(config, len(models))
    diag_ss = np.random.SeedSequence(seed).spawn(3)[2].spawn(1)[0]
    xs = draw_contexts(config.env, min(config.mc_samples, 20_000), make_generator(diag_ss))
    fit_preds = envmod.best_linear_fit_uniform(config.env).predict_rows(xs)
    mses = [mse_from(predict_matrix(ev.new_model, xs), fit_preds).value
            for ev in events]
    return lemma_suite_rows(config.env, models, gammas, xs, fit_preds), mses


def sample_scalar(probs: np.ndarray, rng) -> int:
    """Inverse CDF on one uniform: first arm with u < cumulative sum,
    arm K when rounding leaves u above the total."""
    u = rng.random()
    acc = 0.0
    for i, p in enumerate(probs):
        acc += p
        if u < acc:
            return i + 1
    return len(probs)


def sse(model, batch) -> float:
    """Sum of squared residuals, row by row; 0 on an empty batch."""
    residuals = []
    for a in range(1, batch.num_arms + 1):
        Phi, r = batch.arm_rows(a)
        residuals.append(Phi @ model.weights[a - 1] - r)
    return float(np.sum(np.concatenate(residuals) ** 2))


def normalized_sse(model, batch) -> float:
    return sse(model, batch) / max(len(batch), 1)


class PerRoundEnvironment:
    """An environment drawn one round at a time: a context from
    ``context_rng`` (``random()``, or ``random(d)`` when d > 1), then from
    ``noise_rng`` all K noises of the round (``observe``, one
    ``standard_normal(K)``) or the chosen arm's (``sample_reward``, one
    ``standard_normal()``).  On an ``Environment``'s two children
    (``per_round``) it draws what ``Environment.draw`` draws; given one
    generator as both, it is the single-stream layout the package had before
    contexts and noise got child streams of their own.  A linear truth is
    evaluated as ``weights @ phi``."""

    def __init__(self, spec, context_rng, noise_rng):
        self.spec, self.num_arms = spec, spec.num_arms
        self.context_rng, self.noise_rng = context_rng, noise_rng
        self.truth = true_model(spec)

    def sample_context(self):
        d = self.spec.context_dim
        return self.context_rng.random() if d == 1 else self.context_rng.random(d)

    def means(self, x) -> np.ndarray:
        if self.truth is None:
            return mean_reward_matrix(self.spec, np.array([x], dtype=float))[0]
        return self.truth.weights @ np.concatenate(([1.0], np.atleast_1d(x)))

    def observe(self, x):
        """(mean rewards, noisy reward vector) at one context."""
        means = self.means(x)
        rewards = means.copy()
        if self.spec.noise_sd > 0:
            with np.errstate(over="ignore"):  # as in Environment.draw
                rewards += self.spec.noise_sd * self.noise_rng.standard_normal(self.num_arms)
        if self.spec.clip_rewards:
            np.clip(rewards, 0.0, 1.0, out=rewards)
        return means, rewards

    def sample_reward(self, x, a: int) -> float:
        """The noisy reward of arm a (1-based) at one context."""
        r = float(self.means(x)[a - 1])
        if self.spec.noise_sd > 0:
            r += self.spec.noise_sd * self.noise_rng.standard_normal()
        return float(min(1.0, max(0.0, r)) if self.spec.clip_rewards else r)


def per_round(spec, seed) -> PerRoundEnvironment:
    """The per-round view of ``Environment(spec, [seed])``'s two streams."""
    env = Environment(spec, [seed])
    return PerRoundEnvironment(spec, env.context_rngs[0], env.noise_rngs[0])


def simulate_per_round(env, agent, rng, horizon: int, tau1: int) -> dict:
    """Round-by-round reference run of an agent from ``banditlab.falcon``.

    ``env`` is a ``PerRoundEnvironment``: every round draws its context with
    ``env.sample_context`` and its reward vector with ``env.observe``.  The
    decisions are made here: the epoch and phase from the doubling walk and
    the passive count ceil(epsilon * epoch length), kernel arms by
    ``igw_kernel_one`` and ``sample_scalar``, passive and uniform arms by
    ``rng.integers(K)``, LinUCB arms from the agent's current theta and
    G^-1.  The agent holds one replication.  Only the model updates are the
    agent's: each round's rank-one update is accumulated here into the
    agent's moments, an epoch agent's ``stores`` of the round's phase (G,
    b, yy and n) or LinUCB's G and bvec; ``end_of_epoch_update`` runs at
    each boundary, and LinUCB's ``_refresh`` every batch_size rounds.
    """
    kind = type(agent).__name__
    K = agent.num_arms
    cols = {k: [] for k in ("x", "epoch", "phase", "action", "reward", "e_regret")}
    noisy_total, since = 0.0, 0
    for t in range(1, horizon + 1):
        m = epoch_of_walk(tau1, t)
        x = env.sample_context()
        phi = np.empty(agent.context_dim + 1)
        phi[0] = 1.0
        phi[1:] = x
        phase = "active"
        if kind == "EpsilonFalconAgent":
            length = tau1 * 2 ** (m - 1) - (0 if m == 1 else tau1 * 2 ** (m - 2))
            if t > tau1 * 2 ** (m - 1) - math.ceil(agent.epsilon * length):
                phase = "passive"
            if phase == "passive":
                a = int(rng.integers(K)) + 1
            else:
                a = sample_scalar(igw_kernel_one(agent.weights[0], x, agent.gamma), rng)
        elif kind == "LinUCBAgent":
            widths = np.sqrt(np.einsum("i,aij,j->a", phi, agent.G_inv[0], phi))
            a = int(np.argmax(agent.theta[0] @ phi + agent.alpha_ucb * widths)) + 1
        else:
            a = int(rng.integers(K)) + 1
        means, rvec = env.observe(x)
        r = float(rvec[a - 1])
        if kind == "EpsilonFalconAgent":
            store = agent.stores[phase]
            store.G[0, a - 1] += np.outer(phi, phi)
            store.b[0, a - 1] += r * phi
            store.yy[0, a - 1] += r * r
            store.n[0, a - 1] += 1
            if t == tau1 * 2 ** (m - 1):
                agent.end_of_epoch_update()
        elif kind == "LinUCBAgent":
            agent.G[0, a - 1] += np.outer(phi, phi)
            agent.bvec[0, a - 1] += r * phi
            since += 1
            if since == agent.batch_size:
                agent._refresh()
                since = 0
        best = int(np.argmax(means))
        for key, val in zip(cols, (x, m, phase, a, r, means[best] - means[a - 1])):
            cols[key].append(val)
        noisy_total += float(rvec[best]) - r
    out = {key: np.array(val) for key, val in cols.items()}
    out["cum_e_regret"] = np.cumsum(out["e_regret"])
    out["noisy_total"] = noisy_total
    return out


def write_trace_rows(trace, path: str) -> None:
    """Trace CSV written one round at a time, each cell formatted from the
    array element itself."""
    def g(v):
        return f"{float(v):.17g}"

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,epoch,phase,x,action,reward,e_regret,cum_e_regret\n")
        for i in range(len(trace.t)):
            x = trace.x[i]
            cell = g(x) if np.ndim(x) == 0 else ";".join(g(v) for v in x)
            fh.write(f"{trace.t[i]},{trace.epoch[i]},{trace.phase[i]},{cell},"
                     f"{trace.action[i]},{g(trace.reward[i])},{g(trace.e_regret[i])},"
                     f"{g(trace.cum_e_regret[i])}\n")


def lemma_suite_independent(spec, models, gammas, num_mc: int = 20_000, rng=0) -> list:
    """The inequality suite with an independent context draw for every
    estimate, in the order and with the rows and bands of
    ``banditlab.diag.lemma_suite``."""
    rng = make_generator(rng)
    K = spec.num_arms
    best_fit = envmod.best_linear_fit_uniform(spec)
    checks = []

    def draw():
        return draw_contexts(spec, num_mc, rng)

    def arms(model, xs):  # the arms of the model's induced policy
        return gaps_from(predict_matrix(model, xs))[1] + 1

    xs = draw()
    b = error_estimates_from(best_fit.predict_rows(xs), mean_reward_matrix(spec, xs))[0]
    xs = draw()
    B = error_estimates_from(best_fit.predict_rows(xs), mean_reward_matrix(spec, xs))[1]
    tol_lo = 3.0 * math.hypot(b.se, B.se)
    checks.append(LemmaCheck("error_ordering_lower", None, b.value, B.value + tol_lo,
                             tol_lo, b.value <= B.value + tol_lo, "b <= B"))
    tol_hi = 3.0 * math.hypot(B.se, K * b.se)
    checks.append(LemmaCheck("error_ordering_upper", None, B.value, K * b.value + tol_hi,
                             tol_hi, B.value <= K * b.value + tol_hi, "B <= K*b"))

    xs = draw()
    reg_best = mean_at(gaps_from(mean_reward_matrix(spec, xs))[0], arms(best_fit, xs))
    bound = 2.0 * math.sqrt(max(B.value, 0.0))
    checks.append(LemmaCheck("best_fit_policy_regret", None, reg_best.value,
                             bound + 3.0 * reg_best.se, reg_best.se,
                             reg_best.value <= bound + 3.0 * reg_best.se,
                             "Reg(pi_bestfit) <= 2*sqrt(B)"))

    for m, (model, gamma) in enumerate(zip(models[1:], gammas[1:]), start=2):
        preds = predict_matrix(model, draw())
        est = kernel_regret_from(igw_kernel_rows(preds, gamma), gaps_from(preds)[0])
        rhs = K / gamma + 3.0 * est.se
        checks.append(LemmaCheck("kernel_estimated_regret", m, est.value, rhs,
                                 est.se, est.value <= rhs, "<= K/gamma"))

        xs = draw()
        V = divergence_from(igw_kernel_rows(predict_matrix(model, xs), gamma),
                            arms(best_fit, xs))
        xs = draw()
        gap = mean_at(gaps_from(predict_matrix(model, xs))[0], arms(best_fit, xs))
        band = 3.0 * math.hypot(V.se, abs(gamma) * gap.se)
        lo, hi = gamma * gap.value, K + gamma * gap.value
        checks.append(LemmaCheck("divergence_sandwich", m, V.value, hi + band, band,
                                 lo - band <= V.value <= hi + band,
                                 f"gamma*E[gap]={lo:.4g} <= V <= K+gamma*E[gap]"))

        xs = draw()
        V_self = divergence_from(igw_kernel_rows(predict_matrix(model, xs), gamma),
                                 arms(model, xs))
        checks.append(LemmaCheck("divergence_self", m, V_self.value,
                                 K + 3.0 * V_self.se, V_self.se,
                                 V_self.value <= K + 3.0 * V_self.se, "V(p; pi_p) <= K"))
    return checks


def mse_to_best_fit_per_event(spec, events, num_mc: int, seed: int) -> list[float]:
    """Each epoch event's uniform-design MSE between its refit and the best
    linear fit, as the harness computed ``mse_to_fhatstar`` before the
    diagnostics pass shared one sample: a fresh draw of ``num_mc`` contexts
    per event, all from one generator on the seed's diagnostics stream
    itself (``SeedSequence(seed).spawn(3)[2]``), and both models' GEMM
    predictions there."""
    best_fit = envmod.best_linear_fit_uniform(spec)
    rng = make_generator(np.random.SeedSequence(seed).spawn(3)[2])
    mses = []
    for ev in events:
        xs = draw_contexts(spec, num_mc, rng)
        mses.append(mse_from(predict_matrix(ev.new_model, xs),
                             predict_matrix(best_fit, xs)).value)
    return mses


def sensitivity_arm1_fit(theta: float) -> tuple[float, float]:
    """(intercept, slope) of the least-squares line for arm 1 of the
    sensitivity family: target 0.1 + 0.9 * 1{x > 1-theta} on Unif(0,1)."""
    slope = 5.4 * theta * (1.0 - theta)
    intercept = 0.1 + 0.9 * theta - 2.7 * theta * (1.0 - theta)
    return intercept, slope


def sensitivity_slope_m(theta: float) -> float:
    """Slope of arm 2: the line through (0, 1) that meets arm 1's best
    linear fit at x = 1 - theta."""
    intercept, slope = sensitivity_arm1_fit(theta)
    fhat_at_knee = intercept + slope * (1.0 - theta)
    return (fhat_at_knee - 1.0) / (1.0 - theta)


def best_fit_per_family(spec) -> np.ndarray:
    """(2, 2) weights of a misspecified family's best uniform-design fit."""
    if spec.kind == "step_function":
        return np.array([[-0.25, 1.5], [0.5, 0.0]])
    intercept, slope = sensitivity_arm1_fit(spec.theta)
    return np.array([[intercept, slope], [1.0, sensitivity_slope_m(spec.theta)]])


def closed_form_errors_per_family(spec) -> tuple[float, float]:
    """(b, B) of a misspecified family: arm 1's mean squared residual
    Var(g) - slope^2/12 is B, and b half of it."""
    if spec.kind == "step_function":
        arm1 = 1.0 / 16.0  # 1/4 - 3/16
    else:
        theta = spec.theta
        arm1 = 0.81 * theta * (1.0 - theta) - 2.43 * theta**2 * (1.0 - theta) ** 2
    return arm1 / 2.0, arm1


def mean_reward_matrix_per_family(spec, xs) -> np.ndarray:
    """(n, 2) mean rewards of a misspecified family."""
    xs = np.asarray(xs, dtype=float)
    out = np.empty((xs.shape[0], 2))
    if spec.kind == "step_function":
        out[:, 0] = (xs > 0.5).astype(float)
        out[:, 1] = 0.5
    else:
        out[:, 0] = np.where(xs <= 1.0 - spec.theta, 0.1, 1.0)
        out[:, 1] = 1.0 + sensitivity_slope_m(spec.theta) * xs
    return out
