"""Independent numerical oracles used to pin expected values in tests.

Nothing here shares code with the package's own closed forms: integrals are
done by Simpson quadrature on a dense grid, regressions by numpy lstsq on
large samples, the constrained problem by grid search (column by column,
and checked against the brute-force grid on coarse grids),
row-weighted fits by rebuilding every arm's design from the raw rows, epochs
by walking the doubling schedule, and whole runs by a round-by-round
simulator with its own kernel, sampler and phase bookkeeping, on an
environment drawn one round at a time (its truth surface is the
package's), in the package's stream layout or in the earlier single-stream
one.  The inequality suite as it ran before it shared one context sample
(every check on its own draw, through the package's public estimators) is
the reference for the shared-sample suite, and each epoch's model MSE as
the harness computed it before it joined that sample (a fresh draw per
epoch) is the reference for ``mse_to_fhatstar``.
"""

import math

import numpy as np

from banditlab import env as envmod
from banditlab.diag import (LemmaCheck, decisional_divergence, induced_policy,
                            kernel_estimated_regret, kernel_true_regret, mean_model_gap,
                            model_mse, policy_regret)
from banditlab.env import Environment, make_generator, mean_reward_matrix, true_model
from banditlab.falcon import igw_kernel
from banditlab.linmodel import LinearModel


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


def fit_rowweighted_rows(batches_and_weights, num_arms: int, context_dim: int,
                         ridge: float = 1e-8) -> tuple[np.ndarray, bool]:
    """Row-weighted per-arm least squares straight from the rows.

    For every (batch, weight) pair the design [1, x] is rebuilt from the
    batch's raw ``xs``/``arms``/``rewards`` lists and each arm's masked rows
    are accumulated as ``G_a += w * Pa.T @ Pa``, active part first, in the
    order given.  An arm without rows keeps zero weights; an arm with fewer
    rows than parameters, or a near-singular Gram, is solved with a small
    ridge.  Returns (weights of shape (K, 1 + context_dim), ridge flag).
    """
    p = context_dim + 1
    G = np.zeros((num_arms, p, p))
    bvec = np.zeros((num_arms, p))
    counts = np.zeros(num_arms, dtype=int)
    for batch, w in batches_and_weights:
        if len(batch.arms) == 0 or w == 0.0:
            continue
        xs = np.asarray(batch.xs, dtype=float).reshape(len(batch.arms), context_dim)
        Phi = np.empty((len(batch.arms), p))
        Phi[:, 0] = 1.0
        Phi[:, 1:] = xs
        arms = np.asarray(batch.arms, dtype=int)
        r = np.asarray(batch.rewards, dtype=float)
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
    Phi, arms, r = batch.as_arrays()
    return float(np.sum(((Phi @ model.weights.T)[np.arange(len(r)), arms - 1] - r) ** 2))


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
    agent's: FALCON rows go to its batches by ``append`` and
    ``end_of_epoch_update`` runs at each boundary; LinUCB's rank-one
    updates are accumulated here into the agent's G and bvec and its
    ``_refresh`` runs every batch_size rounds.
    """
    kind = type(agent).__name__
    K = agent.num_arms
    cols = {k: [] for k in ("x", "epoch", "phase", "action", "reward", "e_regret")}
    noisy_total, since = 0.0, 0
    for t in range(1, horizon + 1):
        m = epoch_of_walk(tau1, t)
        x = env.sample_context()
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
            phi = np.empty(agent.context_dim + 1)
            phi[0] = 1.0
            phi[1:] = x
            widths = np.sqrt(np.einsum("i,aij,j->a", phi, agent.G_inv[0], phi))
            a = int(np.argmax(agent.theta[0] @ phi + agent.alpha_ucb * widths)) + 1
        else:
            a = int(rng.integers(K)) + 1
        means, rvec = env.observe(x)
        r = float(rvec[a - 1])
        if kind == "EpsilonFalconAgent":
            batch = (agent.active_batches if phase == "active" else agent.passive_batches)[0]
            batch.append(x, a, r)
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


def lemma_suite_independent(artifacts, num_mc: int = 20_000, rng=0) -> list:
    """The inequality suite with an independent context draw for every
    estimate, in the order and with the rows and bands of
    ``banditlab.diag.lemma_suite``."""
    rng = make_generator(rng)
    spec = artifacts.spec
    K = spec.num_arms
    checks = []

    b = envmod.approximation_error_b(spec, num_mc, rng)
    B = envmod.worst_case_error_B(spec, num_mc, rng)
    tol_lo = 3.0 * math.hypot(b.se, B.se)
    checks.append(LemmaCheck("error_ordering_lower", None, b.mc, B.mc + tol_lo,
                             tol_lo, b.mc <= B.mc + tol_lo, "b <= B"))
    tol_hi = 3.0 * math.hypot(B.se, K * b.se)
    checks.append(LemmaCheck("error_ordering_upper", None, B.mc, K * b.mc + tol_hi,
                             tol_hi, B.mc <= K * b.mc + tol_hi, "B <= K*b"))

    pi_best = induced_policy(envmod.best_linear_fit_uniform(spec))
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
            return igw_kernel(_model.predict_matrix(xs), _gamma)

        V = decisional_divergence(spec, kernel_fn, pi_best, num_mc, rng)
        gap = mean_model_gap(spec, model, pi_best, num_mc, rng)
        band = 3.0 * math.hypot(V.se, abs(gamma) * gap.se)
        lo, hi = gamma * gap.value, K + gamma * gap.value
        checks.append(LemmaCheck("divergence_sandwich", m, V.value, hi + band, band,
                                 lo - band <= V.value <= hi + band,
                                 f"gamma*E[gap]={lo:.4g} <= V <= K+gamma*E[gap]"))

        V_self = decisional_divergence(spec, kernel_fn, induced_policy(model), num_mc, rng)
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


def mse_to_best_fit_per_event(spec, events, num_mc: int, seed: int) -> list[float]:
    """Each epoch event's uniform-design MSE between its refit and the best
    linear fit, as the harness computed ``mse_to_fhatstar`` before the
    diagnostics pass shared one sample: ``model_mse`` on a fresh draw of
    ``num_mc`` contexts per event, all from one generator on the seed's
    diagnostics stream itself (``SeedSequence(seed).spawn(3)[2]``)."""
    best_fit = envmod.best_linear_fit_uniform(spec)
    rng = make_generator(np.random.SeedSequence(seed).spawn(3)[2])
    return [model_mse(LinearModel(ev.new_weights), best_fit, spec, "uniform", num_mc, rng).value
            for ev in events]
