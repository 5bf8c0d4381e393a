"""Independent numerical oracles used to pin expected values in tests.

Nothing here shares code with the package's own closed forms: integrals are
done by Simpson quadrature on a dense grid, regressions by numpy lstsq on
large samples, the constrained problem by brute-force grid search, and
row-weighted fits by rebuilding every arm's design from the raw rows.
"""

import numpy as np


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


def grid_search_constrained(active_rows, passive_rows, slack: float,
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
    w0s = np.arange(lo, hi + step / 2, step)
    w1s = np.arange(lo, hi + step / 2, step)

    def mse_grid(rows):
        xs = np.array([r[0] for r in rows])
        ys = np.array([r[1] for r in rows])
        mx, mxx = xs.mean(), (xs * xs).mean()
        my, mxy, myy = ys.mean(), (xs * ys).mean(), (ys * ys).mean()
        # complete the square in w0: the grid is (w0 + mx w1 - my)^2 + q(w1)
        q = ((mxx - mx * mx) * w1s * w1s
             - 2 * (mxy - mx * my) * w1s + (myy - my * my))
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
