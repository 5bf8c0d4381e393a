"""Per-arm linear reward models and least-squares fitting.

The model class is deliberately narrow: for each arm a, predictions are
``w_a . phi(x)`` with ``phi(x) = [1, x_1, ..., x_d]`` and nothing fancier.
On top of ordinary and row-weighted least squares (solved by per-arm normal
equations) this module provides a constrained regression oracle:

    minimize   normalized SSE on an "active" batch
    subject to normalized SSE on a "passive" batch <= alpha + slack,

where alpha is the best normalized SSE any model in the class attains on the
passive batch.  With slack > 0 the constraint is strictly feasible, strong
duality holds, and the dual is a concave one-dimensional maximization in the
multiplier lambda.  ``constrained_fit`` solves it by bracketing lambda with a
doubling pass and then bisecting; every dual evaluation is one call to the
weighted least-squares routine, and the returned model is exactly the output
of the final such call.

Fits and oracle residuals come from per-arm moments ``(G_a = Phi_a' Phi_a,
b_a = Phi_a' r_a, r_a' r_a, n_a)`` that each ``DataBatch`` folds in one
vectorized pass and caches until its next append, so each dual evaluation
costs O(K p^3) whatever the row count.  The oracle's normalized SSE is
``max(0, sum_a w_a' G_a w_a - 2 w_a' b_a + r_a' r_a) / n``: the clamp absorbs
rounding on exactly interpolated data.

All sums of squares are NORMALIZED (divided by the row count).  The
unnormalized convention is recovered by scaling ``slack`` by the passive
batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

RIDGE = 1e-8
LAMBDA_TOL = 1e-8  # constrained_fit's bisection width, relative to max(1, lambda)


class InvalidArmError(ValueError):
    pass


class InfeasibleConstraintError(ValueError):
    """Raised when a constraint budget has no strictly feasible interior."""


class DualNonConvergenceError(RuntimeError):
    """Raised when the dual bracketing pass exhausts its lambda range."""


def featurize(xs, dim: int) -> np.ndarray:
    """Map raw contexts, of shape (...) when dim is 1 and (..., dim)
    otherwise, to design rows [1, x_1, ..., x_dim] of shape (..., 1 + dim)."""
    xs = np.asarray(xs, dtype=float)
    if dim == 1:
        xs = xs[..., None]
    out = np.empty((*xs.shape[:-1], dim + 1))
    out[..., 0] = 1.0
    out[..., 1:] = xs
    return out


def rowwise_predict(weights: np.ndarray, Phi: np.ndarray) -> np.ndarray:
    """(n, K) rows ``weights @ Phi[i]``, each its own matrix-vector product
    (a GEMM over all rows can round differently in the last bits); with
    stacked (R, K, p) weights and (R, n, p) rows, (R, n, K)."""
    return (weights[..., None, :, :] @ Phi[..., None])[..., 0]


def row_max_argmax(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact row maxima and 0-based argmaxes (ties to the first column) of a
    finite (n, K) matrix, column by column: faster than a short-row reduction."""
    top, best = values[:, 0].copy(), np.zeros(len(values), dtype=np.intp)
    for a in range(1, values.shape[1]):
        np.copyto(best, a, where=values[:, a] > top)
        np.maximum(top, values[:, a], out=top)
    return top, best


@dataclass
class LinearModel:
    """Weights of shape (K, 1 + context_dim); row a-1 scores arm a."""

    weights: np.ndarray
    ridge_fallback: bool = field(default=False, compare=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.ndim != 2 or self.weights.shape[1] < 2:
            raise ValueError("weights must be (num_arms, 1 + context_dim)")

    @property
    def num_arms(self) -> int:
        return self.weights.shape[0]

    @property
    def context_dim(self) -> int:
        return self.weights.shape[1] - 1

    @staticmethod
    def zeros(num_arms: int, context_dim: int = 1) -> "LinearModel":
        return LinearModel(np.zeros((num_arms, context_dim + 1)))

    def predict_rows(self, xs) -> np.ndarray:
        """(n, K) predictions, row i bit-equal to ``weights @ phi(xs[i])``,
        so a row does not depend on how many rows are predicted together."""
        return rowwise_predict(self.weights, featurize(xs, self.context_dim))

    def predict_matrix(self, xs) -> np.ndarray:
        """(n, K) prediction matrix for a batch of contexts (one GEMM; may
        differ from ``predict_rows`` in the last bits)."""
        return featurize(xs, self.context_dim) @ self.weights.T

    def induced_actions(self, xs) -> np.ndarray:
        """argmax arm (1-based) per context; ties go to the lowest index."""
        return row_max_argmax(self.predict_matrix(xs))[1] + 1


class DataBatch:
    """Append-only store of (context, arm, reward) triples for one phase."""

    def __init__(self, num_arms: int, context_dim: int = 1):
        self.num_arms = num_arms
        self.context_dim = context_dim
        self.xs: list = []
        self.arms: list[int] = []
        self.rewards: list[float] = []
        self._moments = None  # (row count, G, b, yy, n) at the last fold

    def __len__(self) -> int:
        return len(self.arms)

    def append(self, x, a: int, r: float) -> None:
        if type(a) is not int or not 1 <= a <= self.num_arms:
            return self.extend([x], [a], [r])  # checks the arm; plain ints in range skip it
        self.xs.append(x)
        self.arms.append(a)
        self.rewards.append(float(r))

    def extend(self, xs, arms, rewards) -> None:
        """Append many rows at once; raises InvalidArmError, appending
        nothing, unless every arm is an integer in 1..K (a bool is not)."""
        # numpy casts the bools of a sequence that mixes them with ints to ints
        bools = [] if isinstance(arms, np.ndarray) else \
            [a for a in arms if isinstance(a, (bool, np.bool_))]
        arms = np.asarray(arms)
        bad = arms if arms.dtype.kind not in "iuf" else \
            arms[(arms < 1) | (arms > self.num_arms) | (arms != np.floor(arms))]
        if bools or bad.size:
            raise InvalidArmError(f"arm {(bools or bad.flat)[0]} is not an integer "
                                  f"in 1..{self.num_arms}")
        self.xs.extend(np.asarray(xs, dtype=float).tolist())
        self.arms.extend(arms.astype(np.int64).tolist())
        self.rewards.extend(np.asarray(rewards, dtype=float).tolist())

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        Phi = featurize(self.xs, self.context_dim) if self.arms else \
            np.empty((0, self.context_dim + 1))
        return Phi, np.asarray(self.arms, dtype=int), np.asarray(self.rewards, dtype=float)

    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-arm (G, b, yy, n) of shapes (K, p, p), (K, p), (K,), (K,), folded
        on first use and cached until the row count changes.  Raises
        FloatingPointError when a context or reward is NaN or inf."""
        if self._moments is None or self._moments[0] != len(self):
            Phi, arms, r = self.as_arrays()
            # column by column (Phi's first is 1): reductions over short rows are slow
            bad = len(r) - int(np.count_nonzero(
                np.logical_and.reduce([np.isfinite(col) for col in (r, *Phi.T[1:])])))
            if bad:
                raise FloatingPointError(
                    f"{bad} of {len(self)} rows have a non-finite context or reward")
            p = self.context_dim + 1
            G, b = np.zeros((self.num_arms, p, p)), np.zeros((self.num_arms, p))
            yy, n = np.zeros(self.num_arms), np.zeros(self.num_arms, dtype=int)
            # Pa.T @ Pa per arm keeps fits bit-equal to the row-rebuild reference
            for a in range(self.num_arms):
                mask = arms == a + 1
                Pa, ra = Phi[mask], r[mask]
                G[a], b[a], yy[a], n[a] = Pa.T @ Pa, Pa.T @ ra, ra @ ra, len(ra)
            self._moments = (len(self), G, b, yy, n)
        return self._moments[1:]


def _solve_normal_equations(G: np.ndarray, bvec: np.ndarray, nrows: int) -> tuple[np.ndarray, bool]:
    """Solve G w = b, adding a small ridge when the arm design cannot
    identify all parameters (too few rows, or a collinear design)."""
    p = G.shape[0]
    deficient = nrows < p
    if not deficient:
        eigs = np.linalg.eigvalsh(G)
        deficient = eigs[0] <= 1e-10 * max(eigs[-1], 1.0)
    if deficient:
        G = G + RIDGE * np.eye(p)
    return np.linalg.solve(G, bvec), deficient


def _fit_rowweighted(batches_and_weights, num_arms: int, context_dim: int) -> LinearModel:
    p = context_dim + 1
    G = np.zeros((num_arms, p, p))
    bvec = np.zeros((num_arms, p))
    counts = np.zeros(num_arms, dtype=int)
    for batch, w in batches_and_weights:
        if len(batch) == 0 or w == 0.0:
            continue
        Gb, bb, _, nb = batch.moments()
        G += w * Gb
        bvec += w * bb
        counts += nb
    weights = np.zeros((num_arms, p))
    any_ridge = False
    for a in range(num_arms):
        if counts[a] == 0:
            any_ridge = True  # zero rows: weights stay 0, flagged
            continue
        weights[a], used = _solve_normal_equations(G[a], bvec[a], counts[a])
        any_ridge = any_ridge or used
    return LinearModel(weights, ridge_fallback=any_ridge)


def fit_ols(batch: DataBatch) -> LinearModel:
    """Per-arm least squares via normal equations.

    Arms with no rows get zero weights; rank-deficient arm designs fall back
    to a ridge-regularized solve and flag the result.
    """
    return _fit_rowweighted([(batch, 1.0)], batch.num_arms, batch.context_dim)


def fit_weighted(active: DataBatch, passive: DataBatch, lam: float) -> LinearModel:
    """Minimizer of  SSE(active)/|active| + lam * SSE(passive)/|passive|."""
    if len(active) == 0:
        raise ValueError("active batch is empty")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if len(passive) == 0 and lam != 0.0:
        raise ValueError("passive batch is empty but lam > 0")
    parts = [(active, 1.0 / len(active))]
    if len(passive) > 0:
        parts.append((passive, lam / len(passive)))
    return _fit_rowweighted(parts, active.num_arms, active.context_dim)


def _moment_nsse(model: LinearModel, batch: DataBatch) -> float:
    """Normalized SSE (squared residuals summed, over the row count) from
    the batch's cached moments, clamped at 0 (0 on an empty batch)."""
    G, b, yy, _ = batch.moments()
    W = model.weights
    total = np.einsum("ai,aij,aj->", W, G, W) - 2.0 * np.einsum("ai,ai->", W, b) + yy.sum()
    return max(0.0, float(total)) / max(len(batch), 1)


@dataclass
class ConstraintSpec:
    """Budget on the passive-batch fit error: normalized SSE must stay
    within ``slack`` of the best value ``alpha`` attainable on that batch.

    ``alpha`` is recomputed on every call from the batch's moments, which
    are refolded after any append, so the budget cannot go stale.
    """

    passive_batch: DataBatch
    slack: float

    def alpha(self) -> float:
        return _moment_nsse(fit_ols(self.passive_batch), self.passive_batch)


@dataclass
class DualReport:
    """Outcome of one constrained fit: the final multiplier, how tight the
    constraint ended up, and the gap between the primal and dual objectives."""

    lam: float
    constraint_residual: float  # normalized SSE(passive) - alpha - slack
    duality_gap: float
    alpha: float
    slack: float
    n_weighted_fits: int
    converged: bool


def constrained_fit(active: DataBatch, cons: ConstraintSpec, tol: float = 1e-6,
                    lambda_max: float = 1e12,
                    max_iters: int = 400) -> tuple[LinearModel, DualReport]:
    """Constrained regression via the one-dimensional concave dual.

    The unconstrained minimizer is tried first; if it already satisfies the
    passive budget it is returned with lambda = 0.  Otherwise the optimal
    multiplier is bracketed by doubling and then located by bisection on the
    sign of the dual's derivative, which at the weighted fit f(lambda)
    equals the constraint residual normalized SSE(f, passive) - alpha -
    slack.  Bisection keeps the feasible endpoint, so the returned model
    always satisfies the budget; it stops once that endpoint is within
    ``tol`` of tightness and the lambda interval is below ``LAMBDA_TOL``,
    or, unconverged, at adjacent float endpoints or after ``max_iters`` steps.

    The returned model is the exact output of ``fit_weighted(active,
    passive, report.lam)`` -- re-running that call reproduces it bit for
    bit.
    """
    if cons.slack <= 0:
        raise InfeasibleConstraintError(
            f"slack must be > 0 for strict feasibility, got {cons.slack}")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    passive = cons.passive_batch
    alpha = cons.alpha()
    budget = alpha + cons.slack
    n_fits = 0

    def weighted(lam: float) -> tuple[LinearModel, float]:
        nonlocal n_fits
        n_fits += 1
        model = fit_weighted(active, passive, lam)
        return model, _moment_nsse(model, passive) - budget

    model, resid = weighted(0.0)
    if resid <= 0:
        return model, DualReport(0.0, resid, 0.0, alpha, cons.slack, n_fits, True)

    lam_lo, lam_hi = 0.0, 2.0
    model, resid = weighted(lam_hi)
    while resid > 0:
        lam_lo, lam_hi = lam_hi, 2.0 * lam_hi
        if lam_hi > lambda_max:
            raise DualNonConvergenceError(
                f"no feasible weighted fit up to lambda={lam_hi:.3g} "
                f"(alpha={alpha:.6g}, slack={cons.slack:.6g}, "
                f"residual at cap={resid:.6g})")
        model, resid = weighted(lam_hi)

    iters = 0
    while (abs(resid) > tol or (lam_hi - lam_lo) > LAMBDA_TOL * max(1.0, lam_hi)) \
            and iters < max_iters:
        mid = 0.5 * (lam_lo + lam_hi)
        if mid in (lam_lo, lam_hi):
            break  # adjacent floats: every later step refits an endpoint
        mid_model, mid_resid = weighted(mid)
        if mid_resid > 0:
            lam_lo = mid
        else:
            lam_hi, model, resid = mid, mid_model, mid_resid
        iters += 1

    primal = _moment_nsse(model, active)  # normalized SSE(active)
    gap = primal - (primal + lam_hi * resid)  # primal minus dual objective
    return model, DualReport(lam_hi, resid, gap, alpha, cons.slack, n_fits, abs(resid) <= tol)
