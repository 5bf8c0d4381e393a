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

A ``DataBatch`` keeps its rows arm by arm (``arm_rows(a)`` gives arm a's
design rows and rewards), with no arm column.  Fits and oracle residuals
come from per-arm moments ``(G_a = Phi_a' Phi_a, b_a = Phi_a' r_a, r_a' r_a,
n_a)`` that the batch folds from each arm's own rows and caches until its
next append, so each dual evaluation costs O(K p^3) whatever the row count;
the K normal-equation systems are solved as one stack.  The oracle's
normalized SSE is ``max(0, sum_a w_a' G_a w_a - 2 w_a' b_a + r_a' r_a) / n``:
the clamp absorbs rounding on exactly interpolated data.

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

    def predict_rows(self, xs) -> np.ndarray:
        """(n, K) predictions, row i bit-equal to ``weights @ phi(xs[i])``,
        so a row does not depend on how many rows are predicted together."""
        return rowwise_predict(self.weights, featurize(xs, self.context_dim))

    def predict_matrix(self, xs) -> np.ndarray:
        """(n, K) prediction matrix for a batch of contexts (one GEMM; may
        differ from ``predict_rows`` in the last bits)."""
        return featurize(xs, self.context_dim) @ self.weights.T


class DataBatch:
    """Append-only store of (context, arm, reward) rows for one phase, kept
    arm by arm: per arm, its contexts and its rewards in arrival order."""

    def __init__(self, num_arms: int, context_dim: int = 1):
        self.num_arms = num_arms
        self.context_dim = context_dim
        self._xs: list[list] = [[] for _ in range(num_arms)]
        self._rewards: list[list[float]] = [[] for _ in range(num_arms)]
        self._moments = None  # (row count, G, b, yy, n) at the last fold

    def __len__(self) -> int:
        return sum(map(len, self._rewards))

    def append(self, x, a: int, r: float) -> None:
        if type(a) is not int or not 1 <= a <= self.num_arms:
            return self.extend([x], [a], [r])  # checks the arm; plain ints in range skip it
        self._xs[a - 1].append(x)
        self._rewards[a - 1].append(float(r))

    def extend(self, xs, arms, rewards) -> None:
        """Append n rows at once; appending nothing, raises InvalidArmError
        unless every arm is an integer in 1..K (a bool is not), and
        ValueError unless the n arms come with rewards of shape (n,) and
        contexts of shape (n,) at d = 1, (n, d) otherwise."""
        # numpy casts the bools of a sequence that mixes them with ints to ints
        bools = [] if isinstance(arms, np.ndarray) else \
            [a for a in arms if isinstance(a, (bool, np.bool_))]
        arms = np.asarray(arms)
        bad = arms if arms.dtype.kind not in "iuf" else \
            arms[(arms < 1) | (arms > self.num_arms) | (arms != np.floor(arms))]
        if bools or bad.size:
            raise InvalidArmError(f"arm {(bools or bad.flat)[0]} is not an integer "
                                  f"in 1..{self.num_arms}")
        xs, rewards = np.asarray(xs, dtype=float), np.asarray(rewards, dtype=float)
        n = len(arms)
        contexts = (n,) if self.context_dim == 1 else (n, self.context_dim)
        if arms.shape != (n,) or rewards.shape != (n,) or xs.shape != contexts:
            raise ValueError(f"{n} arms need rewards of shape {(n,)} and contexts of shape "
                             f"{contexts}; got {rewards.shape} and {xs.shape}")
        # one stable sort files the block's rows arm by arm, in arrival order;
        # in the smallest unsigned type that holds K it is a radix sort
        arms = arms.astype(np.min_scalar_type(self.num_arms))
        order = np.argsort(arms, kind="stable")
        ends = arms[order].searchsorted(np.arange(1, self.num_arms + 1, dtype=arms.dtype),
                                        side="right")
        xs, rewards = xs[order], rewards[order]
        lo = 0
        for arm_xs, arm_rewards, hi in zip(self._xs, self._rewards, ends.tolist()):
            arm_xs.extend(xs[lo:hi].tolist())
            arm_rewards.extend(rewards[lo:hi].tolist())
            lo = hi

    def arm_rows(self, a: int) -> tuple[np.ndarray, np.ndarray]:
        """Arm a's design rows [1, x] of shape (n_a, p) and rewards (n_a,),
        in arrival order."""
        xs = self._xs[a - 1]
        Phi = featurize(xs, self.context_dim) if xs else np.empty((0, self.context_dim + 1))
        return Phi, np.asarray(self._rewards[a - 1], dtype=float)

    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-arm (G, b, yy, n) of shapes (K, p, p), (K, p), (K,), (K,), folded
        arm by arm on first use and cached until the row count changes.
        Raises FloatingPointError when a context or reward is NaN or inf."""
        if self._moments is None or self._moments[0] != len(self):
            p = self.context_dim + 1
            G, b = np.zeros((self.num_arms, p, p)), np.zeros((self.num_arms, p))
            yy, n = np.zeros(self.num_arms), np.zeros(self.num_arms, dtype=int)
            bad = 0
            for a in range(self.num_arms):
                Pa, ra = self.arm_rows(a + 1)
                # column by column (Pa's first is 1): reductions over short rows are slow
                arm_bad = len(ra) - int(np.count_nonzero(
                    np.logical_and.reduce([np.isfinite(col) for col in (ra, *Pa.T[1:])])))
                bad += arm_bad
                if not arm_bad:
                    # Pa.T @ Pa per arm keeps fits bit-equal to the row-rebuild reference
                    G[a], b[a], yy[a], n[a] = Pa.T @ Pa, Pa.T @ ra, ra @ ra, len(ra)
            if bad:
                raise FloatingPointError(
                    f"{bad} of {len(self)} rows have a non-finite context or reward")
            self._moments = (len(self), G, b, yy, n)
        return self._moments[1:]


def _fit_rowweighted(batches_and_weights, num_arms: int, context_dim: int) -> LinearModel:
    """Per-arm normal equations G_a w_a = b_a (see ``fit_ols``), solved as
    one (K, p, p) stack: the same bits as one solve per arm."""
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
    # too few rows or a collinear design cannot identify all parameters
    deficient, full, rows = counts < p, counts >= p, counts > 0
    eigs = np.linalg.eigvalsh(G[full])
    deficient[full] = eigs[:, 0] <= 1e-10 * np.maximum(eigs[:, -1], 1.0)
    G[deficient] += RIDGE * np.eye(p)
    weights = np.zeros((num_arms, p))
    weights[rows] = np.linalg.solve(G[rows], bvec[rows][..., None])[..., 0]
    return LinearModel(weights, ridge_fallback=bool(deficient.any()))


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
