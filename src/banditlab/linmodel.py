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

Fits and oracle residuals read only per-arm moments ``(G_a = Phi_a' Phi_a,
b_a = Phi_a' r_a, r_a' r_a, n_a)``, so each dual evaluation costs O(K p^3)
whatever the row count; the K normal-equation systems are solved as one
stack.  The engine's agents keep them as running sums in round order
(``MomentStore``, R replications at once); a ``DataBatch`` keeps appended
rows arm by arm and folds each arm's with one GEMM.  The oracle's
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
LAMBDA_MAX = 1e12  # constrained_fit raises once its doubling bracket passes it
MAX_BISECTIONS = 400  # constrained_fit's bisection steps before it stops unconverged


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
    finite (n, K) matrix (an arm-major ``P`` as ``P.T``), column by column:
    faster than a short-row reduction."""
    top, best = values[:, 0].copy(), np.zeros(len(values), dtype=np.intp)
    for a in range(1, values.shape[1]):
        # best < a so far: arithmetic, where a masked copy branches per row
        np.maximum(best, (values[:, a] > top) * a, out=best)
        np.maximum(top, values[:, a], out=top)
    return top, best


def arm_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the arms of an arm-major (K, ...) array with the bits of
    numpy's row sums of its (..., K) transpose: one arm after another below
    K = 8, eight interleaved lanes up to K = 128, split in two above (the
    first part a multiple of 8), and a zero sum is +0."""
    K = len(values)
    if K < 8:
        total = values[0] + 0.0
        for v in values[1:]:
            total += v
        return total
    if K > 128:
        half = K // 2 - K // 2 % 8
        return arm_sum(values[:half]) + arm_sum(values[half:])
    lanes, stop = values[:8].copy(), K - K % 8
    for i in range(8, stop, 8):
        lanes += values[i:i + 8]
    total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + \
        ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    for v in values[stop:]:
        total += v
    return total + 0.0


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


def checked_moments(G, b, yy, n):
    """Per-arm moments (G, b, yy, n), or a FloatingPointError naming the
    first arm whose G, b or yy is not finite."""
    finite = np.isfinite(G).all(axis=(1, 2)) & np.isfinite(b).all(axis=1) & np.isfinite(yy)
    if not finite.all():
        a = int(np.argmin(finite))
        raise FloatingPointError(
            f"arm {a + 1}'s moments (G, b or yy) overflow: {n[a]} finite rows fold to "
            f"non-finite sums of products")
    return G, b, yy, n


class DataBatch:
    """Append-only (context, arm, reward) rows, kept arm by arm in arrival
    order in Python lists; its moments fold each arm's rows with one GEMM."""

    def __init__(self, num_arms: int, context_dim: int = 1):
        self.num_arms, self.context_dim = num_arms, context_dim
        # ``append`` files rows of these arms unchecked; at d > 1 none
        self._unchecked_arms = num_arms if context_dim == 1 else 0
        self._xs: list[list] = [[] for _ in range(num_arms)]
        self._rewards: list[list[float]] = [[] for _ in range(num_arms)]
        self._moments = None  # (row count, G, b, yy, n) at the last fold

    def __len__(self) -> int:
        return sum(map(len, self._rewards))

    def append(self, x, a: int, r: float) -> None:
        """Append one row; raise with nothing stored on a reward that is no
        number, a context not of shape (d,) at d > 1 ((), at d = 1, with an
        arm that is no int), or an arm that is a bool or no integer in 1..K."""
        r = float(r)
        if type(a) is not int or not 1 <= a <= self._unchecked_arms:
            v = np.asarray(a)
            if (isinstance(a, (bool, np.bool_)) or v.shape or v.dtype.kind not in "iuf"
                    or not (1 <= v <= self.num_arms and v == np.floor(v))):
                raise InvalidArmError(f"arm {a} is not an integer in 1..{self.num_arms}")
            a, x = int(a), np.asarray(x, dtype=float)
            shape = () if self.context_dim == 1 else (self.context_dim,)
            if x.shape != shape:
                raise ValueError(f"a context has shape {shape}; got shape {x.shape}")
        self._xs[a - 1].append(x)
        self._rewards[a - 1].append(r)

    def arm_rows(self, a: int) -> tuple[np.ndarray, np.ndarray]:
        """Arm a's design rows [1, x] of shape (n_a, p) and rewards (n_a,),
        in arrival order."""
        xs = self._xs[a - 1]
        Phi = featurize(xs, self.context_dim) if xs else np.empty((0, self.context_dim + 1))
        return Phi, np.asarray(self._rewards[a - 1], dtype=float)

    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-arm (G, b, yy, n) of shapes (K, p, p), (K, p), (K,), (K,), folded
        arm by arm on first use and cached until the row count changes.
        Raises FloatingPointError when a context or reward is NaN or inf,
        or when finite rows fold to a G, b or yy that is not finite."""
        if self._moments is None or self._moments[0] != len(self):
            p = self.context_dim + 1
            G, b = np.zeros((self.num_arms, p, p)), np.zeros((self.num_arms, p))
            yy, n = np.zeros(self.num_arms), np.zeros(self.num_arms, dtype=int)
            # Pa.T @ Pa per arm keeps fits bit-equal to the row-rebuild
            # reference; a non-finite row makes its arm's sums non-finite
            with np.errstate(over="ignore", invalid="ignore"):
                for a in range(self.num_arms):
                    Pa, ra = self.arm_rows(a + 1)
                    G[a], b[a], yy[a], n[a] = Pa.T @ Pa, Pa.T @ ra, ra @ ra, len(ra)
            try:
                self._moments = (len(self), *checked_moments(G, b, yy, n))
            except FloatingPointError:
                bad = sum(int((~np.isfinite(np.column_stack(self.arm_rows(a)))).any(axis=1).sum())
                          for a in range(1, self.num_arms + 1))
                if bad:
                    raise FloatingPointError(
                        f"{bad} of {len(self)} rows have a non-finite context or reward") from None
                raise
        return self._moments[1:]


class MomentStore:
    """Per-arm moments of R replications' rows, zero at the start: (R, K, p, p)
    ``G = Phi'Phi``, (R, K, p) ``b = Phi'r``, (R, K) ``yy = r'r`` and ``n``.
    ``add_block`` adds each row's products one row after another, so a sum
    does not depend on how the rows are split into blocks."""

    def __init__(self, replications: int, num_arms: int, context_dim: int = 1):
        R, K, p = replications, num_arms, context_dim + 1
        self.num_arms, self.context_dim = num_arms, context_dim
        # one cell of sums per (replication, arm): G's p * p entries, b's p, yy
        self._sums = np.zeros((R, K, p * p + p + 1))
        self.G = self._sums[..., :p * p].reshape(R, K, p, p)
        self.b, self.yy = self._sums[..., p * p:-1], self._sums[..., -1]
        self.n = np.zeros((R, K), dtype=np.int64)
        self._replication, self._entries = np.arange(R)[:, None], np.arange(p * p + p + 1)[:, None]

    def add_block(self, xs, arms, rewards) -> None:
        """Add n finite rows of each replication: (R, n) or (R, n, d) contexts,
        an (R, n) integer array of arms in 1..K and (R, n) rewards; else raise
        InvalidArmError (arms) or ValueError (shapes) with nothing added."""
        arms_in, arms, (R, K) = arms, np.asarray(arms), self.n.shape
        # numpy casts the bools of a list that mixes them with ints to ints
        bools = not isinstance(arms_in, np.ndarray) and any(
            isinstance(a, (bool, np.bool_)) for a in np.asarray(arms_in, dtype=object).flat)
        if arms.ndim != 2 or len(arms) != R or arms.dtype.kind not in "iu" or bools:
            raise InvalidArmError(f"{R} replications need an (R, n) integer array of arms; "
                                  f"got shape {arms.shape} of type {arms.dtype}")
        try:  # the flat (replication, arm) cell of each row; raises on an arm outside 1..K
            cell = np.ravel_multi_index((self._replication, arms - 1), (R, K)).ravel()
        except ValueError:
            bad = arms[(arms < 1) | (arms > K)].flat[0]
            raise InvalidArmError(f"arm {bad} is not an integer in 1..{K}") from None
        xs, rewards = np.asarray(xs, dtype=float), np.asarray(rewards, dtype=float)
        d, p = self.context_dim, self.context_dim + 1
        contexts = arms.shape if d == 1 else (*arms.shape, d)
        if rewards.shape != arms.shape or xs.shape != contexts:
            raise ValueError(f"{arms.shape} arms need rewards of shape {arms.shape} and contexts "
                             f"of shape {contexts}; got {rewards.shape} and {xs.shape}")
        # (p, N) design columns, (cell, N) products: long inner loops
        N, r = cell.size, rewards.ravel()
        cols, products = np.empty((p, N)), np.empty((len(self._entries), N))
        cols[0], cols[1:] = 1.0, xs.reshape(N, d).T
        # np.add.at adds row after row; overflowed sums are reported when read
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(cols[:, None], cols[None, :], out=products[:p * p].reshape(p, p, N))
            np.multiply(r, cols, out=products[p * p:-1])
            np.multiply(r, r, out=products[-1])
            np.add.at(self._sums.reshape(-1), (cell * len(self._entries) + self._entries).ravel(),
                      products.ravel())
        self.n += np.bincount(cell, minlength=R * K).reshape(R, K)

    def replication(self, r: int) -> "MomentView":
        """A copy of replication r's moments; raises if they overflowed."""
        return MomentView(*(a[r].copy() for a in (self.G, self.b, self.yy, self.n)))


class MomentView:
    """One replication's per-arm moments, checked when made
    (``checked_moments``), with what the fits read of a ``DataBatch``."""

    def __init__(self, G, b, yy, n):
        self._moments = checked_moments(G, b, yy, n)
        self.num_arms, self.context_dim, self._rows = G.shape[0], G.shape[-1] - 1, int(n.sum())

    def __len__(self) -> int:
        return self._rows

    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self._moments


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


def fit_ols(batch: DataBatch | MomentView) -> LinearModel:
    """Per-arm least squares via normal equations.

    Arms with no rows get zero weights; rank-deficient arm designs fall back
    to a ridge-regularized solve and flag the result.
    """
    return _fit_rowweighted([(batch, 1.0)], batch.num_arms, batch.context_dim)


def fit_weighted(active: DataBatch | MomentView, passive: DataBatch | MomentView,
                 lam: float) -> LinearModel:
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


def _moment_nsse(model: LinearModel, batch: DataBatch | MomentView) -> float:
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

    passive_batch: DataBatch | MomentView
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


def constrained_fit(active: DataBatch | MomentView, cons: ConstraintSpec,
                    tol: float = 1e-6) -> tuple[LinearModel, DualReport]:
    """Constrained regression via the one-dimensional concave dual.

    The unconstrained minimizer is tried first; if it already satisfies the
    passive budget it is returned with lambda = 0.  Otherwise the optimal
    multiplier is bracketed by doubling and then located by bisection on the
    sign of the dual's derivative, which at the weighted fit f(lambda)
    equals the constraint residual normalized SSE(f, passive) - alpha -
    slack.  Bisection keeps the feasible endpoint, so the returned model
    always satisfies the budget; it stops once that endpoint is within
    ``tol`` of tightness and the lambda interval is below ``LAMBDA_TOL``,
    or, unconverged, at adjacent float endpoints or after ``MAX_BISECTIONS`` steps.

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
        if lam_hi > LAMBDA_MAX:
            raise DualNonConvergenceError(
                f"no feasible weighted fit up to lambda={lam_hi:.3g} "
                f"(alpha={alpha:.6g}, slack={cons.slack:.6g}, "
                f"residual at cap={resid:.6g})")
        model, resid = weighted(lam_hi)

    iters = 0
    while (abs(resid) > tol or (lam_hi - lam_lo) > LAMBDA_TOL * max(1.0, lam_hi)) \
            and iters < MAX_BISECTIONS:
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
