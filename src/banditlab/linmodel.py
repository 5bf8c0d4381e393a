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
multiplier lambda.  ``fit_replications`` solves it for R replications in
one call, each on its own bracket; every dual evaluation is one weighted
least-squares fit, and the returned model is exactly the output of the
final one.  ``constrained_fit`` and ``fit_ols`` are its one-replication
cases on ``DataBatch``es.

Fits and oracle residuals read only per-arm moments ``(G_a = Phi_a' Phi_a,
b_a = Phi_a' r_a, r_a' r_a, n_a)``, so each dual evaluation costs O(K p^3)
whatever the row count; the R * K normal-equation systems are solved as
one stack.  The engine's agents keep them as running sums in round order
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
LAMBDA_TOL = 1e-8  # the oracle's bisection width, relative to max(1, lambda)
LAMBDA_MAX = 1e12  # the oracle raises once its doubling bracket passes it
MAX_BISECTIONS = 400  # the oracle's bisection steps before it stops unconverged


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


def check_finite(values: np.ndarray, message: str) -> None:
    """A FloatingPointError(message) if the (R, ...) ``values`` are not all
    finite, with the first replication at fault as its ``replication``."""
    finite = np.isfinite(values)
    if not finite.all():
        exc = FloatingPointError(message)
        exc.replication = int(np.argmin(finite.reshape(len(finite), -1).all(axis=1)))
        raise exc


def checked_moments(G, b, yy, n):
    """Per-arm moments (G, b, yy, n) over any leading axes, or a FloatingPointError
    naming the first arm whose G, b or yy is not finite (and its ``replication``)."""
    finite = np.isfinite(G).all(axis=(-2, -1)) & np.isfinite(b).all(axis=-1) & np.isfinite(yy)
    if not finite.all():
        *lead, a = np.unravel_index(np.argmin(finite), finite.shape)
        exc = FloatingPointError(
            f"arm {a + 1}'s moments (G, b or yy) overflow: {n[(*lead, a)]} finite rows fold to "
            f"non-finite sums of products")
        if lead:
            exc.replication = int(lead[0])
        raise exc
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

    def moments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Contiguous copies of (G, b, yy, n), which ``fit_replications`` checks:
        the oracle's einsum residuals group their sums by stride, so over views
        of the one buffer of sums they round apart from one replication's."""
        return tuple(a.copy() for a in (self.G, self.b, self.yy, self.n))


def _fit(active, passive=None, lam=None) -> tuple[np.ndarray, np.ndarray]:
    """Per-arm weights (..., K, p) of least squares on the active moments, or
    minimizing SSE(active)/|active| + lam * SSE(passive)/|passive| at one lam
    per leading index, and each index's ridge flag.  Each (p, p) system of
    the normal equations is solved alone: arms with no rows (at a nonzero
    weight) get zero weights, rank-deficient designs a ridge-regularized one."""
    G, bvec, _, counts = active
    if passive is None:  # new arrays, as the ridge below is added in place
        G, bvec = G + 0.0, bvec + 0.0
    else:  # summed from 0 one part after another, so no entry is -0
        ca = (1.0 / counts.sum(axis=-1, dtype=float))[..., None, None]
        cp = (lam / np.maximum(passive[3].sum(axis=-1, dtype=float), 1.0))[..., None, None]
        G = 0.0 + ca[..., None] * G + cp[..., None] * passive[0]
        bvec = 0.0 + ca * bvec + cp * passive[1]
        counts = counts + (cp[..., 0] != 0) * passive[3]
    p = G.shape[-1]
    # too few rows or a collinear design cannot identify all parameters
    deficient, full, rows = counts < p, counts >= p, counts > 0
    eigs = np.linalg.eigvalsh(G[full])
    deficient[full] = eigs[:, 0] <= 1e-10 * np.maximum(eigs[:, -1], 1.0)
    G[deficient] += RIDGE * np.eye(p)
    weights = np.zeros(bvec.shape)
    weights[rows] = np.linalg.solve(G[rows], bvec[rows][..., None])[..., 0]
    return weights, deficient.any(axis=-1)


def _nsse(weights, moments) -> np.ndarray:
    """Normalized SSE of (..., K, p) weights on moments over the same
    leading axes, clamped at 0 (0 with no rows); nan where the sum overflows."""
    G, b, yy, n = moments
    with np.errstate(over="ignore", invalid="ignore"):  # fit_replications checks the results
        total = np.einsum("...ai,...aij,...aj->...", weights, G, weights) \
            - 2.0 * np.einsum("...ai,...ai->...", weights, b) + yy.sum(axis=-1)
    total = np.where(np.isfinite(total), np.fmax(total, 0.0), np.nan)
    return total / np.maximum(n.sum(axis=-1), 1)


def _one(batch: DataBatch):
    """A batch's checked moments as one replication's, (1, K, ...)."""
    return tuple(a[None] for a in batch.moments())


def fit_ols(batch: DataBatch) -> LinearModel:
    """Per-arm least squares (``_fit``)."""
    return fit_replications(_one(batch))[0][0]


def fit_weighted(active: DataBatch, passive: DataBatch, lam: float) -> LinearModel:
    """Minimizer of  SSE(active)/|active| + lam * SSE(passive)/|passive|."""
    if len(active) == 0:
        raise ValueError("active batch is empty")
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if len(passive) == 0 and lam != 0.0:
        raise ValueError("passive batch is empty but lam > 0")
    weights, fallback = _fit(_one(active), _one(passive), np.array([lam], dtype=float))
    return LinearModel(weights[0], ridge_fallback=bool(fallback[0]))


@dataclass
class ConstraintSpec:
    """Budget on the passive-batch fit error: normalized SSE must stay
    within ``slack`` of the best value ``alpha`` attainable on that batch,
    which each ``constrained_fit`` computes (``DualReport.alpha``) afresh."""

    passive_batch: DataBatch
    slack: float


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


def constrained_fit(active: DataBatch, cons: ConstraintSpec,
                    tol: float = 1e-6) -> tuple[LinearModel, DualReport]:
    """The one-replication ``fit_replications``: its model is the exact
    output of ``fit_weighted(active, passive, report.lam)``."""
    passive = _one(cons.passive_batch)  # alpha reads the passive moments first
    return fit_replications(_one(active), passive, cons.slack, tol)[0]


def fit_replications(active, passive=None, slack: float | None = None,
                     tol: float = 1e-6) -> list[tuple[LinearModel, DualReport | None]]:
    """One ``(LinearModel, DualReport | None)`` per replication of (R, K, ...)
    moments (G, b, yy, n), each with the bits of its own (1, K, ...) call:
    least squares without passive moments, else the constrained oracle.

    Where the lambda = 0 fit misses the budget, lambda doubles from 2 until
    a fit is feasible, then is bisected on the sign of the dual's derivative,
    the residual normalized SSE(passive) - alpha - slack, keeping the
    feasible end, until that end is within ``tol`` of tightness and the
    bracket below ``LAMBDA_TOL`` or, unconverged, at adjacent floats or
    after ``MAX_BISECTIONS`` steps.  Doubling past ``LAMBDA_MAX`` raises, and
    so does an alpha, residual or duality gap that is not finite."""
    # an overflow names the lowest replication at fault, its passive moments first
    stores = (active,) if passive is None else (passive, active)
    if not all(np.isfinite(a).all() for store in stores for a in store[:3]):
        checked_moments(*(np.stack(pair, axis=1) for pair in zip(*stores)))
    if passive is None:
        weights, fallback = _fit(active)
        return [(LinearModel(w, ridge_fallback=bool(f)), None) for w, f in zip(weights, fallback)]
    if slack <= 0:
        raise InfeasibleConstraintError(f"slack must be > 0 for strict feasibility, got {slack}")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if not active[3].sum(axis=-1).all():
        raise ValueError("active batch is empty")
    alpha = _nsse(_fit(passive)[0], passive)
    budget = alpha + slack
    weights, fallback = _fit(active, passive, np.zeros(len(alpha)))
    resid = _nsse(weights, passive) - budget
    n_fits, binds = np.ones(len(alpha), dtype=int), ~(resid <= 0)
    # [lo, hi, bisection steps] of each replication whose lambda = 0 fit
    # misses the budget; hi is inf until a fit is feasible
    brackets = {r: [0.0, np.inf, 0] for r in np.flatnonzero(binds).tolist()}

    def take(moments, rows):  # fancy indexing copies, so the moments stay contiguous
        return moments if len(rows) == len(alpha) else tuple(a[rows] for a in moments)

    while True:
        tries = {}  # replication: the multiplier it fits next
        for r, (lo, hi, steps) in brackets.items():
            mid = 0.5 * (lo + hi)
            if hi == np.inf:
                tries[r] = max(2.0, 2.0 * lo)
                if tries[r] > LAMBDA_MAX:
                    exc = DualNonConvergenceError(
                        f"no feasible weighted fit up to lambda={tries[r]:.3g} (alpha="
                        f"{alpha[r]:.6g}, slack={slack:.6g}, residual at cap={resid[r]:.6g})")
                    exc.replication = r
                    raise exc
            elif ((abs(resid[r]) > tol or hi - lo > LAMBDA_TOL * max(1.0, hi))
                  and steps < MAX_BISECTIONS and mid not in (lo, hi)):  # not adjacent floats
                tries[r] = mid
        if not tries:
            break
        rows = list(tries)
        pas = take(passive, rows)
        w, f = _fit(take(active, rows), pas, np.array(list(tries.values())))
        n_fits[rows] += 1
        for i, (r, res) in enumerate(zip(rows, _nsse(w, pas) - budget[rows])):
            lo, hi, steps = brackets[r]
            feasible, steps = not res > 0, steps + (hi < np.inf)  # a bisection step
            if feasible or hi == np.inf:  # doubling keeps each fit, bisection the feasible end
                weights[r], fallback[r], resid[r] = w[i], f[i], res
            brackets[r] = [lo, tries[r], steps] if feasible else [tries[r], hi, steps]

    lam, gap, rows = np.zeros(len(alpha)), np.zeros(len(alpha)), list(brackets)
    lam[rows] = [hi for _, hi, _ in brackets.values()]
    if rows:  # where lam = 0 the dual is the primal
        primal = _nsse(weights[rows], take(active, rows))  # normalized SSE(active)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            gap[rows] = primal - (primal + lam[rows] * resid[rows])
    check_finite(np.stack([alpha, resid, gap], axis=1),
                 "non-finite dual report (alpha, constraint residual or duality gap)")
    converged = ~binds | (np.abs(resid) <= tol)
    return [(LinearModel(weights[r], ridge_fallback=bool(fallback[r])),
             DualReport(float(lam[r]), float(resid[r]), float(gap[r]), float(alpha[r]), slack,
                        int(n_fits[r]), bool(converged[r])))
            for r in range(len(alpha))]
