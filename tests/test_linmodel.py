import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from banditlab import falcon, linmodel
from banditlab.env import EnvSpec
from banditlab.harness import RunConfig, run_many
from banditlab.linmodel import (ConstraintSpec, DataBatch, DualNonConvergenceError,
                                InfeasibleConstraintError, InvalidArmError, LinearModel,
                                MomentStore, _moment_nsse, arm_sum, constrained_fit, featurize,
                                fit_ols, fit_weighted, row_max_argmax)

from oracles import (fit_rowweighted_rows, fold_rows, grid_search_constrained,
                     grid_search_constrained_dense, normalized_sse, predict_matrix, sse,
                     zero_model)

# the worked instance: passive ERM is the line y=x with zero error, while the
# active ERM is the line 1-x, which misses the passive budget by a mile
ACTIVE = [(0.0, 1, 1.0), (1.0, 1, 0.0)]
PASSIVE = [(0.0, 1, 0.0), (1.0, 1, 1.0)]


def batch(rows, num_arms=1, dim=1):
    out = DataBatch(num_arms, dim)
    for x, a, r in rows:
        out.append(x, a, r)
    return out


def random_instance(rng, n_active=8, n_passive=8):
    xs_a = rng.random(n_active)
    xs_p = rng.random(n_passive)
    wa = rng.uniform(-1, 1, 2)
    wp = rng.uniform(-1, 1, 2)
    noise = 0.05
    act = [(float(x), 1, float(wa[0] + wa[1] * x + noise * rng.standard_normal()))
           for x in xs_a]
    pas = [(float(x), 1, float(wp[0] + wp[1] * x + noise * rng.standard_normal()))
           for x in xs_p]
    slack = float(rng.uniform(0.01, 0.3))
    return batch(act), batch(pas), slack


class TestPredict:
    def test_zero_model(self):
        rows = zero_model(3).predict_rows([0.7, 0.2])
        assert rows[0, 0] == 0.0
        assert rows[1, 2] == 0.0

    def test_step_fit_at_half(self):
        model = LinearModel(np.array([[-0.25, 1.5], [0.5, 0.0]]))
        assert model.predict_rows([0.5])[0, 0] == pytest.approx(0.5)

    def test_intercept_only(self):
        model = LinearModel(np.array([[0.37, 0.0]]))
        for x in (0.0, 0.25, 0.99):
            assert model.predict_rows([x])[0, 0] == pytest.approx(0.37)

    def test_predict_matrix_agrees(self):
        rng = np.random.default_rng(0)
        model = LinearModel(rng.uniform(-1, 1, (3, 2)))
        xs = rng.random(17)
        mat = predict_matrix(model, xs)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(mat[i], model.predict_rows([x])[0], atol=1e-14)

    def test_param_count(self):
        assert zero_model(2, 1).weights.size == 4
        assert zero_model(3, 2).weights.size == 9

    @given(K=st.integers(1, 10), d=st.integers(1, 5), n=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_predict_rows_row_exact(self, K, d, n, seed):
        # every row equals the one-context prediction and weights @ phi, bit
        # for bit, however many rows are predicted together
        rng = np.random.default_rng(seed)
        model = LinearModel(rng.normal(size=(K, d + 1)) * 10.0 ** rng.integers(-3, 4))
        xs = rng.random(n) if d == 1 else rng.random((n, d))
        rows = model.predict_rows(xs)
        assert rows.shape == (n, K)
        for i in range(n):
            phi = np.concatenate(([1.0], np.atleast_1d(xs[i])))
            assert rows[i].tobytes() == model.predict_rows(xs[i:i + 1])[0].tobytes()
            assert rows[i].tobytes() == (model.weights @ phi).tobytes()


# values from a small pool tie often within a row, signed zeros included;
# the rest are any finite doubles
ROW_VALUES = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]),
                       st.floats(allow_nan=False, allow_infinity=False))


class TestRowMaxArgmax:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 9).flatmap(lambda K: hnp.arrays(
        np.float64, st.tuples(st.integers(1, 12), st.just(K)), elements=ROW_VALUES)))
    def test_equals_numpy_max_and_argmax(self, values):
        top, best = row_max_argmax(values)
        assert top.tolist() == np.max(values, axis=1).tolist()
        assert best.tolist() == np.argmax(values, axis=1).tolist()

    def test_ties_go_to_the_first_column(self):
        top, best = row_max_argmax(np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [3.0, 3.0, 3.0]]))
        assert top.tolist() == [1.0, 2.0, 3.0] and best.tolist() == [0, 1, 0]


class TestArmSum:
    """``arm_sum`` of an arm-major (K, n) matrix against numpy's row sums of
    its (n, K) transpose: numpy adds one arm after another below K = 8, in
    eight lanes up to K = 128, and halves longer rows."""

    @staticmethod
    def mixed(rng, n, K):
        # magnitudes from subnormal to 1e300, both signs, and zeros of both signs
        values = rng.standard_normal((n, K)) * 10.0 ** rng.integers(-300, 300, (n, K))
        values[rng.random((n, K)) < 0.1] = 5e-324 * rng.integers(-3, 4)
        values[rng.random((n, K)) < 0.1] = 0.0
        values[rng.random((n, K)) < 0.1] = -0.0
        values[0] = -0.0  # a row of negative zeros sums to +0
        return values

    def test_equals_numpy_row_sums_for_every_K_to_300(self):
        rng = np.random.default_rng(7)
        for K in range(2, 301):
            rows = self.mixed(rng, 12, K)
            want = rows.sum(axis=1)
            for arm_major in (np.ascontiguousarray(rows.T), rows.T):
                assert arm_sum(arm_major).tobytes() == want.tobytes(), K

    def test_stacked_replications(self):
        rng = np.random.default_rng(8)
        for K in (2, 9, 130):
            rows = self.mixed(rng, 3 * 5, K).reshape(3, 5, K)
            assert arm_sum(np.moveaxis(rows, -1, 0)).tobytes() == rows.sum(axis=-1).tobytes()

    def test_a_different_order_would_show(self):
        # rows on which a plain left-to-right sum differs from numpy's order
        rng = np.random.default_rng(9)
        for K in (9, 130):
            rows = rng.random((200, K))
            sequential = np.zeros(200)
            for a in range(K):
                sequential += rows[:, a]
            assert sequential.tobytes() != rows.sum(axis=1).tobytes()
            assert arm_sum(rows.T).tobytes() == rows.sum(axis=1).tobytes()


class TestFitOls:
    def test_single_row_pins_intercept_with_ridge(self):
        model = fit_ols(batch([(0.0, 1, 0.3)]))
        assert model.ridge_fallback
        assert model.weights[0, 0] == pytest.approx(0.3, abs=1e-6)

    def test_two_point_interpolation(self):
        model = fit_ols(batch([(0.0, 1, 0.0), (1.0, 1, 1.0)]))
        assert not model.ridge_fallback
        np.testing.assert_allclose(model.weights[0], [0.0, 1.0], atol=1e-12)

    def test_noiseless_recovery(self):
        rng = np.random.default_rng(3)
        true = LinearModel(rng.uniform(-1, 1, (2, 2)))
        rows = []
        for _ in range(100):
            x = float(rng.random())
            a = int(rng.integers(2)) + 1
            rows.append((x, a, float(true.predict_rows([x])[0, a - 1])))
        fitted = fit_ols(batch(rows, num_arms=2))
        np.testing.assert_allclose(fitted.weights, true.weights, atol=1e-8)

    def test_step_labels_match_population_fit(self):
        rng = np.random.default_rng(11)
        xs = rng.random(1_000_000)
        store = MomentStore(1, 1, 1)
        for block in np.split(xs, 16):
            store.add_block(block[None], np.ones((1, len(block)), dtype=int),
                            (block[None] > 0.5).astype(float))
        fitted = fit_ols(store.replication(0))
        np.testing.assert_allclose(fitted.weights[0], [-0.25, 1.5], atol=0.01)

    def test_zero_row_arm_gets_zero_weights(self):
        model = fit_ols(batch([(0.2, 1, 0.5), (0.8, 1, 0.7)], num_arms=2))
        np.testing.assert_array_equal(model.weights[1], [0.0, 0.0])
        assert model.ridge_fallback

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_row_permutation_invariance(self, pyrng):
        rng = np.random.default_rng(pyrng.randrange(2**32))
        rows = [(float(rng.random()), int(rng.integers(2)) + 1,
                 float(rng.standard_normal())) for _ in range(12)]
        shuffled = rows[:]
        pyrng.shuffle(shuffled)
        w1 = fit_ols(batch(rows, num_arms=2)).weights
        w2 = fit_ols(batch(shuffled, num_arms=2)).weights
        np.testing.assert_allclose(w1, w2, atol=1e-9)

    def test_invalid_arm_on_append(self):
        with pytest.raises(InvalidArmError):
            batch([(0.5, 3, 1.0)], num_arms=2)


def store_bytes(store) -> bytes:
    return b"".join(a.tobytes() for a in (store.G, store.b, store.yy, store.n))


class TestExtend:
    """Rows filed a block at a time, for R replications at once
    (``MomentStore.add_block``), against rows filed one at a time."""

    @pytest.mark.parametrize("dim", [1, 3])
    def test_extend_equals_repeated_append(self, dim):
        rng = np.random.default_rng(dim)
        xs = rng.random((2, 40)) if dim == 1 else rng.random((2, 40, dim))
        arms, rewards = rng.integers(1, 4, size=(2, 40)), rng.normal(size=(2, 40))
        by_rows, by_blocks = MomentStore(2, 3, dim), MomentStore(2, 3, dim)
        for i in range(40):
            by_rows.add_block(xs[:, i:i + 1], arms[:, i:i + 1], rewards[:, i:i + 1])
        for lo, hi in ((0, 1), (1, 17), (17, 17), (17, 40)):
            by_blocks.add_block(xs[:, lo:hi], arms[:, lo:hi], rewards[:, lo:hi])
        assert store_bytes(by_blocks) == store_bytes(by_rows)
        for r in range(2):
            view = by_blocks.replication(r)
            assert len(view) == 40 and view.num_arms == 3 and view.context_dim == dim
            want = fold_rows(zip(xs[r], arms[r], rewards[r]), 3, dim)
            for got, ref in zip(view.moments(), want):
                assert got.tobytes() == ref.tobytes()
            assert fit_ols(view).weights.tobytes() == \
                fit_ols(by_rows.replication(r)).weights.tobytes()

    @pytest.mark.parametrize("bad", [0, 3, -1])
    def test_extend_rejects_arm_out_of_range(self, bad):
        rows = DataBatch(2)
        with pytest.raises(InvalidArmError, match=f"arm {bad} is not an integer in 1..2"):
            rows.append(0.5, bad, 1.0)
        assert len(rows) == 0
        block = MomentStore(2, 2)
        block.add_block([[0.1], [0.3]], [[1], [2]], [[0.0], [1.0]])
        before = store_bytes(block)
        for arms in ([[2, bad, 1], [1, 1, 1]], [[1, 1, 1], [2, 1, bad]]):
            with pytest.raises(InvalidArmError, match=f"arm {bad} is not an integer in 1..2"):
                block.add_block([[0.2, 0.5, 0.7]] * 2, np.array(arms), [[1.0, 1.0, 1.0]] * 2)
        # nothing of a rejected block is stored
        assert store_bytes(block) == before and block.n.tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("dim, xs, arms, rewards", [
        (1, [[0.1, 0.2, 0.3, 0.4, 0.5]], [[1, 2, 1]], [[1.0, 2.0, 3.0]]),  # extra contexts
        (1, [[0.1, 0.2, 0.3]], [[1, 2, 1]], [[1.0, 2.0, 3.0, 4.0]]),       # extra rewards
        (1, [[0.1, 0.2]], [[1, 2, 1]], [[1.0, 2.0, 3.0]]),                 # too few contexts
        (1, [[0.1, 0.2, 0.3]], [[1, 2, 1]], [[1.0, 2.0]]),                 # too few rewards
        (1, [[[0.1], [0.2]]], [[1, 2]], [[1.0, 2.0]]),                     # (R, n, 1) at d = 1
        (3, [[[0.1, 0.2]]], [[1]], [[1.0]]),                               # d - 1 values at d = 3
        (3, [[0.1, 0.2, 0.3]], [[1, 2, 1]], [[1.0, 2.0, 3.0]]),            # (R, n) at d = 3
        (1, [[0.1, 0.2]], [[[1, 2]]], [[1.0, 2.0]]),                       # arms not (R, n)
        (1, [[0.1, 0.2]], [[1, 2]], [[[1.0, 2.0]]]),                       # rewards not (R, n)
    ], ids=["extra_contexts", "extra_rewards", "short_contexts", "short_rewards",
            "column_contexts_d1", "short_context_d3", "flat_contexts_d3", "arms_2d",
            "rewards_2d"])
    def test_extend_rejects_mismatched_shapes(self, dim, xs, arms, rewards):
        block = MomentStore(1, 2, dim)
        block.add_block([[0.5]] if dim == 1 else [[[0.5] * dim]], [[1]], [[0.0]])
        before = store_bytes(block)
        with pytest.raises(ValueError, match=r"arms need rewards of shape|\(R, n\) integer"):
            block.add_block(xs, arms, rewards)
        # nothing of a rejected block is stored, and the store still reads
        assert store_bytes(block) == before
        assert block.replication(0).moments()[3].tolist() == [1, 0]

    @pytest.mark.parametrize("bad", [1.7, 2.9, float("nan"), float("inf"), True, np.True_],
                             ids=["float", "float_up", "nan", "inf", "bool", "numpy_bool"])
    def test_non_integral_or_bool_arm_rejected(self, bad):
        rows = DataBatch(3)
        with pytest.raises(InvalidArmError, match=f"arm {bad} is not an integer in 1..3"):
            rows.append(0.5, bad, 1.0)
        block = MomentStore(1, 3)
        with pytest.raises(InvalidArmError):
            block.add_block([[0.5]], [[bad]], [[1.0]])
        with pytest.raises(InvalidArmError):
            block.add_block([[0.2, 0.5]], np.array([[bad, bad]]), [[1.0, 1.0]])
        with pytest.raises(InvalidArmError):
            block.add_block([[0.2, 0.5]], [[1, bad]], [[1.0, 1.0]])  # mixed with a valid int
        assert len(rows) == 0 and not block.n.any() and not block.G.any()

    def test_integral_arms_of_any_numeric_type_accepted(self):
        # append takes numpy integers and integral floats as the int arm
        rows = DataBatch(3)
        arms = (1, 2.0, np.int64(3), np.float32(1.0), np.uint8(2), np.float64(3.0), np.int32(1))
        for x, a in zip([0.5] * 5 + [0.1, 0.2], arms):
            rows.append(x, a, 1.0)
        # rows 1..7 go to arms 1, 2, 3, 1, 2, 3, 1
        assert [len(rows.arm_rows(a)[1]) for a in (1, 2, 3)] == [3, 2, 2]
        assert rows.arm_rows(1)[0][:, 1].tolist() == [0.5, 0.5, 0.2]
        assert rows.arm_rows(3)[0][:, 1].tolist() == [0.5, 0.1]
        wide = DataBatch(2, 3)
        wide.append([0.1, 0.2, 0.3], np.int16(2), 1.0)
        wide.append(np.array([0.4, 0.5, 0.6]), 1.0, 2.0)
        assert wide.moments()[3].tolist() == [1, 1]
        assert wide.arm_rows(2)[0].tolist() == [[1.0, 0.1, 0.2, 0.3]]


class TestMixedFiling:
    """Rows appended one at a time, in any order of arms."""

    @pytest.mark.parametrize("dim, x, a, r, error", [
        (1, 0.7, 1, "abc", ValueError),                 # a reward that is no number
        (3, [0.1, 0.2, 0.3], 2, "abc", ValueError),
        (3, [0.1, 0.2], 1, 1.0, ValueError),            # d - 1 values at d = 3
        (3, [0.1, 0.2, 0.3, 0.4], 2, 1.0, ValueError),  # d + 1 values
        (3, [[0.1, 0.2, 0.3]], 1, 1.0, ValueError),     # (1, d) for (d,)
        (1, 0.7, 3, 1.0, InvalidArmError),
    ], ids=["reward_d1", "reward_d3", "short_context_d3", "long_context_d3",
            "column_context_d3", "arm_out_of_range"])
    def test_failed_append_stores_nothing(self, dim, x, a, r, error):
        b = DataBatch(2, dim)
        b.append(0.5 if dim == 1 else [0.5] * dim, 1, 1.0)
        for arm, reward in zip([2, 1, 2], [0.0, 1.0, 2.0]):
            b.append(0.25 if dim == 1 else [0.25] * dim, arm, reward)
        before = [b.arm_rows(arm) for arm in (1, 2)]
        with pytest.raises(error):
            b.append(x, a, r)
        assert len(b) == 4
        for (Pb, rb), (Pa, ra) in zip(before, [b.arm_rows(arm) for arm in (1, 2)]):
            assert Pb.tobytes() == Pa.tobytes() and rb.tobytes() == ra.tobytes()
        assert b.moments()[3].tolist() == [2, 2]
        b.append(0.5 if dim == 1 else [0.5] * dim, 2, 3.0)  # the batch takes rows again
        assert len(b) == 5 and b.arm_rows(2)[1].tolist() == [0.0, 2.0, 3.0]

    @pytest.mark.parametrize("rows, arm", [
        ([(0.5, 1, 1.0), (1e200, 2, 1.0)], 2),             # x^2 in G
        ([(0.5, 1, 1e200), (0.25, 2, 1.0)], 1),            # r^2 in yy
        ([(0.5, 2, 1e154), (0.25, 2, 1e154)], 2),          # finite squares, their sum not
    ], ids=["context", "reward", "sum"])
    def test_overflowing_moments_raise(self, rows, arm):
        b = batch(rows, num_arms=2)
        with pytest.raises(FloatingPointError, match=f"arm {arm}'s moments .* overflow"):
            b.moments()
        with pytest.raises(FloatingPointError):
            fit_ols(b)


class TestSse:
    """The row-by-row reference and the oracle's moment form on small cases."""

    def test_interpolating_model_zero(self):
        model = fit_ols(batch([(0.0, 1, 0.0), (1.0, 1, 1.0)]))
        b = batch([(0.0, 1, 0.0), (1.0, 1, 1.0)])
        assert sse(model, b) == pytest.approx(0.0, abs=1e-20)
        assert _moment_nsse(model, b) == pytest.approx(0.0, abs=1e-15)

    def test_zero_model_unit_residual(self):
        b = batch([(0.3, 1, 1.0)])
        assert sse(zero_model(1), b) == pytest.approx(1.0)
        assert _moment_nsse(zero_model(1), b) == pytest.approx(1.0)

    def test_normalization(self):
        b = batch([(0.1, 1, 1.0), (0.9, 1, 1.0), (0.4, 1, 1.0)])
        model = zero_model(1)
        assert normalized_sse(model, b) == pytest.approx(sse(model, b) / 3)
        assert _moment_nsse(model, b) == pytest.approx(sse(model, b) / 3)

    def test_empty_batch(self):
        assert sse(zero_model(1), batch([])) == 0.0
        assert normalized_sse(zero_model(1), batch([])) == 0.0
        assert _moment_nsse(zero_model(1), batch([])) == 0.0


class TestFitWeighted:
    def test_lambda_zero_equals_active_ols(self):
        act, pas = batch(ACTIVE), batch(PASSIVE)
        np.testing.assert_allclose(fit_weighted(act, pas, 0.0).weights,
                                   fit_ols(act).weights, atol=1e-10)

    def test_lambda_huge_equals_passive_ols(self):
        act, pas = batch(ACTIVE), batch(PASSIVE)
        np.testing.assert_allclose(fit_weighted(act, pas, 1e12).weights,
                                   fit_ols(pas).weights, atol=1e-4)

    @given(lam=st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_active_equals_passive_reduces_to_ols(self, lam):
        act = batch([(0.1, 1, 0.2), (0.6, 1, 0.9), (0.9, 1, 0.1)])
        pas = batch([(0.1, 1, 0.2), (0.6, 1, 0.9), (0.9, 1, 0.1)])
        np.testing.assert_allclose(fit_weighted(act, pas, lam).weights,
                                   fit_ols(act).weights, atol=1e-8)

    def test_empty_active_rejected(self):
        with pytest.raises(ValueError):
            fit_weighted(batch([]), batch(PASSIVE), 1.0)


class TestConstrainedFit:
    def test_worked_example_against_grid_oracle(self):
        act, pas = batch(ACTIVE), batch(PASSIVE)
        model, report = constrained_fit(act, ConstraintSpec(pas, 0.25), tol=1e-6)
        # grid oracle: exhaustive search over (intercept, slope) in [-2,2]^2
        w0, w1, obj = grid_search_constrained(
            [(x, r) for x, _, r in ACTIVE], [(x, r) for x, _, r in PASSIVE], 0.25)
        assert abs(model.weights[0, 0] - w0) < 1e-3
        assert abs(model.weights[0, 1] - w1) < 1e-3
        assert normalized_sse(model, act) == pytest.approx(obj, abs=1e-2)
        # the constraint is active: passive error sits at alpha + slack
        assert normalized_sse(model, pas) == pytest.approx(0.25, abs=1e-6)
        assert report.lam > 0

    def test_huge_slack_returns_unconstrained(self):
        act, pas = batch(ACTIVE), batch(PASSIVE)
        model, report = constrained_fit(act, ConstraintSpec(pas, 1e6))
        assert report.lam == 0.0
        np.testing.assert_allclose(model.weights, fit_ols(act).weights, atol=1e-10)

    def test_active_equals_passive_is_feasible(self):
        act = batch(ACTIVE)
        model, report = constrained_fit(act, ConstraintSpec(batch(ACTIVE), 0.05))
        assert report.lam == 0.0
        np.testing.assert_allclose(model.weights, fit_ols(act).weights, atol=1e-10)

    def test_nonpositive_slack_rejected(self):
        with pytest.raises(InfeasibleConstraintError):
            constrained_fit(batch(ACTIVE), ConstraintSpec(batch(PASSIVE), 0.0))

    def test_lambda_cap_raises_nonconvergence(self, monkeypatch):
        act, pas = batch(ACTIVE), batch(PASSIVE)
        monkeypatch.setattr(linmodel, "LAMBDA_MAX", 4.0)
        with pytest.raises(DualNonConvergenceError):
            constrained_fit(act, ConstraintSpec(pas, 1e-9))

    def test_random_instances_feasible_and_optimal(self):
        rng = np.random.default_rng(21)
        tol = 1e-6
        for _ in range(10):
            act, pas, slack = random_instance(rng)
            model, report = constrained_fit(act, ConstraintSpec(pas, slack), tol=tol)
            alpha = report.alpha
            # feasibility
            assert normalized_sse(model, pas) <= alpha + slack + tol
            # complementary slackness
            assert report.lam <= tol or abs(report.constraint_residual) <= tol
            # exact primal recovery from the reported multiplier
            again = fit_weighted(act, pas, report.lam)
            assert np.array_equal(again.weights, model.weights)

    def test_dual_is_concave_along_lambda(self):
        act, pas = batch(ACTIVE), batch(PASSIVE)
        alpha = ConstraintSpec(pas, 0.25).alpha()
        lams = np.linspace(0.0, 6.0, 61)
        g = []
        for lam in lams:
            m = fit_weighted(act, pas, lam)
            g.append(normalized_sse(m, act) + lam * (normalized_sse(m, pas) - alpha - 0.25))
        second = np.diff(g, 2)
        assert second.max() <= 1e-9

    def test_matches_grid_oracle_on_random_instances(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            act, pas, slack = random_instance(rng, n_active=6, n_passive=6)
            model, report = constrained_fit(act, ConstraintSpec(pas, slack), tol=1e-6)
            (Pa, ra), (Pp, rp) = act.arm_rows(1), pas.arm_rows(1)
            w0, w1, obj = grid_search_constrained(
                list(zip(Pa[:, 1].tolist(), ra.tolist())),
                list(zip(Pp[:, 1].tolist(), rp.tolist())), slack)
            assert normalized_sse(model, act) <= obj + 1e-2

    def test_alpha_recomputed_not_stale(self):
        pas = batch(PASSIVE)
        cons = ConstraintSpec(pas, 0.25)
        first = cons.alpha()
        pas.append(0.5, 1, 3.0)  # distort the batch after building the spec
        assert cons.alpha() != pytest.approx(first)


class TestGridOracle:
    """The column-wise grid oracle against the dense grid it replaces, on
    coarse grids: the same (w0, w1, objective) bits, ties included."""

    @staticmethod
    def assert_same(active_rows, passive_rows, slack, step):
        fast = grid_search_constrained(active_rows, passive_rows, slack, step=step)
        dense = grid_search_constrained_dense(active_rows, passive_rows, slack, step=step)
        assert np.array(fast).tobytes() == np.array(dense).tobytes(), (fast, dense)

    def test_criterion_3_instances(self):
        # the 50 instances of acceptance criterion 3, drawn the same way
        rng = np.random.default_rng(5)
        for _ in range(50):
            wa, wp = rng.uniform(-0.75, 0.75, 2), rng.uniform(-0.75, 0.75, 2)
            act, pas = [], []
            for _ in range(10):
                xa, xp = rng.random(), rng.random()
                act.append((xa, float(wa[0] + wa[1] * xa + 0.05 * rng.standard_normal())))
                pas.append((xp, float(wp[0] + wp[1] * xp + 0.05 * rng.standard_normal())))
            self.assert_same(act, pas, float(rng.uniform(0.02, 0.3)), step=1e-2)

    @pytest.mark.parametrize("step", [0.5, 0.25, 0.125])
    def test_dyadic_instances_with_ties(self, step):
        # dyadic data on a dyadic grid: many surfaces have tied minima and
        # columns with no feasible row
        rng = np.random.default_rng(int(8 * step))
        for _ in range(150):
            act, pas = ([(int(rng.integers(0, 5)) / 4, int(rng.integers(-8, 9)) / 8)
                         for _ in range(int(rng.integers(1, 6)))] for _ in range(2))
            self.assert_same(act, pas, int(rng.integers(0, 9)) / 16, step)

    def test_wide_ties_down_a_column(self):
        # rewards of mean 0 and variance ~1e16: the variance term absorbs
        # most of the square, so many rows of a column tie at its minimum
        rng = np.random.default_rng(3)
        for _ in range(40):
            rows = [[(int(rng.integers(0, 5)) / 4, y) for y in (v, -v)]
                    for v in 1e8 * rng.integers(1, 9, size=2)]
            self.assert_same(rows[0], rows[1], 0.5, step=0.125)

    def test_worked_example(self):
        self.assert_same([(x, r) for x, _, r in ACTIVE], [(x, r) for x, _, r in PASSIVE],
                         0.25, step=1e-2)


def shaped_rows(rng, pyrng, num_arms, dim=1, n=12):
    """Rows for each arm, each arm drawn as empty, a single row (fewer rows
    than parameters), a repeated context (a collinear, rank-deficient
    design) or a general design."""
    rows = []
    for arm in range(1, num_arms + 1):
        shape = pyrng.choice(["empty", "single", "repeated", "general"])
        count = {"empty": 0, "single": 1}.get(shape, n)
        xs = rng.random((count, dim))
        if shape == "repeated":
            xs[:] = xs[0]
        for x in xs:
            context = float(x[0]) if dim == 1 else x
            rows.append((context, arm, float(rng.standard_normal())))
    pyrng.shuffle(rows)
    return rows


class TestMomentStore:
    """Running moments summed in round order: whatever the split of the
    same rows into blocks, each replication's sums have the bits of the
    per-row Python fold."""

    @pytest.mark.parametrize("ridge", [0.0, 0.3], ids=["zero", "ridge"])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("K", [2, 9, 130])
    @pytest.mark.parametrize("R", [1, 3, 16])
    def test_any_split_folds_like_the_round_order_reference(self, R, K, dim, ridge):
        rng = np.random.default_rng([R, K, dim, int(10 * ridge)])
        n = 3 * K
        shape = (R, n) if dim == 1 else (R, n, dim)
        # values over six decades, so that the order of each sum shows in its bits
        xs = rng.random(shape) * 10.0 ** rng.integers(-3, 4, shape)
        arms = rng.integers(1, K + 1, (R, n))
        rewards = rng.normal(size=(R, n)) * 10.0 ** rng.integers(-3, 4, (R, n))
        want = [fold_rows(zip(xs[r], arms[r], rewards[r]), K, dim, ridge) for r in range(R)]
        splits = [[], np.arange(1, n), *(np.sort(rng.integers(0, n + 1, k)) for k in (3, 9))]
        for cuts in splits:  # one block, one-row blocks, and random ones, some empty
            store = MomentStore(R, K, dim)
            store.G[:] = ridge * np.eye(dim + 1)
            for lo, hi in zip([0, *cuts], [*cuts, n]):
                store.add_block(xs[:, lo:hi], arms[:, lo:hi], rewards[:, lo:hi])
            for r in range(R):
                for got, ref in zip((store.G[r], store.b[r], store.yy[r], store.n[r]), want[r]):
                    assert got.tobytes() == ref.tobytes()

    def test_replications_read_as_batches(self):
        # a replication's view is a copy, fitted like the batch of its rows
        act, pas = MomentStore(2, 1), MomentStore(2, 1)
        for store, rows in ((act, ACTIVE), (pas, PASSIVE)):
            xs, arms, rewards = (np.array([col, col]) for col in zip(*rows))
            store.add_block(xs, arms, rewards)
        views = act.replication(1), pas.replication(1)
        act.add_block([[0.5], [0.5]], [[1], [1]], [[9.0], [9.0]])
        assert len(views[0]) == 2 and views[0].num_arms == 1 and views[0].context_dim == 1
        assert views[0].moments()[3].tolist() == [2] and act.n.tolist() == [[3], [3]]
        model, report = constrained_fit(views[0], ConstraintSpec(views[1], 0.25))
        want, want_report = constrained_fit(batch(ACTIVE), ConstraintSpec(batch(PASSIVE), 0.25))
        assert report.lam > 0 and report.lam == pytest.approx(want_report.lam, rel=1e-9)
        np.testing.assert_allclose(model.weights, want.weights, rtol=1e-9)
        assert fit_weighted(*views, report.lam).weights.tobytes() == model.weights.tobytes()

    @pytest.mark.parametrize("rows, arm", [
        ([(0.5, 1, 1.0), (1e200, 2, 1.0)], 2),             # x^2 in G
        ([(0.5, 1, 1e200), (0.25, 2, 1.0)], 1),            # r^2 in yy
        ([(0.5, 2, 1e154), (0.25, 2, 1e154)], 2),          # finite squares, their sum not
    ], ids=["context", "reward", "sum"])
    def test_overflowing_moments_raise_when_a_replication_is_read(self, rows, arm):
        store = MomentStore(1, 2)
        xs, arms, rewards = (np.array([col]) for col in zip(*rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            store.add_block(xs, arms, rewards)
            with pytest.raises(FloatingPointError, match=f"arm {arm}'s moments .* overflow"):
                store.replication(0)


class TestBisectionStop:
    def test_adjacent_float_endpoints_stop_the_bisection(self, monkeypatch):
        # epoch 2 of this run has one passive row and a rank-deficient arm:
        # the residual jumps across zero between two adjacent floats, so no
        # multiplier meets tol.  Bisection used to run all 400 steps (402
        # weighted fits), refitting an endpoint after it reached these values.
        reports, fit = [], linmodel.constrained_fit
        monkeypatch.setattr(falcon, "constrained_fit",
                            lambda *a, **k: reports.append(fit(*a, **k)) or reports[-1])
        config = RunConfig(env=EnvSpec(kind="sensitivity_family", theta=0.05),
                           horizon=512, c1=1e-4)
        events = run_many(config, [0])[0].events
        model, report = reports[1]
        assert events[1].m == 2 and not events[1].converged and not report.converged
        assert report.lam == float.fromhex("0x1.30fa6e472428ep-27")  # 8.876e-09
        assert report.constraint_residual == pytest.approx(-0.0024695144415607623, rel=1e-9)
        np.testing.assert_allclose(
            model.weights, [[-0.30675192342010454, 1.2683892213445318],
                            [1.2368311547978204, -1.2095233289953249]], rtol=1e-12)
        assert report.n_weighted_fits < 100
        assert [ev.converged for ev in events] == [True, False] + [True] * 6


class TestMomentLayer:
    @given(st.randoms(use_true_random=False), st.integers(0, 40), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_moment_sse_matches_row_sse(self, pyrng, n, noisy):
        """The oracle's moment-form normalized SSE equals the row-by-row one
        within 1e-12 relative plus 1e-15 absolute.  The absolute part is in
        units of s, the summed magnitudes of the terms the moment form
        cancels: s is O(1) on unit-scale data and grows only when a
        near-collinear arm design gives large, mutually cancelling weights.
        Noise-free batches are fitted exactly, where the clamp at 0 acts."""
        rng = np.random.default_rng(pyrng.randrange(2**32))
        truth = rng.uniform(-1, 1, (2, 2))
        xs, arms = rng.random(n), rng.integers(1, 3, n)
        ys = truth[arms - 1, 0] + truth[arms - 1, 1] * xs
        if noisy:
            ys = ys + 0.1 * rng.standard_normal(n)
        b = batch(list(zip(xs.tolist(), arms.tolist(), ys.tolist())), num_arms=2)
        G, bvec, yy, _ = b.moments()
        for model in (fit_ols(b), LinearModel(rng.uniform(-1, 1, (2, 2)))):
            row, got = normalized_sse(model, b), _moment_nsse(model, b)
            A = np.abs(model.weights)
            s = (np.einsum("ai,aij,aj->", A, np.abs(G), A)
                 + 2 * np.einsum("ai,ai->", A, np.abs(bvec)) + yy.sum()) / max(n, 1)
            assert got >= 0.0
            assert abs(got - row) <= 1e-12 * row + 1e-15 * s

    def test_clamp_on_exact_interpolation(self):
        # noise-free points on one line: the unclamped moment sum of the
        # exact fit rounds to about -1e-16 here
        b = batch([(0.0, 1, 0.3), (0.1, 1, 0.37), (0.6, 1, 0.72)])
        alpha = ConstraintSpec(b, 0.1).alpha()
        assert 0.0 <= alpha <= 1e-15

    @given(st.randoms(use_true_random=False), st.integers(1, 5), st.integers(1, 3),
           st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_fits_bit_equal_row_rebuild_reference(self, pyrng, K, dim, lam):
        """The fits solve all arms as one stack; the reference solves arm by
        arm.  Same bits and ridge flag for every mix of arm shapes."""
        rng = np.random.default_rng(pyrng.randrange(2**32))
        act_rows, pas_rows = (shaped_rows(rng, pyrng, K, dim) for _ in range(2))
        act, pas = batch(act_rows, K, dim), batch(pas_rows, K, dim)
        cases = [(fit_ols(act), [(act_rows, 1.0)]), (fit_ols(pas), [(pas_rows, 1.0)])]
        if len(act) and len(pas):
            cases.append((fit_weighted(act, pas, lam),
                          [(act_rows, 1.0 / len(act)), (pas_rows, lam / len(pas))]))
        for model, parts in cases:
            weights, ridge = fit_rowweighted_rows(parts, K, dim)
            assert model.weights.tobytes() == weights.tobytes()
            assert model.ridge_fallback == ridge

    def test_each_batch_folded_once_per_constrained_fit(self, monkeypatch):
        calls = Counter()
        original = DataBatch.arm_rows

        def spy(self, a):
            calls[id(self), a] += 1
            return original(self, a)

        monkeypatch.setattr(DataBatch, "arm_rows", spy)
        act = batch(ACTIVE + [(0.5, 2, 0.3), (0.7, 2, 0.1)], num_arms=2)
        pas = batch(PASSIVE + [(0.2, 2, 0.4), (0.9, 2, 0.8)], num_arms=2)
        _, report = constrained_fit(act, ConstraintSpec(pas, 0.25))
        assert report.lam > 0 and report.n_weighted_fits >= 10
        assert calls == Counter({(id(b), a): 1 for b in (act, pas) for a in (1, 2)})

    def test_append_after_fit_refolds(self):
        act, pas = batch(ACTIVE), batch(PASSIVE)
        cons = ConstraintSpec(pas, 0.25)
        constrained_fit(act, cons)
        before = cons.alpha()
        pas.append(0.5, 1, 3.0)
        act.append(0.5, 1, 0.5)
        assert cons.alpha() != pytest.approx(before)
        assert cons.alpha() == ConstraintSpec(batch(PASSIVE + [(0.5, 1, 3.0)]), 0.25).alpha()
        assert np.array_equal(fit_ols(act).weights,
                              fit_ols(batch(ACTIVE + [(0.5, 1, 0.5)])).weights)

    @pytest.mark.parametrize("rows", [
        [(0.1, 1, 1.0), (0.5, 1, float("nan")), (0.9, 1, 0.3)],
        [(0.1, 1, 1.0), (float("inf"), 1, 0.5), (0.9, 1, 0.3)],
    ], ids=["nan_reward", "inf_context"])
    def test_non_finite_rows_rejected(self, rows):
        b = batch(rows)  # appends stay unchecked; the fold rejects
        with pytest.raises(FloatingPointError, match="1 of 3 rows"):
            fit_ols(b)
        with pytest.raises(FloatingPointError):
            constrained_fit(batch(ACTIVE), ConstraintSpec(b, 0.25))


    @pytest.mark.parametrize("dim", [1, 3])
    def test_arm_without_rows_folds_to_zero(self, dim):
        b = DataBatch(3, dim)
        for x, a, r in zip(np.random.default_rng(dim).random((4, dim)), [1, 3, 3, 1],
                           [1, 2, 3, 4]):
            b.append(x[0] if dim == 1 else x, a, r)
        Phi, r = b.arm_rows(2)
        assert Phi.shape == (0, dim + 1) and r.shape == (0,)
        G, bvec, yy, n = b.moments()
        assert not G[1].any() and not bvec[1].any() and yy[1] == 0.0 and n[1] == 0
        assert n.tolist() == [2, 0, 2] and yy[[0, 2]].tolist() == [17.0, 13.0]
        assert DataBatch(2, dim).arm_rows(1)[0].shape == (0, dim + 1)

    def test_non_finite_second_context_column_rejected(self):
        b = DataBatch(2, 2)
        for x, a, r in zip([[0.1, 0.2], [0.3, float("nan")], [float("-inf"), 0.5]], [1, 2, 1],
                           [0.0, 1.0, 2.0]):
            b.append(x, a, r)
        with pytest.raises(FloatingPointError, match="2 of 3 rows"):
            b.moments()


class TestFeaturize:
    def test_scalar_contexts(self):
        Phi = featurize([0.2, 0.7], 1)
        np.testing.assert_allclose(Phi, [[1.0, 0.2], [1.0, 0.7]])

    def test_vector_contexts(self):
        Phi = featurize(np.array([[0.2, 0.3]]), 2)
        np.testing.assert_allclose(Phi, [[1.0, 0.2, 0.3]])

    @pytest.mark.parametrize("dim", [1, 3])
    def test_leading_axes_equal_flat_rows(self, dim):
        # (R, n) or (R, n, d) contexts give the rows of their flattened (R * n) batch
        xs = np.random.default_rng(0).random((2, 5) if dim == 1 else (2, 5, dim))
        Phi = featurize(xs, dim)
        assert Phi.shape == (2, 5, dim + 1)
        flat = featurize(xs.reshape(10, *xs.shape[2:]), dim)
        assert Phi.reshape(10, dim + 1).tobytes() == flat.tobytes()
