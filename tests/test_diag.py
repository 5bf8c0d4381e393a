import math

import numpy as np
import pytest

from banditlab.diag import (MCEstimate, RunArtifacts, divergence_from, error_estimates_from,
                            gaps_from, kernel_regret_from, lemma_suite, mean_at, mse_from)
from banditlab.env import (EnvSpec, best_linear_fit_uniform, closed_form_errors, draw_contexts,
                           mean_reward_matrix)
from banditlab.falcon import igw_kernel
from banditlab.harness import RunConfig, run_many, run_one
from banditlab.linmodel import LinearModel

from oracles import lemma_suite_independent, zero_model

STEP = EnvSpec(kind="step_function")
SENS = EnvSpec(kind="sensitivity_family", theta=0.05)

# exact regret of the always-arm-1 policy on the theta=0.05 family:
# integral of (1 + m*x - 0.1) over (0, 1-theta) with m = -0.7785
ALWAYS_ARM1_REGRET = 0.9 * 0.95 + (-0.7785) * 0.95**2 / 2


class TestPolicyValue:
    def test_constant_arm2_on_step(self):
        xs = draw_contexts(STEP, 20_000, 0)
        est = mean_at(mean_reward_matrix(STEP, xs), np.full(len(xs), 2))
        assert est.value == pytest.approx(0.5, abs=1e-12)  # constant reward

    def test_optimal_on_step(self):
        truth = mean_reward_matrix(STEP, draw_contexts(STEP, 100_000, 1))
        est = mean_at(truth, gaps_from(truth)[1] + 1)
        assert abs(est.value - 0.75) <= 3 * est.se

    def test_zero_model_gives_zero(self):
        xs = draw_contexts(STEP, 10_000, 2)
        optimal = gaps_from(mean_reward_matrix(STEP, xs))[1] + 1
        est = mean_at(zero_model(2).predict_matrix(xs), optimal)
        assert est.value == 0.0

    def test_reports_standard_error(self):
        truth = mean_reward_matrix(STEP, draw_contexts(STEP, 10_000, 3))
        est = mean_at(truth, gaps_from(truth)[1] + 1)
        assert isinstance(est, MCEstimate)
        assert 0 < est.se < 0.01


class TestPolicyRegret:
    def test_self_regret_zero(self):
        preds = best_linear_fit_uniform(STEP).predict_matrix(draw_contexts(STEP, 20_000, 4))
        gaps, best = gaps_from(preds)
        est = mean_at(gaps, best + 1)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_always_arm1_high_regret(self):
        xs = draw_contexts(SENS, 100_000, 5)
        est = mean_at(gaps_from(mean_reward_matrix(SENS, xs))[0], np.ones(len(xs), dtype=int))
        assert abs(est.value - ALWAYS_ARM1_REGRET) <= 4 * est.se
        assert est.value >= 0.4275 - 3 * est.se

    def test_best_fit_policy_zero_regret_on_sensitivity(self):
        xs = draw_contexts(SENS, 100_000, 6)
        est = mean_at(gaps_from(mean_reward_matrix(SENS, xs))[0],
                      gaps_from(best_linear_fit_uniform(SENS).predict_matrix(xs))[1] + 1)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_consistency_with_policy_values(self):
        # regret of always-arm-2 under the fit = the fit's value of its own
        # policy minus its value of always-arm-2, each on its own sample
        fit = best_linear_fit_uniform(STEP)
        preds = [fit.predict_matrix(draw_contexts(STEP, 50_000, seed)) for seed in (7, 8, 9)]
        arm2 = np.full(50_000, 2)
        reg = mean_at(gaps_from(preds[0])[0], arm2)
        v_best = mean_at(preds[1], gaps_from(preds[1])[1] + 1)
        v_pi = mean_at(preds[2], arm2)
        spread = 3 * math.sqrt(reg.se**2 + v_best.se**2 + v_pi.se**2)
        assert abs(reg.value - (v_best.value - v_pi.value)) <= spread


class TestDecisionalDivergence:
    def test_uniform_kernel_gives_K(self):
        xs = draw_contexts(STEP, 10_000, 10)
        est = divergence_from(np.full((len(xs), 2), 0.5), np.ones(len(xs), dtype=int))
        assert est.value == pytest.approx(2.0, abs=1e-12)

    def test_self_policy_at_most_K(self):
        rng = np.random.default_rng(11)
        spec = EnvSpec(kind="realizable_linear", num_arms=3, seed=1)
        for _ in range(5):
            model = LinearModel(rng.uniform(0, 1, (3, 2)))
            gamma = float(rng.uniform(0.5, 50))
            preds = model.predict_matrix(draw_contexts(spec, 20_000, 12))
            est = divergence_from(igw_kernel(preds, gamma), gaps_from(preds)[1] + 1)
            assert est.value <= 3.0 + 3 * est.se

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(13)
        spec = EnvSpec(kind="realizable_linear", num_arms=2, seed=2)
        for _ in range(5):
            model = LinearModel(rng.uniform(0, 1, (2, 2)))
            target = LinearModel(rng.uniform(0, 1, (2, 2)))
            gamma = float(rng.uniform(0.5, 30))
            xs = draw_contexts(spec, 50_000, 14)
            V = divergence_from(igw_kernel(model.predict_matrix(xs), gamma),
                                gaps_from(target.predict_matrix(xs))[1] + 1)
            xs = draw_contexts(spec, 50_000, 15)
            gap = mean_at(gaps_from(model.predict_matrix(xs))[0],
                          gaps_from(target.predict_matrix(xs))[1] + 1)
            band = 3 * math.hypot(V.se, gamma * gap.se)
            assert gamma * gap.value - band <= V.value <= 2 + gamma * gap.value + band

    def test_zero_probability_raises(self):
        def degenerate(xs):
            probs = np.zeros((np.shape(xs)[0], 2))
            probs[:, 0] = 1.0
            return probs
        with pytest.raises(ZeroDivisionError):
            divergence_from(degenerate(draw_contexts(STEP, 100, 16)), np.full(100, 2))


class TestModelMse:
    def test_identical_surfaces(self):
        preds = best_linear_fit_uniform(STEP).predict_matrix(draw_contexts(STEP, 10_000, 17))
        assert mse_from(preds, preds).value == 0.0

    def test_matches_approximation_error(self):
        xs = draw_contexts(SENS, 200_000, 18)
        est = mse_from(best_linear_fit_uniform(SENS).predict_matrix(xs),
                       mean_reward_matrix(SENS, xs))
        assert abs(est.value - closed_form_errors(SENS)[0]) <= 4 * est.se

    def test_constant_offset(self):
        xs = draw_contexts(STEP, 1_000, 20)
        c = LinearModel(np.array([[0.3, 0.0], [0.3, 0.0]]))
        est = mse_from(zero_model(2).predict_matrix(xs), c.predict_matrix(xs))
        assert est.value == pytest.approx(0.09, abs=1e-12)

    def test_kernel_weighting(self):
        xs = draw_contexts(STEP, 1_000, 21)
        unequal = LinearModel(np.array([[1.0, 0.0], [0.0, 0.0]]))
        # kernel that always plays arm 1: mse should be arm-1's squared gap
        probs = np.zeros((len(xs), 2))
        probs[:, 0] = 1.0
        est = mse_from(zero_model(2).predict_matrix(xs), unequal.predict_matrix(xs), probs)
        assert est.value == pytest.approx(1.0, abs=1e-12)


class TestKernelEstimatedRegret:
    def test_bounded_by_K_over_gamma(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            model = LinearModel(rng.uniform(0, 1, (2, 2)))
            gamma = float(rng.uniform(0.5, 100))
            preds = model.predict_matrix(draw_contexts(STEP, 5_000, 23))
            est = kernel_regret_from(igw_kernel(preds, gamma), gaps_from(preds)[0])
            assert est.value <= 2 / gamma + 3 * est.se


class TestModelDriftGuard:
    def test_guarded_final_model_closer_than_plain_at_50k(self):
        # matched seeds, horizon mid-epoch on purpose: the guarded agent's
        # last fitted model stays nearer the population fit than the
        # unconstrained variant's
        T = 50_000
        guarded = RunConfig(env=SENS, agent="epsilon_falcon", epsilon=0.1,
                            delta=0.1, horizon=T, mc_samples=5_000)
        plain = RunConfig(env=SENS, agent="falcon", delta=0.1, horizon=T,
                          mc_samples=5_000)
        res_g = run_many(guarded, [60])[0]
        res_p = run_many(plain, [60])[0]
        xs = draw_contexts(SENS, 50_000, 26)
        best = best_linear_fit_uniform(SENS).predict_matrix(xs)
        mse_g = mse_from(res_g.artifacts.models[-1].predict_matrix(xs), best)
        mse_p = mse_from(res_p.artifacts.models[-1].predict_matrix(xs), best)
        assert mse_g.value < mse_p.value


class TestLemmaSuite:
    def test_realizable_trivial_bounds(self):
        spec = EnvSpec(kind="realizable_linear", seed=3)
        arts = RunArtifacts(spec, [zero_model(2)], [1.0])
        xs = draw_contexts(spec, 5_000, 24)
        checks = lemma_suite(arts, xs, best_linear_fit_uniform(spec).predict_rows(xs))
        assert all(c.passed for c in checks)

    def test_realizable_monte_carlo_errors_exactly_zero(self):
        # the best fit is the truth, and both are predicted row by row, in the
        # suite and in a run's diagnostics pass
        spec = EnvSpec(kind="realizable_linear", num_arms=3, context_dim=3, seed=3)
        xs = draw_contexts(spec, 20_000, 24)
        reports = [lemma_suite(RunArtifacts(spec, [zero_model(3, 3)], [1.0]), xs,
                               best_linear_fit_uniform(spec).predict_rows(xs)),
                   run_one(RunConfig(env=spec, horizon=40, mc_samples=20_000), 2).lemma_report]
        for report in reports:
            b, B = (next(c.lhs for c in report if c.name == name)
                    for name in ("error_ordering_lower", "error_ordering_upper"))
            assert b == B == 0.0

    def test_sensitivity_run_snapshot(self):
        fit = best_linear_fit_uniform(SENS)
        models = [zero_model(2), fit, fit]
        arts = RunArtifacts(SENS, models, [1.0, 0.932, 1.2], epsilon=0.1)
        xs = draw_contexts(SENS, 20_000, 25)
        checks = lemma_suite(arts, xs, fit.predict_rows(xs))
        assert all(c.passed for c in checks)
        names = {c.name for c in checks}
        assert {"error_ordering_lower", "error_ordering_upper",
                "best_fit_policy_regret", "kernel_estimated_regret",
                "divergence_sandwich", "divergence_self",
                "true_regret_trend"} <= names

    def test_true_regret_trend_logged_never_failed(self):
        # unknown constants: the trend row reports a ratio but always passes,
        # even when the measured regret exceeds the reference value
        bad = LinearModel(np.array([[1.0, 0.0], [0.0, 0.0]]))  # backwards model
        arts = RunArtifacts(SENS, [zero_model(2), bad], [1.0, 1e6],
                            epsilon=0.1)
        xs = draw_contexts(SENS, 5_000, 27)
        checks = lemma_suite(arts, xs, best_linear_fit_uniform(SENS).predict_rows(xs))
        trend = [c for c in checks if c.name == "true_regret_trend"]
        assert len(trend) == 1
        assert trend[0].passed
        assert "logged only" in trend[0].note
        assert trend[0].lhs > trend[0].rhs  # regret above the trend reference


# Artifacts shaped like the benchmark's ``falcon_run`` (epsilon-FALCON,
# sensitivity family) at a small horizon, and a run with K = 3, d = 2.
FALCON_RUN_ARTS = run_many(RunConfig(env=SENS, horizon=512), [0])[0].artifacts
REAL_ARTS = run_many(RunConfig(env=EnvSpec(kind="realizable_linear", num_arms=3, context_dim=2,
                                           seed=4), horizon=300), [1])[0].artifacts


class TestSharedSampleSuite:
    @pytest.mark.parametrize("arts", [FALCON_RUN_ARTS, REAL_ARTS], ids=["sens", "real_k3_d2"])
    def test_rows_equal_public_estimators_on_the_same_contexts(self, arts):
        # each row is its estimator, a matrix helper, on the suite's one
        # sample, with the best-fit policy's arms from the fit's GEMM
        spec, n, seed = arts.spec, 3_000, 31
        xs = draw_contexts(spec, n, seed)
        fit, truth = best_linear_fit_uniform(spec), mean_reward_matrix(spec, xs)
        checks = lemma_suite(arts, xs, fit.predict_rows(xs))
        rows = {(c.name, c.epoch): c for c in checks}
        assert len(rows) == len(checks) == 3 + 4 * (len(arts.models) - 1)
        b, B = error_estimates_from(fit.predict_rows(xs), truth)
        assert (rows["error_ordering_lower", None].lhs,
                rows["error_ordering_upper", None].lhs) == (b.value, B.value)
        a_best = gaps_from(fit.predict_matrix(xs))[1] + 1
        assert rows["best_fit_policy_regret", None].lhs == \
            mean_at(gaps_from(truth)[0], a_best).value
        K = spec.num_arms
        for m, (model, gamma) in enumerate(zip(arts.models, arts.gammas), start=1):
            if m == 1:
                continue
            preds = model.predict_matrix(xs)
            probs = igw_kernel(preds, gamma)
            gaps, best = gaps_from(preds)
            est = kernel_regret_from(probs, gaps)
            assert (rows["kernel_estimated_regret", m].lhs,
                    rows["kernel_estimated_regret", m].rhs) == (est.value, K / gamma + 3 * est.se)
            V, gap = divergence_from(probs, a_best), mean_at(gaps, a_best)
            band = 3 * math.hypot(V.se, gamma * gap.se)
            assert (rows["divergence_sandwich", m].lhs, rows["divergence_sandwich", m].rhs) == \
                (V.value, K + gamma * gap.value + band)
            assert rows["divergence_self", m].lhs == divergence_from(probs, best + 1).value
            assert rows["true_regret_trend", m].lhs == \
                kernel_regret_from(probs, gaps_from(truth)[0]).value

    # The suite draws one context sample for all its checks; until it did,
    # each check drew its own.  Each check's lhs has the same distribution
    # either way, so over R suites a side on disjoint seeds, Welch's z on
    # each row's mean stays inside the bound.  Rows whose lhs is the same
    # on every run (zero variance on both sides) must agree exactly.
    SUITE_REPS, SUITE_Z_BOUND, SUITE_MC = 40, 4.0, 2_000

    def test_matches_independent_draw_suite_in_distribution(self):
        shared = []
        for seed in range(self.SUITE_REPS):
            xs = draw_contexts(SENS, self.SUITE_MC, seed)
            shared.append(lemma_suite(FALCON_RUN_ARTS, xs,
                                      best_linear_fit_uniform(SENS).predict_rows(xs)))
        independent = [lemma_suite_independent(FALCON_RUN_ARTS, self.SUITE_MC, rng=seed)
                       for seed in range(1000, 1000 + self.SUITE_REPS)]
        keys = [(c.name, c.epoch) for c in shared[0]]
        assert all([(c.name, c.epoch) for c in run] == keys for run in shared + independent)
        assert len(keys) == 3 + 4 * 7
        for i, key in enumerate(keys):
            a = np.array([run[i].lhs for run in shared])
            b = np.array([run[i].lhs for run in independent])
            var = a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b)
            if var == 0.0:
                assert a[0] == b[0], key
                continue
            z = (a.mean() - b.mean()) / math.sqrt(var)
            assert abs(z) < self.SUITE_Z_BOUND, (key, z, a.mean(), b.mean())
        assert all(c.passed for run in shared for c in run)
