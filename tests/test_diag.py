import math

import numpy as np
import pytest

from banditlab.diag import (MCEstimate, RunArtifacts, constant_policy,
                            decisional_divergence, induced_policy,
                            kernel_estimated_regret, kernel_true_regret, lemma_suite,
                            mean_model_gap, model_mse, optimal_policy, policy_regret,
                            policy_value)
from banditlab.env import (EnvSpec, approximation_error_b, best_linear_fit_uniform,
                           worst_case_error_B)
from banditlab.falcon import igw_kernel
from banditlab.harness import RunConfig, run_many, run_one
from banditlab.linmodel import LinearModel

from oracles import lemma_suite_independent

STEP = EnvSpec(kind="step_function")
SENS = EnvSpec(kind="sensitivity_family", theta=0.05)

# exact regret of the always-arm-1 policy on the theta=0.05 family:
# integral of (1 + m*x - 0.1) over (0, 1-theta) with m = -0.7785
ALWAYS_ARM1_REGRET = 0.9 * 0.95 + (-0.7785) * 0.95**2 / 2


def uniform_kernel(K):
    def fn(xs):
        return np.full((np.shape(xs)[0], K), 1.0 / K)
    return fn


class TestPolicyValue:
    def test_constant_arm2_on_step(self):
        est = policy_value(STEP, constant_policy(2, 2), STEP, 20_000, rng=0)
        assert est.value == pytest.approx(0.5, abs=1e-12)  # constant reward

    def test_optimal_on_step(self):
        est = policy_value(STEP, optimal_policy(STEP), STEP, 100_000, rng=1)
        assert abs(est.value - 0.75) <= 3 * est.se

    def test_zero_model_gives_zero(self):
        zero = LinearModel.zeros(2)
        est = policy_value(STEP, optimal_policy(STEP), zero, 10_000, rng=2)
        assert est.value == 0.0

    def test_reports_standard_error(self):
        est = policy_value(STEP, optimal_policy(STEP), STEP, 10_000, rng=3)
        assert isinstance(est, MCEstimate)
        assert 0 < est.se < 0.01


class TestPolicyRegret:
    def test_self_regret_zero(self):
        fit = best_linear_fit_uniform(STEP)
        est = policy_regret(STEP, induced_policy(fit), fit, 20_000, rng=4)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_always_arm1_high_regret(self):
        est = policy_regret(SENS, constant_policy(1, 2), SENS, 100_000, rng=5)
        assert abs(est.value - ALWAYS_ARM1_REGRET) <= 4 * est.se
        assert est.value >= 0.4275 - 3 * est.se

    def test_best_fit_policy_zero_regret_on_sensitivity(self):
        pi = induced_policy(best_linear_fit_uniform(SENS))
        est = policy_regret(SENS, pi, SENS, 100_000, rng=6)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_consistency_with_policy_values(self):
        pi = constant_policy(2, 2)
        fit = best_linear_fit_uniform(STEP)
        reg = policy_regret(STEP, pi, fit, 50_000, rng=7)
        v_best = policy_value(STEP, induced_policy(fit), fit, 50_000, rng=8)
        v_pi = policy_value(STEP, pi, fit, 50_000, rng=9)
        spread = 3 * math.sqrt(reg.se**2 + v_best.se**2 + v_pi.se**2)
        assert abs(reg.value - (v_best.value - v_pi.value)) <= spread


class TestDecisionalDivergence:
    def test_uniform_kernel_gives_K(self):
        est = decisional_divergence(STEP, uniform_kernel(2), constant_policy(1, 2),
                                    10_000, rng=10)
        assert est.value == pytest.approx(2.0, abs=1e-12)

    def test_self_policy_at_most_K(self):
        rng = np.random.default_rng(11)
        spec = EnvSpec(kind="realizable_linear", num_arms=3, seed=1)
        for _ in range(5):
            model = LinearModel(rng.uniform(0, 1, (3, 2)))
            gamma = float(rng.uniform(0.5, 50))
            est = decisional_divergence(
                spec, lambda xs, m=model, g=gamma: igw_kernel(m.predict_matrix(xs), g),
                induced_policy(model), 20_000, rng=12)
            assert est.value <= 3.0 + 3 * est.se

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(13)
        spec = EnvSpec(kind="realizable_linear", num_arms=2, seed=2)
        for _ in range(5):
            model = LinearModel(rng.uniform(0, 1, (2, 2)))
            target = LinearModel(rng.uniform(0, 1, (2, 2)))
            gamma = float(rng.uniform(0.5, 30))
            pi = induced_policy(target)
            kernel_fn = lambda xs, m=model, g=gamma: igw_kernel(m.predict_matrix(xs), g)
            V = decisional_divergence(spec, kernel_fn, pi, 50_000, rng=14)
            gap = mean_model_gap(spec, model, pi, 50_000, rng=15)
            band = 3 * math.hypot(V.se, gamma * gap.se)
            assert gamma * gap.value - band <= V.value <= 2 + gamma * gap.value + band

    def test_zero_probability_raises(self):
        def degenerate(xs):
            probs = np.zeros((np.shape(xs)[0], 2))
            probs[:, 0] = 1.0
            return probs
        with pytest.raises(ZeroDivisionError):
            decisional_divergence(STEP, degenerate, constant_policy(2, 2), 100, rng=16)


class TestModelMse:
    def test_identical_surfaces(self):
        fit = best_linear_fit_uniform(STEP)
        assert model_mse(fit, fit, STEP, "uniform", 10_000, rng=17).value == 0.0

    def test_matches_approximation_error(self):
        est = model_mse(best_linear_fit_uniform(SENS), SENS, SENS, "uniform",
                        200_000, rng=18)
        b = approximation_error_b(SENS, 200_000, rng=19)
        assert abs(est.value - b.closed_form) <= 4 * est.se

    def test_constant_offset(self):
        zero = LinearModel.zeros(2)
        c = LinearModel(np.array([[0.3, 0.0], [0.3, 0.0]]))
        est = model_mse(zero, c, STEP, "uniform", 1_000, rng=20)
        assert est.value == pytest.approx(0.09, abs=1e-12)

    def test_kernel_weighting(self):
        zero = LinearModel.zeros(2)
        unequal = LinearModel(np.array([[1.0, 0.0], [0.0, 0.0]]))
        # kernel that always plays arm 1: mse should be arm-1's squared gap
        def arm1_kernel(xs):
            probs = np.zeros((np.shape(xs)[0], 2))
            probs[:, 0] = 1.0
            return probs
        est = model_mse(zero, unequal, STEP, arm1_kernel, 1_000, rng=21)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_bad_sampling_arg(self):
        with pytest.raises(ValueError):
            model_mse(LinearModel.zeros(2), LinearModel.zeros(2), STEP, "exotic", 100)


class TestKernelEstimatedRegret:
    def test_bounded_by_K_over_gamma(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            model = LinearModel(rng.uniform(0, 1, (2, 2)))
            gamma = float(rng.uniform(0.5, 100))
            est = kernel_estimated_regret(STEP, model, gamma, 5_000, rng=23)
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
        best = best_linear_fit_uniform(SENS)
        mse_g = model_mse(res_g.artifacts.models[-1], best, SENS, "uniform",
                          50_000, rng=26)
        mse_p = model_mse(res_p.artifacts.models[-1], best, SENS, "uniform",
                          50_000, rng=26)
        assert mse_g.value < mse_p.value


class TestLemmaSuite:
    def test_realizable_trivial_bounds(self):
        spec = EnvSpec(kind="realizable_linear", seed=3)
        arts = RunArtifacts(spec, [LinearModel.zeros(2)], [1.0])
        checks = lemma_suite(arts, num_mc=5_000, rng=24)
        assert all(c.passed for c in checks)

    def test_realizable_monte_carlo_errors_exactly_zero(self):
        # the best fit is the truth, and both are predicted row by row, in the
        # suite and in a run's diagnostics pass
        spec = EnvSpec(kind="realizable_linear", num_arms=3, context_dim=3, seed=3)
        reports = [lemma_suite(RunArtifacts(spec, [LinearModel.zeros(3, 3)], [1.0]), rng=24),
                   run_one(RunConfig(env=spec, horizon=40, mc_samples=20_000), 2).lemma_report]
        for report in reports:
            b, B = (next(c.lhs for c in report if c.name == name)
                    for name in ("error_ordering_lower", "error_ordering_upper"))
            assert b == B == 0.0

    def test_sensitivity_run_snapshot(self):
        fit = best_linear_fit_uniform(SENS)
        models = [LinearModel.zeros(2), fit, fit]
        arts = RunArtifacts(SENS, models, [1.0, 0.932, 1.2], epsilon=0.1)
        checks = lemma_suite(arts, num_mc=20_000, rng=25)
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
        arts = RunArtifacts(SENS, [LinearModel.zeros(2), bad], [1.0, 1e6],
                            epsilon=0.1)
        checks = lemma_suite(arts, num_mc=5_000, rng=27)
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
        # each public estimator, seeded like the suite, draws the suite's
        # one sample; its matrix helper must then give the row's value
        spec, n, seed = arts.spec, 3_000, 31
        checks = lemma_suite(arts, n, rng=seed)
        rows = {(c.name, c.epoch): c for c in checks}
        assert len(rows) == len(checks) == 3 + 4 * (len(arts.models) - 1)
        assert rows["error_ordering_lower", None].lhs == approximation_error_b(spec, n, seed).mc
        assert rows["error_ordering_upper", None].lhs == worst_case_error_B(spec, n, seed).mc
        pi_best = induced_policy(best_linear_fit_uniform(spec))
        assert rows["best_fit_policy_regret", None].lhs == \
            policy_regret(spec, pi_best, spec, n, seed).value
        K = spec.num_arms
        for m, (model, gamma) in enumerate(zip(arts.models, arts.gammas), start=1):
            if m == 1:
                continue
            kernel_fn = lambda xs, m=model, g=gamma: igw_kernel(m.predict_matrix(xs), g)
            est = kernel_estimated_regret(spec, model, gamma, n, seed)
            assert (rows["kernel_estimated_regret", m].lhs,
                    rows["kernel_estimated_regret", m].rhs) == (est.value, K / gamma + 3 * est.se)
            V = decisional_divergence(spec, kernel_fn, pi_best, n, seed)
            gap = mean_model_gap(spec, model, pi_best, n, seed)
            band = 3 * math.hypot(V.se, gamma * gap.se)
            assert (rows["divergence_sandwich", m].lhs, rows["divergence_sandwich", m].rhs) == \
                (V.value, K + gamma * gap.value + band)
            assert rows["divergence_self", m].lhs == \
                decisional_divergence(spec, kernel_fn, induced_policy(model), n, seed).value
            assert rows["true_regret_trend", m].lhs == \
                kernel_true_regret(spec, model, gamma, n, seed).value

    # The suite draws one context sample for all its checks; until it did,
    # each check drew its own.  Each check's lhs has the same distribution
    # either way, so over R suites a side on disjoint seeds, Welch's z on
    # each row's mean stays inside the bound.  Rows whose lhs is the same
    # on every run (zero variance on both sides) must agree exactly.
    SUITE_REPS, SUITE_Z_BOUND, SUITE_MC = 40, 4.0, 2_000

    def test_matches_independent_draw_suite_in_distribution(self):
        shared = [lemma_suite(FALCON_RUN_ARTS, self.SUITE_MC, rng=seed)
                  for seed in range(self.SUITE_REPS)]
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
