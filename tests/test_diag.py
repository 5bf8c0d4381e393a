"""The diagnostics: Monte Carlo estimators (in the row-major reference
formulas of ``oracles``) and the inequality suite ``lemma_suite``, which
holds its matrices arm-major, against those formulas."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from banditlab import diag as diagmod
from banditlab.diag import MCEstimate, RunArtifacts, lemma_suite
from banditlab.env import (EnvSpec, best_linear_fit_uniform, closed_form_errors, draw_contexts,
                           make_generator, mean_reward_matrix)
from banditlab.falcon import arm_gaps
from banditlab.harness import RunConfig, run_lemmas, run_many, run_one
from banditlab.linmodel import LinearModel

from oracles import (divergence_from, error_estimates_from, gaps_from, lemma_suite_independent,
                     lemma_suite_rows, mean_at, mse_from, package_kernel_rows, predict_matrix,
                     run_lemmas_rows, zero_model)

STEP = EnvSpec(kind="step_function")
SENS = EnvSpec(kind="sensitivity_family", theta=0.05)

# exact regret of the always-arm-1 policy on the theta=0.05 family:
# integral of (1 + m*x - 0.1) over (0, 1-theta) with m = -0.7785
ALWAYS_ARM1_REGRET = 0.9 * 0.95 + (-0.7785) * 0.95**2 / 2


def suite(spec, models, gammas, xs, events=()):
    """``lemma_suite`` of a run with these per-epoch models, at ``xs``,
    as a dict by (name, epoch)."""
    checks = lemma_suite(RunArtifacts(spec, models, gammas, rho=1.0), xs, events)
    return {(c.name, c.epoch): c for c in checks}


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
        est = mean_at(predict_matrix(zero_model(2), xs), optimal)
        assert est.value == 0.0

    def test_reports_standard_error(self):
        truth = mean_reward_matrix(STEP, draw_contexts(STEP, 10_000, 3))
        est = mean_at(truth, gaps_from(truth)[1] + 1)
        assert isinstance(est, MCEstimate)
        assert 0 < est.se < 0.01


class TestPolicyRegret:
    def test_self_regret_zero(self):
        preds = predict_matrix(best_linear_fit_uniform(STEP), draw_contexts(STEP, 20_000, 4))
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
                      gaps_from(predict_matrix(best_linear_fit_uniform(SENS), xs))[1] + 1)
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_consistency_with_policy_values(self):
        # regret of always-arm-2 under the fit = the fit's value of its own
        # policy minus its value of always-arm-2, each on its own sample
        fit = best_linear_fit_uniform(STEP)
        preds = [predict_matrix(fit, draw_contexts(STEP, 50_000, seed)) for seed in (7, 8, 9)]
        arm2 = np.full(50_000, 2)
        reg = mean_at(gaps_from(preds[0])[0], arm2)
        v_best = mean_at(preds[1], gaps_from(preds[1])[1] + 1)
        v_pi = mean_at(preds[2], arm2)
        spread = 3 * math.sqrt(reg.se**2 + v_best.se**2 + v_pi.se**2)
        assert abs(reg.value - (v_best.value - v_pi.value)) <= spread


class TestDecisionalDivergence:
    def test_uniform_kernel_gives_K(self):
        # a model without gaps gets the uniform kernel: every arm has 1/K,
        # so both divergences read K exactly
        xs = draw_contexts(STEP, 10_000, 10)
        rows = suite(STEP, [zero_model(2), zero_model(2)], [1.0, 5.0], xs)
        assert rows["divergence_self", 2].lhs == rows["divergence_sandwich", 2].lhs == 2.0

    def test_self_policy_at_most_K(self):
        rng = np.random.default_rng(11)
        spec = EnvSpec(kind="realizable_linear", num_arms=3, seed=1)
        models = [LinearModel(rng.uniform(0, 1, (3, 2))) for _ in range(5)]
        gammas = [float(rng.uniform(0.5, 50)) for _ in range(5)]
        rows = suite(spec, [zero_model(3), *models], [1.0, *gammas],
                     draw_contexts(spec, 20_000, 12))
        for m in range(2, 7):
            row = rows["divergence_self", m]
            assert row.lhs <= 3.0 + 3 * row.se and row.passed

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(13)
        spec = EnvSpec(kind="realizable_linear", num_arms=2, seed=2)
        for _ in range(5):
            model = LinearModel(rng.uniform(0, 1, (2, 2)))
            target = LinearModel(rng.uniform(0, 1, (2, 2)))
            gamma = float(rng.uniform(0.5, 30))
            xs = draw_contexts(spec, 50_000, 14)
            V = divergence_from(package_kernel_rows(predict_matrix(model, xs), gamma),
                                gaps_from(predict_matrix(target, xs))[1] + 1)
            xs = draw_contexts(spec, 50_000, 15)
            gap = mean_at(gaps_from(predict_matrix(model, xs))[0],
                          gaps_from(predict_matrix(target, xs))[1] + 1)
            band = 3 * math.hypot(V.se, gamma * gap.se)
            assert gamma * gap.value - band <= V.value <= 2 + gamma * gap.value + band

    def test_zero_probability_raises(self):
        # gamma times arm 2's gap overflows to inf, so the kernel gives arm 2,
        # which the best-fit policy plays below x = 0.5, probability 0
        degenerate = LinearModel(np.array([[4.0, 0.0], [0.0, 0.0]]))
        with np.errstate(over="ignore"), pytest.raises(ZeroDivisionError):
            suite(STEP, [zero_model(2), degenerate], [1.0, 1e308], draw_contexts(STEP, 100, 16))


def refit(weights):
    """An epoch event as ``lemma_suite`` reads and fills it."""
    return SimpleNamespace(new_model=LinearModel(weights), mse_to_best_fit=float("nan"))


class TestModelMse:
    def test_identical_surfaces(self):
        xs = draw_contexts(STEP, 10_000, 17)
        fit = best_linear_fit_uniform(STEP)
        preds = predict_matrix(fit, xs)
        assert mse_from(preds, preds).value == 0.0
        # a refit that installs the best fit is as far from it whether its
        # model ran an epoch (the suite's checks predict it) or not: 0 up to
        # the last bits in which its GEMM and the fit's row-by-row products differ
        events = [refit(fit.weights) for _ in range(3)]
        suite(STEP, [zero_model(2), fit], [1.0, 3.0], xs, events)
        assert events[0].mse_to_best_fit == events[1].mse_to_best_fit == \
            events[2].mse_to_best_fit == pytest.approx(0.0, abs=1e-30)

    def test_matches_approximation_error(self):
        xs = draw_contexts(SENS, 200_000, 18)
        est = mse_from(predict_matrix(best_linear_fit_uniform(SENS), xs),
                       mean_reward_matrix(SENS, xs))
        assert abs(est.value - closed_form_errors(SENS)[0]) <= 4 * est.se
        # the suite's b is that estimate, on the best fit's row-by-row predictions
        b = suite(SENS, [zero_model(2)], [1.0], xs)["error_ordering_lower", None].lhs
        assert b == error_estimates_from(best_linear_fit_uniform(SENS).predict_rows(xs),
                                         mean_reward_matrix(SENS, xs))[0].value
        assert b == pytest.approx(est.value, rel=1e-12)

    def test_constant_offset(self):
        xs = draw_contexts(STEP, 1_000, 20)
        event = refit(best_linear_fit_uniform(STEP).weights + [[0.3, 0.0], [0.3, 0.0]])
        suite(STEP, [zero_model(2)], [1.0], xs, [event])
        assert event.mse_to_best_fit == pytest.approx(0.09, abs=1e-12)

    def test_kernel_weighting(self):
        xs = draw_contexts(STEP, 1_000, 21)
        unequal = LinearModel(np.array([[1.0, 0.0], [0.0, 0.0]]))
        # kernel that always plays arm 1: mse should be arm-1's squared gap
        probs = np.zeros((len(xs), 2))
        probs[:, 0] = 1.0
        est = mse_from(predict_matrix(zero_model(2), xs), predict_matrix(unequal, xs), probs)
        assert est.value == pytest.approx(1.0, abs=1e-12)


class TestKernelEstimatedRegret:
    def test_bounded_by_K_over_gamma(self):
        rng = np.random.default_rng(22)
        models, gammas = [], []
        for _ in range(10):
            models.append(LinearModel(rng.uniform(0, 1, (2, 2))))
            gammas.append(float(rng.uniform(0.5, 100)))
        rows = suite(STEP, [zero_model(2), *models], [1.0, *gammas],
                     draw_contexts(STEP, 5_000, 23))
        for m, gamma in enumerate(gammas, start=2):
            row = rows["kernel_estimated_regret", m]
            assert row.lhs <= 2 / gamma + 3 * row.se and row.passed


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
        best = predict_matrix(best_linear_fit_uniform(SENS), xs)
        mse_g = mse_from(predict_matrix(res_g.artifacts.models[-1], xs), best)
        mse_p = mse_from(predict_matrix(res_p.artifacts.models[-1], xs), best)
        assert mse_g.value < mse_p.value


class TestLemmaSuite:
    def test_realizable_trivial_bounds(self):
        spec = EnvSpec(kind="realizable_linear", seed=3)
        arts = RunArtifacts(spec, [zero_model(2)], [1.0], rho=1.0)
        xs = draw_contexts(spec, 5_000, 24)
        checks = lemma_suite(arts, xs)
        assert all(c.passed for c in checks)

    def test_realizable_monte_carlo_errors_exactly_zero(self):
        # the best fit is the truth, and both are predicted row by row, in the
        # suite and in a run's diagnostics pass
        spec = EnvSpec(kind="realizable_linear", num_arms=3, context_dim=3, seed=3)
        xs = draw_contexts(spec, 20_000, 24)
        reports = [lemma_suite(RunArtifacts(spec, [zero_model(3, 3)], [1.0], rho=1.0), xs),
                   run_one(RunConfig(env=spec, horizon=40, mc_samples=20_000), 2).lemma_report]
        for report in reports:
            b, B = (next(c.lhs for c in report if c.name == name)
                    for name in ("error_ordering_lower", "error_ordering_upper"))
            assert b == B == 0.0

    def test_sensitivity_run_snapshot(self):
        fit = best_linear_fit_uniform(SENS)
        models = [zero_model(2), fit, fit]
        arts = RunArtifacts(SENS, models, [1.0, 0.932, 1.2], rho=1.0, epsilon=0.1)
        xs = draw_contexts(SENS, 20_000, 25)
        checks = lemma_suite(arts, xs)
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
                            rho=1.0, epsilon=0.1)
        xs = draw_contexts(SENS, 5_000, 27)
        checks = lemma_suite(arts, xs)
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
        # each row is its estimator in the row-major formulas, on the suite's
        # one sample: bit for bit, but for the kernel regrets at K >= 3, which
        # sum over arms in numpy's row-sum order where einsum has its own
        spec, n, seed = arts.spec, 3_000, 31
        xs = draw_contexts(spec, n, seed)
        fit_preds = best_linear_fit_uniform(spec).predict_rows(xs)
        checks = lemma_suite(arts, xs)
        assert len(checks) == 3 + 4 * (len(arts.models) - 1)
        assert_rows_agree(checks, lemma_suite_rows(arts, xs, fit_preds), spec.num_arms)

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
            shared.append(lemma_suite(FALCON_RUN_ARTS, xs))
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


KERNEL_REGRET_ROWS = ("kernel_estimated_regret", "true_regret_trend")


def assert_rows_agree(checks, reference, K):
    """``checks`` equal to the ``reference`` rows bit for bit, except that
    at K >= 3 the kernel regret rows' lhs and rhs may differ by 4 ulp; their
    standard errors, which a last-bit move in one context's value changes
    relatively more, agree to 1e-9."""
    assert [(c.name, c.epoch) for c in checks] == [(c.name, c.epoch) for c in reference]
    for c, ref in zip(checks, reference):
        if K > 2 and c.name in KERNEL_REGRET_ROWS:
            got, want = np.array([c.lhs, c.rhs]), np.array([ref.lhs, ref.rhs])
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want))), (c, ref)
            assert c.se == pytest.approx(ref.se, rel=1e-9, abs=0.0), (c, ref)
            assert (c.passed, c.note) == (ref.passed, ref.note)
        else:
            assert repr(c) == repr(ref)


class TestRowMajorReference:
    """A run's diagnostics pass, arm-major with one prediction per epoch
    model, against the same pass in the row-major formulas."""

    @pytest.mark.parametrize("seed", [1, 13, 29])
    @pytest.mark.parametrize("spec", [SENS, STEP], ids=["sens", "step"])
    def test_run_lemmas_bit_equal_at_two_arms(self, spec, seed):
        self.check_run(RunConfig(env=spec, horizon=2 ** 12), seed)

    @pytest.mark.parametrize("K, mc_samples", [(3, 5_000), (9, 5_000), (12, 300)])
    def test_run_lemmas_within_4_ulp_at_more_arms(self, K, mc_samples):
        # at K = 12 and 300 contexts the arm-major GEMM W @ Phi.T rounds
        # differently from the row-major Phi @ W.T on OpenBLAS; the pass
        # predicts row-major and transposes, so its bits do not depend on that
        spec = EnvSpec(kind="realizable_linear", num_arms=K, seed=K, noise_sd=0.3)
        self.check_run(RunConfig(env=spec, horizon=2 ** 11, mc_samples=mc_samples), 2)

    def test_each_model_predicted_once_in_row_major_bits(self, monkeypatch):
        # every matrix the pass takes gaps of is arm-major and holds the bits
        # of the row-major formulas: the truth, then each epoch model's
        # predictions, once per model, as Phi @ W.T (at K = 12 and 300
        # contexts OpenBLAS's W @ Phi.T differs from it in the last bits)
        spec = EnvSpec(kind="realizable_linear", num_arms=12, seed=12, noise_sd=0.3)
        config = RunConfig(env=spec, horizon=2 ** 11, mc_samples=300)
        res = run_many(config, [2])[0]
        seen = []
        monkeypatch.setattr(diagmod, "arm_gaps",
                            lambda values: seen.append(values.copy()) or arm_gaps(values))
        run_lemmas(config, 2, res.artifacts, res.events)
        diag_ss = np.random.SeedSequence(2).spawn(3)[2].spawn(1)[0]
        xs = draw_contexts(spec, 300, make_generator(diag_ss))
        want = [mean_reward_matrix(spec, xs),
                *(predict_matrix(model, xs) for model in res.artifacts.models[1:])]
        assert len(seen) == len(want) == len(res.artifacts.models)
        for got, rows in zip(seen, want):
            assert got.flags.c_contiguous and got.tobytes() == rows.T.tobytes()

    @staticmethod
    def check_run(config, seed):
        res = run_many(config, [seed])[0]
        report = run_lemmas(config, seed, res.artifacts, res.events)
        ref_report, ref_mses = run_lemmas_rows(config, seed, res.artifacts, res.events)
        assert_rows_agree(report, ref_report, config.env.num_arms)
        assert np.array([ev.mse_to_best_fit for ev in res.events]).tobytes() == \
            np.array(ref_mses).tobytes()
