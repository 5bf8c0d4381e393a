import math

import numpy as np
import pytest

from banditlab import env as envmod
from banditlab.env import (Environment, EnvSpec, best_linear_fit_uniform, closed_form_errors,
                           draw_contexts, make_generator, mean_reward_matrix, true_model)
from banditlab.linmodel import row_max_argmax

from oracles import (best_fit_per_family, closed_form_errors_per_family, error_estimates_from,
                     lstsq_line, mean_reward_matrix_per_family, per_round, predict_matrix,
                     simpson)

STEP = EnvSpec(kind="step_function")
SENS = EnvSpec(kind="sensitivity_family", theta=0.05)
REAL = EnvSpec(kind="realizable_linear", num_arms=2, seed=11)


def truth_at(spec, x, a):
    """Truth at one context and arm (1-based), from the matrix surface."""
    return mean_reward_matrix(spec, np.array([x]))[0, a - 1]


class TestSpecValidation:
    def test_theta_required_for_sensitivity(self):
        with pytest.raises(ValueError):
            EnvSpec(kind="sensitivity_family")

    def test_theta_range(self):
        with pytest.raises(ValueError):
            EnvSpec(kind="sensitivity_family", theta=0.2)
        with pytest.raises(ValueError):
            EnvSpec(kind="sensitivity_family", theta=0.0)

    def test_theta_forbidden_elsewhere(self):
        with pytest.raises(ValueError):
            EnvSpec(kind="step_function", theta=0.05)

    def test_two_arms_fixed(self):
        with pytest.raises(ValueError):
            EnvSpec(kind="step_function", num_arms=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EnvSpec(kind="bandit_of_mystery")

    def test_every_error_raised(self):
        with pytest.raises(ValueError) as info:
            EnvSpec(kind="realizable_linear", num_arms=1, noise_sd=math.nan)
        assert "env.num_arms" in str(info.value) and "env.noise_sd" in str(info.value)


class TestContexts:
    def test_first_draw_in_unit_interval(self):
        x = Environment(STEP, [7]).draw(1)[0][0, 0]
        assert 0.0 < x < 1.0

    def test_equal_seeds_identical_streams(self):
        a = Environment(STEP, [123])
        b = Environment(STEP, [123])
        assert a.draw(50)[0].tolist() == b.draw(50)[0].tolist()

    def test_seed_sequence_argument_is_not_advanced(self):
        # two environments on one SeedSequence draw what its int seed draws
        ss = np.random.SeedSequence(40)
        envs = [Environment(EnvSpec(), [seed]) for seed in (ss, ss, 40)]
        draws = [env.draw(20) for env in envs]
        for draw in draws[1:]:
            for got, want in zip(draw, draws[0]):
                np.testing.assert_array_equal(got, want)
        assert ss.n_children_spawned == 0

    def test_uniform_moments(self):
        xs = Environment(STEP, [0]).draw(100_000)[0]
        assert abs(xs.mean() - 0.5) < 0.01


class TestMeanReward:
    def test_step_values(self):
        assert truth_at(STEP, 0.6, 1) == 1.0
        assert truth_at(STEP, 0.6, 2) == 0.5
        assert truth_at(STEP, 0.4, 1) == 0.0

    def test_sensitivity_low_segment(self):
        assert truth_at(SENS, 0.2, 1) == 0.1
        assert truth_at(SENS, 0.96, 1) == 1.0

    def test_sensitivity_arm2_intercept(self):
        # f*(x, 2) = 1 + m*x, so the x -> 0 limit is 1
        assert truth_at(SENS, 1e-12, 2) == pytest.approx(1.0, abs=1e-9)

    def test_rewards_bounded_all_kinds(self):
        xs = np.linspace(1e-6, 1 - 1e-6, 4001)
        for spec in (STEP, SENS, REAL,
                     EnvSpec(kind="sensitivity_family", theta=0.01),
                     EnvSpec(kind="realizable_linear", num_arms=4, seed=3)):
            m = mean_reward_matrix(spec, xs)
            assert m.min() >= 0.0 and m.max() <= 1.0

    def test_matrix_matches_scalar(self):
        # every row of a many-context matrix equals the one-context matrix
        xs = np.array([0.1, 0.5, 0.51, 0.94, 0.96])
        m = mean_reward_matrix(SENS, xs)
        for i, x in enumerate(xs):
            for a in (1, 2):
                assert m[i, a - 1] == pytest.approx(truth_at(SENS, x, a))


class TestSampleReward:
    def test_zero_noise_is_exact(self):
        env = per_round(EnvSpec(kind="step_function", noise_sd=0.0), 1)
        assert env.sample_reward(0.7, 1) == 1.0
        assert env.sample_reward(0.7, 2) == 0.5

    def test_clt_bound_on_sample_mean(self):
        env = per_round(STEP, 42)
        n = 100_000
        draws = np.array([env.sample_reward(0.6, 1) for _ in range(n)])
        assert abs(draws.mean() - 1.0) < 3 * 0.1 / math.sqrt(n)

    def test_fixed_seed_identical_stream(self):
        a = per_round(SENS, 9)
        b = per_round(SENS, 9)
        ra = [a.sample_reward(0.3, 2) for _ in range(100)]
        rb = [b.sample_reward(0.3, 2) for _ in range(100)]
        assert ra == rb

    def test_clipping_opt_in(self):
        spec = EnvSpec(kind="step_function", noise_sd=5.0, clip_rewards=True)
        env = per_round(spec, 2)
        draws = [env.sample_reward(0.7, 1) for _ in range(200)]
        assert min(draws) >= 0.0 and max(draws) <= 1.0


class TestDraw:
    SPECS = [STEP, SENS, REAL,
             EnvSpec(kind="realizable_linear", num_arms=4, context_dim=3, seed=3),
             EnvSpec(kind="step_function", noise_sd=0.0),
             EnvSpec(kind="sensitivity_family", theta=0.01, noise_sd=0.4, clip_rewards=True)]

    @pytest.mark.parametrize("spec", SPECS)
    def test_draw_equals_round_by_round_stream(self, spec):
        n = 50
        xs, means, rvec = (a[0] for a in Environment(spec, [21]).draw(n))
        env = per_round(spec, 21)
        for i in range(n):
            x = env.sample_context()
            m, r = env.observe(x)
            assert np.asarray(x).tobytes() == np.asarray(xs[i]).tobytes()
            assert m.tobytes() == means[i].tobytes()
            assert r.tobytes() == rvec[i].tobytes()

    @pytest.mark.parametrize("spec", SPECS)
    def test_draw_does_not_depend_on_the_split(self, spec):
        whole = Environment(spec, [5, 6]).draw(40)
        env = Environment(spec, [5, 6])
        parts = [env.draw(k) for k in (1, 12, 0, 27)]
        for got, want in zip(whole, (np.concatenate(c, axis=1) for c in zip(*parts))):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("R", [1, 3, 16])
    @pytest.mark.parametrize("spec", SPECS)
    def test_replication_equals_its_seed_alone(self, spec, R):
        # replication r of a stacked draw is the draw of an environment on
        # seeds[r] alone, bit for bit, over any split of the rounds
        seeds = [40 + 3 * r for r in range(R)]
        env = Environment(spec, seeds)
        alone = [Environment(spec, [seed]) for seed in seeds]
        for n in (9, 0, 1, 30):
            got = env.draw(n)
            assert got[0].shape[:2] == got[1].shape[:2] == got[2].shape[:2] == (R, n)
            for r, one in enumerate(alone):
                for g, want in zip(got, one.draw(n)):
                    assert g[r].tobytes() == want[0].tobytes()

    def test_non_finite_reward_names_its_round(self):
        spec = EnvSpec(kind="step_function", noise_sd=1e308)
        ref = per_round(spec, 4)
        first = next(t for t in range(1, 100)
                     if not np.isfinite(ref.observe(ref.sample_context())[1]).all())
        env = Environment(spec, [4])
        with pytest.raises(FloatingPointError, match=f"in round {first}$") as info:
            for n in (2, 0, 1, 3, 5, 100):
                env.draw(n)
        assert info.value.replication == 0

    def test_non_finite_reward_tags_the_first_failing_replication(self):
        spec = EnvSpec(kind="sensitivity_family", theta=0.05, noise_sd=1e308)
        seeds = list(range(12))

        def fails(seed):
            try:
                Environment(spec, [seed]).draw(1)
            except FloatingPointError:
                return True
            return False

        failing = [r for r, seed in enumerate(seeds) if fails(seed)]
        assert 0 < failing[0] < failing[-1]  # replication 0 draws finite rewards
        with pytest.raises(FloatingPointError, match="in round 1$") as info:
            Environment(spec, seeds).draw(1)
        assert info.value.replication == failing[0]

    @pytest.mark.parametrize("spec", SPECS)
    def test_draw_means_are_the_truth_formula(self, spec):
        # one formula per truth surface: a linear truth's GEMM can round a
        # row differently from its row-by-row product
        xs, means, _ = Environment(spec, [8]).draw(20_000)
        assert means[0].tobytes() == mean_reward_matrix(spec, xs[0]).tobytes()

    def test_draw_shapes(self):
        spec = EnvSpec(kind="realizable_linear", num_arms=3, context_dim=2, seed=0)
        xs, means, rvec = Environment(spec, [0, 1, 2, 3]).draw(7)
        assert xs.shape == (4, 7, 2) and means.shape == (4, 7, 3) and rvec.shape == (4, 7, 3)
        xs, means, rvec = Environment(STEP, [0]).draw(7)
        assert xs.shape == (1, 7) and means.shape == (1, 7, 2) and rvec.shape == (1, 7, 2)


class TestBestLinearFit:
    def test_step_arm1_closed_form(self):
        fit = best_linear_fit_uniform(STEP)
        np.testing.assert_allclose(fit.weights[0], [-0.25, 1.5], atol=1e-12)

    def test_step_arm2_constant(self):
        fit = best_linear_fit_uniform(STEP)
        np.testing.assert_allclose(fit.weights[1], [0.5, 0.0], atol=1e-12)

    def test_step_arm1_vs_big_sample_ols(self):
        rng = np.random.default_rng(7)
        xs = rng.random(1_000_000)
        w0, w1 = lstsq_line(xs, (xs > 0.5).astype(float))
        fit = best_linear_fit_uniform(STEP)
        assert abs(fit.weights[0, 0] - w0) < 0.01
        assert abs(fit.weights[0, 1] - w1) < 0.01

    def test_sensitivity_closed_form_values(self):
        fit = best_linear_fit_uniform(SENS)
        assert fit.weights[0, 1] == pytest.approx(0.2565, abs=1e-12)   # 5.4*theta*(1-theta)
        assert fit.weights[0, 0] == pytest.approx(0.01675, abs=1e-12)
        knee = fit.weights[0, 0] + fit.weights[0, 1] * 0.95
        assert knee == pytest.approx(0.260425, abs=1e-9)
        assert fit.weights[1, 1] == pytest.approx(-0.7785, abs=1e-9)   # m_theta

    def test_sensitivity_arm1_vs_big_sample_ols(self):
        rng = np.random.default_rng(8)
        xs = rng.random(1_000_000)
        w0, w1 = lstsq_line(xs, 0.1 + 0.9 * (xs > 0.95))
        fit = best_linear_fit_uniform(SENS)
        assert abs(fit.weights[0, 0] - w0) < 0.01
        assert abs(fit.weights[0, 1] - w1) < 0.01

    def test_sensitivity_arm2_is_truth(self):
        # arm 2's truth is linear already, so the best fit reproduces it
        fit = best_linear_fit_uniform(SENS)
        xs = np.linspace(0.01, 0.99, 101)
        np.testing.assert_allclose(predict_matrix(fit, xs)[:, 1],
                                   mean_reward_matrix(SENS, xs)[:, 1], atol=1e-12)

    def test_realizable_fit_is_truth(self):
        fit = best_linear_fit_uniform(REAL)
        xs = np.linspace(0.01, 0.99, 101)
        np.testing.assert_allclose(predict_matrix(fit, xs),
                                   mean_reward_matrix(REAL, xs), atol=1e-12)


def theta_sweep() -> list[float]:
    """theta in (0, 0.05]: both ends of the float range (0.05 and the
    smallest subnormal), more subnormals, and seeded draws spread evenly
    and over every decade down to 1e-320."""
    rng = np.random.default_rng(25)
    return [0.05, math.nextafter(0.05, 0.0), 5e-324, 1e-320, 2.5e-310, 2.0 ** -1022,
            *(0.05 - rng.uniform(0.0, 0.05, 1000)).tolist(),
            *(0.05 * 10.0 ** -rng.uniform(0.0, 318.0, 1000)).tolist()]


class TestOneClosedForm:
    """The one (lo, hi, w, a0) formula keeps the bits of the per-family
    closed forms in ``tests/oracles.py``."""

    @staticmethod
    def assert_bit_equal(spec, xs):
        assert best_linear_fit_uniform(spec).weights.tobytes() == \
            best_fit_per_family(spec).tobytes()
        assert [v.hex() for v in closed_form_errors(spec)] == \
            [v.hex() for v in closed_form_errors_per_family(spec)]
        assert mean_reward_matrix(spec, xs).tobytes() == \
            mean_reward_matrix_per_family(spec, xs).tobytes()

    def test_step_function(self):
        xs = np.array([0.0, math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), 1.0,
                       *np.random.default_rng(24).random(1000)])
        self.assert_bit_equal(STEP, xs)

    def test_sensitivity_theta_sweep(self):
        thetas = theta_sweep()
        assert 0.0 < min(thetas) and max(thetas) == 0.05
        xs = np.random.default_rng(26).random(100)
        for theta in thetas:
            knee = 1.0 - theta
            edges = [knee, math.nextafter(knee, 0.0), math.nextafter(knee, 1.0), 0.0, 1.0]
            spec = EnvSpec(kind="sensitivity_family", theta=theta)
            self.assert_bit_equal(spec, np.concatenate([edges, xs]))


class TestApproximationError:
    def test_realizable_is_zero(self):
        xs = draw_contexts(REAL, 10_000, 0)
        est = error_estimates_from(best_linear_fit_uniform(REAL).predict_rows(xs),
                                   mean_reward_matrix(REAL, xs))
        assert closed_form_errors(REAL) == (0.0, 0.0)
        assert est[0].value == 0.0

    def test_step_closed_form_vs_quadrature(self):
        # arm-1 squared residual integrated over (0,1), then averaged over 2 arms
        integral = simpson(lambda x: (1.5 * x - 0.25 - (x > 0.5)) ** 2, 0.0, 1.0)
        assert integral / 2 == pytest.approx(0.03125, abs=1e-6)
        assert closed_form_errors(STEP)[0] == pytest.approx(integral / 2, abs=1e-6)

    def test_sensitivity_closed_form_vs_quadrature(self):
        for theta in (0.01, 0.03, 0.05):
            spec = EnvSpec(kind="sensitivity_family", theta=theta)
            fit = best_linear_fit_uniform(spec)
            w0, w1 = fit.weights[0]
            integral = simpson(
                lambda x: (w0 + w1 * x - (0.1 + 0.9 * (x > 1 - theta))) ** 2, 0.0, 1.0)
            assert closed_form_errors(spec)[0] == pytest.approx(integral / 2, abs=1e-6)

    def test_mc_converges_to_closed_form(self):
        xs = draw_contexts(SENS, 200_000, 123)
        est = error_estimates_from(best_linear_fit_uniform(SENS).predict_rows(xs),
                                   mean_reward_matrix(SENS, xs))[0]
        assert abs(est.value - closed_form_errors(SENS)[0]) <= 4 * est.se

    def test_sensitivity_bounded_by_half_theta(self):
        for theta in (0.01, 0.05):
            spec = EnvSpec(kind="sensitivity_family", theta=theta)
            assert closed_form_errors(spec)[0] <= theta / 2

    def test_monotone_in_theta(self):
        values = [closed_form_errors(EnvSpec(kind="sensitivity_family", theta=t))[0]
                  for t in (0.01, 0.02, 0.03, 0.04, 0.05)]
        assert all(lo <= hi for lo, hi in zip(values, values[1:]))


class TestWorstCaseError:
    def test_realizable_is_zero(self):
        xs = draw_contexts(REAL, 10_000, 0)
        est = error_estimates_from(best_linear_fit_uniform(REAL).predict_rows(xs),
                                   mean_reward_matrix(REAL, xs))
        assert est[1].value == 0.0

    def test_ordering_b_le_B_le_Kb(self):
        for spec in (STEP, SENS):
            fit = best_linear_fit_uniform(spec)
            xs = draw_contexts(spec, 100_000, 1)
            b = error_estimates_from(fit.predict_rows(xs), mean_reward_matrix(spec, xs))[0]
            xs = draw_contexts(spec, 100_000, 2)
            B = error_estimates_from(fit.predict_rows(xs), mean_reward_matrix(spec, xs))[1]
            slack = 3 * math.hypot(b.se, B.se)
            assert b.value <= B.value + slack
            assert B.value <= 2 * b.value + 3 * math.hypot(B.se, 2 * b.se)

    def test_sensitivity_B_is_arm1_residual(self):
        fit = best_linear_fit_uniform(SENS)
        w0, w1 = fit.weights[0]
        integral = simpson(
            lambda x: (w0 + w1 * x - (0.1 + 0.9 * (x > 0.95))) ** 2, 0.0, 1.0)
        assert closed_form_errors(SENS)[1] == pytest.approx(integral, abs=1e-6)


class TestOptimalPolicy:
    def test_step_threshold(self):
        assert row_max_argmax(mean_reward_matrix(STEP, [0.7, 0.3]))[1].tolist() == [0, 1]

    def test_sensitivity_high_segment(self):
        assert row_max_argmax(mean_reward_matrix(SENS, [0.97, 0.6]))[1].tolist() == [0, 1]

    def test_best_fit_policy_matches_optimal_policy(self):
        # the misspecified fit still induces the optimal threshold policy
        xs = np.linspace(1e-4, 1 - 1e-4, 20_001)
        fit = best_linear_fit_uniform(SENS)
        np.testing.assert_array_equal(row_max_argmax(predict_matrix(fit, xs))[1],
                                      row_max_argmax(mean_reward_matrix(SENS, xs))[1])

    def test_meeting_point_construction(self):
        # arm 2's line passes through the arm-1 fit exactly at x = 1 - theta
        for theta in (0.01, 0.02, 0.05):
            spec = EnvSpec(kind="sensitivity_family", theta=theta)
            fit = best_linear_fit_uniform(spec)
            x = 1.0 - theta
            assert fit.predict_rows([x])[0, 0] == pytest.approx(truth_at(spec, x, 2),
                                                               abs=1e-12)


class TestRealizableDesign:
    def test_weights_deterministic_in_spec_seed(self):
        a = best_linear_fit_uniform(EnvSpec(kind="realizable_linear", seed=4))
        b = best_linear_fit_uniform(EnvSpec(kind="realizable_linear", seed=4))
        c = best_linear_fit_uniform(EnvSpec(kind="realizable_linear", seed=5))
        np.testing.assert_array_equal(a.weights, b.weights)
        assert not np.array_equal(a.weights, c.weights)

    def test_weights_built_once(self, monkeypatch):
        spec = EnvSpec(kind="realizable_linear", num_arms=3, context_dim=2, seed=123)
        env = Environment(spec, [0, 1])
        env.draw(1)
        built = []  # seeds a generator is built from; a context draw passes its own

        def spy(seed):
            if not isinstance(seed, np.random.Generator):
                built.append(seed)
            return make_generator(seed)

        monkeypatch.setattr(envmod, "make_generator", spy)
        for n in (1, 10, 100):
            env.draw(n)
        assert built == []
        assert not true_model(spec).weights.flags.writeable

    def test_multidim_contexts(self):
        spec = EnvSpec(kind="realizable_linear", num_arms=3, context_dim=4, seed=2)
        xs, means, _ = Environment(spec, [0]).draw(1)
        assert xs[0, 0].shape == (4,)
        assert means[0, 0].shape == (3,)
        assert 0.0 <= means.min() and means.max() <= 1.0
