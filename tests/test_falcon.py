import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlab.env import EnvSpec, best_linear_fit_uniform
from banditlab.falcon import (AGENT_KEYS, EpochSchedule, EpsilonFalconAgent, LinUCBAgent,
                              RateParams, SequencingError, UniformAgent, arm_gaps,
                              gamma_for_epoch, igw_kernel, sample_kernel, schedule_position)
from banditlab.harness import ConfigError, RunConfig, build_agent, parse_config
from banditlab.linmodel import (ConstraintSpec, DataBatch, InvalidArmError, LinearModel,
                                constrained_fit, featurize, fit_ols, row_max_argmax)

from oracles import (epoch_of_walk, epochs_by_walk, igw_kernel_one, igw_kernel_rows,
                     linucb_scores_rows, normalized_sse, per_round, predict_matrix,
                     sample_kernel_rows, sample_scalar, tune_epsilon, zero_model)

# the default rates and schedule of a run on K = 2 arms, d = 1
RATES = RunConfig().rate_params()
SCHED = EpochSchedule(RunConfig().tau1)


def rng_of(seed):
    return np.random.Generator(np.random.Philox(seed))


def play(agent, t, x, rng, env):
    """One round as a one-row block of one replication: the arm, and the
    reward recorded for it."""
    a = int(agent.act_block(t, [[x]], [rng])[0, 0])
    r = env.sample_reward(x, a)
    agent.record_block(t, [[x]], [[a]], [[r]])
    return a, r


def kernel_at(model, x, gamma):
    """(probabilities, predicted-best arm) of the kernel at one context."""
    preds = model.predict_rows([x])
    return igw_kernel(*arm_gaps(preds.T), gamma)[:, 0], int(np.argmax(preds[0])) + 1


class TestEpochSchedule:
    def test_boundaries_double(self):
        s = EpochSchedule(4)
        assert [s.boundary(m) for m in range(6)] == [0, 4, 8, 16, 32, 64]
        for m in range(1, 10):
            assert s.boundary(m + 1) == 2 * s.boundary(m)

    def test_epoch_of(self):
        s = EpochSchedule(4)
        assert [s.epoch_of(t) for t in (1, 4, 5, 8, 9, 16, 17)] == [1, 1, 2, 2, 3, 3, 4]

    @pytest.mark.parametrize("tau1", [4, 5, 7, 64])
    def test_epoch_of_matches_doubling_walk(self, tau1):
        s = EpochSchedule(tau1)
        T = 2 ** 18
        got = np.fromiter((s.epoch_of(t) for t in range(1, T + 1)), dtype=np.int64, count=T)
        np.testing.assert_array_equal(got, epochs_by_walk(tau1, T))
        for t in (1, tau1, tau1 + 1, 2 * tau1, 2 * tau1 + 1, T - 1, T, T + 1, 2 ** 40 + 3):
            assert s.epoch_of(t) == epoch_of_walk(tau1, t)
        assert s.epoch_of(np.int64(tau1 + 1)) == 2

    def test_epoch_of_rejects_round_zero(self):
        with pytest.raises(ValueError):
            EpochSchedule(4).epoch_of(0)
        agent = build_agent(RunConfig())
        agent.m = 2  # round 0 would fall in epoch 2 by the formula
        with pytest.raises(ValueError):
            agent.phase_of(0)

    def test_tau1_minimum(self):
        with pytest.raises(ValueError):
            EpochSchedule(3)

    def test_tau1_maximum_keeps_rounds_in_int64(self):
        # up to 2^62 the first epoch's rounds are int64 array entries
        tau1 = 2 ** 62
        s = EpochSchedule(tau1)
        assert [s.epoch_of(t) for t in (1, tau1, tau1 + 1)] == [1, 1, 2]
        m, passive = schedule_position(np.array([1, tau1 // 2, tau1], dtype=np.int64), tau1, 0.25)
        assert m.tolist() == [1, 1, 1] and passive.tolist() == [False, False, True]
        for value in (tau1 + 1, 2 ** 63):
            with pytest.raises(ValueError) as info:
                EpochSchedule(value)
            assert str(info.value) == "agent.tau1: must be in [4, 4611686018427387904]"

    def test_lengths(self):
        s = EpochSchedule(8)
        assert [s.boundary(m) - s.boundary(m - 1) for m in (1, 2, 3, 4)] == [8, 8, 16, 32]


class TestGamma:
    def test_first_epoch_is_one(self):
        assert gamma_for_epoch(1, SCHED, RATES, 2) == 1.0

    def test_second_epoch_value(self):
        # sqrt(C3*K*len1 / (ln(1/delta)*comp)) = sqrt(8 / (4 ln 10))
        expected = math.sqrt(2 * 4 / (math.log(10.0) * 4))
        got = gamma_for_epoch(2, SCHED, replace(RATES, comp=4.0, delta=0.1), 2)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.9319812035693121, rel=1e-12)

    def test_nondecreasing_from_third_epoch(self):
        # epochs 2 and 3 share the same previous-epoch length (tau1), so the
        # schedule dips once at m=3; from there on it rises.
        gs = [gamma_for_epoch(m, SCHED, RATES, 2) for m in range(1, 21)]
        assert gs[2] < gs[1]
        for lo, hi in zip(gs[2:], gs[3:]):
            assert hi >= lo

    def test_growth_ratio_from_third_epoch(self):
        for m in range(3, 20):
            ratio = gamma_for_epoch(m + 1, SCHED, RATES, 2) / gamma_for_epoch(m, SCHED, RATES, 2)
            expected = math.sqrt(2 * math.log((m - 1) / 0.1) / math.log(m / 0.1))
            assert ratio == pytest.approx(expected, rel=1e-12)
            assert ratio >= 1.0

    def test_rho_prime_zero_ignores_log_length(self):
        a = gamma_for_epoch(5, SCHED, RATES, 2)
        b = gamma_for_epoch(5, EpochSchedule(4), replace(RATES, rho_prime=0.0, comp=4.0), 2)
        assert a == b

    def test_rate_params_resolve_auto_comp(self):
        # an explicit comp wins; auto (None) is the total parameter count K * (d + 1)
        cfg = RunConfig(env=EnvSpec(kind="realizable_linear", num_arms=3, context_dim=2),
                        rho=0.5, c3=3.0)
        assert replace(cfg, comp=8.0).rate_params() == \
            RateParams(rho=0.5, rho_prime=0.0, comp=8.0, C1=1.0, C3=3.0, delta=0.1)
        assert cfg.rate_params() == replace(cfg, comp=9.0).rate_params()
        assert RunConfig(c1=2.0).rate_params() == \
            RateParams(rho=1.0, rho_prime=0.0, comp=4.0, C1=2.0, C3=1.0, delta=0.1)
        # an agent plays the gammas of the comp its config resolves: 6 at K = 3, d = 1
        agent = build_agent(RunConfig(env=EnvSpec(kind="realizable_linear", num_arms=3)))
        assert agent.rates.comp == 6.0
        assert gamma_for_epoch(5, agent.schedule, agent.rates, 3) == \
            math.sqrt(3 * 16 / (math.log(4 / 0.1) * 6.0))


class TestActionKernel:
    def test_equal_predictions_uniform(self):
        model = LinearModel(np.array([[0.4, 0.0]] * 3))
        probs, best = kernel_at(model, 0.3, 5.0)
        np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-15)
        assert best == 1

    def test_zero_model_uniform(self):
        probs, _ = kernel_at(zero_model(4), 0.9, 1.0)
        np.testing.assert_allclose(probs, [0.25] * 4, atol=1e-15)

    def test_two_arm_closed_form(self):
        model = LinearModel(np.array([[0.8, 0.0], [0.5, 0.0]]))
        probs, best = kernel_at(model, 0.5, 10.0)
        assert probs[1] == pytest.approx(1 / (2 + 10 * 0.3))
        assert probs[0] == pytest.approx(1 - 1 / 5)
        assert best == 1

    def test_large_gamma_concentrates(self):
        model = LinearModel(np.array([[0.8, 0.0], [0.5, 0.0]]))
        probs, _ = kernel_at(model, 0.5, 1e9)
        assert probs[1] < 1e-8
        assert probs[0] > 1 - 1e-8

    @given(w=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=6),
           gamma=st.floats(min_value=1e-3, max_value=1e4),
           x=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=200, deadline=None)
    def test_kernel_invariants(self, w, gamma, x):
        K = len(w)
        model = LinearModel(np.column_stack([np.array(w), np.zeros(K)]))
        probs, best_arm = kernel_at(model, x, gamma)
        assert abs(probs.sum() - 1.0) <= 1e-12
        best = best_arm - 1
        for a in range(K):
            if a != best:
                assert probs[a] <= 1 / K + 1e-15
            # model range within [0,1] keeps every prob >= 1/(K + gamma)
            assert probs[a] >= 1 / (K + gamma) - 1e-15
        # weakly largest, up to the rounding of the remainder entry
        assert probs[best] >= probs.max() - 1e-12

    def test_prob_matrix_matches_pointwise(self):
        rng = np.random.default_rng(5)
        model = LinearModel(rng.uniform(-1, 1, (3, 2)))
        xs = rng.random(50)
        mat = igw_kernel(*arm_gaps(predict_matrix(model, xs).T), 7.0).T
        for i, x in enumerate(xs):
            np.testing.assert_allclose(mat[i], kernel_at(model, x, 7.0)[0], atol=1e-14)

    def test_sampling_frequencies_match_probs(self):
        model = LinearModel(np.array([[0.9, 0.0], [0.3, 0.0], [0.5, 0.0]]))
        probs, _ = kernel_at(model, 0.2, 8.0)
        rng = rng_of(3)
        n = 100_000
        counts = np.bincount(sample_kernel(np.tile(probs[:, None, None], (1, 1, n)), [rng])[0],
                             minlength=4)[1:]
        for a in range(3):
            se = math.sqrt(probs[a] * (1 - probs[a]) / n)
            assert abs(counts[a] / n - probs[a]) <= 3 * se

    @given(K=st.integers(2, 10), d=st.integers(1, 4), n=st.integers(1, 30),
           gamma=st.floats(min_value=1e-3, max_value=1e6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_kernel_rows_equal_one_context_kernel(self, K, d, n, gamma, seed):
        rng = np.random.default_rng(seed)
        model = LinearModel(rng.normal(size=(K, d + 1)))
        xs = rng.random(n) if d == 1 else rng.random((n, d))
        # ties between arms are part of the contract too
        model.weights[K - 1] = model.weights[0]
        probs = igw_kernel(*arm_gaps(model.predict_rows(xs).T), gamma)
        for i in range(n):
            assert probs[:, i].tobytes() == igw_kernel_one(model.weights, xs[i], gamma).tobytes()

    @given(K=st.integers(2, 10), n=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_block_sampler_equals_scalar_sampler(self, K, n, seed):
        rng = np.random.default_rng(seed)
        probs = rng.random((n, K)) ** 3
        probs /= probs.sum(axis=1, keepdims=True)
        probs[: n // 3] = np.eye(K)[rng.integers(K, size=n // 3)]  # point masses
        probs[n // 3: n // 2, -1] = 0.0  # totals short of 1: the arm-K guard
        block = sample_kernel(probs.T[:, None], [rng_of(seed)])[0]
        one_by_one = rng_of(seed)
        assert block.tolist() == [sample_scalar(row, one_by_one) for row in probs]

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            igw_kernel(np.zeros((2, 1)), np.zeros(1, dtype=np.intp), 0.0)

    @pytest.mark.parametrize("K", [2, 3, 8, 9, 130])
    def test_arm_major_kernel_equals_row_major_reference(self, K):
        # random predictions with ties (arm K copies arm 1 in some rows),
        # from contiguous arm-major rows and from the agent's transposed view
        rng = np.random.default_rng(K)
        for gamma in (1e-3, 1.0, 37.5, 1e6):
            preds = rng.normal(size=(500, K)) * 10.0 ** rng.integers(-3, 3)
            preds[::7, -1] = preds[::7, 0]
            want = igw_kernel_rows(preds, gamma)
            for arm_major in (np.ascontiguousarray(preds.T), preds.T):
                probs = igw_kernel(*arm_gaps(arm_major), gamma)
                assert np.ascontiguousarray(probs.T).tobytes() == want.tobytes()

    @pytest.mark.parametrize("K", [2, 3, 8, 9, 130])
    def test_arm_major_sampler_equals_row_major_reference(self, K):
        R, n = 3, 400
        rng = np.random.default_rng(100 + K)
        probs = rng.random((R, n, K)) ** 3
        probs /= probs.sum(axis=-1, keepdims=True)
        probs[:, ::5] = np.eye(K)[rng.integers(K, size=(R, n))[:, ::5]]  # point masses
        want = sample_kernel_rows(probs, [rng_of(s) for s in range(R)])
        got = sample_kernel(np.moveaxis(probs, -1, 0), [rng_of(s) for s in range(R)])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestTuneEpsilon:
    def test_zero_error_no_exploration(self):
        assert tune_epsilon(0.0, 2) == 0.0

    def test_formula_value(self):
        assert tune_epsilon(0.025, 2, 1.0) == pytest.approx(2**0.8 * 0.025**0.4, rel=1e-12)
        assert tune_epsilon(0.025, 2, 1.0) == pytest.approx(0.3981071705534972, rel=1e-9)

    def test_cap(self):
        assert tune_epsilon(100.0, 5) == 0.49


def play_epoch(agent, env, rng, t_start, t_end):
    for t in range(t_start, t_end + 1):
        play(agent, t, env.sample_context(), rng, env)


class TestEpsilonFalconAgent:
    def test_initial_state(self):
        agent = EpsilonFalconAgent(2, epsilon=0.1, schedule=SCHED, rates=RATES)
        assert agent.m == 1
        assert agent.gamma == 1.0
        np.testing.assert_array_equal(agent.weights, np.zeros((1, 2, 2)))

    def test_phase_split_quarter_epsilon(self):
        agent = EpsilonFalconAgent(2, epsilon=0.25, schedule=SCHED, rates=RATES)
        env = per_round(EnvSpec(kind="step_function"), 0)
        play_epoch(agent, env, rng_of(0), 1, 4)
        assert agent.m == 2
        assert [agent.phase_of(t) for t in (5, 6, 7, 8)] == \
            ["active", "active", "active", "passive"]

    def test_epoch_one_draws_uniformly(self):
        # zero model => uniform kernel even in the active phase
        agent = EpsilonFalconAgent(2, epsilon=0.1, schedule=SCHED, rates=RATES)
        probs, _ = kernel_at(LinearModel(agent.weights[0]), 0.4, agent.gamma)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_sequencing_error(self):
        agent = EpsilonFalconAgent(2, epsilon=0.1, schedule=SCHED, rates=RATES)
        with pytest.raises(SequencingError):
            agent.act_block(100, [[0.5]], [rng_of(0)])

    def test_passive_round_counts(self):
        for eps in (0.05, 0.1, 0.25, 0.4):
            agent = EpsilonFalconAgent(2, epsilon=eps, schedule=SCHED, rates=RATES)
            env = per_round(EnvSpec(kind="step_function"), 1)
            rng = rng_of(1)
            for m in range(1, 7):
                start = agent.schedule.boundary(m - 1) + 1
                end = agent.schedule.boundary(m)
                n_passive = 0
                for t in range(start, end + 1):
                    x = env.sample_context()
                    if agent.phase_of(t) == "passive":
                        n_passive += 1
                    play(agent, t, x, rng, env)
                assert n_passive == math.ceil(eps * (end - start + 1))

    def test_active_frequencies_match_kernel(self):
        agent = EpsilonFalconAgent(2, epsilon=0.1, schedule=SCHED, rates=RATES)
        env = per_round(EnvSpec(kind="step_function"), 3)
        rng = rng_of(3)
        for m in (1, 2, 3):
            play_epoch(agent, env, rng, agent.schedule.boundary(m - 1) + 1,
                       agent.schedule.boundary(m))
        x = 0.73
        model = LinearModel(agent.weights[0])
        probs, _ = kernel_at(model, x, agent.gamma)
        t_probe = agent.schedule.boundary(agent.m - 1) + 1
        assert agent.phase_of(t_probe) == "active"
        n = 100_000
        # n one-row blocks at t_probe would run past the epoch, so draw what
        # act_block draws in the active phase, for n rows at once
        probs_n = igw_kernel(*arm_gaps(model.predict_rows(np.full(n, x)).T), agent.gamma)
        arms = sample_kernel(probs_n[:, None], [rng])[0]
        draws = np.bincount(arms, minlength=3)[1:]
        for a in range(2):
            se = math.sqrt(probs[a] * (1 - probs[a]) / n)
            assert abs(draws[a] / n - probs[a]) <= 3 * se

    def test_epsilon_zero_update_is_plain_ols(self):
        agent = EpsilonFalconAgent(2, epsilon=0.0, schedule=SCHED, rates=RATES)
        env = per_round(EnvSpec(kind="step_function"), 4)
        rng = rng_of(4)
        rows = []
        for t in range(1, 5):
            x = env.sample_context()
            rows.append((x, *play(agent, t, x, rng, env)))
        ev = agent.events[0][0]
        assert ev.unconstrained
        direct = DataBatch(2)
        for x, a, r in rows:
            direct.append(x, a, r)
        direct = fit_ols(direct)
        np.testing.assert_allclose(agent.weights[0], direct.weights, atol=1e-12)

    def test_huge_budget_update_is_unconstrained_erm(self):
        rates = replace(RATES, comp=4.0, delta=0.1, C1=1e9)
        agent = EpsilonFalconAgent(2, epsilon=0.25, schedule=SCHED, rates=rates)
        env = per_round(EnvSpec(kind="realizable_linear", seed=6), 6)
        rng = rng_of(6)
        for m in (1, 2, 3, 4, 5):
            play_epoch(agent, env, rng, agent.schedule.boundary(m - 1) + 1,
                       agent.schedule.boundary(m))
        for ev in agent.events[0]:
            assert ev.lambda_star == 0.0

    def test_constraint_tracked_every_epoch(self):
        agent = EpsilonFalconAgent(2, epsilon=0.3, schedule=SCHED, rates=RATES)
        env = per_round(EnvSpec(kind="sensitivity_family", theta=0.05), 7)
        rng = rng_of(7)
        for m in range(1, 9):
            start = agent.schedule.boundary(m - 1) + 1
            end = agent.schedule.boundary(m)
            # keep a copy of this epoch's passive rows to recheck the budget
            play_epoch(agent, env, rng, start, end)
            ev = agent.events[0][-1]
            assert ev.constraint_residual <= 1e-6

    def test_model_history_tracks_epochs(self):
        agent = EpsilonFalconAgent(2, epsilon=0.1, schedule=SCHED, rates=RATES)
        env = per_round(EnvSpec(kind="step_function"), 8)
        rng = rng_of(8)
        for m in (1, 2, 3):
            play_epoch(agent, env, rng, agent.schedule.boundary(m - 1) + 1,
                       agent.schedule.boundary(m))
        events = agent.events[0]
        assert [ev.m for ev in events] == [1, 2, 3]  # one per completed epoch
        assert [ev.gamma for ev in events] == [
            gamma_for_epoch(m, agent.schedule, RATES, 2) for m in (1, 2, 3)]
        assert all(ev.new_weights.shape == (2, 2) for ev in events)

    def test_epsilon_range_checked(self):
        with pytest.raises(ValueError):
            EpsilonFalconAgent(2, epsilon=0.5, schedule=SCHED, rates=RATES)
        with pytest.raises(ValueError):
            EpsilonFalconAgent(2, epsilon=-0.01, schedule=SCHED, rates=RATES)


@pytest.fixture(scope="module")
def batches():
    spec = EnvSpec(kind="sensitivity_family", theta=0.05)
    env = per_round(spec, 10)
    fit = best_linear_fit_uniform(spec)
    rng = rng_of(10)
    active = DataBatch(2)   # collected by the best-fit policy
    passive = DataBatch(2)  # collected uniformly
    for _ in range(10_000):
        x = env.sample_context()
        a = int(row_max_argmax(predict_matrix(fit, [x]))[1][0]) + 1
        active.append(x, a, env.sample_reward(x, a))
        x2 = env.sample_context()
        a2 = int(rng.integers(2)) + 1
        passive.append(x2, a2, env.sample_reward(x2, a2))
    return spec, fit, active, passive


class TestAdaptiveBiasGuard:
    """The constrained update refuses the fit that adaptive sampling would
    otherwise drift to on the two-segment environment."""

    def test_unconstrained_fit_collapses_and_is_infeasible(self, batches):
        spec, fit, active, passive = batches
        erm = fit_ols(active)
        # arm 1 is only ever sampled where its reward is the constant 1, so
        # the fitted line averages to ~1 over the sampled region
        xs_high = np.linspace(0.9501, 0.9999, 200)
        assert abs(predict_matrix(erm, xs_high)[:, 0].mean() - 1.0) < 0.02
        alpha = ConstraintSpec(passive, 1.0).alpha()
        # the collapsed limit (arm 1 constant at 1) misses the passive
        # budget by about 0.9^2 * (1-theta) / 2 = 0.385
        collapsed = LinearModel(np.array([[1.0, 0.0], fit.weights[1]]))
        ideal_excess = normalized_sse(collapsed, passive) - alpha
        assert ideal_excess == pytest.approx(0.385, abs=0.03)
        # the finite-sample fit is at least as far out (slope noise adds),
        # hence wildly infeasible for the budget used below
        excess = normalized_sse(erm, passive) - alpha
        assert excess > 0.3
        assert excess > 0.01649615625 + 0.005

    def test_constrained_fit_stays_near_population_fit(self, batches):
        spec, fit, active, passive = batches
        b = 0.01649615625
        slack = b + 0.005
        tol = 1e-6
        model, report = constrained_fit(active, ConstraintSpec(passive, slack), tol=tol)
        assert report.lam > 0
        assert normalized_sse(model, passive) <= report.alpha + slack + tol
        # empirical distance to the passive ERM is within the budget
        passive_erm = fit_ols(passive)
        gap_batch = DataBatch(2)
        for a in (1, 2):
            xs = passive.arm_rows(a)[0][:, 1]
            for x, y in zip(xs, passive_erm.predict_rows(xs)[:, a - 1]):
                gap_batch.append(x, a, y)
        assert normalized_sse(model, gap_batch) <= slack + 10 * tol
        # and the guarded fit is far closer to the population fit than the ERM
        xs = np.linspace(0.001, 0.999, 2001)
        def mse_to_fit(m):
            return float(((predict_matrix(m, xs) - predict_matrix(fit, xs)) ** 2).mean())
        assert mse_to_fit(model) < 0.25 * mse_to_fit(fit_ols(active))


class TestBaselines:
    def test_plain_falcon_equals_epsilon_zero(self):
        a = build_agent(RunConfig(env=EnvSpec(kind="step_function"), agent="falcon"))
        b = EpsilonFalconAgent(2, epsilon=0.0, schedule=SCHED, rates=RATES)
        env1 = per_round(EnvSpec(kind="step_function"), 12)
        env2 = per_round(EnvSpec(kind="step_function"), 12)
        r1, r2 = rng_of(12), rng_of(12)
        acts1, acts2 = [], []
        for t in range(1, 65):
            acts1.append(play(a, t, env1.sample_context(), r1, env1)[0])
            acts2.append(play(b, t, env2.sample_context(), r2, env2)[0])
        assert acts1 == acts2
        # with no passive rounds there is no passive store to fill or read
        assert list(a.stores) == list(b.stores) == ["active"]
        assert list(build_agent(RunConfig(epsilon=0.1)).stores) == ["active", "passive"]

    def test_linucb_zero_bonus_is_greedy(self):
        agent = LinUCBAgent(2, alpha_ucb=0.0, ridge=1.0, batch_size=10)
        env = per_round(EnvSpec(kind="step_function", noise_sd=0.0), 13)
        rng = rng_of(13)
        for t in range(1, 201):
            play(agent, t, env.sample_context(), rng, env)
        for x in (0.1, 0.45, 0.55, 0.9):
            phi = np.array([1.0, x])
            greedy = int(np.argmax(agent.theta[0] @ phi)) + 1
            assert agent.act_block(999, [[x]], [rng])[0, 0] == greedy

    def test_linucb_batch_refresh_cadence(self):
        agent = LinUCBAgent(2, alpha_ucb=0.5, ridge=1.0, batch_size=50)
        theta0 = agent.theta.copy()
        rng = rng_of(14)
        for t in range(1, 50):
            agent.record_block(t, [[0.5]], [[1]], [[1.0]])
        np.testing.assert_array_equal(agent.theta, theta0)  # not refreshed yet
        agent.record_block(50, [[0.5]], [[1]], [[1.0]])
        assert not np.array_equal(agent.theta, theta0)

    def test_linucb_refresh_reports_overflowed_state(self):
        # replication 2's two rewards of 1e308 overflow its bvec to inf; the
        # refresh that completes the batch reports it, warning-free
        agent = build_agent(RunConfig(agent="lin_ucb", batch_size=2), 3)
        rewards = [[1.0, 1.0], [1.0, 1.0], [1e308, 1e308]]
        agent.record_block(1, np.full((3, 1), 0.5), np.ones((3, 1), dtype=np.int64),
                           [row[:1] for row in rewards])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError,
                               match=r"non-finite LinUCB state \(bvec or theta\)") as info:
                agent.record_block(2, np.full((3, 1), 0.5), np.ones((3, 1), dtype=np.int64),
                                   [row[1:] for row in rewards])
        assert info.value.replication == 2

    def test_linucb_scores_that_overflow_are_reported(self):
        # replication 1's widths near 1e150 overflow its bonus of -1e308
        # times them; no arm is taken from its scores, warning-free
        agent = LinUCBAgent(2, alpha_ucb=-1e308, ridge=1.0, batch_size=10, replications=3)
        agent.G_inv[1] *= 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError, match=r"^non-finite LinUCB scores") as info:
                agent.act_block(1, np.full((3, 4), 0.5), None)
        assert info.value.replication == 1
        agent.G_inv[1] /= 1e300  # a bonus near -1.1e308 is finite
        assert agent.act_block(1, np.full((3, 4), 0.5), None).shape == (3, 4)

    @pytest.mark.parametrize("arms", [
        [[0, 1], [1, 1]],             # arm 0 of replication 0 would wrap to the last one's arm K
        [[1, 1], [0, 1]],             # ... of replication 1 would land on replication 0's arm K
        [[1, 3], [1, 1]],             # arm K + 1 would land on the next replication's arm 1
        [[1, 2], [2, 3]],             # ... of the last replication would index past G
        [[-1, 1], [1, 1]],
        [[1.0, 2.0], [2.0, 1.0]],     # integral, but not integers
        [[1.5, 2.0], [2.0, 1.0]],
        [[True, True], [True, False]],
        [1, 2],                       # not (R, n)
        [[1, 2]],                     # one replication's arms for two
        [[1, 2], [2, 1], [1, 1]],     # three replications' arms for two
        [[[1], [2]], [[2], [1]]],
    ], ids=["zero_first", "zero_second", "above_k", "above_k_last", "negative",
            "integral_float", "float", "bool", "flat", "one_row", "three_rows", "three_d"])
    def test_linucb_record_rejects_bad_arms(self, arms):
        agent = build_agent(RunConfig(agent="lin_ucb", batch_size=10), 2)
        agent.record_block(1, [[0.2, 0.4], [0.6, 0.8]], [[1, 2], [2, 1]], [[1.0, 2.0], [3.0, 4.0]])
        G, bvec = agent.G.copy(), agent.bvec.copy()
        with pytest.raises(InvalidArmError):
            agent.record_block(3, [[0.3, 0.5], [0.7, 0.9]], np.array(arms),
                               [[1.0, 1.0], [1.0, 1.0]])
        assert agent.G.tobytes() == G.tobytes() and agent.bvec.tobytes() == bvec.tobytes()
        # the block's rounds were not counted: eight more fill the batch
        agent.record_block(3, np.full((2, 8), 0.5), np.ones((2, 8), dtype=np.int64),
                           np.ones((2, 8)))
        assert agent.G_inv.tobytes() == np.linalg.inv(agent.G).tobytes()

    def test_uniform_frequencies(self):
        agent = UniformAgent(4)
        rng = rng_of(15)
        n = 100_000
        counts = np.bincount(agent.act_block(0, np.full((1, n), 0.5), [rng])[0], minlength=5)[1:]
        se = math.sqrt(0.25 * 0.75 / n)
        for a in range(4):
            assert abs(counts[a] / n - 0.25) <= 3 * se

    def test_parameter_validation(self):
        # just outside each end of every agent.* row's interval, and the cases
        # this test held before the rows were shared
        for key, _, parse, allowed in AGENT_KEYS:
            for value in outside_ends(parse, allowed):
                assert_rejected_alike(key, value)
        for key, value in [("agent.delta", 0.6), ("agent.comp", -1.0)]:
            assert_rejected_alike(key, value)
        # a rate object has no "auto" comp
        with pytest.raises(ValueError, match=r"^agent\.comp: must be in \(0, inf\)$"):
            replace(RATES, comp=None)


# each agent.* row's owner in code: (label, build from one value)
AGENT_BUILDS = {
    "agent.epsilon": ("EpsilonFalconAgent.epsilon",
                      lambda v: EpsilonFalconAgent(2, epsilon=v, schedule=SCHED, rates=RATES)),
    "agent.delta": ("RateParams.delta", lambda v: replace(RATES, delta=v)),
    "agent.tau1": ("EpochSchedule.tau1", EpochSchedule),
    "agent.c1": ("RateParams.C1", lambda v: replace(RATES, C1=v)),
    "agent.c3": ("RateParams.C3", lambda v: replace(RATES, C3=v)),
    "agent.rho": ("RateParams.rho", lambda v: replace(RATES, rho=v)),
    "agent.rho_prime": ("RateParams.rho_prime", lambda v: replace(RATES, rho_prime=v)),
    "agent.comp": ("RateParams.comp", lambda v: replace(RATES, comp=v)),
    "agent.alpha_ucb": ("LinUCBAgent.alpha_ucb",
                        lambda v: build_agent(RunConfig(agent="lin_ucb", alpha_ucb=v))),
    "agent.ridge": ("LinUCBAgent.ridge",
                    lambda v: build_agent(RunConfig(agent="lin_ucb", ridge=v))),
    "agent.batch_size": ("LinUCBAgent.batch_size",
                         lambda v: build_agent(RunConfig(agent="lin_ucb", batch_size=v))),
}
FLOAT_AGENT_KEYS = [key for key, _, parse, _ in AGENT_KEYS if parse is not int]
AGENT_ALLOWED = {key: allowed for key, _, _, allowed in AGENT_KEYS}


def outside_ends(parse, allowed):
    """The value just outside each end of ``allowed``: an open end itself, the
    next float (or integer) past a closed one.  An int row's infinite end is
    no integer: ``test_harness``'s integer test takes it."""
    lo, hi = (float(end) for end in allowed[1:-1].split(", "))
    if parse is int:
        return [int(lo) - 1, *([int(hi) + 1] if math.isfinite(hi) else [])]
    return [lo if allowed[0] == "(" else math.nextafter(lo, -math.inf),
            hi if allowed[-1] == ")" else math.nextafter(hi, math.inf)]


def assert_rejected_alike(key, value):
    """A config file and the row's owner in code both reject ``value`` for
    ``key``, with the one message of its row."""
    message = f"{key}: must be in {AGENT_ALLOWED[key]}"
    with pytest.raises(ConfigError) as info:
        parse_config(f"{key} = {value!r}\n")
    assert info.value.errors == [message]
    with pytest.raises(ValueError) as info:
        AGENT_BUILDS[key][1](value)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("key", FLOAT_AGENT_KEYS,
                         ids=[AGENT_BUILDS[key][0] for key in FLOAT_AGENT_KEYS])
def test_non_finite_parameter_rejected(key, value):
    assert_rejected_alike(key, value)


# Every block length up to 16 and some around 32, 64, 100 and 128 rows, up to
# 257: the widths' einsum runs its inner loop along them
LINUCB_BLOCK_ROWS = [*range(1, 17), 31, 64, 99, 100, 101, 128, 257]


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("K", [2, 3, 8, 9, 130])
@pytest.mark.parametrize("R", [1, 5, 16, 50])
def test_linucb_widths_bit_equal_to_row_major_einsum(R, K, p):
    # each arm's G_inv is the inverse of a ridge plus outer products whose
    # scales span twelve orders of magnitude, and contexts span four, so a
    # width summed in another order would round differently
    rng = np.random.default_rng([R, K, p])
    agent = LinUCBAgent(K, p - 1, alpha_ucb=0.7, ridge=1.0, batch_size=100, replications=R)
    B = rng.standard_normal((R, K, p, 2 * p)) * 10.0 ** rng.uniform(-6, 6, (R, K, p, 1))
    agent.G_inv = np.linalg.inv(10.0 ** rng.uniform(-3, 3, (R, K, 1, 1)) * np.eye(p)
                                + B @ B.transpose(0, 1, 3, 2))
    agent.theta = rng.standard_normal((R, K, p)) * 10.0 ** rng.uniform(-3, 3, (R, K, 1))
    for n in LINUCB_BLOCK_ROWS:
        shape = (R, n) if p == 2 else (R, n, p - 1)
        xs = rng.standard_normal(shape) * 10.0 ** rng.uniform(-2, 2, shape)
        widths, arms = linucb_scores_rows(agent, xs)
        assert np.isfinite(widths).all()
        assert agent.widths(featurize(xs, p - 1)).tobytes() == widths.tobytes(), n
        assert agent.act_block(1, xs, None).tobytes() == arms.tobytes(), n
