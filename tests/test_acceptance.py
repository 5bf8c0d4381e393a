"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here, not configurable.  Criteria that depend on a
simulated trajectory use fixed seeds; the underlying effects were checked
to be stable across seeds before the seeds were frozen.
"""

import math

import numpy as np
import pytest

from banditlab.env import EnvSpec, best_linear_fit_uniform, draw_contexts, mean_reward_matrix
from banditlab.harness import RunConfig, run_many, run_suite
from banditlab.linmodel import (ConstraintSpec, DataBatch, LinearModel, constrained_fit,
                                fit_ols, row_max_argmax)

from oracles import (divergence_from, error_estimates_from, gaps_from, grid_search_constrained,
                     kernel_regret_from, mean_at, mse_from, normalized_sse,
                     package_kernel_rows, per_round, predict_matrix, tune_epsilon)

SENS05 = EnvSpec(kind="sensitivity_family", theta=0.05)
B_SENS05 = 0.01649615625  # closed-form approximation error at theta = 0.05


def report(num, ok, text):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def sens_run_eps01():
    cfg = RunConfig(env=SENS05, agent="epsilon_falcon", epsilon=0.1, delta=0.1,
                    horizon=2**14 * 4, mc_samples=10_000)
    return run_many(cfg, [20])[0]


def test_criterion_1_adaptive_sampling_pathology():
    """Data collected by the best-fit policy makes the unconstrained fit
    collapse to 'arm 1 is always worth 1', whose policy has regret >= 0.42."""
    spec = EnvSpec(kind="sensitivity_family", theta=0.05, noise_sd=0.0)
    env = per_round(spec, 1)
    pi = best_linear_fit_uniform(spec)
    batch = DataBatch(2)
    for _ in range(20_000):
        x = env.sample_context()
        a = int(row_max_argmax(predict_matrix(pi, [x]))[1][0]) + 1
        batch.append(x, a, env.sample_reward(x, a))
    erm = fit_ols(batch)
    w = erm.weights[0]
    weights_ok = abs(w[0] - 1.0) <= 0.05 and abs(w[1]) <= 0.05
    xs = draw_contexts(SENS05, 100_000, 2)
    reg = mean_at(gaps_from(mean_reward_matrix(SENS05, xs))[0],
                  gaps_from(predict_matrix(erm, xs))[1] + 1)
    regret_ok = reg.value >= 0.42 - 0.01 and reg.se < 0.01
    report(1, weights_ok and regret_ok,
           f"collapsed arm-1 weights ({w[0]:.4f}, {w[1]:.4f}) vs (1, 0); "
           f"induced-policy regret {reg.value:.4f} >= 0.42 (+-0.01)")


def test_criterion_2_small_approximation_error():
    """b <= theta/2 for theta in {0.01, 0.05}, and b <= B <= K*b."""
    ok = True
    detail = []
    for theta in (0.01, 0.05):
        spec = EnvSpec(kind="sensitivity_family", theta=theta)
        fit = best_linear_fit_uniform(spec)
        xs = draw_contexts(spec, 100_000, 3)
        b = error_estimates_from(fit.predict_rows(xs), mean_reward_matrix(spec, xs))[0]
        xs = draw_contexts(spec, 100_000, 4)
        B = error_estimates_from(fit.predict_rows(xs), mean_reward_matrix(spec, xs))[1]
        half = theta / 2
        ok &= b.value <= half + 1e-3
        ok &= b.value <= B.value + 3 * math.hypot(b.se, B.se)
        ok &= B.value <= 2 * b.value + 3 * math.hypot(B.se, 2 * b.se)
        detail.append(f"theta={theta}: b={b.value:.5f} (<= {half + 1e-3:.5f}), "
                      f"B={B.value:.5f} in [b, 2b]")
    report(2, ok, "; ".join(detail))


def test_criterion_3_constrained_oracle_correctness():
    """50 random 2-parameter instances: feasibility within 1e-6, grid-oracle
    objective match within 1e-2, complementary slackness."""
    rng = np.random.default_rng(5)
    tol = 1e-6
    worst_gap = 0.0
    ok = True
    for _ in range(50):
        wa = rng.uniform(-0.75, 0.75, 2)
        wp = rng.uniform(-0.75, 0.75, 2)
        act_rows, pas_rows = [], []
        for _ in range(10):
            xa, xp = rng.random(), rng.random()
            act_rows.append((xa, float(wa[0] + wa[1] * xa + 0.05 * rng.standard_normal())))
            pas_rows.append((xp, float(wp[0] + wp[1] * xp + 0.05 * rng.standard_normal())))
        act, pas = DataBatch(1), DataBatch(1)
        for rows, b in ((act_rows, act), (pas_rows, pas)):
            for x, r in rows:
                b.append(x, 1, r)
        slack = float(rng.uniform(0.02, 0.3))
        model, rep = constrained_fit(act, ConstraintSpec(pas, slack), tol=tol)
        ok &= normalized_sse(model, pas) <= rep.alpha + slack + tol
        ok &= rep.lam <= tol or abs(rep.constraint_residual) <= tol
        w0, w1, grid_obj = grid_search_constrained(act_rows, pas_rows, slack)
        gap = abs(normalized_sse(model, act) - grid_obj)
        worst_gap = max(worst_gap, gap)
        ok &= gap <= 1e-2
    report(3, ok, f"50 instances feasible within 1e-6, complementary slackness "
                  f"held, worst |objective - grid oracle| = {worst_gap:.2e} <= 1e-2")


def test_criterion_4_kernel_invariants_and_estimated_regret(sens_run_eps01):
    """Across a full run: kernels are proper distributions and their
    self-estimated regret stays under K/gamma each epoch."""
    arts = sens_run_eps01.artifacts
    K = 2
    rng = np.random.default_rng(6)
    ok = True
    worst_sum = 0.0
    margins = []
    assert len(arts.models) == 15  # horizon 2^14 * 4 with tau1 = 4
    for m, (model, gamma) in enumerate(zip(arts.models, arts.gammas), start=1):
        if m == 1:
            continue
        xs = rng.random(10_000)
        probs = package_kernel_rows(predict_matrix(model, xs), gamma)
        sums = probs.sum(axis=1)
        worst_sum = max(worst_sum, float(np.abs(sums - 1.0).max()))
        ok &= np.all(np.abs(sums - 1.0) <= 1e-12)
        best = np.argmax(predict_matrix(model, xs), axis=1)
        nonbest = probs.copy()
        nonbest[np.arange(len(xs)), best] = 0.0
        ok &= np.all(nonbest <= 1.0 / K + 1e-15)
        preds = predict_matrix(model, draw_contexts(arts.spec, 10_000, rng))
        est = kernel_regret_from(package_kernel_rows(preds, gamma), gaps_from(preds)[0])
        ok &= est.value <= K / gamma + 3 * est.se
        margins.append(K / gamma - est.value)
    report(4, ok, f"15 epochs: max |sum p - 1| = {worst_sum:.1e} <= 1e-12, "
                  f"non-best probs <= 1/K, estimated regret <= K/gamma "
                  f"(min margin {min(margins):.4f})")


def test_criterion_5_ucb_regret_degrades_after_learning():
    """LinUCB on the step environment, batch updates of 100, 50 runs: late
    per-round regret exceeds the early post-learning window."""
    cfg = RunConfig(env=EnvSpec(kind="step_function"), agent="lin_ucb",
                    batch_size=100, alpha_ucb=0.2, ridge=1.0,
                    horizon=10_000, replications=50, base_seed=100)
    summary = run_suite(cfg)
    early = float(summary.mean_e_regret[499:1500].mean())    # rounds 500..1500
    late = float(summary.mean_e_regret[4999:10_000].mean())  # rounds 5000..10000
    ok = late > early
    report(5, ok, f"mean per-round regret rounds [5000,10000] = {late:.4f} > "
                  f"[500,1500] = {early:.4f} (50 replications)")


def test_criterion_6_constraint_keeps_model_near_best_fit():
    """Matched seeds: the guarded agent's final model stays closer to the
    population fit than the unconstrained variant's, and every epoch's
    passive budget is respected."""
    eps = tune_epsilon(B_SENS05, 2, 1.0)
    T = 2**14 * 4
    guarded = RunConfig(env=SENS05, agent="epsilon_falcon", epsilon=eps,
                        delta=0.1, horizon=T, mc_samples=10_000)
    plain = RunConfig(env=SENS05, agent="falcon", delta=0.1, horizon=T,
                      mc_samples=10_000)
    res_g = run_many(guarded, [30])[0]
    res_p = run_many(plain, [30])[0]
    best_fit = best_linear_fit_uniform(SENS05)
    final_g = res_g.artifacts.models[-1]
    final_p = res_p.artifacts.models[-1]
    xs = draw_contexts(SENS05, 100_000, 7)
    mse_g = mse_from(predict_matrix(final_g, xs), predict_matrix(best_fit, xs))
    xs = draw_contexts(SENS05, 100_000, 8)
    mse_p = mse_from(predict_matrix(final_p, xs), predict_matrix(best_fit, xs))
    drift_ok = mse_g.value < mse_p.value
    budget_ok = all(ev.report.constraint_residual <= 1e-6 for ev in res_g.events)
    report(6, drift_ok and budget_ok,
           f"final-epoch mse to best fit: guarded {mse_g.value:.5f} < "
           f"plain {mse_p.value:.5f}; all {len(res_g.events)} epoch budgets "
           f"met within 1e-6 (eps={eps:.4f})")


def test_criterion_7_realizable_sublinear_growth():
    """On a well-specified instance the regret curve flattens: second half
    below first half, and R(4*T0) < 3 * R(T0)."""
    T0 = 2**13
    cfg = RunConfig(env=EnvSpec(kind="realizable_linear", seed=5),
                    agent="epsilon_falcon", epsilon=0.05, delta=0.1,
                    horizon=4 * T0, mc_samples=10_000)
    res = run_many(cfg, [40])[0]
    e = res.trace.e_regret
    cum = res.trace.cum_e_regret
    half1 = float(e[: 2 * T0].mean())
    half2 = float(e[2 * T0:].mean())
    ratio = float(cum[-1] / cum[T0 - 1])
    ok = half2 < half1 and ratio < 3.0
    report(7, ok, f"per-round regret halves {half1:.4f} -> {half2:.4f}; "
                  f"R(4*T0)/R(T0) = {ratio:.3f} < 3")


def test_criterion_8_divergence_sandwich():
    """gamma*E[gap] <= V(p, pi) <= K + gamma*E[gap] for random models and
    policies; V(p, pi_p) <= K for the kernel's own induced policy."""
    rng = np.random.default_rng(9)
    spec = EnvSpec(kind="realizable_linear", num_arms=2, seed=6)
    ok = True
    for _ in range(10):
        model = LinearModel(rng.uniform(0, 1, (2, 2)))
        target = LinearModel(rng.uniform(0, 1, (2, 2)))
        gamma = float(rng.uniform(0.5, 50))
        # kernel, gap and both policies' arms on a fresh sample per estimate
        xs = draw_contexts(spec, 20_000, rng)
        V = divergence_from(package_kernel_rows(predict_matrix(model, xs), gamma),
                            gaps_from(predict_matrix(target, xs))[1] + 1)
        xs = draw_contexts(spec, 20_000, rng)
        gap = mean_at(gaps_from(predict_matrix(model, xs))[0],
                      gaps_from(predict_matrix(target, xs))[1] + 1)
        band = 3 * math.hypot(V.se, gamma * gap.se)
        ok &= gamma * gap.value - band <= V.value <= 2 + gamma * gap.value + band
        xs = draw_contexts(spec, 20_000, rng)
        preds = predict_matrix(model, xs)
        V_self = divergence_from(package_kernel_rows(preds, gamma), gaps_from(preds)[1] + 1)
        ok &= V_self.value <= 2 + 3 * V_self.se
    report(8, ok, "10 random (model, policy, gamma) triples satisfy the "
                  "inverse-probability sandwich and V(p, pi_p) <= K")
