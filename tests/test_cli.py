import contextlib
import hashlib
import io
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import banditlab
from banditlab import csvio, falcon, harness, linmodel
from banditlab.cli import main
from banditlab.env import ENV_KINDS, EnvSpec
from banditlab.harness import RunConfig, load_config, save_config


@pytest.fixture
def step_config(tmp_path):
    cfg = RunConfig(env=EnvSpec(kind="step_function"), agent="epsilon_falcon",
                    horizon=64, mc_samples=2_000)
    path = tmp_path / "step.txt"
    save_config(cfg, str(path))
    return str(path)


HEADLINE_FILES_PINNED = {
    "trace.csv": "cc6d09be775e576149242d41088df70538ea2c137510c499631fa56f037c38b4",
    "epochs.csv": "2b43ef361c020f38ae1f10d0db1a2d3db438d51341d73d621843443e2fbdd1fc",
    "weights.csv": "b19668ef8f6b05b8a1f96811f5a3df9934459238ce2675ce296fb2dcc2685f10",
    "lemmas.csv": "8b8ba13b8ed129698eace7fb030ad24717b7fef8684afbdf328400ee84ab769f",
}


class TestRunVerb:
    def test_run_writes_artifacts(self, step_config, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", "--config", step_config, "--out", out]) == 0
        assert sorted(os.listdir(out)) == ["config.txt", "epochs.csv",
                                           "lemmas.csv", "trace.csv", "weights.csv"]
        text = capsys.readouterr().out
        assert "cum_e_regret" in text

    def test_seed_override_recorded(self, step_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["run", "--config", step_config, "--seed", "99",
                     "--out", out]) == 0
        stored = load_config(os.path.join(out, "config.txt"))
        assert stored.base_seed == 99

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        for text, key in (("env.kind = step_function\nagent.epsilon = 0.9\n", "agent.epsilon"),
                          ("env.kind = sensitivity_family\nenv.theta = 0.05\nagent.c3 = inf\n",
                           "agent.c3"),
                          ("agent.epsilon = 0.1\nagent.epsilon = 0.3\n",
                           "agent.epsilon: repeated on lines 1 and 2")):
            bad.write_text(text)
            assert main(["run", "--config", str(bad)]) == 1
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("tau1, code", [(2 ** 62, 0), (2 ** 62 + 1, 1), (2 ** 63, 1)])
    def test_tau1_past_int64_rounds_exits_one(self, tmp_path, capsys, tau1, code):
        # past 2^62 the rounds would overflow int64: a config error, not a numerical one
        path = tmp_path / "tau1.txt"
        path.write_text(f"run.horizon = 16\nrun.mc_samples = 2000\nagent.tau1 = {tau1}\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == code
        message = "error: agent.tau1: must be in [4, 4611686018427387904]"
        assert (message in capsys.readouterr().err) == (code == 1)

    @pytest.mark.parametrize("lines, args, key", [
        ("run.base_seed = -1\n", [], "run.base_seed"),
        ("", ["--seed", "-1"], "run.base_seed"),
        ("env.kind = realizable_linear\nenv.seed = -1\n", [], "env.seed"),
    ], ids=["base_seed", "seed_flag", "env_seed"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, lines, args, key):
        path = tmp_path / "neg.txt"
        path.write_text("run.horizon = 64\n" + lines)
        assert main(["run", "--config", str(path), *args]) == 1
        assert f"error: {key}: must be in [0, inf)" in capsys.readouterr().err

    @pytest.mark.parametrize("agent", harness.AGENT_NAMES)
    def test_non_finite_rewards_exit_two(self, tmp_path, capsys, agent):
        # noise this large overflows to inf in round 37; before that, the
        # finite rewards of epoch 1 already overflow the moments of the
        # epoch agents' first refit, which stops with its own message
        path = tmp_path / "huge_noise.txt"
        save_config(RunConfig(env=EnvSpec(kind="step_function", noise_sd=1e308), agent=agent,
                              horizon=300, mc_samples=2_000), str(path))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        rows = {"epsilon_falcon": 1, "falcon": 3}.get(agent)
        assert capsys.readouterr().err == (
            "numerical failure: non-finite reward in round 37\n" if rows is None else
            f"numerical failure: arm 1's moments (G, b or yy) overflow: {rows} finite rows "
            f"fold to non-finite sums of products; the refit after epoch 1\n")
        assert not out.exists()

    @pytest.mark.parametrize("agent, rows", [("epsilon_falcon", 1), ("falcon", 3),
                                             ("lin_ucb", None), ("uniform", None)])
    def test_overflow_reported_without_numpy_warnings(self, tmp_path, agent, rows):
        # in a fresh interpreter, whose warnings reach stderr as a user's
        # would: the environment's noise scaling, the refit's moment fold,
        # the noisy-regret sum and LinUCB's statistics overflow, and only the
        # package's own message is printed
        path = tmp_path / "huge_noise.txt"
        save_config(RunConfig(env=EnvSpec(kind="step_function", noise_sd=1e308), agent=agent,
                              horizon=300, mc_samples=2_000), str(path))
        src = os.path.dirname(os.path.dirname(os.path.abspath(banditlab.__file__)))
        env = {**os.environ, "PYTHONWARNINGS": "default",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from banditlab.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "run", "--config", str(path), "--seed", "0",
             "--out", str(tmp_path / "out")], capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr == (
            "numerical failure: non-finite reward in round 37\n" if rows is None else
            f"numerical failure: arm 1's moments (G, b or yy) overflow: {rows} finite rows "
            f"fold to non-finite sums of products; the refit after epoch 1\n")

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("agent", harness.AGENT_NAMES)
    def test_overflowing_finite_rewards_exit_two_or_stay_finite(self, tmp_path, capsys,
                                                               agent, seed):
        # every reward is finite, but sums and refits of them can overflow
        path = tmp_path / "big_noise.txt"
        save_config(RunConfig(env=EnvSpec(kind="step_function", noise_sd=1e307), agent=agent,
                              horizon=300, mc_samples=2_000), str(path))
        out = tmp_path / "out"
        code = main(["run", "--config", str(path), "--seed", str(seed), "--out", str(out)])
        captured = capsys.readouterr()
        if code == 2:
            assert "numerical failure: " in captured.err
            return
        assert code == 0
        assert math.isfinite(float(re.search(r"noisy_regret=(\S+)", captured.out).group(1)))
        rows = (out / "weights.csv").read_text().splitlines()[1:]
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))

    def test_overflowing_linucb_state_exits_two(self, tmp_path, capsys):
        # every reward is finite, but LinUCB's bvec and theta overflow to inf
        # while the noisy-regret total stays finite
        path = tmp_path / "big_noise.txt"
        save_config(RunConfig(env=EnvSpec(kind="step_function", noise_sd=1e307),
                              agent="lin_ucb", horizon=300, mc_samples=2_000), str(path))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--seed", "6", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "numerical failure: non-finite LinUCB state (bvec or theta)\n"
        assert not out.exists()

    @pytest.mark.parametrize("agent, noise_sd, seed, message", [
        ("epsilon_falcon", 2e152, 0, "non-finite dual report (alpha, constraint residual or "
                                     "duality gap); the refit after epoch 6"),
        ("falcon", 5e151, 1, "non-finite mse_to_fhatstar of the refit after epoch 5")],
        ids=["epsilon_falcon", "falcon"])
    def test_overflowing_refit_and_diagnostics_exit_two_without_numpy_warnings(
            self, tmp_path, agent, noise_sd, seed, message):
        # in a fresh interpreter: every reward and moment is finite, but the
        # refit's residuals or the diagnostics' squared errors overflow
        path = tmp_path / "big_noise.txt"
        save_config(RunConfig(env=EnvSpec(kind="step_function", noise_sd=noise_sd), agent=agent,
                              horizon=600, mc_samples=2_000), str(path))
        src = os.path.dirname(os.path.dirname(os.path.abspath(banditlab.__file__)))
        env = {**os.environ, "PYTHONWARNINGS": "default",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / "out"
        proc = subprocess.run([sys.executable, "-m", "banditlab.cli", "run", "--config", str(path),
                               "--seed", str(seed), "--out", str(out)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (2, f"numerical failure: {message}\n")
        assert not out.exists()

    def test_headline_run_files_pinned(self, tmp_path):
        # The paper's headline instance at full length: 2^16 trace rows
        # (53,475 exactly zero e_regret cells, decimal exponents -7 to 3,
        # negative rewards) through every CSV writer.  Like the digests in
        # test_engine.py they hold fits, so they are tied to the numpy/BLAS
        # build they were taken on (numpy 2.4, OpenBLAS at 1 and 2 threads).
        path = tmp_path / "falcon.cfg"
        path.write_text("env.kind = sensitivity_family\nenv.theta = 0.05\n"
                        "agent.name = epsilon_falcon\nagent.epsilon = 0.1\n"
                        "run.horizon = 65536\nrun.mc_samples = 20000\nrun.base_seed = 1\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in HEADLINE_FILES_PINNED} == HEADLINE_FILES_PINNED

    def test_missing_file_exits_one(self):
        assert main(["run", "--config", "/nonexistent/nope.txt"]) == 1

    def test_unconverged_dual_is_reported(self, tmp_path, monkeypatch, capsys):
        # a small slack (c1) makes the constraint bind from epoch 6 on
        cfg = RunConfig(env=EnvSpec(kind="sensitivity_family", theta=0.05),
                        c1=1e-3, horizon=512, mc_samples=2_000)
        path = str(tmp_path / "sens.txt")
        save_config(cfg, path)
        results, run_one = [], harness.run_one
        monkeypatch.setattr(harness, "run_one",
                            lambda *a, **k: results.append(run_one(*a, **k)) or results[-1])

        assert main(["run", "--config", path]) == 0
        assert all(ev.report.converged for ev in results[-1].events)
        assert any(ev.report.lam > 0 for ev in results[-1].events)  # it binds
        assert "did not converge" not in capsys.readouterr().err

        # one bisection step cannot tighten a binding constraint
        monkeypatch.setattr(linmodel, "MAX_BISECTIONS", 1)
        assert main(["run", "--config", path]) == 0
        events = results[-1].events
        stuck = [ev.m for ev in events if not ev.report.converged]
        assert stuck
        # feasible, but short of the binding constraint's tolerance
        assert all(ev.report.lam > 0 and ev.report.constraint_residual < -1e-6
                   for ev in events if not ev.report.converged)
        lines = [ln for ln in capsys.readouterr().err.splitlines() if "did not converge" in ln]
        assert len(lines) == 1
        assert f"epochs {', '.join(map(str, stuck))};" in lines[0]


class TestSuiteVerb:
    def test_suite_writes_summary(self, step_config, tmp_path):
        out = str(tmp_path / "suite")
        assert main(["suite", "--config", step_config, "--reps", "3",
                     "--out", out]) == 0
        lines = (tmp_path / "suite" / "summary.csv").read_text().splitlines()
        assert lines[0] == "t,mean_e_regret,se_e_regret,mean_cum_e_regret,se_cum_e_regret"
        assert len(lines) == 65

    @pytest.mark.parametrize("error, code", [(ValueError, 1), (FloatingPointError, 2)])
    def test_replication_error_exit_code(self, step_config, tmp_path, monkeypatch,
                                         capsys, error, code):
        class FailingEnvironment(harness.Environment):
            def draw(self, n):
                raise error("boom")

        monkeypatch.setattr(harness, "Environment", FailingEnvironment)
        assert main(["suite", "--config", step_config, "--reps", "2",
                     "--out", str(tmp_path / "suite")]) == code
        assert "boom; replication 0" in capsys.readouterr().err


    def test_non_finite_rewards_exit_two(self, tmp_path, capsys):
        path = tmp_path / "huge_noise.txt"
        save_config(RunConfig(env=EnvSpec(kind="step_function", noise_sd=1e308), agent="uniform",
                              horizon=300, mc_samples=2_000), str(path))
        assert main(["suite", "--config", str(path), "--reps", "3",
                     "--out", str(tmp_path / "suite")]) == 2
        err = capsys.readouterr().err
        assert re.search(r"numerical failure: non-finite reward in round \d+; replication \d$",
                         err.strip()), err

    def test_overflowing_regret_total_names_its_replication(self, tmp_path, capsys):
        # seeds 2, 3, 4: every reward finite, seed 3's noisy-regret sum overflows
        path = tmp_path / "big_noise.txt"
        save_config(RunConfig(env=EnvSpec(kind="step_function", noise_sd=1e307), agent="uniform",
                              horizon=300, base_seed=2), str(path))
        assert main(["suite", "--config", str(path), "--reps", "3",
                     "--out", str(tmp_path / "suite")]) == 2
        assert capsys.readouterr().err == \
            "numerical failure: non-finite noisy regret total; replication 1\n"


class TestCompareVerb:
    def test_compare_two_configs(self, step_config, tmp_path, capsys):
        other = RunConfig(env=EnvSpec(kind="step_function"), agent="uniform",
                          horizon=64, mc_samples=2_000)
        other_path = tmp_path / "uniform.txt"
        save_config(other, str(other_path))
        out = str(tmp_path / "cmp")
        assert main(["compare", "--config", step_config, "--config",
                     str(other_path), "--out", out]) == 0
        lines = (tmp_path / "cmp" / "compare.csv").read_text().splitlines()
        assert lines[0] == "checkpoint,config,agent,cum_e_regret_mean,cum_e_regret_se"
        assert "checkpoint" in capsys.readouterr().out

    def test_failure_names_its_config(self, step_config, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        save_config(RunConfig(env=EnvSpec(kind="step_function"), agent="lin_ucb", ridge=1e-320,
                              horizon=64, mc_samples=2_000), str(bad))
        args = ["compare", "--config", step_config, "--config", str(bad), "--out",
                str(tmp_path / "cmp")]
        assert main(args) == 2  # a run failure names the config's index in compare.csv
        assert capsys.readouterr().err == ("numerical failure: non-finite LinUCB state "
                                           "(bvec or theta); replication 0; config 1\n")
        bad.write_text("env.kind = step_function\nagent.epsilon = 0.9\n")
        assert main(args) == 1  # a load failure names its file
        assert capsys.readouterr().err == \
            f"error: agent.epsilon: must be in [0, 0.5); config {bad}\n"

    def test_mismatched_envs_exit_one(self, step_config, tmp_path):
        other = RunConfig(env=EnvSpec(kind="sensitivity_family", theta=0.05),
                          horizon=64)
        other_path = tmp_path / "sens.txt"
        save_config(other, str(other_path))
        assert main(["compare", "--config", step_config, "--config",
                     str(other_path), "--out", str(tmp_path / "x")]) == 1


class TestDiagVerb:
    def test_reanalyze_run_dir(self, step_config, tmp_path, capsys):
        out = str(tmp_path / "run")
        assert main(["run", "--config", step_config, "--out", out]) == 0
        assert main(["diag", "--run", out]) == 0
        text = capsys.readouterr().out
        assert "kernel_estimated_regret" in text
        assert "FAIL" not in text

    # mc_samples below, at and above the suite's 20,000-context cap; a
    # horizon of 256 = tau_7 ends on an epoch boundary, so the last refit
    # installs a model that no epoch plays
    @pytest.mark.parametrize("agent, mc_samples, horizon", [
        pytest.param("epsilon_falcon", 2_000, 300, id="epsilon_falcon-2000"),
        pytest.param("falcon", 20_000, 300, id="falcon-20000"),
        pytest.param("lin_ucb", 100_000, 300, id="lin_ucb-100000"),
        pytest.param("epsilon_falcon", 2_000, 256, id="epsilon_falcon-2000-256"),
        pytest.param("falcon", 20_000, 256, id="falcon-20000-256")])
    def test_diag_reproduces_the_runs_lemmas(self, tmp_path, agent, mc_samples, horizon):
        path = str(tmp_path / "sens.txt")
        save_config(RunConfig(env=EnvSpec(kind="sensitivity_family", theta=0.05), agent=agent,
                              horizon=horizon, mc_samples=mc_samples), path)
        out = tmp_path / "run"
        assert main(["run", "--config", path, "--seed", "3", "--out", str(out)]) == 0
        if horizon == 256:  # 7 refits and the models of epochs 1..7
            assert len((out / "epochs.csv").read_text().splitlines()) == 1 + 7
            assert len((out / "weights.csv").read_text().splitlines()) == 1 + 7 * 2
        written = (out / "lemmas.csv").read_bytes()
        assert main(["diag", "--run", str(out)]) == 0
        assert (out / "lemmas.csv").read_bytes() == written

    # a config built in code may hold numpy floats; config.txt must read
    # back as the values the run used, or diag recomputes other lemmas
    @pytest.mark.parametrize("config", [
        pytest.param(RunConfig(env=EnvSpec(kind="step_function"), epsilon=np.float64(0.1),
                               horizon=300, mc_samples=2_000), id="float64_epsilon"),
        pytest.param(RunConfig(env=EnvSpec(kind="sensitivity_family", theta=np.float32(0.03)),
                               horizon=300, mc_samples=2_000), id="float32_theta")])
    def test_diag_reproduces_a_run_configured_with_numpy_floats(self, tmp_path, config):
        out = tmp_path / "run"
        csvio.write_run_dir(harness.run_one(config, seed=3), str(out))
        written = (out / "lemmas.csv").read_bytes()
        assert main(["diag", "--run", str(out)]) == 0
        assert (out / "lemmas.csv").read_bytes() == written

    # a weights.csv that the run did not write (header, then arms 1..2 of
    # epochs 1..8 of a 300-round run), and the line diag names
    MALFORMED_WEIGHTS = {
        "missing_arm": (lambda lines: [ln for ln in lines if not re.match(r"\d+,2,", ln)], 3),
        "relabelled_epoch": (lambda lines: [re.sub(r"^3,", "9,", ln) for ln in lines], 6),
        "header_only": (lambda lines: lines[:1], 2),
        "not_a_number": (lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",x\n",
                                        *lines[2:]], 2),
    }

    @pytest.mark.parametrize("damage", sorted(MALFORMED_WEIGHTS))
    def test_malformed_weights_exit_one(self, tmp_path, capsys, damage):
        path = str(tmp_path / "step.txt")
        save_config(RunConfig(env=EnvSpec(kind="step_function"), horizon=300, mc_samples=2_000),
                    path)
        out = tmp_path / "run"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        weights, lemmas = out / "weights.csv", (out / "lemmas.csv").read_bytes()
        damaged, lineno = self.MALFORMED_WEIGHTS[damage]
        weights.write_text("".join(damaged(weights.read_text().splitlines(keepends=True))))
        capsys.readouterr()
        assert main(["diag", "--run", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {weights}, line {lineno}: ")
        assert (out / "lemmas.csv").read_bytes() == lemmas


class TestOracleVerb:
    # the verb's whole stdout: the closed-form fit and errors of each family
    def test_step_oracle(self, capsys):
        assert main(["oracle", "--env", "step_function"]) == 0
        assert capsys.readouterr().out == (
            "best linear fit under uniform sampling (step_function):\n"
            "  arm 1: -0.25 1.5\n"
            "  arm 2: 0.5 0\n"
            "approximation error b = 0.03125\n"
            "worst-case error    B = 0.0625\n")

    def test_sensitivity_oracle(self, capsys):
        assert main(["oracle", "--env", "sensitivity_family", "--theta", "0.05"]) == 0
        assert capsys.readouterr().out == (
            "best linear fit under uniform sampling (sensitivity_family):\n"
            "  arm 1: 0.01675 0.2565\n"
            "  arm 2: 1 -0.7785\n"
            "approximation error b = 0.01649615625\n"
            "worst-case error    B = 0.0329923125\n")

    def test_realizable_oracle(self, capsys):
        assert main(["oracle", "--env", "realizable_linear"]) == 0
        assert capsys.readouterr().out == (
            "best linear fit under uniform sampling (realizable_linear):\n"
            "  arm 1: 0.2897821037 -0.06079216236\n"
            "  arm 2: 0.609450113 -0.01309329051\n"
            "approximation error b = 0\n"
            "worst-case error    B = 0\n")

    def test_sensitivity_without_theta_exits_one(self):
        assert main(["oracle", "--env", "sensitivity_family"]) == 1


# Configs whose every value lies in its key's interval, but whose run meets a
# number it cannot use: each is a numerical failure, with no numpy warning.
# Each exited 1 or 0, or let a numpy RuntimeWarning out, before these checks.
UNUSABLE_NUMBERS = {
    # a ridge of 1e-300 leaves LinUCB's G singular to working precision
    "singular_linucb": ("env.kind = realizable_linear\nenv.context_dim = 6\nagent.name = lin_ucb\n"
                        "agent.ridge = 1e-300\nagent.batch_size = 2\n", "Singular matrix"),
    # gamma_2 overflows to inf
    "gamma_comp": ("agent.name = falcon\nagent.comp = 5e-324\n",
                   "gamma of epoch 2 is inf; it must be finite and > 0"),
    "gamma_c3": ("agent.name = falcon\nagent.c3 = 1.7e308\n",
                 "gamma of epoch 2 is inf; it must be finite and > 0"),
    # epoch 1 has ceil(0.1 * 4) = 1 passive round, and ln^0.5(1) = 0
    "slack_rho_prime": ("agent.rho_prime = 0.5\n", "slack of epoch 1 is 0.0; it must be finite "
                        "and > 0; the refit after epoch 1"),
    "slack_c1": ("agent.c1 = 1.7e308\n",
                 "slack of epoch 1 is inf; it must be finite and > 0; the refit after epoch 1"),
    # the bonus -1e308 times a width near 1e150 overflows
    "linucb_scores": ("agent.name = lin_ucb\nagent.ridge = 1e-300\nagent.alpha_ucb = -1e308\n",
                      "non-finite LinUCB scores (theta . phi + alpha_ucb * width)"),
}


@pytest.mark.parametrize("name", UNUSABLE_NUMBERS)
def test_unusable_numbers_exit_two(tmp_path, capsys, name):
    lines, message = UNUSABLE_NUMBERS[name]
    path = tmp_path / "cfg.txt"
    path.write_text(f"run.horizon = 64\nrun.mc_samples = 2\n{lines}")  # on step_function
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"numerical failure: {message}\n"
        assert not out.exists()
        # a suite names the replication; every one fails alike here
        assert main(["suite", "--config", str(path), "--reps", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"numerical failure: {message}; replication 0\n"


@pytest.mark.parametrize("message", [
    "Unable to allocate 16.0 TiB for an array with shape (1, 1099511627776, 2) and data type "
    "float64", ""], ids=["numpy_message", "bare"])
def test_failed_allocation_exits_one(step_config, tmp_path, monkeypatch, capsys, message):
    # env.num_arms = 2^40 makes the agent's arrays fail to allocate (numpy's
    # _ArrayMemoryError is a MemoryError); raised here, since whether a real
    # allocation that large fails depends on the host's overcommit setting
    def build_agent(*args):
        raise MemoryError(message)

    monkeypatch.setattr(harness, "build_agent", build_agent)
    shown = message or "MemoryError"  # a bare MemoryError is named by its type
    out = tmp_path / "out"
    assert main(["run", "--config", step_config, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {shown}\n"
    assert main(["suite", "--config", step_config, "--reps", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {shown}; replication 0\n"
    assert not out.exists()


def edge_values(parse, allowed):
    """Config-file values at the edges of a numeric row's interval: each
    finite closed end, the value just inside each end, and the subnormals
    and the magnitudes near the float maximum that lie inside it."""
    lo, hi = (float(end) for end in allowed[1:-1].split(", "))
    if parse is int:
        ends = [int(lo), int(lo) + 1, *([int(hi) - 1, int(hi)] if math.isfinite(hi) else [])]
        return [str(v) for v in ends]
    first = lo if allowed[0] == "[" else math.nextafter(lo, math.inf)
    last = hi if allowed[-1] == "]" else math.nextafter(hi, -math.inf)
    values = {first, math.nextafter(first, math.inf), last, math.nextafter(last, -math.inf)}
    values |= {s * v for s in (1, -1) for v in (5e-324, 2.225073858507201e-308, 1e308)}
    return [repr(v) for v in sorted(values) if lo < v < hi or v in (first, last)]


# the run's sizes, drawn apart so that every run stays short
RUN_SIZES = {"run.horizon": ["1", "2", "5", "63", "64"], "run.replications": ["1", "2", "3"],
             "run.mc_samples": ["2", "3"]}
FUZZ_VALUES = {key: edge_values(parse, allowed) for key, _, parse, allowed in harness.CONFIG_KEYS
               if allowed is not None and key not in RUN_SIZES}
# 1e308 as an integer, in the rows whose value sizes no array
for key in ("env.seed", "agent.batch_size", "run.base_seed"):
    FUZZ_VALUES[key].append(str(10 ** 308))
FUZZ_VALUES["agent.comp"].append("auto")
FUZZ_VALUES["env.clip_rewards"] = ["true", "false"]
# nan may appear only where an unconstrained refit has no constraint
UNCONSTRAINED_NAN_COLUMNS = {"alpha", "slack", "lambda_star", "duality_gap"}


def assert_clean_csvs(out, unconstrained):
    """No cell under ``out`` is inf, and none is nan but the constraint's
    columns of an ``epochs.csv`` row of a run with no passive share."""
    for path in sorted(out.rglob("*.csv")):
        header, *rows = path.read_text().splitlines()
        columns = header.split(",")
        for row in rows:
            cells = dict(zip(columns, row.split(",")))
            assert not any(cell in ("inf", "-inf") for cell in cells.values()), (path.name, row)
            nan = {column for column, cell in cells.items() if cell == "nan"}
            if path.name == "epochs.csv" and nan and unconstrained:
                assert nan == UNCONSTRAINED_NAN_COLUMNS, (path.name, row)
            else:
                assert not nan, (path.name, row)


@st.composite
def edge_configs(draw, kind, agent):
    values = {"env.kind": kind, "agent.name": agent,
              **{key: draw(st.sampled_from(sizes)) for key, sizes in RUN_SIZES.items()}}
    keys = draw(st.lists(st.sampled_from(sorted(FUZZ_VALUES)), max_size=3, unique=True))
    if kind == "sensitivity_family":
        keys.append("env.theta")
    for key in keys:
        values[key] = draw(st.sampled_from(FUZZ_VALUES[key]))
    return "".join(f"{key} = {value}\n" for key, value in values.items())


@pytest.mark.parametrize("agent", harness.AGENT_NAMES)
@pytest.mark.parametrize("kind", ENV_KINDS)
def test_config_space_runs_cleanly_or_fails_by_name(kind, agent):
    """Every config drawn at the edges of the key rows runs and suites with
    exit 0 and clean CSVs, or exits 1 naming a key or 2 as a numerical
    failure, with no exception or RuntimeWarning escaping."""
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(edge_configs(kind, agent))
    def check(text):
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            path = os.path.join(tmp, "cfg.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            for verb in ("run", "suite"):
                out, err = pathlib.Path(tmp, verb), io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([verb, "--config", path, "--out", str(out)])
                err = err.getvalue()
                if code == 0:
                    assert_clean_csvs(out, harness.passive_share(harness.load_config(path)) == 0)
                elif code == 1:
                    assert re.match(r"error: (env|agent|run)\.\w+: ", err), (text, err)
                else:
                    assert code == 2 and err.startswith("numerical failure: "), (text, err)

    check()


def poison_third_refit(monkeypatch, replication):
    """Give the third refit's model nan weights in ``replication``; returns
    the list of refits made, one entry per ``fit_replications`` call."""
    calls = []

    def fit_replications(*args):
        calls.append(len(calls) + 1)
        fits = linmodel.fit_replications(*args)
        if len(calls) == 3:
            fits[replication][0].weights[:] = np.nan
        return fits

    monkeypatch.setattr(falcon, "fit_replications", fit_replications)
    return calls


def test_non_finite_refit_weights_stop_at_that_refit(tmp_path, monkeypatch, capsys):
    path = tmp_path / "cfg.txt"
    save_config(RunConfig(horizon=1024, base_seed=1, mc_samples=2_000), str(path))
    out, message = tmp_path / "out", "non-finite weights from the refit; the refit after epoch 3"
    calls = poison_third_refit(monkeypatch, 0)
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert calls == [1, 2, 3]  # no later refit runs: the horizon holds nine
    calls = poison_third_refit(monkeypatch, 1)
    assert main(["suite", "--config", str(path), "--reps", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"numerical failure: {message}; replication 1\n"
    assert calls == [1, 2, 3]
    assert not out.exists()


@pytest.mark.parametrize("agent", harness.AGENT_NAMES)
def test_overflow_band_runs_cleanly_or_fails_by_name(tmp_path, capsys, agent):
    # every reward and moment is finite; between about 1.3e151 and 1e153 an
    # epoch agent's refit residuals and diagnostics can overflow
    for noise_sd in (2e151, 5e151, 2e152, 1e153):
        path = tmp_path / "cfg.txt"
        save_config(RunConfig(env=EnvSpec(kind="step_function", noise_sd=noise_sd), agent=agent,
                              horizon=600, mc_samples=2_000), str(path))
        for seed in range(3):
            out = tmp_path / f"out_{noise_sd}_{seed}"
            code = main(["run", "--config", str(path), "--seed", str(seed), "--out", str(out)])
            err = capsys.readouterr().err
            if code == 0:
                assert_clean_csvs(out, agent == "falcon")
            else:
                assert code == 2 and re.fullmatch(r"numerical failure: [^\n]+\n", err), err
                assert not out.exists()
