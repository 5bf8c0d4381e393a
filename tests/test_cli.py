import functools
import hashlib
import math
import os
import re
import subprocess
import sys

import pytest

import banditlab
from banditlab import falcon, harness, linmodel
from banditlab.cli import main
from banditlab.env import EnvSpec
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
    "epochs.csv": "25fbcf315855ed4e9ff7b4a9e4591a7c1f730de188bf64c927703549434fca8a",
    "weights.csv": "3b7be9bca153c7cb507feec6b1de81fd3e4fe5597a7c5c8730ad69c490c09465",
    "lemmas.csv": "467278488b3285bd71254beab7516f9af4df4666e9e8f90abe02562e3fba46f3",
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
        assert all(ev.converged for ev in results[-1].events)
        assert any(ev.lambda_star > 0 for ev in results[-1].events)  # it binds
        assert "did not converge" not in capsys.readouterr().err

        # one bisection step cannot tighten a binding constraint
        monkeypatch.setattr(falcon, "constrained_fit",
                            functools.partial(linmodel.constrained_fit, max_iters=1))
        assert main(["run", "--config", path]) == 0
        events = results[-1].events
        stuck = [ev.m for ev in events if not ev.converged]
        assert stuck
        # feasible, but short of the binding constraint's tolerance
        assert all(ev.lambda_star > 0 and ev.constraint_residual < -1e-6
                   for ev in events if not ev.converged)
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

    # mc_samples below, at and above the suite's 20,000-context cap
    @pytest.mark.parametrize("agent, mc_samples", [("epsilon_falcon", 2_000),
                                                   ("falcon", 20_000), ("lin_ucb", 100_000)])
    def test_diag_reproduces_the_runs_lemmas(self, tmp_path, agent, mc_samples):
        path = str(tmp_path / "sens.txt")
        save_config(RunConfig(env=EnvSpec(kind="sensitivity_family", theta=0.05), agent=agent,
                              horizon=300, mc_samples=mc_samples), path)
        out = tmp_path / "run"
        assert main(["run", "--config", path, "--seed", "3", "--out", str(out)]) == 0
        written = (out / "lemmas.csv").read_bytes()
        assert main(["diag", "--run", str(out)]) == 0
        assert (out / "lemmas.csv").read_bytes() == written


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
