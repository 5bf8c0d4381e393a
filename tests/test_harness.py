import copy
import hashlib
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlab import falcon, harness
from banditlab.csvio import (EPOCHS_HEADER, TRACE_HEADER, read_weights_csv, write_compare_csv,
                             write_events_csv, write_run_dir, write_summary_csv, write_trace_csv)
from banditlab.diag import lemma_suite
from banditlab.env import (EnvSpec, best_linear_fit_uniform, draw_contexts, make_generator,
                           mean_reward_matrix)
from banditlab.falcon import EpochSchedule
from banditlab.harness import (ConfigError, ConfigMismatchError, RunConfig, checkpoints,
                               compare, load_config, parse_config, run_lemmas, run_many,
                               run_one, run_suite, save_config, serialize_config)
from banditlab.linmodel import DataBatch

from oracles import epoch_gammas, gaps_from, mean_at, mse_from, predict_matrix

ALLOWED = {key: allowed for key, _, _, allowed in harness.CONFIG_KEYS}
STEP = EnvSpec(kind="step_function")
SENS = EnvSpec(kind="sensitivity_family", theta=0.05)
FLOAT_KEYS = ("env.noise_sd", "env.theta", "agent.epsilon", "agent.delta", "agent.c1",
              "agent.c3", "agent.rho", "agent.rho_prime", "agent.comp", "agent.alpha_ucb",
              "agent.ridge")

INT_KEYS = [key for key, _, parse, _ in harness.CONFIG_KEYS if parse is int]
# each int row's owner in code: a build from one value
INT_BUILDS = {
    "env.num_arms": lambda v: EnvSpec(kind="realizable_linear", num_arms=v),
    "env.seed": lambda v: EnvSpec(seed=v),
    "env.context_dim": lambda v: EnvSpec(kind="realizable_linear", context_dim=v),
    "agent.tau1": EpochSchedule,
    "agent.batch_size": lambda v: harness.build_agent(RunConfig(agent="lin_ucb", batch_size=v)),
    **{key: lambda v, name=name: RunConfig(**{name: v}).validate()
       for key, name, parse, _ in harness.CONFIG_KEYS if key.startswith("run.") and parse is int},
}

# each float row's owner in code: a build from one value
FLOAT_BUILDS = {
    "env.noise_sd": lambda v: EnvSpec(noise_sd=v),
    "env.theta": lambda v: EnvSpec(kind="sensitivity_family", theta=v),
    "agent.epsilon": lambda v: harness.build_agent(RunConfig(epsilon=v)),
    "agent.delta": lambda v: replace(RunConfig().rate_params(), delta=v),
    "agent.c1": lambda v: replace(RunConfig().rate_params(), C1=v),
    "agent.c3": lambda v: replace(RunConfig().rate_params(), C3=v),
    "agent.rho": lambda v: replace(RunConfig().rate_params(), rho=v),
    "agent.rho_prime": lambda v: replace(RunConfig().rate_params(), rho_prime=v),
    "agent.comp": lambda v: replace(RunConfig().rate_params(), comp=v),
    "agent.alpha_ucb": lambda v: harness.build_agent(RunConfig(agent="lin_ucb", alpha_ucb=v)),
    "agent.ridge": lambda v: harness.build_agent(RunConfig(agent="lin_ucb", ridge=v)),
}


def small_config(**kw):
    defaults = dict(env=STEP, agent="epsilon_falcon", horizon=64,
                    mc_samples=2_000, replications=1, base_seed=7)
    defaults.update(kw)
    return RunConfig(**defaults)


class TestConfigValidation:
    def test_bad_epsilon_named(self):
        cfg = small_config(epsilon=0.7)
        errs = cfg.validation_errors()
        assert any("agent.epsilon" in e for e in errs)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_bad_horizon_named(self):
        errs = small_config(horizon=0).validation_errors()
        assert any("run.horizon" in e for e in errs)

    def test_unknown_agent(self):
        errs = small_config(agent="bayes_magic").validation_errors()
        assert any("agent.name" in e for e in errs)

    def test_valid_config_passes(self):
        small_config().validate()

    @pytest.mark.parametrize("key, value", [("run.mc_samples", "1"), ("run.base_seed", "-1"),
                                            ("env.seed", "-1"), ("agent.tau1", "3")])
    def test_out_of_interval_named(self, key, value):
        lines = serialize_config(small_config()).splitlines()  # a key may appear once
        text = "".join(f"{ln}\n" for ln in lines if not ln.startswith(f"{key} =")) \
            + f"{key} = {value}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == [f"{key}: must be in {ALLOWED[key]}"]

    def test_every_sections_errors_reported(self):
        text = ("env.kind = realizable_linear\nenv.num_arms = 1\nenv.noise_sd = nan\n"
                "agent.epsilon = 0.9\n")
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == ["env.num_arms: must be in [2, inf)",
                                     "env.noise_sd: must be in [0, inf)",
                                     "agent.epsilon: must be in [0, 0.5)"]

    def test_table_covers_every_field_once(self):
        keys = [key for key, *_ in harness.CONFIG_KEYS]
        assert len(set(keys)) == len(keys) == 24
        env_names = [name for key, name, *_ in harness.CONFIG_KEYS if key.startswith("env.")]
        run_names = [name for key, name, *_ in harness.CONFIG_KEYS
                     if not key.startswith("env.")]
        assert env_names == [f.name for f in fields(EnvSpec)]
        assert ["env"] + run_names == [f.name for f in fields(RunConfig)]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_named(self, key, value):
        lines = serialize_config(small_config(env=SENS)).splitlines()  # a key may appear once
        text = "".join(f"{ln}\n" for ln in lines if not ln.startswith(f"{key} =")) \
            + f"{key} = {value}\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == [f"{key}: must be in {ALLOWED[key]}"]
        # a config built in code is rejected the same way
        section, name = key.split(".")
        if section == "env":
            with pytest.raises(ValueError, match=re.escape(key)):
                replace(SENS, **{name: float(value)})
        else:
            errs = replace(small_config(env=SENS), **{name: float(value)}).validation_errors()
            assert any(e.startswith(key) for e in errs)


    @pytest.mark.parametrize("key", INT_KEYS)
    def test_int_row_takes_only_integers(self, key):
        build = INT_BUILDS[key]
        for value in (4, np.int64(4)):
            build(value)
        for value in (True, 4.0, np.float64(4.0), 4.5, math.nan, math.inf):
            with pytest.raises(ValueError) as info:
                build(value)
            assert str(info.value) == f"{key}: must be an integer"
            # a config file cannot hold such a value: it does not parse as an int
            with pytest.raises(ConfigError) as info:
                parse_config(f"{key} = {value}\n")
            assert info.value.errors == [f"{key}: cannot parse {str(value)!r}"]

    def test_float_rows_are_every_other_row_with_an_interval(self):
        assert sorted(FLOAT_BUILDS) == sorted(FLOAT_KEYS) == sorted(
            key for key, _, parse, allowed in harness.CONFIG_KEYS
            if allowed is not None and parse is not int)

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_float_row_takes_only_real_numbers(self, key):
        build, name = FLOAT_BUILDS[key], key.split(".")[1]
        for value in (0.01, np.float64(0.01), np.float32(0.01)):
            build(value)
        for value in (True, False, np.bool_(True), "0.01", 0.01j):
            message = f"{key}: must be a number"
            with pytest.raises(ValueError) as info:
                build(value)
            assert str(info.value) == message
            if key.startswith("env."):
                # a spec built with the value bypassing its own check
                spec = copy.copy(SENS)
                object.__setattr__(spec, name, value)
                config = small_config(env=spec)
            else:
                config = replace(small_config(env=SENS), **{name: value})
            with pytest.raises(ConfigError) as info:
                config.validate()
            assert info.value.errors == [message]


class TestConfigRoundTrip:
    def test_round_trip_identity(self):
        cfg = RunConfig(env=EnvSpec(kind="sensitivity_family", theta=0.02,
                                    noise_sd=0.05, seed=9),
                        agent="lin_ucb", alpha_ucb=1.5, ridge=2.0, batch_size=25,
                        horizon=500, replications=3, base_seed=42,
                        mc_samples=5_000, out_dir="runs/demo")
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_defaults(self):
        cfg = RunConfig(env=STEP)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_comp_auto(self):
        cfg = RunConfig(env=STEP, comp=None)
        text = serialize_config(cfg)
        assert "agent.comp = auto" in text
        assert parse_config(text).comp is None

    def test_file_round_trip(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "config.txt"
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg

    @pytest.mark.parametrize("value, text", [
        (np.float64(0.1), "0.1"),
        # str() of a float32 is its shortest float32 spelling, another float64
        (np.float32(0.1), "0.10000000149011612")])
    def test_numpy_scalar_set_after_construction_saved_as_python_number(
            self, value, text, tmp_path):
        cfg = small_config()
        cfg.epsilon = value  # after construction: not converted to a Python number
        cfg.validate()
        assert f"agent.epsilon = {text}" in serialize_config(cfg).splitlines()
        path = tmp_path / "config.txt"
        save_config(cfg, str(path))
        assert load_config(str(path)) == cfg

    def test_comments_and_blanks_ignored(self):
        cfg = small_config()
        text = "# a comment\n\n" + serialize_config(cfg) + "\n# trailing\n"
        assert parse_config(text) == cfg

    def test_unknown_key_rejected(self):
        text = serialize_config(small_config()) + "agent.warp_factor = 9\n"
        with pytest.raises(ConfigError, match="warp_factor"):
            parse_config(text)

    def test_repeated_key_rejected(self):
        text = "agent.epsilon = 0.1\n# again\nagent.epsilon = 0.3\n"
        with pytest.raises(ConfigError) as info:
            parse_config(text)
        assert info.value.errors == ["agent.epsilon: repeated on lines 1 and 3"]

    def test_unparsable_value_rejected(self):
        text = serialize_config(small_config()).replace(
            "run.horizon = 64", "run.horizon = om")
        with pytest.raises(ConfigError, match="run.horizon"):
            parse_config(text)


PINNED_CONFIG_TEXT = [
    (RunConfig(), """\
env.kind = step_function
env.num_arms = 2
env.noise_sd = 0.1
env.seed = 0
env.clip_rewards = false
env.context_dim = 1
agent.name = epsilon_falcon
agent.epsilon = 0.1
agent.delta = 0.1
agent.tau1 = 4
agent.c1 = 1.0
agent.c3 = 1.0
agent.rho = 1.0
agent.rho_prime = 0.0
agent.comp = auto
agent.alpha_ucb = 0.2
agent.ridge = 1.0
agent.batch_size = 100
run.horizon = 1000
run.replications = 1
run.base_seed = 0
run.mc_samples = 100000
"""),
    (RunConfig(env=EnvSpec(kind="sensitivity_family", theta=0.03, noise_sd=0.05, seed=5),
               epsilon=0.25, c1=2.5, rho=0.5, rho_prime=0.25, comp=12.5, horizon=4096,
               replications=8, base_seed=17, mc_samples=5000, out_dir="runs/sens"), """\
env.kind = sensitivity_family
env.num_arms = 2
env.noise_sd = 0.05
env.theta = 0.03
env.seed = 5
env.clip_rewards = false
env.context_dim = 1
agent.name = epsilon_falcon
agent.epsilon = 0.25
agent.delta = 0.1
agent.tau1 = 4
agent.c1 = 2.5
agent.c3 = 1.0
agent.rho = 0.5
agent.rho_prime = 0.25
agent.comp = 12.5
agent.alpha_ucb = 0.2
agent.ridge = 1.0
agent.batch_size = 100
run.horizon = 4096
run.replications = 8
run.base_seed = 17
run.mc_samples = 5000
run.out_dir = runs/sens
"""),
    (RunConfig(env=EnvSpec(kind="realizable_linear", num_arms=3, context_dim=2, noise_sd=0.2,
                           seed=11, clip_rewards=True),
               agent="lin_ucb", alpha_ucb=1.5, ridge=2.0, batch_size=25, horizon=500), """\
env.kind = realizable_linear
env.num_arms = 3
env.noise_sd = 0.2
env.seed = 11
env.clip_rewards = true
env.context_dim = 2
agent.name = lin_ucb
agent.epsilon = 0.1
agent.delta = 0.1
agent.tau1 = 4
agent.c1 = 1.0
agent.c3 = 1.0
agent.rho = 1.0
agent.rho_prime = 0.0
agent.comp = auto
agent.alpha_ucb = 1.5
agent.ridge = 2.0
agent.batch_size = 25
run.horizon = 500
run.replications = 1
run.base_seed = 0
run.mc_samples = 100000
"""),
]


def floats(lo=None, hi=None, exclude_lo=False, exclude_hi=False):
    return st.floats(lo, hi, exclude_min=exclude_lo, exclude_max=exclude_hi,
                     allow_nan=False, allow_infinity=False)


@st.composite
def valid_configs(draw):
    """A valid config with every key set: each value inside its allowed
    interval, ``comp`` auto or a float, ``theta`` and ``out_dir`` absent or set."""
    kind = draw(st.sampled_from(["step_function", "sensitivity_family", "realizable_linear"]))
    realizable = kind == "realizable_linear"
    spec = EnvSpec(
        kind=kind,
        num_arms=draw(st.integers(2, 6)) if realizable else 2,
        noise_sd=draw(floats(0.0)),
        theta=draw(floats(0.0, 0.05, exclude_lo=True)) if kind == "sensitivity_family" else None,
        seed=draw(st.integers(0, 2**63)),
        clip_rewards=draw(st.booleans()),
        context_dim=draw(st.integers(1, 4)) if realizable else 1)
    positive = floats(0.0, exclude_lo=True)
    return RunConfig(
        env=spec,
        agent=draw(st.sampled_from(harness.AGENT_NAMES)),
        epsilon=draw(floats(0.0, 0.5, exclude_hi=True)),
        delta=draw(floats(0.0, 0.5, exclude_lo=True)),
        tau1=draw(st.integers(4, 10**6)),
        c1=draw(positive),
        c3=draw(positive),
        rho=draw(floats(0.0, 1.0, exclude_lo=True)),
        rho_prime=draw(floats(0.0)),
        comp=draw(st.none() | positive),
        alpha_ucb=draw(floats()),
        ridge=draw(positive),
        batch_size=draw(st.integers(1, 10**6)),
        horizon=draw(st.integers(1, 10**9)),
        replications=draw(st.integers(1, 10**4)),
        base_seed=draw(st.integers(0, 2**63)),
        mc_samples=draw(st.integers(2, 10**9)),
        out_dir=draw(st.none() | st.from_regex(r"[A-Za-z0-9_./-]+", fullmatch=True)))


class TestConfigFormat:
    @pytest.mark.parametrize("config, text", PINNED_CONFIG_TEXT,
                             ids=["default", "sensitivity", "realizable"])
    def test_serialized_text_pinned(self, config, text):
        assert serialize_config(config) == text

    @settings(max_examples=200, deadline=None)
    @given(valid_configs())
    def test_round_trip_any_valid_config(self, cfg):
        assert parse_config(serialize_config(cfg)) == cfg


def readme_key_rows():
    """The rows of README's "Configuration keys" table, as lists of cells."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        section = fh.read().split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    lines = [ln for ln in section.splitlines() if ln.startswith("| `")]
    return [[cell.strip() for cell in ln.strip("|").split("|")] for ln in lines]


def test_readme_documents_every_key():
    """README has one row per key, in table order, with the default and the
    allowed interval the code uses: a key added without docs fails here."""
    rows = readme_key_rows()
    assert [row[0].strip("`") for row in rows] == [key for key, *_ in harness.CONFIG_KEYS]
    defaults = RunConfig()
    for row, (key, name, parse, allowed) in zip(rows, harness.CONFIG_KEYS):
        default = getattr(defaults.env if key.startswith("env.") else defaults, name)
        assert (None if row[1] == "–" else parse(row[1].strip("`"))) == default, key
        assert row[2] == (allowed or "–"), key


class TestRunOne:
    def test_one_epoch_at_horizon_four(self):
        res = run_many(small_config(horizon=4), [0])[0]
        assert len(res.events) == 1
        assert res.events[0].m == 1
        assert res.events[0].tau_end == 4
        # the next epoch's model was fit at t = 4
        assert len(res.models) == 1  # only epoch 1 actually ran

    def test_models_are_the_zero_model_then_the_refits_own(self):
        # horizon 100 ends inside epoch 6: five refits played, the sixth not yet made
        for res in run_many(small_config(horizon=100), [0, 1, 2]):
            assert len(res.models) == 6 and len(res.events) == 5
            assert not res.models[0].weights.any()
            assert all(res.models[k] is res.events[k - 1].new_model for k in range(1, 6))

    def test_trace_shape_and_epochs(self):
        res = run_many(small_config(horizon=20), [1])[0]
        tr = res.trace
        assert len(tr) == 20
        assert tr.t[0] == 1 and tr.t[-1] == 20
        np.testing.assert_array_equal(np.unique(tr.epoch), [1, 2, 3, 4])
        assert set(np.unique(tr.phase)) <= {"active", "passive"}

    def test_overflowed_moments_stop_the_refit(self, monkeypatch):
        # finite rewards of about 1e308 overflow r^2 in the first refit's
        # moments; no refit may install weights solved from them
        installed = []
        update = harness.EpsilonFalconAgent.end_of_epoch_update

        def spy(self):
            update(self)
            installed.append(self.weights.copy())

        monkeypatch.setattr(harness.EpsilonFalconAgent, "end_of_epoch_update", spy)
        cfg = RunConfig(env=EnvSpec(kind="step_function", noise_sd=1e308), horizon=300)
        with pytest.raises(FloatingPointError, match=r"arm 1's moments \(G, b or yy\) "
                                                     r"overflow") as info:
            run_many(cfg, [0])
        assert info.value.__notes__ == ["the refit after epoch 1"]
        assert all(np.isfinite(w).all() for w in installed)

    @pytest.mark.parametrize("horizon, seed", [(300, 6), (150, 1)],
                             ids=["at_a_refresh", "after_the_last_refresh"])
    def test_overflowed_linucb_state_names_its_replication(self, horizon, seed):
        # finite rewards of about 1e307 overflow the seed's bvec: a refresh
        # reports it before any score is taken from its theta, the check
        # after the loop when no refresh follows the overflow
        cfg = RunConfig(env=EnvSpec(kind="step_function", noise_sd=1e307), agent="lin_ucb",
                        horizon=horizon)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(FloatingPointError,
                               match=r"non-finite LinUCB state \(bvec or theta\)") as info:
                run_many(cfg, [0, seed])
        assert info.value.replication == 1

    def test_expected_regret_nonnegative(self):
        res = run_many(small_config(horizon=256), [2])[0]
        assert res.trace.e_regret.min() >= 0.0
        diffs = np.diff(res.trace.cum_e_regret)
        assert diffs.min() >= -1e-15

    def test_deterministic_trace_files(self, tmp_path):
        cfg = small_config(horizon=128)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(run_many(cfg, [5])[0].trace, str(p1))
        write_trace_csv(run_many(cfg, [5])[0].trace, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        a = run_many(small_config(horizon=64), [1])[0]
        b = run_many(small_config(horizon=64), [2])[0]
        assert not np.array_equal(a.trace.action, b.trace.action)

    def test_uniform_agent_matches_diag_estimate(self):
        cfg = small_config(agent="uniform", horizon=10_000)
        res = run_many(cfg, [3])[0]
        per_round = res.trace.e_regret.mean()
        # uniform randomized policy regret = mean of the constant policies'
        gaps1 = gaps_from(mean_reward_matrix(STEP, draw_contexts(STEP, 50_000, 0)))[0]
        gaps2 = gaps_from(mean_reward_matrix(STEP, draw_contexts(STEP, 50_000, 1)))[0]
        reg1, reg2 = mean_at(gaps1, np.full(50_000, 1)), mean_at(gaps2, np.full(50_000, 2))
        expected = 0.5 * (reg1.value + reg2.value)
        se = res.trace.e_regret.std(ddof=1) / math.sqrt(len(res.trace))
        assert abs(per_round - expected) <= 3 * math.hypot(se, reg1.se, reg2.se)

    def test_lemma_report_on_request(self):
        res = run_one(small_config(horizon=32), seed=4)
        assert res.lemma_report is not None
        assert all(c.passed for c in res.lemma_report)

    def test_diagnostics_pass_reads_one_sample(self):
        # every epoch's MSE and the whole suite come from the one sample
        # drawn from the diagnostics child; the best fit is predicted row by
        # row, as the diagnostics pass predicts it (a GEMM can round apart)
        cfg = small_config(env=EnvSpec(kind="sensitivity_family", theta=0.05), horizon=128)
        res = run_one(cfg, seed=3)
        diag_ss = np.random.SeedSequence(3).spawn(3)[2].spawn(1)[0]
        xs = draw_contexts(cfg.env, cfg.mc_samples, make_generator(diag_ss))
        best_fit = best_linear_fit_uniform(cfg.env)
        assert [ev.mse_to_best_fit for ev in res.events] == \
            [mse_from(predict_matrix(ev.new_model, xs),
                      best_fit.predict_rows(xs)).value for ev in res.events]
        assert res.lemma_report == lemma_suite(cfg.env, res.models,
                                               epoch_gammas(cfg, len(res.models)), xs)

    def test_falcon_agent_epoch_events_filled(self):
        res = run_one(small_config(horizon=64), seed=6)
        assert len(res.events) == 5  # epochs ending at 4, 8, 16, 32, 64
        for ev in res.events:
            assert math.isfinite(ev.mse_to_best_fit)
            assert ev.gamma > 0

    def test_events_hold_the_oracles_own_model_and_report(self, monkeypatch, tmp_path):
        # one refit call per epoch returns each replication's fit in order;
        # a small slack (c1) makes the constraint bind from epoch 6 on
        fits, fit = [], falcon.fit_replications
        monkeypatch.setattr(falcon, "fit_replications",
                            lambda *a, **k: fits.extend(out := fit(*a, **k)) or out)
        results = run_many(small_config(env=SENS, c1=1e-3, horizon=512), [1, 2, 3])
        assert len(fits) == 3 * len(results[0].events) == 3 * 8  # epochs ending at 4..512
        for r, res in enumerate(results):
            for ev in res.events:
                model, report = fits[3 * (ev.m - 1) + r]
                assert ev.new_model is model and ev.report is report
                assert ev.report.n_weighted_fits >= 1
        assert any(report.lam > 0 for _, report in fits)  # it binds

        fits.clear()
        res = run_many(small_config(env=SENS, agent="falcon", horizon=512), [1])[0]
        # FALCON's refits are plain least squares: no constrained oracle ran
        assert len(fits) == len(res.events) and all(report is None for _, report in fits)
        assert res.events and all(ev.report is None for ev in res.events)
        write_events_csv(res.events, str(tmp_path / "epochs.csv"))
        header, *rows = (tmp_path / "epochs.csv").read_text().splitlines()
        oracle_columns = ["alpha", "slack", "lambda_star", "duality_gap"]
        for row in rows:
            cells = dict(zip(header.split(","), row.split(",")))
            assert [cells[name] for name in oracle_columns] == ["nan"] * 4


class TestRunSuite:
    def test_single_replication_equals_run_one(self):
        cfg = small_config(horizon=64, replications=1)
        summary = run_suite(cfg)
        res = run_many(cfg, [cfg.base_seed])[0]
        np.testing.assert_allclose(summary.mean_e_regret, res.trace.e_regret)
        np.testing.assert_array_equal(summary.se_e_regret, np.zeros(64))

    def test_chunk_size_does_not_change_the_summary(self, tmp_path, monkeypatch):
        from banditlab.csvio import write_summary_csv
        cfg = small_config(horizon=32, replications=5)
        write_summary_csv(run_suite(cfg), str(tmp_path / "default.csv"))
        monkeypatch.setattr(harness, "REPLICATIONS_PER_CHUNK", 2)
        write_summary_csv(run_suite(cfg), str(tmp_path / "pairs.csv"))
        assert (tmp_path / "pairs.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()

    def test_replication_error_keeps_its_class(self, monkeypatch):
        cfg = small_config(replications=3)
        failing_seed = cfg.base_seed + 2

        class InfiniteNoise:
            def standard_normal(self, size):
                return np.full(size, np.inf)

        class FailingEnvironment(harness.Environment):
            # the failing seed's noise child draws inf, so its rewards are
            # the environment's one failure: a non-finite reward
            def __init__(self, spec, seeds):
                super().__init__(spec, seeds)
                for r, seed in enumerate(seeds):  # each seed is a run seed's first child
                    if seed.entropy == failing_seed:
                        self.noise_rngs[r] = InfiniteNoise()

        monkeypatch.setattr(harness, "Environment", FailingEnvironment)
        assert harness.REPLICATIONS_PER_CHUNK >= 3  # one chunk of three
        with pytest.raises(FloatingPointError, match="non-finite reward in round 1") as info:
            run_suite(cfg)
        assert info.value.__notes__ == ["replication 2"]

    def test_replication_streams_stable_under_R(self):
        cfg3 = small_config(horizon=32, replications=3)
        cfg5 = small_config(horizon=32, replications=5)
        r3 = [run_many(cfg3, [cfg3.base_seed + r])[0].trace.action
              for r in range(3)]
        r5 = [run_many(cfg5, [cfg5.base_seed + r])[0].trace.action
              for r in range(3)]
        for a, b in zip(r3, r5):
            np.testing.assert_array_equal(a, b)


class TestDrawPlan:
    """Environment draws and agent blocks per suite: a draw holds up to
    ROUNDS_PER_DRAW rounds over the replications of a chunk, stops at an
    epoch's end for an epoch agent only, and holds whole LinUCB refresh
    batches."""

    @pytest.mark.parametrize("config, draws, blocks", [
        (RunConfig(env=STEP, agent="lin_ucb", batch_size=100, horizon=10_000, replications=5,
                   base_seed=1), 13, 100),
        (RunConfig(env=STEP, agent="lin_ucb", batch_size=100, horizon=10_000, replications=50,
                   base_seed=100), 155, 400),
        (RunConfig(env=STEP, agent="uniform", horizon=10_000, replications=5, base_seed=1),
         13, 13),
        (RunConfig(env=SENS, horizon=2 ** 16, base_seed=1), 26, 41),
    ], ids=["lin_ucb_bench", "lin_ucb_criterion_5", "uniform", "eps_falcon_headline"])
    def test_draw_and_block_counts(self, monkeypatch, config, draws, blocks):
        counts = {"draws": 0, "blocks": 0}
        draw, build = harness.Environment.draw, harness.build_agent

        def counted_draw(env, n):
            counts["draws"] += 1
            return draw(env, n)

        def counted_agent(*args):
            agent = build(*args)
            record = agent.record_block

            def counted_record(*record_args):
                counts["blocks"] += 1
                return record(*record_args)

            agent.record_block = counted_record
            return agent

        monkeypatch.setattr(harness.Environment, "draw", counted_draw)
        monkeypatch.setattr(harness, "build_agent", counted_agent)
        run_suite(config)
        assert counts == {"draws": draws, "blocks": blocks}


class TestSuiteBlocks:
    """``run_suite`` builds its summary in blocks of rounds, each block's
    cumulative regret continued from the block before."""

    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("R", [1, 2, 5, 16, 50])
    def test_block_summary_equals_the_whole_array(self, monkeypatch, R, block):
        T = 8193  # a last block of 1 round at block sizes 1, 2, 4096 or 8192
        rng = np.random.default_rng(R * block)
        e = rng.random((R, T)) * (rng.random((R, T)) < 0.4) * rng.uniform(0.1, 10.0, (R, 1))
        cfg = small_config(horizon=T, replications=R, base_seed=100)
        kept = set()

        def played(config, seeds, keep_data):
            kept.add(keep_data)
            return [SimpleNamespace(trace=SimpleNamespace(e_regret=e[seed - 100]))
                    for seed in seeds]

        monkeypatch.setattr(harness, "_run_many", played)
        monkeypatch.setattr(harness, "ROUNDS_PER_SUMMARY_BLOCK", block)
        summary = run_suite(cfg)
        assert kept == {False}  # the suite keeps only e_regret
        cum = np.cumsum(e, axis=1)
        zeros = np.zeros(T)
        for got, want in ((summary.mean_e_regret, e.mean(axis=0)),
                          (summary.se_e_regret,
                           e.std(axis=0, ddof=1) / math.sqrt(R) if R > 1 else zeros),
                          (summary.mean_cum_e_regret, cum.mean(axis=0)),
                          (summary.se_cum_e_regret,
                           cum.std(axis=0, ddof=1) / math.sqrt(R) if R > 1 else zeros)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("block", [1, 7])
    def test_pinned_suite_in_small_blocks(self, monkeypatch, block):
        label, config, sha256 = SUITES_PINNED[1]
        monkeypatch.setattr(harness, "ROUNDS_PER_SUMMARY_BLOCK", block)
        assert summary_sha256(run_suite(config)) == sha256


@pytest.mark.parametrize("agent", harness.AGENT_NAMES)
def test_engine_builds_no_data_batch(agent, monkeypatch):
    # every agent keeps running moments (MomentStore), never the rows
    def refuse(self, *args, **kwargs):
        raise AssertionError("the engine built a DataBatch")

    monkeypatch.setattr(DataBatch, "__init__", refuse)
    cfg = RunConfig(env=SENS, agent=agent, epsilon=0.25, horizon=300, replications=3)
    run_many(cfg, [0, 1])
    run_suite(cfg)


class TestMemory:
    """Peak traced memory (``tracemalloc``, numpy's buffers included) per
    replication-round, after a warm-up run.  Each bound is twice what the
    run or suite took (65.3 and 26.5 bytes) with only the data columns
    stored, the schedule columns made at write time, batch rows kept as
    float64 pieces and a suite keeping e_regret alone.  Before that, the
    suite took 87.7 bytes.

    The diagnostics pass of the benchmark's ``falcon_run`` (sensitivity
    family, T = 2^16, 20,000 contexts, 14 epoch models) peaks at 2.90 MB
    with one epoch's predictions alive at a time; its bound is twice that.
    Keeping every epoch's predictions would add about 4.8 MB."""

    RUN_BYTES_BOUND = 131
    SUITE_BYTES_BOUND = 53
    LEMMAS_BYTES_BOUND = 5_794_000
    # a full 16-replication chunk keeps no rows, only running moments: 8
    # bytes of e_regret per replication-round and the draws in flight (11.8
    # bytes measured); one more full-length float64 column would pass 16
    LONG_SUITE_BYTES_BOUND = 16

    @staticmethod
    def peak_per_round(play, rounds: int) -> float:
        run_many(RunConfig(env=SENS, horizon=256), [0])  # warm-up: one-time caches
        tracemalloc.start()
        try:
            play()
            return tracemalloc.get_traced_memory()[1] / rounds
        finally:
            tracemalloc.stop()

    def test_run_memory_per_round(self):
        T = 2 ** 15
        peak = self.peak_per_round(lambda: run_many(RunConfig(env=SENS, horizon=T), [1]), T)
        assert peak <= self.RUN_BYTES_BOUND

    def test_suite_memory_per_replication_round(self):
        cfg = RunConfig(env=SENS, horizon=2 ** 14, replications=4, base_seed=100)
        peak = self.peak_per_round(lambda: run_suite(cfg), 4 * 2 ** 14)
        assert peak <= self.SUITE_BYTES_BOUND

    def test_long_suite_memory_per_replication_round(self):
        cfg = RunConfig(env=SENS, horizon=2 ** 16, replications=16, base_seed=100)
        peak = self.peak_per_round(lambda: run_suite(cfg), 16 * 2 ** 16)
        assert peak <= self.LONG_SUITE_BYTES_BOUND

    def test_diagnostics_pass_memory(self):
        cfg = RunConfig(env=SENS, horizon=2 ** 16, mc_samples=20_000)
        res = run_many(cfg, [1])[0]
        run_lemmas(cfg, 1, res.models, res.events)  # warm-up
        tracemalloc.start()
        try:
            run_lemmas(cfg, 1, res.models, res.events)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.LEMMAS_BYTES_BOUND


def summary_sha256(summary) -> str:
    digest = hashlib.sha256()
    for a in (summary.mean_e_regret, summary.se_e_regret, summary.mean_cum_e_regret,
              summary.se_cum_e_regret):
        digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return digest.hexdigest()


# The four summary arrays of two suites, pinned when every replication still
# ran alone: the criterion-5 LinUCB suite and a small epsilon-FALCON suite
# whose constrained refits bind.  Like the trace digests in test_engine.py,
# they involve LinUCB and oracle fits, so they are tied to the numpy/BLAS
# build they were taken on (numpy 2.4, OpenBLAS).
SUITES_PINNED = [
    ("lin_ucb_criterion_5",
     RunConfig(env=STEP, agent="lin_ucb", batch_size=100, alpha_ucb=0.2, ridge=1.0,
               horizon=10_000, replications=50, base_seed=100),
     "06df1e2970f80bb09668b59a14a848f83eca4ac3b8ce5ddd0191b38f8076dafd"),
    ("eps_falcon_sens_5",
     RunConfig(env=SENS, epsilon=0.1, horizon=2048, replications=5, base_seed=3),
     "dea71d119cbb6d2e04dd9cbf039f822ffb8a6001a09b9be569b60b3ff731986f"),
    # pinned before draws stopped at epoch ends only for epoch agents: the
    # linucb_suite benchmark's configuration at seed 1, a uniform suite, and
    # LinUCB with a refresh batch (30) that does not divide the draw step
    # (4096 // 7 = 585 rounds)
    ("lin_ucb_bench_seed_1",
     RunConfig(env=STEP, agent="lin_ucb", batch_size=100, alpha_ucb=0.2, ridge=1.0,
               horizon=10_000, replications=5, base_seed=1),
     "0efaf4eb0a9ca7115faa19d0925208407e5fe7ca8e01ebed3c14b86bf131a101"),
    ("uniform_step_5",
     RunConfig(env=STEP, agent="uniform", horizon=10_000, replications=5, base_seed=1),
     "2e0807c3222f2c300319a7ea091953856b2d4ec3cc327b9da72fe76bc3f36e55"),
    ("lin_ucb_batch_30_of_585",
     RunConfig(env=STEP, agent="lin_ucb", batch_size=30, horizon=3000, replications=7,
               base_seed=2),
     "9928dc87ea71170f3c4e2e2a129c9cf8763a8b7da486f63f1f83dbee4bb0215d"),
]


@pytest.mark.parametrize("label,config,sha256", SUITES_PINNED, ids=[c[0] for c in SUITES_PINNED])
def test_suite_summary_digest_pinned(label, config, sha256):
    assert summary_sha256(run_suite(config)) == sha256


# The bytes of one summary.csv and one compare.csv; they hold fits, so like
# the digests above they are tied to the numpy/BLAS build they were taken on
# (numpy 2.4, OpenBLAS).
SUMMARY_CSV_SHA256 = "dc3b60c24737810d3e745fa9640e3ee1053b27b792a6dd75156d4554cb59bb86"
COMPARE_CSV_SHA256 = "4255302f5254bce126698d9980dd8b957f2fac077d0bbd5851eafabb665a44f4"


def test_summary_and_compare_csv_digests_pinned(tmp_path):
    cfg = small_config(horizon=32, replications=5)
    write_summary_csv(run_suite(cfg), str(tmp_path / "summary.csv"))
    write_compare_csv(compare([cfg, replace(cfg, agent="uniform")]),
                      str(tmp_path / "compare.csv"))
    assert hashlib.sha256((tmp_path / "summary.csv").read_bytes()).hexdigest() \
        == SUMMARY_CSV_SHA256
    assert hashlib.sha256((tmp_path / "compare.csv").read_bytes()).hexdigest() \
        == COMPARE_CSV_SHA256


def column(table, config_index):
    """One config's cumulative-regret means, checkpoint by checkpoint."""
    return [row.cum_mean for row in table.rows if row.config_index == config_index]


class TestCompare:
    def test_self_comparison_identical_columns(self):
        cfg = small_config(horizon=64, replications=2)
        table = compare([cfg, cfg])
        assert column(table, 0) == column(table, 1)

    def test_checkpoints(self):
        assert checkpoints(10_000) == [1250, 2500, 5000, 10_000]
        assert checkpoints(8) == [1, 2, 4, 8]

    def test_uniform_dominated_by_falcon(self):
        uni = small_config(agent="uniform", horizon=4096, replications=2)
        fal = small_config(agent="epsilon_falcon", horizon=4096, replications=2)
        table = compare([uni, fal])
        for cu, cf in zip(column(table, 0), column(table, 1)):
            assert cf < cu

    def test_env_mismatch_rejected(self):
        a = small_config()
        b = small_config(env=EnvSpec(kind="sensitivity_family", theta=0.05))
        with pytest.raises(ConfigMismatchError):
            compare([a, b])

    def test_horizon_mismatch_rejected(self):
        with pytest.raises(ConfigMismatchError):
            compare([small_config(horizon=64), small_config(horizon=128)])

    def test_needs_two_configs(self):
        with pytest.raises(ConfigMismatchError):
            compare([small_config()])


class TestArtifacts:
    def test_headers_exact(self):
        assert TRACE_HEADER == "t,epoch,phase,x,action,reward,e_regret,cum_e_regret"
        assert EPOCHS_HEADER == ("m,tau_start,tau_end,gamma,alpha,slack,"
                                 "lambda_star,duality_gap,mse_to_fhatstar")

    def test_run_dir_contents(self, tmp_path):
        cfg = small_config(horizon=64)
        res = run_one(cfg, seed=9)
        out = tmp_path / "run"
        write_run_dir(res, str(out))
        names = sorted(os.listdir(out))
        assert names == ["config.txt", "epochs.csv", "lemmas.csv",
                         "trace.csv", "weights.csv"]
        first = (out / "trace.csv").read_text().splitlines()
        assert first[0] == TRACE_HEADER
        assert len(first) == 65
        assert (out / "epochs.csv").read_text().splitlines()[0] == EPOCHS_HEADER

    def test_weights_round_trip(self, tmp_path):
        cfg = small_config(horizon=64)
        res = run_many(cfg, [10])[0]
        path = tmp_path / "weights.csv"
        from banditlab.csvio import write_weights_csv
        write_weights_csv(res.models, cfg.env, str(path))
        mats = read_weights_csv(str(path), cfg)
        assert len(mats) == len(res.models)
        for got, model in zip(mats, res.models):
            np.testing.assert_array_equal(got, model.weights)

    def test_weights_header_without_epochs_follows_context_dim(self, tmp_path):
        cfg = small_config(env=EnvSpec(kind="realizable_linear", num_arms=3, context_dim=3),
                           agent="lin_ucb", horizon=8)
        path = tmp_path / "w.csv"
        from banditlab.csvio import write_weights_csv
        write_weights_csv(run_many(cfg, [0])[0].models, cfg.env, str(path))
        assert path.read_text() == "m,arm,w0,w1,w2,w3\n"

    def test_weights_row_shape_matches_schema(self, tmp_path):
        cfg = small_config(horizon=8)
        res = run_many(cfg, [11])[0]
        path = tmp_path / "w.csv"
        from banditlab.csvio import write_weights_csv
        write_weights_csv(res.models, cfg.env, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "m,arm,w0,w1"
        assert lines[1].startswith("1,1,")
