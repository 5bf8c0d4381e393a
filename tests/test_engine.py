"""The block engine in ``harness.run_one`` and ``harness.run_many`` against
the round-by-round reference simulator in ``oracles``: every trace column,
the noisy regret total, every epoch's model and LinUCB's final statistics
must be equal bit for bit, for a replication played alone or in lockstep
with others, and the values each stream draws, the trace files of a few
small runs and the lemma report of one have pinned digests."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from banditlab import csvio, harness
from banditlab.csvio import (write_events_csv, write_lemmas_csv, write_trace_csv,
                             write_weights_csv)
from banditlab.diag import RegretTrace
from banditlab.env import Environment, EnvSpec, make_generator
from banditlab.falcon import EpochSchedule, EpsilonFalconAgent, LinUCBAgent, SequencingError
from banditlab.harness import RunConfig, run_many, run_one

from oracles import (PerRoundEnvironment, epochs_by_walk, mse_to_best_fit_per_event,
                     per_round, phases_by_walk, simulate_per_round, write_trace_rows)

STEP = EnvSpec(kind="step_function")
SENS = EnvSpec(kind="sensitivity_family", theta=0.05)
STEP_CLIPPED = EnvSpec(kind="step_function", noise_sd=0.0, clip_rewards=True)
SENS_CLIPPED = EnvSpec(kind="sensitivity_family", theta=0.02, noise_sd=0.0, clip_rewards=True)
REAL3 = EnvSpec(kind="realizable_linear", num_arms=3, seed=2)
REAL_D3 = EnvSpec(kind="realizable_linear", num_arms=4, context_dim=3, seed=5)
REAL_D2_CLIPPED = EnvSpec(kind="realizable_linear", num_arms=5, context_dim=2, seed=1,
                          noise_sd=0.3, clip_rewards=True)
REAL9 = EnvSpec(kind="realizable_linear", num_arms=9, seed=3)
REAL130 = EnvSpec(kind="realizable_linear", num_arms=130, seed=4)

# (label, config, seed): all four agents, the three kinds, d > 1, noise-free
# clipped rewards, tau1 = 7 and 64, horizons ending on a boundary, mid-epoch
# and mid-window, kernels and LinUCB scores over K = 9 and 130 arms (the
# kernel's sums over arms take numpy's eight-lane and halving orders), and a
# LinUCB refresh batch longer than a lockstep draw
GRID = [
    ("eps_falcon_sens_mid_epoch", RunConfig(env=SENS, horizon=300), 1),
    ("eps_falcon_sens_wide_eps", RunConfig(env=SENS, epsilon=0.4, horizon=1030), 3),
    ("falcon_step_on_boundary", RunConfig(env=STEP, agent="falcon", horizon=256), 2),
    ("eps_falcon_step_clipped_tau7", RunConfig(env=STEP_CLIPPED, tau1=7, horizon=333), 4),
    ("eps_falcon_real_d3", RunConfig(env=REAL_D3, epsilon=0.25, horizon=200), 5),
    ("falcon_real_d2_tau7", RunConfig(env=REAL_D2_CLIPPED, agent="falcon", tau1=7,
                                      horizon=230), 6),
    ("eps_falcon_tau64_first_epoch", RunConfig(env=REAL3, tau1=64, horizon=10), 7),
    ("eps_falcon_real_k9", RunConfig(env=REAL9, horizon=150), 14),
    ("eps_falcon_real_k130", RunConfig(env=REAL130, horizon=120), 15),
    ("lin_ucb_step_mid_window", RunConfig(env=STEP, agent="lin_ucb", batch_size=7,
                                          horizon=250), 8),
    ("lin_ucb_real_d3", RunConfig(env=REAL_D3, agent="lin_ucb", batch_size=10,
                                  horizon=155), 9),
    ("lin_ucb_sens_clipped_b1", RunConfig(env=SENS_CLIPPED, agent="lin_ucb", batch_size=1,
                                          horizon=60), 10),
    ("lin_ucb_criterion_config", RunConfig(env=STEP, agent="lin_ucb", batch_size=100,
                                           horizon=1000), 11),
    ("lin_ucb_real_k9", RunConfig(env=REAL9, agent="lin_ucb", alpha_ucb=1.0, batch_size=13,
                                  horizon=200), 16),
    ("lin_ucb_real_k130", RunConfig(env=REAL130, agent="lin_ucb", alpha_ucb=1.0, batch_size=7,
                                    horizon=700), 17),
    ("lin_ucb_batch_above_step", RunConfig(env=STEP, agent="lin_ucb", batch_size=150,
                                           horizon=520), 18),
    ("uniform_real3", RunConfig(env=REAL3, agent="uniform", horizon=100), 12),
    ("uniform_sens_clipped", RunConfig(env=SENS_CLIPPED, agent="uniform", horizon=50), 13),
]


def reference(config, seed):
    env_ss, agent_ss, _ = np.random.SeedSequence(seed).spawn(3)
    agent = harness.build_agent(config)
    out = simulate_per_round(per_round(config.env, env_ss), agent,
                             make_generator(agent_ss), config.horizon, config.tau1)
    return out, agent


def engine(run, monkeypatch):
    """``run()``'s result and the agent it played, in its final state."""
    built, build = [], harness.build_agent
    monkeypatch.setattr(harness, "build_agent",
                        lambda *args: built.append(build(*args)) or built[-1])
    return run(), built[0]


def assert_equals_reference(tr, agent, r, ref, ref_agent):
    """Every trace column and the noisy total of ``tr``, and replication r
    of ``agent``'s final state, bit-equal to the reference run's."""
    for name, got in (("x", tr.x), ("epoch", tr.epoch), ("action", tr.action),
                      ("reward", tr.reward), ("e_regret", tr.e_regret),
                      ("cum_e_regret", tr.cum_e_regret)):
        assert got.tobytes() == ref[name].astype(got.dtype).tobytes(), name
    assert tr.phase.tolist() == ref["phase"].tolist()
    assert np.float64(tr.noisy_regret_total).tobytes() == np.float64(ref["noisy_total"]).tobytes()
    if isinstance(agent, EpsilonFalconAgent):
        events, ref_events = agent.events[r], ref_agent.events[0]
        assert len(events) == len(ref_events)
        for ev, ev_ref in zip(events, ref_events):
            assert ev.new_model.weights.tobytes() == ev_ref.new_model.weights.tobytes()
        for field in ("alpha", "slack", "lam", "duality_gap"):  # nan where there is no report
            got = np.array([getattr(ev.report, field, np.nan) for ev in agent.events[r]])
            assert got.tobytes() == np.array([getattr(ev.report, field, np.nan)
                                              for ev in ref_agent.events[0]]).tobytes(), field
    if isinstance(agent, LinUCBAgent):
        for name in ("G", "bvec", "theta", "G_inv"):
            assert getattr(agent, name)[r].tobytes() == getattr(ref_agent, name)[0].tobytes(), name


@pytest.mark.parametrize("label,config,seed", GRID, ids=[g[0] for g in GRID])
def test_engine_bit_equal_to_round_by_round_reference(label, config, seed, monkeypatch,
                                                      tmp_path):
    ref, ref_agent = reference(config, seed)
    res, agent = engine(lambda: run_many(config, [seed])[0], monkeypatch)
    tr = res.trace
    assert_equals_reference(tr, agent, 0, ref, ref_agent)
    # the written trace is byte-equal to one written round by round
    ref_trace = SimpleNamespace(t=np.arange(1, config.horizon + 1), **ref)
    monkeypatch.setattr(csvio, "TRACE_ROWS_PER_WRITE", 64)  # many partial writes
    write_trace_csv(tr, str(tmp_path / "engine.csv"))
    write_trace_rows(ref_trace, str(tmp_path / "reference.csv"))
    assert (tmp_path / "engine.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("label,config,seed", GRID, ids=[g[0] for g in GRID])
def test_lockstep_replication_independent_of_its_chunk(label, config, seed, monkeypatch):
    # the seed first, in the middle and last among four other seeds; a draw
    # step of 100 rounds over seven replications splits epoch agents' blocks
    # and LinUCB refresh batches longer than 100 rounds mid-window
    seeds = [seed, seed + 100, seed + 200, seed, seed + 300, seed + 400, seed]
    ref, ref_agent = reference(config, seed)
    single = run_many(config, [seed])[0].trace
    monkeypatch.setattr(harness, "ROUNDS_PER_DRAW", 700)
    results, agent = engine(lambda: harness.run_many(config, seeds), monkeypatch)
    assert [res.seed for res in results] == seeds
    for r in (0, 3, 6):
        tr = results[r].trace
        assert_equals_reference(tr, agent, r, ref, ref_agent)
        for name in ("x", "action", "reward", "e_regret", "cum_e_regret"):
            assert getattr(tr, name).tobytes() == getattr(single, name).tobytes(), name
    assert not np.array_equal(results[1].trace.x, results[0].trace.x)


class RecordingGenerator(np.random.Generator):
    """A generator on another's bit generator that feeds every value it
    draws into ``digest``."""

    def __init__(self, bit_generator, digest):
        super().__init__(bit_generator)
        self.digest = digest

    def _record(self, out):
        self.digest.update(np.asarray(out).tobytes())
        return out

    def random(self, *args, **kwargs):
        return self._record(super().random(*args, **kwargs))

    def standard_normal(self, *args, **kwargs):
        return self._record(super().standard_normal(*args, **kwargs))

    def integers(self, *args, **kwargs):
        return self._record(super().integers(*args, **kwargs))


def stream_digests(config, seed, monkeypatch):
    """sha256 of the values each stream of ``run_one`` draws, in order:
    the environment's context and noise children, the agent's generator and
    the diagnostics generator.  The harness's generators are told apart by
    the spawn key of the SeedSequence they are built from, not by the order
    they are built in: (1,) is the agent's stream, (2, 0) the first child of
    the diagnostics stream."""
    digests = {name: hashlib.sha256() for name in ("context", "noise", "agent", "diag")}
    by_stream = {(1,): "agent", (2, 0): "diag"}

    class RecordingEnvironment(Environment):
        def __init__(self, spec, seeds):
            super().__init__(spec, seeds)
            self.context_rngs = [RecordingGenerator(rng.bit_generator, digests["context"])
                                 for rng in self.context_rngs]
            self.noise_rngs = [RecordingGenerator(rng.bit_generator, digests["noise"])
                               for rng in self.noise_rngs]

    monkeypatch.setattr(harness, "Environment", RecordingEnvironment)
    monkeypatch.setattr(harness, "make_generator", lambda s: RecordingGenerator(
        make_generator(s).bit_generator, digests[by_stream[s.spawn_key]]))
    trace = run_one(config, seed).trace
    return trace, {name: h.hexdigest()[:16] for name, h in digests.items()}


# One small run per agent.  The stream digests pin the layout itself (the
# environment's context and noise children, the agent's draws per block):
# the values drawn involve no linear algebra, so they hold on any build of
# numpy.  A change to the layout must show here, and be recorded in
# CHANGES.md and the README with a statistical-equivalence test.  The trace
# file digests also run OLS, constrained and LinUCB fits, so they are tied
# to the numpy/BLAS build they were taken on (numpy 2.4, OpenBLAS at 1 and
# 2 threads); on another build only they may move, by the last bits of a
# fit.  LinUCB's agent draws nothing (the empty stream's digest is
# e3b0c442...); every run draws one diagnostics sample, for its epochs'
# mse_to_fhatstar and its inequality suite.
PINNED = {
    "eps_falcon_sens_mid_epoch": (
        {"context": "3ed556d68cd19c32", "noise": "704abd04489f44ee",
         "agent": "e9747503c5755ab8", "diag": "852ba13118563d17"},
        "33e039912913de72cecd8be1720f3ec2ecaaa83d5ef2efa48bd496311505b380"),
    "falcon_step_on_boundary": (
        {"context": "21e1607297d7baff", "noise": "0071c46d9909873b",
         "agent": "383d60f5653e374b", "diag": "1868294b13002c6a"},
        "8c4def30472791c1b6ab8fb4af16ad0bf05329c02fb446bf44c87d01cfa765f1"),
    "lin_ucb_real_d3": (
        {"context": "432b1947a3d420c6", "noise": "5d271c4e41f10cd8",
         "agent": "e3b0c44298fc1c14", "diag": "fd72517e5057fa21"},
        "dff40c80f7f9c71ee0d557a2b3574523410c065a48aa6061783fe8b3667376c2"),
    "lin_ucb_real_k9": (
        {"context": "8cf63547f82a7058", "noise": "255ceddc7b2d65cb",
         "agent": "e3b0c44298fc1c14", "diag": "e4f644c25db94433"},
        "eda0aab41f2a2114ee01660462024068876e6cc958d86d22c40d8583051d0542"),
    "lin_ucb_real_k130": (
        {"context": "5cf18e026c94cb75", "noise": "fa9de6f5bddc8c3f",
         "agent": "e3b0c44298fc1c14", "diag": "db27f4007e133647"},
        "a499ee20437b1372b4dcad5f8c2882450fdb0c4d1e45a3efbd9ba6cb17cdfe21"),
    "uniform_real3": (
        {"context": "37b746bb17d15fd4", "noise": "34a10a7eb784907a",
         "agent": "06ca9daa29c110da", "diag": "19710dece9623ab2"},
        "d818ba3f0ec3518252df272e874457764cd43b937649a8d761553570fe296540"),
}


@pytest.mark.parametrize("label", sorted(PINNED))
def test_stream_and_trace_digests_pinned(label, tmp_path, monkeypatch):
    _, config, seed = next(g for g in GRID if g[0] == label)
    streams, trace_sha256 = PINNED[label]
    trace, drawn = stream_digests(config, seed, monkeypatch)
    assert drawn == streams
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_sha256


# The inequality suite draws one context sample from the diagnostics stream
# for all its checks.  Its report also involves GEMM predictions, so like
# the trace digests it is tied to the numpy/BLAS build it was taken on
# (numpy 2.4, OpenBLAS at 1 and 2 threads).
LEMMAS_PINNED = ("eps_falcon_sens_mid_epoch",
                 "b591b64858c750896a171905706e02b02b2e4c921be774715a6d67cf9f5eadf8")


def test_lemma_report_digest_pinned(tmp_path):
    label, lemmas_sha256 = LEMMAS_PINNED
    _, config, seed = next(g for g in GRID if g[0] == label)
    path = tmp_path / "lemmas.csv"
    write_lemmas_csv(run_one(config, seed).lemma_report, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == lemmas_sha256


# The epoch events and per-epoch weights files of an epsilon-FALCON run, of
# a FALCON run (whose unconstrained refits leave nan alpha/slack cells) and
# of a LinUCB run (no epochs: the header, with one weight column per
# context dimension and the intercept).  They hold fits and the model MSEs
# on the diagnostics sample, so like the trace digests they are tied to the
# numpy/BLAS build they were taken on (numpy 2.4, OpenBLAS at 1 and 2
# threads).
RUN_FILES_PINNED = {
    "eps_falcon_sens_mid_epoch": (
        "a93915916290a95bdefbec37ed7d3ed2abe8f81e1119d4a5ea100962eff1e5aa",
        "f58da43da07b061e2ff1d9a1c7fe35697bfa8ad9e458d1392ac2a6138fa4edf5"),
    "falcon_step_on_boundary": (
        "50f24966d1d068ac79ed82b622f03b7d54fcef37f2b246df0e6a8a1ddea937c3",
        "9a8da33a1a6048a96db2603db5e43b41e9fdcecea6b06f21a6f8d9de37743a60"),
    "lin_ucb_real_d3": (
        "8f5e989637777aa6c1e59d70bf6dc274e7f079dfad3f8d1a833bcfac8baa369f",
        "d4dae2b0eaa50a41bb3f6970b0af49d1d497170aa2e623e8999ba70d7dc9e0f3"),
}


@pytest.mark.parametrize("label", sorted(RUN_FILES_PINNED))
def test_epochs_and_weights_digests_pinned(label, tmp_path):
    _, config, seed = next(g for g in GRID if g[0] == label)
    res = run_one(config, seed)
    write_events_csv(res.events, str(tmp_path / "epochs.csv"))
    write_weights_csv(res.models, config.env, str(tmp_path / "weights.csv"))
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("epochs.csv", "weights.csv")) == RUN_FILES_PINNED[label]


# Contexts and noise come from two child streams of the environment's seed;
# until they did, each round drew its context and then its K noises from
# one stream.  Both layouts draw the same distributions, so the final
# cumulative regret over R runs of each must agree: Welch's z on the two
# means stays inside the bound.  Disjoint seeds on the two sides.
LAYOUT_REPS, LAYOUT_Z_BOUND = 40, 4.0
LAYOUT_CASES = [
    ("eps_falcon_sens", RunConfig(env=SENS, horizon=512)),
    ("lin_ucb_step", RunConfig(env=STEP, agent="lin_ucb", horizon=500)),
]


@pytest.mark.parametrize("label,config", LAYOUT_CASES, ids=[c[0] for c in LAYOUT_CASES])
def test_child_stream_layout_matches_interleaved_layout_in_distribution(label, config):
    engine_final = [run_many(config, [seed])[0].trace.cum_e_regret[-1]
                    for seed in range(LAYOUT_REPS)]
    reference_final = []
    for seed in range(1000, 1000 + LAYOUT_REPS):
        env_ss, agent_ss, _ = np.random.SeedSequence(seed).spawn(3)
        one_stream = make_generator(env_ss)
        out = simulate_per_round(PerRoundEnvironment(config.env, one_stream, one_stream),
                                 harness.build_agent(config), make_generator(agent_ss),
                                 config.horizon, config.tau1)
        reference_final.append(out["cum_e_regret"][-1])
    a, b = np.array(engine_final), np.array(reference_final)
    z = (a.mean() - b.mean()) / np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    assert abs(z) < LAYOUT_Z_BOUND, (z, a.mean(), b.mean())


# Each epoch's mse_to_fhatstar is measured on the run's one diagnostics
# sample, the inequality suite's; until it was, each epoch drew fresh
# contexts from the diagnostics stream itself.  Both estimate the same
# population MSE of the same refits, so over R runs a side, on disjoint
# seeds, Welch's z on each epoch's mean stays inside the bound.
MSE_REPS, MSE_Z_BOUND = 40, 4.0
MSE_CASES = [
    ("eps_falcon_sens", RunConfig(env=SENS, horizon=512, mc_samples=2_000)),
    ("falcon_real_d2", RunConfig(env=REAL_D2_CLIPPED, agent="falcon", horizon=230,
                                 mc_samples=2_000)),
]


@pytest.mark.parametrize("label,config", MSE_CASES, ids=[c[0] for c in MSE_CASES])
def test_one_pass_mse_to_fhatstar_matches_per_event_draws_in_distribution(label, config):
    one_pass = np.array([[ev.mse_to_best_fit for ev in run_one(config, seed).events]
                         for seed in range(MSE_REPS)])
    reference = np.array([mse_to_best_fit_per_event(config.env,
                                                    run_many(config, [seed])[0].events,
                                                    config.mc_samples, seed)
                          for seed in range(1000, 1000 + MSE_REPS)])
    assert one_pass.shape == reference.shape and one_pass.shape[1] >= 5
    for m, (a, b) in enumerate(zip(one_pass.T, reference.T), start=1):
        z = (a.mean() - b.mean()) / np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        assert abs(z) < MSE_Z_BOUND, (m, z, a.mean(), b.mean())


# A trace stores x, action, reward and e_regret; its t, epoch, phase and
# cum_e_regret are made when they are read or written.  The epoch and phase
# must be those the agent looked up while it played each round.
@pytest.mark.parametrize("on_boundary", [True, False], ids=["on_boundary", "mid_epoch"])
@pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("tau1", [4, 7])
@pytest.mark.parametrize("agent", harness.AGENT_NAMES)
def test_derived_schedule_columns_equal_the_agents_lookups(agent, tau1, epsilon, on_boundary,
                                                           monkeypatch, tmp_path):
    horizon = tau1 * 2 ** 5 + (0 if on_boundary else 3)
    config = RunConfig(env=SENS, agent=agent, epsilon=epsilon, tau1=tau1, horizon=horizon)
    schedule = EpochSchedule(tau1)
    # rounds of the agents without phases are active, in the schedule's epochs
    looked_up = {t: (schedule.epoch_of(t), "active") for t in range(1, horizon + 1)}
    act_block = EpsilonFalconAgent.act_block

    def spy(self, t, xs, rngs):
        for s in range(t, t + np.shape(xs)[1]):
            looked_up[s] = (self.schedule.epoch_of(s), self.phase_of(s))
        return act_block(self, t, xs, rngs)

    monkeypatch.setattr(EpsilonFalconAgent, "act_block", spy)
    trace = run_many(config, [1])[0].trace
    epochs, phases = (list(col) for col in zip(*(looked_up[t] for t in range(1, horizon + 1))))
    assert trace.t.tolist() == list(range(1, horizon + 1))
    assert trace.epoch.tolist() == epochs and trace.phase.tolist() == phases
    # and those of the doubling walk
    assert epochs == epochs_by_walk(tau1, horizon).tolist()
    assert phases == phases_by_walk(tau1, epsilon if agent == "epsilon_falcon" else 0.0, horizon)
    if agent == "epsilon_falcon" and epsilon > 0:
        assert "passive" in phases
    # written in chunks of 5 rows, which cross the ends of epochs and phases
    monkeypatch.setattr(csvio, "TRACE_ROWS_PER_WRITE", 5)
    write_trace_csv(trace, str(tmp_path / "trace.csv"))
    lines = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    assert [line.split(",")[:3] for line in lines] == \
        [[str(t), str(m), phase] for t, m, phase in zip(range(1, horizon + 1), epochs, phases)]


@pytest.mark.parametrize("n", [1023, 1024, 1025, 3 * 1024 + 1])
def test_written_cum_e_regret_equals_one_cumsum(n, tmp_path):
    # each chunk's running total is continued from the last of the chunk
    # before; values of many magnitudes make every sum's rounding count
    assert csvio.TRACE_ROWS_PER_WRITE == 1024
    rng = np.random.default_rng(n)
    e = rng.random(n) * 10.0 ** rng.integers(-6, 3, n)
    e[rng.random(n) < 0.3] = 0.0
    trace = RegretTrace(rng.random(n), rng.integers(1, 3, n), rng.normal(size=n), e, tau1=4)
    write_trace_csv(trace, str(tmp_path / "trace.csv"))
    lines = (tmp_path / "trace.csv").read_text().splitlines()[1:]
    written = np.array([float(line.rsplit(",", 1)[1]) for line in lines])
    assert written.tobytes() == np.cumsum(e).tobytes()
    assert trace.cum_e_regret.tobytes() == np.cumsum(e).tobytes()


def test_trace_writer_empty_trace_writes_header(tmp_path):
    empty = RegretTrace(*(np.empty(0) for _ in range(4)), tau1=4)
    write_trace_csv(empty, str(tmp_path / "empty.csv"))
    assert (tmp_path / "empty.csv").read_text() == csvio.TRACE_HEADER + "\n"


class TestBlocks:
    def test_falcon_block_ends_at_phase_ends(self):
        agent = harness.build_agent(RunConfig(epsilon=0.25, tau1=8))
        # epoch 1 is rounds 1..8 with ceil(0.25 * 8) = 2 passive rounds
        assert agent.block_end(1, 100) == 6
        assert agent.block_end(5, 100) == 6
        assert agent.block_end(7, 100) == 8
        assert agent.block_end(1, 3) == 3

    def test_falcon_block_across_phases_rejected(self):
        agent = harness.build_agent(RunConfig(epsilon=0.25, tau1=8))
        rngs = [make_generator(0)]
        with pytest.raises(SequencingError):
            agent.act_block(5, np.full((1, 3), 0.5), rngs)
        with pytest.raises(SequencingError):
            agent.record_block(5, np.full((1, 3), 0.5), [[1, 1, 2]], [[0.0, 1.0, 0.5]])
        with pytest.raises(SequencingError):
            agent.act_block(7, np.full((1, 3), 0.5), rngs)  # runs into epoch 2

    def test_linucb_block_ends_at_refresh(self):
        agent = harness.build_agent(RunConfig(agent="lin_ucb", batch_size=5))
        assert agent.block_end(1, 100) == 5
        agent.record_block(1, np.full((1, 3), 0.5), [[1, 2, 1]], [[0.1, 0.2, 0.3]])
        assert agent.block_end(4, 100) == 5
        with pytest.raises(SequencingError):
            agent.record_block(4, np.full((1, 3), 0.5), [[1, 2, 1]], [[0.1, 0.2, 0.3]])

    def test_one_row_calls_equal_block_calls(self):
        # blocks split into one-row blocks play exactly the multi-row blocks' rounds
        xs, _, rvec = (a[0] for a in Environment(SENS, [3]).draw(8))
        a, b = (harness.build_agent(RunConfig(epsilon=0.25)) for _ in range(2))
        ra, rb = [make_generator(4)], [make_generator(4)]
        for lo, hi in ((0, 3), (3, 4), (4, 7), (7, 8)):   # epochs 1 and 2, both phases
            arms = a.act_block(lo + 1, xs[None, lo:hi], ra)
            r = rvec[np.arange(lo, hi), arms - 1]
            a.record_block(lo + 1, xs[None, lo:hi], arms, r)
            for t in range(lo + 1, hi + 1):
                one = b.act_block(t, xs[None, t - 1:t], rb)
                assert one.tolist() == arms[:, t - 1 - lo:t - lo].tolist()
                b.record_block(t, xs[None, t - 1:t], one, r[:, t - 1 - lo:t - lo])
        assert a.m == b.m == 3
        for ea, eb in zip(a.events[0], b.events[0], strict=True):
            assert ea.new_model.weights.tobytes() == eb.new_model.weights.tobytes()
