"""The CSV writer against Python's own ``%`` formatting: each cell kernel of
``csvio.write_csv`` (``%.17g``, ``%d``, ``%s``) cell by cell, the writer's
chunks and ``;`` cells, the six artifact files' rows against their
headers, and README's list of those headers."""

import itertools
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banditlab import csvio
from banditlab.csvio import (write_compare_csv, write_csv, write_run_dir, write_summary_csv,
                             write_weights_csv)
from banditlab.env import EnvSpec
from banditlab.harness import RunConfig, compare, run_one, run_suite


def spelled(cells: np.ndarray) -> list[str]:
    """The text of each NUL-padded row a cell kernel made."""
    return [bytes(row[row != 0]).decode() for row in cells]


def float_texts(values) -> list[str]:
    return spelled(csvio._float_cells(np.array(values, dtype=float)))


def around(x: float, ulps: int = 3) -> list[float]:
    """x and the ``ulps`` floats on each side of it."""
    out, lo, hi = [x], x, x
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf)
        out += [float(lo), float(hi)]
    return out


def with_digits(X: int, end: int) -> float:
    """The first of m * 10^(X - end + 1), m = 10^(end - 1), 10^(end - 1) + 1,
    ..., whose ``'%.17g'`` has exponent X and end significant digits."""
    for m in itertools.count(10 ** (end - 1)):
        x = float(f"{m}e{X - end + 1}")
        digits = ("%.17g" % x).replace(".", "").strip("0")
        if ("%.16e" % x).endswith("e%+03d" % X) and len(digits) == end:
            return x


class TestFloatCells:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    @example(-0.0)
    @example(5e-324)
    def test_any_float_as_python_prints_it(self, x):
        assert float_texts([x]) == ["%.17g" % x]

    def test_edges_of_fixed_notation_and_every_power_of_ten_between(self):
        # 1e-4 and 1e15 bound the kernel's own range; 10^k is where the
        # log10 estimate of the exponent can be off by one
        xs = [y for k in range(-5, 18) for y in around(10.0 ** k)]
        xs += [-x for x in xs]
        assert float_texts(xs) == ["%.17g" % x for x in xs]

    def test_rounding_carries_into_the_next_power_of_ten(self):
        xs = [9.9999999999999995e-05, 0.099999999999999999, 0.99999999999999994,
              9.9999999999999982, 99999999999999.984, 999999999999999.88]
        xs += [float(np.nextafter(10.0 ** k, 0)) for k in range(-4, 16)]
        assert float_texts(xs) == ["%.17g" % x for x in xs]

    def test_exact_ties_round_half_to_even(self):
        # m / 2^(17 - X) with m odd and X its decimal exponent has exactly 18
        # significant digits, the last a 5: a tie at 17 digits
        rng = np.random.default_rng(0)
        xs = []
        for X in range(-4, 15):
            j = 17 - X
            lo, hi = math.ceil(10.0 ** X * 2 ** j), math.floor(10.0 ** (X + 1) * 2 ** j)
            m = rng.integers(lo // 2, hi // 2, size=200) * 2 + 1
            xs += [math.ldexp(int(k), -j) for k in m if lo <= k < hi]
        assert len(xs) > 3000
        assert float_texts(xs) == ["%.17g" % x for x in xs]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_every_exponent_and_significant_digit_count(self, sign):
        # every row of the kernel's (X, end) mask table
        xs = [sign * with_digits(X, end) for X in range(-4, 15) for end in range(1, 18)]
        assert float_texts(xs) == ["%.17g" % x for x in xs]

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_sweep_over_every_decade_and_sign(self, seed):
        rng = np.random.default_rng(seed)
        xs = np.concatenate([
            rng.uniform(-1, 1, 20_000), rng.normal(0, 1e3, 20_000),
            rng.choice([-1.0, 1.0], 40_000) * 10.0 ** rng.uniform(-17, 19, 40_000),
            rng.integers(-2 ** 40, 2 ** 40, 20_000) / 2.0 ** rng.integers(0, 40, 20_000),
            rng.integers(0, 2 ** 63, 20_000).view(np.float64)])  # any bit pattern
        assert float_texts(xs) == ["%.17g" % x for x in xs.tolist()]


class TestIntCells:
    def test_digit_counts_signs_and_bools(self):
        values = [0, 9, 10, -1, -10]
        values += [10 ** k + e for k in range(1, 19) for e in (-1, 0, 1)]
        values += [-v for v in values] + [2 ** 63 - 1, -2 ** 63]
        assert spelled(csvio._int_cells(np.array(values))) == ["%d" % v for v in values]
        assert spelled(csvio._int_cells(np.array([True, False]))) == ["1", "0"]

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64, np.uint8,
                                       np.uint16, np.uint32, np.uint64])
    def test_every_integer_dtype_to_its_limits(self, dtype):
        info = np.iinfo(dtype)
        # and where a base-10^4 word is added, and the last value spelled by the kernel
        words = [s * (10 ** (4 * k) + e) for k in (1, 2, 3) for e in (-1, 0) for s in (1, -1)]
        values = np.array([0, 1, info.max, info.min, info.max - 1, info.min + 1]
                          + [v for v in words + [10 ** 16 - 1, 1 - 10 ** 16]
                             if info.min <= v <= info.max], dtype=dtype)
        assert spelled(csvio._int_cells(values)) == ["%d" % v for v in values.tolist()]

    def test_integers_past_int64_go_through_python(self):
        values = [10 ** 20, -(10 ** 30), 7]
        assert spelled(csvio._int_cells(np.asarray(values))) == ["%d" % v for v in values]


class TestTextCells:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\0")),
                    min_size=1, max_size=20))
    def test_utf8_of_any_text(self, texts):
        assert spelled(csvio._text_cells(csvio._text_column(texts))) == texts

    def test_non_ascii_and_empty(self):
        texts = ["explore", "", "ε-FALCON", "θ ≤ 0.05", "exploit", "ε-FALCON"]
        assert spelled(csvio._text_cells(csvio._text_column(texts))) == texts

    @pytest.mark.parametrize("text", ["a\0b", "ab\0", "\0"])
    def test_nul_is_rejected(self, text, tmp_path):
        with pytest.raises(ValueError, match="NUL"):
            write_csv(str(tmp_path / "t.csv"), "s", [("s", ["ok", text])])

    def test_nul_inside_an_array_string_is_rejected(self, tmp_path):
        # a numpy str array keeps a NUL inside a string (and drops those
        # that end it, before the writer sees them)
        with pytest.raises(ValueError, match="NUL"):
            write_csv(str(tmp_path / "t.csv"), "s", [("s", np.array(["ok", "a\0b"]))])


def python_lines(columns) -> list[str]:
    """Each row formatted the way the writer's kinds name it, by Python."""
    fmt = {"g": "%.17g", "d": "%d", "s": "%s"}
    lines = []
    for i in range(len(columns[0][1])):
        cells = []
        for kind, values in columns:
            v = values[i]
            cells.append(";".join(fmt[kind] % x for x in v) if np.ndim(v) else fmt[kind] % v)
        lines.append(",".join(cells))
    return lines


class TestWriter:
    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_a_chunk_boundary_and_a_three_value_context(self, extra, tmp_path):
        rng = np.random.default_rng(extra + 5)
        n = csvio.TRACE_ROWS_PER_WRITE + extra
        columns = [("d", np.arange(1, n + 1)), ("s", rng.choice(["explore", "exploit"], n)),
                   ("g", rng.normal(size=(n, 3))), ("d", rng.integers(-3, 3, n)),
                   ("g", np.where(rng.random(n) < 0.1, np.nan, rng.normal(0, 1e-3, n)))]
        path = tmp_path / "rows.csv"
        write_csv(str(path), "t,phase,x,a,r", columns)
        assert path.read_text().split("\n") == ["t,phase,x,a,r", *python_lines(columns), ""]

    def test_header_only_without_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(str(path), "a,b", [("d", []), ("g", np.empty((0, 3)))])
        assert path.read_text() == "a,b\n"

    def test_single_columns_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        floats = np.concatenate([rng.normal(size=500), 10.0 ** rng.uniform(-300, 300, 500),
                                 [0.0, -0.0, 5e-324, 1e-4, 1e15]])
        ints = rng.integers(-2 ** 63, 2 ** 63 - 1, 500, endpoint=True)
        write_csv(str(tmp_path / "g.csv"), "g", [("g", floats)])
        write_csv(str(tmp_path / "d.csv"), "d", [("d", ints)])
        got_g = [float(s) for s in (tmp_path / "g.csv").read_text().splitlines()[1:]]
        got_d = [int(s) for s in (tmp_path / "d.csv").read_text().splitlines()[1:]]
        assert np.array_equal(np.array(got_g), floats)
        assert np.signbit(got_g).tolist() == np.signbit(floats).tolist()
        assert got_d == ints.tolist()


def cells_per_line(path, most: int = -1) -> set[int]:
    """The counts of cells in the lines of ``path``, at most ``most`` each."""
    lines = open(path, encoding="utf-8").read().splitlines()
    return {len(line.split(",", most)) for line in lines}


def run_files(config, tmp_path):
    """A run directory of ``config`` plus the summary and compare files of
    a small suite of it."""
    write_run_dir(run_one(config, seed=3), str(tmp_path))
    small = replace(config, horizon=32, replications=3)
    write_summary_csv(run_suite(small), str(tmp_path / "summary.csv"))
    write_compare_csv(compare([small, replace(small, agent="uniform")]),
                      str(tmp_path / "compare.csv"))
    return {name: os.path.join(tmp_path, name)
            for name in ("trace.csv", "epochs.csv", "weights.csv", "lemmas.csv", "summary.csv",
                         "compare.csv")}


def header_cells(path) -> int:
    return len(open(path, encoding="utf-8").readline().rstrip("\n").split(","))


SMALL_RUNS = [
    ("eps_falcon_d1", RunConfig(env=EnvSpec(kind="sensitivity_family", theta=0.05),
                                horizon=300, mc_samples=2_000)),
    ("falcon_d3", RunConfig(env=EnvSpec(kind="realizable_linear", num_arms=3, context_dim=3),
                            agent="falcon", horizon=200, mc_samples=2_000)),
    ("lin_ucb_d3_no_epochs", RunConfig(env=EnvSpec(kind="realizable_linear", num_arms=4,
                                                   context_dim=3),
                                       agent="lin_ucb", horizon=100, mc_samples=2_000)),
    ("uniform_d1_no_epochs", RunConfig(env=EnvSpec(kind="step_function"), agent="uniform",
                                       horizon=100, mc_samples=2_000)),
]


@pytest.mark.parametrize("label,config", SMALL_RUNS, ids=[c[0] for c in SMALL_RUNS])
def test_every_file_has_as_many_cells_per_line_as_its_header(label, config, tmp_path):
    for name, path in run_files(config, tmp_path).items():
        # a lemma's note is free text, the last cell (see the test below)
        most = header_cells(path) - 1 if name == "lemmas.csv" else -1
        assert cells_per_line(path, most) == {header_cells(path)}, name
    # the d values of a context share one cell
    x_cells = [line.split(",")[3] for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]]
    assert {cell.count(";") for cell in x_cells} == {config.env.context_dim - 1}


def test_lemma_notes_hold_no_comma(tmp_path):
    path = run_files(SMALL_RUNS[0][1], tmp_path)["lemmas.csv"]
    assert cells_per_line(path) == {header_cells(path)}


def test_readme_lists_every_header(tmp_path):
    """README's Artifacts block names each file ``csvio`` writes with its
    header; weights.csv's is the d = 1 header, then ``,...``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        block = fh.read().split("## Artifacts", 1)[1].split("```\n", 2)[1]
    listed = dict(line.split()[:2] for line in block.splitlines())
    weights = tmp_path / "weights.csv"  # a run without epochs: the header alone
    write_weights_csv([], EnvSpec(kind="step_function"), str(weights))
    assert listed == {"trace.csv:": csvio.TRACE_HEADER, "epochs.csv:": csvio.EPOCHS_HEADER,
                      "weights.csv:": weights.read_text().rstrip("\n") + ",...",
                      "lemmas.csv:": csvio.LEMMAS_HEADER, "summary.csv:": csvio.SUMMARY_HEADER,
                      "compare.csv:": csvio.COMPARE_HEADER}
