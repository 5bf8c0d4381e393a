"""Flat-file artifacts: the CSV writer and every file the package writes.

Artifacts are plain CSV, every file written by ``write_csv`` in the bytes
of Python's ``%`` formatting.  A run's record takes one path:
``harness.run_lemmas``, the diagnostics pass, runs the inequality suite on
the models in force in each epoch, with the config's gammas, and sets every
``mse_to_fhatstar``, on one sample from the seed's diagnostics stream.
``harness.run_one`` feeds it the agent's refits, ``reanalyze_run_dir``
(``banditlab diag``) the stored ``weights.csv``, checked against the stored
``config.txt``, so ``diag`` reproduces the run's ``lemmas.csv`` byte for
byte.  Schemas:

* trace:   t,epoch,phase,x,action,reward,e_regret,cum_e_regret
  (a run stores x, action, reward and e_regret, a suite e_regret alone;
  ``write_trace_csv`` makes t, epoch, phase and cum_e_regret chunk by chunk)
* epochs:  m,tau_start,tau_end,gamma,alpha,slack,lambda_star,duality_gap,mse_to_fhatstar
* weights: m,arm,w0,w1,...   (model in force during epoch m)
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import numpy as np

from .diag import LemmaCheck, RegretTrace, cumsum_after
from .env import EnvSpec
from .falcon import EpochEvent
from .harness import (CompareTable, RunConfig, RunResult, SuiteSummary, epochs_started,
                      load_config, run_lemmas, save_config)
from .linmodel import LinearModel

TRACE_HEADER = "t,epoch,phase,x,action,reward,e_regret,cum_e_regret"
EPOCHS_HEADER = "m,tau_start,tau_end,gamma,alpha,slack,lambda_star,duality_gap,mse_to_fhatstar"
SUMMARY_HEADER = "t,mean_e_regret,se_e_regret,mean_cum_e_regret,se_cum_e_regret"
COMPARE_HEADER = "checkpoint,config,agent,cum_e_regret_mean,cum_e_regret_se"
LEMMAS_HEADER = "name,epoch,lhs,rhs,se,passed,note"

TRACE_ROWS_PER_WRITE = 1024  # CSV rows formatted per write: it bounds the text's memory

# write_csv builds a chunk of text as one uint8 matrix, a row per line: each
# cell is NUL-padded and the separators are columns of their own, so
# dropping every NUL leaves the lines.  A number's row is words taken from a
# table, one index per word:
# * an integer is a sign word _WORDS[20_001 - sign(v)] (NUL, "0" or "-"),
#   then its base-10^4 words w, most significant first: up to the first
#   nonzero one _WORDS[w], right-aligned and NUL-padded (all NUL for 0),
#   after it the 4 digits _WORDS[10^4 + w];
# * a float has one fixed 40-byte layout, a sign, "0.000", then the 17
#   digits of N each followed by a point slot, in 8-byte words: the first
#   _DIGITS[10^4 + 10 * negative + first digit] ("-0.000d."), then the
#   "d.d.d.d." words _DIGITS[w].  The row ANDed with _MASKS[(X + 4) * 17 +
#   end - 1] (``_masks``) keeps the bytes '%.17g' prints.
# (The tables are built at import, in small dtypes: large temporaries would
# raise the peak memory of every process that writes.)
def _word_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_WORDS, _DIGITS, and the trailing zeros of each word 0..9999 (4 for 0)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)  # row j: digit j of 0..9999
    shown, trailing = digits > 0, digits == 0
    for j in range(1, 4):  # a digit is shown from the first nonzero one on
        shown[j] |= shown[j - 1]
        trailing[3 - j] &= trailing[4 - j]
    digits += ord("0")
    words = np.zeros((20_003, 4), np.uint8)
    words[:10_000], words[10_000:20_000] = (digits * shown).T, digits.T
    words[20_001:, 0] = ord("0"), ord("-")
    pairs = np.full((10_020, 8), ord("."), np.uint8)
    pairs[:10_000, ::2] = digits.T
    pairs[10_000:, :7], pairs[10_010:, 0] = np.frombuffer(b"\0" b"0.000" b"0", np.uint8), ord("-")
    pairs[10_000:, 6] += np.arange(20, dtype=np.uint8) % 10
    return (words.view(np.uint32).ravel(), pairs.view(np.uint64).ravel(),
            trailing.sum(axis=0, dtype=np.int8))


def _masks() -> np.ndarray:
    """The float layout's byte masks (0 or 0xFF, read as words): row (X + 4) *
    17 + end - 1 for -4 <= X <= 14 and end = 1..17 significant digits."""
    X, end, i = np.arange(-4, 15)[:, None, None], np.arange(1, 18)[:, None], np.arange(17)
    keep = np.zeros((19, 17, 40), np.uint8)
    keep[..., :6] = (i[:6] == 0) | (X < 0) & (i[:6] < 2 - X)  # the sign; "0." and -X - 1 zeros
    keep[..., 6::2] = i < np.maximum(end, X + 1)  # the digits
    keep[..., 7::2] = (i == X) & (end > X + 1)  # the point, if a digit follows it
    return (keep * 0xFF).reshape(-1, 40).view(np.uint64)


_WORDS, _DIGITS, _TRAILING_ZEROS = _word_tables()
_MASKS = _masks()
_SPLIT = 134_217_729.0  # 2^27 + 1, Veltkamp's splitter for Dekker's exact product
_TENS = 10.0 ** np.arange(22)  # exact: 5^21 < 2^53
_TENS_HI = _SPLIT * _TENS - (_SPLIT * _TENS - _TENS)
_TENS_LO = _TENS - _TENS_HI


def _scaled(a: np.ndarray, X: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10^(16 - X)) exactly, as int64.  Dekker's product
    gives a * 10^k = hi + lo exactly; where hi >= 2^53 it is an even
    integer, so hi + rint(lo) is the sum rounded half to even."""
    k = 16 - X
    p, p_hi, p_lo = _TENS[k], _TENS_HI[k], _TENS_LO[k]
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    hi = a * p
    lo = a_lo * p_lo - (((hi - a_hi * p_hi) - a_lo * p_hi) - a_hi * p_lo)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _text_rows(items: list[bytes]) -> np.ndarray:
    return np.array(items, dtype=bytes).view(np.uint8).reshape(len(items), -1)


def _with_python(cells: np.ndarray, v: np.ndarray, fast: np.ndarray, fmt: str) -> np.ndarray:
    """``cells`` with the rows of the values outside the mask ``fast``
    formatted by Python's ``fmt % x``."""
    if fast.all():
        return cells
    fill = _text_rows([(fmt % x).encode() for x in v[~fast].tolist()])
    out = np.zeros((len(cells), max(cells.shape[1], fill.shape[1])), np.uint8)
    out[fast, :cells.shape[1]] = cells[fast]
    out[~fast, :fill.shape[1]] = fill
    return out


def _float_cells(v: np.ndarray) -> np.ndarray:
    """``'%.17g' % x`` of each float64, one NUL-padded row per value.

    Finite values with 1e-4 <= |x| < 1e15, and +-0, are spelled in the
    fixed layout above from 17 significant digits N * 10^(X - 16): X is
    estimated as floor(log10|x|), N is |x| * 10^(16 - X) rounded half to
    even exactly (``_scaled``), and where N falls outside [10^16, 10^17) --
    the estimate was off by one or the rounding carried -- X moves by one
    and N is made again.  Every other value (nan, +-inf, and those at or
    near where ``%.17g`` turns to scientific notation) is rare in the
    artifacts and goes through Python's own ``'%.17g'``, one at a time,
    which keeps the output exact for all."""
    a = np.abs(v)
    fast = ((a >= 1e-4) & (a < 1e15)) | (a == 0)
    a[~fast] = 1.0
    X = np.floor(np.log10(a, out=np.zeros_like(a), where=a > 0)).astype(np.int64)
    N = _scaled(a, X)
    bad = np.flatnonzero(((N < 10 ** 16) | (N >= 10 ** 17)) & (a > 0))
    while bad.size:
        X[bad] += np.where(N[bad] >= 10 ** 16, 1, -1)
        N[bad] = _scaled(a[bad], X[bad])
        bad = bad[(N[bad] < 10 ** 16) | (N[bad] >= 10 ** 17)]
    words = np.empty((5, len(v)), np.int64)  # N's first digit, then its base-10^4 words
    words[4] = N
    for j in range(4, 0, -1):
        np.floor_divide(words[j], 10_000, out=words[j - 1])
    words[1:] -= 10_000 * words[:-1]
    words[0] += 10_000 + 10 * np.signbit(v)
    # the digits end where the trailing zeros of the last 16 begin
    t = np.take(_TRAILING_ZEROS, words[1:])
    tz = t[3] + (t[3] == 4) * (t[2] + (t[2] == 4) * (t[1] + (t[1] == 4) * t[0]))
    cells = np.take(_DIGITS, words.T)
    cells &= np.take(_MASKS, 17 * X + (84 - tz), axis=0)  # (X + 4) * 17 + end - 1, end = 17 - tz
    return _with_python(cells.view(np.uint8), v, fast, "%.17g")


def _int_cells(v: np.ndarray) -> np.ndarray:
    """``'%d' % x`` of each integer (a bool is 0 or 1), one NUL-padded row
    per value; those of 17 digits or more, and a column of any other type,
    go through Python's ``'%d'``."""
    if v.dtype.kind == "b" or v.dtype.kind in "iu" and v.itemsize < 8:
        v = v.astype(np.int64)  # a narrower int's minimum has no absolute value
    if v.dtype.kind != "i":
        return _text_rows([b"%d" % x for x in v.tolist()])
    fast = (v > -10 ** 16) & (v < 10 ** 16)
    a = np.abs(np.where(fast, v, 0))
    k = (len(str(int(a.max(initial=0)))) + 3) // 4  # base-10^4 words of the largest
    words = np.empty((len(v), k + 1), np.int64)
    words[:, 0] = 20_001 - np.sign(v)
    for j in range(k, 1, -1):
        q = a // 10_000  # a word after a nonzero one is spelled in 4 digits
        words[:, j] = a - 10_000 * (q - np.minimum(q, 1))
        a = q
    words[:, 1] = a
    return _with_python(np.take(_WORDS, words).view(np.uint8), v, fast, "%d")


def _text_cells(v: np.ndarray) -> np.ndarray:
    """Each string, UTF-8 encoded, one NUL-padded row per value: ASCII
    directly from the code points, other text as its distinct values, each
    encoded once."""
    points = v.view(np.uint32).reshape(-1, v.itemsize // 4)
    if points.max() < 128:
        return points.astype(np.uint8)
    values, inverse = np.unique(v, return_inverse=True)
    return np.take(_text_rows([s.encode() for s in values.tolist()]), inverse.ravel(), axis=0)


def _text_column(values) -> np.ndarray:
    """``values`` as a str array; a string holding a NUL is a ValueError."""
    texts = np.asarray(values, dtype=str)
    points = texts.view(np.uint32).reshape(-1, texts.itemsize // 4)
    # numpy keeps a NUL inside a string and drops those that end it
    if ((points[:, :-1] == 0) & (points[:, 1:] != 0)).any() or (
            not isinstance(values, np.ndarray) and any("\0" in str(s) for s in values)):
        raise ValueError("a text cell holds a NUL character")
    return texts


_CELLS = {"g": _float_cells, "d": _int_cells, "s": _text_cells}
_COLUMNS = {"g": lambda values: np.asarray(values, dtype=float), "d": np.asarray,
            "s": _text_column}


def write_csv(path: str, header: str, columns) -> None:
    """``header``, then one line per row of ``columns``, a list of (kind,
    values) with values of one length: kind ``g`` formats a cell as
    ``'%.17g'``, ``d`` as ``'%d'`` and ``s`` as ``'%s'``, and 2-D values
    (n, d) make a cell of d ``;``-separated values.

    Rows are written ``TRACE_ROWS_PER_WRITE`` at a time (which bounds the
    memory the text takes), each chunk by ``_write_chunks``.  A text cell
    holding a NUL is a ValueError."""
    columns = [(kind, _COLUMNS[kind](values)) for kind, values in columns]
    n, step = len(columns[0][1]), TRACE_ROWS_PER_WRITE
    _write_chunks(path, header, ([(kind, values[lo:lo + step]) for kind, values in columns]
                                 for lo in range(0, n, step)))


def _write_chunks(path: str, header: str, chunks) -> None:
    """``header``, then the rows of each chunk: a list of (kind, values) as
    ``write_csv`` makes them, arrays of one length with the same kinds and
    widths in every chunk.  A chunk's cells of one kind are made in one
    call (``_float_cells``, ``_int_cells``, ``_text_cells``) as NUL-padded
    uint8 rows; they are laid side by side with ``,``, ``;`` and newline
    columns, and the chunk is written as that matrix with its NUL bytes
    dropped: the same bytes as Python's ``%`` formatting of every cell."""
    layout = None
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for columns in chunks:
            columns = [(kind, v[:, None] if v.ndim == 1 else v) for kind, v in columns]
            by_kind = {kind: [v for k, v in columns if k == kind] for kind, _ in columns}
            if layout is None:
                # a line: (kind, index among the kind's cell columns, separator after)
                layout, count = [], dict.fromkeys(by_kind, 0)
                for kind, values in columns:
                    for j in range(values.shape[1]):
                        layout.append((kind, count[kind], ";" if j + 1 < values.shape[1] else ","))
                        count[kind] += 1
                layout[-1] = (*layout[-1][:2], "\n")
            rows = len(columns[0][1])
            cells = {kind: _CELLS[kind](np.concatenate([v.T for v in vals]).ravel())
                     .reshape(count[kind], rows, -1) for kind, vals in by_kind.items()}
            sep = {c: np.full((rows, 1), ord(c), np.uint8) for c in ",;\n"}
            text = np.concatenate([part for kind, i, after in layout
                                   for part in (cells[kind][i], sep[after])], axis=1)
            fh.write(text.tobytes().translate(None, b"\0"))


def write_trace_csv(trace: RegretTrace, path: str) -> None:
    """One line per round; a d-dimensional context is one cell of d
    ``;``-separated values.  Only x, action, reward and e_regret are
    stored: each chunk's t, epoch, phase and cum_e_regret are made as it is
    written, the running total continued from the chunk before."""
    data = [(kind, _COLUMNS[kind](values)) for kind, values in
            (("g", trace.x), ("d", trace.action), ("g", trace.reward), ("g", trace.e_regret))]

    def chunks():
        cum = None
        for lo in range(0, len(trace), TRACE_ROWS_PER_WRITE):
            hi = min(len(trace), lo + TRACE_ROWS_PER_WRITE)
            t, epoch, phase = trace.schedule_rows(lo, hi)
            cum = cumsum_after(data[3][1][lo:hi], None if cum is None else cum[-1])
            yield [("d", t), ("d", epoch), ("s", phase),
                   *((kind, values[lo:hi]) for kind, values in data), ("g", cum)]

    _write_chunks(path, TRACE_HEADER, chunks())


def write_events_csv(events: list[EpochEvent], path: str) -> None:
    """One line per refit; alpha, slack, lambda_star and duality_gap are
    read from its ``report``, nan where there is none (plain least squares)."""
    write_csv(path, EPOCHS_HEADER,
              [*((kind, [getattr(ev, name) for ev in events])
                 for kind, name in zip("dddg", ("m", "tau_start", "tau_end", "gamma"))),
               *(("g", [np.nan if ev.report is None else getattr(ev.report, name)
                        for ev in events]) for name in ("alpha", "slack", "lam", "duality_gap")),
               ("g", [ev.mse_to_best_fit for ev in events])])


def _weights_header(spec: EnvSpec) -> str:
    return "m,arm," + ",".join(f"w{j}" for j in range(spec.context_dim + 1))


def write_weights_csv(models: list[LinearModel], spec: EnvSpec, path: str) -> None:
    """One line per (epoch, arm) of the models in force during each epoch;
    with no models, the header of the spec's d."""
    M, K, p = len(models), spec.num_arms, spec.context_dim + 1
    W = np.array([model.weights for model in models]).reshape(M * K, p)
    write_csv(path, _weights_header(spec),
              [("d", np.repeat(np.arange(1, M + 1), K)), ("d", np.tile(np.arange(1, K + 1), M)),
               *(("g", w) for w in W.T)])


def write_lemmas_csv(report: list[LemmaCheck], path: str) -> None:
    write_csv(path, LEMMAS_HEADER,
              [("s", [c.name for c in report]),
               ("s", ["" if c.epoch is None else c.epoch for c in report]),
               ("g", [c.lhs for c in report]), ("g", [c.rhs for c in report]),
               ("g", [c.se for c in report]), ("d", [c.passed for c in report]),
               ("s", [c.note for c in report])])


def write_summary_csv(summary: SuiteSummary, path: str) -> None:
    write_csv(path, SUMMARY_HEADER,
              [("d", summary.t), ("g", summary.mean_e_regret), ("g", summary.se_e_regret),
               ("g", summary.mean_cum_e_regret), ("g", summary.se_cum_e_regret)])


def write_compare_csv(table: CompareTable, path: str) -> None:
    names = ("checkpoint", "config_index", "agent", "cum_mean", "cum_se")
    write_csv(path, COMPARE_HEADER, [(kind, [getattr(row, name) for row in table.rows])
                                     for kind, name in zip("ddsgg", names)])


def write_run_dir(result: RunResult, out_dir: str) -> None:
    """One directory per ``run_one`` result: trace, epoch events, model
    weights, lemma checks, and the resolved config (which `diag` uses to
    re-analyze)."""
    os.makedirs(out_dir, exist_ok=True)
    save_config(replace(result.config, base_seed=result.seed),
                os.path.join(out_dir, "config.txt"))
    write_trace_csv(result.trace, os.path.join(out_dir, "trace.csv"))
    write_events_csv(result.events, os.path.join(out_dir, "epochs.csv"))
    write_weights_csv(result.models, result.config.env, os.path.join(out_dir, "weights.csv"))
    write_lemmas_csv(result.lemma_report, os.path.join(out_dir, "lemmas.csv"))


def read_weights_csv(path: str, config: RunConfig) -> list[np.ndarray]:
    """Inverse of write_weights_csv for a run of ``config``: the header,
    then arms 1..K of each epoch the run started, in order, each with d + 1
    finite weights.  Any other file is a ValueError naming it and the line."""
    spec = config.env
    M, K, p = epochs_started(config), spec.num_arms, spec.context_dim + 1
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[:1] != [_weights_header(spec)]:
        raise ValueError(f"{path}, line 1: expected the header {_weights_header(spec)!r}")
    rows = []
    for lineno, (m, arm) in enumerate([(m, a) for m in range(1, M + 1) for a in range(1, K + 1)],
                                      start=2):
        cells = lines[lineno - 1].split(",") if lineno <= len(lines) else []
        try:
            rows.append([float(c) for c in cells[2:]])
        except ValueError:
            rows.append([])
        if cells[:2] != [str(m), str(arm)] or len(rows[-1]) != p \
                or not all(map(math.isfinite, rows[-1])):
            raise ValueError(f"{path}, line {lineno}: expected epoch {m}, arm {arm} "
                             f"and {p} finite weights")
    if len(lines) > 1 + M * K:
        raise ValueError(f"{path}, line {2 + M * K}: a row past the run's {M} epochs")
    return list(np.array(rows).reshape(M, K, p))


def reanalyze_run_dir(run_dir: str) -> list[LemmaCheck]:
    """Re-run the inequality suite from a stored run directory: its weights,
    checked against its config, and the diagnostics stream of the config's
    ``base_seed`` (the run's seed), so the report equals the run's own."""
    config = load_config(os.path.join(run_dir, "config.txt"))
    weights = read_weights_csv(os.path.join(run_dir, "weights.csv"), config)
    return run_lemmas(config, config.base_seed, [LinearModel(w) for w in weights], [])
