"""Flat-file artifacts: the CSV writer and every file the package writes.

Artifacts are plain CSV, every file written by ``write_csv`` in the bytes
of Python's ``%`` formatting.  A run's record takes one path:
``harness.run_artifacts`` turns the config and the weights in force in each
epoch into what the inequality suite reads, and ``harness.run_lemmas``, the
diagnostics pass, runs the suite and sets every ``mse_to_fhatstar`` on one
sample from the seed's diagnostics stream.
``harness.run_one`` feeds them the agent's refits, ``reanalyze_run_dir``
(``banditlab diag``) the stored ``weights.csv`` and ``config.txt``, so
``diag`` reproduces the run's ``lemmas.csv`` byte for byte.  Schemas:

* trace:   t,epoch,phase,x,action,reward,e_regret,cum_e_regret
  (a run stores x, action, reward and e_regret, a suite e_regret alone;
  ``write_trace_csv`` makes t, epoch, phase and cum_e_regret chunk by chunk)
* epochs:  m,tau_start,tau_end,gamma,alpha,slack,lambda_star,duality_gap,mse_to_fhatstar
* weights: m,arm,w0,w1,...   (model in force during epoch m)
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from .diag import LemmaCheck, RegretTrace, RunArtifacts, cumsum_after
from .falcon import EpochEvent
from .harness import (CompareTable, RunResult, SuiteSummary, load_config, run_artifacts,
                      run_lemmas, save_config)

TRACE_HEADER = "t,epoch,phase,x,action,reward,e_regret,cum_e_regret"
EPOCHS_HEADER = "m,tau_start,tau_end,gamma,alpha,slack,lambda_star,duality_gap,mse_to_fhatstar"
SUMMARY_HEADER = "t,mean_e_regret,se_e_regret,mean_cum_e_regret,se_cum_e_regret"
COMPARE_HEADER = "checkpoint,config,agent,cum_e_regret_mean,cum_e_regret_se"
LEMMAS_HEADER = "name,epoch,lhs,rhs,se,passed,note"

TRACE_ROWS_PER_WRITE = 1024  # CSV rows formatted per write: it bounds the text's memory

# write_csv builds a chunk of text as one uint8 matrix, a row per line: each
# cell is NUL-padded and the separators are columns of their own, so
# dropping every NUL leaves the lines.  A number is spelled as a row of
# 4-byte words, indices into _WORDS: the ASCII digits of 0000..9999, then
# NUL, "-" and "." padded with NUL.
# (The tables are built at import, in small dtypes: large temporaries would
# raise the peak memory of every process that writes.)
_WORDS = np.zeros((10_003, 4), np.uint8)
_WORDS[:10_000] = np.arange(10_000, dtype=np.int16)[:, None] \
    // np.array([1000, 100, 10, 1], np.int16) % 10 + 48
_WORDS[10_001:, 0] = ord("-"), ord(".")
_WORDS = _WORDS.view(np.uint32).ravel()
_NUL, _MINUS, _POINT = 10_000, 10_001, 10_002
_TRAILING_ZEROS = sum(np.arange(10_000, dtype=np.int16) % 10 ** k == 0
                      for k in range(1, 5)).astype(np.int8)
_SPLIT = 134_217_729.0  # 2^27 + 1, Veltkamp's splitter for Dekker's exact product
_TENS = 10.0 ** np.arange(22)  # exact: 5^21 < 2^53
_TENS_HI = _SPLIT * _TENS - (_SPLIT * _TENS - _TENS)
_TENS_LO = _TENS - _TENS_HI
_INT_TENS = 10 ** np.arange(18, dtype=np.int64)


def _keep_masks(q: int) -> np.ndarray:
    """Byte masks (0 or 0xFF, read as words) over a number's words: sign,
    q words of integer digits, point, 5 words of fraction digits.  Row
    (X + 4) * 21 + end keeps the max(X, 0) + 1 last integer digits and the
    fraction positions in [X + 4, end)."""
    X, end = np.arange(-4, 16)[:, None, None], np.arange(21)[None, :, None]
    pos = np.arange(4 * q + 28)
    whole, frac = pos - 4, pos - 4 * q - 8
    keep = (pos < 4) | ((whole >= 4 * q - np.maximum(X, 0) - 1) & (whole < 4 * q)) \
        | ((frac >= -4) & (frac < 0)) | ((frac >= X + 4) & (frac < end))
    return (keep.astype(np.uint8) * 0xFF).reshape(420, -1).view(np.uint32)


_KEEP = [None] + [_keep_masks(q) for q in range(1, 5)]


def _put_words(out: np.ndarray, a: np.ndarray) -> list[np.ndarray]:
    """Write the base-10^4 digits of the int64s 0 <= a < 10^(4 k) into the k
    columns of ``out``, most significant first, and return them."""
    words = []
    for _ in range(out.shape[1] - 1):
        q = a // 10_000
        words.insert(0, a - q * 10_000)
        a = q
    words.insert(0, a)
    for j, w in enumerate(words):
        out[:, j] = w
    return words


def _number_cells(negative, whole, X, fraction=None) -> np.ndarray:
    """One NUL-padded row per number: a sign, the max(X, 0) + 1 digits of
    the int64 ``whole``, and, if the int64 ``fraction`` (right-aligned in 20
    digits, from position X + 4) is given, a point and its digits up to the
    last nonzero one; no point when none is left."""
    q = (max(int(X.max()), 0) + 4) // 4
    words = np.empty((len(whole), q + (1 if fraction is None else 7)), np.int64)
    words[:, 0] = np.where(negative, _MINUS, _NUL)
    _put_words(words[:, 1:q + 1], whole)
    end = 0
    if fraction is not None:
        _, *low = _put_words(words[:, q + 2:], fraction)
        # the digits end where the trailing zeros of the last 16 begin
        t = [_TRAILING_ZEROS[w] for w in low]
        end = 20 - (t[3] + (low[3] == 0) * (t[2] + (low[2] == 0) * (t[1] + (low[1] == 0) * t[0])))
        words[:, q + 1] = np.where(end > X + 4, _POINT, _NUL)
    cells = np.take(_WORDS, words)
    cells &= np.take(_KEEP[q], (X + 4) * 21 + end, axis=0)[:, :words.shape[1]]
    return cells.view(np.uint8)


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

    Finite values with 1e-4 <= |x| < 1e15, and +-0, are printed in fixed
    notation with 17 significant digits N * 10^(X - 16): X is estimated as
    floor(log10|x|), N is |x| * 10^(16 - X) rounded half to even exactly
    (``_scaled``), and where N falls outside [10^16, 10^17) -- the estimate
    was off by one or the rounding carried -- X moves by one and N is made
    again.  Every other value (nan, +-inf, and those at or near where
    ``%.17g`` turns to scientific notation) is rare in the artifacts and goes
    through Python's own ``'%.17g'``, one at a time, which keeps the output
    exact for all."""
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
    unit = _INT_TENS[np.minimum(16 - X, 17)]
    whole = N // unit
    return _with_python(_number_cells(np.signbit(v), whole, X, N - whole * unit), v, fast, "%.17g")


def _int_cells(v: np.ndarray) -> np.ndarray:
    """``'%d' % x`` of each integer (a bool is 0 or 1), one NUL-padded row
    per value; those of 16 digits or more, and a column of any other type,
    go through Python's ``'%d'``."""
    if v.dtype.kind == "b" or v.dtype.kind in "iu" and v.itemsize < 8:
        v = v.astype(np.int64)  # a narrower int's minimum has no absolute value
    if v.dtype.kind != "i":
        return _text_rows([b"%d" % x for x in v.tolist()])
    fast = (v > -10 ** 16) & (v < 10 ** 16)
    a = np.abs(np.where(fast, v, 0))
    digits = np.searchsorted(_INT_TENS[1:17], a, side="right") + 1
    return _with_python(_number_cells(v < 0, a, digits - 1), v, fast, "%d")


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
            fh.write(text[text != 0].tobytes())


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


def write_weights_csv(artifacts: RunArtifacts, path: str) -> None:
    """One line per (epoch, arm); with no models, the header of the run's d."""
    M, K, p = len(artifacts.models), artifacts.spec.num_arms, artifacts.spec.context_dim + 1
    W = np.array([model.weights for model in artifacts.models]).reshape(M * K, p)
    write_csv(path, "m,arm," + ",".join(f"w{j}" for j in range(p)),
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
    write_weights_csv(result.artifacts, os.path.join(out_dir, "weights.csv"))
    write_lemmas_csv(result.lemma_report, os.path.join(out_dir, "lemmas.csv"))


def read_weights_csv(path: str) -> list[np.ndarray]:
    """Inverse of write_weights_csv: per-epoch weight matrices."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [[float(c) for c in ln.split(",")] for ln in fh.read().splitlines()[1:] if ln]
    by_epoch: dict[float, list[list[float]]] = {}
    for m, _, *w in rows:  # written epoch by epoch, arm by arm
        by_epoch.setdefault(m, []).append(w)
    return [np.array(ws) for ws in by_epoch.values()]


def reanalyze_run_dir(run_dir: str) -> list[LemmaCheck]:
    """Re-run the inequality suite from a stored run directory: the stored
    weights and config (whose ``base_seed`` is the run's seed) rebuild the
    run's artifacts and its diagnostics stream, so the report equals the
    run's own."""
    config = load_config(os.path.join(run_dir, "config.txt"))
    weights = read_weights_csv(os.path.join(run_dir, "weights.csv"))
    return run_lemmas(config, config.base_seed, run_artifacts(config, weights), [])
