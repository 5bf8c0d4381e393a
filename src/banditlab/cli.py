"""Command-line entry points.

Verbs:
    run      --config PATH [--seed N] [--out DIR]
    suite    --config PATH [--reps R] --out DIR
    compare  --config A --config B [...] --out DIR
    diag     --run DIR
    oracle   --env KIND [--theta X]

Exit codes: 0 on success, 1 on configuration/validation errors and on a
config that asks for arrays this machine cannot hold (MemoryError), 2 on
numerical failure (dual non-convergence, non-finite data, a singular matrix,
any other ArithmeticError such as a zero kernel probability).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from numpy.linalg import LinAlgError

from . import csvio, harness
from . import env as envmod


def _cmd_run(args) -> int:
    config = harness.load_config(args.config)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    result = harness.run_one(config)
    out = args.out or config.out_dir
    if out:
        csvio.write_run_dir(result, out)
        print(f"wrote run artifacts to {out}")
    trace = result.trace
    print(f"rounds={len(trace)} cum_e_regret={trace.cum_e_regret[-1]:.4f} "
          f"noisy_regret={trace.noisy_regret_total:.4f} epochs_completed={len(result.events)}")
    unconverged = [str(ev.m) for ev in result.events if ev.report and not ev.report.converged]
    if unconverged:
        print(f"warning: the constrained refit's dual did not converge after epochs "
              f"{', '.join(unconverged)}; each installed model is feasible but the "
              f"constraint is not tight to tolerance", file=sys.stderr)
    failed = [c for c in result.lemma_report if not c.passed]
    print(f"lemma checks: {len(result.lemma_report) - len(failed)} passed, "
          f"{len(failed)} failed")
    return 0


def _cmd_suite(args) -> int:
    config = harness.load_config(args.config)
    if args.reps is not None:
        config = replace(config, replications=args.reps)
    summary = harness.run_suite(config)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "summary.csv")
    csvio.write_summary_csv(summary, path)
    print(f"wrote {path} ({summary.replications} replications, "
          f"mean final cum regret {summary.mean_cum_e_regret[-1]:.4f})")
    return 0


def _cmd_compare(args) -> int:
    configs = []
    for path in args.config:
        try:
            configs.append(harness.load_config(path))
        except Exception as exc:
            exc.add_note(f"config {path}")
            raise
    table = harness.compare(configs)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "compare.csv")
    csvio.write_compare_csv(table, path)
    print(table.format_text())
    print(f"wrote {path}")
    return 0


def _cmd_diag(args) -> int:
    report = csvio.reanalyze_run_dir(args.run)
    path = os.path.join(args.run, "lemmas.csv")
    csvio.write_lemmas_csv(report, path)
    for c in report:
        where = "" if c.epoch is None else f" m={c.epoch}"
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}{where}: "
              f"lhs={c.lhs:.5g} rhs={c.rhs:.5g} ({c.note})")
    print(f"wrote {path}")
    return 0


def _cmd_oracle(args) -> int:
    spec = envmod.EnvSpec(kind=args.env, theta=args.theta)
    fit = envmod.best_linear_fit_uniform(spec)
    b, B = envmod.closed_form_errors(spec)
    print(f"best linear fit under uniform sampling ({spec.kind}):")
    for a in range(fit.num_arms):
        cells = " ".join(f"{w:.10g}" for w in fit.weights[a])
        print(f"  arm {a + 1}: {cells}")
    print(f"approximation error b = {b:.10g}")
    print(f"worst-case error    B = {B:.10g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="banditlab",
                                     description="contextual-bandit experiment runner")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="one run of one agent")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("suite", help="replicated runs, aggregated")
    p.add_argument("--config", required=True)
    p.add_argument("--reps", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_suite)

    p = sub.add_parser("compare", help="cumulative regret table across configs")
    p.add_argument("--config", action="append", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("diag", help="re-run inequality checks on stored artifacts")
    p.add_argument("--run", required=True)
    p.set_defaults(fn=_cmd_diag)

    p = sub.add_parser("oracle", help="closed-form fit and error constants")
    p.add_argument("--env", required=True, choices=list(envmod.ENV_KINDS))
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(fn=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (LinAlgError, ArithmeticError, RuntimeError) as exc:  # LinAlgError is a ValueError
        print(f"numerical failure: {_describe(exc)}", file=sys.stderr)
        return 2
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 1


def _describe(exc: BaseException) -> str:
    """The message (the exception's type if it has none, as a bare
    MemoryError) plus any notes, such as which replication failed."""
    return "; ".join([str(exc) or type(exc).__name__, *getattr(exc, "__notes__", [])])


if __name__ == "__main__":
    sys.exit(main())
