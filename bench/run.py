"""banditlab benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload falcon_run --seed 1 --seconds 32 --trace 0

Workloads (see ``workloads.py`` for why each was chosen): ``falcon_run``,
``linucb_suite`` and ``oracle_refit``.  Each runs in its own process,
single-threaded, with BLAS pinned to one thread.  The package is imported
from ``src/`` next to this directory; without it the benchmark exits with
code 2 and prints no result.

``--trace 0`` repeats the workload's operation for ``--seconds`` seconds and
reports the end-to-end metrics:

* ``op_s``: median seconds per operation (the time per round or row is
  printed beside it as a derived value);
* ``setup_s``: median time from process start until the first operation
  can begin (imports, input generation, config files), over several fresh
  processes;
* ``peak_rss_mb``: peak resident memory of this process.

On the shared 2-vCPU Xeon KVM guest the baseline was measured on, CPU
speed drifts by up to 1.5x over seconds to minutes, which no statistic over
one run removes (process CPU time drifts with wall time, so it is not
preemption).  So every operation and every set-up is
timed back to back with the same one run on ``banditlab_ref``, a frozen copy
of the package kept in this directory (in its own process, pinned to the
same CPU), and ``op_s``/``setup_s`` are the median ratio of the two times
multiplied by the reference's median time on the baseline machine
(``ref_op_s``/``ref_setup_s`` in ``workloads.py``).  They read as seconds
at the baseline machine's speed; the raw wall medians are printed beside
them and kept in the report.  Whether the outputs still equal the
reference's, bit for bit, is printed too.

``failed_frac`` (operations whose output check failed over operations
attempted) is printed, and is ``failed / attempted`` of the result line.

``--trace 1`` spends half the time on untraced operations and half on
operations traced by ``tracer.py`` (no reference), and reports the
per-layer metrics of the median traced operation, the tracing overhead in
wall seconds, and the untraced oracle fit times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--report PATH``
also writes every detail (per-operation times, determinism digests, the
machine record) as JSON.
"""

import os

# Pin BLAS to one thread before numpy is loaded.  At OpenBLAS's default of
# two threads the last bits of large weighted fits change, and with them the
# determinism digests and the timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
SETUP_REPEATS = 5
MIN_OPS = 3
WORKLOAD_NAMES = ("falcon_run", "linucb_suite", "oracle_refit")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", default=None, help="write all details as JSON here")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------

def _blas_threads():
    """Thread count OpenBLAS reports at run time, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype, fn.argtypes = ctypes.c_int, []
                    return int(fn())
    except OSError:
        pass
    return None


def machine_record() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def _command(args, *extra) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def setup_times(args) -> tuple[list[float], list[float]]:
    """Process start to ready-for-the-first-operation, in fresh processes:
    SETUP_REPEATS of the package, each between two of the reference."""
    times = {False: [], True: []}
    for i in range(2 * SETUP_REPEATS + 1):
        reference = i % 2 == 0
        cmd = _command(args, "--setup-probe", *(["--reference"] if reference else []))
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}:\n{proc.stderr}")
        times[reference].append(float(proc.stdout.split()[-1]) - t0)
    return times[False], times[True]


class Reference:
    """The workload on the frozen reference copy, in a worker process of its
    own so that its memory does not count in this process's peak."""

    def __init__(self, args):
        self.proc = subprocess.Popen(_command(args, "--reference"), stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def op(self) -> tuple[float, str]:
        """Wall seconds and output digest of one reference operation."""
        self.proc.stdin.write("op\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline().split()
        if len(reply) != 2:
            raise RuntimeError("the reference worker stopped")
        return float(reply[0]), reply[1]

    def close(self) -> None:
        try:
            self.proc.stdin.close()  # the worker ends at end of input
        except BrokenPipeError:
            pass  # it has already exited
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def serve(workload) -> int:
    """Reference worker: one operation per line on stdin, answered with its
    wall time and output digest."""
    for _ in sys.stdin:
        gc.collect()
        t0 = time.perf_counter()
        out = workload.op()
        op_s = time.perf_counter() - t0
        outcome = workload.check(out)
        del out  # as in run_ops: no output outlives its check
        if not outcome.ok:
            raise RuntimeError(f"reference output failed its check: {outcome.problems}")
        print(op_s, outcome.digest, flush=True)
    return 0


def run_ops(workload, seconds: float, tracer=None, reference=None) -> list[dict]:
    """Repeat the operation, at least MIN_OPS times, while another round
    fits in ``seconds``; check each output outside the timed region.  With a
    reference, each operation runs between two reference operations and
    ``ref_s`` is their mean."""
    from workloads import Outcome

    records = []
    ref_before = reference.op()[0] if reference else None
    start, last_round = time.perf_counter(), 0.0
    while len(records) < MIN_OPS or time.perf_counter() - start + last_round <= seconds:
        round_start = time.perf_counter()
        gc.collect()
        out, error, spans = None, None, None
        if tracer is not None:
            tracer.begin()
        t0 = time.perf_counter()
        try:
            out = workload.op()
        except Exception:  # a failing operation is counted, not fatal
            error = traceback.format_exc()
        op_s = time.perf_counter() - t0
        if tracer is not None:
            spans = tracer.end()
            op_s = spans["op_s"]
        if error is None:
            try:
                outcome = workload.check(out)
            except Exception:  # a check that cannot read the output fails the op
                outcome = Outcome([traceback.format_exc()])
        else:
            outcome = Outcome([error])
        del out
        record = {"op_s": op_s, "outcome": outcome, "spans": spans}
        if reference:
            ref_after, record["ref_digest"] = reference.op()
            record["ref_s"] = (ref_before + ref_after) / 2
            ref_before = ref_after
        records.append(record)
        last_round = time.perf_counter() - round_start
    return records


def mark_nondeterminism(records: list[dict]) -> None:
    """Identical inputs must give identical outputs: an operation whose
    digest differs from the first one's fails."""
    digests = [r["outcome"].digest for r in records if r["outcome"].ok]
    for r in records[1:] if digests else []:
        o = r["outcome"]
        if o.ok and o.digest != digests[0]:
            o.problems.append(f"output digest {o.digest} differs from {digests[0]}")


def layer_metrics(targets, untraced, traced, absent) -> dict:
    """Per-layer metrics of the median traced operation (by wall time)."""
    pick = sorted(traced, key=lambda r: r["op_s"])[(len(traced) - 1) // 2]
    spans, counters = pick["spans"], pick["outcome"].counters
    m = {}
    for name in targets:
        m[f"{name}.calls"] = (spans["calls"][name], "count")
        m[f"{name}.self_s"] = (spans["self_s"][name], "s")
    for label in ("n1e4", "n1e5", "n4e5"):
        times = [r["outcome"].counters.get(f"s_{label}") for r in untraced]
        times = [t for t in times if t is not None]
        m[f"linmodel.constrained_fit.s_{label}"] = (statistics.median(times) if times else 0.0, "s")
    refits = spans["refits"]
    m["linmodel.weighted_fits_per_refit"] = (spans["weighted_fits"] / refits if refits else 0.0,
                                             "count")
    m["linmodel.dual_converged_ratio"] = (spans["converged"] / refits if refits else 0.0, "ratio")
    m["linmodel.ridge_fallback.count"] = (spans["ridge_fallback"], "count")
    m["diag.lemma_checks"] = (counters.get("lemma_checks", 0), "count")
    m["diag.lemma_failed"] = (counters.get("lemma_failed", 0), "count")
    m["harness.csv_bytes"] = (counters.get("csv_bytes", 0), "bytes")
    m["other.self_s"] = (spans["other_s"], "s")
    untraced_s = statistics.median(r["op_s"] for r in untraced)
    m["trace.op_s"] = (pick["op_s"], "s")
    m["trace.untraced_op_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (pick["op_s"] - untraced_s, "s")
    m["trace.absent"] = (len(absent), "count")
    return m


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "banditlab", "__init__.py")):
        print(f"error: banditlab source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    package, home = ("banditlab_ref", HERE) if args.reference else ("banditlab", SRC)
    imported = importlib.import_module(package)
    if os.path.dirname(os.path.dirname(os.path.abspath(imported.__file__))) != home:
        print(f"error: {package} was imported from {imported.__file__}, not {home}",
              file=sys.stderr)
        return 2
    import tracer as tracermod
    from workloads import WORKLOADS

    if not (args.setup_probe or args.reference):
        # The package and its reference must share one CPU to share its speed.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, package)
        if args.setup_probe:
            print(time.monotonic(), flush=True)
            return 0
        if args.reference:
            return serve(workload)
        return measure(args, workload, tracermod)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it


def _ratio_median(times, ref_times) -> float:
    return statistics.median(t / r for t, r in zip(times, ref_times))


def measure(args, workload, tracermod) -> int:
    machine = machine_record()
    if machine["blas_threads"] not in (None, 1):
        print(f"error: BLAS runs {machine['blas_threads']} threads, not 1", file=sys.stderr)
        return 2
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "unit": workload.unit,
              "units_per_op": workload.units_per_op}
    if args.trace == 0:
        report["setup_s"], report["setup_ref_s"] = setup_times(args)
        reference = Reference(args)
        try:
            records = run_ops(workload, args.seconds, reference=reference)
        finally:
            reference.close()
        untraced, traced = records, []
    else:
        untraced = run_ops(workload, args.seconds / 2)
        tracer = tracermod.Tracer()
        tracer.install()
        try:
            traced = run_ops(workload, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        records = untraced + traced
    mark_nondeterminism(records)
    failed = sum(not r["outcome"].ok for r in records)
    wall_s = statistics.median(r["op_s"] for r in untraced)

    print(f"banditlab benchmark: workload={workload.name} seed={args.seed} "
          f"trace={args.trace} ops={len(records)}")
    print(f"  machine      python {machine['python']}, numpy {machine['numpy']}, "
          f"{machine['blas']} on {machine['blas_threads']} thread(s), "
          f"nproc {machine['nproc']}, src lines {machine['src_lines']}")
    if args.trace == 0:
        ref_s = [r["ref_s"] for r in records]
        setup_ref = [(a + b) / 2 for a, b in zip(report["setup_ref_s"], report["setup_ref_s"][1:])]
        op_ratio = _ratio_median([r["op_s"] for r in records], ref_s)
        setup_ratio = _ratio_median(report["setup_s"], setup_ref)
        metrics = {
            "op_s": (op_ratio * workload.ref_op_s, "s"),
            "setup_s": (setup_ratio * workload.ref_setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        op_s = metrics["op_s"][0]
        print(f"  op_s         {op_s:.4f} s   ({op_s / workload.units_per_op * 1e6:.3f} us/"
              f"{workload.unit}; x{op_ratio:.4f} the reference over {len(records)} ops; "
              f"wall median {wall_s:.4f} s, reference {statistics.median(ref_s):.4f} s)")
        print(f"  setup_s      {metrics['setup_s'][0]:.4f} s   (x{setup_ratio:.4f} the reference "
              f"over {SETUP_REPEATS} fresh processes; wall median "
              f"{statistics.median(report['setup_s']):.4f} s)")
        print(f"  peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MB")
        report["ref_op_s"] = ref_s
        report["matches_reference"] = all(r["outcome"].digest == r["ref_digest"] for r in records)
        print(f"  reference    outputs bit-identical to the frozen reference: "
              f"{'yes' if report['matches_reference'] else 'NO'}")
    else:
        print(f"  op_s         {wall_s:.4f} s wall   ({len(untraced)} untraced ops)")
        report["absent"] = tracer.absent
        metrics = layer_metrics(tracer.targets, untraced, traced, tracer.absent)
        print_layers(metrics, tracer)
    print(f"  failed_frac  {failed / len(records):.4g}   ({failed} of {len(records)} ops)")
    digests = sorted({r["outcome"].digest for r in records if r["outcome"].ok})
    print(f"  digest       {', '.join(digests) or '-'}")
    for r in records:
        for problem in r["outcome"].problems:
            print(f"  FAILED       {problem}")

    report.update({
        "op_s": [r["op_s"] for r in untraced],
        "traced_op_s": [r["op_s"] for r in traced],
        "digests": digests,
        "counters": [r["outcome"].counters for r in records],
        "calls_stable": len({json.dumps(r["spans"]["calls"], sort_keys=True)
                             for r in traced}) <= 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": len(records),
        "failed": failed,
    })
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": report["metrics"]}), flush=True)
    return 0


def print_layers(metrics: dict, tracer) -> None:
    total = metrics["trace.op_s"][0]
    print(f"  traced op    {total:.4f} s   (overhead {metrics['trace.overhead_s'][0]:+.4f} s "
          f"over the untraced median)")
    for name in tracer.targets:
        if name in tracer.absent:
            print(f"    {name:28s} absent")
            continue
        calls, self_s = metrics[f"{name}.calls"][0], metrics[f"{name}.self_s"][0]
        print(f"    {name:28s} calls {calls:>9d}  self {self_s:9.4f} s  "
              f"{100 * self_s / total:5.1f}%")
    other = metrics["other.self_s"][0]
    print(f"    {'other':28s} {'':15s}  self {other:9.4f} s  {100 * other / total:5.1f}%")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_s")) and not name.startswith("trace."):
            print(f"    {name:40s} {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
