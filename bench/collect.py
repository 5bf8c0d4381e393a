"""Run every workload, untraced and traced, and gather one results file.

    python3 bench/collect.py --seed 1 --out bench/results/baseline.json
    python3 bench/collect.py --seed 1 --against bench/results/baseline.json

Each workload runs in its own ``bench/run.py`` process, once with
``--trace 0`` and once with ``--trace 1``.  The table printed at the end
gives op_s, setup_s, peak_rss_mb and failed_frac, with units, for every
workload.  ``--out`` writes the gathered results (end-to-end and per-layer
metrics, per-operation wall times of the package and of its frozen reference,
determinism digests and the machine record) as JSON.  ``--against`` compares with an earlier results file: the ratio of
every end-to-end metric, and whether the digests and the per-layer call
counts are identical (which is only meaningful at the same seed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("falcon_run", "linucb_suite", "oracle_refit")


def run_workload(workload: str, seed: int, seconds: float, trace: int, tmpdir: str) -> dict:
    path = os.path.join(tmpdir, f"{workload}-{trace}.json")
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--report", path]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    print("\n".join(proc.stdout.splitlines()[:-1]))  # all but the result line
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def gather(seed: int, seconds: float) -> dict:
    tmpdir = os.path.join(ROOT, ".bench_run", f"collect-{os.getpid()}")
    os.makedirs(tmpdir)
    results = {"seed": seed, "seconds": seconds, "workloads": {}}
    try:
        for workload in WORKLOADS:
            plain = run_workload(workload, seed, seconds, 0, tmpdir)
            traced = run_workload(workload, seed, seconds, 1, tmpdir)
            results["machine"] = plain["machine"]
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            end_to_end = dict(plain["metrics"])
            end_to_end["failed_frac"] = {"value": failed / attempted, "unit": "ratio"}
            results["workloads"][workload] = {
                "end_to_end": end_to_end,
                "derived": {f"us_per_{plain['unit']}": {
                    "value": plain["metrics"]["op_s"]["value"] / plain["units_per_op"] * 1e6,
                    "unit": "us"}},
                "attempted": attempted,
                "failed": failed,
                "matches_reference": plain["matches_reference"],
                "op_s_samples": plain["op_s"],
                "ref_op_s_samples": plain["ref_op_s"],
                "setup_s_samples": plain["setup_s"],
                "setup_ref_s_samples": plain["setup_ref_s"],
                "traced_op_s_samples": traced["traced_op_s"],
                "digests": sorted(set(plain["digests"]) | set(traced["digests"])),
                "per_layer": traced["metrics"],
                "absent": traced["absent"],
                "calls_stable": traced["calls_stable"],
            }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmpdir))
        except OSError:
            pass  # a benchmark run still uses it
    return results


def print_table(results: dict) -> None:
    print(f"\nseed {results['seed']}, {results['seconds']} s per run")
    print(f"{'workload':14s} {'op_s':>10s} {'derived':>18s} {'setup_s':>10s} "
          f"{'peak_rss_mb':>12s} {'failed_frac':>12s}")
    for name, w in results["workloads"].items():
        e = w["end_to_end"]
        (dname, d), = w["derived"].items()
        print(f"{name:14s} {e['op_s']['value']:>8.4f} s {d['value']:>8.3f} "
              f"{dname.replace('_per_', '/'):>9s} {e['setup_s']['value']:>8.4f} s "
              f"{e['peak_rss_mb']['value']:>9.1f} MB {e['failed_frac']['value']:>12.4g}")


def compare(results: dict, old: dict) -> None:
    print(f"\nagainst a results file of seed {old['seed']} "
          f"({'same' if old['seed'] == results['seed'] else 'DIFFERENT'} seed)")
    for name, w in results["workloads"].items():
        before = old["workloads"].get(name)
        if before is None:
            print(f"{name}: not in the earlier file")
            continue
        ratios = ", ".join(
            f"{k} x{w['end_to_end'][k]['value'] / before['end_to_end'][k]['value']:.3f}"
            for k in ("op_s", "setup_s", "peak_rss_mb"))
        same_digest = w["digests"] == before["digests"]
        changed = sorted(k for k, v in w["per_layer"].items()
                         if k.endswith(".calls") and before["per_layer"].get(k, {}).get("value")
                         != v["value"])
        print(f"{name}: {ratios}; digests {'identical' if same_digest else 'DIFFERENT'}; "
              f"calls {'identical' if not changed else 'DIFFERENT: ' + ', '.join(changed)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--out", default=None, help="write the gathered results here")
    p.add_argument("--against", default=None, help="earlier results file to compare with")
    args = p.parse_args(argv)
    results = gather(args.seed, args.seconds)
    print_table(results)
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            compare(results, json.load(fh))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
