"""fnclass benchmark: runs a workload's jobs and prints their metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root.  A run repeats jobs of one workload until its
time (by default BENCHMARK.json's run_seconds) is spent; every job is a
fresh interpreter (worker.py) at jobs=1, so module-level memos start cold as
they do for a `fnclass` command.  Set-up time is taken from each job's spawn
to its inputs being ready and reported as the median over the run's jobs and
SETUP_ONLY extra interpreters that stop once set up.

With --trace 0 the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 jobs run in pairs on identical inputs, one
plain and one with span wrappers installed, and the last line carries the
per-layer metrics.  Human-readable lines before it name the metrics the
way README.md does.  --all runs every workload and prints those lines only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("space_scan", "orbit_scan", "analyze_stream")
RUN_LIMIT_S = 170  # a run must end well inside the 180 s a run may take
SETUP_ONLY = 6
MODULES = ("bitops", "classify", "diagrams", "separability", "kfun", "spform",
           "groups", "scan5")
# names of the headline rate and the unit-operation rate (README.md)
NAMES = {
    "space_scan": ("scan_fn_per_s", "sample5_fn_per_s"),
    "orbit_scan": ("orbit_fn_per_s", "canon_fn_per_s"),
    "analyze_stream": ("analyze_req_per_s", None),
}


class BenchError(RuntimeError):
    pass


def run_job(workload, seed, job, mode, env, span_dir, deadline) -> dict:
    span_file = span_dir / f"{workload}-seed{seed}-job{job}.spans.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           str(job), repr(time.time()), mode, str(span_file)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} job {job} exceeded the run time limit")
    if proc.returncode != 0:
        raise BenchError(f"{workload} job {job} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_jobs(workload, seed, seconds, trace, env, span_dir):
    """Set-up-only interpreters, then jobs until `seconds` are spent.

    When tracing, each job runs twice on identical inputs: plain, then traced.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    setups = [run_job(workload, seed, -1 - i, "setup", env, span_dir, deadline)
              for i in range(SETUP_ONLY)]
    plain, traced = [], []
    job = 0
    while True:
        began = time.monotonic()
        plain.append(run_job(workload, seed, job, "plain", env, span_dir,
                             deadline))
        if trace:
            traced.append(run_job(workload, seed, job, "trace", env, span_dir,
                                  deadline))
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return setups, plain, traced
        job += 1


def quantile(values, q: int) -> float:
    """q-th percentile (1..99) as statistics.quantiles gives it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(workload, setups, jobs) -> tuple[dict, list[str]]:
    unit_ms = [u for j in jobs for u in j["unit_ms"]]
    raw_ms = [u for j in jobs for u in j["unit_raw_ms"]]
    setups = setups + jobs
    metrics = {
        "setup_s": statistics.median(j["setup_s"] for j in setups),
        "throughput_per_s": statistics.median(j["main_items"] / j["main_s"]
                                              for j in jobs),
        "unit_p50_ms": statistics.median(unit_ms),
        "peak_rss_mb": max(j["peak_rss_mb"] for j in jobs),
    }
    raw_rate = statistics.median(j["main_items"] / j["main_raw_s"] for j in jobs)
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    main_name, unit_name = NAMES[workload]
    p50 = "analyze_p50_ms" if unit_name is None else "unit_p50_ms"
    speed = ", ".join(f"{kind} {statistics.median(j['speed'][kind] for j in jobs):.3g}"
                      for kind in jobs[0]["speed"])
    lines = [f"{workload}: {len(jobs)} jobs; machine speed against the "
             f"reference loops: {speed}; as measured in brackets",
             f"  {main_name} {metrics['throughput_per_s']:.6g} 1/s ({raw_rate:.6g})"]
    if unit_name:
        lines.append(f"  {unit_name} {1e3 * len(unit_ms) / sum(unit_ms):.6g} 1/s "
                     f"({1e3 * len(raw_ms) / sum(raw_ms):.6g})")
    lines.append(f"  {p50} {metrics['unit_p50_ms']:.6g} ms "
                 f"({statistics.median(raw_ms):.6g}; n={len(unit_ms)})")
    if unit_name is None:
        lines.append(f"  analyze_p99_ms {quantile(unit_ms, 99):.6g} ms "
                     f"({quantile(raw_ms, 99):.6g}; n={len(unit_ms)}, "
                     f"{len(unit_ms) // 100} beyond)")
    lines.append(f"  peak_rss_mb {metrics['peak_rss_mb']:.6g} MB")
    lines.append(f"  fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    lines.append(f"  setup_s {metrics['setup_s']:.6g} s "
                 f"({statistics.median(j['setup_raw_s'] for j in setups):.6g}; "
                 f"n={len(setups)})")
    return metrics, lines


def per_layer(names, plain, traced) -> tuple[dict, list[str]]:
    """Counts from the first traced job; times as medians over traced jobs."""
    first = traced[0]
    stats, counts = first["trace"]["stats"], first["trace"]["counts"]

    def self_s(job, span):
        return job["trace"]["stats"].get(span, [0, 0.0, 0.0])[2]

    def share(job, module):
        own = sum(v[2] for k, v in job["trace"]["stats"].items()
                  if k.startswith(module + "."))
        return own / job["wall_s"]

    odt = counts.get("diagrams.odt_nodes", 0)
    special = {
        "trace.overhead_s": statistics.median(
            t["calls_s"] - p["calls_s"] for p, t in zip(plain, traced)),
        "diagrams.reduce_ratio":
            counts.get("diagrams.odd_nodes", 0) / odt if odt else 0.0,
        "separability.closures_per_request":
            stats.get("bitops.sub_closure", [0])[0] / first["binary_requests"]
            if first.get("binary_requests") else 0.0,
        "groups.union_work": first.get("union_work", 0),
    }
    metrics = {}
    for name in names:
        if name in special:
            metrics[name] = special[name]
        elif name.endswith(".calls"):
            metrics[name] = stats.get(name[:-len(".calls")], [0])[0]
        elif name.endswith(".self_s"):
            span = name[:-len(".self_s")]
            metrics[name] = statistics.median(self_s(j, span) for j in traced)
        elif name.endswith(".self_share"):
            module = name[:-len(".self_share")]
            metrics[name] = statistics.median(share(j, module) for j in traced)
        else:
            metrics[name] = counts.get(name, 0)
    ranked = sorted(MODULES, key=lambda m: -metrics.get(m + ".self_share", 0))
    lines = [f"  traced jobs {len(traced)}; self-time share by module: "
             + ", ".join(f"{m} {metrics.get(m + '.self_share', 0):.3f}"
                         for m in ranked)]
    return metrics, lines


def run(spec, workload, seed, seconds, trace) -> tuple[dict, list[str]]:
    if not (ROOT / "src" / "fnclass" / "__init__.py").is_file():
        raise BenchError(f"no fnclass sources under {ROOT / 'src'}")
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    span_dir = ROOT / ".perfbench_out"
    if trace:
        span_dir.mkdir(exist_ok=True)
    env = dict(os.environ, FNCLASS_CACHE=str(run_dir / "cache"),
               PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        setups, plain, traced = run_jobs(workload, seed, seconds, trace, env,
                                         span_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is still using it
            pass
    jobs = plain + traced
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    metrics, lines = end_to_end(workload, setups, plain)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics, more = per_layer(list(units), plain, traced)
        lines += more
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print the named metrics")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        seconds = args.seconds or spec["run_seconds"]
        for workload in WORKLOADS if args.all else (args.workload,):
            result, lines = run(spec, workload, args.seed, seconds,
                                args.trace == 1)
            print("\n".join(lines), flush=True)
        if not args.all:
            print(json.dumps(result))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
