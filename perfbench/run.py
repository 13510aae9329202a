"""Benchmark of the brinkhdg solver: end-to-end and per-layer numbers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME|all --seed N --seconds T --trace 0|1

Workloads (see workloads.py): ``solve-quad-k1`` (one 1,024-quad level,
factorization-bound), ``ladder-tri-k3`` (the paper's triangle ladder at
k=3 for tests 1-3, bound by per-cell loops) and ``oracle-perturbed-tri-k2``
(a seeded perturbed mesh where every cell is its own geometry class, with
the monolithic oracle solve).  Each study is one closed-loop client: one
process runs one study at a time, for about T seconds.

Untraced (``--trace 0``) it prints, per workload, the median study wall
time ``wall_s`` and the median summed ``solve_hybrid`` time ``solve_s``,
each in seconds and, as ``wall_rel`` and ``solve_rel``, in units of a
fixed yardstick computation timed around each study (studies.Yardstick):
the host's speed drifts by 20-40% over tens of seconds, and the ratios
cancel most of that drift, so they are the bounded metrics of
BENCHMARK.json.  It also prints the median of several fresh-process
set-up times ``setup_s``, the measuring process's ``peak_rss_mb`` and
``fail_frac`` (printed only: it is 0 on a correct program, so it is
carried by the JSON's ``failed`` and ``attempted`` rather than listed as
a metric).  Traced (``--trace 1``) it
prints the per-layer metrics listed in BENCHMARK.json and the tracing
overhead, and writes the spans under ``.bench_out/``.  The last line of
output is one JSON object: correct, attempted, failed and metrics.

An operation is one solve (``solve_hybrid`` or ``solve_direct``).  It
fails if its study raises or if it misses a check: error values against
perfbench/reference.json to 1e-8 relative (for the perturbed workload
only at its default seed; other seeds are checked against the run's
first study), oracle gap <= 1e-9, and mass balance, normal-trace jumps
and |int p| <= 1e-10.  Timing is never a check.

The program is imported from the checkout's ``src``; BLAS runs with one
thread in every child process.  ``perfbench/test_bench.py`` tests the
benchmark itself at tiny sizes; ``worker.py record`` re-records the
reference errors.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 7
TIME_LIMIT_S = 170.0
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(args, env, deadline, stdout=subprocess.PIPE):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before " + args[0])
    try:
        proc = subprocess.run([sys.executable, str(WORKER)] + args, env=env,
                              stdout=stdout, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
    return proc.stdout


def run_workload(name, seed, seconds, trace, root, spec):
    deadline = time.monotonic() + TIME_LIMIT_S
    env = child_env(root)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}-trace{trace}"
    setup = []
    if not trace:
        for _ in range(SETUP_RUNS):
            setup.append(float(run_child(["setup", "--workload", name], env,
                                         deadline).strip().splitlines()[-1]))
    args = ["measure", "--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--out", f"{stem}.json"]
    if trace:
        args += ["--spans", f"{stem}.spans.json"]
    run_child(args, env, deadline, stdout=sys.stderr)
    with open(f"{stem}.json") as fh:
        result = json.load(fh)
    values = result["metrics"]
    if values is None:
        raise BenchError(f"{name}: no study completed: {result['studies'][-1]}")
    if not trace:
        values["setup_s"] = statistics.median(setup)
        result["setup_runs_s"] = setup
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"{name}: metrics not measured: {missing}")
    result["reported"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted}
    with open(f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return result


def report(result):
    w = WORKLOADS[result["workload"]]
    studies = [s for s in result["studies"] if "wall_s" in s]
    seed = (f"seed {result['seed']}" if w.seeded
            else f"seed {result['seed']} (ignored: structured mesh)")
    print(f"== {w.name}  {seed}  trace {result['trace']}  "
          f"{len(studies)} studies in {result['seconds']:g} s")
    for name, m in result["reported"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    for name, value in result.get("seconds_median", {}).items():
        print(f"  {name:36s} {value:.6g} s")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':36s} {frac:.6g} 1 ({result['failed']} of "
          f"{result['attempted']} solves failed)")
    for s in result["studies"]:
        for msg in s.get("problems", []):
            print(f"  problem: {msg}")
    checks = {k: v for k, v in result["checks"].items() if k != "error_rows"}
    print("  checks: " + ", ".join(f"{k} {v:.2e}" for k, v in checks.items()))
    if result.get("top_self_s"):
        print("  largest self times: " + ", ".join(
            f"{n} {t:.3f} s" for n, t in result["top_self_s"]))
    env = result["env"]
    print("  machine: " + ", ".join(f"{k} {v}" for k, v in env.items()))


def main(argv=None):
    ap = argparse.ArgumentParser(description="brinkhdg benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "brinkhdg" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/brinkhdg",
              file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(name, args.seed, seconds, args.trace, root,
                                  spec)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(result)
        print(json.dumps({"correct": result["failed"] == 0,
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": result["reported"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
