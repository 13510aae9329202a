"""Child process of the benchmark.

    worker.py setup   --workload W
        time the imports of numpy, scipy and brinkhdg, make_case validation
        and element_family(kind, k) in this fresh process; print seconds
    worker.py measure --workload W --seed S --seconds T --trace 0|1 --out F
        run studies of W for about T seconds, check them, write a JSON result
    worker.py record
        run every workload once at DEFAULT_SEED and write reference.json

Run from a checkout root with its ``src`` first on PYTHONPATH; ``run.py``
starts this process with that path and a fixed BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def setup(w):
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import brinkhdg
    for test in w.tests:
        brinkhdg.make_case(test)
    brinkhdg.element_family(w.kind, w.k)
    return time.perf_counter() - t0


def environment():
    """Machine and library versions, recorded with every result."""
    import platform

    import numpy
    import scipy

    def proc_field(path, key):
        try:
            with open(path) as fh:
                for line in fh:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return None

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    mem_kb = proc_field("/proc/meminfo", "MemTotal")
    return {
        "cpu": proc_field("/proc/cpuinfo", "model name") or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_gb": round(int(mem_kb.split()[0]) / 2 ** 20, 2) if mem_kb else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(w, seed, seconds, trace, expected, spans_path=None):
    """Run studies of `w` for about `seconds`; return the result record.

    Untraced, every study is timed, and so is the yardstick after it
    (studies.Yardstick); each study's times are divided by the mean of
    the yardstick times just before and just after it, and the medians of
    those ratios are the end-to-end times.  Traced, studies alternate untraced and
    traced (at least one of each), and the difference of their median wall
    times is the tracing overhead.  Each study's error rows are checked
    against `expected` (or, without it, against the first study's); the
    first study's solves also get the structural checks.  Checks run
    outside the timed section but inside the time budget.
    """
    import resource

    import brinkhdg
    import spans
    import studies

    tracer = spans.Tracer() if trace else None
    if tracer:
        tracer.run = "setup"
        tracer.install()
    try:
        cases = [brinkhdg.make_case(test) for test in w.tests]
        brinkhdg.element_family(w.kind, w.k)
    finally:
        if tracer:
            tracer.uninstall()
    inputs = studies.make_inputs(w, seed)
    yardstick = studies.Yardstick()
    yardstick.seconds()  # warm-up
    yard_before = yardstick.seconds()

    records, walls = [], {False: [], True: []}
    attempted = failed = 0
    checks = {}
    first_rows = None
    start = time.perf_counter()
    while True:
        i = len(records)
        traced = bool(trace) and i % 2 == 1
        if traced:
            tracer.run = f"study{i}"
            tracer.install()
            for case in cases:
                tracer.wrap_case(case)
        probe = studies.SolveProbe(keep=(i == 0))
        error = None
        try:
            with probe:
                t0 = time.perf_counter()
                rows, gap = studies.run_study(w, cases, inputs)
                wall = time.perf_counter() - t0
        except Exception as exc:  # a failed study is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                tracer.uninstall()

        attempted += w.solves
        rec = {"traced": traced}
        if error:
            failed += w.solves
            rec["problems"] = [error]
            records.append(rec)
            break
        yard_after = yardstick.seconds()
        yard = (yard_before + yard_after) / 2
        yard_before = yard_after
        bad, problems = set(), []
        for j, msg in studies.check_rows(rows, expected if expected is not None
                                         else first_rows):
            bad.add(j)
            problems.append(msg)
        if gap is not None and not gap <= studies.ORACLE_TOL:
            bad.add("direct")
            problems.append(f"oracle gap {gap:.3e} exceeds {studies.ORACLE_TOL:.0e}")
        if i == 0:
            if len(probe.solves) != len(rows):
                bad.add("capture")
                problems.append(f"{len(probe.solves)} solves seen, {len(rows)} rows")
            for j, (spaces, fields) in enumerate(probe.solves):
                values, probs = studies.check_solve(spaces, fields,
                                                    cases[j // w.levels])
                for key, val in values.items():
                    checks[key] = max(checks.get(key, 0.0), val)
                if probs:
                    bad.add(j)
                    problems += probs
            if gap is not None:
                checks["oracle_gap"] = gap
            checks["error_rows"] = rows
        rec.update(wall_s=wall, solve_s=probe.seconds, yardstick_s=yard,
                   failed=len(bad), problems=problems)
        del probe
        first_rows = first_rows or rows
        failed += min(len(bad), w.solves)
        records.append(rec)
        walls[traced].append(wall)

        elapsed = time.perf_counter() - start
        nxt = bool(trace) and (i + 1) % 2 == 1
        if trace and not walls[True]:
            continue
        predicted = (walls[nxt] or walls[traced])[-1] + yard_after
        if elapsed + predicted > seconds:
            break

    result = {
        "workload": w.name, "seed": seed, "seed_used": w.seeded,
        "trace": int(bool(trace)), "seconds": seconds,
        "attempted": attempted, "failed": failed, "checks": checks,
        "studies": records, "env": environment(),
        "program": os.path.dirname(brinkhdg.__file__),
    }
    if not walls[False] or (trace and not walls[True]):
        result["metrics"] = None
        return result
    if not trace:
        timed = [r for r in records if "wall_s" in r]
        result["seconds_median"] = {
            key: statistics.median([r[key] for r in timed])
            for key in ("wall_s", "solve_s", "yardstick_s")}
        result["metrics"] = {
            "wall_rel": statistics.median([r["wall_s"] / r["yardstick_s"] for r in timed]),
            "solve_rel": statistics.median([r["solve_s"] / r["yardstick_s"] for r in timed]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return result
    views = [spans.RunView(tracer, f"study{i}")
             for i, r in enumerate(records) if r["traced"] and "wall_s" in r]
    per_study = [spans.layer_metrics(v) for v in views]
    metrics = {}
    for key in per_study[0]:
        vals = [m[key] for m in per_study]
        # counts repeat exactly; keep them whole
        metrics[key] = vals[0] if len(set(vals)) == 1 else statistics.median(vals)
    metrics["refelem.family_s"] = spans.RunView(tracer, "setup").total(
        "fespace.element_family")
    metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                   - statistics.median(walls[False]))
    result["metrics"] = metrics
    result["top_self_s"] = views[0].top_self()
    if spans_path:
        first = next(i for i, r in enumerate(records) if r["traced"])
        tracer.dump(spans_path, runs=("setup", f"study{first}"))
    return result


def load_reference(w, seed):
    """Recorded error rows that apply to this workload and seed, or None."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)[w.name]
    if w.seeded and seed != ref["seed"]:
        return None
    return ref["rows"]


def record():
    import studies

    import brinkhdg
    out = {}
    for w in WORKLOADS.values():
        cases = [brinkhdg.make_case(test) for test in w.tests]
        rows, _ = studies.run_study(w, cases, studies.make_inputs(w, DEFAULT_SEED))
        out[w.name] = {"seed": DEFAULT_SEED if w.seeded else None, "rows": rows}
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p_meas = sub.add_parser("measure")
    p_meas.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p_meas.add_argument("--seed", type=int, required=True)
    p_meas.add_argument("--seconds", type=float, required=True)
    p_meas.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_meas.add_argument("--out", required=True)
    p_meas.add_argument("--spans")
    sub.add_parser("record")
    args = ap.parse_args(argv)

    if args.mode == "setup":
        print(repr(setup(WORKLOADS[args.workload])))
    elif args.mode == "record":
        record()
    else:
        w = WORKLOADS[args.workload]
        result = measure(w, args.seed, args.seconds, args.trace,
                         load_reference(w, args.seed), args.spans)
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
