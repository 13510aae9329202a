"""Tests of the benchmark itself, at tiny mesh sizes (a few seconds).

    python3 -m pytest perfbench/test_bench.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import studies  # noqa: E402
from worker import measure  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

TINY = {
    "solve-quad-k1": dict(base_n=4),
    "ladder-tri-k3": dict(base_n=2, levels=2),
    "oracle-perturbed-tri-k2": dict(base_n=4),
}

EXACT_COUNTS = ("linalg.fill_nnz", "linalg.nnz", "linalg.n_global",
                "linalg.add_calls", "hybrid.data_calls",
                "refelem.quadrature_calls", "fespace.n_classes")


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat(name):
    w = tiny(name)
    first = measure(w, DEFAULT_SEED, 0, 1, None)
    second = measure(w, DEFAULT_SEED, 0, 1, None)
    for result in (first, second):
        assert result["failed"] == 0, result["studies"]
        assert [s["traced"] for s in result["studies"]] == [False, True]
    for key in EXACT_COUNTS:
        assert first["metrics"][key] == second["metrics"][key] > 0, key
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(first["metrics"])


def test_error_rows_are_checked():
    w = tiny("solve-quad-k1")
    rows = measure(w, DEFAULT_SEED, 0, 0, None)["checks"]["error_rows"]
    result = measure(w, DEFAULT_SEED, 0, 0, rows)
    assert result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # run.py adds setup_s, timed in fresh processes
    assert ({m["name"] for m in spec["end_to_end"]} - {"setup_s"}
            <= set(result["metrics"]))
    rows[0][5] *= 1 + 1e-6
    result = measure(w, DEFAULT_SEED, 0, 0, rows)
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_seed_drives_only_the_perturbation():
    w = tiny("oracle-perturbed-tri-k2")
    a, b = studies.make_inputs(w, 1), studies.make_inputs(w, 1)
    c = studies.make_inputs(w, 2)
    assert np.array_equal(a[0], b[0]) and not np.array_equal(a[0], c[0])
    assert np.array_equal(a[1], c[1])
    assert studies.make_inputs(tiny("ladder-tri-k3"), 1) is None
    result = measure(w, 2, 0, 0, None)
    assert result["seed_used"] and result["failed"] == 0
    assert result["checks"]["oracle_gap"] <= studies.ORACLE_TOL


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-quad-k1",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
