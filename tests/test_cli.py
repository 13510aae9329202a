"""Command-line interface: argument handling and artifacts."""

import subprocess
import sys

import pytest

from brinkhdg import hybrid, verify
from brinkhdg.cli import main

CSV_HEADER = ("level,n_ele,n_global,n_local,"
              "err_L,ord_L,err_u,ord_u,err_p,ord_p,"
              "err_ustar,ord_ustar,err_eu,ord_eu")


def tiny(*extra):
    return ["solve", "--test", "1", "--k", "1", "--levels", "1",
            "--base-n", "2", *extra]


def test_help_lists_flags(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for flag in ("--test", "--nu", "--cells", "--levels", "--check-oracle",
                 "--dump-solution", "--force-k"):
        assert flag in out


@pytest.mark.parametrize("argv", [
    [],                                        # subcommand required
    ["solve", "--bogus"],                      # unknown flag
    ["solve", "--test", "1", "--nu", "1"],     # conflicting case selection
    ["solve", "--nu", "1"],                    # custom case needs --m too
    ["solve"],                                 # no case at all
    ["solve", "--nu", "-1", "--m", "2"],
    ["solve", "--nu", "1", "--m", "0"],
    ["solve", "--nu", "1", "--m", "2", "--gamma", "0"],
    ["solve", "--test", "1", "--levels", "0"],
    ["solve", "--test", "1", "--base-n", "0"],
    ["solve", "--test", "1", "--k", "4"],                   # above quad range
    ["solve", "--test", "1", "--cells", "tri", "--k", "0"],  # below tri range
    ["solve", "--test", "1", "--gamma", "5"],               # tests fix gamma
    ["solve", "--nu", "nan", "--m", "2"],
    ["solve", "--nu", "1", "--m", "2", "--gamma", "nan"],
    ["solve", "--test", "1", "--quad-degree", "9"],         # no such flag
])
def test_rejected_arguments(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    # errors in solve's arguments show the usage that lists its flags
    usage = "usage: brinkhdg solve " if argv else "usage: brinkhdg [-h]"
    assert capsys.readouterr().err.startswith(usage)


def test_force_k_keeps_k_nonnegative(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--test", "1", "--force-k", "--k", "-1"])
    assert info.value.code == 2
    assert "--k must be nonnegative" in capsys.readouterr().err


def test_failed_solve_exits_1(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("broken on purpose")

    monkeypatch.setattr(verify, "solve_hybrid", broken)
    rc = main(tiny("--out-dir", str(tmp_path)))
    assert rc == 1
    assert capsys.readouterr().err == (
        "brinkhdg: solve failed at level 1 (quad, n=2, k=1): "
        "broken on purpose\n")
    assert not list(tmp_path.iterdir())


def test_force_k_bypasses_range(tmp_path, capsys):
    rc = main(tiny("--k", "4", "--force-k", "--out-dir", str(tmp_path)))
    assert rc == 0
    capsys.readouterr()
    assert (tmp_path / "brinkhdg_quad_k4_test1.csv").exists()


def test_custom_case_run(tmp_path, capsys):
    rc = main(["solve", "--nu", "1", "--gamma", "1", "--m", "2",
               "--cells", "quad", "--k", "0", "--levels", "1",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "note: k=0" in out
    assert "err_L" in out
    assert "cells solved in" in out
    csv_file = tmp_path / "brinkhdg_quad_k0_nu1_gamma1_m2.csv"
    assert csv_file.exists()
    assert (tmp_path / "brinkhdg_quad_k0_nu1_gamma1_m2.md").exists()
    lines = csv_file.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "64"


def test_repeat_runs_bit_identical(tmp_path, capsys):
    for sub in ("a", "b"):
        assert main(tiny("--out-dir", str(tmp_path / sub))) == 0
    capsys.readouterr()
    name = "brinkhdg_quad_k1_test1.csv"
    assert ((tmp_path / "a" / name).read_bytes()
            == (tmp_path / "b" / name).read_bytes())


def test_oracle_flag_reports_discrepancy(tmp_path, capsys):
    rc = main(tiny("--check-oracle", "--out-dir", str(tmp_path)))
    assert rc == 0
    out = capsys.readouterr().out
    line = [ln for ln in out.splitlines()
            if ln.startswith("oracle discrepancy:")]
    assert len(line) == 1
    assert float(line[0].split(":")[1]) < 1e-9


def test_prefix_and_solution_dump(tmp_path, capsys, monkeypatch):
    calls = []
    inner = hybrid.solve_hybrid

    def counting(*args, **kwargs):
        calls.append(args[0].mesh.num_cells)
        return inner(*args, **kwargs)

    monkeypatch.setattr(hybrid, "solve_hybrid", counting)
    monkeypatch.setattr(verify, "solve_hybrid", counting)
    rc = main(["solve", "--test", "1", "--k", "1", "--levels", "2",
               "--base-n", "2", "--prefix", "run1", "--dump-solution",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    # one solve per level; the dump reuses the finest one
    assert calls == [4, 16]
    capsys.readouterr()
    assert (tmp_path / "run1.csv").exists()
    assert (tmp_path / "run1.md").exists()
    text = (tmp_path / "run1_solution.txt").read_text()
    assert text.startswith("cell_kind quad k 1 cells 16\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "brinkhdg", "solve", "--help"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "--levels" in proc.stdout
