"""Command-line driver: convergence studies with table artifacts.

`brinkhdg solve` runs one study (one case, one cell kind, one degree)
over a mesh ladder and writes the CSV and markdown tables.  Identical
configurations produce bit-identical CSV files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .hybrid import write_solution_text
from .verify import BrinkmanCase, make_case, run_convergence

_K_RANGE = {"quad": (0, 3), "triangle": (1, 3)}
_KIND_OF_FLAG = {"quad": "quad", "tri": "triangle"}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="brinkhdg",
        description="Divergence-conforming hybridized solver for the "
                    "Brinkman equations on the unit square.")
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser(
        "solve", help="run a convergence study",
        description="Solve the manufactured problem on a ladder of "
                    "uniformly refined meshes and tabulate errors.")
    # argument errors found after parsing are reported with this usage
    s.set_defaults(parser=s)
    s.add_argument("--test", type=int, choices=(1, 2, 3),
                   help="reference setting: 1 = (nu 1, gamma 1, m 2), "
                        "2 = (1, 1, 20), 3 = (1e-4, 1, 2)")
    s.add_argument("--nu", type=float, help="viscosity (custom case)")
    s.add_argument("--gamma", type=float,
                   help="inverse permeability, scalar times identity "
                        "(custom case, default 1)")
    s.add_argument("--m", type=int, help="pressure frequency (custom case)")
    s.add_argument("--cells", choices=("quad", "tri"), default="quad",
                   help="cell kind (default quad)")
    s.add_argument("--k", type=int, default=1,
                   help="polynomial degree: 0..3 on quads, 1..3 on triangles")
    s.add_argument("--levels", type=int, default=3,
                   help="number of refinement levels (default 3)")
    s.add_argument("--base-n", type=int, default=None,
                   help="cells per direction on level 1 "
                        "(default 8 quads, 4 triangles)")
    s.add_argument("--check-oracle", action="store_true",
                   help="also run the uncondensed solve on the coarsest "
                        "level and report the discrepancy")
    s.add_argument("--out-dir", default=".",
                   help="directory for table artifacts (default .)")
    s.add_argument("--prefix", default=None,
                   help="artifact file prefix (default derived from config)")
    s.add_argument("--dump-solution", action="store_true",
                   help="write the finest-level coefficient arrays to text")
    s.add_argument("--force-k", action="store_true",
                   help="bypass the default degree range check")
    return parser


def _resolve_case(args, parser):
    if args.test is not None:
        if any(v is not None for v in (args.nu, args.gamma, args.m)):
            parser.error("--test cannot be combined with --nu/--gamma/--m")
        return make_case(args.test)
    if args.nu is None or args.m is None:
        parser.error("provide --test or both --nu and --m")
    if args.gamma is None:
        args.gamma = 1.0
    # written so that NaN fails too
    if not 0 < args.nu < math.inf:
        parser.error("--nu must be finite and positive")
    if not 0 < args.gamma < math.inf:
        parser.error("--gamma must be finite and positive")
    if args.m < 1:
        parser.error("--m must be a positive integer")
    return BrinkmanCase(args.nu, args.gamma, args.m,
                        label=f"nu={args.nu:g} gamma={args.gamma:g} "
                              f"m={args.m}")


def run(args, parser):
    kind = _KIND_OF_FLAG[args.cells]
    lo, hi = _K_RANGE[kind]
    if not args.force_k and not lo <= args.k <= hi:
        parser.error(f"--k must be in [{lo}, {hi}] for {args.cells} cells "
                     "(use --force-k to override)")
    if args.k < 0:
        parser.error("--k must be nonnegative")
    if args.levels < 1:
        parser.error("--levels must be >= 1")
    if args.base_n is not None and args.base_n < 1:
        parser.error("--base-n must be >= 1")

    case = _resolve_case(args, parser)
    if kind == "quad" and args.k == 0:
        print("note: k=0 on quadrilaterals is outside the benchmarked "
              "range; postprocessing gains no extra order")

    try:
        table = run_convergence(case, kind, args.k, args.levels,
                                base_n=args.base_n,
                                check_oracle=args.check_oracle)
    except RuntimeError as exc:
        print(f"brinkhdg: {exc}", file=sys.stderr)
        return 1

    slug = (f"test{args.test}" if args.test is not None
            else f"nu{args.nu:g}_gamma{args.gamma:g}_m{args.m}")
    prefix = args.prefix or f"brinkhdg_{args.cells}_k{args.k}_{slug}"
    os.makedirs(args.out_dir, exist_ok=True)
    csv_path = os.path.join(args.out_dir, prefix + ".csv")
    md_path = os.path.join(args.out_dir, prefix + ".md")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table.to_csv())
    with open(md_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table.to_markdown())

    print(f"case: {case.label}  cells: {args.cells}  k: {args.k}")
    print(table.to_markdown(), end="")
    for row in table.rows:
        print(f"level {row.level}: {row.n_ele} cells solved in "
              f"{row.seconds:.2f} s")
        if row.oracle_discrepancy is not None:
            print(f"oracle discrepancy: {row.oracle_discrepancy:.3e}")
    print(f"wrote {csv_path}")
    print(f"wrote {md_path}")

    if args.dump_solution:
        sol_path = os.path.join(args.out_dir, prefix + "_solution.txt")
        write_solution_text(sol_path, *table.finest)
        print(f"wrote {sol_path}")
    return 0


def main(argv=None):
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return run(args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
