"""Command-line interface.

Subcommands: ``solve`` one instance with one method, ``bench`` a manifest of
cells, ``report`` a results CSV as a comparison table, ``exact`` the
chromatic number of a small instance. Exit status: 0 success, 2 unreadable
or malformed input, 1 internal invariant breach.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path
from typing import Optional

from .bench import (PARAM_KEYS, InternalInvariantError, compare_report,
                    parse_manifest, prepare_instance, read_results_csv,
                    run_benchmark, run_cell, write_results)
from .dimacs import _integer, _number, load_instance, read_reference_table, read_utf8
from .heuristics import EXACT_VERTEX_LIMIT, chromatic_number_exact
from .search import METHODS, PARAM_TYPES, SolverParams


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chroma",
        description="Graph coloring via single-state metaheuristics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = SolverParams()
    solve = sub.add_parser("solve", help="color one DIMACS instance")
    solve.add_argument("file", help="DIMACS .col instance")
    solve.add_argument("--method", required=True, choices=[m.lower() for m in METHODS])
    solve.add_argument("--seed", type=int, default=1)
    solve.add_argument("--references", help="override best-known color table")
    for key, name in PARAM_KEYS.items():
        solve.add_argument("--" + key.replace("_", "-"), dest=name, metavar=key.upper(),
                           type=PARAM_TYPES[name], default=None,
                           help=f"default: {getattr(defaults, name)}")

    bench = sub.add_parser("bench", help="run a benchmark manifest")
    bench.add_argument("--manifest", required=True)
    bench.add_argument("--out", required=True)
    bench.add_argument("--json", action="store_true", help="write JSON instead of CSV")
    bench.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1,
                       help="concurrent cells (default: processor count)")

    report = sub.add_parser("report", help="format a results CSV as a table")
    report.add_argument("--in", dest="input", required=True)

    exact = sub.add_parser("exact", help="exact chromatic number (small graphs)")
    exact.add_argument("file")
    exact.add_argument("--limit", type=int, default=EXACT_VERTEX_LIMIT)

    # type=int reads ASCII digits with an optional minus sign, as a DIMACS
    # number is read, and type=float ASCII text without `_` or surrounding
    # whitespace; argparse still calls the types int and float in its errors
    for command in sub.choices.values():
        command.register("type", int, _integer)
        command.register("type", float, _number)
    return parser


def _params_from_args(args: argparse.Namespace) -> SolverParams:
    values = {name: getattr(args, name) for name in PARAM_KEYS.values()}
    return SolverParams(**{name: v for name, v in values.items() if v is not None})


def _cmd_solve(args: argparse.Namespace) -> int:
    reference = read_reference_table(args.references) if args.references else None
    record = prepare_instance(args.file, reference)
    result = run_cell(record, args.method.upper(), args.seed, _params_from_args(args))
    line = f"{result.instance} {result.method} seed={result.seed}: k={result.k_colors}"
    if result.best_known is not None:
        line += f" best_known={result.best_known} diff={result.diff_percent:.2f}%"
    line += f" wall={result.wall_seconds:.3f}s"
    print(line)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    manifest = parse_manifest(args.manifest)
    out_path = Path(args.out)
    with out_path.open("w") as out:  # an unwritable --out fails before any cell runs
        rows, errors = run_benchmark(manifest, jobs=args.jobs)
        write_results(rows, out, "json" if args.json else "csv")
    print(f"wrote {len(rows)} results to {out_path}")
    error_path = out_path.with_name(out_path.name + ".errors.txt")
    if errors:
        error_path.write_text("".join(e + "\n" for e in errors))
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        cells = len(errors) * len(manifest.methods) * len(manifest.seeds)
        print(f"{len(errors)} instance(s) skipped ({cells} cell(s) not run); "
              f"details in {error_path}", file=sys.stderr)
    else:
        error_path.unlink(missing_ok=True)  # left by an earlier run; this one skipped nothing
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    stream = io.StringIO(read_utf8(Path(args.input)))
    stream.name = args.input  # read_results_csv names the file in its errors
    rows = read_results_csv(stream)
    sys.stdout.write(compare_report(rows))
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    record = load_instance(args.file)
    chi, _witness = chromatic_number_exact(record.graph, limit=args.limit)
    print(f"{record.name}: chromatic_number={chi}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "bench": _cmd_bench,
        "report": _cmd_report,
        "exact": _cmd_exact,
    }
    try:
        return handlers[args.command](args)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # DimacsError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
