"""Benchmark harness: run (instance x method x seed) cells, record results.

CSV schema: ``instance,method,seed,k_colors,proper,wall_seconds,best_known,
diff_percent`` with wall_seconds at 3 decimals and diff_percent at 2. The
JSON format is an array of objects with the same field names. diff_percent
is 100 * (obtained - reference) / reference, rounded half-up.
"""

from __future__ import annotations

import csv
import json
import math
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import IO, Optional

from .clock import make_clock
from .dimacs import (InstanceRecord, _integer, _number, load_instance,
                     read_reference_table, read_utf8)
from .graph import is_proper
from .search import (METHODS, PARAM_TYPES, SolverParams, dsatur_start,
                     solve_k_reduction)


class InternalInvariantError(RuntimeError):
    """A solver handed back an improper coloring; results must not be trusted."""


@dataclass
class RunResult:
    """One benchmark row: what one (instance, method, seed) cell produced."""

    instance: str
    method: str
    seed: int
    k_colors: int
    proper: bool
    wall_seconds: float
    best_known: Optional[int] = None
    diff_percent: Optional[float] = None


# the CSV header, and the fields of each JSON row
CSV_FIELDS = tuple(f.name for f in fields(RunResult))


def diff_percent(obtained: int, reference: int) -> float:
    """Percent excess of obtained colors over the reference, half-up to 2 dp."""
    if reference < 1:
        raise ValueError(f"reference color count must be >= 1, got {reference}")
    exact = (Decimal(obtained) - Decimal(reference)) * 100 / Decimal(reference)
    return float(exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def write_results(rows: list[RunResult], stream: IO[str], fmt: str = "csv") -> None:
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")  # None is written as ""
        writer.writerow(CSV_FIELDS)
        for r in rows:
            writer.writerow((
                r.instance, r.method, r.seed, r.k_colors, str(r.proper).lower(),
                f"{r.wall_seconds:.3f}", r.best_known,
                None if r.diff_percent is None else f"{r.diff_percent:.2f}",
            ))
    elif fmt == "json":
        payload = []
        for r in rows:
            entry = asdict(r)
            entry["wall_seconds"] = round(r.wall_seconds, 3)
            payload.append(entry)
        json.dump(payload, stream, indent=2)
        stream.write("\n")
    else:
        raise ValueError(f"unknown results format {fmt!r}")


def read_results_csv(stream: IO[str]) -> list[RunResult]:
    """Parse a results CSV; a malformed one raises ValueError naming its line.
    Rows must be proper, with the diff_percent their k_colors and best_known
    give."""
    name = getattr(stream, "name", "results CSV")
    reader = csv.DictReader(stream)
    rows = []
    try:
        missing = [f for f in CSV_FIELDS if f not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"lacks column(s): {', '.join(missing)}")
        for rec in reader:
            if None in rec or None in rec.values():  # a long or a short row
                raise ValueError(f"expected {len(reader.fieldnames)} fields")
            if rec["proper"] not in ("true", "false"):
                raise ValueError(f"proper must be true or false, got {rec['proper']!r}")
            if rec["proper"] == "false":
                raise ValueError("proper is false: only proper colorings are ranked")
            if rec["method"] not in METHODS:
                raise ValueError(f"method must be one of {METHODS}, got {rec['method']!r}")
            row = RunResult(
                instance=rec["instance"],
                method=rec["method"],
                seed=_integer(rec["seed"]),
                k_colors=_integer(rec["k_colors"]),
                proper=True,
                wall_seconds=_number(rec["wall_seconds"]),
                best_known=_integer(rec["best_known"]) if rec["best_known"] else None,
                diff_percent=_number(rec["diff_percent"]) if rec["diff_percent"] else None,
            )
            for key in ("k_colors", "best_known"):
                count = getattr(row, key)
                if count is not None and count < 1:
                    raise ValueError(f"{key} must be at least 1, got {count}")
            if not (math.isfinite(row.wall_seconds) and row.wall_seconds >= 0):
                raise ValueError(f"wall_seconds must be finite and >= 0, "
                                 f"got {rec['wall_seconds']!r}")
            best = row.best_known
            want = "" if best is None else f"{diff_percent(row.k_colors, best):.2f}"
            got = "" if row.diff_percent is None else f"{row.diff_percent:.2f}"
            if got != want:
                raise ValueError(f"diff_percent must be {want!r} for k_colors {row.k_colors} "
                                 f"and best_known {rec['best_known']!r}, got {rec['diff_percent']!r}")
            rows.append(row)
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{name}:{reader.line_num}: {exc}") from None
    return rows


@dataclass
class BenchManifest:
    """Parsed run specification: which cells to execute and with what parameters."""

    instances: list[str]
    methods: list[str]
    seeds: list[int]
    params: SolverParams = field(default_factory=SolverParams)
    references_path: Optional[str] = None


# Manifest key or `chroma solve` flag name -> the SolverParams field it sets:
# budget sets wall_budget_seconds, and every other field is named for itself.
PARAM_KEYS = {"budget" if name == "wall_budget_seconds" else name: name
              for name in PARAM_TYPES}


def _parse_int(key: str, text: str) -> int:
    try:
        return _integer(text)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {text!r}") from None


def _parse_float(key: str, text: str) -> float:
    try:
        return _number(text)
    except ValueError:
        raise ValueError(f"{key} must be a number, got {text!r}") from None


# Declared type of a solver parameter -> parser of its manifest value.
_PARSERS = {int: _parse_int, float: _parse_float}


def parse_manifest(path: str | Path) -> BenchManifest:
    """Parse a flat key=value manifest; '#' starts a comment, lists use commas.

    Recognized keys: instances, methods, seeds, references, and the solver
    parameters of PARAM_KEYS (budget, hc_iterations, sa_decrement, ...).
    Results name an instance by its file stem, so no two instances may share
    one. Seeds and int parameters are ASCII digits with an optional minus
    sign, as in a DIMACS file; float parameters are ASCII text without `_`
    that float() reads. Only SolverParams checks their ranges, all together;
    its error names the line of the last key that set a field it mentions.
    """
    path = Path(path)
    instances: dict[str, str] = {}  # file stem -> instance path
    methods: list[str] = []
    seeds: list[int] = []
    references = None
    overrides: dict = {}
    override_lines: dict[str, int] = {}  # field -> the last line that set it
    for line_no, raw in enumerate(read_utf8(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ValueError(f"expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "instances":
                for inst in (v.strip() for v in value.split(",") if v.strip()):
                    stem = Path(inst).stem
                    if stem in instances:
                        raise ValueError(f"instances {instances[stem]} and {inst} "
                                         f"share the name {stem!r}")
                    instances[stem] = inst
            elif key == "methods":
                for m in (v.strip().upper() for v in value.split(",") if v.strip()):
                    if m not in METHODS:
                        raise ValueError(f"unknown method {m!r}")
                    methods.append(m)
            elif key == "seeds":
                seeds.extend(_parse_int(key, v.strip()) for v in value.split(",") if v.strip())
            elif key == "references":
                if not value:
                    raise ValueError("references needs a file name")
                references = value
            elif key in PARAM_KEYS:
                name = PARAM_KEYS[key]
                overrides[name] = _PARSERS[PARAM_TYPES[name]](key, value)
                override_lines[name] = line_no
            else:
                raise ValueError(f"unknown manifest key {key!r}")
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    try:
        params = SolverParams(**overrides)
    except ValueError as exc:
        words = set(re.findall(r"\w+", str(exc)))
        lines = [n for name, n in override_lines.items() if name in words]
        raise ValueError(f"{path}:{max(lines or override_lines.values())}: {exc}") from None
    if not instances:
        raise ValueError(f"{path}: manifest names no instances")
    if not methods:
        raise ValueError(f"{path}: manifest names no methods")
    if not seeds:
        seeds = [1, 2, 3]
    return BenchManifest(list(instances.values()), methods, seeds, params, references)


def prepare_instance(path: str | Path,
                     reference_table: Optional[dict[str, int]] = None) -> InstanceRecord:
    """`load_instance` with the graph's DSatur start computed (see
    `dsatur_start`). Every error names the file, including the ValueError
    for an empty graph, which no search can color."""
    record = load_instance(path, reference_table)
    try:
        dsatur_start(record.graph)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return record


def run_cell(record: InstanceRecord, method: str, seed: int,
             params: SolverParams) -> RunResult:
    """Execute one cell, timing the search only, and verify its witness.

    Every cell of a run shares one `params`, neither copied nor re-checked.
    The graph's DSatur start is filled before the timer starts, so
    wall_seconds never includes it, whichever cell on the graph runs first.
    """
    clock = make_clock()
    dsatur_start(record.graph)
    t0 = clock.now()
    coloring, k, _trace = solve_k_reduction(record.graph, method, params, seed, clock=clock)
    wall = clock.now() - t0
    if not is_proper(record.graph, coloring):
        raise InternalInvariantError(
            f"solver returned an improper coloring on {record.name} "
            f"(method={method}, seed={seed})"
        )
    best = record.best_known_colors
    return RunResult(
        instance=record.name,
        method=method,
        seed=seed,
        k_colors=k,
        proper=True,
        wall_seconds=wall,
        best_known=best,
        diff_percent=diff_percent(k, best) if best is not None else None,
    )


def run_benchmark(manifest: BenchManifest, jobs: int = 1) -> tuple[list[RunResult], list[str]]:
    """Execute every (instance x method x seed) cell; write_results writes
    the rows.

    Instances that fail to load, and empty graphs, which cannot be colored,
    are skipped and their errors, each naming its file, returned as a list;
    an improper coloring from a solver aborts the whole run. Rows come back
    sorted by (instance, method, seed) so concurrency never changes the
    output. Each graph's DSatur start is computed once, before the cells fan
    out, and travels to the pool's workers with the pickled graph.
    """
    reference = None
    if manifest.references_path is not None:
        reference = read_reference_table(manifest.references_path)
    errors: list[str] = []
    records: list[InstanceRecord] = []
    for inst_path in manifest.instances:
        try:
            records.append(prepare_instance(inst_path, reference))
        except (OSError, ValueError) as exc:
            errors.append(str(exc))  # prepare_instance names the path
    cells = [(rec, method, seed, manifest.params)
             for rec in records
             for method in manifest.methods
             for seed in manifest.seeds]
    if jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(cells))) as pool:
            rows = list(pool.map(run_cell, *zip(*cells)))
    else:
        rows = [run_cell(*cell) for cell in cells]
    rows.sort(key=lambda r: (r.instance, r.method, r.seed))
    return rows, errors


def compare_report(rows: list[RunResult]) -> str:
    """Text table: one line per instance, a (k, diff%) column pair per method.

    With several seeds the best (lowest) k per cell is shown; the best k on
    each line is starred. Methods absent from the rows are omitted.
    """
    if not rows:
        raise ValueError("no rows to report")
    methods = [m for m in METHODS if any(r.method == m for r in rows)]
    by_cell: dict[tuple[str, str], RunResult] = {}
    for r in rows:
        key = (r.instance, r.method)
        if key not in by_cell or r.k_colors < by_cell[key].k_colors:
            by_cell[key] = r
    instances = sorted({r.instance for r in rows})
    name_width = max(len("instance"), max(len(i) for i in instances))
    header = f"{'instance':<{name_width}}" + "".join(
        f"  {m:>4}  {'Dif.%':>7}" for m in methods
    )
    lines = [header]
    for inst in instances:
        cells = {m: by_cell.get((inst, m)) for m in methods}
        ks = [c.k_colors for c in cells.values() if c is not None]
        best_k = min(ks) if ks else None
        line = f"{inst:<{name_width}}"
        for m in methods:
            cell = cells[m]
            if cell is None:
                line += f"  {'-':>4}  {'-':>7}"
                continue
            star = "*" if cell.k_colors == best_k else ""
            diff = f"{cell.diff_percent:.2f}" if cell.diff_percent is not None else "-"
            line += f"  {str(cell.k_colors) + star:>4}  {diff:>7}"
        lines.append(line)
    return "\n".join(lines) + "\n"
