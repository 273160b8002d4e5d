"""DIMACS ``.col`` instance parsing and rendering.

Grammar accepted: ``c`` comment lines anywhere, possibly indented; exactly one
``p edge N M`` header (``p col N M`` is a synonym); and ``e u v`` lines with
1-indexed endpoints separated by one or more spaces. Every number is ASCII
digits, with an optional minus sign so that a negative one is named as such;
``+5``, ``1_0`` and non-ASCII digits, which Python's int() also reads, are
refused. A ``p`` line of more than `MAX_VERTICES` vertices is refused before
anything is sized by it. Unknown line types are ignored with a warning; an
``e``-line count that disagrees with the header is a warning, not an error,
because duplicate edges legitimately collapse.

A file of exactly the shape `render_dimacs` writes (``c`` lines at column 0,
one ``p`` line with single spaces, then only ``e U V`` lines of ASCII digits,
each ended by a newline) is parsed in bulk, each endpoint read through a
table from ``"1"``..``"N"`` to 0..N-1; every other file, and every file with
an endpoint the table lacks (out of range, or with a leading zero) or a
self-loop, goes line by line, so each message, line number and warning is
the line parser's. Both paths check every edge, so `load_instance` hands
their endpoint lists straight to `graph_from_endpoints`: no list of edge
pairs is built and no edge is checked twice.
"""

from __future__ import annotations

import logging
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional

from .graph import Graph, graph_from_endpoints

log = logging.getLogger(__name__)

# Reference color counts for the DSJC benchmark instances used in the
# comparison tables; overridable via read_reference_table().
BEST_KNOWN_COLORS: dict[str, int] = {
    "DSJC125.1": 5,
    "DSJC125.5": 17,
    "DSJC125.9": 44,
    "DSJC250.1": 8,
    "DSJC250.5": 28,
    "DSJC250.9": 72,
}

# The most vertices a file may declare: 5x the largest DIMACS coloring graph.
# A loaded graph holds its neighbor masks, up to n^2/8 bytes (about 312 MB
# here), from the load on, so a larger p line is refused before anything is
# sized by it.
MAX_VERTICES = 50_000


class DimacsError(ValueError):
    """Malformed DIMACS input; the message starts with the offending line
    number when known."""

    def __init__(self, message: str, line_no: Optional[int] = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


@dataclass
class ParsedDimacs:
    """Raw parse result, duplicates not yet collapsed: edge i joins the
    0-indexed endpoints us[i] and vs[i]. Both parse paths check every edge,
    so each endpoint lies in [0, vertex_count) and no edge is a self-loop."""

    vertex_count: int
    us: list[int]
    vs: list[int]
    declared_edge_count: int
    warnings: list[str] = field(default_factory=list)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """The (u, v) pairs in file order, built on each call."""
        return list(zip(self.us, self.vs))


@dataclass
class InstanceRecord:
    name: str
    graph: Graph
    best_known_colors: Optional[int] = None


# The strict shape up to the end of the p line. A comment holds no character
# str.splitlines splits on, or `c x\rp edge ...` would hide a p line from
# the match that the line parser sees.
_STRICT_HEAD = re.compile(
    r"(?:c[^\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]*\n)*"
    r"p (?:edge|col) ([0-9]+) ([0-9]+)\n")
# A number in a DIMACS file, a reference table, a manifest, a results CSV or
# an int flag. int() alone would also take a plus sign, underscores, any
# Unicode decimal digit and surrounding whitespace.
_INTEGER = re.compile(r"-?[0-9]+")
# Matches at the start of the first line that is not `e U V`. A search for
# it keeps no state per line, where one match over the whole block would.
_NOT_E_LINE = re.compile(r"^(?!e [0-9]+ [0-9]+$)", re.M)


def parse_dimacs(text: str) -> ParsedDimacs:
    """Parse DIMACS .col text into (vertex count, endpoints, warnings)."""
    parsed = _parse_strict(text)
    return _parse_lines(text) if parsed is None else parsed


def _parse_strict(text: str) -> Optional[ParsedDimacs]:
    """The parse of a file of the strict shape with every edge valid, or
    None, for the line parser to take the file. None also for more than
    MAX_VERTICES vertices, before the endpoint table is built, so the line
    parser refuses the p line."""
    head = _STRICT_HEAD.match(text)
    if head is None or not text.endswith("\n"):
        return None
    body = head.end()
    # endpos excludes the final newline, after which ^ would match once more
    if _NOT_E_LINE.search(text, body, len(text) - 1) is not None:
        return None
    try:
        vertex_count, declared = int(head[1]), int(head[2])
    except ValueError:  # beyond int's digit limit
        return None
    if vertex_count > MAX_VERTICES:
        return None  # the line parser names the p line
    index = {str(v): v - 1 for v in range(1, vertex_count + 1)}
    tokens = text[body:].split()
    try:  # one lookup converts, checks the range and moves to 0-based indices
        us = list(map(index.__getitem__, tokens[1::3]))
        vs = list(map(index.__getitem__, tokens[2::3]))
    except KeyError:  # 0, above N, a leading zero or past int's digit limit
        return None
    del tokens, index  # most of the peak memory, held no longer than needed
    if any(map(operator.eq, us, vs)):
        return None  # a self-loop
    return _parsed(vertex_count, us, vs, declared, [])


def _parse_lines(text: str) -> ParsedDimacs:
    """Parse any text line by line; a DimacsError names the first bad line."""
    vertex_count = -1
    declared = 0
    us: list[int] = []
    vs: list[int] = []
    warnings: list[str] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind.startswith("c"):
            continue
        if kind == "p":
            if vertex_count >= 0:
                raise DimacsError("duplicate p line", line_no)
            if len(tokens) != 4 or tokens[1] not in ("edge", "col"):
                raise DimacsError(f"malformed p line: {raw.rstrip()!r}", line_no)
            try:
                vertex_count = _integer(tokens[2])
                declared = _integer(tokens[3])
            except ValueError:
                raise DimacsError(f"non-integer p line fields: {raw.rstrip()!r}", line_no)
            if vertex_count < 0 or declared < 0:
                raise DimacsError("negative count in p line", line_no)
            if vertex_count > MAX_VERTICES:
                raise DimacsError(f"{vertex_count} vertices exceed the limit of "
                                  f"{MAX_VERTICES}", line_no)
        elif kind == "e":
            if vertex_count < 0:
                raise DimacsError("e line before p line", line_no)
            if len(tokens) != 3:
                raise DimacsError(f"malformed e line: {raw.rstrip()!r}", line_no)
            try:
                u = _integer(tokens[1])
                v = _integer(tokens[2])
            except ValueError:
                raise DimacsError(f"non-integer endpoint: {raw.rstrip()!r}", line_no)
            if not (1 <= u <= vertex_count and 1 <= v <= vertex_count):
                raise DimacsError(
                    f"endpoint out of range [1, {vertex_count}]: e {u} {v}", line_no
                )
            if u == v:
                raise DimacsError(f"self-loop: e {u} {v}", line_no)
            us.append(u - 1)
            vs.append(v - 1)
        else:
            warnings.append(f"line {line_no}: ignored unknown line type {kind!r}")
    if vertex_count < 0:
        raise DimacsError("missing p line")
    return _parsed(vertex_count, us, vs, declared, warnings)


def _integer(token: str) -> int:
    """The value of an `_INTEGER` token. Any other token raises ValueError in
    the words int() uses for a non-number, so a caller that read numbers with
    int() keeps its messages."""
    if _INTEGER.fullmatch(token) is None:
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def _number(token: str) -> float:
    """float(token) for ASCII text without `_` or surrounding whitespace,
    which float() would also take; any other token raises ValueError in
    float()'s own words, as `_integer` does in int()'s."""
    if not token.isascii() or "_" in token or token != token.strip():
        raise ValueError(f"could not convert string to float: {token!r}")
    return float(token)


def _parsed(vertex_count: int, us: list[int], vs: list[int], declared: int,
            warnings: list[str]) -> ParsedDimacs:
    if len(us) != declared:
        warnings.append(
            f"header declares {declared} edges but file has {len(us)} e lines"
        )
    return ParsedDimacs(vertex_count, us, vs, declared, warnings)


def render_dimacs(vertex_count: int, edges: Iterable[tuple[int, int]],
                  comment: Optional[str] = None) -> str:
    """Render a 0-indexed edge list as DIMACS .col text (1-indexed output)."""
    canonical = sorted({(u, v) if u < v else (v, u) for u, v in edges})
    out = []
    if comment:
        out.extend(f"c {line}" for line in comment.splitlines())
    out.append(f"p edge {vertex_count} {len(canonical)}")
    out.extend(f"e {u + 1} {v + 1}" for u, v in canonical)
    return "\n".join(out) + "\n"


def read_utf8(path: Path) -> str:
    """A text file's contents, without a leading byte order mark; a file
    that is not UTF-8 raises ValueError naming it."""
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})") from None


def read_reference_table(path: str | Path) -> dict[str, int]:
    """Read a user-supplied ``name colors`` table (one pair per line, # comments)."""
    table: dict[str, int] = {}
    first_lines: dict[str, int] = {}
    for line_no, raw in enumerate(read_utf8(Path(path)).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.replace(",", " ").split()
        try:
            if len(parts) != 2:
                raise ValueError(f"expected 'name colors', got {raw!r}")
            try:
                colors = _integer(parts[1])
            except ValueError:
                colors = 0
            if colors < 1:
                raise ValueError(f"color count must be an integer of at least 1, "
                                 f"got {parts[1]!r}")
            if parts[0] in first_lines:
                raise ValueError(f"{parts[0]} already listed at line {first_lines[parts[0]]}")
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
        first_lines[parts[0]] = line_no
        table[parts[0]] = colors
    return table


def load_instance(path: str | Path,
                  reference_table: Optional[Mapping[str, int]] = None) -> InstanceRecord:
    """Load a .col file; best-known colors looked up by file stem.

    With no reference table the built-in DSJC table is consulted. Parse
    warnings (edge-count mismatch, unknown line types) are logged, not raised.
    """
    path = Path(path)
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise OSError(f"cannot read instance file {path}: {exc.strerror or exc}") from exc
    try:
        parsed = parse_dimacs(text)
    except DimacsError as exc:
        raise DimacsError(f"{path}: {exc}") from exc
    for warning in parsed.warnings:
        log.warning("%s: %s", path, warning)
    # the parse checked every edge, so no edge list is built or checked again
    graph = graph_from_endpoints(parsed.vertex_count, parsed.us, parsed.vs)
    table = BEST_KNOWN_COLORS if reference_table is None else reference_table
    return InstanceRecord(
        name=path.stem,
        graph=graph,
        best_known_colors=table.get(path.stem),
    )
