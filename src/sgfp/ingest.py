"""File ingestion: edge lists, numeric attributes, categorical labels.

Formats:
  * edge list: one edge per line, two whitespace-separated labels;
    '#' comments and blank lines ignored
  * attributes: CSV with header "node,value", value decimal
  * labels: CSV with header "node,label"; literal "NA" means missing
    (and forms its own category)
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from typing import Optional, TextIO, Union

from .errors import DuplicateRowError, ParseError, UnknownNodeError
from .graph import Graph, build_graph

Source = Union[str, TextIO]

NA = "NA"


def _open(source: Source) -> TextIO:
    if isinstance(source, str):
        return open(source, "r", encoding="utf-8")
    return source


def read_edge_list(source: Source) -> Graph:
    """Parse an edge-list file into a graph; labels stay strings."""
    fh = _open(source)
    close = isinstance(source, str)
    try:
        edges = []
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(lineno, f"expected two labels, got {len(parts)}")
            edges.append((parts[0], parts[1]))
        return build_graph(edges)
    finally:
        if close:
            fh.close()


def write_graph(g: Graph, target: Source) -> None:
    """Write the canonical normal form: sorted edges, one per line."""
    fh = open(target, "w", encoding="utf-8") if isinstance(target, str) else target
    close = isinstance(target, str)
    try:
        lines = sorted(
            tuple(sorted((str(g.labels[i]), str(g.labels[j]))))
            for i, j in g.edges()
        )
        for u, v in lines:
            fh.write(f"{u} {v}\n")
    finally:
        if close:
            fh.close()


def _read_csv_rows(source: Source, expected_header: list[str]):
    fh = _open(source)
    close = isinstance(source, str)
    try:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "missing header") from None
        if [h.strip() for h in header] != expected_header:
            raise ParseError(1, f"expected header {','.join(expected_header)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(lineno, "expected two columns")
            yield lineno, row[0].strip(), row[1].strip()
    finally:
        if close:
            fh.close()


def read_attributes(source: Source, g: Graph, rational: bool = False) -> list:
    """Read per-node attributes in g's canonical order: floats, or exact Fractions."""
    values: dict[int, float | Fraction] = {}
    for lineno, node, raw in _read_csv_rows(source, ["node", "value"]):
        idx = g.index_of(node)  # raises UnknownNodeError
        if idx in values:
            raise DuplicateRowError(node)
        try:
            value = float(raw)
            if rational and math.isfinite(value):
                # Fraction(raw) builds 10**|exponent| exactly: refuse huge ones.
                if abs(int(raw.lower().partition("e")[2] or 0)) > 400:
                    raise ValueError(raw)
                value = Fraction(raw)
        except ValueError:
            raise ParseError(lineno, f"bad numeric value {raw!r}") from None
        if not math.isfinite(value):
            raise ParseError(lineno, f"non-finite value {raw!r}")
        values[idx] = value
    missing = [g.labels[i] for i in range(g.n) if i not in values]
    if missing:
        raise UnknownNodeError(missing[0])
    return [values[i] for i in range(g.n)]


def read_labels(source: Source, g: Graph) -> list[str]:
    """Read per-node categorical labels; "NA" is an ordinary category."""
    values: dict[int, str] = {}
    for _, node, label in _read_csv_rows(source, ["node", "label"]):
        idx = g.index_of(node)
        if idx in values:
            raise DuplicateRowError(node)
        values[idx] = label
    missing = [g.labels[i] for i in range(g.n) if i not in values]
    if missing:
        raise UnknownNodeError(missing[0])
    return [values[i] for i in range(g.n)]


def prop_own(g: Graph, labels: list[str]) -> list[Optional[Fraction]]:
    """Fraction of each node's friends sharing its label; None for isolates.

    Missing labels ("NA") participate as their own category.
    """
    if len(labels) != g.n:
        raise UnknownNodeError("label table length mismatch")
    out: list[Optional[Fraction]] = []
    for i in range(g.n):
        d = len(g.adj[i])
        if d == 0:
            out.append(None)
            continue
        same = sum(1 for j in g.adj[i] if labels[j] == labels[i])
        out.append(Fraction(same, d))
    return out


def edge_list_from_string(text: str) -> Graph:
    """Convenience wrapper for parsing an in-memory edge list."""
    return read_edge_list(io.StringIO(text))
