"""File ingestion and output: edge lists, numeric attributes, categorical labels.

Formats:
  * edge list: one edge per line, two whitespace-separated labels;
    '#' comments and blank lines ignored
  * attributes: CSV with header "node,value", value decimal
  * labels: CSV with header "node,label"; literal "NA" means missing
    (and forms its own category)

Every file is opened through :func:`opened`, which turns OS and decoding
errors into :class:`FileAccessError`.
"""

from __future__ import annotations

import csv
import io
import math
import re
from contextlib import contextmanager
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, TextIO, Union

from .errors import (
    DuplicateRowError,
    FileAccessError,
    LengthMismatchError,
    ParseError,
    PreconditionViolatedError,
    UnknownNodeError,
)
from .graph import Graph, build_graph

Source = Union[str, TextIO]

NA = "NA"


@contextmanager
def opened(target: Source, mode: str = "r") -> Iterator[TextIO]:
    """Yield a stream unchanged, or the named file as UTF-8 text, closed on exit.

    A named file read drops a leading byte-order mark; files are written
    without one. OS and decoding errors on a named file raise
    :class:`FileAccessError`.
    """
    if not isinstance(target, str):
        yield target
        return
    try:
        with open(target, mode, encoding="utf-8-sig" if mode == "r" else "utf-8") as fh:
            yield fh
    except OSError as exc:
        raise FileAccessError(target, exc.strerror or exc) from None
    except UnicodeDecodeError:
        raise FileAccessError(target, "not UTF-8 text") from None


def read_edge_list(source: Source) -> Graph:
    """Parse an edge-list file into a graph; labels stay strings.

    The text is read once and split on newlines only (a text-mode file has
    already turned every line ending into one), then each line on
    whitespace. A line that is not a comment must hold two labels, else
    :class:`ParseError` names the first such line.
    """
    with opened(source) as fh:
        text = fh.read()
    lines = text.split("\n")
    rows = list(filter(None, map(str.split, lines)))
    if "#" in text:
        rows = [r for r in rows if not r[0].startswith("#")]
    if set(map(len, rows)) - {2}:
        for lineno, parts in enumerate(map(str.split, lines), start=1):
            if parts and not parts[0].startswith("#") and len(parts) != 2:
                raise ParseError(lineno, f"expected two labels, got {len(parts)}")
    return build_graph(rows)


def edge_list_text(g: Graph) -> str:
    """The canonical normal form: sorted edges, one per line. An edge list has
    no line for a node without edges, so a graph with isolated nodes raises."""
    isolated = sum(not a for a in g.adj)
    if isolated:
        raise PreconditionViolatedError(
            f"an edge list cannot hold the graph's {isolated} isolated node(s)")
    lines = sorted(
        tuple(sorted((str(g.labels[i]), str(g.labels[j]))))
        for i, j in g.edges()
    )
    return "".join(f"{u} {v}\n" for u, v in lines)


def write_graph(g: Graph, target: Source) -> None:
    """Write :func:`edge_list_text`; it raises before anything is written."""
    text = edge_list_text(g)
    with opened(target, "w") as fh:
        fh.write(text)


def node_values_text(g: Graph, values: Sequence) -> str:
    """A "node,value" table in g's canonical order; None writes an empty value."""
    return "node,value\n" + "".join(f"{label},{'' if v is None else v}\n"
                                    for label, v in zip(g.labels, values))


def _read_node_table(source: Source, g: Graph, column: str,
                     parse: Callable[[int, str], object]) -> list:
    """Read a "node,<column>" CSV: one parse(lineno, text) value per node, in g's order."""
    values: dict[int, object] = {}
    with opened(source) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(1, "missing header") from None
        if [h.strip() for h in header] != ["node", column]:
            raise ParseError(1, f"expected header node,{column}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(lineno, "expected two columns")
            node = row[0].strip()
            idx = g.index_of(node)  # raises UnknownNodeError
            if idx in values:
                raise DuplicateRowError(node)
            values[idx] = parse(lineno, row[1].strip())
    missing = [g.labels[i] for i in range(g.n) if i not in values]
    if missing:
        raise UnknownNodeError(missing[0])
    return [values[i] for i in range(g.n)]


_INTEGER = re.compile(r"[+-]?[0-9]+")  # ASCII only: int() also takes "1_0" and "١"


def read_attributes(source: Source, g: Graph, rational: bool = False) -> list:
    """Read per-node attributes in g's canonical order: floats, or exact values
    (ints for plain integer literals, Fractions otherwise)."""
    def parse(lineno: int, raw: str):
        try:
            value = float(raw)
            if rational and math.isfinite(value):
                if _INTEGER.fullmatch(raw):
                    value = int(raw)
                # Fraction(raw) builds 10**|exponent| exactly: refuse huge ones.
                elif abs(int(raw.lower().partition("e")[2] or 0)) > 400:
                    raise ValueError(raw)
                else:
                    value = Fraction(raw)
        except ValueError:
            raise ParseError(lineno, f"bad numeric value {raw!r}") from None
        if not math.isfinite(value):
            raise ParseError(lineno, f"non-finite value {raw!r}")
        return value

    return _read_node_table(source, g, "value", parse)


def read_labels(source: Source, g: Graph) -> list[str]:
    """Read per-node categorical labels; "NA" is an ordinary category."""
    return _read_node_table(source, g, "label", lambda _, label: label)


def prop_own(g: Graph, labels: list[str]) -> list[Optional[Fraction]]:
    """Fraction of each node's friends sharing its label; None for isolates.

    Missing labels ("NA") participate as their own category.
    """
    if len(labels) != g.n:
        raise LengthMismatchError(g.n, len(labels))
    return [Fraction(sum(labels[j] == label for j in nb), len(nb)) if nb else None
            for nb, label in zip(g.adj, labels)]


def edge_list_from_string(text: str) -> Graph:
    """Convenience wrapper for parsing an in-memory edge list."""
    return read_edge_list(io.StringIO(text))
