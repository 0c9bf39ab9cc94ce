"""File ingestion and output: edge lists, numeric attributes, categorical labels.

Formats:
  * edge list: one edge per line, two whitespace-separated labels;
    '#' comments and blank lines ignored
  * attributes: CSV with header "node,value", value decimal
  * labels: CSV with header "node,label"; literal "NA" means missing
    (and forms its own category)
  * both tables are quoted CSV, read and written: a label holding ',' or '"'
    sits in double quotes, each '"' doubled

Every file is opened through :func:`opened`, which turns OS and decoding
errors into :class:`FileAccessError`.
"""

from __future__ import annotations

import csv
import io
import math
import re
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from itertools import compress
from typing import Callable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import (
    DuplicateRowError,
    FileAccessError,
    LengthMismatchError,
    ParseError,
    PreconditionViolatedError,
    UnknownNodeError,
)
from .graph import Graph, _label_graph

Source = Union[str, TextIO]

NA = "NA"

# The code points str.split takes for whitespace; take(mode="clip") maps all above U+3000 to False.
_SPACE = np.bincount([*range(9, 14), *range(28, 33), 0x85, 0xA0, 0x1680, *range(0x2000, 0x200B),
                      0x2028, 0x2029, 0x202F, 0x205F, 0x3000], minlength=0x3002).astype(bool)


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

    The labels are split once, and one numpy pass over the code points
    counts them per line (only a newline ends a line). A line whose first
    label starts with '#' is a comment; any other with labels must hold
    two, else :class:`ParseError` names the first that does not.
    """
    with opened(source) as fh:
        text = fh.read()
    labels = text.split()
    # A leading newline numbers the lines from 1 and puts a blank before every label.
    code = np.frombuffer(("\n" + text).encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    space = _SPACE.take(code, mode="clip")
    before = (space[:-1] > space[1:]).nonzero()[0]  # the blank before each label
    counts = np.bincount((code == 10).nonzero()[0].searchsorted(before, "right"))  # labels per line
    ok = counts & ~2 == 0  # no label or two
    # Whether each line's first label (on a blank line, the next line's) starts with '#'.
    if "#" in text and (comment := code[before[counts.cumsum() - counts] + 1] == 35).any():
        ok |= comment
        labels = list(compress(labels, np.repeat(~comment, counts).tolist()))
    if not ok.all():
        raise ParseError(int(ok.argmin()), f"expected two labels, got {counts[ok.argmin()]}")
    return _label_graph(labels)


def edge_list_text(g: Graph) -> str:
    """The canonical normal form: sorted edges, one per line. Raises unless it
    reads back as g, labels as strings: no node is isolated, each label is one
    distinct token, and no line opens with '#' or, first, with a byte-order mark."""
    isolated = g.n - np.count_nonzero(g.deg)
    if isolated:
        raise PreconditionViolatedError(
            f"an edge list cannot hold the graph's {isolated} isolated node(s)")
    names = list(map(str, g.labels))
    lines = sorted(tuple(sorted((names[i], names[j]))) for i, j in g.edges())
    bad = [s for s, k in Counter(names).items() if k > 1 or s.split() != [s]]
    bad += [u for u, _ in lines if u.startswith("#")]
    bad += [u for u, _ in lines[:1] if u.startswith("\ufeff")]
    if bad:
        raise PreconditionViolatedError(f"node label {bad[0]!r} would not read back")
    return "".join(f"{u} {v}\n" for u, v in lines)


def node_values_text(g: Graph, values: Sequence) -> str:
    """A quoted "node,value" table in g's canonical order; None writes an empty value."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("node", "value"))
    writer.writerows(zip(g.labels, values))
    return out.getvalue()


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
    if len(values) < g.n:
        raise UnknownNodeError(g.labels[min(set(range(g.n)) - values.keys())], "no row for node")
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
                    raise ParseError(lineno, f"exponent of {raw!r} is beyond +-400")
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
