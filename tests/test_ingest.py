import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgfp.construct import example_graph_fig1, path, star
from sgfp.errors import (DuplicateRowError, LengthMismatchError, ParseError,
                         PreconditionViolatedError, SelfLoopError, SgfpError, UnknownNodeError)
from sgfp.graph import build_graph, degrees
from sgfp.metrics import singular_gap
from sgfp.ingest import (
    _SPACE,
    edge_list_text,
    node_values_text,
    prop_own,
    read_attributes,
    read_edge_list,
    read_labels,
)

from conftest import edge_list_from_string, reference_read_edge_list


def test_read_edge_list_basic():
    g = edge_list_from_string("1 2\n2 3\n")
    assert degrees(g) == (1, 2, 1)


def test_read_edge_list_comments_and_blanks():
    g = edge_list_from_string("# header\n\n1 2\n  \n2 3\n# done\n")
    assert g.n == 3 and g.m == 2


def test_read_edge_list_bad_line():
    with pytest.raises(ParseError):
        edge_list_from_string("1 2 3\n")


@pytest.mark.parametrize("bad, tokens", [("a b c", 3), ("a", 1)])
def test_parse_error_names_the_line_after_comments_and_blanks(bad, tokens):
    text = f"# header\n\n  # indented\n1 2\n\t\n2 3\n{bad}\n3 4\nx\n"
    with pytest.raises(ParseError) as info:
        edge_list_from_string(text)
    assert info.value.line_number == 7
    assert str(info.value) == f"line 7: expected two labels, got {tokens}"


def test_read_edge_list_crlf_tabs_and_indented_comment(tmp_path):
    text = "a\tb\r\n  # note\r\nb \t c\r\n\r\n\tc a\r\n"
    (tmp_path / "g.edges").write_bytes(text.encode())
    want = build_graph([("a", "b"), ("b", "c"), ("c", "a")])
    for g in (read_edge_list(str(tmp_path / "g.edges")), edge_list_from_string(text)):
        assert (g.labels, g.adj) == (want.labels, want.adj)


def test_line_breaks_other_than_newline_do_not_end_a_line():
    # "\x1c" and "\u2028" separate labels (str.split) but do not start a line.
    g = edge_list_from_string("a\x1cb\nb\u2028c\n")
    assert g.labels == ("a", "b", "c") and g.m == 2
    with pytest.raises(ParseError) as info:
        edge_list_from_string("# a\u2028b c\na b c\n")
    assert info.value.line_number == 2


def test_whitespace_table_is_str_isspace():
    want = {c for c in range(0x110000) if chr(c).isspace()}
    assert set(np.flatnonzero(_SPACE).tolist()) == want
    assert max(want) < len(_SPACE) - 1  # the last entry, for every code point above, is False


def read_outcome(read, text):
    try:
        g = read(text)
    except SgfpError as exc:
        return type(exc), getattr(exc, "line_number", None), str(exc)
    return g.labels, g.adj, g.m, g.duplicates_collapsed


# Every break str.split knows, of which only "\n" ends a line, and labels that
# repeat (so edges come duplicated, reversed and as self-loops), start with
# '#', or hold non-ASCII characters, some above U+FFFF.
BLANKS = " \t\r\x0b\x1c\x85\xa0\u2028\u3000"
blanks, gaps = st.text(BLANKS, max_size=2), st.text(BLANKS, min_size=1, max_size=2)
edge_labels = st.sampled_from(["a", "b", "c", "é", "中", "a#", "#", "#b", "\U0001d400"])
any_lines = st.builds(lambda lead, words: lead + "".join(map("".join, words)),
                      blanks, st.lists(st.tuples(edge_labels, gaps), max_size=4))
pair_lines = st.builds(lambda lead, u, gap, v, tail: lead + u + gap + v + tail,
                       blanks, edge_labels, gaps, edge_labels, blanks)
edge_texts = st.one_of(
    st.lists(any_lines, max_size=12).map("\n".join),
    st.lists(pair_lines, max_size=12).map("\n".join),  # mostly graphs
    st.text("ab#é中\U0001d400\n" + BLANKS, max_size=40),
)


@settings(max_examples=500, deadline=None)
@given(edge_texts)
def test_read_edge_list_matches_the_per_line_reader(text):
    assert read_outcome(edge_list_from_string, text) == read_outcome(reference_read_edge_list, text)


def test_byte_order_mark_leaves_no_phantom_node(tmp_path):
    (tmp_path / "bom.edges").write_bytes("\ufeffa b\r\nb c\r\n".encode())
    g = read_edge_list(str(tmp_path / "bom.edges"))
    assert g.labels == ("a", "b", "c")
    assert not any("\ufeff" in lab for lab in g.labels)


def test_round_trip_canonical_form():
    g = edge_list_from_string("b a\na c\nc b\n")
    first = edge_list_text(g)
    assert edge_list_text(edge_list_from_string(first)) == first
    assert first == "a b\na c\nb c\n"


def _contents(g):
    """g's node count and its edges as sorted pairs of their labels' texts."""
    return g.n, sorted(tuple(sorted((str(g.labels[i]), str(g.labels[j])))) for i, j in g.edges())


def _read_back(text, tmp_path):
    """The contents of `text` read from a file, or the error that refuses it."""
    (tmp_path / "g.edges").write_text(text, encoding="utf-8")
    try:
        return _contents(read_edge_list(str(tmp_path / "g.edges")))
    except SgfpError as exc:
        return type(exc)


def test_written_edge_lists_read_back(tmp_path):
    # '#' inside a label, or in a label that is not first on its line, is no comment.
    g = build_graph([("b#", "a"), ("a", 3), (3, "!x"), ("!x", "#c"), ("\ufeffz", "a")])
    text = edge_list_text(g)
    assert text == "!x #c\n!x 3\n3 a\na b#\na \ufeffz\n"
    assert _read_back(text, tmp_path) == _contents(g)


@pytest.mark.parametrize("edges, read_back", [
    ([("#a", "b"), ("b", "c")], (2, [("b", "c")])),  # the first line is a comment
    ([("a b", "c")], ParseError),  # a label holding whitespace
    ([((1, 2), "c")], ParseError),  # written "(1, 2)"
    ([("", "c"), ("c", "d")], ParseError),
    ([(1, "1")], SelfLoopError),  # two labels written alike
    ([(1, "a"), ("a", "1")], (2, [("1", "a")])),
    ([("\ufeffa", "\ufeffb")], (2, [("a", "\ufeffb")])),  # a file's leading mark is dropped
])
def test_edge_lists_that_would_not_read_back_are_refused(edges, read_back, tmp_path):
    g = build_graph(edges)
    unchecked = "".join(f"{u} {v}\n" for u, v in _contents(g)[1])  # the writer without checks
    assert _read_back(unchecked, tmp_path) == read_back != _contents(g)
    with pytest.raises(PreconditionViolatedError, match="would not read back"):
        edge_list_text(g)


def test_byte_order_mark_is_dropped(tmp_path):
    bom = "\ufeff".encode()
    edges, attrs = b"a b\nb c\nc d\nd a\na c\n", b"node,value\na,1\nb,2\nc,3\nd,4\n"
    (tmp_path / "g.edges").write_bytes(edges)
    (tmp_path / "bom.edges").write_bytes(bom + edges)
    (tmp_path / "bom.csv").write_bytes(bom + attrs)
    plain = read_edge_list(str(tmp_path / "g.edges"))
    g = read_edge_list(str(tmp_path / "bom.edges"))
    assert (g.labels, g.adj) == (plain.labels, plain.adj)
    assert read_attributes(str(tmp_path / "bom.csv"), g) == [1.0, 2.0, 3.0, 4.0]


def test_read_attributes_fig1():
    g, attrs = example_graph_fig1()
    csv = "node,value\n" + "".join(
        f"{lab},{val}\n" for lab, val in zip(g.labels, attrs))
    values = read_attributes(io.StringIO(csv), g)
    assert values == [float(v) for v in attrs]


def test_read_attributes_unknown_node():
    g = edge_list_from_string("1 2\n")
    with pytest.raises(UnknownNodeError):
        read_attributes(io.StringIO("node,value\n1,1\n2,2\n9,3\n"), g)


def test_read_attributes_missing_node():
    g = edge_list_from_string("1 2\n")
    with pytest.raises(UnknownNodeError):
        read_attributes(io.StringIO("node,value\n1,1\n"), g)


def test_read_attributes_duplicate_row():
    g = edge_list_from_string("1 2\n")
    with pytest.raises(DuplicateRowError):
        read_attributes(io.StringIO("node,value\n1,1\n1,2\n2,3\n"), g)


def test_read_attributes_bad_header():
    g = edge_list_from_string("1 2\n")
    with pytest.raises(ParseError):
        read_attributes(io.StringIO("id,val\n1,1\n2,2\n"), g)


def test_read_labels_na_is_a_category():
    g = edge_list_from_string("1 2\n2 3\n")
    labels = read_labels(io.StringIO("node,label\n1,NA\n2,M\n3,NA\n"), g)
    assert labels == ["NA", "M", "NA"]
    values = prop_own(g, labels)
    # The middle node shares its label with neither neighbor.
    assert values[1] == 0
    # The NA endpoints each have one friend (M), sharing with neither.
    assert values[0] == 0 and values[2] == 0


def test_node_tables_with_quoted_labels_read_back():
    g = build_graph([("a,b", '"q'), ('"q', 'x"y'), ('x"y', "plain"), ("plain", "a,b")])
    values = [0.5, -2, 3, 1e300]
    text = node_values_text(g, values)
    assert text.splitlines()[1:3] == ['"a,b",0.5', '"""q",-2']
    assert read_attributes(io.StringIO(text), g) == values
    labels = ['M,F', '"NA"', 'say "x"', "NA"]
    table = node_values_text(g, labels).replace("node,value", "node,label", 1)
    assert read_labels(io.StringIO(table), g) == labels


def test_prop_own_all_same_label():
    g = path(4)
    assert prop_own(g, ["x"] * 4) == [1, 1, 1, 1]


def test_prop_own_path3_alternating():
    g = path(3)
    assert prop_own(g, ["M", "F", "M"]) == [0, 0, 0]


def test_prop_own_star():
    g = star(4)  # center + 3 leaves
    values = prop_own(g, ["M", "M", "M", "F"])
    assert values[0] == Fraction(2, 3)
    assert values[1] == 1 and values[2] == 1
    assert values[3] == 0


def test_prop_own_isolate_undefined():
    g = build_graph([(0, 1)], nodes=[0, 1, 2])
    values = prop_own(g, ["a", "a", "a"])
    assert values == [1, 1, None]


def test_prop_own_length_mismatch():
    with pytest.raises(LengthMismatchError):
        prop_own(star(4), ["M", "F"])


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_read_attributes_non_finite(raw):
    g = edge_list_from_string("1 2\n")
    with pytest.raises(ParseError) as info:
        read_attributes(io.StringIO(f"node,value\n1,1\n2,{raw}\n"), g)
    assert info.value.line_number == 3


def test_read_attributes_rational_is_exact():
    # big and big - 1 round to the same float; the exact gap is -1/3.
    g = edge_list_from_string("1 2\n2 3\n")
    big = 12345678901234567891
    csv = f"node,value\n1,{big}\n2,{big - 1}\n3,{big}\n"
    values = read_attributes(io.StringIO(csv), g, rational=True)
    assert values == [big, big - 1, big]
    assert singular_gap(g, values) == Fraction(-1, 3)
    csv = "node,value\n1,1e-5\n2,-0.25\n3,7\n"
    values = read_attributes(io.StringIO(csv), g, rational=True)
    assert values == [Fraction(1, 100000), Fraction(-1, 4), 7]


def test_read_attributes_rational_integer_literals_are_ints():
    g = edge_list_from_string("1 2\n2 3\n3 4\n4 5\n5 6\n")
    csv = "node,value\n1,+7\n2,-0\n3,007\n4,1_0\n5,\u0661\n6,1e3\n"
    values = read_attributes(io.StringIO(csv), g, rational=True)
    assert values == [7, 0, 7, 10, 1, 1000]
    # Only ASCII [+-]digits is an int; underscores, other digits and exponents
    # keep the Fraction path.
    assert [type(v) for v in values] == [int, int, int, Fraction, Fraction, Fraction]
    assert [type(v) for v in read_attributes(io.StringIO(csv), g)] == [float] * 6


@pytest.mark.parametrize("raw", ["nan", "inf", "1e400", "1e-999999", "abc", "1/3"])
def test_read_attributes_rational_rejects(raw):
    g = edge_list_from_string("1 2\n")
    with pytest.raises(ParseError) as info:
        read_attributes(io.StringIO(f"node,value\n1,1\n2,{raw}\n"), g, rational=True)
    assert info.value.line_number == 3


def test_read_attributes_rational_names_the_exponent_limit():
    g = edge_list_from_string("1 2\n")
    text = "node,value\n1,1e-400\n2,1e-401\n"
    assert read_attributes(io.StringIO(text), g) == [0.0, 0.0]
    with pytest.raises(ParseError, match=r"^line 3: exponent of '1e-401' is beyond \+-400$"):
        read_attributes(io.StringIO(text), g, rational=True)
    text = "node,value\n1,1e-400\n2,0\n"
    assert read_attributes(io.StringIO(text), g, rational=True) == [Fraction(1, 10 ** 400), 0]
