import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergecolor import DimacsError, Graph, format_col, parse_col, read_col, write_col
from bergecolor.dimacs import MAX_VERTICES

from conftest import cycle
from oracles import naive_parse_col


@st.composite
def graphs(draw, max_n: int = 12):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


def test_parse_simple():
    g = parse_col("c a comment\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.n == 3 and g.m == 2
    assert g.adjacent(0, 1) and g.adjacent(1, 2) and not g.adjacent(0, 2)


def test_parse_tolerates_duplicate_and_reversed_edges():
    g = parse_col("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n")
    assert g.m == 2


def test_parse_blank_lines_and_comments():
    g = parse_col("\nc x\n\np edge 2 1\nc y\ne 1 2\n\n")
    assert g.m == 1


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("e 1 2\n", 1),
        ("p edge 2 1\np edge 2 1\n", 2),
        ("p edge x 1\n", 1),
        ("p edgy 2 1\n", 1),
        ("p edge 2 1\ne 1\n", 2),
        ("p edge 2 1\ne 1 5\n", 2),
        ("p edge 2 1\ne 0 1\n", 2),
        ("p edge 2 1\ne 1 1\n", 2),
        ("p edge 2 1\nq 1 2\n", 2),
        ("p edge 2 1\ne 1 z\n", 2),
    ],
)
def test_parse_errors_carry_line_numbers(text, line_no):
    with pytest.raises(DimacsError) as exc:
        parse_col(text)
    assert exc.value.line_no == line_no
    assert f"line {line_no}" in str(exc.value)


LINES = [
    "p edge 4 3", "p edge 2 0", "p edge x 1", "p edge -1 0", "p edgy 4 3",
    f"p edge {MAX_VERTICES + 1} 0",
    "e 1 2", "e 2 1", " e\t3  4 ", "e 4 1", "e +2 3", "e 1_0 2", "e 1 1",
    "e 0 2", "e 2 9", "e 1 z", "e 1", "e 1 2 3", "c note", "", "q 1 2",
]


@given(st.booleans(), st.lists(st.sampled_from(LINES), max_size=12))
@settings(max_examples=400, deadline=None)
def test_parse_matches_line_by_line_parser(header, lines):
    # edge lines are checked in bulk; the result, or the first bad line and
    # its message, must be what checking each line in turn gives
    text = "\n".join(["p edge 4 3"] * header + lines)
    try:
        want = naive_parse_col(text)
    except DimacsError as exc:
        with pytest.raises(DimacsError) as got:
            parse_col(text)
        assert (got.value.line_no, str(got.value)) == (exc.line_no, str(exc))
    else:
        assert parse_col(text) == want


def test_parse_rejects_vertex_count_over_the_limit():
    # the graph is allocated from the declared count before any edge is
    # read; 18 bytes must not claim hundreds of megabytes
    for text in ("p edge 10000000 0\n", f"c big\np edge {MAX_VERTICES + 1} 0\n"):
        with pytest.raises(DimacsError) as exc:
            parse_col(text)
        assert "over the limit of 1000000" in str(exc.value)
        assert exc.value.line_no == text.count("\n")
    assert MAX_VERTICES == 1_000_000
    assert parse_col("p edge 1000 1\ne 1 1000\n").n == 1000


def test_parse_empty_input():
    with pytest.raises(DimacsError):
        parse_col("")
    assert parse_col("p edge 0 0\n").n == 0


def test_format_is_one_based_and_sorted():
    text = format_col(cycle(3), comment="two\nlines")
    assert text == "c two\nc lines\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


@given(graphs())
@settings(max_examples=250, deadline=None)
def test_round_trip_identity(g):
    assert parse_col(format_col(g)) == g


def test_file_round_trip(tmp_path):
    g = cycle(6)
    p = str(tmp_path / "c6.col")
    write_col(g, p, comment="six cycle")
    assert read_col(p) == g
    # atomic write leaves no temp file behind
    assert list(tmp_path.iterdir()) == [tmp_path / "c6.col"]


def test_read_col_rejects_non_ascii_with_line_number(tmp_path):
    p = tmp_path / "bad.col"
    p.write_bytes(b"p edge 2 1\n\xffe 1 2\n")
    with pytest.raises(DimacsError) as ei:
        read_col(str(p))
    assert ei.value.line_no == 2
