"""Generated edge-list and feature files: the readers against per-line and
per-cell reference parsers, the writers against per-value reference writers,
and write/read round trips."""

import csv
import io
import re
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohsmix.io import _read_csv_matrix, read_graph, write_float_csv, write_graph
from cohsmix.model import Graph

_HEADER_RE = re.compile(r"n\s*=\s*(\d+)")


def reference_read(path):
    """One line at a time, as the edge-list reader once did.

    Returns the adjacency matrix and the number of dropped self-loops.
    """
    declared_n = None
    edges = []
    max_index = -1
    dropped = 0
    with path.open(encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            header = _HEADER_RE.fullmatch(line)
            if header:
                declared_n = int(header.group(1))
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'i<TAB>j', got {raw!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{line_no}: vertex indices must be integers"
                ) from None
            if i < 0 or j < 0:
                raise ValueError(f"{path}:{line_no}: negative vertex index")
            max_index = max(max_index, i, j)
            if i == j:
                dropped += 1
                continue
            edges.append((i, j))
    if declared_n is not None and max_index >= declared_n:
        raise ValueError(
            f"{path}: vertex index {max_index} exceeds declared n={declared_n}"
        )
    n = declared_n if declared_n is not None else max_index + 1
    adjacency = np.zeros((n, n))
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1.0
    return adjacency, dropped


def reference_write(graph):
    return f"n={graph.n}\n" + "".join(f"{i}\t{j}\n" for i, j in graph.edge_pairs())


MAX_VERTICES = 10

blank = st.sampled_from(["", " ", "\t", " \t "])
spaces = st.sampled_from(["", " ", "\t", "  ", " \t"])
separator = st.sampled_from(["\t", " ", "  ", "\t\t", " \t "])
comment = st.one_of(st.just(""), st.text(
    st.characters(min_codepoint=32, max_codepoint=126), max_size=12
).map(lambda text: "#" + text))
index = st.integers(0, MAX_VERTICES - 1)
sign = st.sampled_from(["", "", "", "+"])


@st.composite
def edge_line(draw):
    i, j = draw(index), draw(st.one_of(index, st.just(-1)))
    j = i if j < 0 else j  # self-loops are common enough to matter
    return (draw(spaces) + draw(sign) + str(i) + draw(separator)
            + draw(sign) + str(j) + draw(spaces) + draw(comment))


@st.composite
def header_line(draw):
    count = draw(st.one_of(st.just(MAX_VERTICES),
                           st.integers(0, MAX_VERTICES + 2)))
    return (draw(spaces) + "n" + draw(spaces) + "=" + draw(spaces)
            + str(count) + draw(spaces) + draw(comment))


bad_line = st.sampled_from([
    "not an edge", "7", "1 2 3", "a\tb", "1\t2\t3 # x",  # malformed
    "n=x", "n = 3 4", "1+2 3", "--1 2", "+ 1",
    "1.0\t2", "3 4.5", "1e1\t2", "nan 1",  # floats
    "-1\t2", "3 -4", "  -2 -2",  # negative
    "0\t40", "25 3",  # out of range
])


@st.composite
def edge_list_text(draw):
    lines = draw(st.lists(st.one_of(blank, comment,
                                    edge_line(), edge_line(), edge_line(),
                                    header_line()), max_size=25))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(bad_line))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline after the last line
    return text


def _outcome(read, path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = read(path)
        except ValueError as err:
            return "error", str(err), None
    messages = [str(w.message) for w in caught]
    return "ok", result, messages


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=edge_list_text())
def test_reader_matches_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "g.tsv"
    path.write_bytes(text.encode("utf-8"))
    expected = _outcome(reference_read, path)
    got = _outcome(read_graph, path)
    assert got[0] == expected[0], (got, expected)
    if expected[0] == "error":
        assert got[1] == expected[1]
        return
    adjacency, dropped = expected[1]
    assert np.array_equal(got[1].adjacency, adjacency)
    assert got[2] == ([f"{path}: dropped {dropped} self-loop(s)"]
                      if dropped else [])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12),
       density=st.floats(0.0, 1.0))
def test_dense_reader_matches_reference(tmp_path_factory, seed, n, density):
    # Any 0/1 matrix, asymmetric entries and diagonal ones included: the
    # graph is the matrix symmetrised with its diagonal dropped.
    raw = (np.random.default_rng(seed).random((n, n)) < density).astype(int)
    path = tmp_path_factory.mktemp("dense") / "g.csv"
    np.savetxt(path, raw, fmt="%d", delimiter=",")
    expected = np.maximum(raw, raw.T).astype(np.float64)
    np.fill_diagonal(expected, 0.0)
    loops = int(np.trace(raw))
    status, graph, messages = _outcome(read_graph, path)
    assert status == "ok"
    assert graph.adjacency.dtype == np.float64
    assert not graph.adjacency.flags.writeable
    assert np.array_equal(graph.adjacency, expected)
    assert messages == ([f"{path}: dropped {loops} self-loop(s)"]
                        if loops else [])


@st.composite
def graphs(draw):
    n = draw(st.integers(0, MAX_VERTICES))
    upper = np.triu(np.array(draw(st.lists(
        st.booleans(), min_size=n * n, max_size=n * n)),
        dtype=float).reshape(n, n), k=1)
    return Graph(upper + upper.T)


@settings(max_examples=200, deadline=None)
@given(graph=graphs())
def test_write_then_read_round_trips(tmp_path_factory, graph):
    path = write_graph(tmp_path_factory.mktemp("round") / "g.tsv", graph)
    assert path.read_text(encoding="utf-8") == reference_write(graph)
    again = read_graph(path)
    assert np.array_equal(again.adjacency, graph.adjacency)


def test_round_trip_edge_cases(tmp_path):
    for graph in (Graph(np.zeros((0, 0))), Graph(np.zeros((1, 1))),
                  Graph(np.zeros((5, 5)))):
        path = write_graph(tmp_path / f"g{graph.n}.tsv", graph)
        assert np.array_equal(read_graph(path).adjacency, graph.adjacency)


# ---------------------------------------------------------------------------
# Feature tables


def reference_read_csv(path, allow_header):
    """One cell at a time through ``csv``, as the feature reader once did."""
    rows = []
    width = None
    with path.open(encoding="utf-8", newline="") as handle:
        for row_no, cells in enumerate(csv.reader(handle), start=1):
            if not cells or all(not cell.strip() for cell in cells):
                continue
            if row_no == 1 and allow_header and not _all_float(cells):
                continue
            try:
                values = [float(cell) for cell in cells]
            except ValueError:
                raise ValueError(
                    f"{path}:{row_no}: non-numeric cell in {cells!r}"
                ) from None
            if not all(np.isfinite(values)):
                raise ValueError(f"{path}:{row_no}: non-finite value")
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise ValueError(
                    f"{path}:{row_no}: expected {width} columns, got {len(values)}"
                )
            rows.append(values)
    if not rows:
        return np.zeros((0, 0))
    return np.array(rows)


def _all_float(cells):
    try:
        [float(cell) for cell in cells]
    except ValueError:
        return False
    return True


def reference_write_csv(values, header=None):
    """``repr`` of each value through ``csv.writer``, as the writers once did."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows([repr(float(x)) for x in row] for row in values)
    return out.getvalue()


plain_number = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([".5", "5.", "+1", "-0", "1e5", "1E-3", "-.5e+2", "007",
                     "1e999", "-1e999"]),  # the last two overflow to inf
)
odd_cell = st.sampled_from([
    " 1.5", "2 ", '"3.25"', '"1,5"', "1_0", "nan", "inf", "-Infinity", "",
    " ", "abc", "1e", "1.2.3", "--1", "0x10", "\u0661", "#1", "1\x00",
])
cell = st.one_of(plain_number, plain_number, plain_number, odd_cell)
header_row = st.sampled_from(["a,b", "x", "class_0,class_1,class_2", '"a,b",c',
                              "1,x", "1,2", "", " ", "nan,1", "\ufeffa,b"])


@st.composite
def feature_text(draw):
    width = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            rows.append(draw(st.sampled_from(["", " ", ",,", " , "])))
            continue
        row_width = width if kind > 1 else draw(st.integers(1, 5))
        odd = draw(st.integers(0, 4)) == 0
        cells = [draw(cell if odd else plain_number) for _ in range(row_width)]
        rows.append(",".join(cells))
    if draw(st.booleans()):
        rows.insert(0, draw(header_row))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]),
                         min_size=len(rows), max_size=len(rows)))
    text = "".join(row + end for row, end in zip(rows, ends))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no newline after the last row
    return text


def _table_outcome(read, path, allow_header):
    try:
        return "ok", read(path, allow_header)
    except ValueError as err:
        return "error", str(err)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=feature_text(), allow_header=st.booleans())
def test_feature_reader_matches_reference(tmp_path_factory, text, allow_header):
    path = tmp_path_factory.mktemp("fuzz") / "f.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _table_outcome(reference_read_csv, path, allow_header)
    got = _table_outcome(_read_csv_matrix, path, allow_header)
    assert got[0] == expected[0], (got, expected)
    if expected[0] == "error":
        assert got[1] == expected[1]
        return
    assert got[1].shape == expected[1].shape
    assert got[1].tobytes() == expected[1].tobytes()


float_tables = st.integers(0, 6).flatmap(lambda n: st.integers(0, 4).flatmap(
    lambda p: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=p, max_size=p),
        min_size=n, max_size=n).map(lambda rows: np.array(rows).reshape(n, p))))


@settings(max_examples=200, deadline=None)
@given(values=float_tables, with_header=st.booleans())
def test_float_writer_matches_reference(tmp_path_factory, values, with_header):
    header = [f"class_{q}" for q in range(values.shape[1])] \
        if with_header else None
    path = write_float_csv(tmp_path_factory.mktemp("round") / "f.csv",
                           values, header)
    assert path.read_bytes() == reference_write_csv(values, header).encode()
    if values.shape[1]:
        again = _read_csv_matrix(path, allow_header=True)
        assert again.tobytes() == values.tobytes()
