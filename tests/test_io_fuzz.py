"""Generated edge-list files: the reader against a per-line reference parser,
and write/read round trips."""

import re
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohsmix.io import read_graph, write_graph
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
