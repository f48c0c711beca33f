import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cohsmix.io as cio

from cohsmix.em import EMConfig, fit
from cohsmix.io import (
    read_features,
    read_graph,
    read_params,
    write_features,
    write_graph,
    write_result,
)
from cohsmix.model import FeatureMatrix, Graph
from cohsmix.simulate import AffiliationSpec, generate


# ---------------------------------------------------------------------------
# Graphs


def test_empty_edge_list_with_header(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("n=3\n")
    graph = read_graph(path)
    assert graph.n == 3
    assert graph.n_edges == 0


def test_edge_list_comments_and_blank_lines(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("# a comment\nn=4\n\n0\t1\n2 3  # trailing comment\n")
    graph = read_graph(path)
    assert graph.n == 4
    assert graph.n_edges == 2
    assert graph.adjacency[0, 1] == 1 and graph.adjacency[3, 2] == 1


def test_self_loop_dropped_with_warning(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\n2\t2\n")
    with pytest.warns(UserWarning, match="dropped 1 self-loop"):
        graph = read_graph(path)
    assert graph.n == 3  # index 2 still declares the vertex
    assert graph.n_edges == 1


def test_duplicate_and_reversed_edges_collapse(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\n1\t0\n0\t1\n")
    graph = read_graph(path)
    assert graph.n_edges == 1


def test_malformed_line_reports_number(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("0\t1\nnot an edge\n")
    with pytest.raises(ValueError, match=":2:"):
        read_graph(path)


def test_index_beyond_declared_n(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("n=2\n0\t5\n")
    with pytest.raises(ValueError, match="declared"):
        read_graph(path)


def test_graph_round_trip(tmp_path):
    spec = AffiliationSpec(n_classes=3, n=40, n_features=0,
                           within_prob=0.5, between_prob=0.1, seed=11)
    graph, _, _ = generate(spec)
    path = write_graph(tmp_path / "sim.tsv", graph)
    again = read_graph(path)
    assert np.array_equal(again.adjacency, graph.adjacency)


@pytest.mark.parametrize("name, text", [("g.tsv", "0\t1\n2\t2\n"),
                                        ("g.csv", "1,1\n1,0\n")])
def test_self_loop_warning_points_at_the_caller(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.warns(UserWarning, match="self-loop") as record:
        read_graph(path)
    assert record[0].filename == __file__


@pytest.mark.parametrize("line, message", [
    ("1_0\t2", "vertex indices must be integers"),
    ("1.0\t2", "vertex indices must be integers"),
    ("0\t1\t2", "expected 'i<TAB>j', got '0\\t1\\t2\\n'"),
    ("3\t-1", "negative vertex index"),
    ("0\f1", "expected 'i<TAB>j', got '0\\x0c1\\n'"),
    ("0\t\u0661", "vertex indices must be integers"),
])
def test_bad_line_named_with_its_number(tmp_path, line, message):
    path = tmp_path / "g.tsv"
    path.write_text(f"# header comes next\nn=5\n0\t1\n{line}\n2\t3\n",
                    encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_graph(path)
    assert str(err.value) == f"{path}:4: {message}"


def test_index_beyond_int64_named(tmp_path):
    path = tmp_path / "g.tsv"
    path.write_text("n=3\n0\t99999999999999999999\n")
    with pytest.raises(ValueError, match=f"^{path}: .*'99999999999999999999'"):
        read_graph(path)


# The character check of the edge-list reader before it used bytes.translate.
_OLD_NON_EDGE_CHAR_RE = re.compile(r"[^0-9+\- \t\n]")


@settings(max_examples=300, deadline=None)
@given(text=st.text(st.characters(blacklist_categories=("Cs",)))
       | st.text(st.sampled_from("0123456789+- \t\n\r\x0c.e#n=\u0661")))
def test_edge_character_check_matches_the_old_regex(text):
    # Any text a UTF-8 file decodes to: surrogates never occur.
    left = text.encode("utf-8").translate(None, cio._EDGE_CHARS)
    assert bool(left) == bool(_OLD_NON_EDGE_CHAR_RE.search(text))


def test_write_graph_bytes(tmp_path):
    graph = Graph.from_edge_pairs(4, [(3, 2), (0, 1), (3, 0)])
    path = write_graph(tmp_path / "g.tsv", graph)
    assert path.read_bytes() == b"n=4\n0\t1\n0\t3\n2\t3\n"


def test_dense_csv_graph(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("0,1,0\n1,0,1\n0,1,0\n")
    graph = read_graph(path)
    assert graph.n == 3
    assert graph.n_edges == 2


def test_dense_csv_graph_symmetrised_and_loops_dropped(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("1,1,0\n0,0,0\n0,0,0\n")
    with pytest.warns(UserWarning, match="self-loop"):
        graph = read_graph(path)
    assert graph.adjacency[0, 1] == 1 and graph.adjacency[1, 0] == 1
    assert graph.adjacency[0, 0] == 0


def test_dense_csv_rejects_non_binary(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("0,2\n2,0\n")
    with pytest.raises(ValueError, match="0 or 1"):
        read_graph(path)


# ---------------------------------------------------------------------------
# Features


def test_features_basic(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1.5,2\n-3,4e-2\n0,1\n")
    features = read_features(path)
    assert features.n == 3 and features.p == 2
    assert features.values[1, 1] == pytest.approx(0.04)


def test_features_header_autodetected(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("x,y\n1,2\n3,4\n")
    features = read_features(path)
    assert features.n == 2
    assert features.values[0, 0] == 1.0


def test_features_round_trip_full_precision(tmp_path):
    rng = np.random.default_rng(0)
    features = FeatureMatrix(rng.normal(size=(7, 3)) * 1e3)
    path = write_features(tmp_path / "f.csv", features)
    again = read_features(path)
    assert np.array_equal(again.values, features.values)


def test_features_ragged_rows(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="columns"):
        read_features(path)


def test_features_non_numeric_cell(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_features(path)


def test_features_non_finite_cell(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1,2\n3,inf\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_features(path)


def test_features_with_overflowing_norm(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("1,2\n3,1e200\n")
    with pytest.raises(ValueError, match="feature row 1 is too large"):
        read_features(path)


def test_row_count_mismatch(tmp_path):
    graph = Graph(np.zeros((3, 3)))
    features = FeatureMatrix(np.zeros((2, 1)))
    with pytest.raises(ValueError, match="mismatch"):
        fit(graph, features, 2)


# ---------------------------------------------------------------------------
# Fit results


@pytest.fixture
def fitted(tmp_path):
    spec = AffiliationSpec(n_classes=2, n=20, n_features=2,
                           within_prob=0.6, between_prob=0.1,
                           mean_gap=2.0, seed=3)
    graph, features, _ = generate(spec)
    result = fit(graph, features, 2, EMConfig(rng_seed=1))
    result.icl = -123.5
    return result, write_result(result, tmp_path / "out")


def test_write_result_files_exist_and_reparse(fitted):
    result, paths = fitted
    assert sorted(paths) == ["params", "partition", "summary", "tau"]
    for path in paths.values():
        assert path.is_file()

    tau = read_features(paths["tau"])  # header + numeric rows
    assert np.array_equal(tau.values, result.responsibilities)

    rows = paths["partition"].read_text().strip().splitlines()
    assert rows[0] == "vertex,label"
    labels = np.array([int(r.split(",")[1]) for r in rows[1:]])
    assert np.array_equal(labels, result.partition)
    assert np.array_equal(labels, np.argmax(tau.values, axis=1))


def test_params_json_round_trip(fitted):
    result, paths = fitted
    params, trace, icl = read_params(paths["params"])
    assert np.array_equal(params.alpha, result.params.alpha)
    assert np.array_equal(params.pi, result.params.pi)
    assert np.array_equal(params.mu, result.params.mu)
    assert params.sigma2 == result.params.sigma2
    assert trace == result.bound_trace
    assert icl == result.icl


@pytest.mark.parametrize("q,message", [
    (7, r"Q is 7 but alpha has 2 classes"),
    (1, r"Q is 1 but alpha has 2 classes"),
    (0, r"Q must be a positive integer, got 0"),
    (2.0, r"Q must be a positive integer, got 2\.0"),
    (True, r"Q must be a positive integer, got True"),
    ("2", r"Q must be a positive integer, got '2'"),
])
def test_read_params_rejects_a_class_count_alpha_disagrees_with(fitted, q,
                                                                message):
    _, paths = fitted
    payload = json.loads(paths["params"].read_text())
    payload["Q"] = q
    paths["params"].write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(str(paths["params"]))
                       + ": " + message):
        read_params(paths["params"])


def test_read_params_rejects_a_scalar_alpha(fitted):
    _, paths = fitted
    payload = json.loads(paths["params"].read_text())
    payload["alpha"] = 1.0
    paths["params"].write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="alpha must be a non-empty vector"):
        read_params(paths["params"])


@pytest.mark.parametrize("key,value,message", [
    ("sigma2", "abc", "sigma2 must hold numbers only, got 'abc'"),
    ("sigma2", None, "sigma2 must hold numbers only, got None"),
    ("sigma2", True, "sigma2 must hold numbers only, got True"),
    ("sigma2", [1.0], "sigma2 must be a number, got [1.0]"),
    ("sigma2", 10**400, "sigma2 must be floats in lists nested to one "
                        "shape"),
    ("sigma2", -1.0, "sigma2 must be a positive finite scalar"),
    ("alpha", ["a", 0.5], "alpha must hold numbers only, got 'a'"),
    ("alpha", [0.5, None], "alpha must hold numbers only, got None"),
    ("alpha", [[0.5], [0.5, 0.0]], "alpha must be floats in lists nested "
                                   "to one shape"),
    ("alpha", [0.9, 0.9], "alpha must be a probability vector"),
    ("pi", [[0.5, "x"], [0.5, 0.5]], "pi must hold numbers only, got 'x'"),
    ("pi", [[0.5, 0.1], [0.1]], "pi must be floats in lists nested to one "
                                "shape"),
    ("pi", [[0.5, 0.1], [0.1, 0.5], [0.1, 0.1]], "pi must have shape"),
    ("mu", "abc", "mu must hold numbers only, got 'abc'"),
    ("mu", [[0.0, 1.0], [2.0]], "mu must be floats in lists nested to one "
                                "shape"),
    ("j_trace", "abc", "j_trace must hold numbers only, got 'abc'"),
    ("j_trace", [-10.0, "x"], "j_trace must hold numbers only, got 'x'"),
    ("j_trace", [-10.0, [-9.0]], "j_trace must be floats in lists nested "
                                 "to one shape"),
    ("j_trace", [[-10.0]], "j_trace must be a list of numbers, got "
                           "[[-10.0]]"),
    ("j_trace", -10.0, "j_trace must be a list of numbers, got -10.0"),
    ("icl", "abc", "icl must hold numbers only, got 'abc'"),
    ("icl", [1.0], "icl must be a number, got [1.0]"),
])
def test_read_params_names_the_file_and_the_field(fitted, key, value,
                                                  message):
    _, paths = fitted
    payload = json.loads(paths["params"].read_text())
    payload[key] = value
    paths["params"].write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(
            f"{paths['params']}: {message}")):
        read_params(paths["params"])


@pytest.mark.parametrize("key", ["alpha", "pi", "mu"])
def test_read_params_rejects_a_non_finite_field(fitted, key):
    # json reads NaN; the params constructor rejects it, naming the field,
    # and the reader names the file.
    _, paths = fitted
    payload = json.loads(paths["params"].read_text())
    value = np.array(payload[key], dtype=float)
    value.flat[0] = np.nan
    payload[key] = value.tolist()
    paths["params"].write_text(json.dumps(payload))
    assert "NaN" in paths["params"].read_text()
    with pytest.raises(ValueError, match=re.escape(
            f"{paths['params']}: {key} must be finite")):
        read_params(paths["params"])


def test_read_params_takes_a_null_icl(fitted):
    _, paths = fitted
    payload = json.loads(paths["params"].read_text())
    payload["icl"] = None
    paths["params"].write_text(json.dumps(payload))
    assert read_params(paths["params"])[2] is None


def test_params_json_key_order(fitted):
    _, paths = fitted
    payload = json.loads(paths["params"].read_text())
    assert list(payload) == ["alpha", "pi", "mu", "sigma2", "Q", "j_trace",
                             "icl"]


def test_summary_counts_match_n(fitted):
    result, paths = fitted
    text = paths["summary"].read_text()
    sizes_line = next(l for l in text.splitlines()
                      if l.startswith("class sizes:"))
    counts = [int(part.split(":")[1]) for part in
              sizes_line.split(":", 1)[1].split(",")]
    assert sum(counts) == len(result.partition)
