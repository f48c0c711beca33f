"""Readers and writers for graphs, feature tables, and fit results.

Graphs travel as tab-separated edge lists (0-based indices, ``#`` comments,
optional ``n=<count>`` header line) or as dense 0/1 CSV when the path ends
in ``.csv``. Features are plain CSV, one row per vertex, with an optional
header detected by a non-numeric first line. All writers round-trip exactly
through the matching readers.
"""

from __future__ import annotations

import csv
import json
import re
import warnings
from io import StringIO
from pathlib import Path

import numpy as np

from .em import FitResult
from .model import FeatureMatrix, Graph, ModelParams

# Edge-list grammar, one line at a time: blank, an ``n=<count>`` header or
# an ``i j`` pair of decimal indices, with spaces or tabs around the parts
# and an optional ``#`` comment to the end of the line.
_COMMENT_RE = re.compile(r"#[^\n]*")
# A header match starts at the newline before its line, a literal the
# regex engine scans for quickly.
_HEADER_LINE_RE = re.compile(r"\n[ \t]*n[ \t]*=[ \t]*([0-9]+)[ \t]*(?=\n|\Z)")
# Only these characters reach np.loadtxt, which would read more than the
# grammar: form feeds as separators, and floats on numpy 1.x.
_EDGE_CHARS = b"0123456789+- \t\n"
_INDEX_RE = re.compile(r"[+-]?[0-9]+")
_FIELD_SEP_RE = re.compile(r"[ \t]+")
_BAD_LINE_RE = re.compile(
    r"^(?![ \t]*(?:(?:\+?[0-9]+|-0+)[ \t]+(?:\+?[0-9]+|-0+)"
    r"|n[ \t]*=[ \t]*[0-9]+)?[ \t]*(?:#[^\n]*)?$)[^\n]*",
    re.MULTILINE,
)

# Feature tables made of these characters only are read in one np.loadtxt.
_NON_PLAIN_CSV_RE = re.compile(r"[^0-9eE+\-.,\n]")

# Field order of params.json; fixed so outputs are diff-friendly.
_PARAMS_KEYS = ("alpha", "pi", "mu", "sigma2", "Q", "j_trace", "icl")


def read_graph(path) -> Graph:
    """Load a graph, symmetrising and dropping self-loops with a warning."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return _read_dense_graph(path)
    return _read_edge_list(path)


def _read_edge_list(path: Path) -> Graph:
    text = path.read_text(encoding="utf-8")
    # Splitting on the header lines leaves the edge lines as the pieces and
    # the captured counts between them; the leading newline lets the first
    # line be a header too.
    parts = _HEADER_LINE_RE.split("\n" + _COMMENT_RE.sub("", text))
    body = "".join(parts[::2])
    declared_n = int(parts[-2]) if len(parts) > 1 else None
    # Deleting the allowed characters leaves any other; every character
    # outside ASCII encodes to bytes outside the allowed set.
    if body.encode("utf-8").translate(None, _EDGE_CHARS):
        _raise_first_bad_line(path, text)
    idx = np.empty((0, 2), dtype=np.int64)
    if body.strip():
        try:
            idx = np.loadtxt(StringIO(body), dtype=np.int64, ndmin=2)
        except ValueError as err:
            _raise_first_bad_line(path, text, err)
        if idx.shape[1] != 2 or (idx < 0).any():
            _raise_first_bad_line(path, text)
    max_index = int(idx.max()) if idx.size else -1
    if declared_n is not None and max_index >= declared_n:
        raise ValueError(
            f"{path}: vertex index {max_index} exceeds declared n={declared_n}"
        )
    loops = idx[:, 0] == idx[:, 1]
    dropped = int(np.count_nonzero(loops))
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} self-loop(s)", stacklevel=3)
    n = declared_n if declared_n is not None else max_index + 1
    return Graph.from_edge_pairs(n, idx[~loops])


def _raise_first_bad_line(path: Path, text: str, err: Exception | None = None):
    """Raise the error of the first line outside the edge-list grammar."""
    bad = _BAD_LINE_RE.search(text)
    if bad is None:
        # Every line is well formed; only an index beyond int64 gets here.
        raise ValueError(f"{path}: {err}") from None
    line_no = text.count("\n", 0, bad.start()) + 1
    line = bad.group()
    raw = line + "\n" if bad.end() < len(text) else line
    fields = _FIELD_SEP_RE.split(line.split("#", 1)[0].strip(" \t"))
    if len(fields) != 2:
        raise ValueError(f"{path}:{line_no}: expected 'i<TAB>j', got {raw!r}")
    if not all(_INDEX_RE.fullmatch(field) for field in fields):
        raise ValueError(f"{path}:{line_no}: vertex indices must be integers")
    raise ValueError(f"{path}:{line_no}: negative vertex index")


def _read_dense_graph(path: Path) -> Graph:
    raw = _read_csv_matrix(path, allow_header=False)
    if raw.size and np.any((raw != 0.0) & (raw != 1.0)):
        raise ValueError(f"{path}: dense graph entries must be 0 or 1")
    if raw.shape[0] != raw.shape[1]:
        raise ValueError(f"{path}: dense graph must be square, got {raw.shape}")
    sym = np.maximum(raw, raw.T)
    loops = int(np.count_nonzero(np.diag(sym)))
    if loops:
        warnings.warn(f"{path}: dropped {loops} self-loop(s)", stacklevel=3)
        np.fill_diagonal(sym, 0.0)
    return Graph(sym)


def write_graph(path, graph: Graph) -> Path:
    path = Path(path)
    names = np.arange(graph.n).astype(str)
    # "i<TAB>" for the first n entries, "j<NEWLINE>" for the next n: each
    # edge's line is one entry of each half.
    table = np.concatenate([np.char.add(names, "\t"),
                            np.char.add(names, "\n")]).astype(object)
    cells = table[(graph.edge_pairs() + [0, graph.n]).ravel()]
    with path.open("w", encoding="utf-8") as handle:
        handle.write(f"n={graph.n}\n" + "".join(cells))
    return path


def read_features(path) -> FeatureMatrix:
    return FeatureMatrix(_read_csv_matrix(Path(path), allow_header=True))


def _read_csv_matrix(path: Path, allow_header: bool) -> np.ndarray:
    text = path.read_text(encoding="utf-8")
    body = text
    if allow_header:
        first, _, rest = text.partition("\n")
        # Without quotes the first record is the first line split at commas;
        # a blank one is skipped like a header.
        if '"' not in first and not _all_numeric(first.split(",")):
            body = rest
    if not body.strip("\n"):
        return np.zeros((0, 0))
    if _NON_PLAIN_CSV_RE.search(body) is None:
        # Only digits, signs, points, exponents, commas and newlines reach
        # np.loadtxt, which then parses floats as float() does.
        try:
            values = np.loadtxt(StringIO(body), delimiter=",", ndmin=2)
        except ValueError:
            values = None
        if values is not None and np.isfinite(values).all():
            return values
    # Quotes, spaces, other spellings of numbers, and every error.
    return _read_csv_rows(path, allow_header)


def _read_csv_rows(path: Path, allow_header: bool) -> np.ndarray:
    """The feature-table grammar, one cell at a time through ``csv``."""
    rows = []
    width = None
    with path.open(encoding="utf-8", newline="") as handle:
        for row_no, cells in enumerate(csv.reader(handle), start=1):
            if not cells or all(not cell.strip() for cell in cells):
                continue
            if row_no == 1 and allow_header and not _all_numeric(cells):
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


def _all_numeric(cells) -> bool:
    try:
        [float(cell) for cell in cells]
    except ValueError:
        return False
    return True


def write_csv(path, rows) -> Path:
    """Write rows of cells as CSV; a cell holding a comma or quote is quoted.

    Rows without such cells are the cells joined by commas, one per line.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        csv.writer(handle, lineterminator="\n").writerows(rows)
    return path


def write_labels(path, labels) -> Path:
    """Write a ``vertex,label`` table, one row per vertex."""
    return write_csv(path, [("vertex", "label"),
                            *((i, int(label)) for i, label in enumerate(labels))])


def write_float_csv(path, values, header=None) -> Path:
    """Write a float table as CSV, each value as ``repr`` spells it.

    ``repr`` of the nested list formats every value in one call, as the
    shortest string that reads back to the same float. ``header`` is an
    optional first row of comma-free names.
    """
    path = Path(path)
    table = repr(np.asarray(values, dtype=np.float64).tolist())[2:-2]
    lines = [] if header is None else [",".join(header)]
    if len(values):
        lines.append(table.replace(", ", ",").replace("],[", "\n"))
    with path.open("w", encoding="utf-8", newline="") as handle:
        handle.write("".join(line + "\n" for line in lines))
    return path


def write_features(path, features: FeatureMatrix) -> Path:
    return write_float_csv(path, features.values)


def write_result(fit: FitResult, out_dir) -> dict[str, Path]:
    """Write partition.csv, tau.csv, params.json, and summary.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}

    paths["partition"] = write_labels(out / "partition.csv", fit.partition)
    n_classes = fit.responsibilities.shape[1]
    paths["tau"] = write_float_csv(
        out / "tau.csv", fit.responsibilities,
        header=[f"class_{q}" for q in range(n_classes)])

    paths["params"] = out / "params.json"
    payload = {
        "alpha": fit.params.alpha.tolist(),
        "pi": fit.params.pi.tolist(),
        "mu": fit.params.mu.tolist(),
        "sigma2": fit.params.sigma2,
        "Q": fit.params.n_classes,
        "j_trace": list(fit.bound_trace),
        "icl": fit.icl,
    }
    with paths["params"].open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    paths["summary"] = out / "summary.txt"
    labels, counts = np.unique(fit.partition, return_counts=True)
    sizes = ", ".join(f"{int(l)}: {int(c)}" for l, c in zip(labels, counts))
    lines = [
        f"vertices: {fit.responsibilities.shape[0]}",
        f"classes: {fit.params.n_classes}",
        f"mode: {fit.mode}",
        f"converged: {fit.converged}",
        f"em iterations: {len(fit.bound_trace) - 1}",
        f"e-step sweeps: {fit.e_step_sweeps}",
        f"sweep-cap hits: {fit.sweep_cap_hits}",
        f"failed restarts: {len(fit.failed_restarts)}",
        f"final lower bound: {fit.final_bound!r}",
        f"icl: {fit.icl!r}",
        f"class sizes: {sizes}",
        f"alpha: {np.array2string(fit.params.alpha, precision=4)}",
        f"sigma2: {fit.params.sigma2:.6g}",
    ]
    paths["summary"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths


def read_params(path):
    """Load params.json back; returns (params, bound_trace, icl). A field
    of the wrong type or shape raises a ``ValueError`` naming the file."""
    with Path(path).open(encoding="utf-8") as handle:
        payload = json.load(handle)
    missing = [key for key in _PARAMS_KEYS if key not in payload]
    if missing:
        raise ValueError(f"{path}: missing keys {missing}")
    n_classes = payload["Q"]
    if isinstance(n_classes, bool) or not isinstance(n_classes, int) \
            or n_classes < 1:
        raise ValueError(f"{path}: Q must be a positive integer, "
                         f"got {n_classes!r}")
    alpha, pi, mu = (_numbers(path, payload, key)
                     for key in ("alpha", "pi", "mu"))
    if alpha.ndim == 1 and alpha.size != n_classes:
        raise ValueError(f"{path}: Q is {n_classes} but alpha has "
                         f"{alpha.size} classes")
    if mu.size == 0:
        mu = np.zeros((n_classes, 0))
    sigma2 = _numbers(path, payload, "sigma2", ndim=0)
    trace = _numbers(path, payload, "j_trace", ndim=1).tolist()
    if payload["icl"] is not None:
        _numbers(path, payload, "icl", ndim=0)
    try:
        params = ModelParams(alpha=alpha, pi=pi, mu=mu, sigma2=sigma2)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    return params, trace, payload["icl"]


def _numbers(path, payload, key: str, ndim: int | None = None) -> np.ndarray:
    """``payload[key]``, JSON numbers in nested lists, as a float64 array."""
    value = payload[key]
    leaves = [value]
    while leaves:
        leaf = leaves.pop()
        if isinstance(leaf, list):
            leaves.extend(leaf)
        elif isinstance(leaf, bool) or not isinstance(leaf, (int, float)):
            raise ValueError(f"{path}: {key} must hold numbers only, "
                             f"got {leaf!r}")
    try:
        array = np.array(value, dtype=np.float64)
    except (ValueError, OverflowError):
        raise ValueError(f"{path}: {key} must be floats in lists nested to "
                         "one shape") from None
    if ndim is not None and array.ndim != ndim:
        raise ValueError(f"{path}: {key} must be "
                         f"{('a number', 'a list of numbers')[ndim]}, "
                         f"got {value!r}")
    return array
