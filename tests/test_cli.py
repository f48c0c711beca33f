import csv
import json

import numpy as np
import pytest

from cohsmix.cli import main
from cohsmix.em import EMConfig, fit_multi_restart
from cohsmix.io import read_features, read_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def simulate_dataset(capsys, tmp_path, **overrides):
    args = {"--n": "40", "--q": "2", "--lambda": "0.6", "--epsilon": "0.1",
            "--gap": "2.0", "--p": "2", "--seed": "4"}
    args.update(overrides)
    argv = ["simulate", "--out", str(tmp_path / "data")]
    for key, value in args.items():
        argv += [key, value]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return tmp_path / "data"


def test_simulate_explicit_writes_dataset(capsys, tmp_path):
    data = simulate_dataset(capsys, tmp_path)
    assert (data / "graph.tsv").is_file()
    assert (data / "features.csv").is_file()
    labels = (data / "labels.csv").read_text().strip().splitlines()
    assert labels[0] == "vertex,label"
    assert len(labels) == 41


def test_simulate_setting_writes_every_model(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "simulate", "--setting", "d", "--n", "30",
        "--out", str(tmp_path / "fam"), "--seed", "1",
    )
    assert code == 0, err
    dirs = sorted(p.name for p in (tmp_path / "fam").iterdir())
    assert dirs == [f"d{i:02d}" for i in range(7)]


def test_simulate_explicit_requires_probabilities(capsys, tmp_path):
    code, out, err = run_cli(capsys, "simulate", "--n", "10",
                             "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error:")


def test_fit_end_to_end(capsys, tmp_path):
    data = simulate_dataset(capsys, tmp_path)
    out_dir = tmp_path / "fit"
    code, out, err = run_cli(
        capsys, "fit", "--graph", str(data / "graph.tsv"),
        "--features", str(data / "features.csv"), "--q", "2",
        "--restarts", "2", "--seed", "0", "--out", str(out_dir),
    )
    assert code == 0, err
    assert (out_dir / "partition.csv").is_file()
    payload = json.loads((out_dir / "params.json").read_text())
    assert payload["Q"] == 2
    assert payload["icl"] is not None
    assert "fitted q=2" in out


def test_fit_rejects_overflowing_features(capsys, tmp_path):
    data = simulate_dataset(capsys, tmp_path)
    rows = (data / "features.csv").read_text().splitlines()
    rows[5] = "1e200,0.0"
    (data / "features.csv").write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        capsys, "fit", "--graph", str(data / "graph.tsv"),
        "--features", str(data / "features.csv"), "--q", "2",
        "--out", str(tmp_path / "fit"),
    )
    assert code == 1
    assert err.startswith("error: feature row 5 is too large")


def test_fit_modes(capsys, tmp_path):
    data = simulate_dataset(capsys, tmp_path)
    for mode in ("graph-only", "features-only"):
        out_dir = tmp_path / mode
        code, _, err = run_cli(
            capsys, "fit", "--graph", str(data / "graph.tsv"),
            "--features", str(data / "features.csv"), "--q", "2",
            "--mode", mode, "--restarts", "1", "--out", str(out_dir),
        )
        assert code == 0, err
        assert (out_dir / "summary.txt").is_file()


def test_fit_graph_only_honours_restarts(capsys, tmp_path):
    data = simulate_dataset(capsys, tmp_path)
    out_dir = tmp_path / "graph-only"
    code, _, err = run_cli(
        capsys, "fit", "--graph", str(data / "graph.tsv"),
        "--features", str(data / "features.csv"), "--q", "2",
        "--mode", "graph-only", "--restarts", "3", "--seed", "6",
        "--out", str(out_dir),
    )
    assert code == 0, err
    expected = fit_multi_restart(
        read_graph(data / "graph.tsv"), read_features(data / "features.csv"),
        2, EMConfig(n_restarts=3, rng_seed=6), mode="graph-only")
    payload = json.loads((out_dir / "params.json").read_text())
    assert payload["j_trace"] == expected.bound_trace
    assert payload["icl"] is not None


def test_fit_missing_input_is_reported(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "fit", "--graph", str(tmp_path / "absent.tsv"),
        "--features", str(tmp_path / "absent.csv"), "--q", "2",
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert err.startswith("error:")
    assert "not found" in err


def test_fit_row_mismatch_is_reported(capsys, tmp_path):
    data = simulate_dataset(capsys, tmp_path)
    (tmp_path / "short.csv").write_text("1,2\n3,4\n")
    code, out, err = run_cli(
        capsys, "fit", "--graph", str(data / "graph.tsv"),
        "--features", str(tmp_path / "short.csv"), "--q", "2",
        "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "mismatch" in err


def test_select_q_end_to_end(capsys, tmp_path):
    data = simulate_dataset(capsys, tmp_path)
    out_dir = tmp_path / "scan"
    code, out, err = run_cli(
        capsys, "select-q", "--graph", str(data / "graph.tsv"),
        "--features", str(data / "features.csv"), "--qmin", "1",
        "--qmax", "3", "--restarts", "2", "--seed", "0",
        "--out", str(out_dir),
    )
    assert code == 0, err
    scan_lines = (out_dir / "scan.csv").read_text().strip().splitlines()
    assert scan_lines[0] == "q,icl,final_bound,status"
    assert len(scan_lines) == 4
    assert "selected q=" in out


def test_select_q_failed_candidate_round_trips(capsys, tmp_path,
                                               monkeypatch):
    import cohsmix.em as em

    data = simulate_dataset(capsys, tmp_path)
    original = em._best_restart
    status = "all 2 restarts failed: ['classes [0, 2] have no mass']"

    def fail_at_three(outcomes):
        # The scan picks each candidate's best restart here.
        if outcomes[0].params.n_classes == 3:
            raise RuntimeError(status)
        return original(outcomes)

    monkeypatch.setattr(em, "_best_restart", fail_at_three)
    out_dir = tmp_path / "scan"
    code, _, err = run_cli(
        capsys, "select-q", "--graph", str(data / "graph.tsv"),
        "--features", str(data / "features.csv"), "--qmin", "2",
        "--qmax", "3", "--restarts", "2", "--out", str(out_dir),
    )
    assert code == 0, err
    with (out_dir / "scan.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert [len(row) for row in rows] == [4, 4, 4]
    assert rows[1][3] == "ok"
    assert rows[2] == ["3", "", "", status]


@pytest.mark.parametrize("command", ["fit", "select-q"])
def test_summary_reports_the_fit_counters(capsys, tmp_path, monkeypatch,
                                          command):
    import cohsmix.em as em
    from cohsmix.selection import select_q

    # Restart 1, the degree-quantile start, loses class 1 and cannot be
    # re-seeded, so it fails while the others fit.
    original = em.init_responsibilities

    def init(graph, features, n_classes, strategy, rng):
        resp = original(graph, features, n_classes, strategy, rng)
        if strategy == "graph-degree-quantile":
            resp[:, 1] = 0.0
            resp /= resp.sum(axis=1, keepdims=True)
        return resp

    monkeypatch.setattr(em, "init_responsibilities", init)
    monkeypatch.setattr(em, "_reseed_empty_classes",
                        lambda resp, empty_classes: resp)
    data = simulate_dataset(capsys, tmp_path)
    graph = read_graph(data / "graph.tsv")
    features = read_features(data / "features.csv")
    cfg = EMConfig(rng_seed=0, n_restarts=3)
    out_dir = tmp_path / "out"
    args = ["--graph", str(data / "graph.tsv"),
            "--features", str(data / "features.csv"), "--restarts", "3",
            "--seed", "0", "--out", str(out_dir)]
    if command == "fit":
        args += ["--q", "2"]
        expected = fit_multi_restart(graph, features, 2, cfg)
    else:
        args += ["--qmin", "2", "--qmax", "3"]
        expected = select_q(graph, features, 2, 3, cfg).best
    code, _, err = run_cli(capsys, command, *args)
    assert code == 0, err
    summary = dict(line.split(": ", 1) for line in
                   (out_dir / "summary.txt").read_text().splitlines())
    assert expected.e_step_sweeps > 0
    assert summary["e-step sweeps"] == str(expected.e_step_sweeps)
    assert summary["sweep-cap hits"] == str(expected.sweep_cap_hits)
    assert summary["failed restarts"] == str(len(expected.failed_restarts))
    assert summary["failed restarts"] == "1"
    # params.json keeps its fields.
    assert list(json.loads((out_dir / "params.json").read_text())) \
        == ["alpha", "pi", "mu", "sigma2", "Q", "j_trace", "icl"]


def test_grid_small_run(capsys, tmp_path):
    out_dir = tmp_path / "grid"
    code, out, err = run_cli(
        capsys, "grid", "--setting", "d", "--replicates", "1",
        "--restarts", "1", "--max-iters", "15", "--seed", "3",
        "--out", str(out_dir),
    )
    assert code == 0, err
    lines = (out_dir / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 7  # 7 models in family d, one replicate each
    assert (out_dir / "aggregate.csv").is_file()


def test_grid_scan_flags_must_pair(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "grid", "--setting", "d", "--replicates", "1",
        "--scan-qmin", "2", "--out", str(tmp_path),
    )
    assert code == 1
    assert "together" in err


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code != 0
