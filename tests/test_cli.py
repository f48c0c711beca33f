import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

import cohsmix.cli as cli
from cohsmix.cli import main
from cohsmix.em import EMConfig, fit_multi_restart
from cohsmix.io import read_features, read_graph
from cohsmix.simulate import generate, grid_specs


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
    # Model i is drawn from the child of --seed at key (i,), recomputed here
    # from numpy's SeedSequence as the reference.
    for index, spec in enumerate(grid_specs("d", n=30)):
        seed = np.random.SeedSequence(1, spawn_key=(index,))
        _, features, labels = generate(
            replace(spec, seed=int(seed.generate_state(1)[0])))
        model = tmp_path / "fam" / f"d{index:02d}"
        assert np.array_equal(
            np.loadtxt(model / "labels.csv", delimiter=",", skiprows=1,
                       dtype=int)[:, 1], labels)
        assert np.array_equal(read_features(model / "features.csv").values,
                              features.values)


def test_simulate_explicit_requires_probabilities(capsys, tmp_path):
    code, out, err = run_cli(capsys, "simulate", "--n", "10",
                             "--out", str(tmp_path))
    assert code == 1
    assert err.startswith("error:")


@pytest.mark.parametrize("gap", ["nan", "inf"])
def test_simulate_rejects_a_non_finite_gap(capsys, tmp_path, gap):
    code, _, err = run_cli(capsys, "simulate", "--n", "10", "--q", "2",
                           "--lambda", "0.5", "--epsilon", "0.1", "--gap", gap,
                           "--out", str(tmp_path / "data"))
    assert code == 1
    assert err == f"error: mean_gap must be non-negative and finite, " \
        f"got {float(gap)!r}\n"
    assert not (tmp_path / "data").exists()


def test_parser_is_built_once_and_keeps_no_arguments(capsys, monkeypatch):
    # The parser is cached; a usage error on one call and the arguments of
    # another must not reach a later call, which gets the defaults.
    parsed = []
    monkeypatch.setitem(cli._COMMANDS, "simulate",
                        lambda args: parsed.append(vars(args)) or 0)
    with pytest.raises(SystemExit) as info:
        main(["simulate", "--n", "-5"])
    assert info.value.code == 2
    assert "argument --n" in capsys.readouterr().err
    assert main(["simulate", "--n", "12", "--q", "3", "--seed", "5",
                 "--gap", "2.5", "--out", "elsewhere"]) == 0
    assert main(["simulate"]) == 0
    assert parsed[0] == {**parsed[1], "n": 12, "q": 3, "seed": 5, "gap": 2.5,
                         "out": "elsewhere"}
    assert parsed[1] == {"command": "simulate", "setting": None, "n": 150,
                         "q": None, "lam": None, "epsilon": None, "gap": 0.0,
                         "p": 3, "seed": 0, "restarts": 10, "max_iters": 100,
                         "out": "results"}
    assert cli._build_parser() is cli._build_parser()


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
    # The graph reader opens its file first, and its error names the path.
    assert "absent.tsv" in err


def test_fit_reads_its_inputs_from_pipes(capsys, tmp_path):
    data = simulate_dataset(capsys, tmp_path)
    flags = ["--q", "2", "--restarts", "2", "--seed", "3"]
    code, _, err = run_cli(
        capsys, "fit", "--graph", str(data / "graph.tsv"),
        "--features", str(data / "features.csv"), *flags,
        "--out", str(tmp_path / "files"))
    assert code == 0, err
    read_ends = []
    try:
        for name in ("graph.tsv", "features.csv"):
            read_end, write_end = os.pipe()
            read_ends.append(read_end)
            os.write(write_end, (data / name).read_bytes())
            os.close(write_end)
        code, _, err = run_cli(
            capsys, "fit", "--graph", f"/dev/fd/{read_ends[0]}",
            "--features", f"/dev/fd/{read_ends[1]}", *flags,
            "--out", str(tmp_path / "pipes"))
    finally:
        for read_end in read_ends:
            os.close(read_end)
    assert code == 0, err
    for name in ("partition.csv", "tau.csv", "params.json", "summary.txt"):
        assert (tmp_path / "pipes" / name).read_bytes() \
            == (tmp_path / "files" / name).read_bytes(), name


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
        if outcomes[0].n_classes == 3:
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

    # Restart 1, known by its seed's spawn key, loses class 1 and cannot
    # be re-seeded, so it fails while the others fit.
    original = em._starts

    def starts(graph, features, plans, mode):
        resps = original(graph, features, plans, mode)
        for (_, seed, _), resp in zip(plans, resps):
            if seed.spawn_key == (1,):
                resp[:, 1] = 0.0
                resp /= resp.sum(axis=1, keepdims=True)
        return resps

    monkeypatch.setattr(em, "_starts", starts)
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


def test_grid_rejects_a_reversed_scan_range(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "grid", "--setting", "d", "--replicates", "1",
        "--scan-qmin", "3", "--scan-qmax", "2", "--out", str(tmp_path))
    assert code == 1
    assert "scan_range must satisfy 1 <= q_min <= q_max, got 3..2" in err
    assert not (tmp_path / "results.csv").exists()


def test_unknown_command_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code != 0


# The arguments each command needs besides a bounded flag, and the commands
# that take each flag that not every command takes.
_COMMAND_ARGS = {
    "fit": {"--graph": "missing.tsv", "--features": "missing.csv", "--q": "2"},
    "select-q": {"--graph": "missing.tsv", "--features": "missing.csv",
                 "--qmin": "1", "--qmax": "2"},
    "simulate": {},
    "grid": {"--setting": "a"},
}
_FLAG_COMMANDS = {
    "--q": ("fit", "simulate"), "--qmin": ("select-q",),
    "--qmax": ("select-q",), "--n": ("simulate",), "--p": ("simulate",),
    "--replicates": ("grid",), "--scan-qmin": ("grid",),
    "--scan-qmax": ("grid",),
}


@pytest.mark.parametrize("flag, value, low", [
    ("--seed", "-1", 0), ("--restarts", "0", 1), ("--max-iters", "0", 1),
    ("--restarts", "2.5", 1), ("--q", "0", 1), ("--qmin", "0", 1),
    ("--qmax", "-2", 1), ("--n", "-5", 1), ("--p", "-1", 0),
    ("--replicates", "0", 1), ("--scan-qmin", "0", 1),
    ("--scan-qmax", "x", 1)])
def test_bad_count_flag_is_a_usage_error_naming_the_flag(capsys, tmp_path,
                                                         flag, value, low):
    # argparse bounds the flag itself: a usage error (status 2) that names
    # the flag, raised before any input file is read or data simulated.
    for command in _FLAG_COMMANDS.get(flag, ("fit",)):
        args = {**_COMMAND_ARGS[command], flag: value,
                "--out": str(tmp_path)}
        with pytest.raises(SystemExit) as info:
            main([command, *(part for item in args.items() for part in item)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be an integer of at least {low}, " \
            f"got '{value}'" in err


@pytest.mark.parametrize("flag, value", [
    ("--seed", "0"), ("--restarts", "1"), ("--max-iters", "1")])
def test_count_flag_accepts_its_lower_end(capsys, tmp_path, flag, value):
    data = simulate_dataset(capsys, tmp_path)
    code, _, err = run_cli(
        capsys, "fit", "--graph", str(data / "graph.tsv"),
        "--features", str(data / "features.csv"), "--q", "2",
        "--restarts", "2", flag, value, "--out", str(tmp_path / "fit"))
    assert code == 0, err
