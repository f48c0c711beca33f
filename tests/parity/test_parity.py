"""The parity referee: every rounded entry of golden.json, recomputed."""

import json

import referee


def test_rounded_outcomes_match_the_golden_file():
    golden = json.loads(referee.GOLDEN.read_text(encoding="utf-8"))
    assert referee.without_digests(referee.compute()) \
        == referee.without_digests(golden)


def test_check_prints_each_moved_field_with_both_values(tmp_path, monkeypatch,
                                                        capsys):
    golden = json.loads(referee.GOLDEN.read_text(encoding="utf-8"))
    entry = golden["fit_multi_restart readme joint"]
    entry["trace_length"] += 1
    entry["digest"] = "0" * 16
    moved = tmp_path / "golden.json"
    moved.write_text(json.dumps(golden), encoding="utf-8")
    monkeypatch.setattr(referee, "GOLDEN", moved)
    assert referee.main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    now = entry["trace_length"] - 1
    assert lines[:3] == [
        "rounded fields moved: fit_multi_restart readme joint",
        f"  trace_length: golden {now + 1}, now {now}",
        "exact digest moved: fit_multi_restart readme joint",
    ]
