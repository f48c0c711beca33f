import csv
import re
from dataclasses import replace

import numpy as np
import pytest

import cohsmix.harness as harness
from cohsmix.em import EMConfig, EmptyClassError, fit_multi_restart
from cohsmix.harness import (
    RESULTS_COLUMNS,
    _replicate_seeds,
    run_grid,
    worker_count,
)
from cohsmix.selection import select_q
from cohsmix.simulate import AffiliationSpec, generate

COUNTERS = ("converged", "em_iters", "e_step_sweeps", "sweep_cap_hits",
            "failed_restarts")

FAST_CFG = EMConfig(max_em_iters=30, n_restarts=2)

SMALL_SPECS = [
    AffiliationSpec(n_classes=2, n=30, n_features=2, within_prob=0.5,
                    between_prob=0.1, mean_gap=2.0),
    AffiliationSpec(n_classes=3, n=30, n_features=2, within_prob=0.5,
                    between_prob=0.1, mean_gap=2.0),
]


def test_record_count_and_order(tmp_path):
    records = run_grid("a", replicates=3, cfg=FAST_CFG, seed=1,
                       specs=SMALL_SPECS, out_dir=tmp_path)
    assert len(records) == len(SMALL_SPECS) * 3
    keys = [(r.spec_index, r.replicate) for r in records]
    assert keys == sorted(keys)
    lines = (tmp_path / "results.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(RESULTS_COLUMNS)
    assert len(lines) == 1 + len(records)


def test_grid_is_deterministic_and_byte_identical(tmp_path):
    run_grid("a", replicates=2, cfg=FAST_CFG, seed=7, specs=SMALL_SPECS,
             out_dir=tmp_path / "one")
    run_grid("a", replicates=2, cfg=FAST_CFG, seed=7, specs=SMALL_SPECS,
             out_dir=tmp_path / "two")
    assert (tmp_path / "one" / "results.csv").read_bytes() \
        == (tmp_path / "two" / "results.csv").read_bytes()
    assert (tmp_path / "one" / "aggregate.csv").read_bytes() \
        == (tmp_path / "two" / "aggregate.csv").read_bytes()


def test_grid_seed_changes_output(tmp_path):
    a = run_grid("a", replicates=2, cfg=FAST_CFG, seed=1, specs=SMALL_SPECS)
    b = run_grid("a", replicates=2, cfg=FAST_CFG, seed=2, specs=SMALL_SPECS)
    assert any(x.final_bound != y.final_bound for x, y in zip(a, b))


def test_parallel_matches_serial(tmp_path, monkeypatch):
    serial = run_grid("a", replicates=2, cfg=FAST_CFG, seed=3,
                      specs=SMALL_SPECS, out_dir=tmp_path / "serial")
    monkeypatch.setenv("COHSMIX_THREADS", "2")
    assert worker_count() == 2
    parallel = run_grid("a", replicates=2, cfg=FAST_CFG, seed=3,
                        specs=SMALL_SPECS, out_dir=tmp_path / "parallel")
    assert (tmp_path / "serial" / "results.csv").read_bytes() \
        == (tmp_path / "parallel" / "results.csv").read_bytes()
    assert [r.ari for r in serial] == [r.ari for r in parallel]


def test_failures_recorded_not_raised(tmp_path, monkeypatch):
    import cohsmix.harness as harness

    calls = {"count": 0}
    original = harness.fit_multi_restart

    def flaky(*args, **kwargs):
        calls["count"] += 1
        if calls["count"] == 2:
            raise RuntimeError("injected failure")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "fit_multi_restart", flaky)
    records = run_grid("a", replicates=2, cfg=FAST_CFG, seed=5,
                       specs=SMALL_SPECS[:1], out_dir=tmp_path)
    statuses = [r.status for r in records]
    assert statuses.count("ok") == 1
    assert any(s.startswith("error:RuntimeError") for s in statuses)
    content = (tmp_path / "results.csv").read_text()
    assert "error:RuntimeError" in content


def test_failure_rows_round_trip_through_csv_reader(tmp_path, monkeypatch):
    import cohsmix.harness as harness

    def empty_classes(*args, **kwargs):
        raise EmptyClassError([0, 2])

    monkeypatch.setattr(harness, "fit_multi_restart", empty_classes)
    records = run_grid("a", replicates=1, cfg=FAST_CFG, seed=5,
                       specs=SMALL_SPECS[:1], out_dir=tmp_path)
    with (tmp_path / "results.csv").open(newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == list(RESULTS_COLUMNS)
    assert [len(row) for row in rows] == [len(RESULTS_COLUMNS)] * 2
    status = "error:EmptyClassError:classes [0, 2] have no mass"
    assert rows[1][-1] == records[0].status == status


def _read_results(path):
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _counters(result):
    return [str(result.converged), str(len(result.bound_trace) - 1),
            str(result.e_step_sweeps), str(result.sweep_cap_hits),
            str(len(result.failed_restarts))]


@pytest.mark.parametrize("scan_range", [None, (2, 3)])
def test_results_carry_the_fit_counters(tmp_path, scan_range):
    run_grid("a", replicates=2, cfg=FAST_CFG, seed=4, specs=SMALL_SPECS[:1],
             out_dir=tmp_path, scan_range=scan_range)
    rows = _read_results(tmp_path / "results.csv")
    assert list(rows[0])[-len(COUNTERS) - 1:] == [*COUNTERS, "status"]
    for replicate, row in enumerate(rows):
        sim_seed, fit_seed = _replicate_seeds(4, 0, replicate)
        graph, features, _ = generate(replace(SMALL_SPECS[0], seed=sim_seed))
        cfg = replace(FAST_CFG, rng_seed=fit_seed)
        result = fit_multi_restart(graph, features, 2, cfg) \
            if scan_range is None else select_q(graph, features, *scan_range,
                                                cfg).best
        assert row["status"] == "ok"
        assert [row[column] for column in COUNTERS] == _counters(result)


def test_failed_rows_leave_the_counters_empty(tmp_path, monkeypatch):
    import cohsmix.harness as harness

    def failing(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(harness, "fit_multi_restart", failing)
    run_grid("a", replicates=1, cfg=FAST_CFG, seed=5, specs=SMALL_SPECS[:1],
             out_dir=tmp_path)
    row, = _read_results(tmp_path / "results.csv")
    assert row["status"] == "error:RuntimeError:injected failure"
    assert [row[column] for column in COUNTERS] == [""] * len(COUNTERS)


def test_aggregate_contains_varied_parameter(tmp_path):
    run_grid("a", replicates=2, cfg=FAST_CFG, seed=1, specs=SMALL_SPECS,
             out_dir=tmp_path)
    lines = (tmp_path / "aggregate.csv").read_text().strip().splitlines()
    assert lines[0].startswith("setting,spec_index,varied_param")
    assert len(lines) == 1 + len(SMALL_SPECS)
    first = lines[1].split(",")
    assert first[2] == "n_classes" and float(first[3]) == 2.0
    assert 0 <= float(first[6]) <= 1.0  # median agreement present


def test_timings_file_written(tmp_path):
    run_grid("a", replicates=1, cfg=FAST_CFG, seed=1, specs=SMALL_SPECS[:1],
             out_dir=tmp_path)
    lines = (tmp_path / "timings.csv").read_text().strip().splitlines()
    assert lines[0] == "setting,spec_index,replicate,wall_time_s"
    assert len(lines) == 2


def test_scan_mode_records_selected_q():
    records = run_grid("a", replicates=1, cfg=FAST_CFG, seed=2,
                       specs=SMALL_SPECS[:1], scan_range=(2, 3))
    assert records[0].status == "ok"
    assert records[0].fitted_q in (2, 3)


def test_worker_count_parsing(monkeypatch):
    monkeypatch.delenv("COHSMIX_THREADS", raising=False)
    assert worker_count() == 1
    monkeypatch.setenv("COHSMIX_THREADS", "4")
    assert worker_count() == 4
    monkeypatch.setenv("COHSMIX_THREADS", "junk")
    assert worker_count() == 1


def test_replicates_validation():
    with pytest.raises(ValueError):
        run_grid("a", replicates=0, specs=SMALL_SPECS)


@pytest.mark.parametrize("scan_range", [(3, 2), (0, 2)])
def test_bad_scan_range_fails_before_any_replicate(monkeypatch, tmp_path,
                                                    scan_range):
    def simulated(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(harness, "generate", simulated)
    with pytest.raises(ValueError, match=re.escape(
            "scan_range must satisfy 1 <= q_min <= q_max, got "
            f"{scan_range[0]}..{scan_range[1]}")):
        run_grid("a", replicates=1, cfg=FAST_CFG, specs=SMALL_SPECS[:1],
                 out_dir=tmp_path, scan_range=scan_range)
    assert not list(tmp_path.iterdir())
