"""The BENCH summary of tools/bench_record.py, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _run(label, seed, wall_s, peak_rss_mb, passes=3):
    return {
        "label": label, "workload": "exact-check", "seed": seed, "trace": 0,
        "src_lines": {"parent": 2800, "change": 2784}[label],
        "result": {"failed": 0, "metrics": {"wall_s": {"value": wall_s},
                                            "peak_rss_mb": {"value": peak_rss_mb}}},
        "detail": {"detail": {"ops": {"verify": {"wall_s": {"n": passes}}}}},
    }


RUNS = [
    _run("parent", 1, 1.0, 100.0),
    _run("change", 1, 1.21, 106.0),
    _run("change", 2, 1.43, 106.0),
    _run("parent", 2, 1.2, 100.0),
]


def test_change_metrics_carry_median_change_and_bound_check():
    summary = bench_record._summary(RUNS)["exact-check"]
    wall = summary["change"]["wall_s"]
    # change median 1.32 against parent median 1.1: 20% worse, bound 0.25
    assert wall["median_change"] == pytest.approx(0.2)
    # pairs 1.21 / 1.0 and 1.43 / 1.2: +21% and about +19.2%
    assert wall["paired_median_change"] == pytest.approx((0.21 + 0.23 / 1.2) / 2)
    assert wall["within_bound"] is True
    assert (wall["pairs"], wall["wins"], wall["losses"]) == (2, 0, 2)
    # the parent's quartiles 0.95 and 1.25 spread 27% of its median, over the bound
    assert wall["unresolved"] is True
    rss = summary["change"]["peak_rss_mb"]
    # 6% worse against the bound 0.05
    assert rss["median_change"] == pytest.approx(0.06)
    assert rss["paired_median_change"] == pytest.approx(0.06)
    assert rss["within_bound"] is False
    # the parent's runs do not spread, so the 6% is resolved
    assert rss["unresolved"] is False
    assert "median_change" not in summary["parent"]["wall_s"]
    assert "paired_median_change" not in summary["parent"]["wall_s"]
    assert summary["change"]["failed_operations"] == 0
    assert summary["parent"]["passes"]["median"] == 3
    assert (summary["parent"]["src_lines"], summary["change"]["src_lines"]) == (2800, 2784)


def test_a_wide_spread_is_resolved_when_every_change_run_beats_every_parent_run():
    runs = [_run("parent", 1, 1.0, 100.0), _run("parent", 2, 1.2, 100.0),
            _run("change", 1, 0.9, 100.0), _run("change", 2, 0.99, 100.0)]
    wall = bench_record._summary(runs)["exact-check"]["change"]["wall_s"]
    assert wall["unresolved"] is False
    runs[3] = _run("change", 2, 1.01, 100.0)
    wall = bench_record._summary(runs)["exact-check"]["change"]["wall_s"]
    assert wall["unresolved"] is True


def test_median_change_is_negative_when_a_higher_is_better_metric_rises(monkeypatch):
    end_to_end = [{**m, "better": "higher"} if m["name"] == "wall_s" else m
                  for m in bench_record.BENCHMARK["end_to_end"]]
    monkeypatch.setitem(bench_record.BENCHMARK, "end_to_end", end_to_end)
    wall = bench_record._summary(RUNS)["exact-check"]["change"]["wall_s"]
    assert wall["median_change"] == pytest.approx(-0.2)
    assert wall["paired_median_change"] == pytest.approx(-(0.21 + 0.23 / 1.2) / 2)
    assert wall["within_bound"] is True
    assert (wall["wins"], wall["losses"]) == (2, 0)


def test_paired_median_change_follows_each_pair_not_the_medians():
    # each change run is 10% faster than its own parent run, on a host whose
    # speed drifts; a change run without a parent (seed 4) moves the median
    # change to -5.5% but is left out of the pairs
    runs = [_run("parent", 1, 1.0, 100.0), _run("change", 1, 0.9, 100.0),
            _run("parent", 2, 2.0, 100.0), _run("change", 2, 1.8, 100.0),
            _run("parent", 3, 2.2, 100.0), _run("change", 3, 1.98, 100.0),
            _run("change", 4, 5.0, 100.0)]
    wall = bench_record._summary(runs)["exact-check"]["change"]["wall_s"]
    assert wall["paired_median_change"] == pytest.approx(-0.1)
    assert wall["median_change"] == pytest.approx((1.89 - 2.0) / 2.0)
