"""The aggregation of ``tools/bench_ab.py``, on canned result lines."""

import importlib.util
import json
import os

import pytest

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "bench_ab.py")
_spec = importlib.util.spec_from_file_location("bench_ab", PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

END_TO_END = [
    {"name": "x_ref.4way", "unit": "x", "better": "lower", "bound": 0.25},
    {"name": "ok_frac", "unit": "frac", "better": "higher", "bound": 0.01},
]


def stdout(x_ref, ok_frac=1.0, correct=True):
    """What ``perfbench/run.py --trace 0`` prints: a detail line, then the
    result line."""
    return "detail {\"n\": 4096}\n" + json.dumps({
        "correct": correct, "attempted": 5, "failed": 0, "metrics": {
            "x_ref.4way": {"value": x_ref, "unit": "x"},
            "ok_frac": {"value": ok_frac, "unit": "frac"}}}) + "\n"


def rows_by_metric(pairs):
    samples = {"w": [(bench_ab.parse_result(stdout(*p)),
                      bench_ab.parse_result(stdout(*c))) for p, c in pairs]}
    return {r["metric"]: r for r in bench_ab.summarize(END_TO_END, samples)}


def test_parse_result_reads_the_last_line():
    assert bench_ab.parse_result(stdout(2.5, correct=False)) == {
        "x_ref.4way": 2.5, "ok_frac": 1.0, "correct": False}
    with pytest.raises(ValueError):
        bench_ab.parse_result("")


def test_medians_wins_and_parent_iqr():
    # Parent x_ref 1, 2, 3, 4, 5; the change wins the pairs where it is
    # lower, and ties win for neither.
    pairs = [((p,), (c,)) for p, c in
             [(1, 0.5), (2, 2), (3, 2.5), (4, 4.5), (5, 4)]]
    row = rows_by_metric(pairs)["x_ref.4way"]
    assert (row["parent"], row["change"]) == (3, 2.5)
    assert (row["wins"], row["pairs"]) == (3, 5)
    assert row["parent_iqr"] == 2  # quartiles 2 and 4
    assert row["flag"] == ""
    ok = rows_by_metric(pairs)["ok_frac"]
    assert (ok["wins"], ok["flag"]) == (0, "")


def test_worse_by_more_than_the_bound_is_flagged():
    # x_ref is better lower, bound 25%: 1.26x the parent's median is worse.
    assert rows_by_metric([((1.0,), (1.26,))])["x_ref.4way"]["flag"] == "WORSE"
    assert rows_by_metric([((1.0,), (1.24,))])["x_ref.4way"]["flag"] == ""
    # ok_frac is better higher, bound 1%: a drop to 0.98 is worse, a rise
    # never is.
    row = rows_by_metric([((1, 1.0), (1, 0.98))])["ok_frac"]
    assert row["flag"] == "WORSE"
    row = rows_by_metric([((1, 0.5), (1, 1.0))])["ok_frac"]
    assert (row["wins"], row["flag"]) == (1, "")


def test_runs_failing_checks_are_counted_per_side():
    pairs = [((1.0, 1.0, True), (1.0, 1.0, False)),
             ((1.0, 1.0, False), (1.0, 1.0, False)),
             ((1.0, 1.0, True), (1.0, 1.0, True))]
    row = rows_by_metric(pairs)["runs failing checks"]
    assert (row["parent"], row["change"], row["flag"]) == (1, 2, "WORSE")
    row = rows_by_metric(pairs[1:])["runs failing checks"]
    assert (row["parent"], row["change"], row["flag"]) == (1, 1, "")


def test_a_metric_missing_from_one_run_is_flagged():
    # The change's second run lacks x_ref.4way: the row counts the runs
    # that have it instead of comparing medians.
    full = {"x_ref.4way": 1.0, "ok_frac": 1.0, "correct": True}
    short = {"ok_frac": 1.0, "correct": True}
    rows = {r["metric"]: r for r in bench_ab.summarize(
        END_TO_END, {"w": [(full, full), (full, short)]})}
    row = rows["x_ref.4way"]
    assert (row["parent"], row["change"], row["flag"]) == (2, 1, "MISSING")
    assert rows["ok_frac"]["flag"] == ""


def test_render_prints_one_row_per_workload_and_metric():
    samples = {w: [({"x_ref.4way": 1.0, "correct": True},
                    {"x_ref.4way": 2.0, "correct": True})]
               for w in ("a", "b")}
    table = bench_ab.render(bench_ab.summarize(END_TO_END, samples))
    lines = table.splitlines()
    # A header, a rule, and per workload the failing-runs row, x_ref.4way,
    # and ok_frac, which the runs lack.
    assert len(lines) == 2 + 2 * 3
    assert lines[2] == "| a | runs failing checks | 0 | 0 | - | - |  |"
    assert lines[3] == "| a | x_ref.4way | 1 | 2 | 0/1 | 0 | WORSE |"
    assert lines[4] == "| a | ok_frac | 0 | 0 | - | - | MISSING |"
