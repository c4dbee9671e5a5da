"""The aggregation of ``tools/bench_ab.py``, on canned result lines."""

import importlib.util
import json
import os
import subprocess

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


def test_a_run_that_prints_no_result_fails_its_checks(capsys):
    # An exception in the package (here a SyntaxError) exits 1 with an
    # empty standard output: the run counts as failing its checks, its
    # metrics as missing, and the A/B goes on.
    crashed = subprocess.CompletedProcess(
        ["run.py"], 1, stdout="", stderr="SyntaxError: invalid syntax")
    assert bench_ab.read_run(crashed, "change w seed 1") == {"correct": False}
    assert "SyntaxError: invalid syntax" in capsys.readouterr().err
    ok = bench_ab.read_run(
        subprocess.CompletedProcess(["run.py"], 0, stdout(1.0), ""), "p")
    rows = {r["metric"]: r for r in bench_ab.summarize(
        END_TO_END, {"w": [(ok, ok), (ok, {"correct": False})]})}
    failing = rows["runs failing checks"]
    assert (failing["parent"], failing["change"], failing["flag"]) == (
        0, 1, "WORSE")
    for name in ("x_ref.4way", "ok_frac"):
        assert (rows[name]["parent"], rows[name]["change"],
                rows[name]["flag"]) == (2, 1, "MISSING")
    # Any other exit code is not a benchmark result at all.
    with pytest.raises(RuntimeError):
        bench_ab.read_run(
            subprocess.CompletedProcess(["run.py"], 2, "", "no src"), "p")


def test_write_json_holds_the_rows_and_the_settings(tmp_path):
    samples = {"w": [(bench_ab.parse_result(stdout(1.0)),
                      bench_ab.parse_result(stdout(0.9)))]}
    rows = bench_ab.summarize(END_TO_END, samples)
    meta = {"base": "a" * 40, "head": "b" * 40, "seeds": [1],
            "run_seconds": 35, "python": "3.11.7"}
    path = tmp_path / "BENCH.json"
    bench_ab.write_json(str(path), rows, meta)
    written = json.loads(path.read_text())
    assert written == dict(meta, rows=rows)
    assert [r["metric"] for r in written["rows"]] == [
        "runs failing checks", "x_ref.4way", "ok_frac"]
    assert written["rows"][1]["change"] == 0.9
