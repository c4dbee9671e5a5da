"""Smoke tests of the benchmark on tiny inputs.

    python3 -m pytest -q perfbench

Each test runs ``perfbench/run.py`` from the repository root as a user
would, with ``--n`` set small so that a run takes about a second.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMALL_N = 600


def run_bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
         "--trace", str(trace), "--n", str(SMALL_N)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("detail ")
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail "):])


@pytest.fixture(scope="module")
def results():
    """``{(workload, trace): (result, detail)}`` for every workload, seed 7."""
    return {
        (w, trace): parse(run_bench(w, 7, trace))
        for w in WORKLOADS for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(results, workload, trace, section):
    result, _ = results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared
    for m in result["metrics"].values():
        assert set(m) == {"value", "unit"}
        assert isinstance(m["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_failures(results, workload):
    for trace in (0, 1):
        result, detail = results[workload, trace]
        assert result["correct"] and detail["errors"] == []
        assert result["failed"] == 0 and result["attempted"] >= 1
    assert results[workload, 0][0]["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_reproducible(results, workload):
    # Traced and untraced runs of one seed report identical counts and
    # merge traces; a second traced run also repeats the key calls.
    _, untraced = results[workload, 0]
    _, traced = results[workload, 1]
    assert untraced["counts"] == traced["counts"]
    assert untraced["counts_digest"] == traced["counts_digest"]
    _, again = parse(run_bench(workload, 7, 1))
    assert again["counts_digest"] == traced["counts_digest"]
    assert again["key_calls"] == traced["key_calls"]


def test_seed_changes_random_inputs(results):
    _, other = parse(run_bench("runs-sqrt-int", 8, 0))
    assert other["counts_digest"] != results["runs-sqrt-int", 0][1]["counts_digest"]


def test_spans_written_by_traced_run(results):
    path = os.path.join(HERE, "traces", "perm-record-seed7.json")
    with open(path) as fh:
        doc = json.load(fh)
    spans = doc["variants"]["4way"]
    assert spans[0][0] == "policy.stable_sort_with" and spans[0][1] == -1
    assert all(0 <= parent < i for i, (_, parent, _, _) in enumerate(spans)
               if i)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("traces", "__pycache__"))
    proc = run_bench("runs-sqrt-int", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
