"""A/B run of the benchmark: a parent revision against the working tree.

    python3 tools/bench_ab.py --base HEAD [--json BENCH.json]

Extracts ``git archive <base> src`` and a copy of the working tree's
``src`` into two temporary trees, each with a copy of the working tree's
``perfbench/``, so both sides run the same benchmark code.  For every
workload and seed 1..10 it runs ``perfbench/run.py --trace 0`` for
``BENCHMARK.json``'s ``run_seconds`` on both trees, alternating which side
runs first, then prints one row per workload and end-to-end metric of
``BENCHMARK.json``: the parent's and the change's median, the pairs the
change won (by the metric's ``better``; ties win for neither), the
parent's interquartile range, the median and interquartile range of the
per-pair relative differences, (change - parent) / |parent|, and ``WORSE``
where the change's median is worse than the parent's by more than the
metric's relative ``bound``.  The parent's IQR spans ten seeds, so it
holds the spread between inputs; the paired columns hold the change's
effect on each input.  Beside them, "null paired IQR" is the paired IQR
of the same workload and metric in the committed ``BENCH_null.json``, a
run of one revision against itself: the spread of a change that changes
nothing, ``-`` where the file or the row is absent.  A metric absent
from some run gets a ``MISSING`` row instead, and each workload a row
counting the runs whose checks failed (``correct`` false) on each side.
A run that exits 1 without printing a result (an exception in the
benchmark or the package) counts as failing its checks, with its
standard error printed, so its metrics show as ``MISSING``.  ``--json``
also writes the rows to a file, with the revisions measured, the seeds,
``run_seconds`` and the Python version.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
PAIRS = 10
NULL = os.path.join(ROOT, "BENCH_null.json")


def parse_result(stdout):
    """One ``perfbench/run.py`` run, from its last line of standard output:
    its metrics, ``{name: value}``, and ``"correct"``, whether its checks
    passed."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed no result")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["correct"] = result["correct"]
    return values


def quartiles(values):
    """(q1, q3) of the values, the inclusive method; one value is both."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(end_to_end, samples):
    """Rows per workload: one counting the runs whose checks failed, then
    one per end-to-end metric.

    ``end_to_end`` is ``BENCHMARK.json``'s list of metric specs (``name``,
    ``better``, ``bound``); ``samples[workload]`` a non-empty list of
    ``(parent, change)`` results of ``parse_result``, one per pair.  A
    row's ``flag`` is ``"WORSE"``, ``"MISSING"`` (the metric is absent from
    some run; ``parent`` and ``change`` then count the runs that have it)
    or empty.  ``paired_median`` and ``paired_iqr`` are the median and the
    interquartile range of the pairs' (change - parent) / |parent|, None
    where some pair's parent is 0.
    """
    rows = []
    for workload, pairs in samples.items():
        sides = list(zip(*pairs))
        failed = [sum(not run["correct"] for run in side) for side in sides]
        rows.append({
            "workload": workload, "metric": "runs failing checks",
            "parent": failed[0], "change": failed[1], "wins": None,
            "pairs": len(pairs), "parent_iqr": None, "paired_median": None,
            "paired_iqr": None,
            "flag": "WORSE" if failed[1] > failed[0] else ""})
        for spec in end_to_end:
            name = spec["name"]
            row = {"workload": workload, "metric": name, "pairs": len(pairs)}
            rows.append(row)
            have = [sum(name in run for run in side) for side in sides]
            if min(have) < len(pairs):
                row.update(parent=have[0], change=have[1], wins=None,
                           parent_iqr=None, paired_median=None,
                           paired_iqr=None, flag="MISSING")
                continue
            parent, change = ([run[name] for run in side] for side in sides)
            sign = 1 if spec["better"] == "lower" else -1
            base, head = statistics.median(parent), statistics.median(change)
            q1, q3 = quartiles(parent)
            worse = sign * (head - base) > spec["bound"] * abs(base)
            paired_median = paired_iqr = None
            if 0 not in parent:
                moves = [(c - p) / abs(p) for p, c in zip(parent, change)]
                m1, m3 = quartiles(moves)
                paired_median, paired_iqr = statistics.median(moves), m3 - m1
            row.update(
                parent=base, change=head,
                wins=sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
                parent_iqr=q3 - q1, paired_median=paired_median,
                paired_iqr=paired_iqr, flag="WORSE" if worse else "")
    return rows


def null_iqrs(path=NULL):
    """``{(workload, metric): paired_iqr}`` of the rows of a null control,
    a ``--json`` file of a revision measured against itself; empty if there
    is no file at path."""
    try:
        with open(path) as fh:
            rows = json.load(fh)["rows"]
    except FileNotFoundError:
        return {}
    return {(r["workload"], r["metric"]): r["paired_iqr"] for r in rows}


def render(rows, null=None):
    """The rows as a Markdown table, the paired columns in percent; ``-``
    where a row has no value.  ``null`` is a ``null_iqrs`` mapping."""
    null = null or {}
    out = ["| workload | metric | parent median | change median "
           "| change wins | parent IQR | paired median | paired IQR "
           "| null paired IQR | flag |",
           "|---|---|---|---|---|---|---|---|---|---|"]

    def percent(value, form="%.2f%%"):
        return "-" if value is None else form % (100 * value)

    for r in rows:
        wins = "-" if r["wins"] is None else "%d/%d" % (r["wins"], r["pairs"])
        iqr = "-" if r["parent_iqr"] is None else "%.3g" % r["parent_iqr"]
        out.append("| %s | %s | %.6g | %.6g | %s | %s | %s | %s | %s | %s |"
                   % (r["workload"], r["metric"], r["parent"], r["change"],
                      wins, iqr, percent(r["paired_median"], "%+.2f%%"),
                      percent(r["paired_iqr"]),
                      percent(null.get((r["workload"], r["metric"]))),
                      r["flag"]))
    return "\n".join(out)


def make_trees(base, workdir):
    """Build ``parent`` and ``change`` trees under workdir: ``src`` of the
    base revision and of the working tree, each with the working tree's
    ``perfbench/``.  Returns ``{side: path}``."""
    archive = subprocess.run(["git", "archive", base, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    skip = shutil.ignore_patterns("__pycache__", "traces")
    trees = {}
    for side in SIDES:
        tree = trees[side] = os.path.join(workdir, side)
        os.makedirs(tree)
        if side == "parent":
            # The "data" filter where this Python has it (3.11.4 on).
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
                tar.extractall(tree, **safe)
        else:
            shutil.copytree(os.path.join(ROOT, "src"),
                            os.path.join(tree, "src"), ignore=skip)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(tree, "perfbench"), ignore=skip)
    return trees


def read_run(proc, label):
    """``parse_result`` of a finished run, ``proc`` a CompletedProcess.  A
    run whose checks failed (exit code 1) still counts, through ``correct``
    and ``ok_frac``; one that printed no result counts as only failing its
    checks, ``{"correct": False}``.  Its standard error is printed."""
    if proc.returncode not in (0, 1):
        raise RuntimeError("%s exited %d: %s" % (
            label, proc.returncode, proc.stderr.strip()))
    if proc.stderr:
        print(proc.stderr.strip(), file=sys.stderr)
    try:
        return parse_result(proc.stdout)
    except ValueError as exc:
        print("%s: %s; counted as failing its checks" % (label, exc),
              file=sys.stderr)
        return {"correct": False}


def run_one(tree, workload, seed, seconds):
    """``read_run`` of one ``--trace 0`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    return read_run(proc, "%s %s seed %d" % (tree, workload, seed))


def revisions(base):
    """The commits and ``src`` trees measured: the base revision's, and
    HEAD's with the working tree's ``src``, whose tree id is taken through
    a scratch index, so the real index is left alone."""
    def git(*args, **env):
        return subprocess.run(
            ("git",) + args, cwd=ROOT, check=True, capture_output=True,
            text=True, env=dict(os.environ, **env)).stdout.strip()

    with tempfile.TemporaryDirectory(prefix="bench_ab-index-") as tmp:
        index = os.path.join(tmp, "index")
        git("add", "-A", "--", "src", GIT_INDEX_FILE=index)
        head_src = git("write-tree", "--prefix=src/", GIT_INDEX_FILE=index)
    return {"base": git("rev-parse", base + "^{commit}"),
            "base_src": git("rev-parse", base + ":src"),
            "head": git("rev-parse", "HEAD"), "head_src": head_src}


def write_json(path, rows, meta):
    """Write ``meta`` (the revisions, seeds, ``run_seconds`` and the like)
    and the rows of ``summarize`` to path as one JSON object."""
    with open(path, "w") as fh:
        json.dump(dict(meta, rows=rows), fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        prog="tools/bench_ab.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="the parent revision, as git names it")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: every workload")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the rows and the run's settings "
                        "to PATH")
    args = parser.parse_args(argv)
    samples = {w: [] for w in args.workload or workloads}
    seeds = list(range(1, PAIRS + 1))
    meta = revisions(args.base) if args.json else None
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as workdir:
        trees = make_trees(args.base, workdir)
        for workload, pairs in samples.items():
            for seed in seeds:
                order = SIDES if seed % 2 else SIDES[::-1]
                got = {side: run_one(trees[side], workload, seed,
                                     benchmark["run_seconds"])
                       for side in order}
                pairs.append((got["parent"], got["change"]))
                print("%s seed %d done (%s first)" % (
                    workload, seed, order[0]), file=sys.stderr)
    rows = summarize(benchmark["end_to_end"], samples)
    print(render(rows, null_iqrs()))
    if args.json:
        meta.update(seeds=seeds, run_seconds=benchmark["run_seconds"],
                    python=platform.python_version(),
                    machine=platform.machine(), cpus=os.cpu_count())
        write_json(args.json, rows, meta)
    return 0


if __name__ == "__main__":
    sys.exit(main())
