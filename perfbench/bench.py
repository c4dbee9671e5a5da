"""Measurement core: workloads, set-up, checks, timed rounds, metrics.

One process, one thread.  A run of one workload and seed has five phases:

1. Set-up, ``SETUP_REPS`` times: import the package afresh, generate the
   input with ``powersort.harness.generate`` and decorate it.
2. Self-check, which is also the warm-up: one untimed sort per variant with
   a merge trace.  It checks the output and the paper's cost invariants and
   fixes the reference counts every later sort must repeat.
3. Timed rounds, untraced, while another round fits in ``seconds``.  Each
   sort of a variant sits between two sorts of the same input by the
   yardstick (see yardstick.py); ``4way`` is also timed right after
   ``list.sort``.  The variant order rotates from round to round.
4. Untraced runs only: one ``4way`` sort under ``tracemalloc``.
5. Traced runs only: one traced sort per variant, each between two
   yardstick sorts, then the ``CountingOrder.le`` and schedule
   micro-timings.

Garbage is collected before every timed call and collection is off during
it.  Every output is compared with ``sorted(input, key=key)`` after the
clock stops.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import statistics
import sys
import tracemalloc
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from time import perf_counter, perf_counter_ns

import tracer as tracing
from yardstick import natural_merge_sort

VARIANTS = ("4way", "2way", "4way-nosentinel", "2way-nosentinel",
            "2way-copy-smaller")
#: Variants that buffer every merged element; criterion 9 applies to them.
COPY_ALL = ("2way", "2way-nosentinel", "4way", "4way-nosentinel")
SETUP_REPS = 15
#: ``list.sort`` is repeated on fresh copies until this much time has been
#: timed, so that a fast reference is not a handful of timer ticks.
REF_WINDOW_S = 0.02
MICRO_REPS = 5
TAIL_BEYOND = 10
LE_PAIRS = 50_000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    n: int
    record: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "runs-sqrt-int", "random-runs", 2**16, False,
            "about 256 long runs: merge kernels do most of the work, the "
            "paper's headline input where 4-way halves the merge cost",
        ),
        Workload(
            "perm-record", "random-permutation", 25_000, True,
            "runs of about 2 with a key on every comparison: run extension, "
            "node_power and the run stack do their most work",
        ),
        Workload(
            "sorted-int", "sorted", 250_000, False,
            "one run and no merges: only the detection scan and per-sort "
            "set-up are left",
        ),
    )
}


class BenchError(Exception):
    """A failure that leaves nothing to measure."""


class Package:
    """The modules of one fresh import of ``powersort``."""

    def __init__(self):
        self.policy = importlib.import_module("powersort.policy")
        self.merges = importlib.import_module("powersort.merges")
        self.statskit = importlib.import_module("powersort.statskit")
        self.harness = importlib.import_module("powersort.harness")


def _purge_package():
    for name in [m for m in sys.modules
                 if m == "powersort" or m.startswith("powersort.")]:
        del sys.modules[name]


def set_up(workload, seed):
    """Import, generate and decorate ``SETUP_REPS`` times.

    Returns the last import, its input, and the per-rep set-up and
    generate times in seconds.  numpy, a dependency, is imported before
    the clock starts so that only the package's own import is timed.
    """
    importlib.import_module("numpy")
    setup_s, generate_s = [], []
    for _ in range(SETUP_REPS):
        _purge_package()
        t0 = perf_counter()
        pkg = Package()
        t1 = perf_counter()
        spec = pkg.harness.GeneratorSpec(workload.kind, workload.n, seed=seed)
        base = pkg.harness.generate(spec)
        t2 = perf_counter()
        if workload.record:
            base = [(value, i) for i, value in enumerate(base)]
        t3 = perf_counter()
        setup_s.append(t3 - t0)
        generate_s.append(t2 - t1)
    return pkg, base, setup_s, generate_s


class CountingKey:
    """Wraps the caller's key and counts its calls."""

    __slots__ = ("key", "calls")

    def __init__(self, key):
        self.key = key
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.key(x)


def counts_of(stats, n, min_run_len):
    """Every count the determinism guard compares, from one SortStats."""
    natural = stats.natural_run_lengths
    return {
        "comparisons": stats.comparisons,
        "merge_cost": stats.merge_cost,
        "buffer_cost": stats.buffer_cost,
        "moves": stats.moves,
        "scan_reads": stats.scan_reads,
        "scan_writes": stats.scan_writes,
        "max_stack": stats.max_stack_height,
        "detect_calls": stats.runs_detected,
        "extend_calls": sum(1 for length in natural if length < min_run_len),
        "extended_elems": n - sum(natural),
        "node_power_calls": max(stats.runs_detected - 1, 0),
        "w2_calls": stats.merges2,
        "w3_calls": stats.merges3,
        "w4_calls": stats.merges4,
    }


def digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()
    ).hexdigest()[:16]


def tail(samples):
    """``[value, percentile, samples]`` for the highest nearest-rank
    percentile with ``TAIL_BEYOND`` samples above it, or None when there
    are too few samples for one."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return None
    return [ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)]


def summary(samples):
    """Distribution of wall times, for the detail line."""
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"n": len(samples), "min": min(samples), "q1": q[0],
            "median": q[1], "q3": q[2], "max": max(samples)}


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call, with garbage collected before it
    and collection off during it."""
    gc.collect()
    gc.disable()
    t0 = perf_counter_ns()
    try:
        result = fn(*args, **kwargs)
    finally:
        t1 = perf_counter_ns()
        gc.enable()
    return result, (t1 - t0) * 1e-9


class Run:
    """State of one benchmark run of one workload and seed."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.errors = []

    # -- single calls ------------------------------------------------------

    def error(self, message, failed_sort=False):
        if failed_sort:
            self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def config(self, variant, key, on_merge=None):
        policy = self.pkg.policy
        return policy.SortConfig(
            k=policy.VARIANTS[variant].k, variant=variant, key=key,
            on_merge=on_merge,
        )

    def sort(self, variant, config, fn=None):
        """One timed sort of a fresh copy: ``(stats, seconds)``, with stats
        None if it raised or its output is wrong.  ``fn`` replaces
        ``stable_sort_with`` (the traced run passes its root span)."""
        self.attempted += 1
        lst = list(self.base)
        try:
            stats, elapsed = timed(fn or self.pkg.policy.stable_sort_with,
                                   lst, config)
        except Exception as exc:  # a failing sort is counted, not fatal
            self.error("%s raised %r" % (variant, exc), failed_sort=True)
            return None, 0.0
        if lst != self.expected:
            self.error("%s output differs from sorted()" % variant,
                       failed_sort=True)
            return None, 0.0
        return stats, elapsed

    def yardstick(self):
        out, elapsed = timed(natural_merge_sort, self.base)
        if out != self.expected:
            raise BenchError("the yardstick sort is wrong")
        self.yard_times.append(elapsed)
        return elapsed

    def bracketed(self, measures):
        """Yield ``(measure(), yardstick seconds)`` for each measure in turn.

        Every measure runs between two yardstick sorts, each shared with
        its neighbour, and is paired with their mean.
        """
        before = self.yardstick()
        for measure in measures:
            result = measure()
            after = self.yardstick()
            yield result, (before + after) / 2
            before = after

    def list_sort(self):
        """Mean seconds of ``list.sort`` calls over ``REF_WINDOW_S``; one
        collection before them all, none during."""
        total = calls = 0
        gc.collect()
        gc.disable()
        try:
            while total < REF_WINDOW_S:
                lst = list(self.base)
                t0 = perf_counter_ns()
                lst.sort(key=self.key)
                total += (perf_counter_ns() - t0) * 1e-9
                calls += 1
        finally:
            gc.enable()
        self.ref_times.append(total / calls)
        return total / calls

    def check_counts(self, variant, stats, where):
        counts = counts_of(stats, self.n, self.min_run_len)
        if counts != self.counts[variant]:
            changed = sorted(name for name in counts
                             if counts[name] != self.counts[variant][name])
            self.error("%s counts drift in %s: %s" % (variant, where, changed))

    # -- phases --------------------------------------------------------------

    def prepare(self):
        w = self.workload
        self.pkg, self.base, self.setup_s, self.generate_s = set_up(w, self.seed)
        self.n = len(self.base)
        self.key = itemgetter(0) if w.record else None
        self.min_run_len = self.pkg.policy.MIN_RUN_LEN
        self.expected = sorted(self.base, key=self.key)
        self.yard_times = []

    def self_check(self):
        """Untimed warm-up sort per variant that also checks the paper's
        invariants and fixes the reference counts and merge traces.

        With tracing on, the key is wrapped to count its calls; the wrapper
        would slow every other sort, so it is used here only."""
        policy = self.pkg.policy
        self.counts, self.key_calls, self.trace_digest = {}, {}, {}
        self.run_lengths = None
        for variant in VARIANTS:
            key = self.key
            if key is not None and self.trace:
                key = CountingKey(key)
            trace = []
            stats, _ = self.sort(variant, self.config(variant, key, trace.append))
            if stats is None:
                raise BenchError("self-check sort of %s failed: %s"
                                 % (variant, self.errors[-1]))
            self.run_lengths = stats.run_lengths  # the same for every variant
            self.counts[variant] = counts_of(stats, self.n, self.min_run_len)
            self.key_calls[variant] = getattr(key, "calls", 0)
            self.trace_digest[variant] = digest(trace)
            k = policy.VARIANTS[variant].k
            oracle_trace = []
            cost = policy.merge_cost_for_profile(
                stats.run_lengths, k, on_merge=oracle_trace.append)
            bad = []
            if stats.merge_cost != cost:
                bad.append("merge_cost %d != profile cost %d"
                           % (stats.merge_cost, cost))
            if trace != oracle_trace:
                bad.append("merge trace differs from the profile's")
            scanned = stats.scan_reads + stats.scan_writes
            model = 4 * stats.merge_cost + 2 * self.n
            if variant in COPY_ALL and abs(scanned - model) > k * stats.merges_total:
                bad.append("scanned %d vs 4M+2n = %d" % (scanned, model))
            for message in bad:
                self.error("%s invariant: %s" % (variant, message),
                           failed_sort=True)

    def timed_rounds(self):
        """Untraced timing of every variant between yardstick sorts."""
        configs = {v: self.config(v, self.key) for v in VARIANTS}
        self.times = {v: [] for v in VARIANTS}
        self.x_ref = {v: [] for v in VARIANTS}
        self.x_sorted = []
        self.ref_times = []
        rounds = 0
        started = perf_counter()
        deadline = started + self.seconds
        while not rounds or (perf_counter()
                             + (perf_counter() - started) / rounds <= deadline):
            shift = rounds % len(VARIANTS)
            order = VARIANTS[shift:] + VARIANTS[:shift]
            measures = [partial(self.timed_variant, v, configs[v]) for v in order]
            for (variant, ref_s, stats, sort_s), yard_s in self.bracketed(measures):
                if stats is None:
                    continue
                self.check_counts(variant, stats, "timed run")
                self.times[variant].append(sort_s)
                self.x_ref[variant].append(sort_s / yard_s)
                if ref_s is not None:
                    self.x_sorted.append(sort_s / ref_s)
            rounds += 1
        self.rounds = rounds

    def timed_variant(self, variant, config):
        """One timed sort; ``4way`` comes right after a ``list.sort``."""
        ref_s = self.list_sort() if variant == "4way" else None
        return (variant, ref_s) + self.sort(variant, config)

    def memory_sort(self):
        """Peak bytes allocated during one ``4way`` sort, over what was
        allocated when the sort was called (the input copy included)."""

        def measured_sort(lst, config):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            stats = self.pkg.policy.stable_sort_with(lst, config)
            self.peak_bytes = tracemalloc.get_traced_memory()[1] - before
            return stats

        self.peak_bytes = 0
        tracemalloc.start()
        try:
            stats, _ = self.sort("4way", self.config("4way", self.key),
                                 fn=measured_sort)
        finally:
            tracemalloc.stop()
        if stats is not None:
            self.check_counts("4way", stats, "memory run")

    def traced_sorts(self):
        """One traced sort per variant, between yardstick sorts; the spans
        stay in memory until the run ends."""
        policy = self.pkg.policy
        merges = self.pkg.merges
        self.layers, self.spans, self.traced_x_ref = {}, {}, {}
        tracers = {}

        def traced_sort(variant):
            tracers[variant] = tracer = tracing.Tracer()
            rebuilds_before = merges.nasty_rebuilds
            with tracing.installed(policy, tracer):
                root = tracer.wrap(tracing.ROOT, policy.stable_sort_with)
                stats, traced_s = self.sort(
                    variant, self.config(variant, self.key), fn=root)
            if variant == "4way-nosentinel":
                self.nasty_rebuilds = merges.nasty_rebuilds - rebuilds_before
            return variant, stats, traced_s

        measures = [partial(traced_sort, v) for v in VARIANTS]
        for (variant, stats, traced_s), yard_s in self.bracketed(measures):
            if stats is None:
                continue
            tracer = tracers[variant]
            self.check_counts(variant, stats, "traced run")
            totals = tracer.layer_totals()
            self.check_traced_calls(variant, totals)
            self.traced_x_ref[variant] = traced_s / yard_s
            self.layers[variant] = totals
            self.spans[variant] = tracer.spans

    def check_traced_calls(self, variant, totals):
        expected = self.counts[variant]
        for layer, name in (("runs.detect", "detect_calls"),
                            ("runs.extend", "extend_calls"),
                            ("power.node_power", "node_power_calls"),
                            ("merges.w2", "w2_calls"),
                            ("merges.w3", "w3_calls"),
                            ("merges.w4", "w4_calls")):
            calls = totals.get(layer, (0, 0))[0]
            if calls != expected[name]:
                self.error("%s traced %s = %d, stats say %d"
                           % (variant, name, calls, expected[name]))

    def micro_timings(self):
        """``CountingOrder.le`` cost and schedule-engine time, untraced;
        each is the fastest of ``MICRO_REPS`` repetitions."""
        m = min(self.n - 1, LE_PAIRS)
        pairs = list(zip(self.base[:m], self.base[1 : m + 1]))
        le = self.pkg.statskit.CountingOrder(self.key).le
        samples = []
        for _ in range(MICRO_REPS):
            t0 = perf_counter_ns()
            for a, b in pairs:
                le(a, b)
            t1 = perf_counter_ns()
            for a, b in pairs:
                pass
            t2 = perf_counter_ns()
            samples.append(((t1 - t0) - (t2 - t1)) / m)
        self.le_ns = min(samples)
        self.profile_s = {
            k: min(timed(self.pkg.policy.merge_cost_for_profile,
                         self.run_lengths, k)[1] for _ in range(MICRO_REPS))
            for k in (2, 4)
        }

    # -- results ---------------------------------------------------------

    def end_to_end(self):
        n = self.n
        metrics = {
            "x_ref.%s" % v: (statistics.median(self.x_ref[v]), "x")
            for v in VARIANTS
        }
        for v in ("4way", "2way"):
            metrics["cmp_per_elem.%s" % v] = (
                self.counts[v]["comparisons"] / n, "cmp/elem")
        for v in ("4way", "2way"):
            c = self.counts[v]
            metrics["scanned_per_elem.%s" % v] = (
                (c["scan_reads"] + c["scan_writes"]) / n, "elem/elem")
        metrics["extra_bytes_per_elem.4way"] = (self.peak_bytes / n, "B/elem")
        metrics["setup_s"] = (statistics.median(self.setup_s), "s")
        metrics["ok_frac"] = (1 - self.failed / self.attempted, "frac")
        return metrics

    def per_layer(self):
        n = self.n
        metrics = {}
        for v in VARIANTS:
            totals = self.layers.get(v, {})
            c = self.counts[v]

            def busy_s(layer):
                return totals.get(layer, (0, 0))[1] * 1e-9

            metrics["runs.detect_s.%s" % v] = (busy_s("runs.detect"), "s")
            metrics["runs.extend_s.%s" % v] = (busy_s("runs.extend"), "s")
            metrics["power.node_power_s.%s" % v] = (busy_s("power.node_power"), "s")
            metrics["policy.self_s.%s" % v] = (busy_s(tracing.ROOT), "s")
            metrics["policy.max_stack.%s" % v] = (c["max_stack"], "count")
            merge_s = 0.0
            for w in (2, 3, 4):
                metrics["merges.w%d_s.%s" % (w, v)] = (busy_s("merges.w%d" % w), "s")
                metrics["merges.w%d_calls.%s" % (w, v)] = (c["w%d_calls" % w], "count")
                merge_s += busy_s("merges.w%d" % w)
            metrics["merges.elems_per_s.%s" % v] = (
                c["merge_cost"] / merge_s if merge_s else 0.0, "elem/s")
            metrics["merges.scan_elems.%s" % v] = (
                c["scan_reads"] + c["scan_writes"] - 2 * n, "count")
            metrics["statskit.comparisons.%s" % v] = (c["comparisons"], "count")
            metrics["statskit.key_calls.%s" % v] = (self.key_calls[v], "count")
            metrics["statskit.le_share.%s" % v] = (
                c["comparisons"] * self.le_ns * 1e-9 / min(self.times[v]),
                "frac")
        c = self.counts["4way"]
        metrics["runs.detect_calls"] = (c["detect_calls"], "count")
        metrics["runs.extend_calls"] = (c["extend_calls"], "count")
        metrics["runs.extended_elems"] = (c["extended_elems"], "count")
        metrics["power.node_power_calls"] = (c["node_power_calls"], "count")
        metrics["policy.profile_s.k2"] = (self.profile_s[2], "s")
        metrics["policy.profile_s.k4"] = (self.profile_s[4], "s")
        metrics["merges.nasty_rebuilds.4way-nosentinel"] = (
            self.nasty_rebuilds, "count")
        metrics["statskit.le_ns"] = (self.le_ns, "ns")
        metrics["harness.generate_s"] = (statistics.median(self.generate_s), "s")
        traced = self.traced_x_ref.get("4way")
        metrics["trace_overhead"] = (
            traced / statistics.median(self.x_ref["4way"]) - 1 if traced else 0.0,
            "frac")
        return metrics

    def detail(self):
        """What lies behind the metrics: counts and merge-trace digests a
        later change must keep identical, and the raw wall times."""
        counts = {
            v: dict(self.counts[v], merge_trace=self.trace_digest[v])
            for v in VARIANTS
        }
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "n": self.n,
            "rounds": self.rounds,
            "sort_s": {v: summary(self.times[v]) for v in VARIANTS},
            "sort_s_tail.4way": tail(self.times["4way"]),
            "yardstick_s": summary(self.yard_times),
            "list_sort_s": summary(self.ref_times),
            "x_sorted.4way": statistics.median(self.x_sorted),
            "counts": counts,
            "counts_digest": digest(counts),
            "key_calls": self.key_calls if self.trace else None,
            "errors": self.errors,
        }

    def spans_document(self):
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "n": self.n,
            "fields": ["name", "parent", "start_ns", "end_ns"],
            "variants": self.spans,
        }


def run(workload, seed, seconds, trace):
    """Run every phase; returns the finished ``Run``."""
    r = Run(workload, seed, seconds, trace)
    r.prepare()
    r.self_check()
    r.timed_rounds()
    if trace:
        r.traced_sorts()
        r.micro_timings()
    else:
        r.memory_sort()
    return r
