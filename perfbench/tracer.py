"""Span tracing of one sort call, layer by layer.

The tracer wraps the names that ``powersort.policy`` looks up while it
sorts: ``find_first_run``, ``extend_run``, ``node_power`` and the merge
kernels held in ``VARIANTS``.  Each wrapped call records a span
``[name, parent, start_ns, end_ns]`` in memory; the benchmark's own call of
``stable_sort_with`` is the root span of each sort.  The wrappers are
installed only for the traced run and removed afterwards, so the timed
(untraced) runs execute the package exactly as shipped.
"""

from __future__ import annotations

import contextlib
import dataclasses
from time import perf_counter_ns

#: Wrapped policy-module names and the layer each belongs to.
POLICY_NAMES = {
    "find_first_run": "runs.detect",
    "extend_run": "runs.extend",
    "node_power": "power.node_power",
}
KERNEL_FIELDS = {"merge2": 2, "merge3": 3, "merge4": 4}
ROOT = "policy.stable_sort_with"


class Tracer:
    """In-memory span recorder; spans nest through an explicit stack."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = [name, stack[-1], 0, 0]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter_ns()
                stack.pop()

        return traced

    def layer_totals(self):
        """``{name: (calls, self_ns)}``; a span's self time is its duration
        minus the time its children cover."""
        child_ns = [0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals = {}
        for (name, _, start, end), children in zip(self.spans, child_ns):
            calls, ns = totals.get(name, (0, 0))
            totals[name] = (calls + 1, ns + end - start - children)
        return totals


@contextlib.contextmanager
def installed(policy, tracer):
    """Route the policy's calls through ``tracer`` for the ``with`` body.

    Kernel spans are named ``merges.w<width>`` after the VARIANTS field
    (merge2/merge3/merge4) they were reached through.
    """
    saved_names = {attr: getattr(policy, attr) for attr in POLICY_NAMES}
    saved_variants = dict(policy.VARIANTS)
    try:
        for attr, layer in POLICY_NAMES.items():
            setattr(policy, attr, tracer.wrap(layer, saved_names[attr]))
        for name, kernels in saved_variants.items():
            policy.VARIANTS[name] = dataclasses.replace(kernels, **{
                field: tracer.wrap("merges.w%d" % width, getattr(kernels, field))
                for field, width in KERNEL_FIELDS.items()
                if getattr(kernels, field) is not None
            })
        yield tracer
    finally:
        for attr, fn in saved_names.items():
            setattr(policy, attr, fn)
        policy.VARIANTS.update(saved_variants)
