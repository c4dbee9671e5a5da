"""The benchmark's yardstick: a textbook natural merge sort in pure Python.

Every timed sort of the package runs right next to one call of
``natural_merge_sort`` on the same input, and the end-to-end times are
reported as the ratio of the two.  Both are interpreted Python working on
the same objects, so a slowdown of the shared machine stretches both alike
and cancels in the ratio; wall-clock seconds on such a host drift by up to
2x over tens of seconds.  Like the package, it is adaptive (one scan on
sorted input, a pass per level of merging otherwise) and makes one Python
call per comparison, so its mix of work resembles the package's.

Every ratio the benchmark reports is relative to this exact code, so it must
not change.
"""


def _le(a, b):
    return a <= b


def _merge(left, right):
    out = []
    append = out.append
    i = j = 0
    n_left, n_right = len(left), len(right)
    while i < n_left and j < n_right:
        if _le(left[i], right[j]):
            append(left[i])
            i += 1
        else:
            append(right[j])
            j += 1
    out += left[i:]
    out += right[j:]
    return out


def natural_merge_sort(values):
    """Sorted copy of ``values``: split into weakly increasing runs, then
    merge neighbouring runs pairwise until one is left."""
    runs = []
    start = 0
    for i in range(1, len(values)):
        if not _le(values[i - 1], values[i]):
            runs.append(values[start:i])
            start = i
    runs.append(values[start:])
    while len(runs) > 1:
        runs = [
            _merge(runs[j], runs[j + 1]) if j + 1 < len(runs) else runs[j]
            for j in range(0, len(runs), 2)
        ]
    return runs[0]
