"""Arithmetic of the benchmark: percentiles, span self time, load-generator
lateness, and computed memory traffic of the sparse kernels. Pure functions
over plain Python data, unit-tested by test_pbstats.py."""

import math

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of `values`."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def _rank(p, n):
    # Nearest rank, with a guard against 0.99 * 1000 = 990.0000000000001.
    return min(n, max(1, math.ceil(p / 100.0 * n - 1e-9)))


def tail_percentile(values, wanted=99.0):
    """The highest percentile, at most `wanted`, that leaves at least
    MIN_BEYOND samples above its rank. Returns (p, value, n, beyond); p is
    None when there are too few samples for any tail percentile."""
    n = len(values)
    if n <= MIN_BEYOND:
        return None, None, n, 0
    # beyond = n - rank >= MIN_BEYOND  <=>  rank <= n - MIN_BEYOND.
    best = min(wanted, 100.0 * (n - MIN_BEYOND) / n)
    rank = _rank(best, n)
    return best, sorted(values)[rank - 1], n, n - rank


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no samples")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


def lateness_ms(due_s, sent_s):
    """How late the generator sent each request, in ms (never negative:
    a request is never sent before it is due)."""
    return [max(0.0, (s - d) * 1e3) for d, s in zip(due_s, sent_s)]


def latency_ms(due_s, recv_s, ok):
    """Latency of each request from its due time, not its send time, so a
    stall in the generator is charged to the requests it delayed. A failed
    request (shed, error, uncertified, unanswered) misses every latency
    limit, so it counts as infinitely late."""
    return [(r - d) * 1e3 if good else float("inf") for d, r, good in zip(due_s, recv_s, ok)]


def union_length(intervals, lo=None, hi=None):
    """Total length covered by `intervals` ((start, end) pairs), clipped to
    [lo, hi] when given. Overlaps count once."""
    clipped = []
    for s, e in intervals:
        if lo is not None:
            s = max(s, lo)
        if hi is not None:
            e = min(e, hi)
        if e > s:
            clipped.append((s, e))
    clipped.sort()
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    covered by its child spans (on any thread; overlapping children count
    once). `spans` are dicts with id, parent, start_ms, end_ms; returns
    {id: self_ms}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_ms"], s["end_ms"]))
    out = {}
    for s in spans:
        dur = max(0.0, s["end_ms"] - s["start_ms"])
        covered = union_length(children.get(s["id"], []), s["start_ms"], s["end_ms"])
        out[s["id"]] = max(0.0, dur - covered)
    return out


# Program span name prefixes -> the module (layer) whose code runs there.
# solve/<method> wraps the numerical kernel of that method, which lives in
# linalg; the level-QBD solver and its phases live in ctmc.
_PROGRAM_LAYERS = [
    ("solve/level-qbd", "ctmc"),
    ("qbd/", "ctmc"),
    ("ctmc/", "ctmc"),
    ("solve/", "linalg"),
    ("ncd/", "linalg"),
    ("linalg/", "linalg"),
    ("core/", "core"),
    ("serve/", "serve"),
]


def layer_of(name):
    """Layer of a span: pb/<layer>/<op> for the benchmark's own spans, the
    prefix table for the program's spans."""
    if name.startswith("pb/"):
        return name.split("/")[1]
    for prefix, layer in _PROGRAM_LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


def layer_breakdown(spans):
    """Per-layer self time (ms) and share of all self time, plus coverage:
    the share of the pb/bench/pass roots' wall time spent inside some layer
    span (1 - root self time / root duration)."""
    selfs = self_times(spans)
    by_layer = {}
    for s in spans:
        layer = layer_of(s["name"])
        by_layer[layer] = by_layer.get(layer, 0.0) + selfs[s["id"]]
    total = sum(by_layer.values())
    roots = [s for s in spans if s["name"] == "pb/bench/pass"]
    root_wall = sum(s["end_ms"] - s["start_ms"] for s in roots)
    root_self = sum(selfs[s["id"]] for s in roots)
    coverage = 1.0 - root_self / root_wall if root_wall > 0 else 0.0
    share = {k: (v / total if total > 0 else 0.0) for k, v in by_layer.items()}
    return by_layer, share, coverage


# Bytes per index in the CSR arrays (linalg::index_t is int64).
INDEX_BYTES = 8
VALUE_BYTES = 8


def sweep_traffic(n, nnz):
    """Computed bytes moved and flops of one Gauss-Seidel/SpMV sweep over an
    n-row CSR matrix with nnz entries: values and column indices once, row
    pointers once, one gathered iterate value per entry, and the diagonal
    read plus iterate write per row. Caches are ignored (label: computed)."""
    bytes_moved = (nnz * (VALUE_BYTES + INDEX_BYTES) + (n + 1) * INDEX_BYTES
                   + nnz * VALUE_BYTES + 2 * n * VALUE_BYTES)
    flops = 2 * nnz
    return bytes_moved, flops
