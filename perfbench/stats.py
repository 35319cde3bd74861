"""Statistics the benchmark reports: the tail-percentile sample rule,
span self time, failure share, and the run-to-run quartile spread."""

import math
import statistics


def nearest_rank(values, p):
    """The p-th percentile by nearest rank and the number of samples ranked
    after it: the value at 1-based rank ceil(p/100 * n) of the sorted samples."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * n))
    return ordered[rank - 1], n - rank


TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def tail_percentile(values, min_beyond=10, ladder=TAIL_LADDER):
    """Highest percentile of ``ladder`` with at least ``min_beyond`` samples
    ranked after it, as (p, value, beyond); None when no rung qualifies."""
    best = None
    for p in ladder:
        if not values:
            break
        value, beyond = nearest_rank(values, p)
        if beyond >= min_beyond:
            best = (p, value, beyond)
    return best


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover.  ``spans`` is a sequence of
    (name, start, end, parent_index, op) with parent_index None at a root."""
    children = [[] for _ in spans]
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        kids = [(spans[j][1], spans[j][2]) for j in children[i]]
        out.append((end - start) - covered_length(kids, start, end))
    return out


def failed_share(failed, attempted):
    """Operations failing a check or raising, over operations attempted."""
    if attempted < 1:
        raise ValueError("failed_share needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed ({failed}) must lie in [0, attempted ({attempted})]")
    return failed / attempted


def quartile_spread(values):
    """(Q3 - Q1) / median by ``statistics.quantiles(values, n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
