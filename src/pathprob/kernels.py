"""Gauss-Seidel sweep kernel of the fixed-point solver, in numpy.

A sweep updates every row of ``x = M x + offset`` once, in horizon order
(increasing horizon, ties by row index).  Diagonal entries move to the
left-hand side, so each row is satisfied exactly when it is updated, and
each row adds its terms in CSR order.  Two read rules make every iterate
bit-identical to the one-row-at-a-time sweep in that order:

* an entry behind the row in horizon order reads the current ``x``;
* an entry ahead of it reads the copy of ``x`` taken when the sweep started.

So rows need not be visited one at a time.  :func:`sweep_plan` levels each
row by its horizon and then by a sub-level, one more than the highest
sub-level of the row's lower-indexed entries of equal horizon; every entry
behind a row then lies in an earlier level (the wavefront triangular
solve of Anderson and Saad, 1989).  A level of at least ``WIDE`` rows is
one vectorised step that walks the CSR by position within the row.  A run
of narrower levels (a one-clock chain has one row per horizon) is swept by
a scalar loop over list copies of at most ``CHUNK`` rows at a time.
"""

from typing import NamedTuple, Optional, Tuple

import numpy as np

WIDE = 32
CHUNK = 1024


class SweepPlan(NamedTuple):
    """Rows in level order, each row's rank in horizon order, and the steps
    of a sweep.  A step ``(lo, hi, counts)`` updates ``order[lo:hi]``:
    ``counts`` is None for a scalar chunk; for a wide level, whose longest
    rows come first, ``counts[p]`` is the number of rows with more than
    ``p`` entries."""

    order: np.ndarray
    rank: np.ndarray
    steps: Tuple[Tuple[int, int, Optional[Tuple[int, ...]]], ...]


def _sublevels(indptr, indices, horizons):
    """Longest chain of lower-indexed equal-horizon entries ending at each
    row, found by relaxing only those few entries; the CSR is walked
    ``CHUNK`` rows at a time by position within the row."""
    n = len(horizons)
    heads, tails = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for lo in range(0, n, CHUNK):
        rows = np.arange(lo, min(lo + CHUNK, n))
        first = indptr[rows]
        lengths = indptr[rows + 1] - first
        for p in range(int(lengths.max())):
            has = lengths > p
            r = rows[has]
            j = indices[first[has] + p]
            lower = (j < r) & (horizons[j] == horizons[r])
            heads.append(r[lower])
            tails.append(j[lower])
    heads, tails = np.concatenate(heads), np.concatenate(tails)
    sub = np.zeros(n, dtype=np.int64)
    while True:
        reach = sub[tails] + 1
        if not (reach > sub[heads]).any():
            return sub
        np.maximum.at(sub, heads, reach)


def sweep_plan(indptr, indices, horizons) -> SweepPlan:
    """Levels and steps of a horizon-ordered sweep, in O(n) memory."""
    n = len(horizons)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(horizons, kind="stable")] = np.arange(n)
    level = _sublevels(indptr, indices, horizons)
    level += horizons * (int(level.max(initial=0)) + 1)
    order = np.argsort(level, kind="stable")
    level = level[order]
    starts = np.flatnonzero(np.r_[True, level[1:] != level[:-1]])
    del level
    wide = np.diff(np.r_[starts, n]) >= WIDE
    # a step starts at every wide level and at the first level of each
    # run of narrow ones
    first = wide | np.r_[True, wide[:-1]]
    begins = starts[first].tolist()
    steps = []
    for lo, hi, is_wide in zip(begins, begins[1:] + [n], wide[first].tolist()):
        if is_wide:
            rows = order[lo:hi]
            lengths = indptr[rows + 1] - indptr[rows]
            longest_first = np.argsort(-lengths, kind="stable")
            order[lo:hi] = rows[longest_first]
            lengths = lengths[longest_first]
            steps.append((lo, hi, tuple(
                int(np.count_nonzero(lengths > p)) for p in range(lengths[0])
            )))
        else:
            steps.extend(
                (a, min(a + CHUNK, hi), None) for a in range(lo, hi, CHUNK)
            )
    return SweepPlan(order, rank, tuple(steps))


def _wide_step(indptr, indices, data, offset, x, start, rank, rows, counts):
    first = indptr[rows]
    own_rank = rank[rows]
    acc = offset[rows]
    diag = np.zeros(len(rows))
    for p, c in enumerate(counts):
        k = first[:c] + p
        j = indices[k]
        v = data[k]
        on_diag = j == rows[:c]
        read = np.where(rank[j] < own_rank[:c], x[j], start[j])
        head = acc[:c]
        np.add(head, v * read, out=head, where=~on_diag)
        head = diag[:c]
        np.add(head, v, out=head, where=on_diag)
    denom = 1.0 - diag
    bad = np.flatnonzero(denom <= 0.0)
    if len(bad):
        k = bad[0]
        raise ZeroDivisionError(f"row {rows[k]}: unit diagonal mass {diag[k]}")
    return acc / denom


def _scalar_step(indptr, indices, data, offset, x, start, rank, rows):
    first = indptr[rows]
    lengths = indptr[rows + 1] - first
    ptr = np.r_[0, np.cumsum(lengths)]
    size = int(ptr[-1])
    k = np.repeat(first - ptr[:-1], lengths) + np.arange(size)
    cols = indices[k]
    owner = np.repeat(rows, lengths)
    behind = rank[cols] < rank[owner]
    # entry e reads buf[src[e]]: its value at the start of the chunk, or at
    # size + t the new value of chunk row t when that row lies behind it
    by_row = np.argsort(rows)
    slot = by_row[np.searchsorted(rows, cols, sorter=by_row).clip(max=len(rows) - 1)]
    src = np.arange(size)
    in_chunk = behind & (rows[slot] == cols)
    src[in_chunk] = size + slot[in_chunk]
    src[cols == owner] = -1
    buf = np.where(behind, x[cols], start[cols]).tolist() + [0.0] * len(rows)
    src, vals, ptr = src.tolist(), data[k].tolist(), ptr.tolist()
    for t, acc in enumerate(offset[rows].tolist()):
        diag = 0.0
        for e in range(ptr[t], ptr[t + 1]):
            s = src[e]
            if s < 0:
                diag += vals[e]
            else:
                acc += vals[e] * buf[s]
        denom = 1.0 - diag
        if denom <= 0.0:
            raise ZeroDivisionError(f"row {rows[t]}: unit diagonal mass {diag}")
        buf[size + t] = acc / denom
    return np.array(buf[size:])


def gauss_seidel_sweep(indptr, indices, data, offset, x, plan: SweepPlan):
    """One in-place Gauss-Seidel pass of ``x = M x + offset`` in horizon
    order, following ``plan``."""
    start = x.copy()
    for lo, hi, counts in plan.steps:
        rows = plan.order[lo:hi]
        args = (indptr, indices, data, offset, x, start, plan.rank, rows)
        new = _scalar_step(*args) if counts is None else _wide_step(*args, counts)
        x[rows] = new


def max_residual(indptr, indices, data, offset, x):
    """Largest row defect ``|x - (M x + offset)|`` without touching ``x``.

    Each row adds its terms in CSR order, walking ``CHUNK`` rows at a time
    by position within the row."""
    worst = 0.0
    last = max(len(indices) - 1, 0)
    for lo in range(0, len(x), CHUNK):
        hi = min(lo + CHUNK, len(x))
        first = indptr[lo:hi]
        lengths = indptr[lo + 1:hi + 1] - first
        acc = offset[lo:hi].copy()
        for p in range(int(lengths.max())):
            k = np.minimum(first + p, last)
            np.add(acc, data[k] * x[indices[k]], out=acc, where=lengths > p)
        worst = max(worst, float(np.abs(x[lo:hi] - acc).max()))
    return worst
