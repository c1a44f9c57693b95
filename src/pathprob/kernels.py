"""Gauss-Seidel sweep kernel of the fixed-point solver, in numpy.

A sweep updates every row of ``x = M x + offset`` once.  Diagonal entries
move to the left-hand side, so each row is satisfied exactly when it is
updated, and each row adds its terms in CSR order.  :func:`sweep_plan`
levels each row by its horizon and then by a sub-level, one more than the
highest sub-level of the row's lower-indexed entries of equal horizon (the
wavefront triangular solve of Anderson and Saad, 1989).  The sweep visits
rows in that level order, ties by row index, and every entry reads the
current ``x``: so every iterate is bit-identical to the one-row-at-a-time
sweep in level order.

No row reads a lower-indexed row of its own level, for that row would lie
in an earlier level, and a row reads a higher-indexed row of its level
before the sequential sweep updates it.  So a level of at least ``WIDE``
rows is one atomic vectorised step that walks the CSR by position within
the row.  A run of narrower levels (a one-clock chain has one row per
horizon) is swept by a scalar loop over list copies of at most ``CHUNK``
rows at a time.
"""

from typing import NamedTuple, Optional, Tuple

import numpy as np

WIDE = 32
CHUNK = 1024


class SweepPlan(NamedTuple):
    """Rows in level order and the steps of a sweep.  A step
    ``(lo, hi, counts)`` updates ``order[lo:hi]``:
    ``counts`` is None for a scalar chunk; for a wide level, whose longest
    rows come first, ``counts[p]`` is the number of rows with more than
    ``p`` entries."""

    order: np.ndarray
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
    """Levels and steps of a sweep in level order: horizon, then sub-level,
    then row index.  O(n) memory."""
    n = len(horizons)
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
    return SweepPlan(order, tuple(steps))


def _wide_step(indptr, indices, data, offset, x, rows, counts):
    first = indptr[rows]
    acc = offset[rows]
    diag = np.zeros(len(rows))
    for p, c in enumerate(counts):
        k = first[:c] + p
        j = indices[k]
        v = data[k]
        on_diag = j == rows[:c]
        head = acc[:c]
        np.add(head, v * x[j], out=head, where=~on_diag)
        head = diag[:c]
        np.add(head, v, out=head, where=on_diag)
    denom = 1.0 - diag
    bad = np.flatnonzero(denom <= 0.0)
    if len(bad):
        k = bad[0]
        raise ZeroDivisionError(f"row {rows[k]}: unit diagonal mass {diag[k]}")
    return acc / denom


def _scalar_step(indptr, indices, data, offset, x, rows):
    first = indptr[rows]
    lengths = indptr[rows + 1] - first
    ptr = np.r_[0, np.cumsum(lengths)]
    size = int(ptr[-1])
    k = np.repeat(first - ptr[:-1], lengths) + np.arange(size)
    cols = indices[k]
    owner = np.repeat(rows, lengths)
    # entry e reads buf[src[e]]: x of a row outside the chunk, or at size + t
    # chunk row t, which holds x until the row is updated and then its new value
    by_row = np.argsort(rows)
    slot = by_row[np.searchsorted(rows, cols, sorter=by_row).clip(max=len(rows) - 1)]
    src = np.arange(size)
    in_chunk = rows[slot] == cols
    src[in_chunk] = size + slot[in_chunk]
    src[cols == owner] = -1
    buf = x[cols].tolist() + x[rows].tolist()
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
    """One in-place Gauss-Seidel pass of ``x = M x + offset`` in the level
    order of ``plan``."""
    for lo, hi, counts in plan.steps:
        rows = plan.order[lo:hi]
        args = (indptr, indices, data, offset, x, rows)
        x[rows] = _scalar_step(*args) if counts is None else _wide_step(*args, counts)


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
