"""Gauss-Seidel sweep kernel of the fixed-point solver, in numpy.

A sweep updates every row of ``x = M x + offset`` once, in the level
order of a plan.  Diagonal entries move to the left-hand side, so each
row is satisfied exactly when it is updated, and each row adds its terms
to its offset in CSR order.  Every entry reads the current ``x``.

A plan's sweeps run on a copy of the system renumbered once into the
plan's order by :func:`renumber`, with ``x`` in that order too: row t of
the copy is the plan's t-th row, its columns are places in the order,
and each row keeps its entries in CSR order.  A step updates the rows
``lo:hi`` of the copy from its entries ``indptr[lo]:indptr[hi]``, and an
entry reads a row of its own step exactly when ``lo <= column < hi``.
The copy holds as many entries as the system, so a solve holds the
system twice; planning takes O(nnz) memory besides, a few arrays over
the entries.  While a pass with block levels runs it also holds, for
the copy's entries, one byte each and, for each entry that reads a row
of its own level, a place and a value.

:func:`exact_plan` orders the rows so that one sweep solves the system
exactly, in block-triangular order (Duff and Reid, 1978).  No rule resets
a clock of the slice key, so jumps keep the key and delay steps raise
it: slices come by decreasing key.  The rows of one box point form a
block, solved together.  Inside a slice, a point comes after every other
point it reads, by the longest chain of such reads ending at it, and the
rows of a level come by point.  A level of multi-row blocks is one step:
the entries of other points go to the right-hand side, those of its own
point to a small dense matrix, and one batched ``np.linalg.solve`` solves
all of the level's blocks.  The plan lays out every block level at once,
each row's slot being its block, counted from the level's first block,
times the level's width plus its place in the block.  Before the first
block level, one pass over the copy marks, for every block level, the
entries that read an earlier level, and finds where each other entry
lies in the level's stacked ``I - M`` and the value it puts there.  A
level then only adds its right-hand side from its offset in CSR order,
copies one identity per block (a padded slot keeps its identity row and
solves to 0), places its entries and solves.  When there is no such
order (a rule resets every clock in a loop, a block is too large, or a
slice holds delay chains) the plan is None.

:func:`sweep_plan` is the fallback: it levels each row by its horizon
and then by a sub-level, one more than the highest sub-level of the
row's lower-indexed entries of equal horizon (the wavefront triangular
solve of Anderson and Saad, 1989).  Rows later in that order can be read
before they are updated, so the sweeps are repeated until the residual
is small, and every iterate is bit-identical to the one-row-at-a-time
sweep in level order, ties by row index.

Both plans make a step of each level of at least ``WIDE`` rows and cut
each run of narrower levels (a one-clock chain has one row per level)
into chunks of at most ``CHUNK`` rows; the exact plan makes a step of
each level of multi-row blocks too.  Every other step is a row step,
and its own entries choose how its rows are solved.  When no row reads
an earlier row of the step, as in every single-row level (that row
would lie in an earlier level), one vectorised update solves the step,
bit-identical to the sequential sweep: a row reads a later row of the
step before the sweep updates it.  When the plan is exact and each row
reads at most one earlier row of the step, the recurrence
``x_t = b_t + a_t x_next(t)`` is solved by recursive doubling (Kogge and
Stone, 1973), exact up to rounding but not bit-identical to the loop.
Any other step is solved row by row in a scalar loop over list copies.
On a one-clock chain without resets both plans have the same order and
steps, and the exact plan solves every chunk by recursive doubling.
"""

from typing import NamedTuple, Optional, Tuple

import numpy as np

WIDE = 32
CHUNK = 1024
BLOCK = 16  # most rows at one point that the exact pass solves together


class Blocks(NamedTuple):
    """A level of multi-row blocks: ``slots[t]``, the place
    ``block * width + position`` of the level's row ``lo + t`` among
    ``count`` stacked systems of ``width`` rows."""

    slots: np.ndarray
    width: int
    count: int


class SweepPlan(NamedTuple):
    """Rows in level order and the steps of a sweep.  A step
    ``(lo, hi, blocks)`` updates ``order[lo:hi]``: ``blocks`` is a
    :class:`Blocks` for a level of multi-row blocks and None for a row
    step, solved as its entries allow.  ``exact`` is True for a plan of
    :func:`exact_plan`, whose one sweep solves the system and whose row
    steps may use recursive doubling."""

    order: np.ndarray
    steps: Tuple[Tuple[int, int, Optional[Blocks]], ...]
    exact: bool


def _entry_rows(indptr):
    """The row of every entry of the CSR, counted from its first row."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _longest_paths(heads, tails, size, rounds):
    """Longest chain of edges ``tail -> head`` ending at each of ``size``
    nodes, all edges relaxed together; None when it has not settled after
    ``rounds`` rounds."""
    sub = np.zeros(size, dtype=np.int64)
    for _ in range(rounds):
        reach = sub[tails] + 1
        if not (reach > sub[heads]).any():
            return sub
        np.maximum.at(sub, heads, reach)
    return None


def _sublevels(indptr, indices, horizons):
    """Longest chain of lower-indexed equal-horizon entries ending at each
    row, found by relaxing only those few entries."""
    rows = _entry_rows(indptr)
    lower = (indices < rows) & (horizons[indices] == horizons[rows])
    n = len(horizons)
    return _longest_paths(rows[lower], indices[lower], n, n + 1)


def _steps(order, starts, point=None) -> SweepPlan:
    """The plan over ``order``, whose levels begin at ``starts``: one step
    per wide level and per level holding two rows of one point, and
    chunks over each run of other levels.  ``point`` is the point of each
    row of ``order``, which groups the rows of a level, or None for the
    fallback plan, which has no blocks and is not exact."""
    n = len(order)
    sizes = np.diff(np.r_[starts, n])
    alone = sizes >= WIDE
    blocky = np.zeros(len(starts), dtype=bool)
    if point is not None:
        new = np.r_[True, point[1:] != point[:-1]]
        new[starts] = True
        count = np.add.reduceat(new, starts)
        blocky = count < sizes
        alone |= blocky
    # a step starts at every level of its own and at the first level of
    # each run of the others
    first = alone | np.r_[True, alone[:-1]]
    begins = starts[first].tolist()
    ends = begins[1:] + [n]
    layout = [None] * len(begins)
    if blocky.any():
        # every row's slot: its block, counted from its level's first
        # block, times the level's width, plus its place in the block
        block = np.cumsum(new) - 1
        position = np.arange(n) - np.flatnonzero(new)[block]
        width = np.maximum.reduceat(position, starts) + 1
        slots = ((block - np.repeat(block[starts], sizes))
                 * np.repeat(width, sizes) + position)
        layout = [Blocks(slots[lo:hi], w, c) if b else None for lo, hi, w, c, b in
                  zip(begins, ends, width[first].tolist(),
                      count[first].tolist(), blocky[first].tolist())]
    steps = []
    for lo, hi, own, blocks in zip(begins, ends, alone[first].tolist(), layout):
        if blocks is not None:
            steps.append((lo, hi, blocks))
        elif own:
            steps.append((lo, hi, None))
        else:
            steps.extend(
                (a, min(a + CHUNK, hi), None) for a in range(lo, hi, CHUNK)
            )
    return SweepPlan(order, tuple(steps), point is not None)


def _starts(level):
    """Where each run of equal values of the sorted ``level`` begins."""
    return np.flatnonzero(np.r_[True, level[1:] != level[:-1]])


def sweep_plan(indptr, indices, horizons) -> SweepPlan:
    """Levels and steps of the fallback sweeps in level order: horizon,
    then sub-level, then row index."""
    level = _sublevels(indptr, indices, horizons)
    level += horizons * (int(level.max(initial=0)) + 1)
    order = np.argsort(level, kind="stable")
    level = level[order]
    starts = _starts(level)
    del level
    return _steps(order, starts)


def exact_plan(indptr, indices, slice_key, point, clocks) -> Optional[SweepPlan]:
    """A plan whose one sweep solves ``x = M x + offset`` exactly, or None.

    The rows of one ``point`` form a block, solved together.  Slices of
    equal ``slice_key`` come by decreasing key, and inside a slice the
    points by the longest chain of entries between different points
    ending at them, then by point and row index.  Every entry then reads
    a row of an earlier level or of its own block.  There is no such
    order when an entry reads a smaller key, when a block has more than
    ``BLOCK`` rows, or when the chains have not settled after
    ``clocks + 1`` rounds: a jump inside a slice only zeroes coordinates,
    so only delay steps make a chain longer than ``clocks``, and such a
    slice may hold a cycle.
    """
    points = int(point.max(initial=-1)) + 1
    if int(np.bincount(point).max(initial=0)) > BLOCK:
        return None
    rows = _entry_rows(indptr)
    key, read = slice_key[rows], slice_key[indices]
    if (read < key).any():
        return None
    between = read == key
    del key, read
    between &= point[rows] != point[indices]
    sub = _longest_paths(point[rows[between]], point[indices[between]],
                         points, clocks + 1)
    del rows, between
    if sub is None:
        return None
    level = int(slice_key.max(initial=0)) - slice_key
    level *= int(sub.max(initial=0)) + 1
    level += sub[point]
    del sub
    level *= points
    level += point
    order = np.argsort(level, kind="stable")
    level = level[order]
    level //= points
    starts = _starts(level)
    del level
    return _steps(order, starts, point[order])


def renumber(indptr, indices, data, offset, order):
    """The system ``x = M x + offset`` in ``order``: row t of the copy is
    row ``order[t]`` with its entries in CSR order, and every column is
    replaced by its place in ``order``."""
    lengths = np.diff(indptr)[order]
    ptr = np.zeros(len(order) + 1, dtype=indptr.dtype)
    np.cumsum(lengths, out=ptr[1:])
    k = np.repeat(indptr[order] - ptr[:-1], lengths)
    k += np.arange(len(k))
    place = np.empty(len(order), dtype=indices.dtype)
    place[order] = np.arange(len(order))
    return ptr, place[indices[k]], data[k], offset[order]


def _step_entries(indptr, indices, data, lo, hi):
    """Columns and values of the entries of rows ``lo:hi``, in CSR order,
    and the row of each, counted from ``lo``."""
    span = slice(indptr[lo], indptr[hi])
    return indices[span], data[span], _entry_rows(indptr[lo:hi + 1])


def _denominators(lo, diag):
    """``1 - diag`` of each row from ``lo``; ZeroDivisionError at the first
    row whose diagonal mass reaches 1."""
    denom = 1.0 - diag
    bad = np.flatnonzero(denom <= 0.0)
    if len(bad):
        k = bad[0]
        raise ZeroDivisionError(
            f"row {lo + k} of the plan: unit diagonal mass {diag[k]}")
    return denom


def _row_step(indptr, indices, data, offset, x, lo, hi, exact):
    """Solve rows ``lo:hi`` as their entries allow (see the module
    docstring).  Each row's diagonal mass goes to its denominator, and the
    vectorised update and the loop add its other terms to its offset in
    CSR order.  Recursive doubling writes row t as
    ``x_t = b_t + a_t x_next(t)``: ``b_t`` holds the terms of rows outside
    the step with the current ``x``, and ``a_t`` the one term of an
    earlier row of the step; a row without one points at itself with
    ``a_t = 0``.  Each round folds each link into the next,
    ``b_t += a_t b_next(t)``, ``a_t *= a_next(t)``,
    ``next(t) = next(next(t))``: after ceil(log2 rows) rounds every row
    points at a row without a link, and ``b`` is the solution."""
    cols, vals, owner = _step_entries(indptr, indices, data, lo, hi)
    size = hi - lo
    slot = cols - lo
    on_diag = slot == owner
    denom = _denominators(lo, np.bincount(owner[on_diag], vals[on_diag],
                                          minlength=size))
    earlier = (slot >= 0) & (slot < owner)
    if not earlier.any():
        off = ~on_diag
        acc = offset[lo:hi].copy()
        np.add.at(acc, owner[off], vals[off] * x[cols[off]])
        return acc / denom
    at = owner[earlier]
    if exact and np.bincount(at).max() == 1:  # an exact plan reads no later row
        outside = (slot < 0) | (slot >= size)
        b = offset[lo:hi] + np.bincount(
            owner[outside], vals[outside] * x[cols[outside]], minlength=size)
        b /= denom
        a = np.zeros(size)
        nxt = np.arange(size)
        a[at] = vals[earlier] / denom[at]
        nxt[at] = slot[earlier]
        for _ in range((size - 1).bit_length()):
            b += a * b[nxt]
            a *= a[nxt]
            nxt = nxt[nxt]
        return b
    off = ~on_diag
    cols, vals, owner, slot = cols[off], vals[off], owner[off], slot[off]
    # entry e reads buf[src[e]]: at e the x of a column outside the step,
    # at len(cols) + t row lo + t, which holds x until the row is updated
    # and then its new value
    inside = (slot >= 0) & (slot < size)
    src = np.where(inside, slot + len(cols), np.arange(len(cols))).tolist()
    buf = x[cols].tolist() + x[lo:hi].tolist()
    vals = vals.tolist()
    ptr = np.r_[0, np.cumsum(np.bincount(owner, minlength=size))].tolist()
    for t, (acc, d) in enumerate(zip(offset[lo:hi].tolist(), denom.tolist())):
        for e in range(ptr[t], ptr[t + 1]):
            acc += vals[e] * buf[src[e]]
        buf[len(cols) + t] = acc / d
    return np.array(buf[len(cols):])


def _level_entries(indptr, indices, data, steps):
    """What each block level of ``steps`` needs, in order, found in one
    pass over the renumbered system when the first level asks: which of
    its entries read an earlier level (a mask over the level's entries),
    and for the others, which read a row of the level, their places in
    the level's stacked ``I - M``, flattened, and the values there."""
    blocky = np.array([blocks is not None for _, _, blocks in steps])
    lo, hi = np.array([(lo, hi) for lo, hi, _ in steps]).T
    counts = indptr[hi] - indptr[lo]
    # each entry's column counted from its step's first row, which reads
    # a row of the step's block level when it is below the level's size
    read = np.repeat(lo, counts)
    np.subtract(indices, read, out=read)
    inside = read < np.repeat(np.where(blocky, hi - lo, 0), counts)
    inside &= read >= 0
    del read
    at = np.flatnonzero(inside)
    outside = np.logical_not(inside, out=inside)
    rows, cols = _entry_rows(indptr)[at], indices[at]
    # such an entry reads a row of its own block, so it lies on the
    # diagonal exactly when it reads its own row
    value = np.subtract(rows == cols, data[at])
    first, last = indptr[lo[blocky]], indptr[hi[blocky]]
    ends = np.searchsorted(at, last)
    del at
    slot = np.concatenate([np.zeros(b - a, dtype=np.int64) if blocks is None
                           else blocks.slots for a, b, blocks in steps])
    place, cols = slot[rows], slot[cols]
    del slot, rows
    width = np.repeat([blocks.width for _, _, blocks in steps
                       if blocks is not None], np.diff(ends, prepend=0))
    cols %= width
    place *= width
    place += cols
    del cols, width
    start = 0
    for a, b, end in zip(first.tolist(), last.tolist(), ends.tolist()):
        yield outside[a:b], place[start:end], value[start:end]
        start = end


def _block_step(indptr, indices, data, offset, x, lo, hi, blocks, entries):
    """Solve the stacked ``I - M`` systems of a level's blocks at once,
    from the level's ``entries`` of :func:`_level_entries`.  The entries
    that read an earlier level go to the right-hand side; the others read
    a row of their own block and are placed in the matrix, which starts
    as one identity per block, so a padded slot solves to 0."""
    slots, width, count = blocks
    outside, place, value = entries
    cols, vals, owner = _step_entries(indptr, indices, data, lo, hi)
    acc = offset[lo:hi].copy()
    np.add.at(acc, owner[outside], vals[outside] * x[cols[outside]])
    mat = np.repeat(np.eye(width)[np.newaxis], count, axis=0)
    mat.reshape(-1)[place] = value
    rhs = np.zeros(count * width)
    rhs[slots] = acc
    try:
        solved = np.linalg.solve(mat, rhs.reshape(count, width, 1))
    except np.linalg.LinAlgError as exc:
        raise ZeroDivisionError(
            f"singular block among rows {lo}..{hi - 1} of the plan") from exc
    return solved.ravel()[slots]


def gauss_seidel_sweep(indptr, indices, data, offset, x, plan: SweepPlan):
    """One in-place Gauss-Seidel pass of ``x = M x + offset`` in the level
    order of ``plan``, on the system and ``x`` renumbered into that order
    (:func:`renumber`)."""
    levels = _level_entries(indptr, indices, data, plan.steps)
    for lo, hi, blocks in plan.steps:
        args = (indptr, indices, data, offset, x, lo, hi)
        x[lo:hi] = (_row_step(*args, plan.exact) if blocks is None
                    else _block_step(*args, blocks, next(levels)))


def max_residual(indptr, indices, data, offset, x):
    """Largest row defect ``|x - (M x + offset)|`` without touching ``x``.
    Each row adds its terms to its offset in CSR order."""
    rows = _entry_rows(indptr)
    terms = x[indices]
    terms *= data
    acc = offset.copy()
    np.add.at(acc, rows, terms)
    del rows, terms
    acc -= x
    return float(np.abs(acc, out=acc).max(initial=0.0))
