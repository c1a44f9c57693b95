"""Gauss-Seidel sweep kernel of the fixed-point solver, in numpy.

A sweep updates every row of ``x = M x + offset`` once, in the level
order of a plan.  Diagonal entries move to the left-hand side, so each
row is satisfied exactly when it is updated, and each row adds its terms
in CSR order.  Every entry reads the current ``x``.

:func:`exact_plan` orders the rows so that one sweep solves the system
exactly, in block-triangular order (Duff and Reid, 1978).  No rule resets
a clock of the slice key, so jumps keep the key and delay steps raise
it: slices come by decreasing key.  The rows of one box point form a
block, solved together.  Inside a slice, a point comes after every other
point it reads, by the longest chain of such reads ending at it.  A
level of multi-row blocks is one step: the entries of other points go to
the right-hand side, those of its own point to a small dense matrix, and
one batched ``np.linalg.solve`` solves all of the level's blocks.  When
there is no such order (a rule resets every clock in a loop, a block is
too large, or a slice holds delay chains) the plan is None.

:func:`sweep_plan` is the fallback: it levels each row by its horizon
and then by a sub-level, one more than the highest sub-level of the
row's lower-indexed entries of equal horizon (the wavefront triangular
solve of Anderson and Saad, 1989).  Rows later in that order can be read
before they are updated, so the sweeps are repeated until the residual
is small, and every iterate is bit-identical to the one-row-at-a-time
sweep in level order, ties by row index.

No row reads a lower-indexed row of its own level, for that row would lie
in an earlier level, and a row reads a higher-indexed row of its level
before the sequential sweep updates it.  So in both plans a level of at
least ``WIDE`` single rows is one atomic vectorised step that walks the
CSR by position within the row.  A run of narrower levels (a one-clock
chain has one row per level) is cut into chunks of at most ``CHUNK``
rows.  The fallback sweeps every chunk with a scalar loop over list
copies.  The exact plan turns a chunk in which each row reads at most
one other row of it, an earlier one, into a chain step: the recurrence
``x_t = b_t + a_t x_next(t)`` solved by recursive doubling (Kogge and
Stone, 1973), exact up to rounding but not bit-identical to the loop.
Other chunks keep the scalar loop.  On a one-clock chain without resets
both plans have the same order and chunks, and every chunk of the exact
plan is a chain step.
"""

from typing import NamedTuple, Optional, Tuple

import numpy as np

WIDE = 32
CHUNK = 1024
BLOCK = 16  # most rows at one point that the exact pass solves together
CHAIN = "chain"  # the kind of an exact plan's step over a chunk of delay chains


class Blocks(NamedTuple):
    """A level of multi-row blocks: ``counts`` as for a wide level, and
    ``slots[t]``, the place ``block * width + position`` of row
    ``order[lo + t]`` among ``count`` stacked systems of ``width`` rows."""

    counts: Tuple[int, ...]
    slots: np.ndarray
    width: int
    count: int


class SweepPlan(NamedTuple):
    """Rows in level order and the steps of a sweep.  A step
    ``(lo, hi, counts)`` updates ``order[lo:hi]``:
    ``counts`` is None for a scalar chunk and :data:`CHAIN` for a chunk of
    delay chains (exact plans only); for a wide level, whose longest rows
    come first, ``counts[p]`` is the number of rows with more than ``p``
    entries; for a level of multi-row blocks it is :class:`Blocks`."""

    order: np.ndarray
    steps: Tuple[Tuple[int, int, object], ...]


def _entries(indptr, indices):
    """Every entry of the CSR as (row, column) arrays, walked ``CHUNK``
    rows at a time by position within the row."""
    n = len(indptr) - 1
    for lo in range(0, n, CHUNK):
        rows = np.arange(lo, min(lo + CHUNK, n))
        first = indptr[rows]
        lengths = indptr[rows + 1] - first
        for p in range(int(lengths.max())):
            has = lengths > p
            yield rows[has], indices[first[has] + p]


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
    heads, tails = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for r, j in _entries(indptr, indices):
        lower = (j < r) & (horizons[j] == horizons[r])
        heads.append(r[lower])
        tails.append(j[lower])
    n = len(horizons)
    return _longest_paths(np.concatenate(heads), np.concatenate(tails), n, n + 1)


def _steps(indptr, order, starts, point=None) -> SweepPlan:
    """The plan over ``order``, whose levels begin at ``starts``: one step
    per wide level and per level holding two rows of one point, and
    scalar chunks over each run of other levels.  ``point`` is the point
    of each row of ``order``, by which the rows of a level are grouped,
    or None when no two rows share a point."""
    n = len(order)
    alone = np.diff(np.r_[starts, n]) >= WIDE
    blocky = np.zeros(len(starts), dtype=bool)
    if point is not None:
        new = np.r_[True, point[1:] != point[:-1]]
        new[starts] = True
        blocky = np.add.reduceat(new, starts) < np.diff(np.r_[starts, n])
        alone |= blocky
        del new
    # a step starts at every level of its own and at the first level of
    # each run of the others
    first = alone | np.r_[True, alone[:-1]]
    begins = starts[first].tolist()
    steps = []
    for lo, hi, own, block in zip(begins, begins[1:] + [n], alone[first].tolist(),
                                  blocky[first].tolist()):
        if not own:
            steps.extend(
                (a, min(a + CHUNK, hi), None) for a in range(lo, hi, CHUNK)
            )
            continue
        rows = order[lo:hi]
        lengths = indptr[rows + 1] - indptr[rows]
        longest_first = np.argsort(-lengths, kind="stable")
        order[lo:hi] = rows[longest_first]
        lengths = lengths[longest_first]
        counts = tuple(
            int(np.count_nonzero(lengths > p)) for p in range(lengths[0])
        )
        if block:
            at = point[lo:hi]
            new = np.r_[True, at[1:] != at[:-1]]
            which = np.cumsum(new) - 1
            position = np.arange(hi - lo) - np.flatnonzero(new)[which]
            width = int(position.max()) + 1
            counts = Blocks(counts, (which * width + position)[longest_first],
                            width, int(which[-1]) + 1)
        steps.append((lo, hi, counts))
    return SweepPlan(order, tuple(steps))


def _starts(level):
    """Where each run of equal values of the sorted ``level`` begins."""
    return np.flatnonzero(np.r_[True, level[1:] != level[:-1]])


def sweep_plan(indptr, indices, horizons) -> SweepPlan:
    """Levels and steps of the fallback sweeps in level order: horizon,
    then sub-level, then row index.  O(n) memory."""
    level = _sublevels(indptr, indices, horizons)
    level += horizons * (int(level.max(initial=0)) + 1)
    order = np.argsort(level, kind="stable")
    level = level[order]
    starts = _starts(level)
    del level
    return _steps(indptr, order, starts)


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
    slice may hold a cycle.  A scalar chunk whose rows read at most one
    earlier row of it each becomes a :data:`CHAIN` step.  O(n) memory.
    """
    points = int(point.max(initial=-1)) + 1
    widest = int(np.bincount(point).max(initial=0))
    if widest > BLOCK:
        return None
    heads, tails = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for r, j in _entries(indptr, indices):
        key, read = slice_key[r], slice_key[j]
        if (read < key).any():
            return None
        between = (read == key) & (point[j] != point[r])
        heads.append(point[r[between]])
        tails.append(point[j[between]])
    sub = _longest_paths(np.concatenate(heads), np.concatenate(tails),
                         points, clocks + 1)
    if sub is None:
        return None
    level = int(slice_key.max(initial=0)) - slice_key
    level *= int(sub.max()) + 1
    level += sub[point]
    del sub
    grouped = widest > 1  # the rows of one point side by side in a level
    if grouped:
        level *= points
        level += point
    order = np.argsort(level, kind="stable")
    level = level[order]
    if grouped:
        level //= points
    starts = _starts(level)
    del level
    plan = _steps(indptr, order, starts, point[order] if grouped else None)
    return plan._replace(steps=_chains(indptr, indices, plan))


def _chains(indptr, indices, plan):
    """The steps of an exact ``plan``, each scalar chunk whose rows read at
    most one other row of it a :data:`CHAIN` step; in an exact order that
    row comes earlier.  One walk over the entries counts those reads."""
    scalar = [s for s, (_, _, counts) in enumerate(plan.steps) if counts is None]
    if not scalar:
        return plan.steps
    chunk = np.full(len(plan.order), -1, dtype=np.int64)  # step of each row's chunk
    for s in scalar:
        lo, hi, _ = plan.steps[s]
        chunk[plan.order[lo:hi]] = s
    reads = np.zeros(len(chunk), dtype=np.int64)
    for r, j in _entries(indptr, indices):
        own = chunk[r]
        reads[r[(own >= 0) & (chunk[j] == own) & (j != r)]] += 1
    twice = np.zeros(len(plan.steps), dtype=bool)
    twice[chunk[reads > 1]] = True
    return tuple((lo, hi, CHAIN) if counts is None and not twice[s] else (lo, hi, counts)
                 for s, (lo, hi, counts) in enumerate(plan.steps))


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
    return acc / _denominators(rows, diag)


def _denominators(rows, diag):
    """``1 - diag`` of each row; ZeroDivisionError at the first row whose
    diagonal mass reaches 1."""
    denom = 1.0 - diag
    bad = np.flatnonzero(denom <= 0.0)
    if len(bad):
        k = bad[0]
        raise ZeroDivisionError(f"row {rows[k]}: unit diagonal mass {diag[k]}")
    return denom


def _chunk_entries(indptr, indices, rows):
    """The entries of a chunk's ``rows`` in CSR order: their places ``k``
    in the CSR, their columns, the chunk place ``owner`` of their row and
    the chunk place ``slot`` of their column, -1 outside the chunk; and
    ``ptr``, where the entries of each row begin."""
    first = indptr[rows]
    lengths = indptr[rows + 1] - first
    ptr = np.r_[0, np.cumsum(lengths)]
    k = np.repeat(first - ptr[:-1], lengths) + np.arange(ptr[-1])
    cols = indices[k]
    owner = np.repeat(np.arange(len(rows)), lengths)
    by_row = np.argsort(rows)
    slot = by_row[np.searchsorted(rows, cols, sorter=by_row).clip(max=len(rows) - 1)]
    slot[rows[slot] != cols] = -1
    return k, cols, owner, slot, ptr


def _scalar_step(indptr, indices, data, offset, x, rows):
    k, cols, owner, slot, ptr = _chunk_entries(indptr, indices, rows)
    size = len(k)
    # entry e reads buf[src[e]]: x of a row outside the chunk, or at size + t
    # chunk row t, which holds x until the row is updated and then its new value
    src = np.arange(size)
    in_chunk = slot >= 0
    src[in_chunk] = size + slot[in_chunk]
    src[slot == owner] = -1
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


def _chain_step(indptr, indices, data, offset, x, rows):
    """Solve a chunk in which each row reads at most one earlier row of it.
    Row t is ``x_t = b_t + a_t x_next(t)``: its diagonal mass goes to the
    denominator, its entries outside the chunk to ``b_t`` with the current
    ``x``, and its one in-chunk entry to ``a_t``; a row without one points
    at itself with ``a_t = 0``.  Recursive doubling (Kogge and Stone,
    1973) then folds each link into the next, ``b_t += a_t b_next(t)``,
    ``a_t *= a_next(t)``, ``next(t) = next(next(t))``: after
    ceil(log2 rows) rounds every row points at a row without a link, and
    ``b`` is the solution."""
    k, cols, owner, slot, _ = _chunk_entries(indptr, indices, rows)
    vals = data[k]
    on_diag = slot == owner
    link = (slot >= 0) & ~on_diag
    outside = slot < 0
    diag = np.bincount(owner[on_diag], vals[on_diag], minlength=len(rows))
    denom = _denominators(rows, diag)
    b = offset[rows] + np.bincount(owner[outside], vals[outside] * x[cols[outside]],
                                   minlength=len(rows))
    b /= denom
    a = np.zeros(len(rows))
    nxt = np.arange(len(rows))
    at = owner[link]
    a[at] = vals[link] / denom[at]
    nxt[at] = slot[link]
    for _ in range((len(rows) - 1).bit_length()):
        b += a * b[nxt]
        a *= a[nxt]
        nxt = nxt[nxt]
    return b


def _block_step(indptr, indices, data, offset, x, rows, blocks, slot_of):
    """Solve the stacked ``I - M`` systems of a level's blocks at once.
    An entry reads a row of the level only inside its own block: it goes
    to the matrix, every other entry to the right-hand side.  ``slot_of``
    is -1 for every row on entry and on return."""
    counts, slots, width, count = blocks
    slot_of[rows] = slots
    first = indptr[rows]
    acc = offset[rows]
    mat = np.tile(np.eye(width), (count, 1))  # row slot s of I - M
    for p, c in enumerate(counts):
        k = first[:c] + p
        j = indices[k]
        v = data[k]
        at = slot_of[j]
        inside = at >= 0
        head = acc[:c]
        np.add(head, v * x[j], out=head, where=~inside)
        mat[slots[:c][inside], at[inside] % width] -= v[inside]
    slot_of[rows] = -1
    rhs = np.zeros(count * width)
    rhs[slots] = acc
    try:
        solved = np.linalg.solve(mat.reshape(count, width, width),
                                 rhs.reshape(count, width, 1))
    except np.linalg.LinAlgError as exc:
        raise ZeroDivisionError(
            f"singular block among rows {rows.min()}..{rows.max()}") from exc
    return solved.ravel()[slots]


def gauss_seidel_sweep(indptr, indices, data, offset, x, plan: SweepPlan):
    """One in-place Gauss-Seidel pass of ``x = M x + offset`` in the level
    order of ``plan``."""
    slot_of = None
    for lo, hi, counts in plan.steps:
        rows = plan.order[lo:hi]
        args = (indptr, indices, data, offset, x, rows)
        if counts is None:
            x[rows] = _scalar_step(*args)
        elif counts is CHAIN:
            x[rows] = _chain_step(*args)
        elif isinstance(counts, Blocks):
            if slot_of is None:
                slot_of = np.full(len(x), -1, dtype=np.int32)
            x[rows] = _block_step(*args, counts, slot_of)
        else:
            x[rows] = _wide_step(*args, counts)


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
