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
the entries.

:func:`exact_plan` orders the rows so that one sweep solves the system
exactly, in block-triangular order (Duff and Reid, 1978).  No rule resets
a clock of the slice key, so jumps keep the key and delay steps raise
it: slices come by decreasing key.  The rows of one box point form a
block, solved together.  Inside a slice, a point comes after every other
point it reads, by the longest chain of such reads ending at it, and the
rows of a level come by point.  A level of multi-row blocks is one step:
the entries of other points go to the right-hand side, those of its own
point to a small dense matrix, and one batched ``np.linalg.solve`` solves
all of the level's blocks.  When there is no such order (a rule resets
every clock in a loop, a block is too large, or a slice holds delay
chains) the plan is None.

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
least ``WIDE`` single rows is one atomic vectorised step.  A run of
narrower levels (a one-clock chain has one row per level) is cut into
chunks of at most ``CHUNK`` rows.  The fallback sweeps every chunk with
a scalar loop over list copies.  The exact plan turns a chunk in which
each row reads at most one other row of it, an earlier one, into a chain
step: the recurrence ``x_t = b_t + a_t x_next(t)`` solved by recursive
doubling (Kogge and Stone, 1973), exact up to rounding but not
bit-identical to the loop.  Other chunks keep the scalar loop.  On a
one-clock chain without resets both plans have the same order and
chunks, and every chunk of the exact plan is a chain step.
"""

from typing import NamedTuple, Optional, Tuple

import numpy as np

WIDE = 32
CHUNK = 1024
BLOCK = 16  # most rows at one point that the exact pass solves together
CHAIN = "chain"  # the kind of an exact plan's step over a chunk of delay chains


class Blocks(NamedTuple):
    """A level of multi-row blocks: ``slots[t]``, the place
    ``block * width + position`` of the level's row ``lo + t`` among
    ``count`` stacked systems of ``width`` rows."""

    slots: np.ndarray
    width: int
    count: int


class SweepPlan(NamedTuple):
    """Rows in level order and the steps of a sweep.  A step
    ``(lo, hi, kind)`` updates ``order[lo:hi]``: ``kind`` is None for a
    scalar chunk, :data:`CHAIN` for a chunk of delay chains (exact plans
    only), ``"wide"`` for a wide level and :class:`Blocks` for a level of
    multi-row blocks."""

    order: np.ndarray
    steps: Tuple[Tuple[int, int, object], ...]


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
    scalar chunks over each run of other levels.  ``point`` is the point
    of each row of ``order``, which groups the rows of a level, or None
    for the fallback plan, which has no blocks."""
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
        elif block:
            at = point[lo:hi]
            new = np.r_[True, at[1:] != at[:-1]]
            which = np.cumsum(new) - 1
            position = np.arange(hi - lo) - np.flatnonzero(new)[which]
            width = int(position.max()) + 1
            steps.append((lo, hi, Blocks(which * width + position, width,
                                         int(which[-1]) + 1)))
        else:
            steps.append((lo, hi, "wide"))
    return SweepPlan(order, tuple(steps))


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
    slice may hold a cycle.  A scalar chunk whose rows read at most one
    earlier row of it each becomes a :data:`CHAIN` step.
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
    level *= int(sub.max()) + 1
    level += sub[point]
    del sub
    level *= points
    level += point
    order = np.argsort(level, kind="stable")
    level = level[order]
    level //= points
    starts = _starts(level)
    del level
    plan = _steps(order, starts, point[order])
    return plan._replace(steps=_chains(indptr, indices, plan))


def _chains(indptr, indices, plan):
    """The steps of an exact ``plan``, each scalar chunk whose rows read at
    most one other row of it a :data:`CHAIN` step; in an exact order that
    row comes earlier."""
    scalar = [s for s, (_, _, kind) in enumerate(plan.steps) if kind is None]
    if not scalar:
        return plan.steps
    chunk = np.full(len(plan.order), -1, dtype=np.int64)  # step of each row's chunk
    for s in scalar:
        lo, hi, _ = plan.steps[s]
        chunk[plan.order[lo:hi]] = s
    rows = _entry_rows(indptr)
    own = chunk[rows]
    inside = chunk[indices] == own
    inside &= own >= 0
    del own
    inside &= indices != rows
    reads = np.bincount(rows[inside], minlength=len(chunk))
    twice = np.zeros(len(plan.steps), dtype=bool)
    twice[chunk[reads > 1]] = True
    return tuple((lo, hi, CHAIN) if kind is None and not twice[s] else (lo, hi, kind)
                 for s, (lo, hi, kind) in enumerate(plan.steps))


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


def _wide_step(indptr, indices, data, offset, x, lo, hi):
    cols, vals, owner = _step_entries(indptr, indices, data, lo, hi)
    on_diag = cols == owner + lo
    off = ~on_diag
    acc = offset[lo:hi].copy()
    np.add.at(acc, owner[off], vals[off] * x[cols[off]])
    diag = np.bincount(owner[on_diag], vals[on_diag], minlength=hi - lo)
    return acc / _denominators(lo, diag)


def _scalar_step(indptr, indices, data, offset, x, lo, hi):
    cols, vals, owner = _step_entries(indptr, indices, data, lo, hi)
    size = len(cols)
    # entry e reads buf[src[e]]: at e the x of a column outside the chunk,
    # at size + t row lo + t, which holds x until the row is updated and
    # then its new value; src is -1 for a diagonal entry
    inside = (cols >= lo) & (cols < hi)
    src = np.where(inside, cols - lo + size, np.arange(size))
    src[cols == owner + lo] = -1
    buf = x[cols].tolist() + x[lo:hi].tolist()
    src, vals = src.tolist(), vals.tolist()
    ptr = (indptr[lo:hi + 1] - indptr[lo]).tolist()
    for t, acc in enumerate(offset[lo:hi].tolist()):
        diag = 0.0
        for e in range(ptr[t], ptr[t + 1]):
            s = src[e]
            if s < 0:
                diag += vals[e]
            else:
                acc += vals[e] * buf[s]
        denom = 1.0 - diag
        if denom <= 0.0:
            raise ZeroDivisionError(
                f"row {lo + t} of the plan: unit diagonal mass {diag}")
        buf[size + t] = acc / denom
    return np.array(buf[size:])


def _chain_step(indptr, indices, data, offset, x, lo, hi):
    """Solve a chunk in which each row reads at most one earlier row of it.
    Row t is ``x_t = b_t + a_t x_next(t)``: its diagonal mass goes to the
    denominator, its entries outside the chunk to ``b_t`` with the current
    ``x``, and its one in-chunk entry to ``a_t``; a row without one points
    at itself with ``a_t = 0``.  Recursive doubling (Kogge and Stone,
    1973) then folds each link into the next, ``b_t += a_t b_next(t)``,
    ``a_t *= a_next(t)``, ``next(t) = next(next(t))``: after
    ceil(log2 rows) rounds every row points at a row without a link, and
    ``b`` is the solution."""
    cols, vals, owner = _step_entries(indptr, indices, data, lo, hi)
    size = hi - lo
    slot = cols - lo
    outside = (slot < 0) | (slot >= size)
    on_diag = slot == owner
    link = ~outside & ~on_diag
    diag = np.bincount(owner[on_diag], vals[on_diag], minlength=size)
    denom = _denominators(lo, diag)
    b = offset[lo:hi] + np.bincount(owner[outside], vals[outside] * x[cols[outside]],
                                    minlength=size)
    b /= denom
    a = np.zeros(size)
    nxt = np.arange(size)
    at = owner[link]
    a[at] = vals[link] / denom[at]
    nxt[at] = slot[link]
    for _ in range((size - 1).bit_length()):
        b += a * b[nxt]
        a *= a[nxt]
        nxt = nxt[nxt]
    return b


def _block_step(indptr, indices, data, offset, x, lo, hi, blocks):
    """Solve the stacked ``I - M`` systems of a level's blocks at once.
    An entry reads a row of the level only inside its own block: it goes
    to the matrix, every other entry to the right-hand side."""
    slots, width, count = blocks
    cols, vals, owner = _step_entries(indptr, indices, data, lo, hi)
    inside = (cols >= lo) & (cols < hi)
    outside = ~inside
    acc = offset[lo:hi].copy()
    np.add.at(acc, owner[outside], vals[outside] * x[cols[outside]])
    mat = np.tile(np.eye(width), (count, 1))  # row slot s of I - M
    mat[slots[owner[inside]], slots[cols[inside] - lo] % width] -= vals[inside]
    rhs = np.zeros(count * width)
    rhs[slots] = acc
    try:
        solved = np.linalg.solve(mat.reshape(count, width, width),
                                 rhs.reshape(count, width, 1))
    except np.linalg.LinAlgError as exc:
        raise ZeroDivisionError(
            f"singular block among rows {lo}..{hi - 1} of the plan") from exc
    return solved.ravel()[slots]


def gauss_seidel_sweep(indptr, indices, data, offset, x, plan: SweepPlan):
    """One in-place Gauss-Seidel pass of ``x = M x + offset`` in the level
    order of ``plan``, on the system and ``x`` renumbered into that order
    (:func:`renumber`)."""
    for lo, hi, kind in plan.steps:
        args = (indptr, indices, data, offset, x, lo, hi)
        if kind is None:
            x[lo:hi] = _scalar_step(*args)
        elif kind is CHAIN:
            x[lo:hi] = _chain_step(*args)
        elif isinstance(kind, Blocks):
            x[lo:hi] = _block_step(*args, kind)
        else:
            x[lo:hi] = _wide_step(*args)


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
