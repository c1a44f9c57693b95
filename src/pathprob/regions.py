"""Exact clock-valuation algebra: regions, equivalences and representatives.

Clock valuations are plain tuples of numbers indexed by the automaton's
clock order.  All region logic is exact when the entries are
`fractions.Fraction`; the same functions also accept floats, and
:func:`region_signatures` tells the regions of whole arrays of float
valuations apart for the Monte Carlo sampler (where boundary events have
probability zero).

A region is an equivalence class of valuations that agree, per clock, on
whether the value exceeds its ceiling, on the integral part and on whether
the fractional part is zero, and globally on the ordering of the
fractional parts of all clocks at or below their ceilings.  Regions are
encoded canonically by :class:`RegionCode` so that code equality coincides
with the equivalence, and a delay (:func:`delay_walk`) or a reset
(:func:`reset_region`) steps from code to code without a valuation.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

import numpy as np

ClockValuation = Tuple[Fraction, ...]

HALF = Fraction(1, 2)


class UnknownClockError(ValueError):
    """A guard references a clock index outside the valuation."""


def int_part(value):
    return math.floor(value)


def frac_part(value):
    return value - math.floor(value)


# ---------------------------------------------------------------------------
# Valuation operations


def delay(eta: Sequence, t) -> tuple:
    """Advance every clock by ``t`` (t >= 0)."""
    if t < 0:
        raise ValueError(f"negative delay {t}")
    return tuple(v + t for v in eta)


def reset(eta: Sequence, clocks: Iterable[int]) -> tuple:
    """Set the given clock indices to zero, keep the rest."""
    zeroed = set(clocks)
    return tuple(0 * v if i in zeroed else v for i, v in enumerate(eta))


# guard relation -> its test of a clock value against a bound; the one
# place the relations are defined, read by guard evaluation here and by
# guard validation in :class:`pathprob.models.Guard`
RELATIONS: Mapping[str, Callable[[object, int], bool]] = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def guard_sat(eta: Sequence, guard) -> bool:
    """Exact satisfaction of a conjunctive guard at ``eta``, each term
    tested by its relation in :data:`RELATIONS`."""
    for term in guard.terms:
        if term.clock >= len(eta):
            raise UnknownClockError(
                f"guard constrains clock #{term.clock} but the valuation has "
                f"{len(eta)} clocks"
            )
        if not RELATIONS[term.op](eta[term.clock], term.bound):
            return False
    return True


# ---------------------------------------------------------------------------
# Region encoding


class RegionCode(NamedTuple):
    """Canonical region encoding.

    ``clocks`` holds one entry per clock: ``None`` when the clock exceeds
    its ceiling, otherwise ``(integral_part, frac_is_zero)``.  ``frac_order``
    is the ordered partition (by increasing fractional part, ties grouped,
    members sorted) of the clocks at or below their ceilings; when some of
    them have fractional part zero they form the first block.
    """

    clocks: tuple
    frac_order: tuple

    def is_marginal(self) -> bool:
        return any(c is not None and c[1] for c in self.clocks)


def region_of(eta: Sequence, ceilings: Sequence[int]) -> RegionCode:
    """Canonical code of the region containing ``eta``."""
    per_clock = []
    below = []
    for i, v in enumerate(eta):
        if v > ceilings[i]:
            per_clock.append(None)
        else:
            f = frac_part(v)
            per_clock.append((int_part(v), f == 0))
            below.append((f, i))
    below.sort(key=lambda p: p[0])
    blocks = []
    for _, group in itertools.groupby(below, key=lambda p: p[0]):
        blocks.append(tuple(sorted(i for _, i in group)))
    return RegionCode(tuple(per_clock), tuple(blocks))


def _signatures(whole: np.ndarray, frac: np.ndarray,
                above: np.ndarray) -> np.ndarray:
    """Integer region signature of each row of valuations given by their
    integral parts, fractional parts and above-ceiling flags.

    Per clock -1 above its ceiling, else ``2 * whole + (frac == 0)``; per
    pair of clocks the sign of the difference of their fractional parts,
    0 when either is above its ceiling.  That is the data of a
    :class:`RegionCode`, so two rows share a signature exactly when they
    lie in the same region.
    """
    n, k = whole.shape
    out = np.empty((n, k * (k + 1) // 2), dtype=np.int64)
    for a in range(k):
        out[:, a] = np.where(above[:, a], -1, 2 * whole[:, a] + (frac[:, a] == 0))
    for col, (a, b) in enumerate(itertools.combinations(range(k), 2), start=k):
        out[:, col] = np.where(above[:, a] | above[:, b], 0,
                               np.sign(frac[:, a] - frac[:, b]))
    return out


def region_signatures(valuations: np.ndarray,
                      ceilings: Sequence[int]) -> np.ndarray:
    """The region signature (see :func:`_signatures`) of every row of a
    float array of valuations.  The fractional part is ``v - floor(v)`` as
    in :func:`frac_part`, so the comparisons are those :func:`region_of`
    makes on the same floats, and two rows share a signature exactly when
    :func:`region_of` gives them the same code.
    """
    x = np.asarray(valuations, dtype=float)
    whole = np.floor(x)
    return _signatures(whole, x - whole, x > np.asarray(ceilings, dtype=float))


def per_distinct_row(keys: np.ndarray,
                     value_of: Callable[[int], int]) -> np.ndarray:
    """``value_of(i)`` for every row of the integer array ``keys``, called
    once per distinct row, at its first occurrence ``i``, in row order."""
    # a stable sort of the rows puts each distinct row's first occurrence
    # at the head of its run; rows without columns are all equal
    order = np.lexsort(keys.T) if keys.shape[1] else np.arange(len(keys))
    head = np.zeros(len(order), dtype=bool)
    head[:1] = True
    for column in keys.T:
        ranked = column[order]
        head[1:] |= ranked[1:] != ranked[:-1]
    run = np.empty(len(order), dtype=np.int64)
    run[order] = np.cumsum(head) - 1
    first = np.zeros(len(order), dtype=bool)
    first[order[head]] = True
    table = np.empty(int(head.sum()), dtype=np.int64)
    for i in np.flatnonzero(first).tolist():
        table[run[i]] = value_of(i)
    return table[run]


# ---------------------------------------------------------------------------
# Region steps


def time_successor(code: RegionCode, ceilings: Sequence[int]) -> RegionCode:
    """The region a delay enters on leaving ``code``, the time successor
    of Alur and Dill.

    The zero block moves off the integer, and a clock at its ceiling
    leaves the box; without a zero block, the block with the largest
    fraction reaches the next integer and becomes the zero block.  The
    region with every clock above its ceiling is its own successor.
    """
    clocks = list(code.clocks)
    blocks = code.frac_order
    if code.is_marginal():
        for i in blocks[0]:
            clocks[i] = None if clocks[i][0] == ceilings[i] else (clocks[i][0], False)
        moved = tuple(i for i in blocks[0] if clocks[i] is not None)
        blocks = ((moved,) if moved else ()) + blocks[1:]
    elif blocks:
        for i in blocks[-1]:
            clocks[i] = (clocks[i][0] + 1, True)
        blocks = blocks[-1:] + blocks[:-1]
    return RegionCode(tuple(clocks), blocks)


def delay_walk(code: RegionCode, ceilings: Sequence[int]) -> list:
    """The non-marginal regions a delay from ``code`` passes through, in
    order: the plus region (``code`` itself unless it is marginal), then
    every second time successor, up to the region with every clock above
    its ceiling."""
    step = time_successor(code, ceilings) if code.is_marginal() else code
    walk = [step]
    while step.frac_order:
        step = time_successor(time_successor(step, ceilings), ceilings)
        walk.append(step)
    return walk


def reset_region(code: RegionCode, clocks: Iterable[int]) -> RegionCode:
    """The region of ``code``'s valuations with the given clocks set to
    zero: each becomes ``(0, True)`` and joins the zero block."""
    zeroed = frozenset(clocks)
    if not zeroed:
        return code
    # the old zero block stays at zero
    zero = zeroed.union(code.frac_order[0]) if code.is_marginal() else zeroed
    rest = tuple(kept for kept in (tuple(i for i in block if i not in zero)
                                   for block in code.frac_order) if kept)
    per_clock = tuple((0, True) if i in zeroed else c
                      for i, c in enumerate(code.clocks))
    return RegionCode(per_clock, (tuple(sorted(zero)),) + rest)


# ---------------------------------------------------------------------------
# Region enumeration


def _ordered_set_partitions(items: tuple) -> Iterator[tuple]:
    """All ordered partitions (sequences of disjoint non-empty blocks)."""
    if not items:
        yield ()
        return
    n = len(items)
    for first_size in range(1, n + 1):
        for combo in itertools.combinations(items, first_size):
            rest = tuple(i for i in items if i not in combo)
            for tail in _ordered_set_partitions(rest):
                yield (tuple(sorted(combo)),) + tail


def enumerate_region_codes(ceilings: Sequence[int]) -> list:
    """Every region over the given ceilings, in a stable order.

    The count is finite: per clock either "above ceiling" or an integral
    part with a zero-fraction flag, combined with every ordered partition
    of the non-integer clocks by fractional part.
    """
    per_clock_options = []
    for c in ceilings:
        options = [None]
        for k in range(c + 1):
            options.append((k, True))
            if k < c:
                options.append((k, False))
        per_clock_options.append(options)
    codes = []
    for assignment in itertools.product(*per_clock_options):
        zero_block = tuple(
            sorted(i for i, o in enumerate(assignment) if o is not None and o[1])
        )
        fractional = tuple(
            i for i, o in enumerate(assignment) if o is not None and not o[1]
        )
        for blocks in _ordered_set_partitions(fractional):
            order = ((zero_block,) if zero_block else ()) + blocks
            codes.append(RegionCode(tuple(assignment), order))
    return codes


def region_count(ceilings: Sequence[int]) -> int:
    """``len(enumerate_region_codes(ceilings))``, without enumerating.

    A clock has ``c + 2`` options with a zero fractional part or above its
    ceiling and ``c`` with a positive one; the n clocks of positive
    fractional part are then ordered by an ordered set partition, of which
    there are Fubini(n).  So the count weights the coefficient of ``z**n``
    in the product over clocks of ``(c + 2) + c*z`` by Fubini(n).
    """
    poly = [1]
    for c in ceilings:
        nxt = [0] * (len(poly) + 1)
        for n, coef in enumerate(poly):
            nxt[n] += coef * (c + 2)
            nxt[n + 1] += coef * c
        poly = nxt
    fubini = [1]
    for n in range(1, len(poly)):
        fubini.append(sum(math.comb(n, k) * fubini[n - k] for k in range(1, n + 1)))
    return sum(coef * f for coef, f in zip(poly, fubini))


def _place(code: RegionCode, ceilings: Sequence[int], fractions: Callable,
           offset: Callable) -> ClockValuation:
    """The valuation of region ``code`` whose blocks of positive fractional
    part take the increasing values ``fractions(count)``, in order, and
    whose clocks above their ceilings sit ``offset()`` past them, called
    per such clock in clock order after ``fractions``."""
    blocks = code.frac_order
    zero = bool(blocks) and code.clocks[blocks[0][0]][1]  # a first block at 0
    frac = dict.fromkeys(blocks[0], Fraction(0)) if zero else {}
    for block, f in zip(blocks[zero:], fractions(len(blocks) - zero)):
        frac.update(dict.fromkeys(block, f))
    return tuple(Fraction(ceilings[i]) + offset() if opt is None
                 else Fraction(opt[0]) + frac[i]
                 for i, opt in enumerate(code.clocks))


def region_representative(
    code: RegionCode, ceilings: Sequence[int]
) -> ClockValuation:
    """A canonical exact valuation whose region is ``code``.

    Above-ceiling clocks sit half a unit past the ceiling; fractional
    blocks receive equally spaced fractions below one.
    """
    return _place(code, ceilings,
                  lambda k: [Fraction(rank, k + 1) for rank in range(1, k + 1)],
                  lambda: HALF)


def sample_in_region(
    code: RegionCode, ceilings: Sequence[int], rng
) -> ClockValuation:
    """A random exact valuation inside the region ``code``.

    Fraction blocks get strictly increasing random rationals in (0, 1);
    above-ceiling clocks get a random positive offset past the ceiling.
    """
    def fractions(k):
        draws = set()
        while len(draws) < k:
            draws.add(Fraction(int(rng.integers(1, 997)), 997))
        return sorted(draws)

    return _place(code, ceilings, fractions,
                  lambda: Fraction(int(rng.integers(1, 5000)), 1000))


# ---------------------------------------------------------------------------
# Numbered regions on the grid


def grid_points(ceilings: Sequence[int], m: int) -> np.ndarray:
    """The points of the m-grid over the ceiling box, one row each: the
    integer vectors ``j`` with ``0 <= j[i] <= m*ceilings[i]`` (valuation
    ``j/m``) in ``itertools.product`` order."""
    shape = tuple(m * c + 1 for c in ceilings)
    return np.indices(shape).reshape(len(shape), math.prod(shape)).T


def grid_region_numbers(
    ceilings: Sequence[int], m: int, numbers: Mapping[RegionCode, int],
    points: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Region number of every point of the m-grid over the ceiling box.

    ``points`` are the :func:`grid_points` of the box, made here when not
    given; ``numbers`` maps a region to its number.  No grid point exceeds
    a ceiling, so its region is fixed by an integer signature: per clock
    ``j // m`` and whether m divides ``j``, and per pair of clocks the
    sign of ``j_a % m - j_b % m`` (:func:`_signatures`).  One exact
    :func:`region_of` call per distinct signature numbers them all.
    """
    if points is None:
        points = grid_points(ceilings, m)
    whole, rest = np.divmod(points, m)
    signature = _signatures(whole, rest, np.zeros(points.shape, dtype=bool))
    return per_distinct_row(signature, lambda i: numbers[region_of(
        tuple(Fraction(int(j), m) for j in points[i]), ceilings)])
