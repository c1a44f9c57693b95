"""Grid construction and assembly of the fixed-point linear schemes.

The unit box spanned by the clock ceilings is discretized with step
``rho = 1/m``.  A point of the box is the integer vector ``coords`` of the
numerators of its valuation over m, and ``b``, its position in
``itertools.product`` order; a grid point is the integer cell
``c = (state * L + location) * B + b`` over L locations and B box points.
What depends on the box point alone is worked out once per point, in
tables of B rows: its region number (from an integer signature of its
coordinates), the cells a saturated delay step adds, the cells a reset of
each clock subset removes and its slice key.  Every cell inherits the
class (final / alive / dead) of its region vertex and the jump rule of its
region from the product graph's class and rule tables, and every row reads
the point tables through its b, by array lookups.  The alive cells, in
cell order, at the box points a query's start reaches (or at all of
them), are the unknowns of two equivalent sparse systems:

* the one-step form ``mu = C mu + d``: each interior row couples a point to
  its saturated diagonal-delay neighbour and to its jump successors;
* the unfolded form ``mu = A mu + b``: the diagonal-delay chain is expanded
  through the point's horizon with geometric weights, leaving only jump
  successors and a boundary tail.

Both assemblies read the grid's per-row successor arrays, the row of the
delay neighbour and the row of each jump successor, and pack their
entries into CSR rows the same way; an independent transcription of the
unfolded equations lives in the test suite as a cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

import numpy as np

from . import regions
from .models import Ctmc, Dta, ModelConstants
from .product import ALIVE_CLASS, ProductGraph

GAMMA_PRIME = "gamma_prime"
GAMMA_DOUBLE = "gamma_double"
_NEVER = np.iinfo(np.int64).max  # the lower bound of a clock that fixes t


def grid_cells(chain: Ctmc, dta: Dta, m: int) -> int:
    """Number of (state, location, valuation) points of the m-grid."""
    return (
        len(chain.states)
        * len(dta.locations)
        * math.prod(m * c + 1 for c in dta.ceilings)
    )


class Grid:
    """The m-grid of a product graph's model (its ``ctmc`` and ``dta``),
    as cell numbers: every point, or with ``start`` the box points that
    the box point ``start`` (integer coordinates) reaches,
    :func:`reachable_points`.

    ``cell_class[c]`` is the class of cell c (an index into
    :data:`CLASS_NAMES`) at every point, ``cells[k]`` the cell of row k,
    the k-th kept alive cell in cell order, and ``slot_of[c]`` the row of
    cell c, or -1 when c is dead, final or not kept.  A box point is kept
    or dropped with all its cells, and no kept row reads a dropped one, so
    the rows of a kept point are those of the full grid.  Per row,
    ``row_state`` is its CTMC state number, ``delay_row`` the row of its
    saturated rho-delay neighbour (-1 when that point is dead, and on the
    all-ceilings boundary ``is_bmax``),
    ``jump_rows[k, u]`` the row a jump to state u lands on (-1 when the
    jump has probability 0 or lands on a dead or final point) and
    ``to_final`` whether the rule enabled immediately after the point
    leads to a final location.  The rule comes from the rule table at the
    point's region, and its reset applies to the grid valuation itself.
    The cell is the only form of a grid point: :meth:`cell` numbers the
    point with given integer coordinates (the numerators of its valuation
    over m), and ``horizons[k]``, computed on first read, is the horizon
    of row k (only the fallback sweeps and the unfolded form read it).
    The exact pass of the solver reads two more per-row arrays, stored
    with the others: ``point[k]``, the box point b of row k, and
    ``slice_key[k]``, the sum of its coordinates over the clocks that no
    rule of the product graph resets, a sum that no jump or delay step
    lowers.  A query's exact start valuation becomes integer coordinates
    in one place, :func:`pathprob.solver._snap_to_grid`.

    Rows are built from per-box-point tables, each read through the row's
    b: the coordinates (:func:`regions.grid_points`), the region, the
    cell step of the saturated delay, the cells removed by a reset of
    each of the 2^k clock subsets (the column of a row's rule's reset
    bits) and the slice key.  Rows come in one run per (state, location)
    place, so the state and the rule table's (location, label) part of a
    row are per-place values repeated over the run.
    """

    def __init__(self, graph: ProductGraph, m: int,
                 start: Optional[Sequence[int]] = None):
        if m < 1:
            raise ValueError("grid resolution m must be >= 1")
        self.chain = chain = graph.ctmc
        self.dta = dta = graph.dta
        self.graph = graph
        self.m = m
        self.ceilings = dta.ceilings
        self.max_coords = tuple(m * c for c in dta.ceilings)
        self.d_m_size = grid_cells(chain, dta, m)
        shape = tuple(mc + 1 for mc in self.max_coords)
        self.box_size = math.prod(shape)
        self.strides = tuple(math.prod(shape[i + 1:]) for i in range(len(shape)))
        strides = np.array(self.strides, dtype=np.int64)

        # the per-box-point tables; column s of `removed` holds the cells
        # a reset of the clocks in the bits of s removes
        coords = regions.grid_points(self.ceilings, m)
        region = regions.grid_region_numbers(self.ceilings, m,
                                             graph.region_number, coords)
        step = (coords < self.max_coords) @ strides
        bits = 1 << np.arange(len(shape))
        in_subset = (np.arange(1 << len(shape)) & bits[:, None]) != 0
        removed = coords @ (in_subset * strides[:, None])
        resettable = graph.rule_resets.any(axis=(0, 1, 2))
        point_key = coords @ ~resettable
        kept = (np.ones(self.box_size, dtype=bool) if start is None else
                reachable_points(coords, self.max_coords, resettable, start))

        cell_class = graph.class_table[:, :, region]
        alive = (cell_class == ALIVE_CLASS) & kept
        self.cell_class = cell_class.ravel()
        self.cells = np.flatnonzero(alive)
        self.slot_of = np.full(self.d_m_size, -1, dtype=np.int32)
        self.slot_of[self.cells] = np.arange(len(self.cells))

        # rows come in one run per place (state, location), in place
        # order; a per-place quantity is repeated over its run
        n_states, n_locations = len(chain.states), len(dta.locations)
        run = np.count_nonzero(alive.reshape(n_states * n_locations, -1), axis=1)
        b = self.cells - np.repeat(np.arange(len(run)) * self.box_size, run)
        self.row_state = np.repeat(np.arange(n_states).repeat(n_locations), run)
        self.point = b
        self.slice_key = point_key[b]
        self.is_bmax = b == self.box_size - 1
        self.delay_row = np.where(self.is_bmax, -1,
                                  self.slot_of[self.cells + step[b]])

        # each row's rule, as a flat index into the (location, label,
        # region) rule table, and its reset clocks as a clock subset
        label = np.array([graph.labels.index(a) for a in chain.labeling])
        n_labels, n_regions = len(graph.labels), len(graph.codes)
        rule = np.repeat(
            (np.arange(n_locations) * n_labels + label[:, None]) * n_regions, run
        ) + region[b]
        target = graph.rule_target.ravel()[rule]
        reset = (graph.rule_resets @ bits).ravel()[rule]
        after = b - removed.ravel()[b * removed.shape[1] + reset]
        self.to_final = np.array([q in dta.final for q in dta.locations])[target]
        self.jump_prob = np.array(chain.transition, dtype=np.float64)
        # the jump to state u lands on cell u * L * B + target * B + after
        landing = np.take(self.slot_of.reshape(n_states, -1),
                          target.astype(np.int64) * self.box_size + after,
                          axis=1).T
        self.jump_rows = np.where((self.jump_prob > 0).take(self.row_state, axis=0),
                                  landing, -1)

    def cell(self, state: str, location: str, coords: Sequence[int]) -> int:
        """Cell number of the point with integer coordinates ``coords``."""
        place = (self.chain.state_index(state) * len(self.dta.locations)
                 + self.dta.locations.index(location))
        return place * self.box_size + sum(
            j * stride for j, stride in zip(coords, self.strides)
        )

    @functools.cached_property
    def horizons(self) -> np.ndarray:
        """Steps of saturated rho-delay until the boundary set or a dead
        region.  A chain of delay steps reaches the all-ceilings point
        within ``max(max_coords)`` steps, so pointer jumping along
        ``delay_row`` counts them in that many bits of rounds: after round
        t a row holds the steps among its next 2^t chain points."""
        n = len(self.cells)
        after = np.append(np.where(self.delay_row < 0, n, self.delay_row), n)
        steps = np.append(np.where(self.is_bmax, 0, 1), 0)
        for _ in range(max(self.max_coords, default=0).bit_length()):
            steps = steps + steps[after]
            after = after[after]
        return steps[:n]


def build_grid(graph: ProductGraph, m: int,
               start: Optional[Sequence[int]] = None) -> Grid:
    """The m :class:`Grid` of ``graph``'s model, kept to the box points
    ``start`` reaches when it is given."""
    return Grid(graph, m, start)


def reachable_points(coords: np.ndarray, top: Sequence[int],
                     resettable: np.ndarray, start: Sequence[int]) -> np.ndarray:
    """Which box points (rows of ``coords``) the point ``start`` reaches
    by saturated rho-delay steps and resets of the ``resettable`` clocks.

    A point p is reached after t >= 0 delay steps when every clock c
    reads p_c = min(start_c + t, top_c), or, where c is resettable, was
    reset at some step and reads p_c <= min(t, top_c).  So clock c admits
    t = p_c - start_c and, from a lower bound on, every larger t: from
    top_c - start_c when p_c = top_c, from p_c when c is resettable, and
    from nowhere else.  A clock of the last kind fixes t, and every clock
    must fit that t; where no clock fixes t, the largest lower bound fits
    every clock.  The set is closed under both moves, so no row of a grid
    kept to it reads a row outside it.
    """
    t_fixed, t_ray, clocks = _NEVER, 0, []
    for p, top_c, start_c, reset in zip(coords.T, top, start, resettable.tolist()):
        exact = p - start_c
        below = p < top_c
        if reset:
            lower = np.where(below, p, exact)
        else:
            lower = np.where(below, _NEVER, exact)
            t_fixed = np.minimum(t_fixed, np.where(below, exact, _NEVER))
        t_ray = np.maximum(t_ray, lower)
        clocks.append((exact, lower))
    t = np.minimum(t_fixed, t_ray)
    # an array also without clocks, where t is the scalar 0
    kept = np.greater_equal(t, 0, out=np.empty(len(coords), dtype=bool))
    for exact, lower in clocks:
        kept &= (t == exact) | (t >= lower)
    return kept


@dataclass
class SchemeSystem:
    """Sparse row-wise fixed-point system ``mu = M mu + offset``."""

    kind: str
    grid: Grid
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    offset: np.ndarray

    @property
    def size(self) -> int:
        return len(self.offset)

    def dense(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self.size
        mat = np.zeros((n, n))
        rows = np.repeat(np.arange(n), np.diff(self.indptr))
        np.add.at(mat, (rows, self.indices), self.data)
        return mat, self.offset.copy()


def _weights(grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, the delay weight ``1/(1+rho*lambda)`` and the jump weight
    ``rho*lambda/(1+rho*lambda)`` of its state."""
    rho_lam = np.array([float(Fraction(rate, grid.m))
                        for rate in grid.chain.exit_rates])
    return ((1.0 / (1.0 + rho_lam))[grid.row_state],
            (rho_lam / (1.0 + rho_lam))[grid.row_state])


def _jump_entries(grid: Grid, rows: np.ndarray, at: np.ndarray,
                  weight: np.ndarray, offset: np.ndarray):
    """The jump successors of the unknowns ``at``, weighted per row by
    ``weight``, as entries of ``rows``.  A final target adds its weighted
    mass (value 1) to ``offset[rows]``, one CTMC state after another;
    alive targets are returned as (row, column, value) arrays in (row,
    state) order; dead targets contribute nothing."""
    values = weight[:, None] * grid.jump_prob.take(grid.row_state[at], axis=0)
    final = grid.to_final[at]
    done, mass = rows[final], values[final]
    for u in range(values.shape[1]):
        offset[done] += mass[:, u]
    cols = grid.jump_rows.take(at, axis=0)
    hit = np.flatnonzero(cols >= 0)  # (row, state) pairs in order, flat
    return rows[hit // cols.shape[1]], cols.ravel()[hit], values.ravel()[hit]


def _csr(grid: Grid, kind: str, offset: np.ndarray, *parts) -> SchemeSystem:
    """Pack (row, column, value) entries into rows sorted by column.
    Entries sharing a row and a column are summed one after another, in
    the order the parts list them: the order the scheme folds them in."""
    rows, cols, vals = (np.concatenate(arrays) for arrays in zip(*parts))
    # by row, then column: the key is one number per (row, column) pair,
    # and the sort is stable, so ties keep their order
    order = np.argsort(rows * len(offset) + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    if first.all():  # no pair repeats (always so in Γ′): nothing to fold,
        data = vals  # and 0.0 + v is v, as no entry is -0.0
    else:
        data = np.zeros(int(first.sum()))
        np.add.at(data, np.cumsum(first) - 1, vals)  # in order, per entry
        rows, cols = rows[first], cols[first]
    indptr = np.zeros(len(offset) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(offset)), out=indptr[1:])
    return SchemeSystem(kind=kind, grid=grid, indptr=indptr,
                        indices=cols.astype(np.int64), data=data,
                        offset=offset)


def assemble_gamma_prime(grid: Grid) -> SchemeSystem:
    """One row per unknown of the one-step scheme.

    Interior rows carry ``1/(1+rho*lambda)`` on the saturated-delay
    neighbour and ``rho*lambda/(1+rho*lambda) * P(s,u)`` on each jump
    successor; boundary rows are plain convex combinations of successor
    values.  Final targets fold their value 1 into the constant vector,
    dead targets contribute nothing.
    """
    delay_weight, jump_weight = _weights(grid)
    rows = np.arange(len(grid.cells))
    offset = np.zeros(len(rows))
    delay = grid.delay_row >= 0
    return _csr(
        grid, GAMMA_PRIME, offset,
        (rows[delay], grid.delay_row[delay], delay_weight[delay]),
        _jump_entries(grid, rows, rows,
                      np.where(grid.is_bmax, 1.0, jump_weight), offset),
    )


def assemble_gamma_double(grid: Grid) -> SchemeSystem:
    """Unfold each interior row through its horizon.

    Walks the saturated-delay chain of every unknown, accumulating the jump
    successors of each traversed point with geometrically decaying weight,
    and closes with the boundary tail: nothing when the chain dies, the
    boundary point's successor row when it reaches the all-ceilings set
    (a boundary unknown has horizon 0 and is its own tail).  All rows
    take their k-th step together.
    """
    delay_weight, jump_weight = _weights(grid)
    n = len(grid.cells)
    offset = np.zeros(n)
    at = np.arange(n)  # each row's current point along its chain
    weight = np.ones(n)
    parts = []
    for step in range(int(grid.horizons.max(initial=0))):
        rows = np.flatnonzero(grid.horizons > step)
        parts.append(_jump_entries(grid, rows, at[rows],
                                   weight[rows] * jump_weight[rows], offset))
        at[rows] = grid.delay_row[at[rows]]
        weight[rows] *= delay_weight[rows]
    rows = np.flatnonzero(at >= 0)
    parts.append(_jump_entries(grid, rows, at[rows], weight[rows], offset))
    return _csr(grid, GAMMA_DOUBLE, offset, *parts)


def scaled_error_constants(constants: ModelConstants) -> Tuple[float, float, float]:
    """Lipschitz constant of the acceptance probability, the derivative
    truncation constant and the per-row scheme error constant.

    Computed in floating point and rounded up one ulp each so reported
    bounds stay on the safe side.  When no guard constrains a clock
    (``t_max == 0``, which includes an automaton without clocks) all three
    are exactly zero and are returned as such; when ``exp(lambda*t_max)``
    exceeds the float range, all three are infinite.
    """
    if constants.t_max == 0:
        return 0.0, 0.0, 0.0
    lam_t = float(constants.lambda_max * constants.t_max)
    try:
        m1 = constants.clock_count * lam_t * math.exp(lam_t)
    except OverflowError:
        m1 = math.inf
    m2 = 2.0 * float(constants.lambda_max) * m1
    m3 = constants.t_max * m2
    up = lambda v: math.nextafter(v, math.inf)  # noqa: E731
    return up(m1), up(m2), up(m3)
