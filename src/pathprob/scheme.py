"""Grid construction and assembly of the fixed-point linear schemes.

The unit box spanned by the clock ceilings is discretized with step
``rho = 1/m``.  A point of the box is the integer vector ``coords`` of the
numerators of its valuation over m, and ``b``, its position in
``itertools.product`` order; a grid point is the integer cell
``c = (state * L + location) * B + b`` over L locations and B box points.
Each box point is given its region number once, from an integer signature
of its coordinates, and every cell inherits the class (final / alive /
dead) of its region vertex and the jump rule of its region from the
product graph's class and rule tables, by array lookups.  The alive
cells, in cell order, are the unknowns of two equivalent sparse systems:

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
from typing import Sequence, Tuple

import numpy as np

from . import regions
from .models import Ctmc, Dta, ModelConstants
from .product import ALIVE_CLASS, ProductGraph

GAMMA_PRIME = "gamma_prime"
GAMMA_DOUBLE = "gamma_double"


def grid_cells(chain: Ctmc, dta: Dta, m: int) -> int:
    """Number of (state, location, valuation) points of the m-grid."""
    return (
        len(chain.states)
        * len(dta.locations)
        * math.prod(m * c + 1 for c in dta.ceilings)
    )


class Grid:
    """All points of the m-grid for one (CTMC, DTA) pair, as cell numbers.

    ``cell_class[c]`` is the class of cell c (an index into
    :data:`CLASS_NAMES`), ``cells[k]`` the cell of row k, the k-th unknown
    in cell order, and ``slot_of[c]`` the row of cell c, or -1 when c is
    dead or final.  Per row, ``row_state`` is its CTMC state number,
    ``delay_row`` the row of its saturated rho-delay neighbour (-1 when
    that point is dead, and on the all-ceilings boundary ``is_bmax``),
    ``jump_rows[k, u]`` the row a jump to state u lands on (-1 when the
    jump has probability 0 or lands on a dead or final point) and
    ``to_final`` whether the rule enabled immediately after the point
    leads to a final location.  The rule comes from the rule table at the
    point's region, and its reset applies to the grid valuation itself.
    The cell is the only form of a grid point: :meth:`cell` numbers the
    point with given integer coordinates (the numerators of its valuation
    over m), and ``horizons[k]``, computed on first read, is the horizon
    of row k (only the fallback sweeps and the unfolded form read it).
    The exact pass of the solver reads two more per-row arrays, computed
    on demand: ``point[k]``, the box point b of row k, and
    ``slice_key[k]``, the sum of its coordinates over the clocks that no
    rule of the product graph resets, a sum that no jump or delay step
    lowers.  A query's exact start valuation becomes integer coordinates
    in one place, :func:`pathprob.solver._snap_to_grid`.
    """

    def __init__(self, chain: Ctmc, dta: Dta, graph: ProductGraph, m: int):
        if m < 1:
            raise ValueError("grid resolution m must be >= 1")
        self.chain = chain
        self.dta = dta
        self.graph = graph
        self.m = m
        self.ceilings = dta.ceilings
        self.max_coords = tuple(m * c for c in dta.ceilings)
        self.d_m_size = grid_cells(chain, dta, m)
        shape = tuple(mc + 1 for mc in self.max_coords)
        self.box_size = math.prod(shape)
        self.strides = tuple(math.prod(shape[i + 1:]) for i in range(len(shape)))
        strides = np.array(self.strides, dtype=np.int64)
        region = regions.grid_region_numbers(self.ceilings, m, graph.region_number)

        self.cell_class = graph.class_table[:, :, region].ravel()
        self.cells = np.flatnonzero(self.cell_class == ALIVE_CLASS)
        self.slot_of = np.full(self.d_m_size, -1, dtype=np.int32)
        self.slot_of[self.cells] = np.arange(len(self.cells))

        b = self.cells % self.box_size
        self.row_state, location = np.divmod(
            self.cells // self.box_size, len(dta.locations)
        )
        coords = b[:, None] // strides % np.array(shape, dtype=np.int64)
        self.is_bmax = b == self.box_size - 1
        stepped = self.cells + (coords < self.max_coords) @ strides
        self.delay_row = np.where(self.is_bmax, -1, self.slot_of[stepped])

        label = np.array([graph.labels.index(a) for a in chain.labeling])
        rule = (location, label[self.row_state], region[b])
        target = graph.rule_target[rule]
        after = b - (graph.rule_resets[rule] * coords) @ strides
        self.to_final = np.array([q in dta.final for q in dta.locations])[target]
        self.jump_prob = np.array(chain.transition, dtype=np.float64)
        jumps = (np.arange(len(chain.states)) * len(dta.locations)
                 + target[:, None]) * self.box_size + after[:, None]
        self.jump_rows = np.where(
            self.jump_prob[self.row_state] > 0, self.slot_of[jumps], -1
        )

    def cell(self, state: str, location: str, coords: Sequence[int]) -> int:
        """Cell number of the point with integer coordinates ``coords``."""
        place = (self.chain.state_index(state) * len(self.dta.locations)
                 + self.dta.locations.index(location))
        return place * self.box_size + sum(
            j * stride for j, stride in zip(coords, self.strides)
        )

    @property
    def point(self) -> np.ndarray:
        return self.cells % self.box_size

    @property
    def slice_key(self) -> np.ndarray:
        reset = self.graph.rule_resets.any(axis=(0, 1, 2))
        key = np.zeros(len(self.cells), dtype=np.int64)
        for stride, top, cleared in zip(self.strides, self.max_coords, reset):
            if not cleared:
                key += self.cells // stride % (top + 1)
        return key

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


def build_grid(chain: Ctmc, dta: Dta, graph: ProductGraph, m: int) -> Grid:
    return Grid(chain, dta, graph, m)


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
    values = weight[:, None] * grid.jump_prob[grid.row_state[at]]
    final = grid.to_final[at]
    for u in range(values.shape[1]):
        offset[rows] += np.where(final, values[:, u], 0.0)
    cols = grid.jump_rows[at]
    hit = cols >= 0
    return np.broadcast_to(rows[:, None], cols.shape)[hit], cols[hit], values[hit]


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
    data = np.zeros(int(first.sum()))
    np.add.at(data, np.cumsum(first) - 1, vals)  # in order, per entry
    indptr = np.zeros(len(offset) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[first], minlength=len(offset)), out=indptr[1:])
    return SchemeSystem(kind=kind, grid=grid, indptr=indptr,
                        indices=cols[first].astype(np.int64), data=data,
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
