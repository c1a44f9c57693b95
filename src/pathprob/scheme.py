"""Grid construction and assembly of the fixed-point linear schemes.

The unit box spanned by the clock ceilings is discretized with step
``rho = 1/m``.  Each grid point is given its region number once, from an
integer signature of its coordinates, and inherits the class (final /
alive / dead) of its region vertex and the jump rule of its region from
the product graph's class and rule tables.  The alive non-final points are
the unknowns of two equivalent sparse systems:

* the one-step form ``mu = C mu + d``: each interior row couples a point to
  its saturated diagonal-delay neighbour and to its jump successors;
* the unfolded form ``mu = A mu + b``: the diagonal-delay chain is expanded
  through the point's horizon with geometric weights, leaving only jump
  successors and a boundary tail.

The unfolded system is produced by literally unfolding one-step rows, so
both assemblies share one successor code path; an independent transcription
of the unfolded equations lives in the test suite as a cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from . import regions
from .models import Ctmc, Dta, ModelConstants
from .product import ALIVE_CLASS, CLASS_NAMES, ProductGraph

GAMMA_PRIME = "gamma_prime"
GAMMA_DOUBLE = "gamma_double"


class GridPoint(NamedTuple):
    state: str
    location: str
    valuation: tuple


def grid_cells(chain: Ctmc, dta: Dta, m: int) -> int:
    """Number of (state, location, valuation) points of the m-grid."""
    return (
        len(chain.states)
        * len(dta.locations)
        * math.prod(m * c + 1 for c in dta.ceilings)
    )


class Grid:
    """All on-grid points for one (CTMC, DTA, m) triple.

    Inside the grid a point is the key ``(state, location, coords)``, where
    the integer vector ``coords`` holds the numerators of its valuation
    over m; ``slots`` maps the key of every unknown to its row.  Each box
    point's region number comes from :func:`regions.grid_region_numbers`,
    and its class and jump rule from the product graph's class and rule
    tables.  Exact rationals are made only where callers see points:
    :attr:`b_m` and :attr:`index` (built on first use), :meth:`points`,
    :meth:`class_at` and :meth:`horizon`.
    """

    def __init__(self, chain: Ctmc, dta: Dta, graph: ProductGraph, m: int):
        if m < 1:
            raise ValueError("grid resolution m must be >= 1")
        self.chain = chain
        self.dta = dta
        self.graph = graph
        self.m = m
        self.rho = Fraction(1, m)
        self.ceilings = dta.ceilings
        self.max_coords = tuple(m * c for c in dta.ceilings)
        self.d_m_size = grid_cells(chain, dta, m)
        self._location_number = {q: i for i, q in enumerate(dta.locations)}
        # state -> (label number, positive jumps as (successor, probability))
        self._jumps = {
            s: (graph.labels.index(label),
                [(u, float(p)) for u, p in zip(chain.states, row) if p > 0])
            for s, label, row in zip(chain.states, chain.labeling, chain.transition)
        }
        # [location][label][region] -> target location number, reset flags
        self._rule_target = graph.rule_target.tolist()
        self._rule_resets = graph.rule_resets.tolist()

        # alive non-final grid points in (state, location, coords) order
        box = list(self._iter_coords())
        numbers = regions.grid_region_numbers(self.ceilings, m, graph.region_number)
        self._region_at = dict(zip(box, numbers.tolist()))
        self.slots: Dict[Tuple[str, str, tuple], int] = {}
        for si, s in enumerate(chain.states):
            for qi, q in enumerate(dta.locations):
                alive = graph.class_table[si, qi, numbers] == ALIVE_CLASS
                for i in np.flatnonzero(alive).tolist():
                    self.slots[(s, q, box[i])] = len(self.slots)
        self.is_bmax = np.array(
            [coords == self.max_coords for _, _, coords in self.slots], dtype=bool
        )
        self.horizons = self._horizons()

    # -- coordinates ------------------------------------------------------

    def _iter_coords(self) -> Iterator[tuple]:
        yield from itertools.product(*[range(mc + 1) for mc in self.max_coords])

    def valuation(self, coords: tuple) -> tuple:
        return tuple(Fraction(j, self.m) for j in coords)

    def coords(self, valuation: Sequence) -> tuple:
        out = []
        for i, v in enumerate(valuation):
            j = Fraction(v) * self.m
            if j.denominator != 1 or not 0 <= j <= self.max_coords[i]:
                raise ValueError(f"{tuple(valuation)} is not on the {self.m}-grid")
            out.append(int(j))
        return tuple(out)

    def _clamp_step(self, coords: tuple) -> tuple:
        return tuple(
            min(j + 1, mc) for j, mc in zip(coords, self.max_coords)
        )

    def _class_name(self, state: str, location: str, coords: tuple) -> str:
        return CLASS_NAMES[self.graph.class_table[
            self.chain.state_index(state), self._location_number[location],
            self._region_at[coords],
        ]]

    # -- exact points ------------------------------------------------------

    @cached_property
    def b_m(self) -> Tuple[GridPoint, ...]:
        """The unknowns as exact points, in row order."""
        return tuple(
            GridPoint(s, q, self.valuation(coords)) for s, q, coords in self.slots
        )

    @cached_property
    def index(self) -> Dict[GridPoint, int]:
        """Row of each unknown, keyed by its exact point."""
        return {point: k for k, point in enumerate(self.b_m)}

    def class_at(self, point: GridPoint) -> str:
        return self._class_name(
            point.state, point.location, self.coords(point.valuation)
        )

    def points(self) -> Iterator[Tuple[GridPoint, str]]:
        """Every grid point with its class, in canonical order."""
        for s in self.chain.states:
            for q in self.dta.locations:
                for coords in self._iter_coords():
                    yield (
                        GridPoint(s, q, self.valuation(coords)),
                        self._class_name(s, q, coords),
                    )

    def horizon(self, point: GridPoint) -> int:
        k = self.index.get(point)
        if k is None:
            raise ValueError(f"{point} is not an unknown of the scheme")
        return int(self.horizons[k])

    # -- horizons ----------------------------------------------------------

    def _horizons(self) -> np.ndarray:
        """Steps of saturated rho-delay until the boundary set or a dead
        region.  A step raises the coordinates, so it leads to a later key
        of the same (state, location) and one backward pass suffices."""
        out = [0] * len(self.slots)
        for (s, q, coords), k in reversed(self.slots.items()):
            if coords != self.max_coords:
                nxt = self.slots.get((s, q, self._clamp_step(coords)))
                out[k] = 1 if nxt is None else 1 + out[nxt]
        return np.array(out, dtype=np.int64)

    # -- jump successors ---------------------------------------------------

    def successor_entries(
        self, state: str, location: str, coords: tuple
    ) -> List[Tuple[Optional[int], float]]:
        """Jump-successor contributions of one grid point.

        The rule table gives the target location and reset clocks of the
        rule enabled immediately after the grid valuation; the reset applies
        to the grid valuation itself.  Returns ``(column, probability)``
        pairs where ``column`` is an unknown index, ``None`` for a final
        target (value 1 folds into the constant term) and entries for dead
        targets are dropped.  Outside final locations a point is alive
        exactly when it has a slot.
        """
        label, jumps = self._jumps[state]
        qi, r = self._location_number[location], self._region_at[coords]
        target_loc = self.dta.locations[self._rule_target[qi][label][r]]
        if target_loc in self.dta.final:
            return [(None, p) for _, p in jumps]
        resets = self._rule_resets[qi][label][r]
        reset_coords = tuple(
            0 if zero else j for zero, j in zip(resets, coords)
        )
        out: List[Tuple[Optional[int], float]] = []
        for u, p in jumps:
            col = self.slots.get((u, target_loc, reset_coords))
            if col is not None:
                out.append((col, p))
        return out


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

    @property
    def horizons(self) -> np.ndarray:
        return self.grid.horizons

    @property
    def rho(self) -> Fraction:
        return self.grid.rho

    def dense(self) -> Tuple[np.ndarray, np.ndarray]:
        n = self.size
        mat = np.zeros((n, n))
        for k in range(n):
            lo, hi = self.indptr[k], self.indptr[k + 1]
            np.add.at(mat[k], self.indices[lo:hi], self.data[lo:hi])
        return mat, self.offset.copy()


def _pack(rows: List[Dict[int, float]], consts: List[float], grid: Grid,
          kind: str) -> SchemeSystem:
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    cols: List[int] = []
    vals: List[float] = []
    for k, row in enumerate(rows):
        for j in sorted(row):
            cols.append(j)
            vals.append(row[j])
        indptr[k + 1] = len(cols)
    return SchemeSystem(
        kind=kind,
        grid=grid,
        indptr=indptr,
        indices=np.array(cols, dtype=np.int64),
        data=np.array(vals, dtype=np.float64),
        offset=np.array(consts, dtype=np.float64),
    )


def _row_weights(grid: Grid) -> Dict[str, Tuple[float, float]]:
    """Per state, the delay weight ``1/(1+rho*lambda)`` and the jump weight
    ``rho*lambda/(1+rho*lambda)``."""
    out = {}
    for s, rate in zip(grid.chain.states, grid.chain.exit_rates):
        rho_lam = float(grid.rho * rate)
        out[s] = (1.0 / (1.0 + rho_lam), rho_lam / (1.0 + rho_lam))
    return out


def _fold(row: Dict[int, float], const: float,
          entries: Iterable[Tuple[Optional[int], float]], weight: float) -> float:
    """Add weighted successor entries to ``row`` and return ``const`` plus
    the weighted mass of final targets, whose value 1 folds into the
    constant term."""
    for col, p in entries:
        if col is None:
            const += weight * p
        else:
            row[col] = row.get(col, 0.0) + weight * p
    return const


def assemble_gamma_prime(grid: Grid) -> SchemeSystem:
    """One row per unknown of the one-step scheme.

    Interior rows carry ``1/(1+rho*lambda)`` on the saturated-delay
    neighbour and ``rho*lambda/(1+rho*lambda) * P(s,u)`` on each jump
    successor; boundary rows are plain convex combinations of successor
    values.  Final targets fold their value 1 into the constant vector,
    dead targets contribute nothing.
    """
    weights = _row_weights(grid)
    rows: List[Dict[int, float]] = []
    consts: List[float] = []
    for s, q, coords in grid.slots:
        row: Dict[int, float] = {}
        entries = grid.successor_entries(s, q, coords)
        if coords == grid.max_coords:
            const = _fold(row, 0.0, entries, 1.0)
        else:
            a, b = weights[s]
            col = grid.slots.get((s, q, grid._clamp_step(coords)))
            if col is not None:
                row[col] = a
            const = _fold(row, 0.0, entries, b)
        rows.append(row)
        consts.append(const)
    return _pack(rows, consts, grid, GAMMA_PRIME)


def assemble_gamma_double(grid: Grid) -> SchemeSystem:
    """Unfold each interior row through its horizon.

    Walks the saturated-delay chain of every unknown, accumulating the jump
    successors of each traversed point with geometrically decaying weight,
    and closes with the boundary tail: nothing when the chain dies, the
    boundary point's successor row when it reaches the all-ceilings set
    (a boundary unknown has horizon 0 and is its own tail).
    """
    weights = _row_weights(grid)
    rows: List[Dict[int, float]] = []
    consts: List[float] = []
    for (s, q, coords), k in grid.slots.items():
        a, b = weights[s]
        row: Dict[int, float] = {}
        const = 0.0
        weight = 1.0
        current = coords
        for _ in range(int(grid.horizons[k])):
            const = _fold(row, const, grid.successor_entries(s, q, current),
                          weight * b)
            current = grid._clamp_step(current)
            weight *= a
        if (s, q, current) in grid.slots:
            const = _fold(row, const, grid.successor_entries(s, q, current),
                          weight)
        rows.append(row)
        consts.append(const)
    return _pack(rows, consts, grid, GAMMA_DOUBLE)


def scaled_error_constants(constants: ModelConstants) -> Tuple[float, float, float]:
    """Lipschitz constant of the acceptance probability, the derivative
    truncation constant and the per-row scheme error constant.

    Computed in floating point and rounded up one ulp each so reported
    bounds stay on the safe side.  When no guard constrains a clock
    (``t_max == 0``, which includes an automaton without clocks) all three
    are exactly zero and are returned as such.
    """
    if constants.t_max == 0:
        return 0.0, 0.0, 0.0
    lam_t = float(constants.lambda_max * constants.t_max)
    m1 = constants.clock_count * lam_t * math.exp(lam_t)
    m2 = 2.0 * float(constants.lambda_max) * m1
    m3 = constants.t_max * m2
    up = lambda v: math.nextafter(v, math.inf)  # noqa: E731
    return up(m1), up(m2), up(m3)
