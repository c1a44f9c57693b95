"""Fixed-point solver, error reports and the end-to-end query workflow.

The sparse system ``mu = C mu + d`` is solved in one exact pass where the
grid graph allows it: :func:`solve` asks :func:`pathprob.kernels.exact_plan`
for an order in which every row reads only rows solved before it or rows
of its own grid point, whose block is solved densely.  Every other step
is solved as its entries allow: one vectorised update when no row reads
an earlier row of the step, recursive doubling when each reads at most
one, a row-by-row loop otherwise.  The pass runs as the first sweep, and
the residual after it is the correctness check; the plan's ``exact``
flag tells the pass from the sweeps.  A plan's sweeps run on a copy of
the system renumbered into the plan's order
(:func:`pathprob.kernels.renumber`), and the solution returns to row
order once the plan is done.
When there is no such order, or the pass leaves the residual above the
tolerance, Gauss-Seidel sweeps in the level order of
:func:`pathprob.kernels.sweep_plan` follow: rows by increasing horizon,
so information flows outward from the dead and boundary points, and then
by a sub-level that orders the rows of one horizon.  Their steps never
use recursive doubling, so every such iterate equals that of the
one-row-at-a-time sweep in level order bit for bit.
A dense direct elimination acts as fallback for small systems when the
sweeps stall.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .models import Ctmc, Dta, check_start
from .product import (
    DEAD_CLASS, FINAL_CLASS, ProductGraph, build_graph, contraction_constant,
    log_contraction_constant,
)
from .regions import region_of
from .scheme import (
    Grid,
    SchemeSystem,
    assemble_gamma_prime,
    build_grid,
    grid_cells,
    scaled_error_constants,
)

DIRECT_LIMIT = 3000
MAX_SWEEPS = 5000
TOLERANCE = 1e-10  # residual at which the sweeps stop
MAX_GRID_CELLS = 5_000_000  # largest grid a query builds
ORDER_MIN = 0.5  # least observed order that admits an extrapolation
ROMBERG_ORDER_MIN = 1.5  # least order of the extrapolant gaps that admits S_m
SAFETY_FACTOR = 1.25  # Roache's factor of safety for a three-grid estimate


class SolverError(RuntimeError):
    def __init__(self, message: str, residual: Optional[float] = None):
        super().__init__(message)
        self.residual = residual


class BoundInfeasibleError(RuntimeError):
    """The theoretical bound demands an impractically fine grid."""

    def __init__(self, message: str, m_required: int):
        super().__init__(message)
        self.m_required = m_required


@dataclass
class Solution:
    """Solved values over the unknowns of ``grid``, read through the grid.

    ``values_raw`` is the untouched solver output; :meth:`value_of` clamps
    the one value it reads to [0, 1] (NaN stays NaN).  Dead grid points
    read exactly 0 and final locations exactly 1 by construction; the
    solved system is not kept.
    ``method`` is "exact" (one exact pass), "sweep", "direct" or "empty".
    """

    grid: Grid
    values_raw: np.ndarray
    residual: float
    sweeps: int
    method: str

    def value_of(self, cell: int) -> float:
        """Value at a cell of the grid (see :meth:`Grid.cell`); ValueError
        at an alive cell the grid did not keep."""
        cls = self.grid.cell_class[cell]
        if cls == FINAL_CLASS:
            return 1.0
        if cls == DEAD_CLASS:
            return 0.0
        slot = self.grid.slot_of[cell]
        if slot < 0:
            raise ValueError(f"cell {cell} lies outside the points the grid kept")
        return min(max(float(self.values_raw[slot]), 0.0), 1.0)


def solve(
    system: SchemeSystem,
    tol: float = TOLERANCE,
    max_sweeps: int = MAX_SWEEPS,
    x0: Optional[np.ndarray] = None,
) -> Solution:
    """Solve ``mu = C mu + d`` to the requested residual.

    The first sweep is the exact pass when the system has an exact order;
    otherwise, or when its residual is not below ``tol``, the fallback
    sweeps follow, counted in the same ``max_sweeps``.

    Raises :class:`SolverError` when the sweeps do not converge and the
    system is too large for dense elimination (above
    :data:`DIRECT_LIMIT` unknowns), or when elimination finds the matrix
    singular (possible below the guaranteed grid threshold).
    """
    n = system.size
    grid = system.grid
    if n == 0:
        return Solution(grid, np.zeros(0), 0.0, 0, "empty")
    if x0 is not None and np.shape(x0) != (n,):
        raise ValueError(f"start vector has shape {np.shape(x0)}, expected ({n},)")
    args = (system.indptr, system.indices, system.data, system.offset)
    plan = kernels.exact_plan(*args[:2], grid.slice_key, grid.point,
                              len(grid.ceilings))
    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    residual = math.inf
    sweep_count = 0
    try:
        while sweep_count < max_sweeps:
            if plan is None:
                plan = kernels.sweep_plan(*args[:2], grid.horizons)
            ordered = kernels.renumber(*args, plan.order)
            y = x[plan.order]  # x in the plan's order while its sweeps run
            del x
            while sweep_count < max_sweeps:
                sweep_count += 1
                kernels.gauss_seidel_sweep(*ordered, y, plan)
                residual = kernels.max_residual(*ordered, y)
                if residual < tol or plan.exact:
                    break
            del ordered
            x = np.empty(n)
            x[plan.order] = y
            if residual < tol:
                return Solution(grid, x, float(residual), sweep_count,
                                "exact" if plan.exact else "sweep")
            plan = None  # rounding left the exact pass above tol: sweep on
    except ZeroDivisionError as exc:
        raise SolverError(
            f"sweep hit a singular row or block ({exc}); the scheme matrix "
            f"is not a contraction here, which the theory only rules out for "
            f"m > 2|V|^2 = {2 * grid.graph.vertex_count ** 2}",
        ) from exc

    if n <= DIRECT_LIMIT:
        mat, rhs = system.dense()
        try:
            x = np.linalg.solve(np.eye(n) - mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"direct elimination found the system singular; uniqueness "
                f"is only guaranteed for m > 2|V|^2 = "
                f"{2 * grid.graph.vertex_count ** 2}",
            ) from exc
        residual = kernels.max_residual(*args, x)
        if residual < tol:
            return Solution(grid, x, float(residual), max_sweeps, "direct")
    raise SolverError(
        f"no convergence to residual {tol} after {max_sweeps} sweeps "
        f"(last residual {residual:.3e})",
        residual=float(residual),
    )


# ---------------------------------------------------------------------------
# Error reports


@dataclass
class ErrorReport:
    """All constants feeding the a-priori bound, reported verbatim.

    ``log_contraction`` is log 𝔠, from which the bound is computed: it
    stays finite on fast chains, where ``contraction`` underflows to a
    subnormal or to 0.0.

    ``theoretical_bound`` is |V| * c^(-|V|) * M3 * rho with rho = 1/m,
    astronomically large for most models and infinite beyond the float
    range; it is still the honest guarantee.  The optional
    ``empirical_estimate`` is a heuristic and clearly not a bound: for a
    grid query the estimate described at :func:`richardson_error`, for an
    epsilon query sized empirically the difference the stop compared with
    epsilon/2 (:func:`_empirical_m`).
    """

    m: int
    m1: float
    m2: float
    m3: float
    contraction: float
    log_contraction: float
    vertex_count: int
    theoretical_bound: float
    m_min: int
    below_threshold: bool
    empirical_estimate: Optional[float] = None
    snap_distance: float = 0.0
    snap_slack: float = 0.0


def error_report(
    graph: ProductGraph,
    m: int,
    empirical_estimate: Optional[float] = None,
) -> ErrorReport:
    """The a-priori error report of the m grid of ``graph``'s model, from
    the graph's vertex count and model constants
    (:attr:`ProductGraph.constants`)."""
    if m < 1:
        raise ValueError("grid resolution m must be >= 1")
    m1, m2, m3 = scaled_error_constants(graph.constants)
    c, m_min = contraction_constant(graph)
    log_c = log_contraction_constant(graph)  # finite where c underflows
    n = graph.vertex_count
    if m3 == 0.0:
        bound = 0.0
    else:
        log_bound = math.log(n) - n * log_c + math.log(m3) - math.log(m)
        bound = math.inf if log_bound > 709.0 else math.nextafter(
            math.exp(log_bound), math.inf
        )
    return ErrorReport(
        m=m,
        m1=m1,
        m2=m2,
        m3=m3,
        contraction=c,
        log_contraction=log_c,
        vertex_count=n,
        theoretical_bound=bound,
        m_min=m_min,
        below_threshold=m < m_min,
        empirical_estimate=empirical_estimate,
    )


# ---------------------------------------------------------------------------
# End-to-end queries


class ApproxResult(NamedTuple):
    """The answer of a query.  ``solver_method`` and ``sweeps`` are those
    of the m-grid solve (:attr:`Solution.method`), or "shortcut" and 0
    when a final or dead start, or grid point, was answered without
    solving.
    ``grid_probability`` is the grid value v_m at the reported m.
    ``richardson_level`` says which entry of the start's Richardson table
    the answer is (:func:`_empirical_m`): 0 for v_m itself, 1 for the
    extrapolant R_m and 2 for the second-level S_m.  At level 0
    ``probability`` equals ``grid_probability`` and ``observed_order`` is
    None; at level 1 the order is that of the grid-value gaps, at level 2
    that of the R gaps."""

    probability: float
    report: ErrorReport
    residual: float
    grid_points: int
    solver_method: str
    sweeps: int
    grid_probability: float
    observed_order: Optional[float]
    richardson_level: int


@lru_cache(maxsize=8)
def _analysis(chain: Ctmc, dta: Dta) -> ProductGraph:
    """The product graph of the model, built once per (chain, dta)."""
    return build_graph(chain, dta)


@lru_cache(maxsize=2)  # a repeated query rereads the two finest grids of its walk
def _solved(chain: Ctmc, dta: Dta, m: int, coords: Tuple[int, ...]) -> Solution:
    """The m grid kept to the box points the start ``coords`` reaches,
    solved; every state of a distribution shares the start, and so the
    solve."""
    return solve(assemble_gamma_prime(build_grid(_analysis(chain, dta), m, coords)))


def _snap_to_grid(eta: Sequence, ceilings: Sequence[int], m: int):
    """Clamp into the ceiling box, then snap each clock to the nearest
    multiple of 1/m with ties rounded toward zero.  Returns the integer
    coordinates of the grid point (numerators over m) and the distance."""
    coords = []
    distance = Fraction(0)
    for v, c in zip(eta, ceilings):
        num, den = min(Fraction(v), c).as_integer_ratio()
        j = -((den - 2 * m * num) // (2 * den))  # ceil(v*m - 1/2)
        coords.append(j)
        distance = max(distance, Fraction(abs(m * num - j * den), m * den))
    return tuple(coords), distance


def _required_m(report: ErrorReport, epsilon: float) -> int:
    per_rho = report.theoretical_bound * report.m  # scheme bound per unit rho
    demand = (per_rho + report.m1 / 2.0) / epsilon
    if not math.isfinite(demand):
        return -1
    return max(report.m_min, int(math.ceil(demand)))


def approximate(
    chain: Ctmc,
    dta: Dta,
    state: str,
    location: str,
    valuation: Sequence,
    m: Optional[int] = None,
    epsilon: Optional[float] = None,
    force_empirical: bool = False,
    with_empirical: bool = False,
) -> ApproxResult:
    """Approximate the acceptance probability from one starting triple,
    the point mass ``((state, 1.0),)`` of :func:`prob_from_distribution`.

    Exactly one of ``m`` (grid resolution) and ``epsilon`` (target accuracy)
    must be given.  The start valuation is clamped into the ceiling box and
    snapped, once, to the nearest point of the m grid; the Lipschitz slack
    of the snap is part of the report.  Final locations answer exactly 1
    and dead start vertices exactly 0, without solving and, for an
    ``epsilon`` query, without sizing a grid: the report is the probe's at
    m = 1, with bound 0.  A grid above :data:`MAX_GRID_CELLS` cells is
    refused with :class:`ValueError` before any grid is built
    (:func:`_grid_table`).

    The answer, the estimate and the solve report come from one
    :func:`_grid_table` walk at the m grid's point: over the m/4, m/2 and
    m grids with ``with_empirical`` when the start lies on the m/4 grid,
    over the m and 2m grids with ``with_empirical`` otherwise, and over
    the m grid alone without it.  A point that is final or dead, where the
    start is not, reads its exact value and solves no grid; it is
    reported as a final or dead start is, "shortcut" with 0 sweeps and
    residual 0.0, and with ``with_empirical`` its estimate is 0.0.

    With ``with_empirical`` the report carries the empirical error
    estimate of v_m described at :func:`richardson_error`.

    With ``force_empirical``, an ``epsilon`` query whose bound is out of
    reach is sized by :func:`_empirical_m`.  When its answer is the
    extrapolant R_m or S_m, ``richardson_level`` is 1 or 2,
    ``observed_order`` is set and ``grid_probability`` keeps v_m.
    """
    return _approximate(chain, dta, ((state, 1.0),), location, valuation,
                        m, epsilon, force_empirical, with_empirical)


def _approximate(chain, dta, weights, location, valuation, m=None,
                 epsilon=None, force_empirical=False, with_empirical=False):
    """:func:`approximate` on the ``(state, weight)`` pairs ``weights``."""
    if (m is None) == (epsilon is None):
        raise ValueError("specify exactly one of m and epsilon")
    if m is not None and m < 1:
        raise ValueError("grid resolution m must be >= 1")
    graph = _analysis(chain, dta)
    eta = tuple(Fraction(v) for v in valuation)
    shortcuts = [_shortcut(graph, state, location, eta) for state, _ in weights]
    if epsilon is not None and not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0,1)")
    if None not in shortcuts:
        value = _mix(weights, shortcuts)
        m = 1 if m is None else m
        report = error_report(graph, m)
        report.theoretical_bound = 0.0
        return ApproxResult(value, report, 0.0, grid_cells(chain, dta, m),
                            "shortcut", 0, value, None, 0)

    row = answer = order = empirical = None
    level = 0
    if epsilon is not None:
        probe = error_report(graph, 1)
        m_req = _required_m(probe, epsilon)
        if m_req > 0 and grid_cells(chain, dta, m_req) <= MAX_GRID_CELLS:
            m = m_req
        elif not force_empirical:
            raise BoundInfeasibleError(
                f"the theoretical bound needs m = {m_req if m_req > 0 else 'inf'} "
                f"(grid too large); pass force_empirical to size the grid by "
                f"the heuristic estimate instead",
                m_required=m_req,
            )
        else:
            row, answer, level, order, empirical = _empirical_m(
                chain, dta, weights, location, eta, epsilon)
            m = row.m

    coords, distance = _snap_to_grid(eta, dta.ceilings, m)
    if row is None or with_empirical:  # one walk, at the m grid's point
        point = tuple(Fraction(j, m) for j in coords)
        if not with_empirical:
            row, = _grid_table(chain, dta, weights, location, point, (m,))
        elif m % 4 or _snap_to_grid(eta, dta.ceilings, m // 4)[1]:
            row, finer = _grid_table(chain, dta, weights, location, point, (m, 2 * m))
            empirical = SAFETY_FACTOR * 2 * abs(finer.gap)
        else:  # the start lies on the m/4 grid
            *_, row = _grid_table(chain, dta, weights, location, point,
                                  (m // 4, m // 2, m))
            empirical = richardson_error(row)
    report = error_report(graph, m, empirical_estimate=empirical)
    report.snap_distance = float(distance)
    if distance:  # an infinite M1 times a zero snap is no slack, not NaN
        report.snap_slack = report.m1 * float(distance)
    solution = row.solution  # None where the point is final or dead
    residual, method, sweeps = ((0.0, "shortcut", 0) if solution is None else
                                (solution.residual, solution.method, solution.sweeps))
    return ApproxResult(row.value if answer is None else answer, report, residual,
                        grid_cells(chain, dta, m), method, sweeps, row.value,
                        order, level)


def _mix(weights, values) -> float:
    """Sum w * v in the order given, from 0: a point mass reads v itself."""
    total = 0
    for (_, w), v in zip(weights, values):
        total += w * v
    return total


def _shortcut(graph: ProductGraph, state: str, location: str, eta) -> Optional[float]:
    """Check the start (:func:`check_start`); its exact value when it is
    final or dead, else None."""
    check_start(graph.ctmc, graph.dta, state, location, eta)
    if location in graph.dta.final:
        return 1.0
    region = graph.region_number[region_of(eta, graph.dta.ceilings)]
    if graph.class_table[graph.ctmc.state_index(state),
                         graph.dta.locations.index(location), region] == DEAD_CLASS:
        return 0.0
    return None


def observed_order(coarse_gap: float, fine_gap: float) -> Optional[float]:
    """Observed order of convergence p = log2 |coarse_gap / fine_gap| from
    the gaps v_{m/2} - v_{m/4} and v_m - v_{m/2} between the values of
    three grids, each twice as fine as the last; None when a gap is zero or
    None."""
    if not coarse_gap or not fine_gap:
        return None
    return math.log2(abs(coarse_gap / fine_gap))


class GridRow(NamedTuple):
    """One grid of a Richardson table (see :func:`_grid_table`); ``gap``
    and ``order`` are None where they are undefined."""

    m: int
    value: float
    solution: Optional[Solution]
    gap: Optional[float]
    order: Optional[float]


def _grid_table(chain, dta, weights, location, eta, grids):
    """Yield the Richardson table of the starts (s, location, eta), mixed
    by the ``(s, weight)`` pairs ``weights``, over the grid family
    ``grids``: one :class:`GridRow` per grid, in the order given.

    Each row holds the :func:`_mix` v_m of the states' values at eta
    snapped to the m grid (:func:`_snap_to_grid`), and the
    :class:`Solution` they were read from, solved once if any state needs
    it.  A state whose start is final or dead reads its exact value on
    every grid; so does, on a grid where the start snaps to another
    point, a state that is final or dead at that point (:func:`_shortcut`
    at the point).  A row where every state reads an exact value has no
    solution.  The gap g_m = v_m - v_{m/2} is set when the previous grid
    was m/2 and neither grid read such a snapped exact value, whose
    difference says nothing of the error: from x = 63/64 on
    ``unit_deadline`` the 8 and 16 grids both read the dead x = 1.  The
    :func:`observed_order` of g_{m/2} and g_m is set where both gaps are.
    Before any grid is built, every m must be at least 1 and, unless
    every start is final or dead, the largest grid must have at most
    :data:`MAX_GRID_CELLS` cells; otherwise ValueError.
    """
    if any(m < 1 for m in grids):
        raise ValueError("grid resolution m must be >= 1")
    graph = _analysis(chain, dta)
    shortcuts = [_shortcut(graph, state, location, eta) for state, _ in weights]
    if None in shortcuts and grids:
        cells = grid_cells(chain, dta, max(grids))
        if cells > MAX_GRID_CELLS:
            raise ValueError(
                f"the m = {max(grids)} grid has {cells} cells, above the limit "
                f"max_grid_cells = {MAX_GRID_CELLS}"
            )
    row = GridRow(0, 0.0, None, None, None)  # before the first: no m is 2 * 0
    snapped_before = False  # the previous grid read a snapped exact value
    for m in grids:
        coords, distance = _snap_to_grid(eta, dta.ceilings, m)
        solution, values, snapped = None, [], False
        for (state, _), value in zip(weights, shortcuts):
            if value is None and distance:
                value = _shortcut(graph, state, location,
                                  tuple(Fraction(j, m) for j in coords))
                snapped = snapped or value is not None
            if value is None:
                if solution is None:
                    solution = _solved(chain, dta, m, coords)
                value = solution.value_of(solution.grid.cell(state, location, coords))
            values.append(value)
        value = _mix(weights, values)
        gap = (value - row.value
               if 2 * row.m == m and not (snapped or snapped_before) else None)
        row = GridRow(m, value, solution, gap, observed_order(row.gap, gap))
        snapped_before = snapped
        yield row


def richardson_error(row: GridRow) -> Optional[float]:
    """Error estimate of v_m from the row of the m grid in a table over
    the m/4, m/2 and m grids: Roache's grid convergence index with three
    grids, SAFETY_FACTOR * |v_m - v_{m/2}| / (2^p - 1), where p is the
    row's observed order.

    That makes |v_m - v_{m/2}| / (2^p - 1) the distance from v_m to the
    Richardson extrapolant at order p, which is the error of v_m if the
    values converge at that order (on v_m = v* + c/m^p exactly |c|/m^p);
    the factor of safety 1.25 covers what the assumption misses.  On
    ``exposure_window`` from (a, q0, 0, 0) at m = 64 it reads 9.46e-6 at
    p = 1.95 against a true error of 7.37e-6.  It is None when a gap is
    zero or undefined (:func:`_grid_table`) or p is below ORDER_MIN, where
    the values do not converge regularly enough for the formula to mean
    anything.

    A grid query (:func:`approximate` with ``with_empirical``) reports it
    when 4 divides m and the start lies on the m/4 grid.  Any other grid
    query reads the m grid's point on the 2m grid and reports the same
    index for the coarse value at the scheme's order p = 1,
    SAFETY_FACTOR * 2 |v_m - v_2m|: on a first-order scheme |v_m - v_2m|
    tracks the error of v_2m, and that of v_m is about twice as large.
    On ``unit_deadline`` from x = 1/64 at m = 64 it reads 3.56e-3 against
    an error of 2.85e-3 at the grid point, 1 - e^(-63/64).
    """
    if row.order is None or row.order < ORDER_MIN:
        return None
    return SAFETY_FACTOR * abs(row.gap) / (2.0 ** row.order - 1.0)


def _empirical_m(chain, dta, weights, location, eta, epsilon):
    """Size the grid on the mixture's table over m = 8, 16, ... up to the
    largest grid under :data:`MAX_GRID_CELLS`, and stop at the first grid
    where one of three tests passes, checked in this order.

    1. The grid test: the gap g_m = v_m - v_{m/2} is set and at most
       epsilon/2.  The scheme is first order, so the gap tracks the error
       of the finer grid; the answer is v_m (level 0).  No gap is set
       next to a grid where a state read a final or dead point its start
       was snapped to (:func:`_grid_table`), even where another state is
       solved: {a: 1/2, b: 1/2} on ``exposure_window`` from (0, 63/64)
       would stop at m = 16, 6.9e-3 from the answer at epsilon = 1e-3,
       with b read at its dead y = 1 on both grids.
    2. The extrapolant test: R_m = v_m + g_m cancels the first-order
       term of the error (Richardson's deferred approach to the limit).
       It holds when the start lies on the m/4 grid (and so on the m/2
       and m grids), the observed order of g_{m/2} and g_m is at least
       ORDER_MIN, and |R_m - R_{m/2}| = |2 g_m - g_{m/2}| is at most
       epsilon/2.  The answer is R_m, clamped to [0, 1] (level 1).
       Since the grid test failed, |g_m| > epsilon/2, so the last bound
       confines g_{m/2} / g_m to (1, 3): the gaps share a sign and
       shrink, and the order lies below log2 3.  The order check adds
       the lower bound, a shrink of at least sqrt(2)-fold; the
       extrapolation always assumes order 1.  A start off the m/4 grid
       is snapped to points up to 1/(2m) apart, an error the gaps need
       not show, so it sizes on the grid test alone.
    3. The second-level test: R_m still carries an m^-2 term, which
       S_m = R_m + (R_m - R_{m/2}) / 3 cancels (Romberg's table over the
       extrapolants).  It holds when the start lies on the m/8 grid, so
       that R_{m/4} is read at the start too, the observed order of the
       R gaps R_{m/2} - R_{m/4} and R_m - R_{m/2} is at least
       ROMBERG_ORDER_MIN, and |S_m - S_{m/2}| is at most epsilon/2.  The
       answer is S_m, clamped to [0, 1] (level 2).  On ``unit_deadline``
       from x = 0 at epsilon = 1e-5 it stops at m = 128, 1.4e-7 from
       1 - e^-1, where the extrapolant test alone needs m = 512.
    Each test runs only where the ones before it failed, so a query
    stops no later than on the first two tests alone, and where it stops
    on them it answers as they do.

    Returns the row of the last grid, the answer, its level, the observed
    order of level 1 or 2 (None at level 0) and the difference that was
    compared with epsilon/2.  Raises :class:`BoundInfeasibleError` when
    no grid passes, with the first grid above the cap as ``m_required``.
    """
    grids = [8]  # up to the first grid above the cap
    while grid_cells(chain, dta, grids[-1]) <= MAX_GRID_CELLS:
        grids.append(2 * grids[-1])
    *grids, m_required = grids
    r_half = r_quarter = None  # R_{m/2} and R_{m/4} once they are set
    for row in _grid_table(chain, dta, weights, location, eta, grids):
        if row.gap is not None and abs(row.gap) <= epsilon / 2:
            return row, row.value, 0, None, abs(row.gap)
        r = None if row.gap is None else row.value + row.gap
        # an order is set only when both gaps are, and neither is zero here
        if (row.order is not None
                and _snap_to_grid(eta, dta.ceilings, row.m // 4)[1] == 0):
            change = abs(r - r_half)
            if row.order >= ORDER_MIN and change <= epsilon / 2:
                return row, min(max(r, 0.0), 1.0), 1, row.order, change
        if (r_quarter is not None
                and _snap_to_grid(eta, dta.ceilings, row.m // 8)[1] == 0):
            order = observed_order(r_half - r_quarter, r - r_half)
            s = r + (r - r_half) / 3.0
            change = abs(s - (r_half + (r_half - r_quarter) / 3.0))
            if (order is not None and order >= ROMBERG_ORDER_MIN
                    and change <= epsilon / 2):
                return row, min(max(s, 0.0), 1.0), 2, order, change
        r_half, r_quarter = r, r_half
    raise BoundInfeasibleError(
        f"empirical sizing exceeded {MAX_GRID_CELLS} grid cells before "
        f"successive values or extrapolants settled within {epsilon / 2}",
        m_required=m_required,
    )


def prob_from_distribution(
    chain: Ctmc,
    dta: Dta,
    theta: Dict[str, object],
    location: str,
    valuation: Sequence,
    **options,
) -> ApproxResult:
    """:func:`approximate` from an initial distribution over states.

    ``theta`` maps state names to exact weights in [0, 1] summing to one.
    One walk reads every state of positive weight on each grid, in the
    order of ``theta``, and yields the mixed value sum w * v_m(s).  The
    gaps, orders, extrapolants, estimate and epsilon stop read that
    mixture, so the whole result describes the answer returned; on a
    point mass it is that of :func:`approximate` in every field.
    """
    weights = {s: Fraction(w) for s, w in theta.items()}
    for s, w in weights.items():
        if not 0 <= w <= 1:
            raise ValueError(f"initial weight {w} of state {s!r} is outside [0, 1]")
    if sum(weights.values()) != 1:
        raise ValueError(f"initial distribution sums to {sum(weights.values())}")
    unknown = set(weights) - set(chain.states)
    if unknown:
        raise ValueError(f"distribution names unknown states {sorted(unknown)}")
    positive = tuple((s, float(w)) for s, w in weights.items() if w)
    return _approximate(chain, dta, positive, location, valuation, **options)
