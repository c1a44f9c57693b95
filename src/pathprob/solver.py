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
from .models import Ctmc, Dta, ModelConstants, check_start, model_constants
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
    """Solved values over the unknowns plus exact boundary lookups.

    ``values_raw`` is the untouched solver output; ``values`` is the report
    copy clamped to [0, 1].  Dead grid points read exactly 0 and final
    locations exactly 1 by construction, they are never solved for.
    ``method`` is "exact" (one exact pass), "sweep", "direct" or "empty".
    """

    system: SchemeSystem
    values_raw: np.ndarray
    values: np.ndarray
    residual: float
    sweeps: int
    method: str

    def value_of(self, cell: int) -> float:
        """Value at a cell of the grid (see :meth:`Grid.cell`)."""
        grid = self.system.grid
        cls = grid.cell_class[cell]
        if cls == FINAL_CLASS:
            return 1.0
        if cls == DEAD_CLASS:
            return 0.0
        return float(self.values[grid.slot_of[cell]])


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
    if n == 0:
        empty = np.zeros(0)
        return Solution(system, empty, empty.copy(), 0.0, 0, "empty")
    if x0 is not None and np.shape(x0) != (n,):
        raise ValueError(f"start vector has shape {np.shape(x0)}, expected ({n},)")
    grid = system.grid
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
                return Solution(
                    system, x, np.clip(x, 0.0, 1.0), float(residual),
                    sweep_count, "exact" if plan.exact else "sweep",
                )
            plan = None  # rounding left the exact pass above tol: sweep on
    except ZeroDivisionError as exc:
        raise SolverError(
            f"sweep hit a singular row or block ({exc}); the scheme matrix "
            f"is not a contraction here, which the theory only rules out for "
            f"m > 2|V|^2 = {2 * system.grid.graph.vertex_count ** 2}",
        ) from exc

    if n <= DIRECT_LIMIT:
        mat, rhs = system.dense()
        try:
            x = np.linalg.solve(np.eye(n) - mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"direct elimination found the system singular; uniqueness "
                f"is only guaranteed for m > 2|V|^2 = "
                f"{2 * system.grid.graph.vertex_count ** 2}",
            ) from exc
        residual = kernels.max_residual(*args, x)
        if residual < tol:
            return Solution(
                system, x, np.clip(x, 0.0, 1.0), float(residual),
                max_sweeps, "direct",
            )
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
    ``empirical_estimate`` is ``|v_m - v_2m|``, a heuristic and clearly not
    a bound.  On a first-order scheme it tracks the error of the 2m value
    and under-reports that of the reported ``v_m``, which is about twice
    as large: on ``unit_deadline`` at m = 64 it reads 1.42e-3 while the
    reported value is 2.86e-3 from 1 - e^-1.
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
    constants: ModelConstants,
    m: int,
    empirical_estimate: Optional[float] = None,
) -> ErrorReport:
    if m < 1:
        raise ValueError("grid resolution m must be >= 1")
    m1, m2, m3 = scaled_error_constants(constants)
    c, m_min = contraction_constant(graph, constants)
    log_c = log_contraction_constant(graph, constants)  # finite where c underflows
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
    when a final or dead start was answered without solving."""

    probability: float
    report: ErrorReport
    residual: float
    grid_points: int
    solver_method: str
    sweeps: int


@lru_cache(maxsize=8)
def _analysis(chain: Ctmc, dta: Dta) -> Tuple[ModelConstants, ProductGraph]:
    return model_constants(chain, dta), build_graph(chain, dta)


@lru_cache(maxsize=2)  # a query reuses the m and 2m grids, no more
def _solved(chain: Ctmc, dta: Dta, m: int) -> Tuple[Grid, Solution]:
    _, graph = _analysis(chain, dta)
    grid = build_grid(chain, dta, graph, m)
    return grid, solve(assemble_gamma_prime(grid))


def _value_at(chain: Ctmc, dta: Dta, state: str, location: str,
              coords: Sequence[int], m: int) -> Tuple[float, Solution]:
    """The solved m-grid's value at integer coordinates ``coords``, and
    the solution it was read from."""
    grid, solution = _solved(chain, dta, m)
    return solution.value_of(grid.cell(state, location, coords)), solution


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
    """Approximate the acceptance probability from one starting triple.

    Exactly one of ``m`` (grid resolution) and ``epsilon`` (target accuracy)
    must be given.  The start valuation is clamped into the ceiling box and
    snapped to the nearest grid point; the Lipschitz slack of the snap is
    part of the report.  Final locations answer exactly 1 and dead start
    vertices exactly 0, without solving and, for an ``epsilon`` query,
    without sizing a grid: the report is the probe's at m = 1, with bound
    0.  A grid above :data:`MAX_GRID_CELLS`
    cells (counting the ``2m`` grid of ``with_empirical``) is refused with
    :class:`ValueError` before it is built.
    """
    if (m is None) == (epsilon is None):
        raise ValueError("specify exactly one of m and epsilon")
    if m is not None and m < 1:
        raise ValueError("grid resolution m must be >= 1")
    constants, graph = _analysis(chain, dta)
    eta = tuple(Fraction(v) for v in valuation)
    check_start(chain, dta, state, location, eta)
    if epsilon is not None and not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0,1)")

    shortcut = _shortcut(graph, state, location, eta)
    if shortcut is not None:
        m = 1 if m is None else m
        report = error_report(graph, constants, m)
        report.theoretical_bound = 0.0
        return ApproxResult(shortcut, report, 0.0, grid_cells(chain, dta, m),
                            "shortcut", 0)

    if epsilon is not None:
        probe = error_report(graph, constants, 1)
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
            m = _empirical_m(chain, dta, state, location, eta, epsilon)

    largest = 2 * m if with_empirical else m
    cells = grid_cells(chain, dta, largest)
    if cells > MAX_GRID_CELLS:
        raise ValueError(
            f"the m = {largest} grid has {cells} cells, above the limit "
            f"max_grid_cells = {MAX_GRID_CELLS}"
        )

    coords, distance = _snap_to_grid(eta, dta.ceilings, m)
    value, solution = _value_at(chain, dta, state, location, coords, m)

    empirical = None
    if with_empirical:
        finer, _ = _value_at(chain, dta, state, location,
                             [2 * j for j in coords], 2 * m)
        empirical = abs(value - finer)
    report = error_report(graph, constants, m, empirical_estimate=empirical)
    report.snap_distance = float(distance)
    if distance:  # an infinite M1 times a zero snap is no slack, not NaN
        report.snap_slack = report.m1 * float(distance)
    return ApproxResult(value, report, solution.residual,
                        grid_cells(chain, dta, m), solution.method,
                        solution.sweeps)


def _shortcut(graph: ProductGraph, state: str, location: str, eta) -> Optional[float]:
    if location in graph.dta.final:
        return 1.0
    region = graph.region_number[region_of(eta, graph.dta.ceilings)]
    if graph.class_table[graph.ctmc.state_index(state),
                         graph.dta.locations.index(location), region] == DEAD_CLASS:
        return 0.0
    return None


def _empirical_m(chain, dta, state, location, eta, epsilon):
    """Richardson-style sizing: double m until successive values differ by
    at most epsilon/2 (first-order scheme, so the difference tracks the
    error of the finer grid)."""
    m = 8
    previous = None
    while grid_cells(chain, dta, m) <= MAX_GRID_CELLS:
        coords, _ = _snap_to_grid(eta, dta.ceilings, m)
        value, _ = _value_at(chain, dta, state, location, coords, m)
        if previous is not None and abs(value - previous) <= epsilon / 2:
            return m
        previous = value
        m *= 2
    raise BoundInfeasibleError(
        f"empirical sizing exceeded {MAX_GRID_CELLS} grid cells before "
        f"successive values settled within {epsilon / 2}",
        m_required=m,
    )


def prob_from_distribution(
    chain: Ctmc,
    dta: Dta,
    theta: Dict[str, object],
    location: str,
    valuation: Sequence,
    **options,
) -> ApproxResult:
    """Mix per-state answers by an initial distribution over states.

    ``theta`` maps state names to exact weights in [0, 1] summing to one;
    zero-weight states are skipped.  The reported bound is the worst
    per-state bound.  The solver method and sweeps are those of the last
    state that needed a solve ("shortcut" and 0 when none did).
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
    total = 0.0
    worst: Optional[ApproxResult] = None
    residual = 0.0
    cells = 0
    method, sweeps = "shortcut", 0
    for s, w in weights.items():
        if w == 0:
            continue
        result = approximate(chain, dta, s, location, valuation, **options)
        total += float(w) * result.probability
        residual = max(residual, result.residual)
        cells = max(cells, result.grid_points)
        if result.solver_method != "shortcut":
            method, sweeps = result.solver_method, result.sweeps
        if worst is None or _total_bound(result.report) > _total_bound(worst.report):
            worst = result
    if worst is None:
        raise ValueError("initial distribution has no positive weight")
    return ApproxResult(total, worst.report, residual, cells, method, sweeps)


def _total_bound(report: ErrorReport) -> float:
    return report.theoretical_bound + report.snap_slack
