"""Gate for grids kept to the box points a start reaches.

``scheme.reachable_points`` must name exactly the box points that a search
under the two moves finds, saturated delay and resets of the clocks some
rule resets.  A grid built from a start keeps the alive cells at those
points only; every row of its full-grid twin must read kept rows alone,
each kept row must read the cells its twin reads, and the value of every
(state, location) at the start must equal the full solve's bit for bit
where both solves are exact, and agree within the sweeps' tolerance where
they fall back to sweeps, whose residual no longer sees the dropped rows.

One exact model is not bit for bit: the kept grid of ``_reset_departure``
from a start with x >= 1/2 loses the row that read two earlier rows of
the one chunk of its exact pass, so the pass solves that chunk by
recursive doubling instead of the scalar loop, which rounds apart by an
ulp (see ``pathprob.kernels``).
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathprob import regions, solver
from pathprob.modelio import validate_pair
from pathprob.models import Constraint, Ctmc, Dta, Guard, Rule
from pathprob.product import ALIVE_CLASS, build_graph
from pathprob.scheme import assemble_gamma_prime, build_grid, reachable_points
from pathprob.solver import TOLERANCE, solve
from test_kernels import _BUILT
from test_tables import GRIDS, _chain_of_splits, random_models

F = Fraction
# two sweeps that stop at a residual below TOLERANCE agree within it, times
# the few rounds the contraction needs to damp it
SWEPT_AGREEMENT = 10 * TOLERANCE
ULPS = 4 * np.finfo(np.float64).eps  # recursive doubling against a loop


def _saturated_reset_loop():
    """``reset_loop`` with a second clock x that no rule resets: y is
    reset by the loop while y < 1, leaving s with y >= 1 accepts, and x
    only splits the guards.  At x = 1 the loop and the delay steps of y
    form a cycle inside one slice, so the solve falls back to sweeps, and
    a start reaches no point with y > x."""
    half = F(1, 2)
    chain = Ctmc(states=("s", "d"), transition=((half, half), (F(0), F(1))),
                 exit_rates=(F(1), F(1)), labeling=("a", "b"))
    rules = []
    for x in (Constraint(0, "<", 1), Constraint(0, ">=", 1)):
        rules.append(Rule("q0", "a", Guard((x, Constraint(1, "<", 1))),
                          frozenset({1}), "q0"))
        rules.append(Rule("q0", "a", Guard((x, Constraint(1, ">=", 1))),
                          frozenset(), "qf"))
    rules.append(Rule("q0", "b", Guard(), frozenset(), "qsink"))
    rules += [Rule(q, a, Guard(), frozenset(), q)
              for q in ("qf", "qsink") for a in "ab"]
    dta = Dta(locations=("q0", "qf", "qsink"), final=frozenset({"qf"}),
              clocks=("x", "y"), rules=tuple(rules), alphabet=frozenset("ab"))
    return chain, dta


def searched_points(top, resettable, start):
    """The box points ``start`` reaches by saturated delay steps and by
    resets of any subset of the ``resettable`` clocks, by search."""
    seen, todo = {tuple(start)}, [tuple(start)]
    while todo:
        point = todo.pop()
        moves = [tuple(min(j + 1, t) for j, t in zip(point, top))]
        for subset in itertools.product((False, True), repeat=len(point)):
            if all(r or not s for s, r in zip(subset, resettable)):
                moves.append(tuple(0 if s else j for s, j in zip(subset, point)))
        for nxt in moves:
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


@pytest.mark.parametrize("ceilings, m", [
    ((), 4), ((1,), 8), ((2,), 3), ((1, 1), 4), ((2, 1), 3), ((1, 2, 1), 2),
])
def test_reachable_points_are_those_a_search_finds(ceilings, m):
    coords = regions.grid_points(ceilings, m)
    top = tuple(m * c for c in ceilings)
    for resettable in itertools.product((False, True), repeat=len(top)):
        for start in itertools.product(*(range(t + 1) for t in top)):
            kept = reachable_points(coords, top, np.array(resettable, dtype=bool),
                                    start)
            assert kept.shape == (len(coords),)
            got = {tuple(p) for p in coords[kept].tolist()}
            assert got == searched_points(top, resettable, start), (
                resettable, start)


def _starts(top):
    """The origin, a start off the diagonal with x > y, one with y > x,
    the saturated corner and one saturated clock beside zeros."""
    k = len(top)
    return sorted({
        (0,) * k,
        tuple(t // 2 ** (i + 1) for i, t in enumerate(top)),
        tuple(i * t // k for i, t in enumerate(top, 1)),
        tuple(top),
        tuple(top[:1]) + (0,) * (k - 1),
    })


def _cell_of(grid, rows):
    """The cells of ``rows`` of ``grid``, -1 where a row is -1."""
    return np.where(rows >= 0, grid.cells[rows], -1)


def check_start_cone(chain, dta, graph, m, start, bitwise=True):
    """The grid kept to ``start`` against the full grid: closure, the
    same rows, and the values at the start, bit for bit where both
    solves are exact and ``bitwise``.  Returns the two methods."""
    full = build_grid(graph, m)
    kept = build_grid(graph, m, start)
    assert kept.d_m_size == full.d_m_size
    assert np.array_equal(kept.cell_class, full.cell_class)
    twin = full.slot_of[kept.cells]
    assert (twin >= 0).all()
    # a box point is kept whole: every alive cell of a kept point is a row
    points = np.zeros(full.box_size, dtype=bool)
    points[kept.point] = True
    assert np.array_equal(kept.cells, full.cells[points[full.point]])
    # closure: every row the twins read is kept
    for reads in (full.delay_row[twin], full.jump_rows[twin].ravel()):
        read = reads[reads >= 0]
        assert (kept.slot_of[full.cells[read]] >= 0).all()
    # and each kept row reads what its twin reads
    assert np.array_equal(_cell_of(kept, kept.delay_row),
                          _cell_of(full, full.delay_row[twin]))
    assert np.array_equal(_cell_of(kept, kept.jump_rows),
                          _cell_of(full, full.jump_rows[twin]))
    for name in ("row_state", "is_bmax", "to_final", "point", "slice_key"):
        assert np.array_equal(getattr(kept, name), getattr(full, name)[twin]), name
    assert np.array_equal(kept.horizons, full.horizons[twin])

    whole = solve(assemble_gamma_prime(full))
    cone = solve(assemble_gamma_prime(kept))
    exact = whole.method == cone.method == "exact"
    for state, location in itertools.product(chain.states, dta.locations):
        cell = full.cell(state, location, start)
        if full.cell_class[cell] != ALIVE_CLASS:
            continue
        got = cone.values_raw[kept.slot_of[cell]]
        want = whole.values_raw[full.slot_of[cell]]
        if exact and bitwise:
            assert got.tobytes() == want.tobytes(), (state, location, start)
        else:
            tolerance = ULPS if exact else SWEPT_AGREEMENT
            assert abs(got - want) <= tolerance, (state, location, start)
    return whole.method, cone.method


_BUILT_HERE = dict(_BUILT, _chain_of_splits=_chain_of_splits,
                   _saturated_reset_loop=_saturated_reset_loop)
# model, m, the method of both solves and whether the exact values are
# bit for bit; every start keeps that method
_CONE_MODELS = [
    ("exposure_window", 8, "exact", True),
    ("exposure_window", 16, "exact", True),
    ("three_clock", 8, "exact", True),
    ("unit_deadline", 16, "exact", True),
    ("departure", 16, "exact", True),
    ("_two_clock_departure", 8, "exact", True),
    ("_reset_departure", 8, "exact", False),
    # every clock of these is reset, so every start keeps the whole grid
    ("reset_loop", 16, "sweep", True),
    ("_chain_of_splits", 4, "sweep", True),
    # this one drops the points with y > x and sweeps on the rest
    ("_saturated_reset_loop", 8, "sweep", True),
]


@pytest.mark.parametrize("model, m, method, bitwise", _CONE_MODELS)
def test_kept_grid_is_closed_and_answers_as_the_full_grid(
        request, model, m, method, bitwise):
    if model in _BUILT_HERE:
        chain, dta = _BUILT_HERE[model]()
    else:
        chain, dta = request.getfixturevalue(model)
    validate_pair(chain, dta)
    graph = build_graph(chain, dta)
    top = tuple(m * c for c in dta.ceilings)
    methods = {check_start_cone(chain, dta, graph, m, start, bitwise)
               for start in _starts(top)}
    assert {whole for whole, _ in methods} == {method}
    assert {cone for _, cone in methods} <= {method, "empty"}


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(random_models(), st.sampled_from(GRIDS), st.data())
@example(_chain_of_splits(), 3, None)
def test_kept_grid_is_closed_and_answers_as_the_full_grid_on_random_models(
        model, m, data):
    chain, dta = model
    validate_pair(chain, dta)
    graph = build_graph(chain, dta)
    top = tuple(m * c for c in dta.ceilings)
    starts = _starts(top) if data is None else [
        tuple(data.draw(st.integers(0, t)) for t in top)]
    for start in starts:
        check_start_cone(chain, dta, graph, m, start)


def test_value_of_refuses_an_alive_cell_the_grid_did_not_keep(
        exposure_window, exposure_graph):
    """From (0, 0) on ``exposure_window`` no point with y > x is reached:
    x is never reset and y only to 0.  The full grid reads such a point;
    the kept grid refuses it rather than read ``values_raw[-1]``."""
    full = build_grid(exposure_graph, 8)
    kept = build_grid(exposure_graph, 8, (0, 0))
    cell = full.cell("a", "q0", (0, 4))
    assert full.cell_class[cell] == ALIVE_CLASS and kept.slot_of[cell] == -1
    assert 0 < solve(assemble_gamma_prime(full)).value_of(cell) < 1
    solution = solve(assemble_gamma_prime(kept))
    with pytest.raises(ValueError, match="outside the points the grid kept"):
        solution.value_of(cell)
    assert solution.value_of(full.cell("a", "q0", (4, 0))) == \
        solve(assemble_gamma_prime(full)).value_of(full.cell("a", "q0", (4, 0)))


def test_the_readme_solve_keeps_half_the_unknowns(exposure_window):
    """The README query solves m = 16, 32 and 64 from (0, 0), kept to the
    points with y <= x: 16 464 of 32 704 unknowns, as ``solve_2clock``
    traces them, and the same answer."""
    solver._solved.cache_clear()
    result = solver.approximate(*exposure_window, "a", "q0", (0, 0), m=64,
                                with_empirical=True)
    assert result.probability == 0.2642337485503773
    graph = build_graph(*exposure_window)
    full = [len(build_grid(graph, m).cells) for m in (16, 32, 64)]
    kept = [len(build_grid(graph, m, (0, 0)).cells)
            for m in (16, 32, 64)]
    assert (sum(full), sum(kept)) == (32704, 16464)
    solved = solver._solved(solver._analysis(*exposure_window), 64, (0, 0))
    assert solver._solved.cache_info().misses == 3  # read from the query's walk
    assert len(solved.grid.cells) == kept[-1]
