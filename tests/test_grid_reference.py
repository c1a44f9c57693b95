"""Differential gate: the grid numbered by integer cells and both
assemblies over its per-row arrays equal the dict-keyed grid and the
point-by-point assemblies they replaced (kept in ``tests/oracles.py``),
array for array, dtype included, with the same unknowns in the same order
and the same class at every grid point.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathprob.modelio import validate_pair
from pathprob.models import Ctmc, Dta, Guard, Rule
from pathprob.product import ALIVE, CLASS_NAMES, DEAD, FINAL, build_graph
from pathprob.scheme import assemble_gamma_double, assemble_gamma_prime, build_grid
from pathprob.solver import approximate
import oracles
from test_product import five_locations
from test_tables import _chain_of_splits, random_models

F = Fraction
ASSEMBLERS = (
    (assemble_gamma_prime, oracles.assemble_gamma_prime),
    (assemble_gamma_double, oracles.assemble_gamma_double),
)


def assert_same_grid(chain, dta, graph, m):
    got = build_grid(graph, m)
    want = oracles.Grid(chain, dta, graph, m)
    assert got.d_m_size == want.d_m_size
    points = list(want.points())
    assert len(points) == got.d_m_size
    for cell, (point, cls) in enumerate(points):
        state, location, coords = oracles.decode(got, cell)
        assert oracles.GridPoint(state, location, want.valuation(coords)) == point
        assert got.cell(state, location, coords) == cell, point
        assert CLASS_NAMES[got.cell_class[cell]] == cls, point
    assert [points[c][0] for c in got.cells.tolist()] == list(want.b_m)
    for assemble, reference in ASSEMBLERS:
        a, b = assemble(got), reference(want)
        assert a.kind == b.kind
        for name in ("indptr", "indices", "data", "offset"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), (name, a.kind)
    for name in ("horizons", "is_bmax"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


@pytest.mark.parametrize("m", [1, 2, 3, 5, 64])
@pytest.mark.parametrize("model, graph", [
    ("unit_deadline", "unit_graph"),
    ("exposure_window", "exposure_graph"),
    ("departure", "departure_graph"),
])
def test_grid_matches_reference_on_fixed_models(request, model, graph, m):
    assert_same_grid(*request.getfixturevalue(model),
                     request.getfixturevalue(graph), m)


def test_grid_matches_reference_on_five_locations():
    chain, dta = five_locations()
    assert_same_grid(chain, dta, build_graph(chain, dta), 2)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(random_models(), st.sampled_from((1, 2, 3, 5)))
@example(_chain_of_splits(), 3)
def test_grid_matches_reference_on_random_models(model, m):
    chain, dta = model
    validate_pair(chain, dta)
    assert_same_grid(chain, dta, build_graph(chain, dta), m)


def clockless():
    """No clocks: leaving s moves on to t or d, leaving t accepts and
    leaving d traps the run in the non-final location qd."""
    chain = Ctmc(
        states=("s", "t", "d"),
        transition=((F(0), F(1, 2), F(1, 2)), (F(1), F(0), F(0)),
                    (F(0), F(0), F(1))),
        exit_rates=(F(1), F(2), F(1)),
        labeling=("a", "b", "c"),
    )
    step = {"a": "q0", "b": "qf", "c": "qd"}
    rules = tuple(
        Rule(q, a, Guard(), frozenset(), step[a] if q == "q0" else q)
        for q in ("q0", "qd", "qf") for a in "abc"
    )
    dta = Dta(locations=("q0", "qd", "qf"), final=frozenset({"qf"}),
              clocks=(), rules=rules, alphabet=frozenset("abc"))
    return chain, dta


def test_grid_matches_reference_without_clocks():
    chain, dta = clockless()
    validate_pair(chain, dta)
    graph = build_graph(chain, dta)
    for m in (1, 4):
        assert_same_grid(chain, dta, graph, m)
    grid = build_grid(graph, 4)
    assert grid.d_m_size == 9 and grid.is_bmax.all()
    assert [CLASS_NAMES[cls] for cls in grid.cell_class.tolist()] == [
        ALIVE, DEAD, FINAL, ALIVE, DEAD, FINAL, DEAD, DEAD, FINAL,
    ]


def test_clockless_query_is_solved():
    chain, dta = clockless()
    result = approximate(chain, dta, "s", "q0", (), m=4)
    assert result.probability == pytest.approx(0.5, abs=1e-12)
    assert result.report.theoretical_bound == 0.0
    assert approximate(chain, dta, "d", "q0", (), m=4).probability == 0.0
