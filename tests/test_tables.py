"""Gate for the numbered region, class and rule tables.

At every point of the m-grid the region number must name the region that
``region_of`` computes, the rule table must give the target and resets of
``select_rule`` at the point's plus representative, and the class table
must agree with a backward search over the graph's edges and with the
class the oracle path (``region_of`` plus a vertex lookup built from
``graph.vertices``) gives the point.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathprob.dynamics import select_rule
from pathprob.modelio import parse_model_text, serialize_model, validate_pair
from pathprob.models import Constraint, Ctmc, Dta, Guard, Rule
from pathprob.product import CLASS_NAMES, build_graph, classify
from pathprob.regions import grid_region_numbers, region_of
from pathprob.scheme import build_grid
from oracles import (
    decode, plus_representative, reachability_classes, vertex_class,
)

F = Fraction
GRIDS = (1, 2, 3, 4, 8)


def check_tables(chain, dta, graph, m):
    ceilings = dta.ceilings
    numbers = grid_region_numbers(ceilings, m, graph.region_number).tolist()
    points = list(itertools.product(*[range(m * c + 1) for c in ceilings]))
    assert len(numbers) == len(points)
    for coords, r in zip(points, numbers):
        eta = tuple(F(j, m) for j in coords)
        assert graph.codes[r] == region_of(eta, ceilings), (coords, m)
        plus = plus_representative(eta, ceilings)
        for qi, q in enumerate(dta.locations):
            for ai, a in enumerate(graph.labels):
                rule = select_rule(dta, q, a, plus)
                assert dta.locations[graph.rule_target[qi, ai, r]] == rule.target
                assert set(np.flatnonzero(graph.rule_resets[qi, ai, r])) == rule.resets

    expected = reachability_classes(graph)
    named = classify(graph)
    for i, (v, cls) in enumerate(zip(graph.vertices, graph.class_table.ravel())):
        assert CLASS_NAMES[cls] == expected[i] == named[v], v

    grid = build_grid(graph, m)
    for cell, cls in enumerate(grid.cell_class.tolist()):
        state, location, coords = decode(grid, cell)
        eta = tuple(F(j, m) for j in coords)
        assert CLASS_NAMES[cls] == vertex_class(graph, state, location, eta), (
            state, location, eta)
        assert grid.cell(state, location, coords) == cell


@pytest.mark.parametrize("m", GRIDS)
@pytest.mark.parametrize("model, graph", [
    ("unit_deadline", "unit_graph"),
    ("exposure_window", "exposure_graph"),
    ("departure", "departure_graph"),
])
def test_tables_match_exact_region_algebra(request, model, graph, m):
    check_tables(*request.getfixturevalue(model),
                 request.getfixturevalue(graph), m)


# ---------------------------------------------------------------------------
# Random models, deterministic and total by construction: each (location,
# signature) pair has one unguarded rule or splits the box on one clock.

_CLOCKS = ("x", "y", "z")
_SPLITS = (("<", ">="), ("<=", ">"))


@st.composite
def random_models(draw, max_clocks=3):
    """Valid pairs: 1 to ``max_clocks`` (at most 3) clocks with ceilings
    <= 2, 1-2 signatures, at least as many states (1-2), each labelled,
    and the locations q0, qf or q0, q1, qf, of which qf is final."""
    clocks = _CLOCKS[: draw(st.integers(1, max_clocks))]
    locations = draw(st.sampled_from((("q0", "qf"), ("q0", "q1", "qf"))))
    labels = ("a", "b")[: draw(st.integers(1, 2))]
    clock = st.integers(0, len(clocks) - 1)
    rules = []
    for q in locations:
        for a in labels:
            if draw(st.integers(0, 3)) == 0:
                guards = [Guard()]
            else:
                i, bound = draw(clock), draw(st.integers(0, 2))
                low, high = draw(st.sampled_from(_SPLITS))
                guards = [Guard((Constraint(i, low, bound),)),
                          Guard((Constraint(i, high, bound),))]
            for g in guards:
                rules.append(Rule(q, a, g, draw(st.frozensets(clock)),
                                  draw(st.sampled_from(locations))))
    states = ("s", "t")[: draw(st.integers(len(labels), 2))]
    rows = []
    for _ in states:
        weights = draw(st.lists(st.integers(0, 2), min_size=len(states),
                                max_size=len(states)))
        if not any(weights):
            weights[0] = 1
        rows.append(tuple(F(w, sum(weights)) for w in weights))
    chain = Ctmc(
        states=states,
        transition=tuple(rows),
        exit_rates=tuple(F(draw(st.integers(1, 3))) for _ in states),
        labeling=tuple(labels[i % len(labels)] for i in range(len(states))),
    )
    dta = Dta(
        locations=locations,
        final=frozenset({"qf"}),
        clocks=clocks,
        rules=tuple(rules),
        alphabet=frozenset(labels),
    )
    return chain, dta


def _chain_of_splits():
    """Three clocks at ceiling 2, which random draws seldom reach: q0
    splits on x, q1 on y and z, each bound-2 side resetting its clock."""
    x, y, z = (Constraint(i, op, 2) for i, op in ((0, "<"), (1, "<="), (2, ">")))
    neg = {"<": ">=", "<=": ">", ">": "<="}
    rules = []
    for q, term, target in (("q0", x, "q1"), ("q1", y, "q0"), ("qf", z, "qf")):
        rules.append(Rule(q, "a", Guard((term,)), frozenset(), target))
        rules.append(Rule(q, "a", Guard((term._replace(op=neg[term.op]),)),
                          frozenset({term.clock}), "qf" if q == "q1" else q))
    chain = Ctmc(states=("s",), transition=((F(1),),), exit_rates=(F(2),),
                 labeling=("a",))
    dta = Dta(locations=("q0", "q1", "qf"), final=frozenset({"qf"}),
              clocks=_CLOCKS, rules=tuple(rules), alphabet=frozenset({"a"}))
    return chain, dta


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(random_models(), st.sampled_from(GRIDS))
@example(_chain_of_splits(), 3)
def test_tables_match_on_random_models(model, m):
    chain, dta = model
    validate_pair(chain, dta)
    check_tables(chain, dta, build_graph(chain, dta), m)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(random_models())
@example(_chain_of_splits())
def test_model_text_round_trips_on_random_models(model):
    assert parse_model_text(serialize_model(*model)) == model
