import hashlib
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings

from pathprob import mc, modelio
from pathprob.dynamics import Configuration, kappa, select_rule
from pathprob.modelio import validate_pair
from pathprob.models import (
    Constraint, Ctmc, Dta, Guard, ModelIntegrityError, Rule, model_constants,
)
from pathprob.product import (
    ALIVE, DEAD, FINAL, MAX_VERTICES, ProductVertex, build_graph, classify,
    contraction_constant, size_report,
)
from pathprob.regions import region_of
from oracles import build_graph as reference_graph
from test_tables import _chain_of_splits, random_models

F = Fraction


def test_vertex_count_is_full_product(unit_graph):
    # 2 states x 3 locations x 4 regions of a unit-ceiling clock
    assert unit_graph.vertex_count == 24
    assert len(unit_graph.codes) == 4


def _vertex(graph, state, location, eta):
    """Vertex of (state, location, eta) and its number, which is
    (state * locations + location) * regions + region."""
    vertex = ProductVertex(state, location, region_of(eta, graph.dta.ceilings))
    number = (
        (graph.ctmc.state_index(state) * len(graph.dta.locations)
         + graph.dta.locations.index(location)) * len(graph.codes)
        + graph.region_number[vertex.region]
    )
    assert graph.vertices[number] == vertex
    return vertex, number


def test_interior_start_has_edge_to_goal(unit_graph):
    _, v = _vertex(unit_graph, "s", "q0", (F(1, 2),))
    targets = unit_graph.successors[v]
    _, goal = _vertex(unit_graph, "g", "q1", (F(3, 4),))
    assert goal in targets


def test_classification_on_unit_deadline(unit_graph):
    classes = classify(unit_graph)

    def cls(state, location, eta):
        return classes[_vertex(unit_graph, state, location, eta)[0]]

    assert cls("s", "q0", (F(0),)) == ALIVE
    assert cls("s", "q0", (F(1),)) == DEAD
    assert cls("s", "q0", (F(2),)) == DEAD
    assert cls("s", "q1", (F(0),)) == FINAL
    assert cls("g", "q0", (F(0),)) == DEAD


def test_final_class_everywhere_final(exposure_graph):
    classes = exposure_graph.classes()
    for i, v in enumerate(exposure_graph.vertices):
        if v.location in exposure_graph.dta.final:
            assert classes[i] == FINAL
        else:
            assert classes[i] in (ALIVE, DEAD)


def test_contraction_constant_unit_deadline(unit_graph, unit_deadline):
    c, m_min = contraction_constant(unit_graph)
    assert m_min == 2 * 24 * 24 + 1 == 1153
    assert abs(c - math.exp(-1) / 1153) <= 1e-12 * c


def test_graph_carries_the_model_constants_computed_on_first_read(unit_graph,
                                                                 unit_deadline):
    assert unit_graph.constants == model_constants(*unit_deadline)
    chain, dta = unit_deadline
    stalled = Ctmc(states=chain.states, transition=chain.transition,
                   exit_rates=(F(0),) * len(chain.states), labeling=chain.labeling)
    graph = build_graph(stalled, dta)  # a zero rate does not stop the graph
    with pytest.raises(ValueError, match="rates must be positive"):
        graph.constants


def test_contraction_threshold_scales_with_squared_vertices(exposure_graph,
                                                            exposure_window):
    c, m_min = contraction_constant(exposure_graph)
    n = exposure_graph.vertex_count
    assert n == 216
    assert m_min == 2 * n * n + 1
    expected = math.exp(-3.0) * (1.0 / 3.0) * float(F(1) / (2 * n * n + 1))
    assert abs(c - expected) <= 1e-12 * expected


def test_dead_vertices_have_no_alive_successors(exposure_graph):
    classes = exposure_graph.classes()
    for i, targets in enumerate(exposure_graph.successors):
        if classes[i] == DEAD:
            for j in targets:
                assert classes[j] == DEAD


def test_edge_witnesses_replay(exposure_window):
    """Each (valuation, delay) witness of the reference graph reproduces
    its edge; the package graph has the same edges (assert_same_graph)."""
    graph = reference_graph(*exposure_window)
    chain, dta = graph.ctmc, graph.dta
    for (i, j), (eta, t) in graph.witnesses.items():
        source, target = graph.vertices[i], graph.vertices[j]
        assert region_of(eta, dta.ceilings) == source.region
        assert not region_of(
            tuple(v + t for v in eta), dta.ceilings
        ).is_marginal()
        si = chain.state_index(source.state)
        assert chain.transition[si][chain.state_index(target.state)] > 0
        after = kappa(dta, Configuration(source.location, eta),
                      chain.labeling[si], t)
        assert after.location == target.location
        assert region_of(after.valuation, dta.ceilings) == target.region


def test_every_edge_has_a_witness(unit_graph):
    witnesses = reference_graph(unit_graph.ctmc, unit_graph.dta).witnesses
    for i, targets in enumerate(unit_graph.successors):
        for j in targets:
            assert (i, j) in witnesses


def test_monte_carlo_agrees_with_classification(exposure_window, exposure_graph):
    """Sampled sanity of the classes: alive non-final vertices accept with
    positive estimated probability, dead ones absorb immediately."""
    chain, dta = exposure_window
    classes = exposure_graph.classes()
    rng = np.random.default_rng(17)
    picks = {ALIVE: [], DEAD: []}
    order = rng.permutation(exposure_graph.vertex_count)
    for i in order:
        cls = classes[i]
        if cls in picks and len(picks[cls]) < 4:
            picks[cls].append(exposure_graph.vertices[i])
    from pathprob.regions import region_representative

    for vertex in picks[ALIVE]:
        eta = region_representative(vertex.region, dta.ceilings)
        est = mc.estimate(
            chain, dta, exposure_graph, vertex.state, vertex.location,
            [float(v) for v in eta], n=3000, seed=19,
        )
        assert est.p_hat > 0, vertex
        # positive at high confidence: the lower CI end stays above zero
        assert est.p_hat - est.halfwidth > 0, vertex
    for vertex in picks[DEAD]:
        eta = region_representative(vertex.region, dta.ceilings)
        est = mc.estimate(
            chain, dta, exposure_graph, vertex.state, vertex.location,
            [float(v) for v in eta], n=500, seed=23,
        )
        assert est.p_hat == 0.0
        assert est.dead_absorbed == est.n


# sha256 of modelio.graph_document (JSON with sorted keys) and of
# modelio.graph_to_dot, recorded at commit 921799c, before the product graph
# numbered its regions; `pathprob graph` prints the first and writes the
# second.
GRAPH_DIGESTS = {
    "unit_deadline": (
        "3dc2d244d36a0b77780367e3b99bb5e895c60eedc4872c0f83fb3507ef62aeca",
        "195c63bfd8ab5724cab9a75087a0b80007307de54611b5647f5937ed7adaafbc",
    ),
    "exposure_window": (
        "36055d5efe966238105173e8e24374265f0afcf7b42a7569d1b74954dcfc10cd",
        "c944107552d70f51c74fc226a2164c739334be0f1933873be38d349b3026fd3c",
    ),
    "departure": (
        "e66919dc8c99b8c1e72fabb111119e109fbee32f6ee85d1058b6401da20e235e",
        "965cf72b720a1f56184987dc506a809b2f0c6169e8f9e2f0705ed0b0aa1dc7db",
    ),
}
_GRAPHS = {"unit_deadline": "unit_graph", "exposure_window": "exposure_graph",
           "departure": "departure_graph"}


@pytest.mark.parametrize("model", list(GRAPH_DIGESTS))
def test_graph_output_is_identical_to_golden_digest(request, model):
    graph = request.getfixturevalue(_GRAPHS[model])
    document = json.dumps(modelio.graph_document(graph), sort_keys=True)
    dot = modelio.graph_to_dot(graph)
    assert (
        hashlib.sha256(document.encode()).hexdigest(),
        hashlib.sha256(dot.encode()).hexdigest(),
    ) == GRAPH_DIGESTS[model]


def test_oversized_product_graph_is_refused_before_enumeration(unit_deadline):
    chain, _ = unit_deadline
    clocks = tuple(f"x{i}" for i in range(5))
    dta = Dta(
        locations=("q0",),
        final=frozenset(),
        clocks=clocks,
        rules=(Rule("q0", "a", Guard(tuple(
            Constraint(i, "<=", 3) for i in range(5))), frozenset(), "q0"),),
        alphabet=frozenset({"a"}),
    )
    vertices = len(chain.states) * 417_338
    assert vertices > MAX_VERTICES
    started = time.perf_counter()
    with pytest.raises(ValueError) as err:
        build_graph(chain, dta)
    assert time.perf_counter() - started < 1.0
    assert f"{vertices} vertices" in str(err.value)
    assert f"MAX_VERTICES = {MAX_VERTICES}" in str(err.value)
    assert not size_report(chain, dta).ok


def test_shipped_models_are_under_the_vertex_limit(unit_graph, exposure_graph,
                                                   departure_graph):
    for graph in (unit_graph, exposure_graph, departure_graph):
        assert size_report(graph.ctmc, graph.dta).ok
        assert graph.vertex_count <= MAX_VERTICES


# ---------------------------------------------------------------------------
# Differential gate: the graph from the enabled-rule table and one region-code
# delay walk per region equals the one from the per-(location, label, region)
# walk over exact valuations.


def assert_same_graph(chain, dta):
    got, want = build_graph(chain, dta), reference_graph(chain, dta)
    assert got.codes == want.codes
    assert got.region_number == want.region_number
    assert got.labels == want.labels
    assert got.vertices == want.vertices
    assert got.successors == want.successors
    for name in ("class_table", "rule_target", "rule_resets"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def five_locations():
    """Three clocks at ceilings 2, 1, 1, five locations and two labels.
    Rule groups split the box on one clock or on a conjunction, reset
    different clock sets, and q3 traps every run with x >= 2, so the graph
    has final, alive and dead vertices."""
    x, y, z = 0, 1, 2
    C = Constraint
    groups = {
        ("q0", "a"): [((C(x, "<", 1),), {y}, "q1"),
                      ((C(x, ">=", 1), C(x, "<", 2)), {x}, "q2"),
                      ((C(x, ">=", 2),), {y, z}, "q0")],
        ("q0", "b"): [((C(y, "<=", 1),), {y}, "q3"),
                      ((C(y, ">", 1),), set(), "q0")],
        ("q1", "a"): [((C(z, "<", 1),), {z}, "q1"),
                      ((C(z, ">=", 1),), {x, y}, "qf")],
        ("q1", "b"): [((), {x, z}, "q2")],
        ("q2", "a"): [((C(x, ">", 1), C(y, "<", 1)), set(), "q3"),
                      ((C(x, ">", 1), C(y, ">=", 1)), {x, y, z}, "q0"),
                      ((C(x, "<=", 1),), {z}, "q2")],
        ("q2", "b"): [((C(y, "<", 1),), set(), "q0"),
                      ((C(y, ">=", 1),), {y}, "q3")],
        ("q3", "a"): [((C(z, ">", 0), C(x, "<", 2)), set(), "qf"),
                      ((C(z, "<=", 0), C(x, "<", 2)), {x}, "q3"),
                      ((C(x, ">=", 2),), set(), "q3")],
        ("q3", "b"): [((C(x, "<", 2),), {x, y, z}, "q1"),
                      ((C(x, ">=", 2),), set(), "q3")],
        ("qf", "a"): [((), set(), "qf")],
        ("qf", "b"): [((), set(), "qf")],
    }
    rules = tuple(Rule(q, a, Guard(terms), frozenset(resets), target)
                  for (q, a), group in groups.items()
                  for terms, resets, target in group)
    chain = Ctmc(states=("s", "t"),
                 transition=((F(1, 3), F(2, 3)), (F(1, 2), F(1, 2))),
                 exit_rates=(F(2), F(1)), labeling=("a", "b"))
    dta = Dta(locations=("q0", "q1", "q2", "q3", "qf"),
              final=frozenset({"qf"}), clocks=("x", "y", "z"), rules=rules,
              alphabet=frozenset({"a", "b"}))
    return chain, dta


@pytest.mark.parametrize("model", ["unit_deadline", "exposure_window",
                                   "departure"])
def test_graph_matches_reference_on_fixed_models(request, model):
    assert_same_graph(*request.getfixturevalue(model))


def test_graph_matches_reference_on_five_locations():
    chain, dta = five_locations()
    validate_pair(chain, dta)
    graph = build_graph(chain, dta)
    assert graph.vertex_count == 2 * 5 * 152
    assert set(graph.classes()) == {FINAL, ALIVE, DEAD}
    assert_same_graph(chain, dta)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(random_models())
@example(_chain_of_splits())
def test_graph_matches_reference_on_random_models(model):
    validate_pair(*model)
    assert_same_graph(*model)


# ---------------------------------------------------------------------------
# Unvalidated automata: the graph refuses exactly where a run would select
# no rule or several, which is at the plus region of some region.


def _one_clock(*guards):
    chain = Ctmc(states=("s",), transition=((F(1),),), exit_rates=(F(1),),
                 labeling=("a",))
    dta = Dta(locations=("q0",), final=frozenset(), clocks=("x",),
              rules=tuple(Rule("q0", "a", Guard(terms), frozenset(), "q0")
                          for terms in guards),
              alphabet=frozenset({"a"}))
    return chain, dta


def test_gap_in_an_open_region_is_refused():
    # 1 < x < 2 enables nothing
    chain, dta = _one_clock((Constraint(0, "<=", 1),),
                            (Constraint(0, ">=", 2),))
    with pytest.raises(ModelIntegrityError) as err:
        build_graph(chain, dta)
    assert str(err.value) == (
        "0 rules enabled at (q0,a) for valuation (Fraction(3, 2),); the "
        "automaton is not deterministic+total")


def test_overlap_in_an_open_region_is_refused():
    # 1 < x < 2 enables both rules
    chain, dta = _one_clock((Constraint(0, "<", 2),),
                            (Constraint(0, ">", 1),))
    with pytest.raises(ModelIntegrityError) as err:
        build_graph(chain, dta)
    assert str(err.value) == (
        "2 rules enabled at (q0,a) for valuation (Fraction(3, 2),); the "
        "automaton is not deterministic+total")


@pytest.mark.parametrize("guards, count", [
    (((Constraint(0, "<=", 1),), (Constraint(0, ">=", 2),)), 0),
    (((Constraint(0, "<", 2),), (Constraint(0, ">", 1),)), 2),
])
def test_rule_selection_and_the_graph_refuse_alike(guards, count):
    """A gap and an overlap at 1 < x < 2: the graph and rule selection at
    the region's representative raise one message, as both did before
    they shared :func:`models.the_enabled_rule`."""
    chain, dta = _one_clock(*guards)
    expected = (
        f"{count} rules enabled at (q0,a) for valuation (Fraction(3, 2),); "
        f"the automaton is not deterministic+total")
    with pytest.raises(ModelIntegrityError) as built:
        build_graph(chain, dta)
    with pytest.raises(ModelIntegrityError) as selected:
        select_rule(dta, "q0", "a", (F(3, 2),))
    assert str(built.value) == str(selected.value) == expected


def test_gap_at_a_boundary_point_only_builds():
    # x = 1 enables nothing, but no run fires a rule there: every delay is
    # positive, so every step selects at a plus region
    chain, dta = _one_clock((Constraint(0, "<", 1),),
                            (Constraint(0, ">", 1),))
    graph = build_graph(chain, dta)
    assert graph.vertex_count == 4
    assert_same_graph(chain, dta)
