import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import MODELS
from pathprob import mc, modelio, solver
from pathprob.modelio import validate_pair
from pathprob.models import Ctmc, Dta, Guard, Rule
from pathprob.product import build_graph
from pathprob.scheme import assemble_gamma_prime, build_grid
from pathprob.solver import (
    ORDER_MIN,
    ROMBERG_ORDER_MIN,
    SAFETY_FACTOR,
    BoundInfeasibleError,
    GridRow,
    SolverError,
    _snap_to_grid,
    approximate,
    error_report,
    observed_order,
    prob_from_distribution,
    richardson_error,
    solve,
)
import oracles
from oracles import (
    exact_on_diagonal, exact_one_clock, extrapolated_answer, grid_estimate,
    grid_sized_answer,
)
from test_tables import random_models

F = Fraction


def _system(model, graph, m):
    return assemble_gamma_prime(build_grid(graph, m))


@pytest.mark.parametrize("m", [4, 8])
def test_chain_recurrence_solved_exactly(unit_deadline, unit_graph, m):
    solution = solve(_system(unit_deadline, unit_graph, m))
    expected = 1 - (1 + 1 / m) ** -m
    value = solution.value_of(solution.grid.cell("s", "q0", (0,)))
    assert value == pytest.approx(expected, abs=1e-13)
    assert solution.residual < 1e-12
    assert solution.sweeps == 1  # one exact pass, by decreasing clock value


def test_empty_system_is_a_noop():
    chain = Ctmc(
        states=("s",),
        transition=((F(1),),),
        exit_rates=(F(1),),
        labeling=("a",),
    )
    dta = Dta(
        locations=("q0", "qsink"),
        final=frozenset(),
        clocks=("x",),
        rules=(
            Rule("q0", "a", Guard(), frozenset(), "qsink"),
            Rule("qsink", "a", Guard(), frozenset(), "qsink"),
        ),
        alphabet=frozenset({"a"}),
    )
    graph = build_graph(chain, dta)
    solution = solve(_system((chain, dta), graph, 4))
    assert solution.method == "empty"
    assert solution.values_raw.size == 0
    assert solution.value_of(solution.grid.cell("s", "q0", (0,))) == 0.0


def test_reported_residual_matches_recomputation(exposure_window, exposure_graph):
    system = _system(exposure_window, exposure_graph, 8)
    solution = solve(system)
    x = solution.values_raw
    defect = np.zeros_like(x)
    for k in range(system.size):
        lo, hi = system.indptr[k], system.indptr[k + 1]
        defect[k] = x[k] - (
            np.dot(system.data[lo:hi], x[system.indices[lo:hi]])
            + system.offset[k]
        )
    assert solution.residual == pytest.approx(np.abs(defect).max(), rel=1e-9,
                                              abs=1e-15)


def test_raw_values_stay_in_range(exposure_window, exposure_graph):
    solution = solve(_system(exposure_window, exposure_graph, 16), tol=1e-10)
    assert (solution.values_raw >= -1e-9).all()
    assert (solution.values_raw <= 1 + 1e-9).all()
    assert all(0 <= solution.value_of(cell) <= 1
               for cell in range(solution.grid.cell_class.size))


def test_random_starts_agree(exposure_window, exposure_graph):
    system = _system(exposure_window, exposure_graph, 8)
    rng = np.random.default_rng(47)
    baseline = solve(system, tol=1e-12).values_raw
    for _ in range(4):
        start = rng.random(system.size)
        other = solve(system, tol=1e-12, x0=start).values_raw
        assert np.max(np.abs(other - baseline)) < 1e-9


def test_direct_fallback_agrees_with_sweeps(unit_deadline, unit_graph):
    system = _system(unit_deadline, unit_graph, 8)
    iterated = solve(system, tol=1e-12)
    forced = solve(system, tol=1e-12, max_sweeps=0)
    assert forced.method == "direct"
    assert np.max(np.abs(forced.values_raw - iterated.values_raw)) < 1e-10


def test_nonconvergence_error_carries_residual(reset_loop, reset_loop_graph):
    # 4 097 unknowns, above DIRECT_LIMIT: no dense fallback after the sweep
    system = _system(reset_loop, reset_loop_graph, 4096)
    with pytest.raises(SolverError) as err:
        solve(system, tol=1e-14, max_sweeps=1)
    assert err.value.residual is not None and err.value.residual > 0


def test_first_order_convergence_on_chain(unit_deadline, unit_graph):
    exact = 1 - math.exp(-1)
    errors = {}
    for m in (8, 16, 32, 64, 128):
        solution = solve(_system(unit_deadline, unit_graph, m))
        value = solution.value_of(solution.grid.cell("s", "q0", (0,)))
        errors[m] = abs(value - exact)
    for m in (8, 16, 32, 64):
        assert 1.6 <= errors[m] / errors[2 * m] <= 2.4


def test_error_report_fields(unit_deadline, unit_graph):
    report = error_report(unit_graph, 1153)
    assert report.m_min == 1153
    assert report.below_threshold is False
    assert report.m == 1153
    bound_by_hand = (
        24 * (math.exp(-1) / 1153) ** -24 * report.m3 / 1153
    )
    assert report.theoretical_bound == pytest.approx(bound_by_hand, rel=1e-9)
    assert error_report(unit_graph, 64).below_threshold is True


def test_error_constants_of_a_clockless_pair_are_exactly_zero():
    """Without clocks the scheme is exact in time: the constants are zero,
    not rounded up to the smallest subnormal, and so is the bound."""
    chain = Ctmc(states=("s", "g"), transition=((F(0), F(1)), (F(0), F(1))),
                 exit_rates=(F(1), F(1)), labeling=("a", "b"))
    dta = Dta(
        locations=("q0", "q1"), final=frozenset({"q1"}), clocks=(),
        rules=(Rule("q0", "a", Guard(), frozenset(), "q0"),
               Rule("q0", "b", Guard(), frozenset(), "q1"),
               Rule("q1", "a", Guard(), frozenset(), "q1"),
               Rule("q1", "b", Guard(), frozenset(), "q1")),
        alphabet=frozenset({"a", "b"}),
    )
    report = error_report(build_graph(chain, dta), 4)
    assert report.m1 == report.m2 == report.m3 == 0.0
    assert report.theoretical_bound == 0.0


def test_bound_halves_when_m_doubles(unit_deadline, unit_graph):
    coarse = error_report(unit_graph, 100).theoretical_bound
    fine = error_report(unit_graph, 200).theoretical_bound
    assert fine == pytest.approx(coarse / 2, rel=1e-12)


def test_approximate_final_location_is_exactly_one(unit_deadline):
    result = approximate(*unit_deadline, "s", "q1", (F(0),), m=4)
    assert result.probability == 1.0
    assert result.report.theoretical_bound == 0.0


def test_approximate_dead_vertex_is_exactly_zero(unit_deadline):
    result = approximate(*unit_deadline, "s", "q0", (F(7, 2),), m=4)
    assert result.probability == 0.0
    assert result.report.theoretical_bound == 0.0


def test_approximate_snaps_with_ties_toward_zero(unit_deadline, unit_graph):
    at_zero = approximate(*unit_deadline, "s", "q0", (F(0),), m=4)
    tied = approximate(*unit_deadline, "s", "q0", (F(1, 8),), m=4)
    assert tied.probability == at_zero.probability
    assert tied.report.snap_distance == pytest.approx(1 / 8)
    assert tied.report.snap_slack == pytest.approx(math.e / 8, rel=1e-12)
    nearer = approximate(*unit_deadline, "s", "q0", (F(3, 16),), m=4)
    quarter = approximate(*unit_deadline, "s", "q0", (F(1, 4),), m=4)
    assert nearer.probability == quarter.probability


@pytest.mark.parametrize("location,valuation,named", [
    ("q1", (F(-1),), "clock 'x'"),  # checked before the final shortcut
    ("q0", (F(-1, 2),), "clock 'x'"),
    ("q0", (F(0), F(0)), "2 clocks"),
    ("nope", (F(0),), "location 'nope'"),
])
def test_approximate_refuses_bad_start(unit_deadline, location, valuation,
                                       named):
    with pytest.raises(ValueError, match=named):
        approximate(*unit_deadline, "s", location, valuation, m=4)


def test_approximate_clamps_outside_box(unit_deadline):
    outside = approximate(*unit_deadline, "s", "q0", (F(5),), m=4)
    assert outside.probability == 0.0  # clamps to the dead ceiling


def _unit_value(m, x=F(0)):
    """v_m on ``unit_deadline`` from a start x on the m grid, in closed
    form: the m(1 - x) steps of the chain recurrence to the ceiling."""
    return 1 - (1 + 1 / m) ** -int(m * (1 - x))


def _three_grid_estimate(m):
    """1.25 |v_m - v_{m/2}| / (2^p - 1) in closed form from x = 0, at the
    observed order p of the m/4, m/2 and m values."""
    v_quarter, v_half, v = (_unit_value(k) for k in (m // 4, m // 2, m))
    p = observed_order(v_half - v_quarter, v - v_half)
    return 1.25 * abs(v - v_half) / (2 ** p - 1)


@pytest.mark.parametrize("m,x,expected", [
    (8, F(0), _three_grid_estimate(8)),  # 3.2878502e-2
    (6, F(0), SAFETY_FACTOR * 2 * abs(_unit_value(6) - _unit_value(12))),
    (8, F(1, 8), SAFETY_FACTOR * 2 * abs(_unit_value(8, F(1, 8))
                                         - _unit_value(16, F(1, 8)))),
], ids=["three_grids", "2m_grid_where_4_does_not_divide_m",
        "2m_grid_off_the_quarter_grid"])
def test_approximate_empirical_estimate(unit_deadline, m, x, expected):
    """A start on the m/4 grid is estimated from the m/4, m/2 and m grids;
    any other falls back to Roache's index of v_m at order 1 from the 2m
    grid, SAFETY_FACTOR * 2 |v_m - v_2m|."""
    result = approximate(*unit_deadline, "s", "q0", (x,), m=m,
                         with_empirical=True)
    assert result.report.empirical_estimate == pytest.approx(expected,
                                                             abs=1e-12)


def test_2m_estimate_solves_and_reads_each_grid_once(unit_deadline):
    """x = 1/64 is off the m/4 grid, so m = 64 falls back to the 2m grid:
    the answer is the m row of the (m, 2m) table, with no second read of
    the m grid, and the same answer as reading the two grids apart."""
    solver._solved.cache_clear()
    result = approximate(*unit_deadline, "s", "q0", (F(1, 64),), m=64,
                         with_empirical=True)
    info = solver._solved.cache_info()
    assert (info.hits, info.misses) == (0, 2)
    assert _estimated(result) == _as_before(
        *_grid_estimate(unit_deadline, "s", (F(1, 64),), 64))


def test_a_repeated_two_grid_query_rereads_both_grids_of_a_reparsed_model():
    """The walk of a two-grid query fits the solved-grid cache, so asking
    it again on a freshly parsed copy of the model reads both grids from
    the cache: the cache keys on the graph, and :func:`solver._analysis`
    keeps one graph per equal model."""
    solver._solved.cache_clear()
    models = [modelio.parse_model(str(MODELS / "unit_deadline.json"))
              for _ in range(2)]
    assert models[0] is not models[1] and models[0] == models[1]
    for model in models:
        approximate(*model, "s", "q0", (F(1, 64),), m=64, with_empirical=True)
    info = solver._solved.cache_info()
    assert (info.hits, info.misses) == (2, 2)
    assert solver._analysis(*models[0]) is solver._analysis(*models[1])


def _synthetic_row(v_quarter, v_half, v):
    """The table row of the m = 64 grid over values of the 16, 32 and 64
    grids."""
    gap = v - v_half
    return GridRow(64, v, None, gap, observed_order(v_half - v_quarter, gap))


def test_richardson_error_of_synthetic_values():
    """Exact, up to the factor of safety, on values v* + c/m^p; None
    when a gap is zero or the gaps shrink too slowly."""
    for p in (0.75, 1.0, 2.0, 3.5):
        for c in (0.7, -0.2):
            v = {m: 0.3 + c / m ** p for m in (16, 32, 64)}
            estimate = richardson_error(_synthetic_row(v[16], v[32], v[64]))
            assert estimate == pytest.approx(SAFETY_FACTOR * abs(c) / 64 ** p,
                                             rel=1e-9)
    assert richardson_error(_synthetic_row(0.5, 0.5, 0.6)) is None
    assert richardson_error(_synthetic_row(0.5, 0.6, 0.6)) is None
    assert richardson_error(_synthetic_row(0.5, 0.6, 0.69)) is None  # p = 0.15


def _grid_estimate(model, state, eta, m):
    """``grid_estimate`` of the walk the table replaced, with its 2m gap
    |v_m - v_2m| put through the index the query reports for a start off
    the m/4 grid, SAFETY_FACTOR * 2 |v_m - v_2m|."""
    value, solution, estimate = grid_estimate(*model, state, "q0", eta, m)
    if m % 4 or _snap_to_grid(eta, model[1].ceilings, m // 4)[1]:
        estimate = SAFETY_FACTOR * 2 * estimate
    return value, solution, estimate


@pytest.mark.parametrize("m", [2 ** k for k in range(2, 13)])
def test_three_grid_estimate_covers_the_error_on_unit_deadline(
        unit_deadline, m):
    result = approximate(*unit_deadline, "s", "q0", (F(0),), m=m,
                         with_empirical=True)
    error = abs(result.probability - (1 - math.exp(-1)))
    assert result.report.empirical_estimate >= error


def _unguarded(dta, clock):
    """``dta`` with every term on ``clock`` dropped from its guards and the
    rules whose guard needed ``clock>=1`` dropped with them."""
    rules = []
    for rule in dta.rules:
        on_clock = {(t.op, t.bound) for t in rule.guard.terms if t.clock == clock}
        assert on_clock <= {("<", 1), (">=", 1)}, rule
        if (">=", 1) not in on_clock:
            guard = Guard(tuple(t for t in rule.guard.terms if t.clock != clock))
            rules.append(rule._replace(guard=guard))
    return replace(dta, rules=tuple(rules))


def _exposure_one_clock(dta):
    """``exposure_window`` without clock y.  From a start with y <= x,
    y stays at most x (y is only ever reset to 0), so every ``y<1`` term
    holds wherever its ``x<1`` does and a rule that needs ``y>=1`` never
    fires: drop those terms and rules, and y from the resets."""
    rules = tuple(rule._replace(resets=rule.resets - {1})
                  for rule in _unguarded(dta, 1).rules)
    return replace(dta, clocks=dta.clocks[:1], rules=rules)


@pytest.fixture(scope="module")
def exposure_one_clock(exposure_window):
    chain, dta = exposure_window
    one_clock = _exposure_one_clock(dta)
    validate_pair(chain, one_clock)
    assert len(one_clock.rules) == len(dta.rules) - 2
    return chain, one_clock


def test_exposure_window_is_one_clock_where_y_is_at_most_x(
        exposure_window, exposure_one_clock):
    """The grids of both models agree to rounding at starts with y <= x,
    which grounds the exact references below."""
    for m in (16, 64, 128):
        for state in "abc":
            for location in ("q0", "q1"):
                for x, y in ((F(0), F(0)), (F(1, 2), F(1, 4)),
                             (F(3, 4), F(3, 4)), (F(1, 4), F(0))):
                    two = approximate(*exposure_window, state, location,
                                      (x, y), m=m)
                    one = approximate(*exposure_one_clock, state, location,
                                      (x,), m=m)
                    assert abs(two.grid_probability - one.grid_probability) \
                        <= 1e-15, (m, state, location, x, y)


# The references are exact acceptance probabilities: from starts with
# y <= x those of the one-clock reduction (``exact_one_clock``), from
# (0, 1/2) that on the diagonal (t, 1/2 + t) (``exact_on_diagonal``).
EXPOSURE_REFERENCES = {
    ("a", (F(0), F(0))): 0.2642411176571153,
    ("a", (F(1, 2), F(1, 4))): 0.09020401043104985,
    ("b", (F(0), F(1, 2))): 0.23105691670831768,
}


def test_exposure_references_are_exact(exposure_window, exposure_one_clock):
    for (state, (x, y)), reference in EXPOSURE_REFERENCES.items():
        if y <= x:
            exact = exact_one_clock(*exposure_one_clock, state, "q0", x)
        else:
            exact = exact_on_diagonal(*exposure_window, exposure_one_clock[1],
                                      state, "q0", y - x)
        assert abs(exact - reference) <= 1e-14, (state, x, y)


def test_diagonal_oracle_against_the_second_richardson_level(
        exposure_window, exposure_one_clock):
    """From (b, q0, 0, 1/2), where y > x and y < 1 binds, the exact value
    lies within 2e-8 of S_512 = R_512 + (R_512 - R_256) / 3 over the grid
    values v_64 … v_512, R_m = 2 v_m - v_{m/2}, which cancels the m^-1
    and m^-2 terms of the error (S_256 and S_512 differ by 9.7e-9).  It
    reads 1.4e-9 below.  Its values of the reduction at t = 0 are those
    of ``exact_one_clock``."""
    s_512 = 0.23105691814518198
    exact = exact_on_diagonal(*exposure_window, exposure_one_clock[1], "b",
                              "q0", F(1, 2))
    assert abs(exact - s_512) <= 2e-8
    assert abs(exact_on_diagonal(*exposure_window, exposure_one_clock[1], "b",
                                 "q0", F(63, 64)) - LATE_REFERENCE) <= 1e-14
    # a resets y when it leaves and c leaves for qf, so neither reads y
    for state in "ac":
        assert abs(exact_on_diagonal(*exposure_window, exposure_one_clock[1],
                                     state, "q0", F(1, 2))
                   - exact_one_clock(*exposure_one_clock, state, "q0", 0)) \
            <= 1e-14


@pytest.mark.parametrize("m", [16, 32, 64, 128])
def test_three_grid_estimate_covers_the_error_on_exposure_window(
        exposure_window, m):
    """Every start lies on the m/4 grid of these m.  At m = 8 the start
    (1/2, 1/4) does not, and the 2m fallback there reads 3.7e-3 against
    an error of 8.0e-3; the gate leaves that case out."""
    for (state, eta), reference in EXPOSURE_REFERENCES.items():
        assert _snap_to_grid(eta, exposure_window[1].ceilings, m // 4)[1] == 0
        result = approximate(*exposure_window, state, "q0", eta, m=m,
                             with_empirical=True)
        error = abs(result.probability - reference)
        assert result.report.empirical_estimate >= error, (state, eta)


def test_2m_estimate_covers_the_error_of_the_reported_value(
        unit_deadline, exposure_window, exposure_one_clock):
    """Off the m/4 grid the estimate is Roache's index of v_m at order 1,
    SAFETY_FACTOR * 2 |v_m - v_2m|, against the exact value at the m
    grid's point (the snap slack is reported apart).  It covers at least
    1.19 times the error on ``unit_deadline`` and 1.03 times it on
    ``exposure_window`` from (x, 0), where |v_m - v_2m| alone covered as
    little as 0.48 and 0.41 of it."""
    starts = (F(1, 64), F(1, 10), F(1, 7), F(1, 3), F(1, 2), F(5, 6),
              F(99, 100))
    ceilings = unit_deadline[1].ceilings
    for m in (6, 10, 12, 16, 24, 64, 100, 1024):
        for x in starts:
            if not m % 4 and _snap_to_grid((x,), ceilings, m // 4)[1] == 0:
                continue
            result = approximate(*unit_deadline, "s", "q0", (x,), m=m,
                                 with_empirical=True)
            (j,), _ = _snap_to_grid((x,), ceilings, m)
            error = abs(result.probability - (1 - math.exp(-(1 - j / m))))
            assert result.report.empirical_estimate >= error, (m, x)
    ceilings = exposure_window[1].ceilings
    for m in (6, 8, 12, 24, 64):
        for x in starts[:5]:
            eta = (x, F(0))
            if not m % 4 and _snap_to_grid(eta, ceilings, m // 4)[1] == 0:
                continue
            (j, _), _ = _snap_to_grid(eta, ceilings, m)
            for state in "abc":
                result = approximate(*exposure_window, state, "q0", eta, m=m,
                                     with_empirical=True)
                error = abs(result.probability - exact_one_clock(
                    *exposure_one_clock, state, "q0", F(j, m)))
                assert result.report.empirical_estimate >= error, (m, x, state)


def test_three_clock_model_reads_every_clock(three_clock):
    """From (a, q0, 0, 0, 0) the m = 16 grid reads 0.53264 with every
    guard, 0.54332 without y's and 0.57511 without z's."""
    chain, dta = three_clock
    assert dta.ceilings == (2, 1, 1)
    assert build_graph(chain, dta).vertex_count == 1824
    values = []
    for variant in (dta, _unguarded(dta, 1), _unguarded(dta, 2)):
        validate_pair(chain, variant)
        values.append(approximate(chain, variant, "a", "q0", (F(0),) * 3,
                                  m=16).probability)
    assert values == pytest.approx(
        [0.5326449378365219, 0.5433216434193414, 0.575112779423577],
        abs=1e-12)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert abs(values[i] - values[j]) > 1e-2


def test_three_clock_epsilon_answer_against_monte_carlo(three_clock):
    """The epsilon query stops on its extrapolant at m = 32 and agrees
    with 100 000 seeded trials (0.54851 +- 0.00405 at 99%)."""
    origin = (F(0),) * 3
    result = approximate(*three_clock, "a", "q0", origin, epsilon=1e-3,
                         force_empirical=True)
    assert (result.report.m, result.richardson_level) == (32, 1)
    estimate = mc.estimate(*three_clock, build_graph(*three_clock), "a", "q0",
                           origin, 100_000, seed=7)
    assert estimate.censored == 0
    assert abs(result.probability - estimate.p_hat) \
        <= estimate.halfwidth + 1e-3


def test_epsilon_mode_refuses_infeasible_bound(unit_deadline):
    with pytest.raises(BoundInfeasibleError) as err:
        approximate(*unit_deadline, "s", "q0", (F(0),), epsilon=0.05)
    assert err.value.m_required != 0


def test_epsilon_mode_with_empirical_fallback(unit_deadline):
    result = approximate(*unit_deadline, "s", "q0", (F(0),), epsilon=0.05,
                         force_empirical=True)
    assert abs(result.probability - (1 - math.exp(-1))) < 0.05
    assert result.report.m >= 8


def _sized_as_the_doubling_rule_or_extrapolated(model, state, location, eta,
                                                 epsilon):
    """An empirically sized epsilon query either answers as the doubling
    rule on grid values (same m and value, bit for bit), or stops on a
    coarser grid with the extrapolant R_m = 2 v_m - v_{m/2}, from a start
    on the m/4 grid, and an order of at least ORDER_MIN (below log2 3,
    which the settled extrapolant implies), or with the second level
    S_m = R_m + (R_m - R_{m/2}) / 3, from a start on the m/8 grid, and an
    order of the R gaps of at least ROMBERG_ORDER_MIN (below log2 7,
    which the settled S_m implies once R_m has not settled).  Either way
    the grid value is that of the reported m."""
    result = approximate(*model, state, location, eta, epsilon=epsilon,
                         force_empirical=True)
    m, value = grid_sized_answer(*model, state, location, eta, epsilon)
    grid = approximate(*model, state, location, eta, m=result.report.m)
    assert result.grid_probability == grid.probability
    assert result.report.empirical_estimate <= epsilon / 2
    level = result.richardson_level
    if level == 0:
        assert result.observed_order is None
        assert (result.report.m, result.probability) == (m, value)
        assert result.grid_probability == result.probability
        return result
    assert result.report.m < m
    bounds = {1: (ORDER_MIN, math.log2(3)), 2: (ROMBERG_ORDER_MIN, math.log2(7))}
    low, high = bounds[level]
    assert low <= result.observed_order < high
    coarsest = approximate(*model, state, location, eta,
                           m=result.report.m // 2 ** (level + 1))
    assert coarsest.report.snap_distance == 0
    # v_{m/8} (level 2 only), v_{m/4}, v_{m/2} and v_m, coarsest first
    values = [approximate(*model, state, location, eta,
                          m=result.report.m // 2 ** k).probability
              for k in range(level + 1, 0, -1)] + [result.grid_probability]
    extrapolants = [v + (v - coarser) for coarser, v in zip(values, values[1:])]
    if level == 1:
        answer = extrapolants[-1]
    else:
        r_quarter, r_half, r = extrapolants
        answer = r + (r - r_half) / 3.0
    assert result.probability == min(max(answer, 0.0), 1.0)
    return result


# x = 1/100 and 1/300 snap to 0 on the coarse grids, where the gaps of
# the values at x = 0 would let the extrapolant settle on an answer that
# is off by the snap, 3.6e-3 and 1.2e-3
@pytest.mark.parametrize("x,epsilon", [
    *((x, e) for x in (F(0), F(1, 3), F(1, 10))
      for e in (1e-2, 1e-3, 1e-4, 1e-5)),
    (F(1, 100), 1e-3),
    (F(1, 300), 1e-4),
])
def test_empirical_sizing_against_the_doubling_rule_on_unit_deadline(
        unit_deadline, x, epsilon):
    result = _sized_as_the_doubling_rule_or_extrapolated(
        unit_deadline, "s", "q0", (x,), epsilon)
    exact = 1 - math.exp(-(1 - float(x)))
    assert abs(result.probability - exact) <= epsilon
    if x in (F(1, 100), F(1, 300)):
        assert result.richardson_level == 0
    if x == 0 and epsilon == 1e-5:
        assert result.richardson_level == 2
        assert result.report.m == 128


# Each start snaps to the dead point x = 1 on the coarse grids (m = 8, 16
# from 63/64), whose values of 0 agree; the grid test must not stop on them.
@pytest.mark.parametrize("epsilon", [1e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("x", [F(63, 64), F(127, 128), F(255, 256)])
def test_empirical_sizing_past_grids_read_at_a_dead_point(unit_deadline, x,
                                                          epsilon):
    result = approximate(*unit_deadline, "s", "q0", (x,), epsilon=epsilon,
                         force_empirical=True)
    assert abs(result.probability - (1 - math.exp(-(1 - float(x))))) <= epsilon
    assert result.solver_method == "exact"


@pytest.mark.parametrize("epsilon", [1e-3, 1e-4])
def test_empirical_sizing_against_the_doubling_rule_on_exposure_window(
        exposure_window, epsilon):
    _sized_as_the_doubling_rule_or_extrapolated(
        exposure_window, "a", "q0", (F(0), F(0)), epsilon)


# The ε sizing and the grid query's estimate read one Richardson table;
# each answers bit for bit as the walk it replaced (tests/oracles.py), the
# ε sizing as that walk with the second-level test added (levels=2).


def _sized(result):
    return (result.report.m, result.probability, result.grid_probability,
            result.observed_order, result.report.empirical_estimate,
            result.richardson_level)


def _estimated(result):
    return (result.probability, result.report.empirical_estimate,
            result.residual, result.solver_method, result.sweeps)


def _as_before(value, solution, estimate):
    return value, estimate, solution.residual, solution.method, solution.sweeps


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3, 1e-4, 1e-5])
@pytest.mark.parametrize("x", [F(0), F(1, 3), F(1, 10), F(1, 100)])
def test_epsilon_sizing_answers_as_the_walk_it_replaced_on_unit_deadline(
        unit_deadline, x, epsilon):
    result = approximate(*unit_deadline, "s", "q0", (x,), epsilon=epsilon,
                         force_empirical=True)
    assert _sized(result) == extrapolated_answer(*unit_deadline, "s", "q0",
                                                 (x,), epsilon, levels=2)


# x = 99/100 snaps to the dead point x = 1 on the m = 4, 6 and 8 grids; the
# query reads its exact 0 there and solves no grid, so it reports the
# stats of a dead start where the old walk solved the m grid
@pytest.mark.parametrize("m", [4, 6, 8, 64])
@pytest.mark.parametrize("x", [F(0), F(1, 3), F(1, 10), F(1, 100), F(99, 100)])
def test_grid_estimate_answers_as_the_walk_it_replaced_on_unit_deadline(
        unit_deadline, x, m):
    result = approximate(*unit_deadline, "s", "q0", (x,), m=m,
                         with_empirical=True)
    value, solution, estimate = _grid_estimate(unit_deadline, "s", (x,), m)
    if x == F(99, 100) and m < 64:
        assert (value, estimate) == (0.0, 0.0)
        assert _estimated(result) == (0.0, 0.0, 0.0, "shortcut", 0)
    else:
        assert _estimated(result) == _as_before(value, solution, estimate)


@pytest.mark.parametrize("m,misses", [(6, 0), (64, 2)])
def test_grid_query_solves_no_grid_at_a_dead_point(unit_deadline, m, misses):
    """x = 99/100 snaps to the dead point x = 1 at m = 6 and to 63/64 at
    m = 64: the first reads 0 on both the 6 and the 12 grid without
    solving either, the second solves both."""
    solver._solved.cache_clear()
    approximate(*unit_deadline, "s", "q0", (F(99, 100),), m=m,
                with_empirical=True)
    assert solver._solved.cache_info().misses == misses


@pytest.mark.parametrize("start", list(EXPOSURE_REFERENCES))
def test_table_readers_answer_as_the_walks_they_replaced_on_exposure_window(
        exposure_window, start):
    state, eta = start
    for m in (4, 6, 8, 64):
        result = approximate(*exposure_window, state, "q0", eta, m=m,
                             with_empirical=True)
        assert _estimated(result) == _as_before(
            *_grid_estimate(exposure_window, state, eta, m)), m
    for epsilon in (1e-2, 1e-3):
        result = approximate(*exposure_window, state, "q0", eta,
                             epsilon=epsilon, force_empirical=True)
        assert _sized(result) == extrapolated_answer(
            *exposure_window, state, "q0", eta, epsilon, levels=2), epsilon


# The second Richardson level: S_m = R_m + (R_m - R_{m/2}) / 3.


def _sizing_on_values(monkeypatch, model, x, epsilon, value):
    """``_empirical_m`` from the start x of a one-clock model, on the
    table of the values v_m = value(m) in place of solved grids, each
    read at the start."""
    def table(graph, weights, location, eta, grids):
        row = GridRow(0, 0.0, None, None, None)
        for m in grids:
            gap = value(m) - row.value if 2 * row.m == m else None
            row = GridRow(m, value(m), "solved", gap,
                          observed_order(row.gap, gap))
            yield row
    monkeypatch.setattr(solver, "_grid_table", table)
    row, answer, level, order, change = solver._empirical_m(
        solver._analysis(*model), (("s", 1.0),), "q0", (x,), epsilon)
    return row.m, answer, level, order


def _cubic(m):
    """v* + a/m + b/m^2 + c/m^3 with v* = 0.4, a = 0.3, b = -0.5 and
    c = 0.1: then R_m = v* - 2b/m^2 - 6c/m^3 and S_m = v* + 8c/m^3."""
    return 0.4 + 0.3 / m - 0.5 / m ** 2 + 0.1 / m ** 3


@pytest.mark.parametrize("epsilon", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
def test_second_level_cancels_the_second_order_term(
        monkeypatch, unit_deadline, epsilon):
    m, answer, level, order = _sizing_on_values(
        monkeypatch, unit_deadline, F(0), epsilon, _cubic)
    assert level == 2
    assert answer - 0.4 == pytest.approx(8 * 0.1 / m ** 3, rel=1e-6)
    assert ROMBERG_ORDER_MIN <= order < 2


def test_second_level_declines_a_slow_order_of_the_r_gaps(
        monkeypatch, unit_deadline):
    """On v* + a/m + b m^-1.25 the R gaps shrink at order 1.25: S settles
    at m = 128 within 1e-3/2, but the query waits for R, at m = 256."""
    def slow(m):
        return 0.4 + 0.3 / m + 0.5 * m ** -1.25
    assert _sizing_on_values(monkeypatch, unit_deadline, F(0), 1e-3,
                             slow)[::2] == (256, 1)
    monkeypatch.setattr(solver, "ROMBERG_ORDER_MIN", 1.2)
    m, _, level, order = _sizing_on_values(
        monkeypatch, unit_deadline, F(0), 1e-3, slow)
    assert (m, level) == (128, 2)
    assert order == pytest.approx(1.25)


def test_second_level_needs_the_start_on_the_eighth_grid(
        monkeypatch, unit_deadline):
    """S_64 reads R_16, so v_8: x = 1/16 is not on the m = 8 grid and
    waits for m = 128, whose S reads the m = 16 grid."""
    assert _sizing_on_values(monkeypatch, unit_deadline, F(0), 1e-4,
                             _cubic)[::2] == (64, 2)
    assert _sizing_on_values(monkeypatch, unit_deadline, F(1, 16), 1e-4,
                             _cubic)[::2] == (128, 2)


def _against_the_extrapolant_walk(model, state, location, eta, epsilon, truth):
    """The query stops no later than the walk with the grid and R tests
    alone (oracles.extrapolated_answer); where it stops with it, it
    answers bit for bit as it does, and where earlier, on S_m within
    epsilon of the truth."""
    result = approximate(*model, state, location, eta, epsilon=epsilon,
                         force_empirical=True)
    before = extrapolated_answer(*model, state, location, eta, epsilon)
    assert result.report.m <= before[0]
    if result.report.m == before[0]:
        assert _sized(result) == before
    else:
        assert result.richardson_level == 2
        assert abs(result.probability - truth) <= epsilon
    return result


@pytest.mark.parametrize("epsilon", [1e-2, 1e-3, 1e-4, 1e-5])
@pytest.mark.parametrize("x", [F(0), F(1, 2), F(1, 4), F(1, 16), F(1, 3)])
def test_second_level_against_the_extrapolant_walk_on_unit_deadline(
        unit_deadline, x, epsilon):
    _against_the_extrapolant_walk(unit_deadline, "s", "q0", (x,), epsilon,
                                  1 - math.exp(-(1 - float(x))))


@pytest.mark.parametrize("epsilon", [1e-3, 1e-4])
@pytest.mark.parametrize("start", list(EXPOSURE_REFERENCES))
def test_second_level_against_the_extrapolant_walk_on_exposure_window(
        exposure_window, start, epsilon):
    state, eta = start
    _against_the_extrapolant_walk(exposure_window, state, "q0", eta, epsilon,
                                  EXPOSURE_REFERENCES[start])


@pytest.mark.parametrize("epsilon", [1e-5, 1e-6, 1e-7, 1e-8])
@pytest.mark.parametrize("x", [F(0), F(1, 2), F(1, 4), F(1, 16)])
def test_second_level_within_epsilon_on_unit_deadline(unit_deadline, x,
                                                      epsilon):
    """Down to 1e-8, where the R test alone needs m = 16 384 from x = 0."""
    result = approximate(*unit_deadline, "s", "q0", (x,), epsilon=epsilon,
                         force_empirical=True)
    assert abs(result.probability - (1 - math.exp(-(1 - float(x))))) <= epsilon
    assert result.richardson_level == 2
    if x == 0 and epsilon == 1e-8:
        assert result.report.m == 1024


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(random_models(max_clocks=1))
def test_epsilon_queries_within_epsilon_of_the_exact_oracle_on_random_models(
        model):
    chain, dta = model
    validate_pair(chain, dta)
    for state in chain.states:
        for x in (F(0), F(1, 2)):
            truth = exact_one_clock(chain, dta, state, "q0", x)
            for epsilon in (1e-4, 1e-5):
                result = approximate(chain, dta, state, "q0", (x,),
                                     epsilon=epsilon, force_empirical=True)
                assert abs(result.probability - truth) <= epsilon, (
                    state, x, epsilon, result)


# The exact one-clock oracle against closed forms.


@pytest.mark.parametrize("x", [F(0), F(1, 3), F(1, 10)])
def test_exact_one_clock_oracle_on_unit_deadline(unit_deadline, x):
    assert abs(exact_one_clock(*unit_deadline, "s", "q0", x)
               - (1 - math.exp(-(1 - float(x))))) <= 1e-12


def test_exact_one_clock_oracle_on_reset_loop_and_departure(reset_loop,
                                                            departure):
    e = math.exp(-1)
    assert abs(exact_one_clock(*reset_loop, "s", "q0", 0)
               - 2 * e / (1 + e)) <= 1e-12
    for x in (F(0), F(1, 2), F(3)):
        assert abs(exact_one_clock(*departure, "w", "q0", x) - 1) <= 1e-12


def test_observed_order_of_gaps():
    assert observed_order(0.4, 0.1) == 2.0
    assert observed_order(-0.2, 0.1) == 1.0
    assert observed_order(0.0, 0.1) is None
    assert observed_order(0.1, 0.0) is None
    assert observed_order(None, 0.1) is None  # no gap before the first


def test_requires_exactly_one_sizing_option(unit_deadline):
    with pytest.raises(ValueError):
        approximate(*unit_deadline, "s", "q0", (F(0),))
    with pytest.raises(ValueError):
        approximate(*unit_deadline, "s", "q0", (F(0),), m=4, epsilon=0.1)


def test_distribution_mixes_linearly(unit_deadline):
    dirac = prob_from_distribution(
        *unit_deadline, {"s": 1}, "q0", (F(0),), m=4
    )
    single = approximate(*unit_deadline, "s", "q0", (F(0),), m=4)
    assert dirac.probability == single.probability

    mixed = prob_from_distribution(
        *unit_deadline, {"s": F(1, 2), "g": F(1, 2)}, "q0", (F(0),), m=4
    )
    # the g-labelled state goes straight to the sink, so only s contributes
    assert mixed.probability == pytest.approx(single.probability / 2, abs=1e-15)


def test_distribution_reports_the_solver_method(unit_deadline):
    """The dead start g is answered without solving; mixed with s it
    reports the solve that s needed."""
    mixed = prob_from_distribution(
        *unit_deadline, {"g": F(1, 2), "s": F(1, 2)}, "q0", (F(0),), m=4
    )
    assert (mixed.solver_method, mixed.sweeps) == ("exact", 1)
    dead = prob_from_distribution(*unit_deadline, {"g": 1}, "q0", (F(0),), m=4)
    assert (dead.probability, dead.solver_method, dead.sweeps) == (0.0, "shortcut", 0)


# a resets y when it leaves, so its value from (0, 1/2) is that from (0, 0)
MIXED_REFERENCE = (EXPOSURE_REFERENCES[("a", (F(0), F(0)))]
                   + EXPOSURE_REFERENCES[("b", (F(0), F(1, 2)))]) / 2


def test_distribution_reports_an_order_when_a_state_was_extrapolated(
        exposure_window):
    """From (0, 1/2) at epsilon = 1e-3, a alone stops on its grid test at
    m = 16.  The mixture with b is sized on its own table and stops on
    its extrapolant at m = 32, whose grid value mixes the states' values
    on that grid."""
    start = ("q0", (F(0), F(1, 2)))
    options = dict(epsilon=1e-3, force_empirical=True)
    a = approximate(*exposure_window, "a", *start, **options)
    assert (a.report.m, a.richardson_level) == (16, 0)
    mixed = prob_from_distribution(
        *exposure_window, {"a": F(1, 2), "b": F(1, 2)}, *start, **options)
    assert (mixed.report.m, mixed.richardson_level) == (32, 1)
    assert mixed.observed_order == pytest.approx(1.028, abs=1e-3)
    values = [approximate(*exposure_window, s, *start, m=32).probability
              for s in "ab"]
    assert mixed.grid_probability == 0.5 * values[0] + 0.5 * values[1]
    assert mixed.probability != mixed.grid_probability
    assert abs(mixed.probability - MIXED_REFERENCE) <= 2e-5  # 1.8e-5
    grid = prob_from_distribution(
        *exposure_window, {"a": 1}, *start, **options)
    assert grid.observed_order is None
    assert grid.richardson_level == 0
    assert grid.probability == grid.grid_probability


def test_mixed_grid_estimate_covers_the_error_of_the_mixture(
        exposure_window):
    """The estimate is that of the mixed values, whatever the order of the
    weights.  The per-state merge reported a's estimate alone, 1.55e-4
    against an error of 1.95e-3."""
    start = ("q0", (F(0), F(1, 2)))
    options = dict(m=16, with_empirical=True)
    mixed = prob_from_distribution(
        *exposure_window, {"a": F(1, 2), "b": F(1, 2)}, *start, **options)
    error = abs(mixed.probability - MIXED_REFERENCE)
    assert mixed.report.empirical_estimate >= error
    swapped = prob_from_distribution(
        *exposure_window, {"b": F(1, 2), "a": F(1, 2)}, *start, **options)
    assert swapped == mixed
    merged = oracles.prob_from_distribution(
        *exposure_window, {"a": F(1, 2), "b": F(1, 2)}, *start, **options)
    assert merged.probability == mixed.probability
    assert merged.report.empirical_estimate < error


@pytest.mark.parametrize("m", [16, 128])
def test_distribution_solves_each_grid_once(exposure_window, m):
    """a and b read the m/4, m/2 and m grids of one walk."""
    solver._solved.cache_clear()
    prob_from_distribution(*exposure_window, {"a": F(1, 2), "b": F(1, 2)},
                           "q0", (F(0), F(0)), m=m, with_empirical=True)
    assert solver._solved.cache_info().misses == 3


_MIXTURES = [
    ("unit_deadline", {"s": F(1, 2), "g": F(1, 2)}, (F(0),)),
    ("unit_deadline", {"g": F(1, 4), "s": F(3, 4)}, (F(1, 3),)),
    ("unit_deadline", {"s": 1, "g": 0}, (F(99, 100),)),
    ("exposure_window", {"a": F(1, 2), "b": F(1, 2)}, (F(0), F(1, 2))),
    ("exposure_window", {"a": F(1, 4), "b": F(1, 4), "c": F(1, 2)},
     (F(0), F(1))),  # b is dead at y = 1
    ("exposure_window", {"c": F(1, 3), "a": 0, "b": F(2, 3)},
     (F(1, 2), F(1, 4))),
    ("exposure_window", {"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)},
     (F(1), F(0))),  # every state is dead at x = 1
    ("departure", {"w": 1}, (F(1, 2),)),
]


@pytest.mark.parametrize("with_empirical", [False, True])
@pytest.mark.parametrize("name,theta,eta", _MIXTURES)
def test_distribution_mixes_grid_queries_as_the_merge_it_replaced(
        request, name, theta, eta, with_empirical):
    model = request.getfixturevalue(name)
    for m in (4, 6, 8, 64):
        new = prob_from_distribution(*model, theta, "q0", eta, m=m,
                                     with_empirical=with_empirical)
        old = oracles.prob_from_distribution(*model, theta, "q0", eta, m=m,
                                             with_empirical=with_empirical)
        assert (new.probability, new.grid_probability, new.residual,
                new.grid_points) == (old.probability, old.grid_probability,
                                     old.residual, old.grid_points), m


# b from (0, 63/64), where y > x: ``exact_on_diagonal`` with offset 63/64
# (S_512 of its grid values v_64 … v_512 reads 9.2e-10 below).  a resets y
# when it leaves, so its value is that from (0, 0).
LATE_REFERENCE = 0.0137008813567848
LATE_MIXED_REFERENCE = (EXPOSURE_REFERENCES[("a", (F(0), F(0)))]
                        + LATE_REFERENCE) / 2


@pytest.mark.parametrize("epsilon", [1e-3, 1e-5])
def test_mixture_is_not_sized_on_a_state_read_at_a_snapped_dead_point(
        exposure_window, epsilon):
    """From (0, 63/64) the 8 and 16 grids snap y to the dead y = 1, where
    b reads 0 on both, while a is solved.  The mixed gap at m = 16 is
    then half of a's, within epsilon/2 at 1e-3, yet b's part of it says
    nothing: the grid test must not stop there (it did, 6.9e-3 off)."""
    theta = {"a": F(1, 2), "b": F(1, 2)}
    start = ("q0", (F(0), F(63, 64)))
    options = dict(epsilon=epsilon, force_empirical=True)
    mixed = prob_from_distribution(*exposure_window, theta, *start, **options)
    assert mixed.report.m > 16
    assert abs(mixed.probability - LATE_MIXED_REFERENCE) <= epsilon


@pytest.mark.parametrize("epsilon", [1e-3, 1e-5])
@pytest.mark.parametrize("name,theta,eta", _MIXTURES + [
    ("unit_deadline", {"s": F(1, 2), "g": F(1, 2)}, (F(63, 64),)),
    ("exposure_window", {"a": F(1, 2), "b": F(1, 2)}, (F(0), F(63, 64))),
])
def test_distribution_sizes_epsilon_queries_near_the_merge_it_replaced(
        request, name, theta, eta, epsilon):
    """The mixture is sized on its own table, so its grid can differ from
    every state's: the answers agree within epsilon, not bit for bit."""
    model = request.getfixturevalue(name)
    options = dict(epsilon=epsilon, force_empirical=True)
    new = prob_from_distribution(*model, theta, "q0", eta, **options)
    old = oracles.prob_from_distribution(*model, theta, "q0", eta, **options)
    assert abs(new.probability - old.probability) <= epsilon


def _sizing(sizing, graph, weights, eta, epsilon):
    """The fields of an epsilon sizing's result, its row's fields but a
    flag first, or the refusal's ``m_required``."""
    try:
        row, *rest = sizing(graph, weights, "q0", eta, epsilon)
    except BoundInfeasibleError as exc:
        return exc.m_required
    return (*row[:5], *rest)


# The mixtures of ``_MIXTURES`` and of the snapped dead point test above,
# as ``(state, weight)`` pairs of positive weight
_SIZED = [("unit_deadline", (("s", 1.0),), (x,))
          for x in (F(0), F(1, 3), F(1, 10), F(99, 100), F(63, 64),
                    F(127, 128), F(255, 256))] + [
    (name, tuple((s, float(w)) for s, w in theta.items() if w), eta)
    for name, theta, eta in _MIXTURES + [
        ("unit_deadline", {"s": F(1, 2), "g": F(1, 2)}, (F(63, 64),)),
        ("exposure_window", {"a": F(1, 2), "b": F(1, 2)}, (F(0), F(63, 64))),
    ]]


@pytest.mark.parametrize("epsilon", [1e-3, 1e-5, 1e-7])
@pytest.mark.parametrize("name,weights,eta", _SIZED,
                         ids=lambda v: str(v).replace(" ", ""))
def test_epsilon_sizing_answers_as_the_flagged_table_it_replaced(
        request, monkeypatch, name, weights, eta, epsilon):
    """A gap next to a grid read at a snapped final or dead point is
    undefined where the table flagged the row and the grid test skipped
    the gap; every sizing returns what it did then (tests/oracles.py), or
    is refused at the same grid.  Both walks read one solve per grid, so
    their rows hold the same solution."""
    graph = solver._analysis(*request.getfixturevalue(name))
    solved = lru_cache(maxsize=None)(solver._solved.__wrapped__)
    monkeypatch.setattr(solver, "_solved", solved)
    monkeypatch.setattr(oracles, "_solved", solved)
    assert (_sizing(solver._empirical_m, graph, weights, eta, epsilon)
            == _sizing(oracles.flagged_empirical_m, graph, weights, eta,
                       epsilon))


@pytest.mark.parametrize("name,state,location,eta,options", [
    ("unit_deadline", "s", "q0", (F(0),), dict(m=64, with_empirical=True)),
    ("unit_deadline", "s", "q0", (F(1, 64),), dict(m=64, with_empirical=True)),
    ("unit_deadline", "s", "q0", (F(99, 100),), dict(m=6, with_empirical=True)),
    ("unit_deadline", "s", "q0", (F(1, 3),), dict(m=8)),
    ("unit_deadline", "s", "q0", (F(0),),
     dict(epsilon=1e-5, force_empirical=True)),
    ("unit_deadline", "s", "q0", (F(63, 64),),
     dict(epsilon=1e-5, force_empirical=True)),
    ("unit_deadline", "g", "q0", (F(0),), dict(m=4, with_empirical=True)),
    ("unit_deadline", "s", "q1", (F(0),), dict(epsilon=1e-3)),
    ("exposure_window", "a", "q0", (F(1, 2), F(1, 4)),
     dict(epsilon=1e-3, force_empirical=True)),
    ("exposure_window", "b", "q0", (F(0), F(1, 2)),
     dict(m=16, with_empirical=True)),
    ("exposure_window", "a", "qsink", (F(0), F(0)), dict(m=8)),
    ("departure", "w", "q0", (F(1, 2),), dict(m=8, with_empirical=True)),
])
def test_a_point_mass_answers_as_approximate(request, name, state, location,
                                             eta, options):
    model = request.getfixturevalue(name)
    assert (prob_from_distribution(*model, {state: 1}, location, eta, **options)
            == approximate(*model, state, location, eta, **options))


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(random_models(), st.sampled_from((2, 3, 4)))
def test_uniform_distribution_mixes_as_the_merge_on_random_models(model, m):
    chain, dta = model
    assume(len(chain.states) >= 2)
    eta = (F(0),) * len(dta.clocks)
    uniform = {s: F(1, len(chain.states)) for s in chain.states}
    new = prob_from_distribution(chain, dta, uniform, "q0", eta, m=m,
                                 with_empirical=True)
    old = oracles.prob_from_distribution(chain, dta, uniform, "q0", eta, m=m,
                                         with_empirical=True)
    assert (new.probability, new.grid_probability, new.residual,
            new.grid_points) == (old.probability, old.grid_probability,
                                 old.residual, old.grid_points)
    assert 0.0 <= new.probability <= 1.0
    for state in chain.states:
        assert (prob_from_distribution(chain, dta, {state: 1}, "q0", eta, m=m,
                                       with_empirical=True)
                == approximate(chain, dta, state, "q0", eta, m=m,
                               with_empirical=True))


def test_distribution_skips_zero_weight_and_rejects_unnormalized(unit_deadline):
    with_zero = prob_from_distribution(
        *unit_deadline, {"s": 1, "g": 0}, "q0", (F(0),), m=4
    )
    single = approximate(*unit_deadline, "s", "q0", (F(0),), m=4)
    assert with_zero.probability == single.probability
    with pytest.raises(ValueError):
        prob_from_distribution(*unit_deadline, {"s": F(1, 2)}, "q0", (F(0),), m=4)
    with pytest.raises(ValueError):
        prob_from_distribution(*unit_deadline, {"zz": 1}, "q0", (F(0),), m=4)
    # sums to one, but would mix the answer to 1.18
    with pytest.raises(ValueError, match=r"state 's' is outside \[0, 1\]"):
        prob_from_distribution(
            *unit_deadline, {"s": 2, "g": -1}, "q0", (F(0),), m=4
        )
