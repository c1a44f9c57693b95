"""The numpy sweep kernel against the sequential Gauss-Seidel loops.

Every iterate and every residual of the fallback sweeps must be equal bit
for bit to the one-row-at-a-time sweep kept in ``oracles``, run in the
level order of ``oracles.level_order``.  ``exposure_window`` reaches the
sub-level, read-ahead and diagonal paths and the vectorised update of
wide and narrow steps, ``departure`` has diagonal self-loops,
``unit_deadline`` is the one-clock chain, whose fallback steps run the
scalar loop, ``reset_loop`` has no exact order, and random models add
other clocks, ceilings and resets.  The exact pass must agree with those
sweeps run until the residual stops falling, and with the dense solve;
its recursive doubling, which is not bit-identical to the sequential
loop, must also agree with that loop run in the same order, in float and
in long double.
The kernel sweeps a copy of the system renumbered into the plan's order;
``_sweep`` maps ``x`` into that order and back.  Fixed models pin the
solver's answers bit for bit and reach every kind of step.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from pathprob import kernels
from pathprob.product import build_graph
from pathprob.models import Constraint, Ctmc, Dta, Guard, Rule
from pathprob.scheme import SchemeSystem, assemble_gamma_prime, build_grid
from pathprob.solver import DIRECT_LIMIT, SolverError, solve
from test_grid_reference import clockless
from test_tables import GRIDS, _chain_of_splits, random_models

ROOT = pathlib.Path(__file__).resolve().parents[1]
_GRAPHS = {"unit_deadline": "unit_graph", "exposure_window": "exposure_graph",
           "departure": "departure_graph"}


def _system(request, model, m):
    return assemble_gamma_prime(build_grid(
        *request.getfixturevalue(model), request.getfixturevalue(_GRAPHS[model]), m
    ))


def _step_kinds(system, plan):
    """How the kernel solves each step of ``plan``, read off the step's
    entries in the renumbered copy: ``block``, ``level`` (no row reads an
    earlier row of the step), ``chain`` (the plan is exact and each row
    reads at most one earlier row of the step) or ``scalar``."""
    indptr, indices, _, _ = kernels.renumber(
        system.indptr, system.indices, system.data, system.offset, plan.order)
    kinds = []
    for lo, hi, blocks in plan.steps:
        rows = np.repeat(np.arange(lo, hi), np.diff(indptr[lo:hi + 1]))
        cols = indices[indptr[lo]:indptr[hi]]
        earlier = rows[(cols >= lo) & (cols < rows)]
        kinds.append("block" if blocks is not None else
                     "level" if not len(earlier) else
                     "chain" if plan.exact and np.bincount(earlier).max() == 1 else
                     "scalar")
    return kinds


def _kinds(system, plan):
    return set(_step_kinds(system, plan))


def _exact_plan(system):
    grid = system.grid
    return kernels.exact_plan(system.indptr, system.indices, grid.slice_key,
                              grid.point, len(grid.ceilings))


def _sweep(args, x, plan):
    """One kernel sweep of the system ``args`` in the order of ``plan``,
    with ``x`` in row order."""
    ordered = kernels.renumber(*args, plan.order)
    y = x[plan.order]
    kernels.gauss_seidel_sweep(*ordered, y, plan)
    x[plan.order] = y


def _sweeps_to_tolerance(system, x0):
    """Sweep kernel and sequential loops side by side from ``x0`` until the
    residual falls below the solver's tolerance, every iterate and every
    residual equal bit for bit; returns the number of sweeps."""
    args = (system.indptr, system.indices, system.data, system.offset)
    order = oracles.level_order(system.indptr, system.indices, system.grid.horizons)
    plan = kernels.sweep_plan(system.indptr, system.indices, system.grid.horizons)
    got, expected = x0.copy(), x0.copy()
    for sweeps in range(1, 100):
        _sweep(args, got, plan)
        oracles.gauss_seidel_sweep(*args, expected, order)
        assert np.array_equal(got, expected)
        residual = kernels.max_residual(*args, got)
        assert residual == oracles.max_residual(*args, expected)
        if residual < 1e-10:
            return sweeps
    pytest.fail("the sequential sweeps did not converge")


def _start(system, start):
    return (np.zeros(system.size) if start == "zeros"
            else np.random.default_rng(3).random(system.size))


@pytest.mark.parametrize("start", ["zeros", "random"])
@pytest.mark.parametrize("m", [4, 8, 16, 32, 64])
@pytest.mark.parametrize("model", list(_GRAPHS))
def test_sweeps_are_bit_identical_to_sequential_loops(request, model, m, start):
    system = _system(request, model, m)
    x0 = _start(system, start)
    _sweeps_to_tolerance(system, x0)
    solution = solve(system, x0=x0)
    assert solution.method == "exact" and solution.sweeps == 1


@pytest.mark.parametrize("start", ["zeros", "random"])
@pytest.mark.parametrize("m", [4, 8, 16, 32, 64])
def test_fallback_sweeps_are_bit_identical_to_sequential_loops(
        reset_loop, reset_loop_graph, m, start):
    system = assemble_gamma_prime(build_grid(*reset_loop, reset_loop_graph, m))
    assert _exact_plan(system) is None
    x0 = _start(system, start)
    sweeps = _sweeps_to_tolerance(system, x0)
    solution = solve(system, x0=x0)
    assert solution.method == "sweep" and solution.sweeps == sweeps > 1


def test_nan_residual_is_no_convergence(reset_loop, reset_loop_graph):
    """Fallback sweeps from a NaN start stay NaN; their residual must not
    read as converged, so the dense fallback answers."""
    system = assemble_gamma_prime(build_grid(*reset_loop, reset_loop_graph, 8))
    nan = np.full(system.size, np.nan)
    args = (system.indptr, system.indices, system.data, system.offset)
    assert np.isnan(kernels.max_residual(*args, nan))
    solution = solve(system, x0=nan, max_sweeps=20)
    assert solution.method == "direct"
    assert not np.isnan(solution.values_raw).any()


def test_exposure_window_plan_reaches_every_path(exposure_window, exposure_graph):
    """Every step of the sweep plan is one vectorised update, steps narrower
    than ``WIDE`` among them; the bit-identity tests at m = 16 sweep it."""
    system = assemble_gamma_prime(build_grid(*exposure_window, exposure_graph, 16))
    h = system.grid.horizons
    plan = kernels.sweep_plan(system.indptr, system.indices, h)
    assert _kinds(system, plan) == {"level"}
    assert any(hi - lo < kernels.WIDE for lo, hi, _ in plan.steps)
    wide = [h[plan.order[lo]] for lo, hi, _ in plan.steps if hi - lo >= kernels.WIDE]
    assert len(set(wide)) < len(wide)  # two wide steps share a horizon
    rows = np.repeat(np.arange(system.size), np.diff(system.indptr))
    cols = system.indices
    assert (cols == rows).any()
    rank = np.empty(system.size, dtype=np.int64)
    rank[oracles.level_order(system.indptr, system.indices, h)] = np.arange(system.size)
    assert (rank[cols] > rank[rows]).any()  # reads ahead


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(random_models(), st.sampled_from(GRIDS))
@example(_chain_of_splits(), 8)
def test_sweeps_match_sequential_loops_on_random_models(model, m):
    chain, dta = model
    system = assemble_gamma_prime(build_grid(chain, dta, build_graph(chain, dta), m))
    args = (system.indptr, system.indices, system.data, system.offset)
    order = oracles.level_order(system.indptr, system.indices, system.grid.horizons)
    plan = kernels.sweep_plan(system.indptr, system.indices, system.grid.horizons)
    got = np.random.default_rng(5).random(system.size)
    expected = got.copy()
    for _ in range(4):
        try:
            _sweep(args, got, plan)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                oracles.gauss_seidel_sweep(*args, expected, order)
            return
        oracles.gauss_seidel_sweep(*args, expected, order)
        assert np.array_equal(got, expected)
        assert kernels.max_residual(*args, got) == oracles.max_residual(*args, expected)


def _sweeps_to_stagnation(system, limit=10_000):
    """The sequential sweeps of ``oracles`` in level order from zero, run
    until the residual stops falling."""
    args = [a.tolist() for a in
            (system.indptr, system.indices, system.data, system.offset)]
    order = oracles.level_order(args[0], args[1], system.grid.horizons.tolist())
    x = [0.0] * system.size
    best = np.inf
    for _ in range(limit):
        oracles.gauss_seidel_sweep(*args, x, order)
        residual = oracles.max_residual(*args, x)
        if not residual < best:
            return np.array(x)
        best = residual
    pytest.fail(f"the residual still falls after {limit} sweeps")


def _two_clock_departure():
    """One state and two clocks that no rule resets, accepting once x has
    reached 2 (the guard splits on y only to give y a ceiling): one row
    per point, so the exact plan of a fine grid holds both wide levels
    and scalar chunks."""
    late = Constraint(0, ">=", 2)
    rules = (
        Rule("q0", "a", Guard((Constraint(0, "<", 2),)), frozenset(), "q0"),
        Rule("q0", "a", Guard((late, Constraint(1, "<", 2))), frozenset(), "qf"),
        Rule("q0", "a", Guard((late, Constraint(1, ">=", 2))), frozenset(), "qf"),
        Rule("qf", "a", Guard(), frozenset(), "qf"),
    )
    chain = Ctmc(states=("w",), transition=((F(1),),), exit_rates=(F(1),),
                 labeling=("a",))
    dta = Dta(locations=("q0", "qf"), final=frozenset({"qf"}), clocks=("x", "y"),
              rules=rules, alphabet=frozenset({"a"}))
    return chain, dta


def _reset_departure():
    """``_two_clock_departure`` with y reset by the loop while x < 1 and
    y < 1, and x >= 2 dead: a row then reads its point at y = 0 and its
    delay successor, often both in one chunk, so the exact plan of a
    fine grid holds scalar chunks."""
    early = Constraint(0, "<", 1)
    rules = (
        Rule("q0", "a", Guard((early, Constraint(1, "<", 1))), frozenset({1}), "q0"),
        Rule("q0", "a", Guard((early, Constraint(1, ">=", 1))), frozenset(), "qf"),
        Rule("q0", "a", Guard((Constraint(0, ">=", 1), Constraint(0, "<", 2))),
             frozenset(), "qf"),
        Rule("q0", "a", Guard((Constraint(0, ">=", 2),)), frozenset(), "qs"),
        Rule("qf", "a", Guard(), frozenset(), "qf"),
        Rule("qs", "a", Guard(), frozenset(), "qs"),
    )
    chain, dta = _two_clock_departure()
    dta = Dta(locations=("q0", "qf", "qs"), final=dta.final, clocks=dta.clocks,
              rules=rules, alphabet=dta.alphabet)
    return chain, dta


@pytest.mark.parametrize("m", [64, 128])
def test_exact_pass_matches_sweeps_to_stagnation(exposure_window, exposure_graph,
                                                 monkeypatch, m):
    system = assemble_gamma_prime(build_grid(*exposure_window, exposure_graph, m))
    calls = []
    residual = kernels.max_residual
    monkeypatch.setattr(kernels, "max_residual",
                        lambda *args: calls.append(1) or residual(*args))
    solution = solve(system)
    assert solution.method == "exact" and solution.sweeps == 1
    assert len(calls) == 1
    assert solution.residual < 1e-15
    swept = _sweeps_to_stagnation(system)
    assert np.abs(solution.values_raw - swept).max() <= 1e-13


@pytest.mark.parametrize("m", [4, 64, 65536])
def test_exact_plan_of_a_chain_chains_the_sweep_plan(unit_deadline, unit_graph, m):
    """On the one-clock chain the exact plan has the sweep plan's order and
    steps, and solves each chunk by recursive doubling where the sweep
    plan runs the scalar loop."""
    system = assemble_gamma_prime(build_grid(*unit_deadline, unit_graph, m))
    exact = _exact_plan(system)
    sweep = kernels.sweep_plan(system.indptr, system.indices, system.grid.horizons)
    assert np.array_equal(exact.order, sweep.order)
    assert exact.steps == sweep.steps
    assert exact.exact and not sweep.exact
    assert _kinds(system, exact) == {"chain"}
    assert _kinds(system, sweep) == {"scalar"}


@pytest.mark.parametrize("m", [2 ** e for e in range(3, 17)])
def test_chain_pass_matches_the_sequential_loop(unit_deadline, unit_graph, m):
    """The grids of the accuracy query, m = 8 ... 65 536: the chain steps'
    pass against the sequential loop in the plan's order, and at m <= 4096
    against that loop run in long double."""
    system = assemble_gamma_prime(build_grid(*unit_deadline, unit_graph, m))
    plan = _exact_plan(system)
    assert _kinds(system, plan) == {"chain"}
    args = (system.indptr, system.indices, system.data, system.offset)
    got = np.zeros(system.size)
    _sweep(args, got, plan)
    expected = [0.0] * system.size
    oracles.gauss_seidel_sweep(*[a.tolist() for a in args], expected,
                               plan.order.tolist())
    assert np.abs(got - expected).max() <= 1e-12
    assert kernels.max_residual(*args, got) < 1e-15
    if m <= 4096:
        reference = np.zeros(system.size, dtype=np.longdouble)
        oracles.gauss_seidel_sweep(*args[:2], system.data.astype(np.longdouble),
                                   system.offset.astype(np.longdouble), reference,
                                   plan.order)
        assert np.abs(got - reference).max() <= 1e-13


def test_exact_plan_solves_a_clockless_pair():
    chain, dta = clockless()
    system = assemble_gamma_prime(build_grid(chain, dta, build_graph(chain, dta), 4))
    assert _kinds(system, _exact_plan(system)) == {"block"}
    solution = solve(system)
    assert solution.method == "exact" and solution.sweeps == 1
    mat, off = system.dense()
    assert np.abs(solution.values_raw - oracles.solve_dense(mat, off)).max() <= 1e-15


def test_blocks_above_the_cap_fall_back(exposure_window, exposure_graph,
                                        monkeypatch):
    system = assemble_gamma_prime(build_grid(*exposure_window, exposure_graph, 8))
    exact = solve(system)
    monkeypatch.setattr(kernels, "BLOCK", 5)  # exposure_window has 6 rows at a point
    assert _exact_plan(system) is None
    swept = solve(system)
    assert swept.method == "sweep" and swept.sweeps > 1
    assert np.abs(swept.values_raw - exact.values_raw).max() < 1e-9


@pytest.mark.parametrize("model, m", [("exposure_window", 128),
                                      ("unit_deadline", 65536)])
def test_solve_peaks_below_assembly(request, model, m):
    """The exact plan's transient memory stays below what assembling the
    same grid already took."""
    chain, dta = request.getfixturevalue(model)
    graph = request.getfixturevalue(_GRAPHS[model])
    tracemalloc.start()
    try:
        system = assemble_gamma_prime(build_grid(chain, dta, graph, m))
        _, assembly = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        solution = solve(system)
        _, solving = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert solution.method == "exact"
    assert solving < assembly


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(random_models(), st.sampled_from(GRIDS + (16,)))
@example(_chain_of_splits(), 8)
@example(_two_clock_departure(), 16)
@example(_reset_departure(), 16)
@example(clockless(), 4)
def test_exact_pass_matches_oracles_on_random_models(model, m):
    """The exact pass against the sequential sweeps run to stagnation and,
    on small systems, the dense solve; models without an exact order must
    fall back to the sweeps.  Which step kinds the draws reach is left to
    chance: the fixed models below reach each of them."""
    chain, dta = model
    system = assemble_gamma_prime(build_grid(chain, dta, build_graph(chain, dta), m))
    if system.size == 0:
        return
    solution = solve(system)
    if _exact_plan(system) is None:
        assert solution.method != "exact"
        return
    assert solution.method == "exact" and solution.sweeps == 1
    swept = _sweeps_to_stagnation(system)
    assert np.abs(solution.values_raw - swept).max() <= 1e-12
    if system.size <= DIRECT_LIMIT:
        dense = oracles.solve_dense(*system.dense())
        assert np.abs(solution.values_raw - dense).max() <= 1e-12


_BUILT = {"_chain_of_splits": _chain_of_splits,
          "_two_clock_departure": _two_clock_departure,
          "_reset_departure": _reset_departure}
_FIXTURE_GRAPHS = dict(_GRAPHS, reset_loop="reset_loop_graph")

# model, m, the kinds of step its solve runs ("fallback" when it has no
# exact plan, then the sweep plan's kinds), and the method, sweeps and
# sha256 of values_raw of that solve
_FIXED = [
    ("exposure_window", 64, {"block"}, "exact", 1,
     "0d98ea197caca61f55b2fb4ea33e6e1e3e2c331f7809dd1740a84826fce3c26f"),
    ("exposure_window", 128, {"block"}, "exact", 1,
     "877905b469d7d8878eb431a07bf60ab1a3a6165b9f45dc1aeaa60021f640e466"),
    ("unit_deadline", 65536, {"chain"}, "exact", 1,
     "c33a4358b7fedb183e9819e7374083f562403fa83c5e3c749bbd8d7fb6525bb1"),
    ("reset_loop", 64, {"fallback", "scalar"}, "sweep", 16,
     "72a40fb3eb746c1d3c61760bedf1b62b4e5100b9adfbaa6d44ae59f310210c26"),
    ("_chain_of_splits", 8, {"fallback", "level", "scalar"}, "sweep", 17,
     "5be0ea2b7194f56acbea5599fcb81c727486f627f4cabfc0b17d3e8874a12d23"),
    ("_two_clock_departure", 16, {"level", "chain"}, "exact", 1,
     "c9bb056c0ef88bc55473ad3243bd6431ab4f1af796f64bbe02490fa96847da07"),
    ("_reset_departure", 16, {"scalar"}, "exact", 1,
     "2a09d6ea18b0d9c1ac15e5735da4055690be20e62d060e684d2f02fd415307ca"),
]


def _fixed_system(request, model, m):
    if model in _BUILT:
        chain, dta = _BUILT[model]()
        graph = build_graph(chain, dta)
    else:
        chain, dta = request.getfixturevalue(model)
        graph = request.getfixturevalue(_FIXTURE_GRAPHS[model])
    return assemble_gamma_prime(build_grid(chain, dta, graph, m))


@pytest.mark.parametrize("model, m, kinds, method, sweeps, digest", _FIXED)
def test_fixed_models_solve_bit_for_bit(request, model, m, kinds, method,
                                        sweeps, digest):
    """Every step kind and both plans on fixed models: the kinds each solve
    runs, and its values, method and sweeps, bit for bit as pinned."""
    system = _fixed_system(request, model, m)
    plan = _exact_plan(system)
    if plan is None:
        plan = kernels.sweep_plan(system.indptr, system.indices,
                                  system.grid.horizons)
        assert _kinds(system, plan) | {"fallback"} == kinds
    else:
        assert _kinds(system, plan) == kinds
    solution = solve(system)
    assert (solution.method, solution.sweeps) == (method, sweeps)
    assert hashlib.sha256(solution.values_raw.tobytes()).hexdigest() == digest


def test_fixed_models_reach_every_step_kind():
    assert set().union(*(kinds for _, _, kinds, *_ in _FIXED)) == {
        "block", "level", "chain", "scalar", "fallback"}


def _unit_diagonal_system(width, linked):
    """``width`` rows of horizon 0, each holding a diagonal entry of mass
    1/2, except the middle row, whose diagonal mass is 1.  When ``linked``
    each row but the first also reads the row before it, with weight 1/4,
    and the slice key falls along the rows, so that the exact plan has
    the rows in index order, one level each."""
    diag = np.full(width, 0.5)
    diag[width // 2] = 1.0
    reads = (np.arange(width) > 0) & linked
    indices = np.concatenate([[t - 1, t] if read else [t]
                              for t, read in enumerate(reads)])
    data = np.concatenate([[0.25, d] if read else [d]
                           for d, read in zip(diag, reads)])
    grid = SimpleNamespace(horizons=np.zeros(width, dtype=np.int64),
                           slice_key=(width - 1 - np.arange(width)) * linked,
                           point=np.arange(width), ceilings=(),
                           graph=SimpleNamespace(vertex_count=3))
    return SchemeSystem("gamma_prime", grid, np.r_[0, np.cumsum(reads + 1)],
                        indices, data, np.full(width, 0.25))


def _fake_system(slice_key, point, indptr, indices, data, offset):
    grid = SimpleNamespace(horizons=np.zeros(len(point), dtype=np.int64),
                           slice_key=np.array(slice_key), point=np.array(point),
                           ceilings=(), graph=SimpleNamespace(vertex_count=3))
    return SchemeSystem("gamma_prime", grid, np.array(indptr), np.array(indices),
                        np.array(data, dtype=float), np.array(offset, dtype=float))


def test_entry_into_a_smaller_key_falls_back():
    """No jump or delay step of a grid lowers the slice key; a system whose
    row reads a smaller key has no exact order."""
    system = _fake_system([1, 0], [0, 1], [0, 1, 2], [1, 0], [0.5, 0.5],
                          [0.25, 0.25])
    assert _exact_plan(system) is None
    solution = solve(system)
    assert solution.method == "sweep"
    assert np.allclose(solution.values_raw, 0.5, rtol=0, atol=1e-9)


def test_singular_block_raises():
    """Two rows at one point, each reading the other with weight 1."""
    system = _fake_system([0, 0], [0, 0], [0, 1, 2], [1, 0], [1, 1], [0, 0])
    plan = _exact_plan(system)
    assert _kinds(system, plan) == {"block"}
    with pytest.raises(ZeroDivisionError):
        _sweep((system.indptr, system.indices, system.data, system.offset),
               np.zeros(2), plan)
    with pytest.raises(SolverError, match=r"2\|V\|\^2 = 18"):
        solve(system)


@pytest.mark.parametrize("width, linked", [(kernels.WIDE + 8, True), (3, False)])
def test_unit_diagonal_raises(width, linked):
    """In every way a row step is solved: a level in both plans, and for
    linked rows the scalar loop of the sweep plan and recursive doubling
    in the exact plan."""
    system = _unit_diagonal_system(width, linked)
    args = (system.indptr, system.indices, system.data, system.offset)
    plan = kernels.sweep_plan(system.indptr, system.indices, system.grid.horizons)
    exact = _exact_plan(system)
    assert [(lo, hi) for lo, hi, _ in plan.steps + exact.steps] == [(0, width)] * 2
    assert (_kinds(system, plan), _kinds(system, exact)) == (
        ({"scalar"}, {"chain"}) if linked else ({"level"}, {"level"}))
    for steps in (plan, exact):
        with pytest.raises(ZeroDivisionError, match="unit diagonal mass 1.0"):
            _sweep(args, np.zeros(width), steps)
    with pytest.raises(ZeroDivisionError):
        oracles.gauss_seidel_sweep(*args, np.zeros(width), np.arange(width))
    with pytest.raises(SolverError, match=r"2\|V\|\^2 = 18"):
        solve(system)


def test_solve_command_loads_no_scipy_and_no_compiled_extension():
    script = "\n".join([
        "import json, sys",
        "from pathprob.cli import cli_main",
        "code = cli_main(['solve', '--model', sys.argv[1], '--state', 'a',",
        "                 '--location', 'q0', '--valuation', 'x=0,y=0', '--grid', '8'])",
        "loaded = {name: getattr(mod, '__file__', None) or ''",
        "          for name, mod in list(sys.modules.items())}",
        "print(json.dumps([code, loaded]))",
    ])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "models" / "exposure_window.json")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    code, loaded = json.loads(run.stdout.splitlines()[-1])
    assert code == 0
    assert not [name for name in loaded if name.split(".")[0] == "scipy"]
    compiled = [name for name, path in loaded.items()
                if name.split(".")[0] == "pathprob" and not path.endswith(".py")]
    assert not compiled
