"""The numpy sweep kernel against the sequential Gauss-Seidel loops.

Every iterate and every residual must be equal bit for bit to the
one-row-at-a-time sweep kept in ``oracles``, run in the level order of
``oracles.level_order``.  ``exposure_window`` reaches the sub-level,
read-ahead, diagonal, wide and narrow paths of the kernel, ``departure``
has diagonal self-loops, ``unit_deadline`` is the one-clock chain, and
random models add other clocks, ceilings and resets.
"""

import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from pathprob import kernels
from pathprob.product import build_graph
from pathprob.scheme import SchemeSystem, assemble_gamma_prime, build_grid
from pathprob.solver import SolverError, solve
from test_tables import GRIDS, _chain_of_splits, random_models

ROOT = pathlib.Path(__file__).resolve().parents[1]
_GRAPHS = {"unit_deadline": "unit_graph", "exposure_window": "exposure_graph",
           "departure": "departure_graph"}


def _system(request, model, m):
    return assemble_gamma_prime(build_grid(
        *request.getfixturevalue(model), request.getfixturevalue(_GRAPHS[model]), m
    ))


@pytest.mark.parametrize("start", ["zeros", "random"])
@pytest.mark.parametrize("m", [4, 8, 16, 32, 64])
@pytest.mark.parametrize("model", list(_GRAPHS))
def test_sweeps_are_bit_identical_to_sequential_loops(request, model, m, start):
    system = _system(request, model, m)
    args = (system.indptr, system.indices, system.data, system.offset)
    order = oracles.level_order(system.indptr, system.indices, system.grid.horizons)
    plan = kernels.sweep_plan(system.indptr, system.indices, system.grid.horizons)
    x0 = (np.zeros(system.size) if start == "zeros"
          else np.random.default_rng(3).random(system.size))
    got, expected = x0.copy(), x0.copy()
    for sweeps in range(1, 100):
        kernels.gauss_seidel_sweep(*args, got, plan)
        oracles.gauss_seidel_sweep(*args, expected, order)
        assert np.array_equal(got, expected)
        residual = kernels.max_residual(*args, got)
        assert residual == oracles.max_residual(*args, expected)
        if residual < 1e-10:
            break
    else:
        pytest.fail("the sequential sweeps did not converge")
    assert solve(system, x0=x0).sweeps == sweeps


def test_exposure_window_plan_reaches_every_path(exposure_window, exposure_graph):
    system = assemble_gamma_prime(build_grid(*exposure_window, exposure_graph, 16))
    h = system.grid.horizons
    plan = kernels.sweep_plan(system.indptr, system.indices, h)
    wide = [h[plan.order[lo]] for lo, _, counts in plan.steps if counts is not None]
    assert any(counts is None for _, _, counts in plan.steps)
    assert len(set(wide)) < len(wide)  # two wide levels share a horizon
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
            kernels.gauss_seidel_sweep(*args, got, plan)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                oracles.gauss_seidel_sweep(*args, expected, order)
            return
        oracles.gauss_seidel_sweep(*args, expected, order)
        assert np.array_equal(got, expected)
        assert kernels.max_residual(*args, got) == oracles.max_residual(*args, expected)


def _unit_diagonal_system(width):
    """``width`` rows of horizon 0, each holding only a diagonal entry of
    mass 1/2, except the middle row, whose diagonal mass is 1."""
    data = np.full(width, 0.5)
    data[width // 2] = 1.0
    grid = SimpleNamespace(horizons=np.zeros(width, dtype=np.int64),
                           graph=SimpleNamespace(vertex_count=3))
    return SchemeSystem("gamma_prime", grid, np.arange(width + 1),
                        np.arange(width), data, np.full(width, 0.25))


@pytest.mark.parametrize("width, wide", [(kernels.WIDE + 8, True), (3, False)])
def test_unit_diagonal_raises(width, wide):
    system = _unit_diagonal_system(width)
    args = (system.indptr, system.indices, system.data, system.offset)
    plan = kernels.sweep_plan(system.indptr, system.indices, system.grid.horizons)
    assert [counts is not None for _, _, counts in plan.steps] == [wide]
    with pytest.raises(ZeroDivisionError):
        kernels.gauss_seidel_sweep(*args, np.zeros(width), plan)
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
