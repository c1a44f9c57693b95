"""Differential gate: the grid built from per-box-point tables, and both
assemblies over it, equal the grid that worked out every quantity one row
at a time and the assembly helpers it fed (``oracles.PerRowGrid``), byte
for byte, dtype included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathprob import scheme
from pathprob.modelio import validate_pair
from pathprob.product import build_graph
from pathprob.scheme import assemble_gamma_double, assemble_gamma_prime, build_grid
import oracles
from test_grid_reference import clockless
from test_kernels import _BUILT, _FIXED, _FIXTURE_GRAPHS
from test_tables import _chain_of_splits, random_models

ROW_ARRAYS = ("cells", "slot_of", "row_state", "is_bmax", "delay_row",
              "jump_rows", "to_final", "point", "slice_key", "horizons")
CSR_ARRAYS = ("indptr", "indices", "data", "offset")
# the unfolded system holds an entry per (row, step, successor): at most
# this many steps over all rows are unfolded twice
UNFOLDED_STEPS = 2_000_000


def _same_bytes(x, y, name):
    assert (x.dtype, x.shape) == (y.dtype, y.shape), name
    assert x.tobytes() == y.tobytes(), name


def assert_same_rows(chain, dta, graph, m):
    got = build_grid(graph, m)
    want = oracles.PerRowGrid(chain, dta, graph, m)
    for name in ROW_ARRAYS:
        _same_bytes(getattr(got, name), getattr(want, name), name)
    assemblers = [assemble_gamma_prime]
    if int(want.horizons.sum()) <= UNFOLDED_STEPS:
        assemblers.append(assemble_gamma_double)
    for assemble in assemblers:
        a, b = assemble(got), oracles.per_row_system(assemble, want)
        for name in CSR_ARRAYS:
            _same_bytes(getattr(a, name), getattr(b, name), (name, a.kind))


# the fixed models include the README grid, exposure_window at m = 64
@pytest.mark.parametrize("model, m", [row[:2] for row in _FIXED])
def test_rows_match_per_row_grid_on_fixed_models(request, model, m):
    if model in _BUILT:
        chain, dta = _BUILT[model]()
        graph = build_graph(chain, dta)
    else:
        chain, dta = request.getfixturevalue(model)
        graph = request.getfixturevalue(_FIXTURE_GRAPHS[model])
    assert_same_rows(chain, dta, graph, m)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(random_models(), st.sampled_from((1, 2, 3, 5, 8)))
@example(_chain_of_splits(), 3)
def test_rows_match_per_row_grid_on_random_models(model, m):
    chain, dta = model
    validate_pair(chain, dta)
    assert_same_rows(chain, dta, build_graph(chain, dta), m)


@pytest.mark.parametrize("m", [1, 4])
def test_rows_match_per_row_grid_without_clocks(m):
    chain, dta = clockless()
    assert_same_rows(chain, dta, build_graph(chain, dta), m)


def test_csr_folds_repeated_pairs_as_before():
    """Entries sharing a row and a column, within a part and across parts,
    sum in the order listed, as the per-row helper summed them."""
    rows = np.array([2, 0, 2, 1, 0, 2])
    cols = np.array([1, 0, 1, 2, 0, 1], dtype=np.int32)
    vals = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    parts = ((rows[:3], cols[:3], vals[:3]), (rows[3:], cols[3:], vals[3:]))
    got = scheme._csr(None, "gamma_double", np.zeros(3), *parts)
    want = oracles.per_row_csr(None, "gamma_double", np.zeros(3), *parts)
    assert len(got.indices) == 3
    for name in CSR_ARRAYS:
        _same_bytes(getattr(got, name), getattr(want, name), name)
