import hashlib
import math

import numpy as np
import pytest

from pathprob.models import model_constants
from pathprob.product import ALIVE, CLASS_NAMES, DEAD
from pathprob.scheme import (
    assemble_gamma_double,
    assemble_gamma_prime,
    build_grid,
    scaled_error_constants,
)
from pathprob.solver import solve
from oracles import decode, row, unfolded_dense_system


@pytest.fixture(scope="module")
def unit_grid4(unit_deadline, unit_graph):
    return build_grid(unit_graph, 4)


def _row(grid, state, location, coords):
    """Row of the point with integer coordinates ``coords``, -1 when it is
    not an unknown."""
    return int(grid.slot_of[grid.cell(state, location, coords)])


def _class(grid, cell):
    return CLASS_NAMES[grid.cell_class[cell]]


def test_grid_size_is_combinatorial(unit_grid4, exposure_window, exposure_graph):
    assert unit_grid4.d_m_size == 2 * 3 * 5
    grid = build_grid(exposure_graph, 4)
    assert grid.d_m_size == 3 * 4 * 5 * 5


def test_ceiling_point_is_dead_and_excluded(unit_grid4):
    cell = unit_grid4.cell("s", "q0", (4,))  # x = 1
    assert _class(unit_grid4, cell) == DEAD
    assert unit_grid4.slot_of[cell] == -1


def test_b_m_membership(unit_grid4):
    assert len(unit_grid4.cells) == 4
    for cell in unit_grid4.cells.tolist():
        state, location, _ = decode(unit_grid4, cell)
        assert state == "s" and location == "q0"
        assert _class(unit_grid4, cell) == ALIVE
    assert not unit_grid4.is_bmax.any()  # the all-ceilings point is dead here


def test_bmax_points_sit_on_all_ceilings(departure, departure_graph):
    grid = build_grid(departure_graph, 8)
    flags = grid.is_bmax
    assert flags.sum() == 1
    boundary = np.flatnonzero(flags)
    assert decode(grid, grid.cells[boundary[0]])[2] == (8,)  # x = 1
    assert grid.horizons[boundary[0]] == 0


def test_horizons_by_forward_scan(unit_grid4):
    assert unit_grid4.horizons[_row(unit_grid4, "s", "q0", (2,))] == 2
    assert unit_grid4.horizons[_row(unit_grid4, "s", "q0", (0,))] == 4
    assert unit_grid4.horizons[_row(unit_grid4, "s", "q0", (3,))] == 1
    assert _row(unit_grid4, "s", "q0", (4,)) == -1  # not an unknown


def test_horizon_bounded_by_box_diameter(exposure_window, exposure_graph):
    grid = build_grid(exposure_graph, 8)
    assert (grid.horizons <= 8 * exposure_window[1].t_max).all()
    assert (grid.horizons >= 0).all()


def test_one_step_row_shape_interior(unit_grid4):
    """Interior row: dead delay neighbour contributes nothing, the final
    jump successor folds 1/1.25 ratios into the constant."""
    system = assemble_gamma_prime(unit_grid4)
    k = _row(unit_grid4, "s", "q0", (3,))
    assert row(system, k) == {}
    assert system.offset[k] == pytest.approx(0.25 / 1.25, abs=1e-15)
    solution = solve(system)
    assert solution.value_of(unit_grid4.cell("s", "q0", (3,))) == pytest.approx(
        0.2, abs=1e-14
    )


def test_one_step_row_couples_to_delay_neighbour(unit_grid4):
    system = assemble_gamma_prime(unit_grid4)
    k = _row(unit_grid4, "s", "q0", (2,))
    j = _row(unit_grid4, "s", "q0", (3,))
    assert row(system, k) == {j: pytest.approx(1 / 1.25, abs=1e-15)}


def test_closed_form_chain_value(unit_grid4):
    system = assemble_gamma_prime(unit_grid4)
    solution = solve(system)
    assert solution.value_of(unit_grid4.cell("s", "q0", (0,))) == pytest.approx(
        1 - (1 + 0.25) ** -4, abs=1e-14
    )


def test_boundary_row_is_convex_combination_without_self_term(departure,
                                                              departure_graph):
    grid = build_grid(departure_graph, 4)
    system = assemble_gamma_prime(grid)
    k = _row(grid, "w", "q0", (4,))
    # the only successor is the final location, so the row is empty and the
    # constant carries the full jump mass
    assert row(system, k) == {}
    assert system.offset[k] == 1.0
    # interior rows of this model carry a genuine self-loop column
    j = _row(grid, "w", "q0", (2,))
    assert j in row(system, j)


def test_unfolded_row_matches_hand_expansion(unit_grid4):
    system = assemble_gamma_double(unit_grid4)
    k = _row(unit_grid4, "s", "q0", (2,))
    assert row(system, k) == {}
    assert system.offset[k] == pytest.approx(0.36, abs=1e-14)


def test_unfolded_offsets_telescope(unit_grid4):
    """All successors final and a dead tail: the offset is 1 - a^N."""
    system = assemble_gamma_double(unit_grid4)
    a = 1 / 1.25
    for k, n in enumerate(unit_grid4.horizons):
        assert row(system, k) == {}
        assert system.offset[k] == pytest.approx(1 - a ** n, abs=1e-13)


def test_unfolded_matches_one_step_solution(unit_grid4):
    first = solve(assemble_gamma_prime(unit_grid4), tol=1e-12)
    second = solve(assemble_gamma_double(unit_grid4), tol=1e-12)
    assert np.max(np.abs(first.values_raw - second.values_raw)) < 1e-10


def test_unfolded_assembly_against_independent_transcription(
    exposure_window, exposure_graph
):
    """The packaged unfolding equals a direct dense transcription of the
    horizon-expanded equations, coefficient by coefficient."""
    chain, dta = exposure_window
    grid = build_grid(exposure_graph, 4)
    system = assemble_gamma_double(grid)
    unknowns, mat, off = unfolded_dense_system(chain, dta, exposure_graph, 4)
    assert len(unknowns) == system.size
    for k, (s, q, coords) in enumerate(unknowns):
        assert _row(grid, s, q, coords) == k  # identical canonical ordering
        packed = row(system, k)
        dense_row = {j: mat[k, j] for j in np.nonzero(mat[k])[0]}
        assert set(packed) == set(dense_row)
        for j, value in packed.items():
            assert value == pytest.approx(dense_row[j], abs=1e-14)
        assert off[k] == pytest.approx(system.offset[k], abs=1e-14)


@pytest.mark.parametrize("assembler", [assemble_gamma_prime, assemble_gamma_double])
def test_rows_are_substochastic(assembler, exposure_window, exposure_graph):
    grid = build_grid(exposure_graph, 8)
    system = assembler(grid)
    assert (system.data >= 0).all()
    for k in range(system.size):
        lo, hi = system.indptr[k], system.indptr[k + 1]
        assert system.data[lo:hi].sum() + system.offset[k] <= 1.0 + 1e-12


def test_unknown_columns_never_point_at_dead_or_final(exposure_window,
                                                      exposure_graph):
    grid = build_grid(exposure_graph, 4)
    system = assemble_gamma_prime(grid)
    for j in system.indices:
        assert _class(grid, grid.cells[j]) == ALIVE


def test_grid_closure_under_step_and_jump(exposure_window, exposure_graph):
    """The saturated step and every jump successor of a grid point are grid
    points themselves; the delay row names the stepped point whenever that
    point is an unknown."""
    grid = build_grid(exposure_graph, 4)
    n = len(grid.cells)
    for k, cell in enumerate(grid.cells.tolist()):
        state, location, coords = decode(grid, cell)
        stepped = tuple(min(j + 1, mx) for j, mx in zip(coords, grid.max_coords))
        assert all(0 <= j <= mx for j, mx in zip(stepped, grid.max_coords))
        neighbour = grid.cell(state, location, stepped)
        nxt = int(grid.delay_row[k])
        assert -1 <= nxt < n
        if nxt >= 0:
            assert grid.cells[nxt] == neighbour
        elif not grid.is_bmax[k]:
            assert _class(grid, neighbour) != ALIVE
        for col in grid.jump_rows[k]:
            assert -1 <= col < n


def test_boundary_row_defect_above_contraction(departure, departure_graph):
    """Above the guaranteed threshold the boundary rows leak at least the
    contraction constant."""
    from pathprob.product import contraction_constant

    c, m_min = contraction_constant(departure_graph)
    m = m_min + 1  # 8 vertices -> m = 130, still tiny
    grid = build_grid(departure_graph, m)
    system = assemble_gamma_double(grid)
    for kk in np.nonzero(grid.is_bmax)[0]:
        lo, hi = system.indptr[kk], system.indptr[kk + 1]
        assert 1.0 - system.data[lo:hi].sum() >= c


# sha256 over (indptr, indices, data, offset, horizons, is_bmax), each array
# with its dtype and shape, as assembled at commit ab91117 by the grid that
# keyed its unknowns by Fraction valuations; the m = 64 entry, the README
# grid, as assembled at commit f9ff366 by the grid that worked out each
# row's quantities one row at a time.
GOLDEN_DIGESTS = {
    ("unit_deadline", 4, "gamma_prime"):
        "8ce5ae19328728083a0466a9edb1e44ae99468c810ad1556bac5eed94f2c842d",
    ("unit_deadline", 4, "gamma_double"):
        "06cf94db34ca536734e8a61e4b4441930dd4ec60633f1b228775291bb9455dee",
    ("unit_deadline", 8, "gamma_prime"):
        "bc425b06e2ef3a8a8b06243a3ea9340930905e3a56c4c5abc25de9b0312fb954",
    ("unit_deadline", 8, "gamma_double"):
        "be59ad9526728013b4e60ca6a79ed0ba39eb74c062526683a1070a1dec7c4c45",
    ("unit_deadline", 16, "gamma_prime"):
        "eaa67b4d1fe585ec8be977557ccc418d8403f1581c6b26a0b33e9aab8cac90e8",
    ("unit_deadline", 16, "gamma_double"):
        "60accad76972acc2497863e7bfc77f1f9ffa1881a181512f165effbbf6fb4553",
    ("unit_deadline", 32, "gamma_prime"):
        "34b6c30e6e196bfb1b45a79bfb6cc1764070b037fcf1762cf49e62b5bc953f35",
    ("unit_deadline", 32, "gamma_double"):
        "970e30610d19bd8c3dba16c9bdb296d21b0695a4d50d4ac813109acb352995a7",
    ("exposure_window", 4, "gamma_prime"):
        "21db6bfa3b6128113616c2acfa9f6d3842ba6cae123a936349cbcca9e80f36ac",
    ("exposure_window", 4, "gamma_double"):
        "191001a959dcbd45b33efc935d112fdd587ae42c1af42fd727e3fa8ebce8dc3c",
    ("exposure_window", 8, "gamma_prime"):
        "a43f1fb582b0f82e19fb36b1b60b3d40353c600a9dbb7792b84a24da0b9675a7",
    ("exposure_window", 8, "gamma_double"):
        "27a886c30e21ffc3db8024794d57fbc519c52b0180e745f42ffe71dcd1f531c8",
    ("exposure_window", 16, "gamma_prime"):
        "16119ee79c6aaf2cf2a86ce70412061edf8ceab896169a86aba588324c61dfeb",
    ("exposure_window", 16, "gamma_double"):
        "351c91dba391986626db4cbff65878a5ed9197b41713667e0b06fbdc9d3aa7bf",
    ("exposure_window", 32, "gamma_prime"):
        "2b73ce1bf401208d2cd8e50b3a8c4b989fe1902846242df544bbe74f302c1506",
    ("exposure_window", 32, "gamma_double"):
        "e1931b258faa93556d1c00936c814b957b5a4da0a790f695d98d9ad691c5bcd5",
    ("exposure_window", 64, "gamma_prime"):
        "829ddc42f6924f1db5585459dbd1542113cee9b4c2658f7767e12e1ef0d7c75d",
    ("departure", 4, "gamma_prime"):
        "2d6ef9ad667707744e338642d3bee7dd83b0fbe5005560cb218cb113ff91eb46",
    ("departure", 4, "gamma_double"):
        "536718c985b7e86760db7228821c0f59aaa92be5f6090946f19ec49784d9ae62",
    ("departure", 8, "gamma_prime"):
        "a1fb50fd0f90d3663d8032919367b11479a923baf2ece5b0aa8493e4aa2d720b",
    ("departure", 8, "gamma_double"):
        "dd0538df0ba69a20895aa266f21106d0a77421931f3fe7bec39626c8f902158c",
    ("departure", 16, "gamma_prime"):
        "d74880b8e36357dfba767cc4df361da5f13e605ef450941a647577bd169df586",
    ("departure", 16, "gamma_double"):
        "e9441a8666ae9b17ebc7b9315408dcc2e982a690dac52f8e77dde0487933e404",
    ("departure", 32, "gamma_prime"):
        "fdec2c519429d449b0336cf3268ebf49363b02f86f2eb51f1ecf0ee20ce908d6",
    ("departure", 32, "gamma_double"):
        "9c6572a2b1b7db7328e7146e7a0a89477c0b59691fa718752a5feaed6c92c00d",
}
_ASSEMBLERS = {"gamma_prime": assemble_gamma_prime,
               "gamma_double": assemble_gamma_double}
_GRAPHS = {"unit_deadline": "unit_graph", "exposure_window": "exposure_graph",
           "departure": "departure_graph"}


def _system_digest(system):
    h = hashlib.sha256()
    for arr in (system.indptr, system.indices, system.data, system.offset,
                system.grid.horizons, system.grid.is_bmax):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("model, m, kind", list(GOLDEN_DIGESTS))
def test_assembly_is_bit_identical_to_golden_digest(request, model, m, kind):
    grid = build_grid(request.getfixturevalue(_GRAPHS[model]), m)
    system = _ASSEMBLERS[kind](grid)
    assert _system_digest(system) == GOLDEN_DIGESTS[(model, m, kind)]


def test_error_constants_unit_deadline(unit_deadline):
    k = model_constants(*unit_deadline)
    m1, m2, m3 = scaled_error_constants(k)
    assert m1 == pytest.approx(math.e, rel=1e-14)
    assert m2 == pytest.approx(2 * math.e, rel=1e-14)
    assert m3 == pytest.approx(2 * math.e, rel=1e-14)


def test_error_constants_scale_with_model(exposure_window):
    k = model_constants(*exposure_window)
    m1, m2, m3 = scaled_error_constants(k)
    assert m1 == pytest.approx(2 * 3 * math.exp(3), rel=1e-13)
    assert m2 == pytest.approx(6 * m1, rel=1e-13)
    assert m3 == pytest.approx(m2, rel=1e-13)
