"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
asserts the criterion at its stated tolerance, including the runtime caps.
"""

import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from pathprob import mc
from pathprob.cli import cli_main
from pathprob.dynamics import Configuration, accepted_within
from pathprob.models import model_constants
from pathprob.product import CLASS_NAMES, DEAD, FINAL, contraction_constant
from pathprob.regions import (
    delay,
    enumerate_region_codes,
    guard_sat,
    region_of,
    reset,
    sample_in_region,
)
from pathprob.scheme import (
    assemble_gamma_double,
    assemble_gamma_prime,
    build_grid,
    scaled_error_constants,
)
from pathprob.solver import approximate, solve
from oracles import (
    bound_equivalent_partner,
    decode,
    is_marginal,
    minus_representative,
    plus_representative,
    random_valuation,
    solve_dense,
    unfolded_dense_system,
)

F = Fraction
EXACT_UNIT = 1 - math.exp(-1)


def _verdict(number, ok, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    # bypass capture so the per-criterion line shows up in every run
    print(f"\n{line}", file=sys.__stdout__ or sys.stdout)
    print(line)
    assert ok, detail


def _closed_form(m):
    return 1 - (1 + 1 / m) ** -m


def test_criterion_1_closed_form(tmp_path):
    """Solved chain values equal the analytic recurrence solution."""
    worst_gap = 0.0
    slowest = 0.0
    checks = []
    for m in (4, 8, 16, 40, 64):
        out = tmp_path / f"r{m}.json"
        started = time.perf_counter()
        code = cli_main([
            "solve", "--model", "models/unit_deadline.json", "--state", "s",
            "--location", "q0", "--valuation", "x=0", "--grid", str(m),
            "--out", str(out),
        ])
        elapsed = time.perf_counter() - started
        slowest = max(slowest, elapsed)
        assert code == 0
        value = json.loads(out.read_text())["probability"]
        worst_gap = max(worst_gap, abs(value - _closed_form(m)))
        checks.append((m, value))
    ok = worst_gap < 1e-12 and slowest < 1.0
    for m, value in checks:
        if m >= 8:
            ok = ok and abs(value - EXACT_UNIT) <= 0.05
        if m >= 40:
            ok = ok and abs(value - EXACT_UNIT) <= 0.01
    _verdict(
        1, ok,
        f"closed form matched to {worst_gap:.2e}, slowest solve {slowest:.2f}s",
    )


def test_criterion_2_first_order_convergence(unit_deadline, unit_graph):
    started = time.perf_counter()
    values = {}
    for m in (8, 16, 32, 64, 128):
        grid = build_grid(unit_graph, m)
        values[m] = solve(assemble_gamma_prime(grid)).value_of(
            grid.cell("s", "q0", (0,))
        )
    ratios = {
        m: abs(values[m] - EXACT_UNIT) / abs(values[2 * m] - EXACT_UNIT)
        for m in (8, 16, 32, 64)
    }
    elapsed = time.perf_counter() - started
    ok = all(1.6 <= r <= 2.4 for r in ratios.values()) and elapsed < 5.0
    _verdict(
        2, ok,
        "error ratios m vs 2m: "
        + ", ".join(f"{m}:{r:.3f}" for m, r in ratios.items())
        + f" ({elapsed:.2f}s)",
    )


def test_criterion_3_scheme_equivalence(unit_deadline, unit_graph,
                                        exposure_window, exposure_graph):
    """One-step system, packaged unfolding and an independently transcribed
    unfolded system all solve to the same vector."""
    started = time.perf_counter()
    worst = 0.0
    for model, graph in ((unit_deadline, unit_graph),
                         (exposure_window, exposure_graph)):
        for m in (4, 8, 16):
            grid = build_grid(graph, m)
            one_step = solve(assemble_gamma_prime(grid), tol=1e-12)
            unfolded = solve(assemble_gamma_double(grid), tol=1e-12)
            _, mat, off = unfolded_dense_system(*model, graph, m)
            independent = solve_dense(mat, off)
            worst = max(
                worst,
                float(np.max(np.abs(one_step.values_raw - unfolded.values_raw),
                             initial=0.0)),
                float(np.max(np.abs(one_step.values_raw - independent),
                             initial=0.0)),
            )
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and elapsed < 10.0
    _verdict(3, ok, f"max componentwise gap {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_4_monte_carlo_cross_validation(exposure_window,
                                                  exposure_graph):
    started = time.perf_counter()
    chain, dta = exposure_window
    query = ("a", "q0", (0, 0))
    fine_grid = build_grid(exposure_graph, 64)
    fine = solve(assemble_gamma_prime(fine_grid)).value_of(fine_grid.cell(*query))
    coarse_grid = build_grid(exposure_graph, 32)
    coarse = solve(assemble_gamma_prime(coarse_grid)).value_of(
        coarse_grid.cell(*query)
    )
    est = mc.estimate(chain, dta, exposure_graph, "a", "q0", (0.0, 0.0),
                      n=100_000, seed=20240)
    elapsed = time.perf_counter() - started
    allowance = est.halfwidth + abs(fine - coarse)
    gap = abs(fine - est.p_hat)
    ok = gap <= allowance and elapsed < 60.0
    _verdict(
        4, ok,
        f"grid {fine:.5f} vs MC {est.p_hat:.5f}, gap {gap:.5f} <= "
        f"{allowance:.5f} ({elapsed:.1f}s)",
    )


def test_criterion_5_boundary_exactness(unit_deadline, unit_graph,
                                        exposure_window, exposure_graph):
    failures = 0
    total = 0
    for model, graph in ((unit_deadline, unit_graph),
                         (exposure_window, exposure_graph)):
        grid = build_grid(graph, 16)
        solution = solve(assemble_gamma_prime(grid))
        for cell, cls in enumerate(grid.cell_class.tolist()):
            total += 1
            value = solution.value_of(cell)
            if CLASS_NAMES[cls] == DEAD and value != 0.0:
                failures += 1
            if CLASS_NAMES[cls] == FINAL and value != 1.0:
                failures += 1
        # final-location and dead-vertex queries through the one-shot API
        final_q = next(iter(model[1].final))
        zero = model[1].zero_valuation()
        if approximate(*model, model[0].states[0], final_q, zero,
                       m=16).probability != 1.0:
            failures += 1
    ok = failures == 0
    _verdict(5, ok, f"{total} grid points checked, {failures} inexact")


def test_criterion_6_region_property_suite(exposure_window):
    _, dta = exposure_window
    ceilings = dta.ceilings
    codes = enumerate_region_codes(ceilings)
    rng = np.random.default_rng(20_26)
    failures = 0
    trials = 10_000

    guards = [r.guard for r in dta.rules if r.guard.terms]
    for _ in range(trials):  # guard agreement inside one region
        code = codes[int(rng.integers(0, len(codes)))]
        a = sample_in_region(code, ceilings, rng)
        b = sample_in_region(code, ceilings, rng)
        failures += any(
            guard_sat(a, g) != guard_sat(b, g) for g in guards
        )

    subsets = [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]
    for _ in range(trials):  # reset closure
        code = codes[int(rng.integers(0, len(codes)))]
        a = sample_in_region(code, ceilings, rng)
        b = sample_in_region(code, ceilings, rng)
        x = subsets[int(rng.integers(0, 4))]
        failures += region_of(reset(a, x), ceilings) != region_of(
            reset(b, x), ceilings
        )

    letters = sorted(dta.alphabet)
    for _ in range(trials):  # bound-equivalent starts accept the same words
        eta = random_valuation(rng, ceilings)
        partner = bound_equivalent_partner(rng, eta, ceilings)
        word = [
            (letters[int(rng.integers(0, len(letters)))],
             F(int(rng.integers(0, 12)), 8))
            for _ in range(3)
        ]
        q = dta.locations[int(rng.integers(0, len(dta.locations)))]
        failures += accepted_within(
            dta, Configuration(q, eta), word, 3
        ) != accepted_within(dta, Configuration(q, partner), word, 3)

    for _ in range(trials):  # nudge-forward stability across the window
        eta = random_valuation(rng, ceilings)
        fracs = [v - math.floor(v) for v, c in zip(eta, ceilings) if v <= c]
        t1 = 1 - max(fracs) if fracs else F(1)
        regions_seen = {
            region_of(delay(eta, t1 * w), ceilings)
            for w in (F(1, 4), F(1, 2), F(3, 4))
        }
        failures += len(regions_seen) != 1
        failures += is_marginal(next(iter(regions_seen)))

    checked = 0
    while checked < trials:  # non-marginal regions are nudge fixpoints
        eta = random_valuation(rng, ceilings)
        code = region_of(eta, ceilings)
        if is_marginal(code):
            continue
        checked += 1
        failures += region_of(plus_representative(eta, ceilings), ceilings) != code
        if all(v > 0 for v in eta):
            failures += (
                region_of(minus_representative(eta, ceilings), ceilings) != code
            )

    ok = failures == 0
    _verdict(6, ok, f"5 x {trials} randomized trials, {failures} failures")


def test_criterion_7_lipschitz_grid_consistency(unit_deadline, unit_graph,
                                                exposure_window, exposure_graph):
    worst_excess = -math.inf
    for model, graph in ((unit_deadline, unit_graph),
                         (exposure_window, exposure_graph)):
        constants = model_constants(*model)
        m1, _, _ = scaled_error_constants(constants)
        fine_grid = build_grid(graph, 32)
        fine = solve(assemble_gamma_prime(fine_grid))
        coarse_grid = build_grid(graph, 16)
        coarse = solve(assemble_gamma_prime(coarse_grid))
        empirical = 0.0
        for cell in coarse_grid.cells.tolist():
            state, location, coords = decode(coarse_grid, cell)
            on_fine = fine_grid.cell(state, location, [2 * j for j in coords])
            empirical = max(
                empirical,
                abs(fine.value_of(on_fine) - coarse.value_of(cell)),
            )
        allowance = m1 / 32 + 2 * empirical
        for k, cell in enumerate(fine_grid.cells.tolist()):
            state, location, coords = decode(fine_grid, cell)
            for clock in range(len(coords)):
                shifted = list(coords)
                shifted[clock] += 1  # one step of 1/32
                if shifted[clock] > fine_grid.max_coords[clock]:
                    continue
                j = fine_grid.slot_of[fine_grid.cell(state, location, shifted)]
                if j < 0:
                    continue
                gap = abs(fine.values_raw[k] - fine.values_raw[j])
                worst_excess = max(worst_excess, gap - allowance)
    ok = worst_excess <= 0
    _verdict(7, ok, f"worst adjacent gap excess {worst_excess:.3e}")


def test_criterion_8_constants_audit(unit_deadline, unit_graph):
    m1, m2, m3 = scaled_error_constants(unit_graph.constants)
    c, m_min = contraction_constant(unit_graph)
    n = unit_graph.vertex_count
    audits = {
        "M1": (m1, math.e),
        "M2": (m2, 2 * math.e),
        "M3": (m3, 2 * math.e),
        "|V|": (n, 24),
        "m_min": (m_min, 2 * 24 ** 2 + 1),
        "contraction": (c, math.exp(-1) / 1153),
    }
    bad = [
        name
        for name, (got, want) in audits.items()
        if abs(got - want) > 1e-12 * abs(want)
    ]
    ok = not bad
    _verdict(8, ok, "all six constants within 1e-12 relative"
             if ok else f"off: {bad}")


def test_criterion_9_solver_robustness(unit_deadline, unit_graph,
                                       exposure_window, exposure_graph):
    rng = np.random.default_rng(90)
    worst = 0.0
    for model, graph in ((unit_deadline, unit_graph),
                         (exposure_window, exposure_graph)):
        system = assemble_gamma_prime(build_grid(graph, 16))
        solutions = [
            solve(system, tol=1e-12, x0=rng.random(system.size)).values_raw
            for _ in range(5)
        ]
        for other in solutions[1:]:
            worst = max(worst, float(np.max(np.abs(other - solutions[0]))))
    ok = worst < 1e-9
    _verdict(9, ok, f"5 random starts agree to {worst:.2e}")
