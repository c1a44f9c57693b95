"""Independent oracles used across the test suite.

Nothing here goes through the scheme-assembly or solver code paths under
test: the unfolded system is transcribed directly from its defining
equations and solved densely with numpy, valuation generators produce
exact rationals from seeded integer draws, the sweep kernel is checked
against the sequential one-row-at-a-time Gauss-Seidel loops below, the
Monte Carlo trial loop against the two separate estimator loops it merged,
the plans' steps and the exact pass's block levels against the steps
built and the entries sorted level by level (:func:`plan_steps`;
:func:`plan_pass` shares only the kernel's row step, which the sequential
loops check),
guard evaluation through the relation table against the if-chain over
the relations it replaced (:func:`guard_sat`),
the one-pass DTA validator against the interval-box overlap check and
region cover sweep it replaced, the product graph against the
per-(location, label, region) delay walk it replaced, the region-code
delay walk and reset against the exact valuation walk, the grid and
both assemblies against the dict-keyed, point-by-point versions they
replaced, and the grid's per-row arrays against the per-row arithmetic
that preceded its per-box-point tables.  The one exception is the reading of a start's values on a
family of grids: the epsilon sizings, the grid query's error estimate and
the ``convergence`` rows, as they stood before they shared one table, read
those values straight from the package's solved grids, so that only the
walk over the grids differs; so do :func:`flagged_grid_table` and
:func:`flagged_empirical_m`, the table and the epsilon sizing as they
stood when a flag marked the rows read at a snapped final or dead point.
:func:`prob_from_distribution` is the
answer from an initial distribution as one query per state merged field
by field, before one walk read every state.  :func:`decode` reads a cell of the package's grid back as its
state, location and integer coordinates.  :func:`exact_one_clock` computes
a one-clock model's acceptance probability without any grid, by transient
analysis per unit interval of the clock, and :func:`exact_on_diagonal`
that of a two-clock model along a diagonal whose resets land on a
one-clock reduction.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from statistics import NormalDist
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)
from unittest import mock

import numpy as np

from pathprob import regions, scheme
from pathprob.dynamics import select_rule
from pathprob.kernels import (
    CHUNK, WIDE, Blocks, SweepPlan, _row_step, _step_entries,
)
from pathprob.mc import BATCH, Estimate, RngStream, default_k_max
from pathprob.models import Ctmc, Dta, Guard, ValidationReport
from pathprob.product import (
    ALIVE, ALIVE_CLASS, CLASS_NAMES, DEAD, FINAL, ProductGraph, ProductVertex,
    _class_table, size_report,
)
from pathprob.regions import frac_part, int_part, region_of
from pathprob.scheme import (
    GAMMA_DOUBLE, GAMMA_PRIME, SchemeSystem, grid_cells,
)
from pathprob.solver import (
    MAX_GRID_CELLS, ORDER_MIN, ROMBERG_ORDER_MIN, SAFETY_FACTOR,
    ApproxResult, BoundInfeasibleError, ErrorReport, Solution,
    _analysis, _mix, _shortcut, _snap_to_grid, _solved, approximate,
    observed_order,
)


# ---------------------------------------------------------------------------
# Guard satisfaction: the if-chain over the four relations that the
# relation table of :data:`pathprob.regions.RELATIONS` replaced.


def guard_sat(eta: Sequence, guard) -> bool:
    """Exact satisfaction of a conjunctive guard at ``eta``."""
    for term in guard.terms:
        if term.clock >= len(eta):
            raise regions.UnknownClockError(
                f"guard constrains clock #{term.clock} but the valuation has "
                f"{len(eta)} clocks"
            )
        v = eta[term.clock]
        op = term.op
        if op == "<":
            ok = v < term.bound
        elif op == "<=":
            ok = v <= term.bound
        elif op == ">":
            ok = v > term.bound
        elif op == ">=":
            ok = v >= term.bound
        else:
            raise ValueError(f"unknown relation {op!r}")
        if not ok:
            return False
    return True


def random_valuation(rng, ceilings, max_den=12, beyond=1):
    """Exact rational valuation with entries in [0, T_x + beyond]."""
    out = []
    for c in ceilings:
        den = int(rng.integers(1, max_den + 1))
        num = int(rng.integers(0, den * (c + beyond) + 1))
        out.append(Fraction(num, den))
    return tuple(out)


def bound_equivalent_partner(rng, eta, ceilings):
    """A valuation bound-equivalent to eta: entries equal, except clocks
    above their ceiling may move anywhere else above it."""
    out = []
    for v, c in zip(eta, ceilings):
        if v > c and rng.random() < 0.7:
            out.append(Fraction(c) + Fraction(int(rng.integers(1, 60)), 7))
        else:
            out.append(v)
    return tuple(out)


def vertex_numbers(graph):
    """Vertex number of each product vertex, read off ``graph.vertices``."""
    return {v: i for i, v in enumerate(graph.vertices)}


def vertex_class(graph, state, location, eta):
    code = region_of(eta, graph.dta.ceilings)
    return graph.classes()[vertex_numbers(graph)[ProductVertex(state, location, code)]]


def reachability_classes(graph):
    """Class name of every product vertex, by vertex number, from a
    backward search over ``graph.successors`` from the vertices at final
    locations."""
    final = {i for i, v in enumerate(graph.vertices)
             if v.location in graph.dta.final}
    reaching = set(final)
    changed = True
    while changed:
        changed = False
        for i, targets in enumerate(graph.successors):
            if i not in reaching and reaching.intersection(targets):
                reaching.add(i)
                changed = True
    return [FINAL if i in final else ALIVE if i in reaching else DEAD
            for i in range(graph.vertex_count)]


def unfolded_dense_system(chain, dta, graph, m):
    """Direct transcription of the horizon-unfolded equations.

    Builds the dense matrix and offset for the alive non-final grid points
    straight from the definition: geometric weights along the saturated
    diagonal chain, jump successors selected at the nudged representative
    with the reset applied to the grid valuation, and the boundary tail.
    Shares nothing with the package's assembly code beyond the region and
    rule primitives it is defined in terms of.
    """
    ceilings = dta.ceilings
    rho = Fraction(1, m)
    maxima = tuple(m * c for c in ceilings)

    def classify(state, location, coords):
        eta = tuple(Fraction(j, m) for j in coords)
        return vertex_class(graph, state, location, eta)

    unknowns = []
    for s in chain.states:
        for q in dta.locations:
            if q in dta.final:
                continue
            for coords in _coords_iter(maxima):
                if classify(s, q, coords) == ALIVE:
                    unknowns.append((s, q, coords))
    index = {u: k for k, u in enumerate(unknowns)}

    def successors(s, q, coords):
        eta = tuple(Fraction(j, m) for j in coords)
        rule = select_rule(
            dta, q, chain.labeling[chain.state_index(s)],
            plus_representative(eta, ceilings),
        )
        reset_coords = tuple(
            0 if i in rule.resets else j for i, j in enumerate(coords)
        )
        si = chain.state_index(s)
        for uj, p in enumerate(chain.transition[si]):
            if p > 0:
                yield chain.states[uj], rule.target, reset_coords, float(p)

    n = len(unknowns)
    mat = np.zeros((n, n))
    off = np.zeros(n)

    def add(row, s, q, coords, weight):
        for u, q2, c2, p in successors(s, q, coords):
            cls = classify(u, q2, c2)
            if cls == FINAL:
                off[row] += weight * p
            elif cls == ALIVE:
                mat[row, index[(u, q2, c2)]] += weight * p

    for row, (s, q, coords) in enumerate(unknowns):
        if coords == maxima:
            add(row, s, q, coords, 1.0)
            continue
        rho_lam = float(rho * chain.exit_rates[chain.state_index(s)])
        a = 1.0 / (1.0 + rho_lam)
        b = rho_lam / (1.0 + rho_lam)
        weight = 1.0
        current = coords
        while classify(s, q, current) != DEAD and current != maxima:
            add(row, s, q, current, weight * b)
            current = tuple(min(j + 1, mx) for j, mx in zip(current, maxima))
            weight *= a
        if classify(s, q, current) != DEAD:
            add(row, s, q, current, weight)
    return unknowns, mat, off


def row(system, k):
    """Row k of a scheme system as {column: coefficient}."""
    lo, hi = system.indptr[k], system.indptr[k + 1]
    return {
        int(j): float(v)
        for j, v in zip(system.indices[lo:hi], system.data[lo:hi])
    }


def solve_dense(mat, off):
    return np.linalg.solve(np.eye(len(off)) - mat, off)


def level_order(indptr, indices, horizons):
    """Rows by horizon, then by the longest chain of lower-indexed
    equal-horizon entries ending at the row, then by index.

    One pass in index order finds each chain, since every link of it
    comes from a lower-indexed row."""
    n = len(horizons)
    chain = [0] * n
    for i in range(n):
        for k in range(indptr[i], indptr[i + 1]):
            j = int(indices[k])
            if j < i and horizons[j] == horizons[i]:
                chain[i] = max(chain[i], chain[j] + 1)
    return np.array(sorted(range(n), key=lambda i: (horizons[i], chain[i], i)),
                    dtype=np.int64)


def gauss_seidel_sweep(indptr, indices, data, offset, x, order):
    """One in-place Gauss-Seidel pass of ``x = M x + offset`` over ``order``.

    Diagonal entries are moved to the left-hand side, so each visited row is
    satisfied exactly at the moment it is updated.  Returns the largest
    absolute update.
    """
    max_delta = 0.0
    for i in order:
        i = int(i)
        acc = offset[i]
        diag = 0.0
        for k in range(indptr[i], indptr[i + 1]):
            j = int(indices[k])
            if j == i:
                diag += data[k]
            else:
                acc += data[k] * x[j]
        denom = 1.0 - diag
        if denom <= 0.0:
            raise ZeroDivisionError(f"row {i}: unit diagonal mass {diag}")
        new = acc / denom
        delta = abs(new - x[i])
        if delta > max_delta:
            max_delta = delta
        x[i] = new
    return max_delta


def max_residual(indptr, indices, data, offset, x):
    """Largest row defect ``|x - (M x + offset)|`` without touching ``x``."""
    worst = 0.0
    for i in range(len(x)):
        acc = offset[i]
        for k in range(indptr[i], indptr[i + 1]):
            acc += data[k] * x[int(indices[k])]
        defect = abs(x[i] - acc)
        if defect > worst:
            worst = defect
    return worst


def plan_steps(order, starts, point=None) -> SweepPlan:
    """The steps of ``kernels._steps`` as they were built level by level,
    each block level's :class:`~pathprob.kernels.Blocks` from its own
    slice of ``point``."""
    n = len(order)
    alone = np.diff(np.r_[starts, n]) >= WIDE
    blocky = np.zeros(len(starts), dtype=bool)
    if point is not None:
        new = np.r_[True, point[1:] != point[:-1]]
        new[starts] = True
        blocky = np.add.reduceat(new, starts) < np.diff(np.r_[starts, n])
        alone |= blocky
        del new
    # a step starts at every level of its own and at the first level of
    # each run of the others
    first = alone | np.r_[True, alone[:-1]]
    begins = starts[first].tolist()
    steps = []
    for lo, hi, own, block in zip(begins, begins[1:] + [n], alone[first].tolist(),
                                  blocky[first].tolist()):
        if block:
            at = point[lo:hi]
            new = np.r_[True, at[1:] != at[:-1]]
            which = np.cumsum(new) - 1
            position = np.arange(hi - lo) - np.flatnonzero(new)[which]
            width = int(position.max()) + 1
            steps.append((lo, hi, Blocks(which * width + position, width,
                                         int(which[-1]) + 1)))
        elif own:
            steps.append((lo, hi, None))
        else:
            steps.extend(
                (a, min(a + CHUNK, hi), None) for a in range(lo, hi, CHUNK)
            )
    return SweepPlan(order, tuple(steps), point is not None)


def block_step(indptr, indices, data, offset, x, lo, hi, blocks):
    """Solve the stacked ``I - M`` systems of a level's blocks at once,
    the level's entries sorted into matrix and right-hand side on the
    spot.  An entry reads a row of the level only inside its own block:
    it goes to the matrix, every other entry to the right-hand side."""
    slots, width, count = blocks
    cols, vals, owner = _step_entries(indptr, indices, data, lo, hi)
    inside = (cols >= lo) & (cols < hi)
    outside = ~inside
    acc = offset[lo:hi].copy()
    np.add.at(acc, owner[outside], vals[outside] * x[cols[outside]])
    mat = np.tile(np.eye(width), (count, 1))  # row slot s of I - M
    mat[slots[owner[inside]], slots[cols[inside] - lo] % width] -= vals[inside]
    rhs = np.zeros(count * width)
    rhs[slots] = acc
    try:
        solved = np.linalg.solve(mat.reshape(count, width, width),
                                 rhs.reshape(count, width, 1))
    except np.linalg.LinAlgError as exc:
        raise ZeroDivisionError(
            f"singular block among rows {lo}..{hi - 1} of the plan") from exc
    return solved.ravel()[slots]


def plan_pass(indptr, indices, data, offset, x, plan: SweepPlan):
    """One in-place pass of ``plan`` over the renumbered system, each block
    level solved by :func:`block_step` and each row step by the kernel's
    own ``_row_step``."""
    for lo, hi, blocks in plan.steps:
        args = (indptr, indices, data, offset, x, lo, hi)
        x[lo:hi] = (_row_step(*args, plan.exact) if blocks is None
                    else block_step(*args, blocks))


def _coords_iter(maxima):
    return itertools.product(*[range(mx + 1) for mx in maxima])


# ---------------------------------------------------------------------------
# Region equivalences by their definitions, the saturated delay, and the
# backward delay with the representative of the region left just before a
# valuation.


def is_marginal(code: regions.RegionCode) -> bool:
    """True iff some clock at or below its ceiling has fractional part zero."""
    return code.is_marginal()


def clamp_delay(eta: Sequence, t, ceilings: Sequence[int]) -> tuple:
    """Delay by ``t`` but saturate each clock at its ceiling.

    The saturated delay keeps grid valuations inside the box spanned by the
    ceilings; acceptance probabilities are unchanged because values above a
    ceiling are indistinguishable to every guard.
    """
    if t < 0:
        raise ValueError(f"negative delay {t}")
    return tuple(min(c, v + t) for v, c in zip(eta, ceilings))


def backtrack(eta: Sequence, t) -> tuple:
    """Rewind every clock by ``t``; defined only when all entries are >= t."""
    if any(v < t for v in eta):
        raise ValueError(f"cannot backtrack {t}: some clock is smaller")
    return tuple(v - t for v in eta)


def plus_representative(eta: Sequence, ceilings: Sequence[int]) -> tuple:
    """A representative of the region entered immediately after ``eta``.

    Any delay inside ``(0, t1)`` with ``t1 = 1 - max fractional part`` lands
    in the same region; the midpoint ``t1/2`` is used so the function is
    deterministic.  When every clock is above its ceiling any positive delay
    works and ``1/2`` is used.
    """
    fracs = [frac_part(v) for v, c in zip(eta, ceilings) if v <= c]
    t1 = 1 - max(fracs) if fracs else 1
    return regions.delay(eta, Fraction(t1) * regions.HALF)


def minus_representative(eta: Sequence, ceilings: Sequence[int]) -> tuple:
    """A representative of the region left immediately before ``eta``.

    Requires every clock to be positive.  The admissible window ``(0, t2)``
    follows the case analysis on the smallest fractional part: the distance
    to the previous landmark, also capped by how far each above-ceiling
    clock can fall before meeting its ceiling.
    """
    if any(v <= 0 for v in eta):
        raise ValueError("minus representative requires every clock > 0")
    over = [v - c for v, c in zip(eta, ceilings) if v > c]
    fracs = sorted({frac_part(v) for v, c in zip(eta, ceilings) if v <= c})
    if not fracs:
        t2 = min(over)
    elif fracs[0] > 0:
        t2 = min([fracs[0]] + over)
    elif len(fracs) == 1:
        t2 = min([Fraction(1)] + over)
    else:
        t2 = min([fracs[1]] + over)
    return backtrack(eta, Fraction(t2) * regions.HALF)


def equiv_g(a: Sequence, b: Sequence, ceilings: Sequence[int]) -> bool:
    """Guard equivalence: same above-ceiling clocks, and matching integral
    parts and zero-fraction flags on the clocks at or below the ceiling."""
    for i, c in enumerate(ceilings):
        above_a, above_b = a[i] > c, b[i] > c
        if above_a != above_b:
            return False
        if not above_a:
            if int_part(a[i]) != int_part(b[i]):
                return False
            if (frac_part(a[i]) > 0) != (frac_part(b[i]) > 0):
                return False
    return True


def equivalent(a: Sequence, b: Sequence, ceilings: Sequence[int]) -> bool:
    """The definitional region predicate: guard equivalence plus agreement
    of the pairwise fractional-part order on clocks at or below ceilings.

    Kept separate from :func:`region_of` so that tests can confront the
    canonical encoding with the definition it is supposed to capture.
    """
    if not equiv_g(a, b, ceilings):
        return False
    below = [i for i, c in enumerate(ceilings) if a[i] <= c and b[i] <= c]
    for x, y in itertools.combinations(below, 2):
        fax, fay = frac_part(a[x]), frac_part(a[y])
        fbx, fby = frac_part(b[x]), frac_part(b[y])
        if (fax < fay) != (fbx < fby) or (fax == fay) != (fbx == fby):
            return False
    return True


def equiv_b(a: Sequence, b: Sequence, ceilings: Sequence[int]) -> bool:
    """Bound equivalence: per clock, equal values or both above the ceiling."""
    return all(
        (a[i] > c and b[i] > c) or a[i] == b[i] for i, c in enumerate(ceilings)
    )


def region_sequence(eta, ceilings):
    """Regions visited by eta + t as t grows, until everything sits above
    its ceiling; alternates boundary and interior regions.

    Region changes happen exactly when some clock at or below its ceiling
    crosses an integer, so stepping to the next such crossing and then to a
    representative just past it enumerates the full sequence.
    """
    sequence = [region_of(eta, ceilings)]
    current = eta
    while any(v <= c for v, c in zip(current, ceilings)):
        gap = min(
            1 - (v - math.floor(v))
            for v, c in zip(current, ceilings)
            if v <= c
        )
        boundary = tuple(v + gap for v in current)
        sequence.append(region_of(boundary, ceilings))
        current = plus_representative(boundary, ceilings)
        sequence.append(region_of(current, ceilings))
    return sequence


# ---------------------------------------------------------------------------
# Monte Carlo: the absorbing estimator and the exact k-step estimator as two
# separate loops, one per mode, each running one trial at a time on its row
# of its batch's uniform blocks.


def trial_uniforms(rng_stream: RngStream, trial: int) -> Iterator[np.ndarray]:
    """The (sojourn, jump) uniforms of ``trial``, step by step: row
    ``trial % BATCH`` of each ``(BATCH, 2)`` block drawn from the stream of
    the batch that starts at ``trial - trial % BATCH``."""
    row = trial % BATCH
    rng = rng_stream.trial_rng(trial - row)
    while True:
        yield rng.random((BATCH, 2))[row]


class _Simulator:
    """Per-model tables so the trial loop stays allocation-light."""

    def __init__(self, chain: Ctmc):
        self.rates = [float(r) for r in chain.exit_rates]
        self.cum_rows = [
            np.cumsum([float(p) for p in row]) for row in chain.transition
        ]
        for row in self.cum_rows:
            row[-1] = 1.0

    def jump(self, state_index: int, u: float) -> int:
        return int(np.searchsorted(self.cum_rows[state_index], u, "right"))

    def sojourn(self, state_index: int, u: float) -> float:
        """Exponential sojourn by inverse transform, t = -ln(1 - u)/rate."""
        return -math.log(1.0 - u) / self.rates[state_index]


def _binomial_halfwidth(successes: int, n: int, confidence: float) -> float:
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / n
    return z * math.sqrt(p * (1.0 - p) / n)


def _check_counts(n: int, k_max: int) -> None:
    if n < 1:
        raise ValueError(f"trial count must be at least 1, got {n}")
    if k_max < 0:
        raise ValueError(f"step bound must be non-negative, got {k_max}")


def estimate(
    chain: Ctmc,
    dta: Dta,
    graph: ProductGraph,
    state: str,
    location: str,
    valuation: Sequence,
    n: int,
    k_max: Optional[int] = None,
    seed: int = 0,
    stream: int = 0,
    confidence: float = 0.99,
    absorb: bool = True,
) -> Estimate:
    """Estimate the unbounded acceptance probability with early absorption.

    The tracked clock valuation is saturated at the ceilings after every
    step; values beyond a ceiling are interchangeable for the acceptance
    probability, and saturation keeps the region lookup domain finite.
    """
    if k_max is None:
        k_max = default_k_max(graph)
    _check_counts(n, k_max)
    sim = _Simulator(chain)
    ceilings = dta.ceilings
    classes = graph.classes()
    numbers = vertex_numbers(graph)
    finals = dta.final
    rng_stream = RngStream(seed, stream)
    start_eta = tuple(min(float(v), float(c)) for v, c in zip(valuation, ceilings))
    start_state = chain.state_index(state)

    accepted = rejected = censored = 0
    for trial in range(n):
        uniforms = trial_uniforms(rng_stream, trial)
        si, q, eta = start_state, location, start_eta
        steps = 0
        while True:
            if q in finals:
                accepted += 1
                break
            if absorb:
                vertex = ProductVertex(
                    chain.states[si], q, region_of(eta, ceilings)
                )
                if classes[numbers[vertex]] == DEAD:
                    rejected += 1
                    break
            if steps == k_max:
                censored += 1
                break
            u_sojourn, u_jump = next(uniforms).tolist()
            t = sim.sojourn(si, u_sojourn)
            nxt = sim.jump(si, u_jump)
            delayed = tuple(v + t for v in eta)
            rule = select_rule(dta, q, chain.labeling[si], delayed)
            q = rule.target
            eta = tuple(
                min(float(c), 0.0 if i in rule.resets else delayed[i])
                for i, c in enumerate(ceilings)
            )
            si = nxt
            steps += 1
    return Estimate(
        p_hat=accepted / n,
        n=n,
        halfwidth=_binomial_halfwidth(accepted, n, confidence),
        confidence=confidence,
        accepted=accepted,
        dead_absorbed=rejected,
        censored=censored,
        k_max=k_max,
    )


def estimate_k(
    chain: Ctmc,
    dta: Dta,
    state: str,
    location: str,
    valuation: Sequence,
    k: int,
    n: int,
    seed: int = 0,
    stream: int = 0,
    confidence: float = 0.99,
) -> Estimate:
    """Acceptance strictly within k steps, exact semantics: no absorption
    shortcut and no valuation saturation."""
    _check_counts(n, k)
    sim = _Simulator(chain)
    finals = dta.final
    rng_stream = RngStream(seed, stream)
    start_state = chain.state_index(state)
    start_eta = tuple(float(v) for v in valuation)

    accepted = 0
    for trial in range(n):
        uniforms = trial_uniforms(rng_stream, trial)
        si, q, eta = start_state, location, start_eta
        steps = 0
        while True:
            if q in finals:
                accepted += 1
                break
            if steps == k:
                break
            u_sojourn, u_jump = next(uniforms).tolist()
            t = sim.sojourn(si, u_sojourn)
            nxt = sim.jump(si, u_jump)
            delayed = tuple(v + t for v in eta)
            rule = select_rule(dta, q, chain.labeling[si], delayed)
            q = rule.target
            eta = tuple(
                0.0 if i in rule.resets else delayed[i]
                for i in range(len(delayed))
            )
            si = nxt
            steps += 1
    return Estimate(
        p_hat=accepted / n,
        n=n,
        halfwidth=_binomial_halfwidth(accepted, n, confidence),
        confidence=confidence,
        accepted=accepted,
        dead_absorbed=0,
        censored=0,
        k_max=k,
    )


# ---------------------------------------------------------------------------
# DTA validation: determinism by pairwise intersection of guard boxes, with
# rules identical in guard, resets and target exempt, and totality by a sweep
# over region representatives.


# interval with rational endpoints; upper is None for +infinity
class _Interval(NamedTuple):
    lo: Fraction
    lo_open: bool
    hi: Optional[Fraction]
    hi_open: bool

    def empty(self) -> bool:
        if self.hi is None:
            return False
        if self.lo < self.hi:
            return False
        return self.lo > self.hi or self.lo_open or self.hi_open

    def pick(self) -> Fraction:
        if self.hi is None:
            return self.lo + 1 if self.lo_open else self.lo
        if self.lo == self.hi:
            return self.lo
        return (self.lo + self.hi) / 2


def _guard_box(guard: Guard, n_clocks: int) -> List[_Interval]:
    box = [_Interval(Fraction(0), False, None, False) for _ in range(n_clocks)]
    for term in guard.terms:
        iv = box[term.clock]
        b = Fraction(term.bound)
        if term.op == "<":
            if iv.hi is None or b < iv.hi or (b == iv.hi and not iv.hi_open):
                iv = iv._replace(hi=b, hi_open=True)
        elif term.op == "<=":
            if iv.hi is None or b < iv.hi:
                iv = iv._replace(hi=b, hi_open=False)
        elif term.op == ">":
            if b > iv.lo or (b == iv.lo and not iv.lo_open):
                iv = iv._replace(lo=b, lo_open=True)
        else:  # >=
            if b > iv.lo:
                iv = iv._replace(lo=b, lo_open=False)
        box[term.clock] = iv
    return box


def guard_overlap_witness(
    g1: Guard, g2: Guard, n_clocks: int
) -> Optional[regions.ClockValuation]:
    """Exact witness valuation in the intersection of two guards, or None.

    Guards are conjunctions of single-clock bounds, so each feasible set is
    a box and the intersection test reduces to per-clock interval
    intersection.
    """
    witness = []
    for iv1, iv2 in zip(_guard_box(g1, n_clocks), _guard_box(g2, n_clocks)):
        lo, lo_open = max(
            (iv1.lo, iv1.lo_open), (iv2.lo, iv2.lo_open)
        )
        if iv1.hi is None:
            hi, hi_open = iv2.hi, iv2.hi_open
        elif iv2.hi is None:
            hi, hi_open = iv1.hi, iv1.hi_open
        else:
            hi, hi_open = min((iv1.hi, not iv1.hi_open), (iv2.hi, not iv2.hi_open))
            hi_open = not hi_open
        merged = _Interval(lo, lo_open, hi, hi_open)
        if merged.empty():
            return None
        witness.append(merged.pick())
    return tuple(witness)


def validate_dta(dta: Dta) -> ValidationReport:
    """Decide determinism and totality exactly.

    Determinism: distinct rules sharing (location, signature) must have
    disjoint guards; overlaps are reported with a witness valuation.
    Totality: for every (location, signature) the guards must cover every
    region; guard satisfaction is region-invariant, so checking one
    representative per region (including the above-ceiling faces) is a
    complete cover test.
    """
    problems: List[str] = []
    pairs = {(r.source, r.signature) for r in dta.rules}
    for rule in dta.rules:
        if rule.source not in dta.locations:
            problems.append(f"rule from unknown location {rule.source!r}")
        if rule.target not in dta.locations:
            problems.append(f"rule to unknown location {rule.target!r}")
        if rule.signature not in dta.alphabet:
            problems.append(f"rule signature {rule.signature!r} not in alphabet")
    if problems:
        return ValidationReport(tuple(problems))

    for q, a in sorted(pairs):
        group = dta.rules_from(q, a)
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                r1, r2 = group[i], group[j]
                if (r1.guard, r1.resets, r1.target) == (
                    r2.guard,
                    r2.resets,
                    r2.target,
                ):
                    continue
                w = guard_overlap_witness(r1.guard, r2.guard, len(dta.clocks))
                if w is not None:
                    rendered = ", ".join(
                        f"{n}={v}" for n, v in zip(dta.clocks, w)
                    )
                    problems.append(
                        f"rules ({q},{a},{r1.guard.render(dta.clocks)}) and "
                        f"({q},{a},{r2.guard.render(dta.clocks)}) overlap, "
                        f"witness {rendered}"
                    )

    codes = regions.enumerate_region_codes(dta.ceilings)
    representatives = [
        regions.region_representative(c, dta.ceilings) for c in codes
    ]
    for q in dta.locations:
        for a in sorted(dta.alphabet):
            group = dta.rules_from(q, a)
            for rep in representatives:
                if not any(regions.guard_sat(rep, r.guard) for r in group):
                    rendered = ", ".join(
                        f"{n}={v}" for n, v in zip(dta.clocks, rep)
                    )
                    problems.append(
                        f"no rule enabled for ({q},{a}) at {rendered}"
                    )
    return ValidationReport(tuple(problems))


# ---------------------------------------------------------------------------
# Delay walk by valuations: the exact walk the product graph took before it
# stepped region codes.  A region's representative is delayed by the
# midpoint of every open interval between the landmarks where a clock's
# fraction reaches 0, and past the last one.


def frac_set(eta: Sequence, ceilings: Sequence[int]) -> tuple:
    """The fractional landmark set of ``eta``: {0, 1} together with the
    fractional parts of all clocks at or below their ceiling, sorted."""
    values = {Fraction(0), Fraction(1)}
    for v, c in zip(eta, ceilings):
        if v <= c:
            values.add(frac_part(v))
    return tuple(sorted(values))


def delay_intervals(
    eta: Sequence, ceilings: Sequence[int], t_max: int
) -> list:
    """Open delay intervals on which the region of ``eta + t`` is constant.

    Returns ``(lo, hi)`` pairs partitioning ``(0, t_max)`` up to finitely
    many boundary points, followed by ``(t_max, None)`` for the unbounded
    tail where every clock sits above its ceiling.
    """
    offsets = sorted({1 - w for w in frac_set(eta, ceilings)})
    intervals = []
    for n in range(t_max):
        for lo, hi in zip(offsets, offsets[1:]):
            intervals.append((n + lo, n + hi))
    intervals.append((Fraction(t_max), None))
    return intervals


def delay_representatives(
    eta: Sequence, ceilings: Sequence[int], t_max: int
) -> list:
    """One positive delay per interval of :func:`delay_intervals`.

    Midpoints for the bounded intervals; the unbounded tail is represented
    half a unit past its left end.
    """
    reps = []
    for lo, hi in delay_intervals(eta, ceilings, t_max):
        reps.append(lo + regions.HALF if hi is None else (lo + hi) * regions.HALF)
    return reps


def valuation_walk(code: regions.RegionCode, ceilings: Sequence[int],
                   t_max: int) -> list:
    """The valuations the delay walk from ``code``'s representative steps
    through, one per delay of :func:`delay_representatives`; a region
    recurs in consecutive steps once a clock above its ceiling crosses an
    integer, or once every clock is above its ceiling."""
    rep = regions.region_representative(code, ceilings)
    return [regions.delay(rep, t)
            for t in delay_representatives(rep, ceilings, t_max)]


# ---------------------------------------------------------------------------
# Product graph: the region walk that selected a rule with select_rule at
# every plus representative and repeated the exact delay walk once per
# (location, label, region), keeping a (valuation, delay) witness per edge.
# The package derives the same graph from one enabled-rule table and one
# region-code delay walk per region, and keeps no witnesses.


@dataclass
class WitnessedGraph(ProductGraph):
    """A product graph with a (valuation, delay) witness per edge."""

    witnesses: Dict[Tuple[int, int], Tuple[tuple, object]] = None


def build_graph(chain: Ctmc, dta: Dta) -> WitnessedGraph:
    """Construct vertices, edges, rule table and classes of the product
    region graph.

    The rule of each (location, label, region) is selected once at the
    region's plus representative.  For each (location, label, region) the
    finite set of delay intervals with constant region is enumerated once;
    one representative delay per non-marginal interval is pushed through
    the rule table (a non-marginal region is its own plus region).  Edges
    then fan out over the CTMC states with positive jump probability.  A
    concrete (valuation, delay) witness is kept per edge.  Raises
    ``ValueError`` above :data:`MAX_VERTICES` vertices, before enumerating.
    """
    oversized = size_report(chain, dta)
    if not oversized.ok:
        raise ValueError(str(oversized))
    ceilings = dta.ceilings
    codes = tuple(regions.enumerate_region_codes(ceilings))
    number = {code: r for r, code in enumerate(codes)}
    labels = tuple(sorted(dta.alphabet))
    n_loc, n_reg = len(dta.locations), len(codes)
    vertices = tuple(
        ProductVertex(s, q, code)
        for s in chain.states for q in dta.locations for code in codes
    )
    reps = [regions.region_representative(code, ceilings) for code in codes]

    # (location, label, region) -> (target location, reset clocks)
    rules: Dict[Tuple[int, int, int], Tuple[int, List[int]]] = {}
    rule_target = np.zeros((n_loc, len(labels), n_reg), dtype=np.int32)
    rule_resets = np.zeros((n_loc, len(labels), n_reg, len(ceilings)), dtype=bool)
    for qi, q in enumerate(dta.locations):
        for ai, a in enumerate(labels):
            for r, rep in enumerate(reps):
                rule = select_rule(
                    dta, q, a, plus_representative(rep, ceilings)
                )
                target, resets = dta.locations.index(rule.target), sorted(rule.resets)
                rules[(qi, ai, r)] = (target, resets)
                rule_target[qi, ai, r] = target
                rule_resets[qi, ai, r, resets] = True

    # (location, label, region) -> [(target location, target region, eta, t)]
    moves: Dict[Tuple[int, int, int], list] = {}
    for qi in range(n_loc):
        for ai in range(len(labels)):
            for r, rep in enumerate(reps):
                seen = {}
                for t in delay_representatives(rep, ceilings, dta.t_max):
                    delayed = regions.delay(rep, t)
                    code = regions.region_of(delayed, ceilings)
                    if code.is_marginal():
                        continue
                    target, resets = rules[(qi, ai, number[code])]
                    after = regions.reset(delayed, resets)
                    key = (target, number[regions.region_of(after, ceilings)])
                    seen.setdefault(key, (rep, t))
                moves[(qi, ai, r)] = [
                    (loc, reg, eta, t) for (loc, reg), (eta, t) in seen.items()
                ]

    successors: List[Tuple[int, ...]] = []
    witnesses: Dict[Tuple[int, int], Tuple[tuple, object]] = {}
    for si, row in enumerate(chain.transition):
        ai = labels.index(chain.labeling[si])
        for qi in range(n_loc):
            for r in range(n_reg):
                v = len(successors)
                targets = set()
                for uj, p in enumerate(row):
                    if p <= 0:
                        continue
                    for loc, reg, eta, t in moves[(qi, ai, r)]:
                        w = (uj * n_loc + loc) * n_reg + reg
                        targets.add(w)
                        witnesses.setdefault((v, w), (eta, t))
                successors.append(tuple(sorted(targets)))

    final = np.zeros((len(chain.states), n_loc, n_reg), dtype=bool)
    final[:, [q in dta.final for q in dta.locations]] = True
    return WitnessedGraph(
        ctmc=chain,
        dta=dta,
        codes=codes,
        region_number=number,
        labels=labels,
        vertices=vertices,
        successors=tuple(successors),
        witnesses=witnesses,
        class_table=_class_table(successors, final),
        rule_target=rule_target,
        rule_resets=rule_resets,
    )


# ---------------------------------------------------------------------------
# Grid and assembly: the grid that kept its unknowns in a dict keyed by
# (state, location, coords) and assembled each row as a dict, one point at
# a time.  The package numbers every grid point as one integer cell and
# assembles from per-row arrays; both must give the same arrays.


def decode(grid, cell: int) -> Tuple[str, str, tuple]:
    """State, location and integer coordinates (the numerators of the
    valuation over m) of a cell of the package's grid, by dividing the cell
    number ``(state * L + location) * B + b`` apart again."""
    place, b = divmod(int(cell), grid.box_size)
    s, q = divmod(place, len(grid.dta.locations))
    coords = []
    for mc in reversed(grid.max_coords):
        b, j = divmod(b, mc + 1)
        coords.append(j)
    return grid.chain.states[s], grid.dta.locations[q], tuple(reversed(coords))


class GridPoint(NamedTuple):
    state: str
    location: str
    valuation: tuple


class Grid:
    """All on-grid points for one (CTMC, DTA, m) triple.

    Inside the grid a point is the key ``(state, location, coords)``, where
    the integer vector ``coords`` holds the numerators of its valuation
    over m; ``slots`` maps the key of every unknown to its row.  Each box
    point's region number comes from :func:`regions.grid_region_numbers`,
    and its class and jump rule from the product graph's class and rule
    tables.  Exact rationals are made only where callers see points:
    :attr:`b_m` and :attr:`index` (built on first use), :meth:`points`,
    :meth:`class_at` and :meth:`horizon`.
    """

    def __init__(self, chain: Ctmc, dta: Dta, graph: ProductGraph, m: int):
        if m < 1:
            raise ValueError("grid resolution m must be >= 1")
        self.chain = chain
        self.dta = dta
        self.graph = graph
        self.m = m
        self.rho = Fraction(1, m)
        self.ceilings = dta.ceilings
        self.max_coords = tuple(m * c for c in dta.ceilings)
        self.d_m_size = grid_cells(chain, dta, m)
        self._location_number = {q: i for i, q in enumerate(dta.locations)}
        # state -> (label number, positive jumps as (successor, probability))
        self._jumps = {
            s: (graph.labels.index(label),
                [(u, float(p)) for u, p in zip(chain.states, row) if p > 0])
            for s, label, row in zip(chain.states, chain.labeling, chain.transition)
        }
        # [location][label][region] -> target location number, reset flags
        self._rule_target = graph.rule_target.tolist()
        self._rule_resets = graph.rule_resets.tolist()

        # alive non-final grid points in (state, location, coords) order
        box = list(self._iter_coords())
        numbers = regions.grid_region_numbers(self.ceilings, m, graph.region_number)
        self._region_at = dict(zip(box, numbers.tolist()))
        self.slots: Dict[Tuple[str, str, tuple], int] = {}
        for si, s in enumerate(chain.states):
            for qi, q in enumerate(dta.locations):
                alive = graph.class_table[si, qi, numbers] == ALIVE_CLASS
                for i in np.flatnonzero(alive).tolist():
                    self.slots[(s, q, box[i])] = len(self.slots)
        self.is_bmax = np.array(
            [coords == self.max_coords for _, _, coords in self.slots], dtype=bool
        )
        self.horizons = self._horizons()

    # -- coordinates ------------------------------------------------------

    def _iter_coords(self) -> Iterator[tuple]:
        yield from itertools.product(*[range(mc + 1) for mc in self.max_coords])

    def valuation(self, coords: tuple) -> tuple:
        return tuple(Fraction(j, self.m) for j in coords)

    def coords(self, valuation: Sequence) -> tuple:
        out = []
        for i, v in enumerate(valuation):
            j = Fraction(v) * self.m
            if j.denominator != 1 or not 0 <= j <= self.max_coords[i]:
                raise ValueError(f"{tuple(valuation)} is not on the {self.m}-grid")
            out.append(int(j))
        return tuple(out)

    def _clamp_step(self, coords: tuple) -> tuple:
        return tuple(
            min(j + 1, mc) for j, mc in zip(coords, self.max_coords)
        )

    def _class_name(self, state: str, location: str, coords: tuple) -> str:
        return CLASS_NAMES[self.graph.class_table[
            self.chain.state_index(state), self._location_number[location],
            self._region_at[coords],
        ]]

    # -- exact points ------------------------------------------------------

    @cached_property
    def b_m(self) -> Tuple[GridPoint, ...]:
        """The unknowns as exact points, in row order."""
        return tuple(
            GridPoint(s, q, self.valuation(coords)) for s, q, coords in self.slots
        )

    @cached_property
    def index(self) -> Dict[GridPoint, int]:
        """Row of each unknown, keyed by its exact point."""
        return {point: k for k, point in enumerate(self.b_m)}

    def class_at(self, point: GridPoint) -> str:
        return self._class_name(
            point.state, point.location, self.coords(point.valuation)
        )

    def points(self) -> Iterator[Tuple[GridPoint, str]]:
        """Every grid point with its class, in canonical order."""
        for s in self.chain.states:
            for q in self.dta.locations:
                for coords in self._iter_coords():
                    yield (
                        GridPoint(s, q, self.valuation(coords)),
                        self._class_name(s, q, coords),
                    )

    def horizon(self, point: GridPoint) -> int:
        k = self.index.get(point)
        if k is None:
            raise ValueError(f"{point} is not an unknown of the scheme")
        return int(self.horizons[k])

    # -- horizons ----------------------------------------------------------

    def _horizons(self) -> np.ndarray:
        """Steps of saturated rho-delay until the boundary set or a dead
        region.  A step raises the coordinates, so it leads to a later key
        of the same (state, location) and one backward pass suffices."""
        out = [0] * len(self.slots)
        for (s, q, coords), k in reversed(self.slots.items()):
            if coords != self.max_coords:
                nxt = self.slots.get((s, q, self._clamp_step(coords)))
                out[k] = 1 if nxt is None else 1 + out[nxt]
        return np.array(out, dtype=np.int64)

    # -- jump successors ---------------------------------------------------

    def successor_entries(
        self, state: str, location: str, coords: tuple
    ) -> List[Tuple[Optional[int], float]]:
        """Jump-successor contributions of one grid point.

        The rule table gives the target location and reset clocks of the
        rule enabled immediately after the grid valuation; the reset applies
        to the grid valuation itself.  Returns ``(column, probability)``
        pairs where ``column`` is an unknown index, ``None`` for a final
        target (value 1 folds into the constant term) and entries for dead
        targets are dropped.  Outside final locations a point is alive
        exactly when it has a slot.
        """
        label, jumps = self._jumps[state]
        qi, r = self._location_number[location], self._region_at[coords]
        target_loc = self.dta.locations[self._rule_target[qi][label][r]]
        if target_loc in self.dta.final:
            return [(None, p) for _, p in jumps]
        resets = self._rule_resets[qi][label][r]
        reset_coords = tuple(
            0 if zero else j for zero, j in zip(resets, coords)
        )
        out: List[Tuple[Optional[int], float]] = []
        for u, p in jumps:
            col = self.slots.get((u, target_loc, reset_coords))
            if col is not None:
                out.append((col, p))
        return out


def build_grid(chain: Ctmc, dta: Dta, graph: ProductGraph, m: int) -> Grid:
    return Grid(chain, dta, graph, m)


def _pack(rows: List[Dict[int, float]], consts: List[float], grid: Grid,
          kind: str) -> SchemeSystem:
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    cols: List[int] = []
    vals: List[float] = []
    for k, row in enumerate(rows):
        for j in sorted(row):
            cols.append(j)
            vals.append(row[j])
        indptr[k + 1] = len(cols)
    return SchemeSystem(
        kind=kind,
        grid=grid,
        indptr=indptr,
        indices=np.array(cols, dtype=np.int64),
        data=np.array(vals, dtype=np.float64),
        offset=np.array(consts, dtype=np.float64),
    )


def _row_weights(grid: Grid) -> Dict[str, Tuple[float, float]]:
    """Per state, the delay weight ``1/(1+rho*lambda)`` and the jump weight
    ``rho*lambda/(1+rho*lambda)``."""
    out = {}
    for s, rate in zip(grid.chain.states, grid.chain.exit_rates):
        rho_lam = float(grid.rho * rate)
        out[s] = (1.0 / (1.0 + rho_lam), rho_lam / (1.0 + rho_lam))
    return out


def _fold(row: Dict[int, float], const: float,
          entries: Iterable[Tuple[Optional[int], float]], weight: float) -> float:
    """Add weighted successor entries to ``row`` and return ``const`` plus
    the weighted mass of final targets, whose value 1 folds into the
    constant term."""
    for col, p in entries:
        if col is None:
            const += weight * p
        else:
            row[col] = row.get(col, 0.0) + weight * p
    return const


def assemble_gamma_prime(grid: Grid) -> SchemeSystem:
    """One row per unknown of the one-step scheme.

    Interior rows carry ``1/(1+rho*lambda)`` on the saturated-delay
    neighbour and ``rho*lambda/(1+rho*lambda) * P(s,u)`` on each jump
    successor; boundary rows are plain convex combinations of successor
    values.  Final targets fold their value 1 into the constant vector,
    dead targets contribute nothing.
    """
    weights = _row_weights(grid)
    rows: List[Dict[int, float]] = []
    consts: List[float] = []
    for s, q, coords in grid.slots:
        row: Dict[int, float] = {}
        entries = grid.successor_entries(s, q, coords)
        if coords == grid.max_coords:
            const = _fold(row, 0.0, entries, 1.0)
        else:
            a, b = weights[s]
            col = grid.slots.get((s, q, grid._clamp_step(coords)))
            if col is not None:
                row[col] = a
            const = _fold(row, 0.0, entries, b)
        rows.append(row)
        consts.append(const)
    return _pack(rows, consts, grid, GAMMA_PRIME)


def assemble_gamma_double(grid: Grid) -> SchemeSystem:
    """Unfold each interior row through its horizon.

    Walks the saturated-delay chain of every unknown, accumulating the jump
    successors of each traversed point with geometrically decaying weight,
    and closes with the boundary tail: nothing when the chain dies, the
    boundary point's successor row when it reaches the all-ceilings set
    (a boundary unknown has horizon 0 and is its own tail).
    """
    weights = _row_weights(grid)
    rows: List[Dict[int, float]] = []
    consts: List[float] = []
    for (s, q, coords), k in grid.slots.items():
        a, b = weights[s]
        row: Dict[int, float] = {}
        const = 0.0
        weight = 1.0
        current = coords
        for _ in range(int(grid.horizons[k])):
            const = _fold(row, const, grid.successor_entries(s, q, current),
                          weight * b)
            current = grid._clamp_step(current)
            weight *= a
        if (s, q, current) in grid.slots:
            const = _fold(row, const, grid.successor_entries(s, q, current),
                          weight)
        rows.append(row)
        consts.append(const)
    return _pack(rows, consts, grid, GAMMA_DOUBLE)


# ---------------------------------------------------------------------------
# The grid that worked out every per-row quantity from the row's cell: its
# box point, coordinates, delay step, rule and reset by integer division
# and products over (rows x clocks) and (rows x states) arrays, with
# ``point`` and ``slice_key`` computed on each read, and the assembly
# helpers it fed.  The package builds the same arrays from per-box-point
# tables; :func:`per_row_system` runs a package assembler on these helpers.


class PerRowGrid(scheme.Grid):
    """:class:`pathprob.scheme.Grid` as built one row at a time."""

    def __init__(self, chain: Ctmc, dta: Dta, graph: ProductGraph, m: int):
        if m < 1:
            raise ValueError("grid resolution m must be >= 1")
        self.chain = chain
        self.dta = dta
        self.graph = graph
        self.m = m
        self.ceilings = dta.ceilings
        self.max_coords = tuple(m * c for c in dta.ceilings)
        self.d_m_size = grid_cells(chain, dta, m)
        shape = tuple(mc + 1 for mc in self.max_coords)
        self.box_size = math.prod(shape)
        self.strides = tuple(math.prod(shape[i + 1:]) for i in range(len(shape)))
        strides = np.array(self.strides, dtype=np.int64)
        region = regions.grid_region_numbers(self.ceilings, m, graph.region_number)

        self.cell_class = graph.class_table[:, :, region].ravel()
        self.cells = np.flatnonzero(self.cell_class == ALIVE_CLASS)
        self.slot_of = np.full(self.d_m_size, -1, dtype=np.int32)
        self.slot_of[self.cells] = np.arange(len(self.cells))

        b = self.cells % self.box_size
        self.row_state, location = np.divmod(
            self.cells // self.box_size, len(dta.locations)
        )
        coords = b[:, None] // strides % np.array(shape, dtype=np.int64)
        self.is_bmax = b == self.box_size - 1
        stepped = self.cells + (coords < self.max_coords) @ strides
        self.delay_row = np.where(self.is_bmax, -1, self.slot_of[stepped])

        label = np.array([graph.labels.index(a) for a in chain.labeling])
        rule = (location, label[self.row_state], region[b])
        target = graph.rule_target[rule]
        after = b - (graph.rule_resets[rule] * coords) @ strides
        self.to_final = np.array([q in dta.final for q in dta.locations])[target]
        self.jump_prob = np.array(chain.transition, dtype=np.float64)
        jumps = (np.arange(len(chain.states)) * len(dta.locations)
                 + target[:, None]) * self.box_size + after[:, None]
        self.jump_rows = np.where(
            self.jump_prob[self.row_state] > 0, self.slot_of[jumps], -1
        )

    @property
    def point(self) -> np.ndarray:
        return self.cells % self.box_size

    @property
    def slice_key(self) -> np.ndarray:
        reset = self.graph.rule_resets.any(axis=(0, 1, 2))
        key = np.zeros(len(self.cells), dtype=np.int64)
        for stride, top, cleared in zip(self.strides, self.max_coords, reset):
            if not cleared:
                key += self.cells // stride % (top + 1)
        return key


def per_row_jump_entries(grid: scheme.Grid, rows: np.ndarray, at: np.ndarray,
                         weight: np.ndarray, offset: np.ndarray):
    """The jump successors of the unknowns ``at``, weighted per row by
    ``weight``, as entries of ``rows``.  A final target adds its weighted
    mass (value 1) to ``offset[rows]``, one CTMC state after another;
    alive targets are returned as (row, column, value) arrays in (row,
    state) order; dead targets contribute nothing."""
    values = weight[:, None] * grid.jump_prob[grid.row_state[at]]
    final = grid.to_final[at]
    for u in range(values.shape[1]):
        offset[rows] += np.where(final, values[:, u], 0.0)
    cols = grid.jump_rows[at]
    hit = cols >= 0
    return np.broadcast_to(rows[:, None], cols.shape)[hit], cols[hit], values[hit]


def per_row_csr(grid: scheme.Grid, kind: str, offset: np.ndarray,
                *parts) -> SchemeSystem:
    """Pack (row, column, value) entries into rows sorted by column.
    Entries sharing a row and a column are summed one after another, in
    the order the parts list them: the order the scheme folds them in."""
    rows, cols, vals = (np.concatenate(arrays) for arrays in zip(*parts))
    # by row, then column: the key is one number per (row, column) pair,
    # and the sort is stable, so ties keep their order
    order = np.argsort(rows * len(offset) + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    data = np.zeros(int(first.sum()))
    np.add.at(data, np.cumsum(first) - 1, vals)  # in order, per entry
    indptr = np.zeros(len(offset) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[first], minlength=len(offset)), out=indptr[1:])
    return SchemeSystem(kind=kind, grid=grid, indptr=indptr,
                        indices=cols[first].astype(np.int64), data=data,
                        offset=offset)


def per_row_system(assemble, grid) -> SchemeSystem:
    """``assemble(grid)``, a package assembler, run on the jump-entry and
    CSR helpers above."""
    with mock.patch.multiple(scheme, _jump_entries=per_row_jump_entries,
                             _csr=per_row_csr):
        return assemble(grid)


# ---------------------------------------------------------------------------
# The readers of one start's values on a family of grids, as they stood
# before they shared one table: the sizing of an epsilon query on the grid
# values alone, the same sizing with the extrapolant test, the estimate of
# a grid query and the rows of ``pathprob convergence``.  Each reads its
# values straight from the package's solved grids.


def _value_at(chain, dta, state, location, coords, m):
    """The solved m-grid's value at integer coordinates ``coords``, and
    the solution it was read from."""
    solution = _solved(chain, dta, m, tuple(coords))
    return solution.value_of(solution.grid.cell(state, location, coords)), solution


def _empirical_m(chain, dta, state, location, eta, epsilon):
    """Richardson-style sizing: double m until successive values differ by
    at most epsilon/2 (first-order scheme, so the difference tracks the
    error of the finer grid)."""
    m = 8
    previous = None
    while grid_cells(chain, dta, m) <= MAX_GRID_CELLS:
        coords, _ = _snap_to_grid(eta, dta.ceilings, m)
        value, _ = _value_at(chain, dta, state, location, coords, m)
        if previous is not None and abs(value - previous) <= epsilon / 2:
            return m
        previous = value
        m *= 2
    raise BoundInfeasibleError(
        f"empirical sizing exceeded {MAX_GRID_CELLS} grid cells before "
        f"successive values settled within {epsilon / 2}",
        m_required=m,
    )


def grid_sized_answer(chain, dta, state, location, eta, epsilon):
    """The grid m and the answer v_m of a ``force_empirical`` epsilon query
    sized by the grid values alone."""
    m = _empirical_m(chain, dta, state, location, eta, epsilon)
    coords, _ = _snap_to_grid(eta, dta.ceilings, m)
    return m, _value_at(chain, dta, state, location, coords, m)[0]


def _extrapolated_m(chain, dta, state, location, eta, epsilon, levels):
    """The doubling m = 8, 16, ... with the grid test, then the extrapolant
    test and, with ``levels`` = 2, then the second-level test on
    S_m = R_m + (R_m - R_{m/2}) / 3; returns m, the answer clamped or None,
    its level, the order or None, and the difference compared with
    epsilon/2."""
    m = 8
    value = gap = extrapolant = previous_extrapolant = None
    while grid_cells(chain, dta, m) <= MAX_GRID_CELLS:
        coords, _ = _snap_to_grid(eta, dta.ceilings, m)
        previous, previous_gap = value, gap
        older_extrapolant, previous_extrapolant = previous_extrapolant, extrapolant
        value, _ = _value_at(chain, dta, state, location, coords, m)
        if previous is not None:
            gap = value - previous
            if abs(gap) <= epsilon / 2:
                return m, None, 0, None, abs(gap)
            extrapolant = value + gap
            if (previous_gap is not None  # neither gap is zero here
                    and _snap_to_grid(eta, dta.ceilings, m // 4)[1] == 0):
                order = observed_order(previous_gap, gap)
                change = abs(extrapolant - previous_extrapolant)
                if order >= ORDER_MIN and change <= epsilon / 2:
                    return m, min(max(extrapolant, 0.0), 1.0), 1, order, change
            if (levels == 2 and older_extrapolant is not None
                    and _snap_to_grid(eta, dta.ceilings, m // 8)[1] == 0):
                order = observed_order(previous_extrapolant - older_extrapolant,
                                       extrapolant - previous_extrapolant)
                second = extrapolant + (extrapolant - previous_extrapolant) / 3.0
                change = abs(second - (previous_extrapolant + (
                    previous_extrapolant - older_extrapolant) / 3.0))
                if (order is not None and order >= ROMBERG_ORDER_MIN
                        and change <= epsilon / 2):
                    return m, min(max(second, 0.0), 1.0), 2, order, change
        m *= 2
    raise BoundInfeasibleError(
        f"empirical sizing exceeded {MAX_GRID_CELLS} grid cells before "
        f"successive values or extrapolants settled within {epsilon / 2}",
        m_required=m,
    )


def extrapolated_answer(chain, dta, state, location, eta, epsilon, levels=1):
    """m, answer, grid value, order, difference and Richardson level of a
    ``force_empirical`` epsilon query sized with the extrapolant test and,
    with ``levels`` = 2, the second-level test."""
    m, extrapolant, level, order, empirical = _extrapolated_m(
        chain, dta, state, location, eta, epsilon, levels)
    coords, _ = _snap_to_grid(eta, dta.ceilings, m)
    value, _ = _value_at(chain, dta, state, location, coords, m)
    answer = value if extrapolant is None else extrapolant
    return m, answer, value, order, empirical, level


def _richardson_error(v_quarter, v_half, v):
    order = observed_order(v_half - v_quarter, v - v_half)
    if order is None or order < ORDER_MIN:
        return None
    return SAFETY_FACTOR * abs(v - v_half) / (2.0 ** order - 1.0)


def grid_estimate(chain, dta, state, location, eta, m):
    """v_m of a grid query from a start that is neither final nor dead, the
    solution it was read from and its empirical estimate: three grids when
    the start lies on the m/4 grid, else the m grid's point on the 2m
    grid."""
    three_grids = (m % 4 == 0
                   and _snap_to_grid(eta, dta.ceilings, m // 4)[1] == 0)
    coords, _ = _snap_to_grid(eta, dta.ceilings, m)
    value, solution = _value_at(chain, dta, state, location, coords, m)
    if three_grids:
        quarter, _ = _value_at(chain, dta, state, location,
                               [j // 4 for j in coords], m // 4)
        half, _ = _value_at(chain, dta, state, location,
                            [j // 2 for j in coords], m // 2)
        return value, solution, _richardson_error(quarter, half, value)
    finer, _ = _value_at(chain, dta, state, location,
                         [2 * j for j in coords], 2 * m)
    return value, solution, abs(value - finer)


def convergence_rows(chain, dta, state, location, eta, grids, exact=None):
    """The rows of ``pathprob convergence``: m, rho, value, the error
    against ``exact`` or the previous grid, and the observed order where
    the grids are m/4, m/2 and m."""
    rows = []
    values = []
    for k, m in enumerate(grids):
        value = approximate(chain, dta, state, location, eta, m=m).probability
        if exact is not None:
            err = abs(value - exact)
        elif values:
            err = abs(value - values[-1])
        else:
            err = ""
        order = None
        if k >= 2 and m == 2 * grids[k - 1] == 4 * grids[k - 2]:
            order = observed_order(values[-1] - values[-2], value - values[-1])
        rows.append([m, 1.0 / m, value, err, "" if order is None else order])
        values.append(value)
    return rows


# The Richardson table and the epsilon sizing as they stood when a row
# flagged a state read at a final or dead point its start was snapped to,
# and the grid test skipped a gap next to such a row; the table now leaves
# that gap undefined.  Only the names differ from the code they were.


class FlaggedRow(NamedTuple):
    """One grid of a Richardson table (see :func:`flagged_grid_table`)."""

    m: int
    value: float
    solution: Optional[Solution]
    gap: Optional[float]
    order: Optional[float]
    snapped_exact: bool = False  # a state read a final or dead snapped point


def flagged_grid_table(chain, dta, weights, location, eta, grids):
    """Yield the Richardson table of the starts (s, location, eta), mixed
    by the ``(s, weight)`` pairs ``weights``, over the grid family
    ``grids``: one :class:`FlaggedRow` per grid, in the order given.

    Each row holds the :func:`_mix` v_m of the states' values at eta
    snapped to the m grid (:func:`_snap_to_grid`), and the
    :class:`Solution` they were read from, solved once if any state needs
    it.  The gap g_m = v_m - v_{m/2} is set when the previous grid was
    m/2, and the :func:`observed_order` of g_{m/2} and g_m when the one
    before that was m/4.  A state whose start is final or dead reads its
    exact value on every grid; so does, on a grid where the start snaps
    to another point, a state that is final or dead at that point
    (:func:`_shortcut` at the point), and its row is ``snapped_exact``.
    A row where every state reads an exact value has no solution.  Before
    any grid is built, every m must be at least 1 and, unless every start
    is final or dead, the largest grid must have at most
    :data:`MAX_GRID_CELLS` cells; otherwise ValueError.
    """
    if any(m < 1 for m in grids):
        raise ValueError("grid resolution m must be >= 1")
    graph = _analysis(chain, dta)
    shortcuts = [_shortcut(graph, state, location, eta) for state, _ in weights]
    if None in shortcuts and grids:
        cells = grid_cells(chain, dta, max(grids))
        if cells > MAX_GRID_CELLS:
            raise ValueError(
                f"the m = {max(grids)} grid has {cells} cells, above the limit "
                f"max_grid_cells = {MAX_GRID_CELLS}"
            )
    row = FlaggedRow(0, 0.0, None, None, None)  # before the first: no m is 2 * 0
    for m in grids:
        coords, distance = _snap_to_grid(eta, dta.ceilings, m)
        solution, values, snapped_exact = None, [], False
        for (state, _), value in zip(weights, shortcuts):
            if value is None and distance:
                value = _shortcut(graph, state, location,
                                  tuple(Fraction(j, m) for j in coords))
                snapped_exact = snapped_exact or value is not None
            if value is None:
                if solution is None:
                    solution = _solved(chain, dta, m, coords)
                value = solution.value_of(solution.grid.cell(state, location, coords))
            values.append(value)
        value = _mix(weights, values)
        gap = value - row.value if 2 * row.m == m else None
        row = FlaggedRow(m, value, solution, gap, observed_order(row.gap, gap),
                         snapped_exact)
        yield row


def flagged_empirical_m(chain, dta, weights, location, eta, epsilon):
    """The epsilon sizing on :func:`flagged_grid_table`: the grid, R and S
    tests over m = 8, 16, ... up to the largest grid under
    :data:`MAX_GRID_CELLS`, the grid test skipping a gap next to a
    ``snapped_exact`` row.  Returns the row of the last grid, the answer,
    its level, the order (None at level 0) and the difference compared
    with epsilon/2."""
    grids = [8]  # up to the first grid above the cap
    while grid_cells(chain, dta, grids[-1]) <= MAX_GRID_CELLS:
        grids.append(2 * grids[-1])
    *grids, m_required = grids
    r_half = r_quarter = None  # R_{m/2} and R_{m/4} once they are set
    snapped_exact = True  # the previous row's, or True before the first
    for row in flagged_grid_table(chain, dta, weights, location, eta, grids):
        if (row.gap is not None and abs(row.gap) <= epsilon / 2
                and not (row.snapped_exact or snapped_exact)):
            return row, row.value, 0, None, abs(row.gap)
        snapped_exact = row.snapped_exact
        r = None if row.gap is None else row.value + row.gap
        # an order is set only when both gaps are, and neither is zero here
        if (row.order is not None
                and _snap_to_grid(eta, dta.ceilings, row.m // 4)[1] == 0):
            change = abs(r - r_half)
            if row.order >= ORDER_MIN and change <= epsilon / 2:
                return row, min(max(r, 0.0), 1.0), 1, row.order, change
        if (r_quarter is not None
                and _snap_to_grid(eta, dta.ceilings, row.m // 8)[1] == 0):
            order = observed_order(r_half - r_quarter, r - r_half)
            s = r + (r - r_half) / 3.0
            change = abs(s - (r_half + (r_half - r_quarter) / 3.0))
            if (order is not None and order >= ROMBERG_ORDER_MIN
                    and change <= epsilon / 2):
                return row, min(max(s, 0.0), 1.0), 2, order, change
        r_half, r_quarter = r, r_half
    raise BoundInfeasibleError(
        f"empirical sizing exceeded {MAX_GRID_CELLS} grid cells before "
        f"successive values or extrapolants settled within {epsilon / 2}",
        m_required=m_required,
    )


# The answer from an initial distribution as it stood before one walk read
# every state: one ``approximate`` query per state of positive weight, and
# the answers merged field by field.


def prob_from_distribution(
    chain: Ctmc,
    dta: Dta,
    theta: Dict[str, object],
    location: str,
    valuation: Sequence,
    **options,
) -> ApproxResult:
    """Mix per-state answers by an initial distribution over states.

    ``theta`` maps state names to exact weights in [0, 1] summing to one;
    zero-weight states are skipped.  The grid probability mixes by the
    same weights.  The reported bound is the worst per-state bound.  The
    Richardson level is the highest among the states, and the observed
    order the smallest among the states answered at that level (None at
    level 0).  The solver method and sweeps are
    those of the last state that needed a solve ("shortcut" and 0 when
    none did).
    """
    weights = {s: Fraction(w) for s, w in theta.items()}
    for s, w in weights.items():
        if not 0 <= w <= 1:
            raise ValueError(f"initial weight {w} of state {s!r} is outside [0, 1]")
    if sum(weights.values()) != 1:
        raise ValueError(f"initial distribution sums to {sum(weights.values())}")
    unknown = set(weights) - set(chain.states)
    if unknown:
        raise ValueError(f"distribution names unknown states {sorted(unknown)}")
    total = grid_total = 0.0
    worst: Optional[ApproxResult] = None
    level, orders = 0, []
    residual = 0.0
    cells = 0
    method, sweeps = "shortcut", 0
    for s, w in weights.items():
        if w == 0:
            continue
        result = approximate(chain, dta, s, location, valuation, **options)
        total += float(w) * result.probability
        grid_total += float(w) * result.grid_probability
        residual = max(residual, result.residual)
        cells = max(cells, result.grid_points)
        if result.solver_method != "shortcut":
            method, sweeps = result.solver_method, result.sweeps
        if result.richardson_level > level:
            level, orders = result.richardson_level, []
        if result.richardson_level == level and level > 0:
            orders.append(result.observed_order)
        if worst is None or _total_bound(result.report) > _total_bound(worst.report):
            worst = result
    if worst is None:
        raise ValueError("initial distribution has no positive weight")
    return ApproxResult(total, worst.report, residual, cells, method, sweeps,
                        grid_total, min(orders, default=None), level)


def _total_bound(report: ErrorReport) -> float:
    return report.theoretical_bound + report.snap_slack


# ---------------------------------------------------------------------------
# The exact acceptance probability of a one-clock model, without a grid:
# transient analysis on each unit interval of the clock below its ceiling
# c and on (c, oo), where the enabled rules are fixed (Chen, Han, Katoen
# and Mereacre, LICS 2009).  With V(x) the values of the non-final (state,
# location) pairs at clock value x and W = V(0) the values right after a
# reset, a sojourn of rate E ending at clock value y and reading rule r
# gives V(x) = int_x^oo E e^(-E (y - x)) (A V(y) + B W + b) dy on an
# interval: A holds the jumps r keeps the clock on, B those it resets and
# b those into a final location.  So dV/dx = E (V - A V - B W - b), and
# (V, W, 1) crosses an interval by one matrix exponential.


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a by scaling and squaring a Taylor series."""
    norm = float(np.abs(a).sum(axis=1).max())
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0 else 0
    a = a / 2.0 ** squarings
    term = result = np.eye(len(a))
    for k in range(1, 20):  # ||a|| <= 1/2: the tail is below 1e-25
        term = term @ a / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def exact_one_clock(chain: Ctmc, dta: Dta, state: str, location: str,
                    x) -> float:
    """Acceptance probability from (state, location, x) on a one-clock
    model, by transient analysis per unit interval (see above).

    The flow on (c, oo) has a bounded solution only in its fixed point
    V = A V + B W + b, solved over the pairs that can still reach a final
    location there; below c each interval multiplies the map from (W, 1)
    to (V, W, 1) by e^(-G), G the generator of (V, W, 1).  Last, W = V(0)
    is solved over the pairs that can reach a final location from clock
    0.  Pairs that cannot are set to 0 first: their W equations are
    singular where a reset returns to them surely.  Reachability is that
    of pairs on intervals: a sojourn from interval k ends on any interval
    k' >= k, and a reset returns to interval 0."""
    if location in dta.final:
        return 1.0
    (c,) = dta.ceilings
    pairs = [(s, q) for s in chain.states for q in dta.locations
             if q not in dta.final]
    index = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)
    rates = np.array([float(chain.exit_rates[chain.state_index(s)])
                      for s, _ in pairs])
    # the jumps of each pair on interval k (k = c is (c, oo)), each as
    # (probability, column of (V, W, 1) it reads, target pair or None)
    jumps = []
    for k in range(c + 1):
        per_pair = []
        for s, q in pairs:
            i = chain.state_index(s)
            rule = select_rule(dta, q, chain.labeling[i],
                               (k + Fraction(1, 2),))
            out = []
            for j, p in enumerate(chain.transition[i]):
                if p == 0:
                    continue
                if rule.target in dta.final:
                    out.append((float(p), 2 * n, None))
                else:
                    target = index[(chain.states[j], rule.target)]
                    out.append((float(p), target + n * bool(rule.resets),
                                (target, 0 if rule.resets else k)))
            per_pair.append(out)
        jumps.append(per_pair)

    live = set()  # (pair, interval) from which a final location is reachable
    grew = True
    while grew:
        grew = False
        for i in range(n):
            for k in range(c + 1):
                if (i, k) not in live and any(
                        target is None or target in live
                        for later in range(k, c + 1)
                        for _, _, target in jumps[later][i]):
                    live.add((i, k))
                    grew = True

    def reads(k):
        """(A | B | b) on interval k: the rows g = A V + B W + b."""
        out = np.zeros((n, 2 * n + 1))
        for i, row in enumerate(jumps[k]):
            for p, column, _ in row:
                out[i, column] += p
        return out

    maps = [None] * (c + 1)  # maps[k]: (W, 1) -> (V, W, 1) at clock k
    tail = np.zeros((2 * n + 1, n + 1))
    tail[n:, :] = np.eye(n + 1)
    alive = [i for i in range(n) if (i, c) in live]
    g = reads(c)
    tail[alive] = np.linalg.solve(np.eye(len(alive)) - g[np.ix_(alive, alive)],
                                  g[alive, n:])
    maps[c] = tail
    steps = []
    for k in range(c):
        generator = np.zeros((2 * n + 1, 2 * n + 1))
        generator[:n] = rates[:, None] * (np.eye(n, 2 * n + 1) - reads(k))
        steps.append(generator)
    for k in reversed(range(c)):
        maps[k] = _expm(-steps[k]) @ maps[k + 1]

    start = index[(state, location)]
    x = min(Fraction(x), c)
    k = math.floor(x)
    here = maps[k] if x == k else _expm(-steps[k] * float(k + 1 - x)) @ maps[k + 1]
    w = np.zeros(n + 1)
    w[n] = 1.0
    alive = [i for i in range(n) if (i, 0) in live]
    t = maps[0][:n]
    w[alive] = np.linalg.solve(np.eye(len(alive)) - t[np.ix_(alive, alive)],
                               t[alive, n])
    return float(here[start] @ w)


# The exact acceptance probability of a two-clock model on the diagonal
# t -> (t, offset + t), where clock x is never reset and a reset of y lands
# at (t, 0), from where the model is a one-clock model (its reduction
# ``one_clock``, gated apart).  With D(t) the values of the non-final pairs
# on the diagonal and U(t) those of the reduction at x = t, a sojourn of
# rate E from t ending at tau reads D(tau), U(tau) or a final location by
# the rule enabled at (tau, offset + tau), and one from the reduction
# reads U(tau) or a final location.  So (D, U, 1) solves one linear ODE on
# each piece of [0, ceiling of x) where no clock crosses an integer, as in
# :func:`exact_one_clock`.


def exact_on_diagonal(chain: Ctmc, dta: Dta, one_clock: Dta, state: str,
                      location: str, offset) -> float:
    """Acceptance probability from (state, location, (0, offset)) on the
    two-clock ``dta``, by one matrix exponential per piece of the
    diagonal (see above).  Past the ceiling of x, where every clock is
    beyond its ceiling on the diagonal, no rule may lead to a final
    location, so every value there is 0."""
    if location in dta.final:
        return 1.0
    offset = Fraction(offset)
    cx, cy = dta.ceilings
    assert (one_clock.ceilings == (cx,) and cy <= cx + offset
            and not any(0 in r.resets for r in dta.rules))
    pairs = [(s, q) for s in chain.states for q in dta.locations
             if q not in dta.final]
    index = {p: i for i, p in enumerate(pairs)}
    n = len(pairs)
    rates = np.array([float(chain.exit_rates[chain.state_index(s)])
                      for s, _ in pairs] * 2)

    def reads(tau):
        """The rows of (D, U) as reads of (D, U, 1) by jumps at tau."""
        out = np.zeros((2 * n, 2 * n + 1))
        for row, (s, q) in enumerate(pairs * 2):
            i = chain.state_index(s)
            on_diagonal = row < n
            rule = (select_rule(dta, q, chain.labeling[i], (tau, offset + tau))
                    if on_diagonal else
                    select_rule(one_clock, q, chain.labeling[i], (tau,)))
            for j, p in enumerate(chain.transition[i]):
                if rule.target in dta.final:
                    column = 2 * n
                else:
                    target = index[(chain.states[j], rule.target)]
                    column = target + n * (not on_diagonal or 1 in rule.resets)
                out[row, column] += float(p)
        return out

    tail = reads(Fraction(cx + 1))
    assert not tail[:, 2 * n].any()  # no final location past the ceilings
    z = np.zeros(2 * n + 1)
    z[2 * n] = 1.0
    cuts = sorted({Fraction(k) for k in range(cx + 1)} | {
        k - offset for k in range(1, cy + 1) if 0 < k - offset < cx})
    for a, b in reversed(list(zip(cuts, cuts[1:]))):
        generator = np.zeros((2 * n + 1, 2 * n + 1))
        generator[:2 * n] = rates[:, None] * (np.eye(2 * n, 2 * n + 1)
                                              - reads((a + b) / 2))
        z = _expm(-generator * float(b - a)) @ z
    return float(z[index[(state, location)]])
