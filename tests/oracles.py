"""Independent oracles used across the test suite.

Nothing here goes through the scheme-assembly or solver code paths under
test: the unfolded system is transcribed directly from its defining
equations and solved densely with numpy, valuation generators produce
exact rationals from seeded integer draws, the sweep kernel is checked
against the sequential one-row-at-a-time Gauss-Seidel loops below, and the
Monte Carlo trial loop against the two separate estimator loops it merged.
"""

import itertools
import math
from fractions import Fraction
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from pathprob.dynamics import select_rule
from pathprob.mc import Estimate, RngStream, _Simulator, default_k_max
from pathprob.models import Ctmc, Dta
from pathprob.product import ALIVE, DEAD, FINAL, ProductGraph, ProductVertex
from pathprob.regions import plus_representative, region_of


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


def vertex_class(graph, state, location, eta):
    code = region_of(eta, graph.dta.ceilings)
    return graph.classes()[graph.index[ProductVertex(state, location, code)]]


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


def solve_dense(mat, off):
    return np.linalg.solve(np.eye(len(off)) - mat, off)


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


def _coords_iter(maxima):
    return itertools.product(*[range(mx + 1) for mx in maxima])


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
# separate loops, one per mode, each drawing from the per-trial substreams.


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
    finals = dta.final
    rng_stream = RngStream(seed, stream)
    start_eta = tuple(min(float(v), float(c)) for v, c in zip(valuation, ceilings))
    start_state = chain.state_index(state)

    accepted = rejected = censored = 0
    for trial in range(n):
        rng = rng_stream.trial_rng(trial)
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
                if classes[graph.index[vertex]] == DEAD:
                    rejected += 1
                    break
            if steps == k_max:
                censored += 1
                break
            t = sim.sojourn(si, rng)
            nxt = sim.jump(si, rng)
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
        rng = rng_stream.trial_rng(trial)
        si, q, eta = start_state, location, start_eta
        steps = 0
        while True:
            if q in finals:
                accepted += 1
                break
            if steps == k:
                break
            t = sim.sojourn(si, rng)
            nxt = sim.jump(si, rng)
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
