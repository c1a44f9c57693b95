"""Monte Carlo estimation of acceptance probabilities.

This is the independent statistical oracle for the grid solver.  Trials
simulate the chain (exponential sojourns, jump matrix) and feed the label
of each departed state with its sojourn into the automaton.  A trial stops
early when a final location is reached (accept) or, in absorbing mode,
when the tracked product vertex cannot reach a final vertex any more
(reject; sound because that vertex has acceptance probability zero).
Trials neither accepted nor rejected by the step horizon are reported as
censored and kept out of the point estimate, bracketing the true value
instead.

Each trial owns an rng substream derived from (seed, stream, trial), so
estimates with different horizons or with absorption toggled are paired
path-by-path (common random numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import select_rule
from .models import Ctmc, Dta
from .product import DEAD, ProductGraph, ProductVertex
from .regions import region_of


class RngStream(NamedTuple):
    """Reproducible stream id; distinct indices give independent streams."""

    seed: int
    index: int = 0

    def trial_rng(self, trial: int) -> np.random.Generator:
        return np.random.default_rng((self.seed, self.index, trial))


@dataclass(frozen=True)
class Estimate:
    p_hat: float
    n: int
    halfwidth: float
    confidence: float
    accepted: int
    dead_absorbed: int
    censored: int
    k_max: int

    @property
    def p_low(self) -> float:
        return self.accepted / self.n

    @property
    def p_high(self) -> float:
        return (self.accepted + self.censored) / self.n


def default_k_max(graph: ProductGraph) -> int:
    """Step horizon heuristic; with absorption, censoring is rare."""
    chain = graph.ctmc
    lam_t = max(chain.exit_rates) * graph.dta.t_max
    return 16 * max(1, math.ceil(lam_t)) * graph.vertex_count


def _binomial_halfwidth(successes: int, n: int, confidence: float) -> float:
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = successes / n
    return z * math.sqrt(p * (1.0 - p) / n)


def _check_counts(n: int, k_max: int) -> None:
    if n < 1:
        raise ValueError(f"trial count must be at least 1, got {n}")
    if k_max < 0:
        raise ValueError(f"step bound must be non-negative, got {k_max}")


class _Simulator:
    """Per-model tables so the trial loop stays allocation-light."""

    def __init__(self, chain: Ctmc):
        self.rates = [float(r) for r in chain.exit_rates]
        self.cum_rows = [
            np.cumsum([float(p) for p in row]) for row in chain.transition
        ]
        for row in self.cum_rows:
            row[-1] = 1.0

    def jump(self, state_index: int, rng) -> int:
        return int(
            np.searchsorted(self.cum_rows[state_index], rng.random(), "right")
        )

    def sojourn(self, state_index: int, rng) -> float:
        """Exponential sojourn by inverse transform, t = -ln(U)/rate."""
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return -math.log(u) / self.rates[state_index]


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
