"""Monte Carlo estimation of acceptance probabilities.

This is the independent statistical oracle for the grid solver.  Trials
simulate the chain (exponential sojourns, jump matrix) and feed the label
of each departed state with its sojourn into the automaton.  One trial loop
serves both estimators; its mode follows from whether it is given the
product graph.  With the graph a trial also stops when its product vertex
cannot reach a final vertex any more (reject; sound because that vertex
has acceptance probability zero), clocks saturate at the ceilings, and
trials still running at the step horizon are reported as censored,
bracketing the true value.  Without it clocks run exactly and a trial not
accepted within the horizon is rejected.

Each trial owns an rng substream derived from (seed, stream, trial), so
estimates with different horizons or modes are paired path-by-path
(common random numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .dynamics import select_rule
from .models import Ctmc, Dta, check_start
from .product import DEAD_CLASS, ProductGraph
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
) -> Estimate:
    """Estimate the unbounded acceptance probability with early absorption.

    The tracked clock valuation is saturated at the ceilings after every
    step; values beyond a ceiling are interchangeable for the acceptance
    probability, and saturation keeps the region lookup domain finite.
    """
    if k_max is None:
        k_max = default_k_max(graph)
    return _simulate(chain, dta, graph, state, location, valuation, n, k_max,
                     seed, stream, confidence)


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
    shortcut and no valuation saturation; a trial not accepted within k
    steps is a rejection, not a censored trial."""
    est = _simulate(chain, dta, None, state, location, valuation, n, k,
                    seed, stream, confidence)
    return replace(est, censored=0)


def _simulate(chain, dta, graph, state, location, valuation, n, k_max,
              seed, stream, confidence) -> Estimate:
    """The trial loop of both estimators; see the module docstring."""
    if n < 1:
        raise ValueError(f"trial count must be at least 1, got {n}")
    if k_max < 0:
        raise ValueError(f"step bound must be non-negative, got {k_max}")
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    check_start(chain, dta, state, location, valuation)
    sim = _Simulator(chain)
    ceilings, finals, labels = dta.ceilings, dta.final, chain.labeling
    if graph is None:
        caps, dead = (math.inf,) * len(ceilings), None
    else:
        caps = tuple(float(c) for c in ceilings)
        # [state][location][region number] -> the vertex is dead
        dead = (graph.class_table == DEAD_CLASS).tolist()
        number = graph.region_number
        location_number = {q: i for i, q in enumerate(dta.locations)}
    rng_stream = RngStream(seed, stream)
    start_eta = tuple(min(float(v), cap) for v, cap in zip(valuation, caps))
    start_state = chain.state_index(state)

    accepted = rejected = censored = 0
    for trial in range(n):
        rng = rng_stream.trial_rng(trial)
        si, q, eta = start_state, location, start_eta
        for steps in range(k_max + 1):
            if q in finals:
                accepted += 1
                break
            if dead is not None and dead[si][location_number[q]][
                number[region_of(eta, ceilings)]
            ]:
                rejected += 1
                break
            if steps == k_max:
                censored += 1
                break
            t = sim.sojourn(si, rng)
            nxt = sim.jump(si, rng)
            delayed = tuple(v + t for v in eta)
            rule = select_rule(dta, q, labels[si], delayed)
            q = rule.target
            # min(inf, v) == v, so uncapped clocks need no branch
            eta = tuple(
                min(cap, 0.0 if i in rule.resets else delayed[i])
                for i, cap in enumerate(caps)
            )
            si = nxt
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = accepted / n
    return Estimate(
        p_hat=p, n=n, halfwidth=z * math.sqrt(p * (1.0 - p) / n),
        confidence=confidence, accepted=accepted, dead_absorbed=rejected,
        censored=censored, k_max=k_max,
    )
