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

The loop advances batches of :data:`BATCH` trials in lockstep with numpy.
Each step gives every delayed valuation its region signature at once
(:func:`regions.region_signatures`) and takes the rule enabled there from
:func:`dynamics.select_rule`, called once per distinct (location, label,
region) met in the run, at the delayed valuation of its first trial; the
answer holds for the whole region because guard constants are naturals.
That is the region of the delayed valuation itself; the graph's rule
table is taken at plus regions and differs on marginal ones.  The dead
check reads the graph's class table, at the region :func:`regions.region_of`
gives, once per distinct (state, location, region).  No region is
enumerated, so the exact estimator runs on automata of any size.

Trials are cut into batches of :data:`BATCH` by trial number, and the
batch that starts at trial ``first`` draws from the rng stream derived
from (seed, stream, first).  At each step where any of its trials is
live the batch draws one ``(BATCH, 2)`` block of uniforms, and trial
``first + r`` takes row ``r``: the sojourn uniform ``u`` (the sojourn is
``-ln(1 - u)/rate``, finite for every ``u`` in [0, 1)) and the jump
uniform.  A short last batch draws full blocks too, so a trial's path
depends on neither ``n`` nor the other trials, and estimates with
different horizons or modes are paired path-by-path (common random
numbers).
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
from .regions import per_distinct_row, region_of, region_signatures

# trials advanced together in lockstep, and the rows of a uniform block
BATCH = 256


class RngStream(NamedTuple):
    """Reproducible stream id; distinct indices give independent streams."""

    seed: int
    index: int = 0

    def trial_rng(self, trial: int) -> np.random.Generator:
        """The generator of the batch that starts at ``trial``; its blocks
        hold the uniforms of that trial and the next ``BATCH - 1``."""
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


def _sojourns(uniforms: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """Exponential sojourns by inverse transform, t = -ln(U)/rate, with
    ``math.log`` per element (``np.log`` may differ in the last ulp)."""
    return np.array([-math.log(u) for u in uniforms.tolist()]) / rates


class _Memo:
    """The answer of an exact scalar function per distinct row of integer
    keys, computed at the row's first occurrence and kept for the run."""

    def __init__(self):
        self.known = {}

    def __call__(self, keys: np.ndarray, answer) -> np.ndarray:
        """``answer(i)`` for every row ``i`` of ``keys``, from the memo."""
        def value_of(i):
            key = keys[i].tobytes()
            if key not in self.known:
                self.known[key] = answer(i)
            return self.known[key]
        return per_distinct_row(keys, value_of)


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
    # an undeclared rule target is a location that enables no rule
    names = dta.locations + tuple(
        sorted({r.target for r in dta.rules} - set(dta.locations)))
    final = np.array([q in dta.final for q in names])
    # rules by number: the memo keeps numbers, the tables their effects
    rule_number = {rule: i for i, rule in enumerate(dta.rules)}
    target = np.array([names.index(r.target) for r in dta.rules])
    resets = np.zeros((len(dta.rules), len(dta.clocks)), dtype=bool)
    for i, rule in enumerate(dta.rules):
        resets[i, list(rule.resets)] = True
    rule_memo, class_memo = _Memo(), _Memo()
    alphabet = sorted(dta.alphabet)
    label = np.array([alphabet.index(a) if a in dta.alphabet else len(alphabet)
                      for a in chain.labeling])
    rates = np.array([float(r) for r in chain.exit_rates])
    cum_rows = np.cumsum([[float(p) for p in row] for row in chain.transition],
                         axis=1)
    cum_rows[:, -1] = 1.0
    ceilings = dta.ceilings
    if graph is None:
        caps = np.full(len(ceilings), math.inf)
    else:
        caps = np.array(ceilings, dtype=float)
    rng_stream = RngStream(seed, stream)
    # a clock above its ceiling keeps its regions until it is reset, so a
    # start beyond ceiling + 1 runs as one at ceiling + 1, a finite float
    start_eta = np.minimum(caps, [float(min(v, c + 1))
                                  for v, c in zip(valuation, ceilings)])
    start_state = chain.state_index(state)
    start_location = names.index(location)

    accepted = rejected = censored = 0
    for first in range(0, n, BATCH):
        rng = rng_stream.trial_rng(first)
        pos = np.arange(min(BATCH, n - first))  # block row of each live trial
        si = np.full(len(pos), start_state)
        q = np.full(len(pos), start_location)
        eta = np.tile(start_eta, (len(pos), 1))
        for steps in range(k_max + 1):
            done = final[q]
            accepted += int(np.count_nonzero(done))
            if graph is not None:
                keys = np.column_stack(
                    (si, q, region_signatures(eta, ceilings)))
                classes = class_memo(keys, lambda i: graph.class_table[
                    si[i], q[i],
                    graph.region_number[region_of(eta[i].tolist(), ceilings)]])
                absorbed = ~done & (classes == DEAD_CLASS)
                rejected += int(np.count_nonzero(absorbed))
                done |= absorbed
            if done.any():
                live = ~done
                si, q, eta, pos = si[live], q[live], eta[live], pos[live]
                if not len(q):
                    break
            if steps == k_max:
                censored += len(q)
                break
            u = rng.random((BATCH, 2))[pos]
            delayed = eta + _sojourns(1.0 - u[:, 0], rates[si])[:, None]
            nxt = np.count_nonzero(cum_rows[si] <= u[:, 1:], axis=1)
            keys = np.column_stack(
                (q, label[si], region_signatures(delayed, ceilings)))
            # select_rule raises on a region with no or several rules
            rule = rule_memo(keys, lambda i: rule_number[select_rule(
                dta, names[q[i]], chain.labeling[si[i]],
                tuple(delayed[i].tolist()))])
            # min(inf, v) == v, so uncapped clocks need no branch
            eta = np.minimum(caps, np.where(resets[rule], 0.0, delayed))
            si, q = nxt, target[rule]
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p = accepted / n
    return Estimate(
        p_hat=p, n=n, halfwidth=z * math.sqrt(p * (1.0 - p) / n),
        confidence=confidence, accepted=accepted, dead_absorbed=rejected,
        censored=censored, k_max=k_max,
    )
