"""Product region graph of a CTMC and a DTA, and its classification.

Vertices are (state, location, region) triples over the full region
enumeration, not just the forward-reachable part: the grid scheme needs a
class for every grid point.  Regions are numbered once, in the order of
:func:`regions.enumerate_region_codes`, and vertex ``(s, q, r)`` of state
number s, location number q and region number r is number
``(s * locations + q) * regions + r``.  An edge stands for a
positive-probability jump through a non-marginal delay; reachability of a
final vertex characterizes positivity of the acceptance probability, so
classification always comes from this graph and never from grid
connectivity.

Regions and the rules enabled in each come from
:func:`models.region_rules`, the table validation reads too, built
once per automaton.  Edges follow from the region codes alone, without
valuations: each region's delay walk (:func:`regions.delay_walk`) steps
through the non-marginal regions a delay reaches by the time successor
of Alur and Dill, and a rule's resets map a step to
:func:`regions.reset_region` of it (see :func:`build_graph`).

The graph answers "which class, which rule" by number from two tables:
``class_table[state, location, region]`` (an index into
:data:`CLASS_NAMES`) and the rule table ``rule_target`` /
``rule_resets[location, label, region]``, the target location and reset
clocks of the rule enabled immediately after the region, the one enabled
at its plus region.  The grid, the assembly, the Monte Carlo absorption
check and the solver's shortcut all read these tables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, NamedTuple, Tuple

import numpy as np

from . import regions
from .models import (
    Ctmc, Dta, ModelConstants, ValidationReport, model_constants,
    region_rules, the_enabled_rule,
)

FINAL = "final"
ALIVE = "alive"
DEAD = "dead"
# class table entry -> class name
CLASS_NAMES = (FINAL, ALIVE, DEAD)
FINAL_CLASS, ALIVE_CLASS, DEAD_CLASS = range(3)

# Largest product graph accepted: |V| = states x locations x regions.  The
# region count grows as (ceiling + 2)^clocks times ordered set partitions
# of the clocks (417 338 regions for 5 clocks at ceiling 3), and building
# the graph takes 0.007-0.016 ms per vertex once validation has built the
# region table (0.03 s for 4 080 vertices over 3 clocks, 0.46 s for 28 704
# over 4 clocks at ceiling 2, whose region table takes 0.15 s more; one
# core of a 2-vCPU Xeon, Python 3.11), so a small model file could
# otherwise keep validation and graph building busy for many minutes.  The
# count is taken in closed form before anything is enumerated.
MAX_VERTICES = 50_000


class ProductVertex(NamedTuple):
    state: str
    location: str
    region: regions.RegionCode


@dataclass(eq=False)
class ProductGraph:
    """Built product graph; treat as immutable once constructed.

    Below parsing the graph is the model: it carries the chain and the
    automaton it was built from, and :attr:`constants`, their
    :class:`ModelConstants`, so grids, the query walk, error reports and
    the contraction constant take the graph alone.  A graph compares and
    hashes by identity, so caches of grid solutions key on it cheaply.
    """

    ctmc: Ctmc
    dta: Dta
    codes: Tuple[regions.RegionCode, ...]
    region_number: Dict[regions.RegionCode, int]
    labels: Tuple[str, ...]
    vertices: Tuple[ProductVertex, ...]
    successors: Tuple[Tuple[int, ...], ...]
    class_table: np.ndarray
    rule_target: np.ndarray
    rule_resets: np.ndarray

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def constants(self) -> ModelConstants:
        """:func:`model_constants` of the chain and the automaton, computed
        on first read, so building a graph raises nothing it did not."""
        return model_constants(self.ctmc, self.dta)

    def classes(self) -> Tuple[str, ...]:
        """Class name of every vertex, by vertex number."""
        return tuple(CLASS_NAMES[c] for c in self.class_table.ravel().tolist())


def size_report(chain: Ctmc, dta: Dta) -> ValidationReport:
    """Refuse a product graph above :data:`MAX_VERTICES` vertices."""
    count = regions.region_count(dta.ceilings)
    n = len(chain.states) * len(dta.locations) * count
    if n <= MAX_VERTICES:
        return ValidationReport()
    return ValidationReport((
        f"the product graph would have {n} vertices ({len(chain.states)} "
        f"states x {len(dta.locations)} locations x {count} clock regions), "
        f"above the limit MAX_VERTICES = {MAX_VERTICES}",
    ))


def build_graph(chain: Ctmc, dta: Dta) -> ProductGraph:
    """Construct vertices, edges, rule table and classes of the product
    region graph.

    The regions, one representative each, and the rules enabled there
    come from :func:`models.region_rules`.  One pass over (location,
    label, region) and the steps of the region's delay walk
    (:func:`regions.delay_walk`; no step is marginal, so each is its own
    plus region) reads each step's one enabled rule, raising
    :class:`ModelIntegrityError` where none or several are enabled
    (:func:`models.the_enabled_rule`, as rule selection does); the
    rule at the first step fills the rule table.  The region after the
    reset, :func:`regions.reset_region`, is computed once per (step,
    reset clocks).  Edges fan out over the CTMC states with positive jump
    probability.  Raises ``ValueError`` above :data:`MAX_VERTICES`
    vertices, before enumerating.
    """
    oversized = size_report(chain, dta)
    if not oversized.ok:
        raise ValueError(str(oversized))
    ceilings = dta.ceilings
    codes, reps, enabled = region_rules(dta)
    number = {code: r for r, code in enumerate(codes)}
    labels = tuple(sorted(dta.alphabet))
    n_loc, n_reg = len(dta.locations), len(codes)
    vertices = tuple(
        ProductVertex(s, q, code)
        for s in chain.states for q in dta.locations for code in codes
    )

    # region -> the regions its delay walk steps through, plus region first
    walks = [[number[step] for step in regions.delay_walk(code, ceilings)]
             for code in codes]

    rule_target = np.zeros((n_loc, len(labels), n_reg), dtype=np.int32)
    rule_resets = np.zeros((n_loc, len(labels), n_reg, len(ceilings)), dtype=bool)
    # (region reached, reset clocks) -> region after the reset
    after: Dict[Tuple[int, FrozenSet[int]], int] = {}
    location_number = {q: qi for qi, q in enumerate(dta.locations)}
    # (location, label, region) -> {(target location, target region)}
    moves: Dict[Tuple[int, int, int], set] = {}
    for qi, q in enumerate(dta.locations):
        for ai, a in enumerate(labels):
            for r, walk in enumerate(walks):
                seen = set()
                for reached in walk:
                    rule = the_enabled_rule(enabled[qi][ai][reached], q, a,
                                            reps[reached])
                    target = location_number[rule.target]
                    if not seen:  # the plus region: the rule table's entry
                        rule_target[qi, ai, r] = target
                        rule_resets[qi, ai, r, sorted(rule.resets)] = True
                    key = (reached, rule.resets)
                    if key not in after:
                        after[key] = number[regions.reset_region(
                            codes[reached], rule.resets)]
                    seen.add((target, after[key]))
                moves[(qi, ai, r)] = seen

    successors: List[Tuple[int, ...]] = []
    for si, row in enumerate(chain.transition):
        ai = labels.index(chain.labeling[si])
        positive = [uj for uj, p in enumerate(row) if p > 0]
        for qi in range(n_loc):
            for r in range(n_reg):
                successors.append(tuple(sorted(
                    (uj * n_loc + loc) * n_reg + reg
                    for uj in positive for loc, reg in moves[(qi, ai, r)]
                )))

    final = np.zeros((len(chain.states), n_loc, n_reg), dtype=bool)
    final[:, [q in dta.final for q in dta.locations]] = True
    return ProductGraph(
        ctmc=chain,
        dta=dta,
        codes=codes,
        region_number=number,
        labels=labels,
        vertices=vertices,
        successors=tuple(successors),
        class_table=_class_table(successors, final),
        rule_target=rule_target,
        rule_resets=rule_resets,
    )


def _class_table(successors, final: np.ndarray) -> np.ndarray:
    """Backward reachability of the vertices of the boolean (state,
    location, region) mask ``final``, as a class table of its shape."""
    n = len(successors)
    predecessors: List[List[int]] = [[] for _ in range(n)]
    for i, targets in enumerate(successors):
        for j in targets:
            predecessors[j].append(i)
    reaches = final.ravel().tolist()
    stack = np.flatnonzero(final).tolist()
    while stack:
        j = stack.pop()
        for i in predecessors[j]:
            if not reaches[i]:
                reaches[i] = True
                stack.append(i)
    table = np.where(reaches, ALIVE_CLASS, DEAD_CLASS).astype(np.int8)
    table = table.reshape(final.shape)
    table[final] = FINAL_CLASS
    return table


def classify(graph: ProductGraph) -> Dict[ProductVertex, str]:
    """Per-vertex class from backward reachability of the final vertices."""
    return dict(zip(graph.vertices, graph.classes()))


class Contraction(NamedTuple):
    value: float
    m_min: int


def _log(q: Fraction) -> float:
    """Natural log of a positive rational, without rounding it to a float
    first (which may underflow to zero)."""
    return math.log(q.numerator) - math.log(q.denominator)


def _contraction_factors(graph: ProductGraph):
    """``lambda_max * t_max``, ``p_min`` and ``lambda_min / (2|V|^2 +
    lambda_min)`` of the graph's model constants: 𝔠 is the product of the
    last two and exp(-first)."""
    n = graph.vertex_count
    constants = graph.constants
    lam_min = constants.lambda_min
    return (constants.lambda_max * constants.t_max, constants.p_min,
            lam_min / (2 * n * n + lam_min))


def contraction_constant(graph: ProductGraph) -> Contraction:
    """Geometric-decay constant of the unfolded scheme and the grid
    threshold above which the scheme matrix is provably a contraction,
    from the graph's vertex count and model constants.

    The float value is rounded down one ulp so the reported error bound
    (which divides by powers of this constant) stays conservative.  It
    underflows on fast chains (to 0.0 once lambda * t_max passes about
    745); :func:`log_contraction_constant` stays finite there.
    """
    lam_t, p_min, share = _contraction_factors(graph)
    c = math.exp(-float(lam_t)) * float(p_min) * float(share)
    n = graph.vertex_count
    return Contraction(math.nextafter(c, 0.0), 2 * n * n + 1)


def log_contraction_constant(graph: ProductGraph) -> float:
    """log 𝔠 = -lambda * t_max + log p_min + log(lambda_min / (2|V|^2 +
    lambda_min)) of the graph, rounded down one ulp like 𝔠 itself."""
    lam_t, p_min, share = _contraction_factors(graph)
    return math.nextafter(-float(lam_t) + _log(p_min) + _log(share), -math.inf)
