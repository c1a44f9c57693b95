"""Product region graph of a CTMC and a DTA, and its classification.

Vertices are (state, location, region) triples over the full region
enumeration, not just the forward-reachable part: the grid scheme needs a
class for every grid point.  An edge witnesses a positive-probability jump
through a non-marginal delay; reachability of a final vertex characterizes
positivity of the acceptance probability, so classification always comes
from this graph and never from grid connectivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from . import regions
from .dynamics import Configuration, kappa
from .models import Ctmc, Dta, ModelConstants

FINAL = "final"
ALIVE = "alive"
DEAD = "dead"


class ProductVertex(NamedTuple):
    state: str
    location: str
    region: regions.RegionCode


@dataclass
class ProductGraph:
    """Built product graph; treat as immutable once constructed."""

    ctmc: Ctmc
    dta: Dta
    codes: Tuple[regions.RegionCode, ...]
    vertices: Tuple[ProductVertex, ...]
    index: Dict[ProductVertex, int]
    successors: Tuple[Tuple[int, ...], ...]
    final_vertices: FrozenSet[int]
    witnesses: Dict[Tuple[int, int], Tuple[tuple, object]]
    _classes: Optional[Tuple[str, ...]] = field(default=None, repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def vertex_of(self, state: str, location: str, eta) -> ProductVertex:
        return ProductVertex(
            state, location, regions.region_of(eta, self.dta.ceilings)
        )

    def class_of(self, vertex: ProductVertex) -> str:
        return self.classes()[self.index[vertex]]

    def classes(self) -> Tuple[str, ...]:
        if self._classes is None:
            self._classes = _classify_indices(self)
        return self._classes


def build_graph(chain: Ctmc, dta: Dta) -> ProductGraph:
    """Construct vertices and edges of the product region graph.

    For each (location, signature, region) the finite set of delay
    intervals with constant region is enumerated once; one representative
    delay per non-marginal interval is pushed through the one-step
    transition function.  Edges then fan out over the CTMC states with
    positive jump probability.  A concrete (valuation, delay) witness is
    kept per edge.
    """
    ceilings = dta.ceilings
    codes = tuple(regions.enumerate_region_codes(ceilings))
    vertices: List[ProductVertex] = []
    index: Dict[ProductVertex, int] = {}
    for s in chain.states:
        for q in dta.locations:
            for code in codes:
                v = ProductVertex(s, q, code)
                index[v] = len(vertices)
                vertices.append(v)

    # (location, signature, region) -> [(target location, target region, eta, t)]
    moves: Dict[Tuple[str, str, regions.RegionCode], list] = {}
    for q in dta.locations:
        for a in sorted(dta.alphabet):
            for code in codes:
                rep = regions.region_representative(code, ceilings)
                seen = {}
                for t in regions.delay_representatives(rep, ceilings, dta.t_max):
                    delayed_code = regions.region_of(
                        regions.delay(rep, t), ceilings
                    )
                    if delayed_code.is_marginal():
                        continue
                    nxt = kappa(dta, Configuration(q, rep), a, t)
                    key = (nxt.location, regions.region_of(nxt.valuation, ceilings))
                    seen.setdefault(key, (rep, t))
                moves[(q, a, code)] = [
                    (loc, reg, eta, t) for (loc, reg), (eta, t) in seen.items()
                ]

    successors: List[Tuple[int, ...]] = []
    witnesses: Dict[Tuple[int, int], Tuple[tuple, object]] = {}
    for v in vertices:
        si = chain.state_index(v.state)
        label = chain.labeling[si]
        targets = set()
        for uj, p in enumerate(chain.transition[si]):
            if p <= 0:
                continue
            u = chain.states[uj]
            for loc, reg, eta, t in moves[(v.location, label, v.region)]:
                w = index[ProductVertex(u, loc, reg)]
                targets.add(w)
                witnesses.setdefault((index[v], w), (eta, t))
        successors.append(tuple(sorted(targets)))

    final_vertices = frozenset(
        i for i, v in enumerate(vertices) if v.location in dta.final
    )
    return ProductGraph(
        ctmc=chain,
        dta=dta,
        codes=codes,
        vertices=tuple(vertices),
        index=index,
        successors=tuple(successors),
        final_vertices=final_vertices,
        witnesses=witnesses,
    )


def _classify_indices(graph: ProductGraph) -> Tuple[str, ...]:
    n = graph.vertex_count
    predecessors: List[List[int]] = [[] for _ in range(n)]
    for i, targets in enumerate(graph.successors):
        for j in targets:
            predecessors[j].append(i)
    reaches = [False] * n
    stack = list(graph.final_vertices)
    for i in stack:
        reaches[i] = True
    while stack:
        j = stack.pop()
        for i in predecessors[j]:
            if not reaches[i]:
                reaches[i] = True
                stack.append(i)
    out = []
    for i in range(n):
        if i in graph.final_vertices:
            out.append(FINAL)
        elif reaches[i]:
            out.append(ALIVE)
        else:
            out.append(DEAD)
    return tuple(out)


def classify(graph: ProductGraph) -> Dict[ProductVertex, str]:
    """Per-vertex class from backward reachability of the final vertices."""
    classes = graph.classes()
    return {v: classes[i] for i, v in enumerate(graph.vertices)}


class Contraction(NamedTuple):
    value: float
    m_min: int


def contraction_constant(
    graph: ProductGraph, constants: ModelConstants
) -> Contraction:
    """Geometric-decay constant of the unfolded scheme and the grid
    threshold above which the scheme matrix is provably a contraction.

    The float value is rounded down one ulp so the reported error bound
    (which divides by powers of this constant) stays conservative.
    """
    n = graph.vertex_count
    lam_t = float(constants.lambda_max * constants.t_max)
    lam_min = constants.lambda_min
    c = (
        math.exp(-lam_t)
        * float(constants.p_min)
        * float(lam_min / (2 * n * n + lam_min))
    )
    return Contraction(math.nextafter(c, 0.0), 2 * n * n + 1)
