"""JSON model documents, result documents and DOT export.

Rationals travel as strings ("1/3", "0.25") so that documents round-trip
without floating loss.  Parsing validates the models and the pairing
(automaton alphabet = chain label set) before anything numerical runs.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import List, Tuple

from .models import (
    Constraint,
    Ctmc,
    Dta,
    Guard,
    Rule,
    ValidationReport,
    pairing_report,
    rational,
    validate_ctmc,
    validate_dta,
)
from .product import ProductGraph, size_report
from .regions import RegionCode
from .solver import ApproxResult, ErrorReport


class ModelFormatError(ValueError):
    """Malformed document: syntax, missing fields, bad rationals."""


class ModelValidationError(ValueError):
    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


_TERM_RE = re.compile(r"^([A-Za-z_]\w*)(<=|>=|<|>)(\d+)$")


def parse_guard(text: str, clocks: Tuple[str, ...], where: str = "guard") -> Guard:
    """Parse "x<1 & y>=2"; "true" or an empty string mean no constraint."""
    stripped = re.sub(r"\s+", "", text)
    if stripped in ("", "true"):
        return Guard()
    terms: List[Constraint] = []
    for part in stripped.split("&"):
        match = _TERM_RE.match(part)
        if not match:
            raise ModelFormatError(f"{where}: cannot parse guard term {part!r}")
        name, op, bound = match.groups()
        if name not in clocks:
            raise ModelFormatError(f"{where}: unknown clock {name!r}")
        terms.append(Constraint(clocks.index(name), op, int(bound)))
    return Guard(tuple(terms))


def _rational_field(raw, where: str) -> Fraction:
    try:
        return rational(raw)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ModelFormatError(f"{where}: bad rational {raw!r} ({exc})") from exc


def _of_type(raw, kind: type, where: str):
    """``raw`` if it is a JSON object (``kind`` dict) or array (``list``),
    else a format error naming the field ``where``."""
    if not isinstance(raw, kind):
        expected = "an object" if kind is dict else "a list"
        raise ModelFormatError(
            f"{where}: expected {expected}, not {type(raw).__name__}")
    return raw


def model_from_document(doc: dict) -> Tuple[Ctmc, Dta]:
    if not isinstance(doc, dict) or "ctmc" not in doc or "dta" not in doc:
        raise ModelFormatError("document needs 'ctmc' and 'dta' sections")

    cdoc = _of_type(doc["ctmc"], dict, "ctmc")
    if "states" not in cdoc:
        raise ModelFormatError("ctmc section needs a 'states' list")
    names = []
    rates = []
    labels = []
    raw_rows = []
    for i, st in enumerate(_of_type(cdoc["states"], list, "ctmc.states")):
        where = f"ctmc.states[{i}]"
        _of_type(st, dict, where)
        for key in ("name", "rate", "label", "transitions"):
            if key not in st:
                raise ModelFormatError(f"{where}: missing field {key!r}")
        names.append(str(st["name"]))
        rates.append(_rational_field(st["rate"], f"{where}.rate"))
        labels.append(str(st["label"]))
        raw_rows.append(
            _of_type(st["transitions"], dict, f"{where}.transitions"))
    rows = []
    for i, raw in enumerate(raw_rows):
        where = f"ctmc.states[{i}].transitions"
        row = [Fraction(0)] * len(names)
        for target, p in raw.items():
            if target not in names:
                raise ModelFormatError(f"{where}: unknown target state {target!r}")
            row[names.index(target)] = _rational_field(p, f"{where}.{target}")
        rows.append(tuple(row))
    chain = Ctmc(
        states=tuple(names),
        transition=tuple(rows),
        exit_rates=tuple(rates),
        labeling=tuple(labels),
    )

    ddoc = _of_type(doc["dta"], dict, "dta")
    for key in ("clocks", "locations", "final", "rules"):
        if key not in ddoc:
            raise ModelFormatError(f"dta section needs field {key!r}")
        _of_type(ddoc[key], list, f"dta.{key}")
    clocks = tuple(str(c) for c in ddoc["clocks"])
    locations = tuple(str(q) for q in ddoc["locations"])
    rules: List[Rule] = []
    for i, rd in enumerate(ddoc["rules"]):
        where = f"dta.rules[{i}]"
        _of_type(rd, dict, where)
        for key in ("from", "signature", "guard", "resets", "to"):
            if key not in rd:
                raise ModelFormatError(f"{where}: missing field {key!r}")
        resets = []
        for c in _of_type(rd["resets"], list, f"{where}.resets"):
            if str(c) not in clocks:
                raise ModelFormatError(f"{where}: reset of unknown clock {c!r}")
            resets.append(clocks.index(str(c)))
        rules.append(
            Rule(
                source=str(rd["from"]),
                signature=str(rd["signature"]),
                guard=parse_guard(str(rd["guard"]), clocks, where),
                resets=frozenset(resets),
                target=str(rd["to"]),
            )
        )
    dta = Dta(
        locations=locations,
        final=frozenset(str(q) for q in ddoc["final"]),
        clocks=clocks,
        rules=tuple(rules),
        alphabet=frozenset(r.signature for r in rules),
    )
    return chain, dta


def validate_pair(chain: Ctmc, dta: Dta) -> None:
    """Raise :class:`ModelValidationError` listing every problem of the
    pair; a product graph above ``product.MAX_VERTICES`` vertices is
    refused first, before any clock region is enumerated."""
    oversized = size_report(chain, dta)
    if not oversized.ok:
        raise ModelValidationError(oversized)
    problems = (
        validate_ctmc(chain).violations
        + validate_dta(dta).violations
        + pairing_report(chain, dta).violations
    )
    if problems:
        raise ModelValidationError(ValidationReport(problems))


def parse_model_text(text: str, source: str = "<string>") -> Tuple[Ctmc, Dta]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    chain, dta = model_from_document(doc)
    validate_pair(chain, dta)
    return chain, dta


def parse_model(path: str) -> Tuple[Ctmc, Dta]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_text(fh.read(), source=str(path))


def model_to_document(chain: Ctmc, dta: Dta) -> dict:
    states = []
    for i, name in enumerate(chain.states):
        states.append(
            {
                "name": name,
                "rate": str(chain.exit_rates[i]),
                "label": chain.labeling[i],
                "transitions": {
                    chain.states[j]: str(p)
                    for j, p in enumerate(chain.transition[i])
                    if p != 0
                },
            }
        )
    rules = []
    for r in dta.rules:
        rules.append(
            {
                "from": r.source,
                "signature": r.signature,
                "guard": r.guard.render(dta.clocks),
                "resets": [dta.clocks[i] for i in sorted(r.resets)],
                "to": r.target,
            }
        )
    return {
        "ctmc": {"states": states},
        "dta": {
            "clocks": list(dta.clocks),
            "locations": list(dta.locations),
            "final": sorted(dta.final),
            "rules": rules,
        },
    }


def serialize_model(chain: Ctmc, dta: Dta) -> str:
    return json.dumps(model_to_document(chain, dta), indent=2, sort_keys=False)


# ---------------------------------------------------------------------------
# Result documents


def report_document(report: ErrorReport) -> dict:
    """The error report's constants: ``pathprob bound`` and every result."""
    return {
        "m": report.m,
        "rho": 1.0 / report.m,
        "|V|": report.vertex_count,
        "\U0001d520": report.contraction,
        "log_contraction": report.log_contraction,
        "M1": report.m1,
        "M2": report.m2,
        "M3": report.m3,
        "theoretical_bound": report.theoretical_bound,
        "m_min": report.m_min,
        "below_threshold": report.below_threshold,
    }


def result_document(result: ApproxResult, timing: float) -> dict:
    """Flat JSON result; field values round-trip at full precision."""
    report = result.report
    return {
        "probability": result.probability,
        "grid_probability": result.grid_probability,
        "observed_order": result.observed_order,
        "richardson_level": result.richardson_level,
        **report_document(report),
        "empirical_error_estimate": report.empirical_estimate,
        "grid_size": result.grid_points,
        "residual": result.residual,
        "solver_method": result.solver_method,
        "sweeps": result.sweeps,
        "snap_distance": report.snap_distance,
        "snap_slack": report.snap_slack,
        "timing": timing,
    }


# ---------------------------------------------------------------------------
# Graph rendering


def region_to_str(code: RegionCode, clocks: Tuple[str, ...],
                  ceilings: Tuple[int, ...]) -> str:
    parts = []
    for i, opt in enumerate(code.clocks):
        name = clocks[i]
        if opt is None:
            parts.append(f"{name}>{ceilings[i]}")
        elif opt[1]:
            parts.append(f"{name}={opt[0]}")
        else:
            parts.append(f"{opt[0]}<{name}<{opt[0] + 1}")
    fractional = [b for b in code.frac_order
                  if any(not code.clocks[i][1] for i in b)]
    if len(fractional) > 0 and sum(len(b) for b in fractional) > 1:
        order = "<".join(
            "{" + ",".join(clocks[i] for i in b) + "}" if len(b) > 1
            else clocks[b[0]]
            for b in fractional
        )
        parts.append(f"frac:{order}")
    return " ".join(parts)


def graph_document(graph: ProductGraph) -> dict:
    classes = graph.classes()
    vertices = []
    for i, v in enumerate(graph.vertices):
        vertices.append(
            {
                "state": v.state,
                "location": v.location,
                "region": region_to_str(v.region, graph.dta.clocks,
                                        graph.dta.ceilings),
                "class": classes[i],
            }
        )
    edges = [
        [i, j] for i, targets in enumerate(graph.successors) for j in targets
    ]
    return {
        "vertex_count": graph.vertex_count,
        "vertices": vertices,
        "edges": edges,
    }


def graph_to_dot(graph: ProductGraph) -> str:
    classes = graph.classes()
    styles = {
        "final": 'shape=doublecircle color="darkgreen"',
        "alive": "shape=ellipse",
        "dead": 'shape=ellipse color="gray" fontcolor="gray"',
    }
    lines = ["digraph product_region_graph {"]
    for i, v in enumerate(graph.vertices):
        label = (
            f"{v.state}|{v.location}|"
            f"{region_to_str(v.region, graph.dta.clocks, graph.dta.ceilings)}"
        )
        lines.append(f'  n{i} [label="{label}" {styles[classes[i]]}];')
    for i, targets in enumerate(graph.successors):
        for j in targets:
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
