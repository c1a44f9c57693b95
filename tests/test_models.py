import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

import oracles
from pathprob import modelio, regions, solver
from pathprob.models import (
    Constraint,
    Ctmc,
    Dta,
    Guard,
    Rule,
    deadlock_repair,
    model_constants,
    pairing_report,
    rational,
    region_rules,
    validate_ctmc,
    validate_dta,
)
from pathprob.regions import guard_sat

F = Fraction


def two_state(rows, rates=(F(1), F(1))):
    return Ctmc(
        states=("s", "g"),
        transition=rows,
        exit_rates=rates,
        labeling=("a", "b"),
    )


def test_rational_parsing():
    assert rational("1/3") == F(1, 3)
    assert rational("0.25") == F(1, 4)
    assert rational(2) == F(2)
    with pytest.raises(ZeroDivisionError):
        rational("1/0")


def test_validate_ctmc_accepts_stochastic_chain():
    chain = two_state(((F(0), F(1)), (F(0), F(1))))
    assert validate_ctmc(chain).ok


def test_validate_ctmc_flags_bad_row_sum():
    chain = two_state(((F(0), F(9, 10)), (F(0), F(1))))
    report = validate_ctmc(chain)
    assert not report.ok
    assert "row s sums to 9/10" in report.violations


def test_validate_ctmc_flags_zero_rate():
    chain = two_state(((F(0), F(1)), (F(0), F(1))), rates=(F(1), F(0)))
    report = validate_ctmc(chain)
    assert any("rate must be positive" in v for v in report.violations)


@pytest.mark.parametrize("rate", ["1e400", "1e-400"])
def test_validate_ctmc_flags_rate_outside_float_range(rate):
    chain = two_state(((F(0), F(1)), (F(0), F(1))), rates=(F(1), F(rate)))
    report = validate_ctmc(chain)
    assert report.violations == ("state g: rate is not a positive finite float",)


@pytest.mark.parametrize("rate, ok", [("1e-310", False), ("1e-300", True)])
def test_validate_ctmc_flags_rate_with_an_infinite_sojourn(rate, ok):
    chain = two_state(((F(0), F(1)), (F(0), F(1))), rates=(F(1), F(rate)))
    report = validate_ctmc(chain)
    assert report.ok == ok
    if not ok:
        assert report.violations == (
            "state g: rate 1e-310 is so small that a sojourn overflows the "
            "float range",)


def test_validate_ctmc_flags_out_of_range_probability():
    chain = two_state(((F(2), F(-1)), (F(0), F(1))))
    report = validate_ctmc(chain)
    assert any("outside [0,1]" in v for v in report.violations)


def test_deadlock_repair_fixes_zero_rate_state():
    chain = two_state(((F(0), F(1)), (F(0), F(0))), rates=(F(1), F(0)))
    fixed = deadlock_repair(chain)
    assert fixed.exit_rates[1] == 1
    assert fixed.transition[1] == (F(0), F(1))
    assert validate_ctmc(fixed).ok


def test_deadlock_repair_is_identity_without_deadlocks():
    chain = two_state(((F(0), F(1)), (F(0), F(1))))
    assert deadlock_repair(chain) is chain


def test_deadlock_repair_handles_each_deadlock_independently():
    chain = Ctmc(
        states=("s", "d1", "d2"),
        transition=(
            (F(0), F(1, 2), F(1, 2)),
            (F(1), F(0), F(0)),
            (F(0), F(1), F(0)),
        ),
        exit_rates=(F(2), F(0), F(0)),
        labeling=("a", "a", "a"),
    )
    fixed = deadlock_repair(chain, rate=F(3))
    assert fixed.exit_rates == (F(2), F(3), F(3))
    assert fixed.transition[1] == (F(0), F(1), F(0))
    assert fixed.transition[2] == (F(0), F(0), F(1))
    assert validate_ctmc(fixed).ok


def _single_clock_dta(rules, locations=("q0", "q1", "q2"), final=("q1",)):
    return Dta(
        locations=locations,
        final=frozenset(final),
        clocks=("x",),
        rules=tuple(rules),
        alphabet=frozenset(r.signature for r in rules),
    )


def test_validate_dta_accepts_complementary_guards():
    dta = _single_clock_dta(
        [
            Rule("q0", "a", Guard((Constraint(0, "<", 1),)), frozenset(), "q1"),
            Rule("q0", "a", Guard((Constraint(0, ">=", 1),)), frozenset(), "q2"),
            Rule("q1", "a", Guard(), frozenset(), "q1"),
            Rule("q2", "a", Guard(), frozenset(), "q2"),
        ]
    )
    assert validate_dta(dta).ok


def test_validate_dta_reports_overlap_with_witness():
    dta = _single_clock_dta(
        [
            Rule("q0", "a", Guard((Constraint(0, "<", 2),)), frozenset(), "q1"),
            Rule("q0", "a", Guard((Constraint(0, ">", 1),)), frozenset(), "q2"),
            Rule("q1", "a", Guard(), frozenset(), "q1"),
            Rule("q2", "a", Guard(), frozenset(), "q2"),
        ]
    )
    report = validate_dta(dta)
    assert any("overlap" in v and "x=3/2" in v for v in report.violations)


def test_validate_dta_reports_duplicated_rule_once():
    rule = Rule("q0", "a", Guard((Constraint(0, "<", 1),)), frozenset(), "q1")
    dta = _single_clock_dta(
        [
            rule,
            Rule("q0", "a", Guard((Constraint(0, ">=", 1),)), frozenset(), "q2"),
            rule,
            Rule("q1", "a", Guard(), frozenset(), "q1"),
            Rule("q2", "a", Guard(), frozenset(), "q2"),
        ]
    )
    # x<1 covers the regions x=0 and 0<x<1; the clash is reported once
    assert validate_dta(dta).violations == (
        "rules (q0,a,x<1) and (q0,a,x<1) overlap, witness x=0",
    )


def test_validate_dta_reports_missing_pair():
    rules = [
        Rule("q0", "a", Guard(), frozenset(), "q1"),
        Rule("q0", "b", Guard(), frozenset(), "q2"),
        Rule("q1", "a", Guard(), frozenset(), "q1"),
        Rule("q1", "b", Guard(), frozenset(), "q1"),
        Rule("q2", "a", Guard(), frozenset(), "q2"),
        # (q2, b) has no rule at all
    ]
    dta = _single_clock_dta(rules)
    report = validate_dta(dta)
    assert any("no rule enabled for (q2,b)" in v for v in report.violations)


def test_validate_dta_reports_partial_cover():
    rules = [
        Rule("q0", "a", Guard((Constraint(0, "<", 1),)), frozenset(), "q1"),
        # x >= 1 is uncovered for (q0, a)
        Rule("q1", "a", Guard(), frozenset(), "q1"),
    ]
    dta = _single_clock_dta(rules, locations=("q0", "q1"))
    report = validate_dta(dta)
    assert any("no rule enabled for (q0,a)" in v for v in report.violations)


def test_model_constants_unit_deadline(unit_deadline):
    chain, dta = unit_deadline
    k = model_constants(chain, dta)
    assert k.lambda_max == k.lambda_min == 1
    assert k.p_min == 1
    assert k.t_max == 1
    assert k.clock_count == 1


def test_model_constants_exposure(exposure_window):
    chain, dta = exposure_window
    k = model_constants(chain, dta)
    assert k.lambda_max == 3 and k.lambda_min == 1
    assert k.p_min == F(1, 3)
    assert k.t_max == 1 and k.clock_count == 2


def test_ceilings_take_per_clock_maxima():
    rules = [
        Rule(
            "q0",
            "a",
            Guard((Constraint(0, "<", 2), Constraint(1, "<=", 3))),
            frozenset(),
            "q0",
        ),
        Rule(
            "q0",
            "a",
            Guard((Constraint(0, ">=", 2),)),
            frozenset(),
            "q0",
        ),
        Rule(
            "q0",
            "a",
            Guard((Constraint(0, "<", 2), Constraint(1, ">", 3))),
            frozenset(),
            "q0",
        ),
    ]
    dta = Dta(
        locations=("q0",),
        final=frozenset(),
        clocks=("x", "y"),
        rules=tuple(rules),
        alphabet=frozenset({"a"}),
    )
    assert dta.ceilings == (2, 3)
    assert dta.t_max == 3


def test_pairing_requires_equal_alphabets(unit_deadline):
    chain, dta = unit_deadline
    assert pairing_report(chain, dta).ok
    other = Ctmc(
        states=("s",),
        transition=((F(1),),),
        exit_rates=(F(1),),
        labeling=("c",),
    )
    assert not pairing_report(other, dta).ok


@pytest.mark.parametrize("model_name", ["unit_deadline", "exposure_window"])
def test_sampled_determinism_and_totality(model_name, request):
    """For random rational valuations exactly one rule is enabled per
    (location, signature) pair."""
    chain, dta = request.getfixturevalue(model_name)
    rng = np.random.default_rng(1234)
    pairs = [(q, a) for q in dta.locations for a in sorted(dta.alphabet)]
    for _ in range(10_000):
        den = int(rng.integers(1, 16))
        eta = tuple(
            F(int(rng.integers(0, den * (c + 2) + 1)), den) for c in dta.ceilings
        )
        q, a = pairs[int(rng.integers(0, len(pairs)))]
        enabled = [
            r for r in dta.rules_from(q, a) if guard_sat(eta, r.guard)
        ]
        assert len(enabled) == 1, (q, a, eta)


# ---------------------------------------------------------------------------
# Differential check of the one-pass validator against the interval-box
# overlap check and region cover sweep it replaced (tests/oracles.py).

_CLOCKS = ("x", "y")
_LOCATIONS = ("q0", "q1", "q2")
_SIGNATURES = ("a", "b")


@st.composite
def random_dtas(draw):
    """1-2 clocks, ceilings <= 2, 1-3 locations, 1-2 signatures and 0-3
    random guards per (location, signature), plus copies of drawn rules, so
    gaps, overlaps and exact duplicates all occur."""
    clocks = _CLOCKS[: draw(st.integers(1, 2))]
    locations = _LOCATIONS[: draw(st.integers(1, 3))]
    alphabet = _SIGNATURES[: draw(st.integers(1, 2))]
    clock = st.integers(0, len(clocks) - 1)
    term = st.builds(
        Constraint, clock, st.sampled_from(("<", "<=", ">", ">=")),
        st.integers(0, 2),
    )
    guard = st.one_of(
        st.just(Guard()),
        st.lists(term, min_size=1, max_size=2).map(lambda t: Guard(tuple(t))),
    )
    rules = []
    for q in locations:
        for a in alphabet:
            for g in draw(st.lists(guard, max_size=3)):
                resets = draw(st.frozensets(clock))
                rules.append(Rule(q, a, g, resets, draw(st.sampled_from(locations))))
    if rules:
        rules += draw(st.lists(st.sampled_from(rules), max_size=2))
    return Dta(
        locations=locations,
        final=frozenset(),
        clocks=clocks,
        rules=tuple(rules),
        alphabet=frozenset(alphabet),
    )


def _flagged(report):
    """(location, signature) pairs reported with a gap and with an overlap."""
    gaps, overlaps = set(), set()
    for v in report.violations:
        if v.startswith("no rule enabled for ("):
            gaps.add(tuple(v.split("(", 1)[1].split(")", 1)[0].split(",")))
        else:
            assert v.startswith("rules (") and "overlap, witness" in v, v
            overlaps.add(tuple(v.split("(", 1)[1].split(",")[:2]))
    return gaps, overlaps


def _duplicate_clashes(dta):
    """Pairs holding two rules identical in guard, resets and target whose
    guard some valuation satisfies: the clashes the old check exempted."""
    seen, clashes = set(), set()
    for r in dta.rules:
        if r in seen and oracles.guard_overlap_witness(
            r.guard, r.guard, len(dta.clocks)
        ) is not None:
            clashes.add((r.source, r.signature))
        seen.add(r)
    return clashes


# a gap and an overlap that only the open intervals 0<x<1 and 0<y<1 show
_OPEN_ONLY = Dta(
    locations=("q0",),
    final=frozenset(),
    clocks=("x", "y"),
    rules=(
        Rule("q0", "a", Guard((Constraint(0, "<=", 0),)), frozenset(), "q0"),
        Rule("q0", "a", Guard((Constraint(0, ">=", 1),)), frozenset(), "q0"),
        Rule("q0", "b", Guard((Constraint(1, "<", 1),)), frozenset(), "q0"),
        Rule("q0", "b", Guard((Constraint(1, ">", 0),)), frozenset(), "q0"),
    ),
    alphabet=frozenset({"a", "b"}),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(random_dtas())
@example(_OPEN_ONLY)
def test_validate_dta_matches_interval_box_oracle(dta):
    gaps, overlaps = _flagged(validate_dta(dta))
    old_gaps, old_overlaps = _flagged(oracles.validate_dta(dta))
    assert gaps == old_gaps
    assert overlaps == old_overlaps | _duplicate_clashes(dta)


@pytest.mark.parametrize("kind", ["valid", "gap", "overlap", "duplicate"])
def test_random_dtas_reach_every_verdict(kind):
    """Some drawn (location, signature) pair is valid, has a gap, has an
    overlap of distinct rules, or clashes only between identical rules."""
    def shows(dta):
        gaps, overlaps = _flagged(oracles.validate_dta(dta))
        dupes = _duplicate_clashes(dta) - overlaps
        pairs = {(q, a) for q in dta.locations for a in dta.alphabet}
        return {
            "valid": bool(pairs - gaps - overlaps - dupes),
            "gap": bool(gaps),
            "overlap": bool(overlaps),
            "duplicate": bool(dupes),
        }[kind]

    find(random_dtas(), shows,
         settings=settings(derandomize=True, database=None, deadline=None))


def test_parse_and_solve_enumerate_the_regions_once(monkeypatch):
    """Validation and the product graph read one cached enabled-rule
    table: a fresh parse plus solve walks the clock regions once."""
    region_rules.cache_clear()
    solver._analysis.cache_clear()
    solver._solved.cache_clear()
    calls = []
    enumerate_codes = regions.enumerate_region_codes
    monkeypatch.setattr(regions, "enumerate_region_codes",
                        lambda ceilings: calls.append(ceilings)
                        or enumerate_codes(ceilings))
    models = pathlib.Path(__file__).resolve().parents[1] / "models"
    chain, dta = modelio.parse_model(str(models / "exposure_window.json"))
    result = solver.approximate(chain, dta, "a", "q0", (0, 0), m=4)
    assert 0 < result.probability < 1
    assert calls == [dta.ceilings]
    assert region_rules.cache_info().misses == 1
