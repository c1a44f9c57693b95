from fractions import Fraction

import numpy as np
import pytest

from pathprob.dynamics import Configuration, accepted_within, kappa, select_rule
from pathprob.models import (
    Constraint,
    Dta,
    Guard,
    ModelIntegrityError,
    Rule,
)
from pathprob.regions import delay, region_of
from oracles import bound_equivalent_partner, random_valuation

F = Fraction


def test_select_rule_below_deadline(unit_deadline):
    _, dta = unit_deadline
    rule = select_rule(dta, "q0", "a", (F(1, 2),))
    assert rule.target == "q1"
    assert rule.guard.render(dta.clocks) == "x<1"


def test_select_rule_past_deadline(unit_deadline):
    _, dta = unit_deadline
    assert select_rule(dta, "q0", "a", (F(3, 2),)).target == "qsink"


def test_select_rule_exact_boundary(unit_deadline):
    _, dta = unit_deadline
    assert select_rule(dta, "q0", "a", (F(1),)).target == "qsink"


def test_select_rule_flags_broken_automaton():
    dta = Dta(
        locations=("q0",),
        final=frozenset(),
        clocks=("x",),
        rules=(
            Rule("q0", "a", Guard((Constraint(0, "<", 1),)), frozenset(), "q0"),
        ),
        alphabet=frozenset({"a"}),
    )
    with pytest.raises(ModelIntegrityError):
        select_rule(dta, "q0", "a", (F(2),))


def test_kappa_without_reset(unit_deadline):
    _, dta = unit_deadline
    after = kappa(dta, Configuration("q0", (F(0),)), "a", F(1, 2))
    assert after == Configuration("q1", (F(1, 2),))
    after = kappa(dta, Configuration("q0", (F(0),)), "a", F(3, 2))
    assert after == Configuration("qsink", (F(3, 2),))


def test_kappa_applies_reset(exposure_window):
    _, dta = exposure_window
    after = kappa(dta, Configuration("q0", (F(1, 2), F(1, 2))), "s", F(1, 4))
    assert after == Configuration("q0", (F(3, 4), F(0)))


def test_accepted_at_step_zero(unit_deadline):
    _, dta = unit_deadline
    assert accepted_within(dta, Configuration("q1", (F(7),)), [], 0)


def test_accepted_within_one_step(unit_deadline):
    _, dta = unit_deadline
    start = Configuration("q0", (F(0),))
    word = [("a", F(1, 2)), ("b", F(1))]
    assert accepted_within(dta, start, word, 1)
    late = [("a", F(2)), ("b", F(1))]
    assert not accepted_within(dta, start, late, 1)


def test_accepted_within_needs_long_enough_word(unit_deadline):
    _, dta = unit_deadline
    with pytest.raises(ValueError):
        accepted_within(dta, Configuration("q0", (F(0),)), [("a", F(1))], 2)


def _random_word(rng, alphabet, k):
    letters = sorted(alphabet)
    return [
        (
            letters[int(rng.integers(0, len(letters)))],
            F(int(rng.integers(0, 12)), 8),
        )
        for _ in range(k)
    ]


def test_acceptance_monotone_in_k(exposure_window):
    _, dta = exposure_window
    rng = np.random.default_rng(3)
    for _ in range(300):
        eta = random_valuation(rng, dta.ceilings)
        word = _random_word(rng, dta.alphabet, 5)
        start = Configuration("q0", eta)
        flags = [accepted_within(dta, start, word, k) for k in range(6)]
        for earlier, later in zip(flags, flags[1:]):
            assert later or not earlier


def test_bound_equivalent_starts_accept_the_same_words(exposure_window):
    _, dta = exposure_window
    rng = np.random.default_rng(5)
    for _ in range(2_000):
        eta = random_valuation(rng, dta.ceilings)
        partner = bound_equivalent_partner(rng, eta, dta.ceilings)
        word = _random_word(rng, dta.alphabet, 4)
        for q in dta.locations:
            assert accepted_within(
                dta, Configuration(q, eta), word, 4
            ) == accepted_within(dta, Configuration(q, partner), word, 4)


def test_kappa_respects_regions(exposure_window):
    """Same start region plus delays landing in matching regions: the same
    rule fires and the resulting valuations share a region."""
    from pathprob.regions import enumerate_region_codes, sample_in_region
    from oracles import delay_representatives

    _, dta = exposure_window
    rng = np.random.default_rng(9)
    ceilings = dta.ceilings
    codes = enumerate_region_codes(ceilings)
    for _ in range(200):
        code = codes[int(rng.integers(0, len(codes)))]
        first = sample_in_region(code, ceilings, rng)
        second = sample_in_region(code, ceilings, rng)
        reps_a = delay_representatives(first, ceilings, dta.t_max)
        reps_b = delay_representatives(second, ceilings, dta.t_max)
        assert len(reps_a) == len(reps_b)
        for ta, tb in zip(reps_a, reps_b):
            # aligned intervals traverse the same region
            assert region_of(delay(first, ta), ceilings) == region_of(
                delay(second, tb), ceilings
            )
            for q in dta.locations:
                for a in sorted(dta.alphabet):
                    after_a = kappa(dta, Configuration(q, first), a, ta)
                    after_b = kappa(dta, Configuration(q, second), a, tb)
                    assert after_a.location == after_b.location
                    assert region_of(after_a.valuation, ceilings) == region_of(
                        after_b.valuation, ceilings
                    )
