import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathprob.modelio import parse_guard
from pathprob.models import Constraint, Guard
from pathprob.regions import (
    RELATIONS,
    delay,
    delay_walk,
    enumerate_region_codes,
    guard_sat,
    per_distinct_row,
    region_count,
    region_of,
    region_representative,
    region_signatures,
    reset,
    reset_region,
    UnknownClockError,
)
import oracles
from oracles import (
    backtrack,
    clamp_delay,
    delay_intervals,
    delay_representatives,
    equiv_b,
    equiv_g,
    equivalent,
    frac_set,
    is_marginal,
    minus_representative,
    plus_representative,
    random_valuation,
    region_sequence,
    sample_in_region,
    valuation_walk,
)

F = Fraction
H = F(1, 2)


# ---------------------------------------------------------------------------
# guard satisfaction


def test_guard_sat_conjunction():
    g = Guard((Constraint(0, "<", 2), Constraint(0, ">=", 1)))
    assert guard_sat((F(3, 2),), g)


def test_guard_sat_strict_boundary():
    g = Guard((Constraint(0, "<", 2),))
    assert not guard_sat((F(2),), g)


def test_guard_sat_per_clock():
    g = Guard((Constraint(0, "<=", 1), Constraint(1, ">", 1)))
    assert guard_sat((H, F(3, 2)), g)


def test_guard_sat_unknown_clock():
    g = Guard((Constraint(3, "<", 1),))
    with pytest.raises(UnknownClockError):
        guard_sat((F(0),), g)


_RELATIONS = ("<", "<=", ">", ">=")


def _near(bound):
    """Values just below, at and just above ``bound``, exact and as floats."""
    exact = [F(bound) + d for d in (-F(1, 10 ** 9), F(0), F(1, 10 ** 9))]
    floats = [math.nextafter(float(bound), -math.inf), float(bound),
              math.nextafter(float(bound), math.inf)]
    return exact + floats


@pytest.mark.parametrize("bound", [0, 1, 2])
@pytest.mark.parametrize("op", _RELATIONS)
def test_relation_table_decides_as_the_if_chain_it_replaced(op, bound):
    g = Guard((Constraint(0, op, bound),))
    decided = []
    for v in _near(bound):
        assert guard_sat((v,), g) is oracles.guard_sat((v,), g), v
        decided.append(guard_sat((v,), g))
    # below, at and above, once exact and once as floats
    assert decided == list({"<": (True, False, False), "<=": (True, True, False),
                            ">": (False, False, True),
                            ">=": (False, True, True)}[op]) * 2


def test_relation_table_decides_multi_term_guards_as_the_if_chain():
    terms = [Constraint(c, op, b) for c in (0, 1) for op in _RELATIONS
             for b in range(3)]
    values = [F(j, 2) for j in range(6)]
    for a, b in itertools.product(terms, repeat=2):
        g = Guard((a, b))
        for eta in itertools.product(values, repeat=2):
            assert guard_sat(eta, g) is oracles.guard_sat(eta, g), (g, eta)
            floats = tuple(float(v) for v in eta)
            assert guard_sat(floats, g) is oracles.guard_sat(floats, g), (g, eta)
    assert guard_sat((F(0),), Guard()) is oracles.guard_sat((F(0),), Guard()) is True


def test_relation_table_refuses_an_unknown_clock_as_the_if_chain():
    """Terms are tested in order, so a failing term before the unknown
    clock decides without raising, in both."""
    g = Guard((Constraint(0, "<", 1), Constraint(3, "<", 1)))
    for check in (guard_sat, oracles.guard_sat):
        assert check((F(2),), g) is False
        with pytest.raises(UnknownClockError) as err:
            check((F(0),), g)
        assert str(err.value) == (
            "guard constrains clock #3 but the valuation has 1 clocks")


@pytest.mark.parametrize("op", list(RELATIONS))
def test_every_relation_of_the_table_parses_and_renders_back(op):
    """The model parser reads each relation of :data:`RELATIONS`, and a
    parsed guard renders to text that parses to it again."""
    clocks = ("x", "y")
    guard = parse_guard(f"y {op} 2 & x{op}1", clocks)
    assert guard == Guard((Constraint(1, op, 2), Constraint(0, op, 1)))
    assert guard.render(clocks) == f"y{op}2 & x{op}1"
    assert parse_guard(guard.render(clocks), clocks) == guard


def test_guard_validation_reads_the_relation_table():
    assert set(RELATIONS) == set(_RELATIONS)
    with pytest.raises(ValueError, match="unknown relation '=='"):
        Guard((Constraint(0, "==", 1),))


# ---------------------------------------------------------------------------
# region encoding


def test_region_of_shared_fraction_class():
    code = region_of((H, F(3, 2)), (2, 2))
    assert code.clocks == ((0, False), (1, False))
    assert code.frac_order == ((0, 1),)


def test_region_of_above_ceiling():
    code = region_of((F(3), F(3)), (2, 2))
    assert code.clocks == (None, None)
    assert code.frac_order == ()


def test_region_of_origin():
    code = region_of((F(0), F(0)), (2, 2))
    assert code.clocks == ((0, True), (0, True))
    assert code.frac_order == ((0, 1),)


def test_region_encoding_matches_definition():
    """Equal codes iff the definitional predicate holds, on random pairs."""
    rng = np.random.default_rng(7)
    ceilings = (1, 2)
    agree = 0
    for _ in range(10_000):
        a = random_valuation(rng, ceilings)
        b = random_valuation(rng, ceilings)
        same_code = region_of(a, ceilings) == region_of(b, ceilings)
        assert same_code == equivalent(a, b, ceilings), (a, b)
        agree += same_code
    assert agree > 0  # the sample hits equal regions at least sometimes


def test_region_count_is_finite_and_stable():
    codes = enumerate_region_codes((1, 1))
    assert len(codes) == len(set(codes)) == 18
    assert len(enumerate_region_codes((1,))) == 4


def test_region_count_closed_form_matches_enumeration():
    for k in range(4):
        for ceilings in itertools.product(range(3), repeat=k):
            assert region_count(ceilings) == len(enumerate_region_codes(ceilings))
    assert region_count((2, 2, 2, 2)) == len(enumerate_region_codes((2, 2, 2, 2)))
    assert region_count((2, 2, 2, 2)) == 4784
    assert region_count((3,) * 5) == 417_338


def test_representative_round_trip():
    for ceilings in [(1,), (1, 1), (2, 3)]:
        for code in enumerate_region_codes(ceilings):
            rep = region_representative(code, ceilings)
            assert region_of(rep, ceilings) == code


def test_sample_in_region_round_trip():
    rng = np.random.default_rng(11)
    ceilings = (1, 2)
    for code in enumerate_region_codes(ceilings):
        for _ in range(5):
            assert region_of(sample_in_region(code, ceilings, rng), ceilings) == code


# sha256 of the repr of every placed valuation, over every code of each
# ceiling vector in turn; the sampler shares one default_rng(0) across calls,
# so its digest pins the order of the draws too
PLACEMENT_CEILINGS = ((1,), (2,), (1, 2), (2, 1, 1))
PLACEMENT_DIGESTS = {
    "representative":
        "98b02c1940bbb8783c45b660633971522e1a0277328e45579a203f740343be28",
    "sample": "70622f24114167c17c19af4acd50721f26ff0901384e09eab0956df440151842",
}


def _placement_digest(place):
    h = hashlib.sha256()
    for ceilings in PLACEMENT_CEILINGS:
        for code in enumerate_region_codes(ceilings):
            h.update(repr(place(code, ceilings)).encode())
    return h.hexdigest()


def test_placement_digests():
    rng = np.random.default_rng(0)
    assert {
        "representative": _placement_digest(region_representative),
        "sample": _placement_digest(
            lambda code, ceilings: sample_in_region(code, ceilings, rng)),
    } == PLACEMENT_DIGESTS


# ---------------------------------------------------------------------------
# equivalences


def test_equiv_g_vs_b_on_interior_points():
    assert equiv_g((F(3, 10),), (F(7, 10),), (1,))
    assert not equiv_b((F(3, 10),), (F(7, 10),), (1,))


def test_equiv_b_above_ceiling():
    assert equiv_b((F(5, 2),), (F(9),), (2,))


def test_equivalences_are_reflexive():
    eta = (F(1, 3), F(2))
    assert equiv_g(eta, eta, (1, 2))
    assert equiv_b(eta, eta, (1, 2))
    assert equivalent(eta, eta, (1, 2))


# ---------------------------------------------------------------------------
# marginality


def test_marginal_when_some_frac_is_zero():
    assert is_marginal(region_of((F(1), H), (1, 1)))


def test_not_marginal_interior():
    assert not is_marginal(region_of((F(1, 4), H), (1, 1)))


def test_above_ceiling_exempt_from_marginality():
    assert not is_marginal(region_of((F(3),), (2,)))


# ---------------------------------------------------------------------------
# representatives


def test_plus_representative_midpoint():
    assert plus_representative((H,), (1,)) == (F(3, 4),)


def test_plus_representative_origin():
    assert plus_representative((F(0),), (1,)) == (H,)


def test_plus_representative_above_ceiling_default():
    assert plus_representative((F(3), F(4)), (1, 1)) == (F(7, 2), F(9, 2))


def test_minus_representative_simple():
    assert minus_representative((H,), (1,)) == (F(1, 4),)


def test_minus_representative_min_frac_case():
    assert minus_representative((F(1, 4), F(3, 4)), (1, 1)) == (F(1, 8), F(5, 8))


def test_minus_representative_requires_positive_clocks():
    with pytest.raises(ValueError):
        minus_representative((F(0), H), (1, 1))


def test_minus_representative_zero_frac_cases():
    # all fractional parts zero: window reaches back a full unit
    assert minus_representative((F(1),), (2,)) == (H,)
    # second-minimum rule when one frac is zero and another is not
    assert minus_representative((F(1), F(1, 3)), (2, 2)) == (F(5, 6), F(1, 6))
    # above-ceiling distances cap the window
    assert minus_representative((F(9, 4),), (2,)) == (F(17, 8),)


# ---------------------------------------------------------------------------
# clamped delay, reset, delay


def test_clamp_delay_saturates():
    assert clamp_delay((F(3, 4),), H, (1,)) == (F(1),)


def test_clamp_delay_zero_is_identity_inside_box():
    eta = (H, F(1))
    assert clamp_delay(eta, 0, (1, 3)) == eta


def test_clamp_delay_per_clock():
    assert clamp_delay((H, F(2)), 1, (1, 3)) == (F(1), F(3))


def test_reset_and_delay():
    assert reset((H, F(3, 4)), {0}) == (F(0), F(3, 4))
    assert reset((H, F(3, 4)), set()) == (H, F(3, 4))
    assert delay((F(0), F(1)), F(1, 4)) == (F(1, 4), F(5, 4))
    assert backtrack((F(1), F(2)), F(1)) == (F(0), F(1))
    with pytest.raises(ValueError):
        backtrack((F(1), H), F(1))


def test_frac_set_contains_landmarks():
    assert frac_set((F(1, 3), F(5)), (1, 1)) == (F(0), F(1, 3), F(1))
    assert frac_set((F(5), F(7)), (1, 1)) == (F(0), F(1))


def test_delay_intervals_structure():
    assert delay_intervals((F(0),), (1,), 1) == [(F(0), F(1)), (F(1), None)]
    reps = delay_representatives((F(0),), (1,), 1)
    assert reps == [H, F(3, 2)]


def test_delay_intervals_split_at_fraction_offsets():
    intervals = delay_intervals((F(1, 3),), (2,), 2)
    assert (F(2, 3), F(1)) in intervals
    assert intervals[-1] == (F(2), None)
    flat = [p for lo, hi in intervals if hi is not None for p in (lo, hi)]
    assert flat == sorted(flat)


def test_delay_walk_never_lands_on_a_marginal_region():
    """Each delay is the midpoint of an open interval between the landmarks
    where a clock's fraction reaches 0 (or past the last one), so no step
    of the delay walk from any region's representative is marginal: the
    product graph takes every step as a plus region."""
    steps = 0
    for k in range(1, 4):
        for ceilings in itertools.product(range(3), repeat=k):
            for code in enumerate_region_codes(ceilings):
                rep = region_representative(code, ceilings)
                for t in delay_representatives(rep, ceilings, max(ceilings)):
                    reached = region_of(delay(rep, t), ceilings)
                    assert not is_marginal(reached), (ceilings, code, t)
                    steps += 1
    assert steps == 13_389


def test_code_steps_match_the_valuation_walk():
    """On every region of ceilings {0, 1, 2}^k (k = 1..3), the delay walk
    stepped on region codes is the regions of the exact valuation walk,
    consecutive repeats removed, and the reset on codes is the region of
    the reset representative, for every set of clocks reset."""
    checked = 0
    for k in range(1, 4):
        resets = [s for n in range(k + 1)
                  for s in itertools.combinations(range(k), n)]
        for ceilings in itertools.product(range(3), repeat=k):
            for code in enumerate_region_codes(ceilings):
                reached = [region_of(eta, ceilings) for eta in
                           valuation_walk(code, ceilings, max(ceilings))]
                assert delay_walk(code, ceilings) == [
                    r for i, r in enumerate(reached)
                    if i == 0 or r != reached[i - 1]], (ceilings, code)
                rep = region_representative(code, ceilings)
                for clocks in resets:
                    assert reset_region(code, clocks) == region_of(
                        reset(rep, clocks), ceilings), (ceilings, code, clocks)
                    checked += 1
    assert checked == 20_976


# ---------------------------------------------------------------------------
# property suites (seeded, exact arithmetic)


def _derivable_guards(ceilings):
    guards = []
    for clock, c in enumerate(ceilings):
        for bound in range(c + 1):
            for op in ("<", "<=", ">", ">="):
                guards.append(Guard((Constraint(clock, op, bound),)))
    return guards


def test_region_soundness_for_guards():
    """Valuations in one region satisfy exactly the same derivable guards."""
    rng = np.random.default_rng(23)
    ceilings = (1, 2)
    guards = _derivable_guards(ceilings)
    codes = enumerate_region_codes(ceilings)
    for _ in range(2_000):
        code = codes[int(rng.integers(0, len(codes)))]
        a = sample_in_region(code, ceilings, rng)
        b = sample_in_region(code, ceilings, rng)
        for g in guards:
            assert guard_sat(a, g) == guard_sat(b, g)


def test_reset_closure():
    """Resetting any clock subset maps equal regions to equal regions."""
    rng = np.random.default_rng(29)
    ceilings = (1, 1)
    codes = enumerate_region_codes(ceilings)
    subsets = [set(), {0}, {1}, {0, 1}]
    for _ in range(5_000):
        code = codes[int(rng.integers(0, len(codes)))]
        a = sample_in_region(code, ceilings, rng)
        b = sample_in_region(code, ceilings, rng)
        for x in subsets:
            assert region_of(reset(a, x), ceilings) == region_of(
                reset(b, x), ceilings
            )


def test_successor_matching_as_region_sequences():
    """Same region implies the same future region sequence."""
    rng = np.random.default_rng(31)
    ceilings = (1, 1)
    codes = enumerate_region_codes(ceilings)
    for _ in range(500):
        code = codes[int(rng.integers(0, len(codes)))]
        a = sample_in_region(code, ceilings, rng)
        b = sample_in_region(code, ceilings, rng)
        assert region_sequence(a, ceilings) == region_sequence(b, ceilings)


def test_plus_representative_stability():
    """The region is constant across the admissible window and never
    marginal there."""
    rng = np.random.default_rng(37)
    ceilings = (1, 2)
    for _ in range(5_000):
        eta = random_valuation(rng, ceilings)
        fracs = [v - v.__floor__() for v, c in zip(eta, ceilings) if v <= c]
        t1 = 1 - max(fracs) if fracs else F(1)
        targets = [
            region_of(delay(eta, t1 * w), ceilings)
            for w in (F(1, 4), F(1, 2), F(3, 4))
        ]
        assert targets[0] == targets[1] == targets[2]
        assert not is_marginal(targets[0])


def test_non_marginal_fixpoint():
    """Away from region boundaries the nudged representatives stay put."""
    rng = np.random.default_rng(41)
    ceilings = (1, 2)
    checked = 0
    while checked < 5_000:
        eta = random_valuation(rng, ceilings)
        code = region_of(eta, ceilings)
        if is_marginal(code):
            continue
        checked += 1
        assert region_of(plus_representative(eta, ceilings), ceilings) == code
        if all(v > 0 for v in eta):
            assert region_of(minus_representative(eta, ceilings), ceilings) == code


def test_saturated_delay_matches_plain_delay_after_more_time():
    """Saturated and plain delay land in the same region once any further
    positive delay is applied."""
    rng = np.random.default_rng(43)
    ceilings = (1, 1)
    for _ in range(2_000):
        eta = random_valuation(rng, ceilings, beyond=0)
        t = F(int(rng.integers(0, 25)), 8)
        tau = F(int(rng.integers(1, 17)), 8)
        saturated = clamp_delay(eta, t, ceilings)
        plain = delay(eta, t)
        assert region_of(delay(saturated, tau), ceilings) == region_of(
            delay(plain, tau), ceilings
        )
        assert region_sequence(delay(saturated, tau), ceilings) == region_sequence(
            delay(plain, tau), ceilings
        )


@st.composite
def _valuation_rows(draw):
    """Ceilings of 1-3 clocks and rows of float valuations over them:
    integers, values at and above a ceiling, fractional parts shared
    across clocks, arbitrary floats in the box and uncapped values up to
    1e6, as the exact k-step estimator lets clocks run."""
    ceilings = tuple(draw(st.lists(st.integers(0, 3), min_size=1,
                                   max_size=3)))
    shared = draw(st.sampled_from((0.125, 0.5, 0.75))
                  | st.floats(0, 1, exclude_max=True))
    top = max(ceilings) + 2
    value = st.one_of(
        st.integers(0, top).map(float),
        st.integers(0, top).map(lambda w: w + shared),
        st.floats(0, top),
        st.floats(0, 1e6),
    )
    rows = draw(st.lists(st.lists(value, min_size=len(ceilings),
                                  max_size=len(ceilings)),
                         min_size=1, max_size=12))
    return ceilings, rows


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_valuation_rows())
def test_region_signatures_match_region_of(case):
    """Two rows share a vectorised signature exactly when region_of gives
    them the same code, and numbering each distinct signature at its first
    row numbers every row as region_of does."""
    ceilings, rows = case
    codes = [region_of(row, ceilings) for row in rows]
    signatures = region_signatures(np.array(rows), ceilings)
    for i, j in itertools.combinations(range(len(rows)), 2):
        same = bool((signatures[i] == signatures[j]).all())
        assert same == (codes[i] == codes[j])
    number = {code: r for r, code in enumerate(enumerate_region_codes(ceilings))}
    assert per_distinct_row(signatures,
                            lambda i: number[codes[i]]).tolist() == [
        number[code] for code in codes]


def _dyadic_representative(code, ceilings):
    """A float valuation in the region ``code``: fraction blocks at
    multiples of 1/8, exact in binary, so the floats stay in the region."""
    values, rank = {}, 0
    for block in code.frac_order:  # a zero-fraction block comes first
        zero = code.clocks[block[0]][1]
        rank += not zero
        for i in block:
            values[i] = code.clocks[i][0] + (0 if zero else rank / 8)
    return [ceilings[i] + 0.5 if opt is None else values[i]
            for i, opt in enumerate(code.clocks)]


def test_region_signatures_separate_every_region():
    """Every region gets its own signature."""
    for ceilings in ((1,), (2, 1), (1, 0, 2), (2, 2, 2)):
        codes = enumerate_region_codes(ceilings)
        reps = [_dyadic_representative(c, ceilings) for c in codes]
        assert [region_of(r, ceilings) for r in reps] == codes
        signatures = region_signatures(np.array(reps), ceilings)
        assert len({row.tobytes() for row in signatures}) == len(codes)


def test_per_distinct_row_asks_once_at_the_first_occurrence():
    keys = np.array([[2, 0], [1, 5], [2, 0], [1, 4], [1, 5], [2, 0]])
    asked = []

    def value_of(i):
        asked.append(i)
        return 10 * i

    assert per_distinct_row(keys, value_of).tolist() == [0, 10, 0, 30, 10, 0]
    assert asked == [0, 1, 3]
    asked.clear()
    assert per_distinct_row(np.zeros((3, 0), dtype=np.int64),
                            value_of).tolist() == [0, 0, 0]
    assert asked == [0]
