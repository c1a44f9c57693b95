import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import MODELS
from pathprob import mc, modelio
from pathprob.models import (
    Constraint, Ctmc, Dta, Guard, ModelIntegrityError, Rule,
)
from pathprob.product import build_graph, size_report
from test_tables import _chain_of_splits, random_models

F = Fraction


class _FixedRng:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def _rate(chain, state):
    return float(chain.exit_rates[chain.state_index(state)])


def _sojourn(chain, state, rng):
    return float(mc._sojourns(np.array([rng.random()]),
                              np.array([_rate(chain, state)]))[0])


def test_sojourn_inverse_transform(unit_deadline):
    chain, _ = unit_deadline
    assert _sojourn(chain, "s", _FixedRng(math.exp(-1))) == pytest.approx(1.0)


def test_sojourn_scales_with_rate(exposure_window):
    chain, _ = exposure_window
    # state b has rate 3
    t = _sojourn(chain, "b", _FixedRng(math.exp(-1)))
    assert t == pytest.approx(1 / 3)


def test_sojourn_reproducible_sequence(unit_deadline):
    chain, _ = unit_deadline
    a = np.random.default_rng(5)
    b = np.random.default_rng(5)
    first = [_sojourn(chain, "s", a) for _ in range(10)]
    second = [_sojourn(chain, "s", b) for _ in range(10)]
    assert first == second


def test_sojourn_empirical_mean(exposure_window):
    chain, _ = exposure_window
    rng = np.random.default_rng(11)
    n = 100_000
    draws = mc._sojourns(rng.random(n), np.full(n, _rate(chain, "a")))  # rate 2
    assert np.mean(draws) == pytest.approx(0.5, abs=3 * 0.5 / math.sqrt(n))


def test_estimate_matches_exponential_cdf(unit_deadline, unit_graph):
    chain, dta = unit_deadline
    est = mc.estimate(chain, dta, unit_graph, "s", "q0", (0.0,), n=100_000,
                      k_max=8, seed=2024)
    target = 1 - math.exp(-1)
    se = math.sqrt(target * (1 - target) / est.n)
    assert abs(est.p_hat - target) <= 3 * se
    assert est.censored == 0
    assert est.accepted + est.dead_absorbed == est.n


def test_estimate_is_reproducible(unit_deadline, unit_graph):
    chain, dta = unit_deadline
    a = mc.estimate(chain, dta, unit_graph, "s", "q0", (0.0,), n=2000, seed=1)
    b = mc.estimate(chain, dta, unit_graph, "s", "q0", (0.0,), n=2000, seed=1)
    c = mc.estimate(chain, dta, unit_graph, "s", "q0", (0.0,), n=2000, seed=2)
    assert a == b
    assert a != c


def test_estimate_final_start(unit_deadline, unit_graph):
    chain, dta = unit_deadline
    est = mc.estimate(chain, dta, unit_graph, "s", "q1", (0.0,), n=500, seed=3)
    assert est.p_hat == 1.0 and est.accepted == est.n


def test_estimate_dead_start(unit_deadline, unit_graph):
    chain, dta = unit_deadline
    est = mc.estimate(chain, dta, unit_graph, "s", "q0", (2.0,), n=500, seed=3)
    assert est.p_hat == 0.0 and est.dead_absorbed == est.n


def test_k_zero_matches_final_indicator(unit_deadline):
    chain, dta = unit_deadline
    est = mc.estimate_k(chain, dta, "s", "q0", (0.0,), k=0, n=300, seed=5)
    assert est.p_hat == 0.0
    est = mc.estimate_k(chain, dta, "s", "q1", (0.0,), k=0, n=300, seed=5)
    assert est.p_hat == 1.0


def test_single_step_estimate(unit_deadline):
    chain, dta = unit_deadline
    est = mc.estimate_k(chain, dta, "s", "q0", (0.0,), k=1, n=50_000, seed=7)
    target = 1 - math.exp(-1)
    se = math.sqrt(target * (1 - target) / est.n)
    assert abs(est.p_hat - target) <= 3 * se


def test_estimates_monotone_in_k(exposure_window):
    chain, dta = exposure_window
    values = [
        mc.estimate_k(chain, dta, "a", "q0", (0.0, 0.0), k=k, n=4000, seed=11).p_hat
        for k in range(6)
    ]
    assert values == sorted(values)


def test_k_estimates_converge_to_absorbing_estimate(exposure_window,
                                                    exposure_graph):
    """With shared trial streams the within-k estimate reaches the
    absorbing estimate once k dominates the absorption times."""
    chain, dta = exposure_window
    bounded = mc.estimate_k(chain, dta, "a", "q0", (0.0, 0.0), k=48, n=4000,
                            seed=13)
    absorbing = mc.estimate(chain, dta, exposure_graph, "a", "q0", (0.0, 0.0),
                            n=4000, seed=13)
    assert bounded.accepted == absorbing.accepted


def test_absorption_changes_no_outcome(exposure_window, exposure_graph):
    """Absorption only stops trials that the exact k-step run rejects."""
    chain, dta = exposure_window
    with_absorb = mc.estimate(chain, dta, exposure_graph, "a", "q0",
                              (0.0, 0.0), n=10_000, k_max=48, seed=17)
    without = mc.estimate_k(chain, dta, "a", "q0", (0.0, 0.0), k=48,
                            n=10_000, seed=17)
    assert with_absorb.accepted == without.accepted
    assert without.dead_absorbed == 0
    assert (with_absorb.dead_absorbed + with_absorb.censored
            == without.n - without.accepted)


def test_censoring_reported_as_interval(exposure_window, exposure_graph):
    chain, dta = exposure_window
    est = mc.estimate(chain, dta, exposure_graph, "a", "q0", (0.0, 0.0),
                      n=3000, k_max=1, seed=19)
    assert est.censored > 0
    assert est.p_low <= est.p_hat <= est.p_high
    assert est.p_high == (est.accepted + est.censored) / est.n


def test_default_horizon_formula(exposure_graph):
    assert mc.default_k_max(exposure_graph) == 16 * 3 * 216


@pytest.mark.parametrize(
    "model_name,graph_name",
    [("unit_deadline", "unit_graph"), ("exposure_window", "exposure_graph")],
)
def test_oracle_agrees_with_grid_on_sampled_vertices(model_name, graph_name,
                                                     request):
    """Grid values and estimates agree within statistical plus grid error
    on randomly sampled alive unknowns."""
    from pathprob.scheme import assemble_gamma_prime, build_grid
    from pathprob.solver import solve

    chain, dta = request.getfixturevalue(model_name)
    graph = request.getfixturevalue(graph_name)
    coarse_grid = build_grid(graph, 16)
    coarse = solve(assemble_gamma_prime(coarse_grid))
    fine_grid = build_grid(graph, 32)
    fine = solve(assemble_gamma_prime(fine_grid))
    rng = np.random.default_rng(404)
    picks = rng.choice(len(coarse_grid.cells), size=3, replace=False)
    for k in picks:
        # coarse unknowns sit on both grids, so the resolutions compare
        cell = int(coarse_grid.cells[k])
        state, location, coords = oracles.decode(coarse_grid, cell)
        doubled = [2 * j for j in coords]
        value = fine.value_of(fine_grid.cell(state, location, doubled))
        grid_error = abs(value - coarse.value_of(cell))
        est = mc.estimate(
            chain, dta, graph, state, location,
            [j / 16 for j in coords], n=20_000, seed=505,
        )
        assert abs(value - est.p_hat) <= est.halfwidth + grid_error + 1e-12


def test_distinct_streams_are_distinct(unit_deadline, unit_graph):
    chain, dta = unit_deadline
    a = mc.estimate(chain, dta, unit_graph, "s", "q0", (0.0,), n=2000,
                    seed=1, stream=0)
    b = mc.estimate(chain, dta, unit_graph, "s", "q0", (0.0,), n=2000,
                    seed=1, stream=1)
    assert a != b


# The merged trial loop against the two separate loops it replaced, kept in
# ``oracles``: every Estimate must be equal field by field.  Besides a zero
# start, the start lists hold final starts, dead starts and starts above a
# ceiling, alive (exposure_window, departure) and dead (unit_deadline).
_STARTS = {
    "unit_deadline": [("s", "q0", (0.0,)), ("s", "q1", (0.0,)),
                      ("s", "q0", (F(5, 2),))],
    "exposure_window": [("a", "q0", (0.0, 0.0)), ("a", "q0", (F(1, 3), 2.5)),
                        ("a", "q0", (1.5, 0.0)), ("c", "qf", (0.0, 0.0))],
    "departure": [("w", "q0", (0.0,)), ("w", "q0", (F(7, 2),)),
                  ("w", "qf", (0.0,))],
}
_GRAPHS = {"unit_deadline": "unit_graph", "exposure_window": "exposure_graph",
           "departure": "departure_graph"}


@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("model", list(_STARTS))
def test_trial_loop_matches_separate_loops(request, model, seed, stream):
    chain, dta = request.getfixturevalue(model)
    graph = request.getfixturevalue(_GRAPHS[model])
    # one short batch, then a full batch followed by a short one
    for n in (200, mc.BATCH + 44):
        runs = dict(n=n, seed=seed, stream=stream)
        for start in _STARTS[model]:
            for k_max in (None, 0, 1):
                assert (mc.estimate(chain, dta, graph, *start, k_max=k_max,
                                    **runs)
                        == oracles.estimate(chain, dta, graph, *start,
                                            k_max=k_max, **runs))
            for k in (0, 1, 16):
                assert (mc.estimate_k(chain, dta, *start, k=k, **runs)
                        == oracles.estimate_k(chain, dta, *start, k=k,
                                              **runs))


_EXPOSURE = modelio.parse_model(str(MODELS / "exposure_window.json"))


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(random_models(), st.sampled_from((0, 1, 8)), st.integers(0, 3),
       st.sampled_from((0, F(1, 2), F(5, 2))))
@example(_chain_of_splits(), 8, 0, 0)  # no hopeless location
@example(_EXPOSURE, 8, 0, 0)  # qsink is hopeless
@example(_EXPOSURE, 1, 3, F(1, 2))  # a hopeless start
def test_trial_loop_matches_separate_loops_on_random_models(model, k, where,
                                                            clock):
    """Starts at any location, with clocks below, between or above the
    ceilings."""
    chain, dta = model
    location = dta.locations[where % len(dta.locations)]
    start = (chain.states[0], location, (clock,) * len(dta.clocks))
    runs = dict(n=mc.BATCH + 44, seed=5)
    graph = build_graph(chain, dta)
    assert (mc.estimate(chain, dta, graph, *start, **runs)
            == oracles.estimate(chain, dta, graph, *start, **runs))
    assert (mc.estimate_k(chain, dta, *start, k=k, **runs)
            == oracles.estimate_k(chain, dta, *start, k=k, **runs))


@pytest.mark.parametrize("n", [3 * mc.BATCH + 44, 4 * mc.BATCH])
def test_groups_match_separate_loops(monkeypatch, exposure_window,
                                     exposure_graph, n):
    """Two batches to a group, so runs cross group boundaries: n = 3 *
    BATCH + 44 ends in a short batch of a short group, n = 4 * BATCH in
    full groups only.  The starts reach acceptance, absorption and
    censoring, so all three counters are compared."""
    monkeypatch.setattr(mc, "GROUP", 2)
    chain, dta = exposure_window
    runs = dict(n=n, seed=1)
    ests = []
    for start in _STARTS["exposure_window"]:
        for k_max in (None, 0, 1, 3):
            est = mc.estimate(chain, dta, exposure_graph, *start, k_max=k_max,
                              **runs)
            assert est == oracles.estimate(chain, dta, exposure_graph, *start,
                                           k_max=k_max, **runs)
            ests.append(est)
        for k in (0, 1, 16):
            assert (mc.estimate_k(chain, dta, *start, k=k, **runs)
                    == oracles.estimate_k(chain, dta, *start, k=k, **runs))
    assert any(e.accepted for e in ests)
    assert any(e.dead_absorbed for e in ests)
    assert any(e.censored for e in ests)


def test_memory_does_not_grow_with_the_trial_count(exposure_window):
    """Groups run one after another, so four groups of trials peak no
    higher than one does, give or take the memo."""
    chain, dta = exposure_window
    start = ("a", "q0", (0.0, 0.0))

    def peak(n):
        tracemalloc.start()
        try:
            mc.estimate_k(chain, dta, *start, k=3, n=n, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    mc.estimate_k(chain, dta, *start, k=3, n=10, seed=1)  # warm caches
    span = mc.GROUP * mc.BATCH
    assert peak(4 * span) <= 1.5 * peak(span)


def test_differential_starts_cover_every_outcome(exposure_window,
                                                 exposure_graph):
    """The exposure_window starts reach acceptance, absorption and
    censoring, so the differential test compares all three counters."""
    chain, dta = exposure_window
    ests = [mc.estimate(chain, dta, exposure_graph, *start, k_max=k_max,
                        n=200, seed=1)
            for start in _STARTS["exposure_window"] for k_max in (None, 1)]
    assert any(e.accepted for e in ests)
    assert any(e.dead_absorbed for e in ests)
    assert any(e.censored for e in ests)


@pytest.mark.parametrize("start,named", [
    (("a", "q0", (0.0, 0.0, 5.0)), "3 clocks"),
    (("a", "q0", (0.0, -0.5)), "clock 'y'"),
    (("a", "nope", (0.0, 0.0)), "location 'nope'"),
    (("nosuch", "q0", (0.0, 0.0)), "state 'nosuch'"),
])
def test_bad_start_is_refused(exposure_window, exposure_graph, start, named):
    chain, dta = exposure_window
    with pytest.raises(ValueError, match=named):
        mc.estimate(chain, dta, exposure_graph, *start, n=10)
    with pytest.raises(ValueError, match=named):
        mc.estimate_k(chain, dta, *start, k=4, n=10)


@pytest.mark.parametrize("bad", ["seed", "stream"])
def test_negative_seed_or_stream_is_refused(unit_deadline, unit_graph, bad):
    chain, dta = unit_deadline
    runs = {"n": 10, bad: -1}
    match = f"{bad} must be non-negative, got -1"
    with pytest.raises(ValueError, match=match):
        mc.estimate(chain, dta, unit_graph, "s", "q0", (0.0,), **runs)
    with pytest.raises(ValueError, match=match):
        mc.estimate_k(chain, dta, "s", "q0", (0.0,), k=4, **runs)


@pytest.mark.parametrize("confidence", [0.0, 1.0, 1.5, -0.5])
def test_confidence_outside_unit_interval_is_refused(unit_deadline, unit_graph,
                                                     confidence):
    chain, dta = unit_deadline
    with pytest.raises(ValueError, match="confidence must lie in"):
        mc.estimate(chain, dta, unit_graph, "s", "q0", (0.0,), n=10,
                    confidence=confidence)
    with pytest.raises(ValueError, match="confidence must lie in"):
        mc.estimate_k(chain, dta, "s", "q0", (0.0,), k=4, n=10,
                      confidence=confidence)


def test_streams_are_pinned(exposure_window, exposure_graph):
    """The counts of the benchmark query on the batch streams."""
    chain, dta = exposure_window
    start = ("a", "q0", (0.0, 0.0))
    est = mc.estimate(chain, dta, exposure_graph, *start, n=5000, seed=7)
    assert (est.accepted, est.dead_absorbed, est.censored) == (1313, 3687, 0)
    est_k = mc.estimate_k(chain, dta, *start, k=16, n=5000, seed=7)
    assert est_k.accepted == 1313


def _count_steps(monkeypatch):
    """Wrap mc._sojourns; the returned list holds the trial-steps taken,
    one sojourn row each."""
    steps = [0]
    sojourns = mc._sojourns

    def counted(uniforms, rates):
        steps[0] += len(uniforms)
        return sojourns(uniforms, rates)

    monkeypatch.setattr(mc, "_sojourns", counted)
    return steps


def _hopeless(monkeypatch, chain, dta):
    """The locations where the trial loop rejects a trial on entry, rule
    targets included.  Each is probed from a fresh start location whose
    unguarded rules all lead to it: with k = 2 a trial takes a second step
    unless it entered the probed location accepted or rejected."""
    steps = _count_steps(monkeypatch)
    found = set()
    for target in set(dta.locations) | {r.target for r in dta.rules}:
        probe = replace(dta, locations=dta.locations + ("probe",), rules=(
            dta.rules + tuple(Rule("probe", a, Guard(), frozenset(), target)
                              for a in sorted(dta.alphabet))))
        steps[0] = 0
        mc.estimate_k(chain, probe, chain.states[0], "probe",
                      (0.0,) * len(dta.clocks), k=2, n=10, seed=1)
        if steps[0] == 10 and target not in dta.final:
            found.add(target)
    return found


@pytest.mark.parametrize("model,hopeless", [
    ("exposure_window", {"qsink"}), ("unit_deadline", {"qsink"}),
    ("reset_loop", {"qsink"}), ("departure", set()),
])
def test_hopeless_locations(monkeypatch, request, model, hopeless):
    assert _hopeless(monkeypatch, *request.getfixturevalue(model)) == hopeless


def test_undeclared_rule_target_is_hopeless(monkeypatch, departure):
    """q0 leaves x >= 1 for the undeclared, non-final qgone; a rule to qf
    on a signature the chain never shows makes q0 hopeful again, since
    labels are ignored."""
    chain, dta = departure
    rules = tuple(r._replace(target="qgone") if r.target == "qf" and
                  r.source == "q0" else r for r in dta.rules)
    assert _hopeless(monkeypatch, chain, replace(dta, rules=rules)) == {
        "q0", "qgone"}
    rules += (Rule("q0", "b", Guard(), frozenset(), "qf"),)
    dta = replace(dta, rules=rules, alphabet=frozenset("ab"))
    assert _hopeless(monkeypatch, chain, dta) == {"qgone"}


def test_exact_estimator_stops_trials_in_hopeless_locations(
        monkeypatch, exposure_window, exposure_graph):
    """Walked to the horizon, trials in qsink would take 49 962 of the
    exact estimator's 62 079 trial-steps; stopped on entry, it takes as
    many as the absorbing estimator and gives what the exact loop without
    the shortcut gives."""
    chain, dta = exposure_window
    start = ("a", "q0", (0.0, 0.0))
    steps = _count_steps(monkeypatch)
    est = mc.estimate_k(chain, dta, *start, k=16, n=5000, seed=7)
    assert steps[0] == 12_117
    assert est == oracles.estimate_k(chain, dta, *start, k=16, n=5000, seed=7)
    steps[0] = 0
    mc.estimate(chain, dta, exposure_graph, *start, n=5000, seed=7)
    assert steps[0] == 12_117


def test_hopeless_start_takes_one_step(monkeypatch, exposure_window):
    """The start location is not tested before the first step."""
    chain, dta = exposure_window
    steps = _count_steps(monkeypatch)
    runs = dict(k=16, n=mc.BATCH + 44, seed=3)
    est = mc.estimate_k(chain, dta, "a", "qsink", (0.0, 0.0), **runs)
    assert steps[0] == est.n and est.p_hat == 0.0
    assert est == oracles.estimate_k(chain, dta, "a", "qsink", (0.0, 0.0),
                                     **runs)


def test_start_beyond_the_float_range_runs_as_ceiling_plus_one(exposure_window,
                                                               exposure_graph):
    """y's ceiling is 1: a start of y = 10^400 (no float holds it) or of
    y = inf estimates what y = 2 does, with and without absorption."""
    chain, dta = exposure_window
    runs = dict(n=2000, seed=7)
    at_two = mc.estimate(chain, dta, exposure_graph, "a", "q0", (0, 2), **runs)
    assert mc.estimate(chain, dta, exposure_graph, "a", "q0", (0, F(10) ** 400),
                       **runs) == at_two
    assert (at_two.accepted, at_two.dead_absorbed, at_two.censored) == (535, 1465, 0)
    at_two = mc.estimate_k(chain, dta, "a", "q0", (0.0, 2.0), k=16, **runs)
    assert mc.estimate_k(chain, dta, "a", "q0", (0.0, math.inf), k=16,
                         **runs) == at_two


class _ZeroRng:
    """A generator whose every uniform is 0.0."""

    def random(self, size=None):
        return np.zeros(size)


def test_zero_uniforms_give_finite_sojourns(monkeypatch, unit_deadline,
                                             unit_graph, exposure_window,
                                             exposure_graph):
    """A sojourn uniform of 0.0 is a sojourn of 0, not an infinite one or
    a log domain error; the loop and the oracle loops agree on it."""
    monkeypatch.setattr(mc.RngStream, "trial_rng", lambda self, t: _ZeroRng())
    runs = dict(n=mc.BATCH + 44, seed=3)
    chain, dta = unit_deadline
    # every first sojourn is 0, within the deadline of 1
    est = mc.estimate(chain, dta, unit_graph, "s", "q0", (0.0,), **runs)
    assert est.accepted == est.n
    assert est == oracles.estimate(chain, dta, unit_graph, "s", "q0", (0.0,),
                                   **runs)
    chain, dta = exposure_window
    start = ("a", "q0", (0.0, 0.0))
    # the clocks never move, so the trials run to the step horizon
    est = mc.estimate(chain, dta, exposure_graph, *start, k_max=16, **runs)
    assert est.censored == est.n
    assert est == oracles.estimate(chain, dta, exposure_graph, *start,
                                   k_max=16, **runs)
    for k in (1, 16):
        assert (mc.estimate_k(chain, dta, *start, k=k, **runs)
                == oracles.estimate_k(chain, dta, *start, k=k, **runs))


def _one_clock_dta(*guards):
    """Location q0 with one rule on signature a per guard on x: a self-loop,
    or a rule to qf where the guard ends in "qf"."""
    rules = tuple(
        Rule("q0", "a", Guard(tuple(Constraint(0, *term) for term in guard
                                    if term != "qf")),
             frozenset(), "qf" if "qf" in guard else "q0")
        for guard in guards
    )
    return Dta(locations=("q0", "qf"), final=frozenset({"qf"}), clocks=("x",),
               rules=rules, alphabet=frozenset({"a"}))


@pytest.mark.parametrize("guards,count", [
    (((("<", 1),),), "0 rules"),  # gap from x = 1 on
    (((("<", 1),), (("<=", 1),)), "2 rules"),  # overlap below x = 1
    # a gap in [1, 2) at a q0 that can still reach qf
    (((("<", 1),), ((">=", 2), "qf")), "0 rules"),
])
def test_unvalidated_dta_step_is_refused(guards, count):
    """Where the delayed valuation's region enables no rule or several,
    the loop raises select_rule's error, naming location and signature.
    Without a rule to qf, q0 is hopeless, so the error comes from a first
    step only."""
    chain = Ctmc(states=("w",), transition=((F(1),),), exit_rates=(F(1),),
                 labeling=("a",))
    dta = _one_clock_dta(*guards)
    for estimator in (mc.estimate_k, oracles.estimate_k):
        with pytest.raises(ModelIntegrityError,
                           match=rf"{count} enabled at \(q0,a\)"):
            estimator(chain, dta, "w", "q0", (0.0,), k=50, n=50, seed=1)


def test_exact_estimator_needs_no_region_enumeration(unit_deadline):
    """The exact k-step estimator asks select_rule once per region met, so
    it runs, like the one-trial loop, where build_graph refuses."""
    chain, _ = unit_deadline
    clocks = 5
    below = [Constraint(i, "<=", 3) for i in range(clocks)]
    # total and deterministic: on a, the first clock past 3 is reset, and
    # with none past 3 the run accepts; on b it stays
    rules = tuple(
        Rule("q0", "a", Guard(tuple(below[:i]) + (Constraint(i, ">", 3),)),
             frozenset({i}), "q0")
        for i in range(clocks)
    ) + (Rule("q0", "a", Guard(tuple(below)), frozenset(), "qf"),
         Rule("q0", "b", Guard(()), frozenset(), "q0"))
    dta = Dta(locations=("q0", "qf"), final=frozenset({"qf"}),
              clocks=tuple(f"x{i}" for i in range(clocks)), rules=rules,
              alphabet=frozenset({"a", "b"}))
    assert not size_report(chain, dta).ok
    # accepted when the first sojourn is at most 0.5
    start = ("s", "q0", (2.5, 0.25, 1.75, 0.0, 0.5))
    started = time.perf_counter()
    est = mc.estimate_k(chain, dta, *start, k=3, n=200, seed=2)
    assert time.perf_counter() - started < 1.0
    assert est == oracles.estimate_k(chain, dta, *start, k=3, n=200, seed=2)
    assert 0 < est.accepted < 200


def test_dead_check_tells_chain_states_apart():
    """Leaving s moves on to t or d at the same location and clock region;
    (t, q0) accepts at the next step while (d, q0) is dead, so the dead
    check must not carry one state's class over to the other."""
    chain = Ctmc(
        states=("s", "t", "d"),
        transition=((F(0), F(1, 2), F(1, 2)), (F(0), F(1), F(0)),
                    (F(0), F(0), F(1))),
        exit_rates=(F(1), F(1), F(1)),
        labeling=("a", "b", "c"),
    )
    rules = tuple(Rule("q0", "a", Guard((Constraint(0, op, 1),)), frozenset(),
                       "q0") for op in ("<", ">="))
    rules += (Rule("q0", "b", Guard(), frozenset(), "qf"),
              Rule("q0", "c", Guard(), frozenset(), "q0"))
    rules += tuple(Rule("qf", a, Guard(), frozenset(), "qf") for a in "abc")
    dta = Dta(locations=("q0", "qf"), final=frozenset({"qf"}), clocks=("x",),
              rules=rules, alphabet=frozenset("abc"))
    graph = build_graph(chain, dta)
    for seed in (1, 2, 3):
        runs = dict(n=300, seed=seed)
        est = mc.estimate(chain, dta, graph, "s", "q0", (0.0,), **runs)
        assert est == oracles.estimate(chain, dta, graph, "s", "q0", (0.0,),
                                       **runs)
        assert est.censored == 0
        assert est.accepted + est.dead_absorbed == 300
