import pathlib
from fractions import Fraction

import pytest

from pathprob import modelio
from pathprob.models import Constraint, Ctmc, Dta, Guard, Rule
from pathprob.product import build_graph

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODELS = ROOT / "models"


@pytest.fixture(scope="session")
def unit_deadline():
    """Single clock: jump to the goal state before one time unit."""
    return modelio.parse_model(str(MODELS / "unit_deadline.json"))


@pytest.fixture(scope="session")
def exposure_window():
    """Two clocks: reach the goal before one time unit while every unbroken
    stay in the unsafe state lasts less than one time unit."""
    return modelio.parse_model(str(MODELS / "exposure_window.json"))


@pytest.fixture(scope="session")
def three_clock():
    """Three clocks that all bind: ``exposure_window``'s chain, where s
    resets y while z < 1, u resets z while y < 1, and g accepts, all
    before x reaches two."""
    return modelio.parse_model(str(MODELS / "three_clock.json"))


@pytest.fixture(scope="session")
def departure():
    """Single state, single clock, accepting once the clock passed one.

    Every region is alive and the all-ceilings grid point is an unknown, so
    this covers the boundary-row code path (the two shipped models have a
    dead ceiling).  The acceptance probability is one everywhere.
    """
    chain = Ctmc(
        states=("w",),
        transition=((Fraction(1),),),
        exit_rates=(Fraction(1),),
        labeling=("a",),
    )
    dta = Dta(
        locations=("q0", "qf"),
        final=frozenset({"qf"}),
        clocks=("x",),
        rules=(
            Rule("q0", "a", Guard((Constraint(0, "<", 1),)), frozenset(), "q0"),
            Rule("q0", "a", Guard((Constraint(0, ">=", 1),)), frozenset(), "qf"),
            Rule("qf", "a", Guard(), frozenset(), "qf"),
        ),
        alphabet=frozenset({"a"}),
    )
    return chain, dta


@pytest.fixture(scope="session")
def reset_loop():
    """Single clock, reset by a loop rule, so the grid graph has cycles
    through different points and the solver must fall back to sweeps.

    Leaving s before the clock reaches one resets it and moves on to s or
    d with probability 1/2 each; leaving s later accepts, and leaving d
    traps the run.  The acceptance probability from x = 0 is
    2e^-1 / (1 + e^-1).
    """
    half = Fraction(1, 2)
    chain = Ctmc(
        states=("s", "d"),
        transition=((half, half), (Fraction(0), Fraction(1))),
        exit_rates=(Fraction(1), Fraction(1)),
        labeling=("a", "b"),
    )
    dta = Dta(
        locations=("q0", "qf", "qsink"),
        final=frozenset({"qf"}),
        clocks=("x",),
        rules=(
            Rule("q0", "a", Guard((Constraint(0, "<", 1),)), frozenset({0}), "q0"),
            Rule("q0", "a", Guard((Constraint(0, ">=", 1),)), frozenset(), "qf"),
            Rule("q0", "b", Guard(), frozenset(), "qsink"),
        ) + tuple(Rule(q, a, Guard(), frozenset(), q)
                  for q in ("qf", "qsink") for a in "ab"),
        alphabet=frozenset({"a", "b"}),
    )
    return chain, dta


@pytest.fixture(scope="session")
def unit_graph(unit_deadline):
    return build_graph(*unit_deadline)


@pytest.fixture(scope="session")
def exposure_graph(exposure_window):
    return build_graph(*exposure_window)


@pytest.fixture(scope="session")
def departure_graph(departure):
    return build_graph(*departure)


@pytest.fixture(scope="session")
def reset_loop_graph(reset_loop):
    return build_graph(*reset_loop)
