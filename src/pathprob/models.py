"""Model types: labelled CTMCs, deterministic timed automata, validation.

All probabilities, rates and guard data are exact rationals
(`fractions.Fraction`); floating point enters only in the numerical solver
and in error-bound reporting.  Validation never repairs a model silently:
it returns itemized diagnostics and leaves repair to explicit calls.
Determinism and totality of an automaton are decided together from one
table of the rules enabled at a representative valuation of every clock
region, :func:`region_rules`, built once per automaton and read by the
product graph too; each gap or overlap names such a representative as its
witness, and a rule listed twice is an overlap.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import FrozenSet, List, NamedTuple, Sequence, Tuple

from . import regions

Rational = Fraction
LONGEST_LOG_UNIFORM = 53 * math.log(2)  # -ln of the least uniform, 2^-53


def rational(value) -> Fraction:
    """Parse an exact rational from a string ("1/3", "0.25"), int or Fraction.
    A bool is refused, although Python counts it as an int."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _refuse_duplicates(kind: str, names: Sequence[str]) -> None:
    """Raise ``ValueError`` naming every ``kind`` name listed twice or more."""
    repeated = sorted(n for n, count in Counter(names).items() if count > 1)
    if repeated:
        raise ValueError(f"duplicate {kind} names: {repeated}")


class ModelIntegrityError(RuntimeError):
    """An operation hit a state that a validated model cannot produce."""


@dataclass(frozen=True)
class ValidationReport:
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(self.violations)


# ---------------------------------------------------------------------------
# CTMC


@dataclass(frozen=True)
class Ctmc:
    """Finite labelled continuous-time Markov chain.

    ``transition[i][j]`` is the jump probability from state i to state j,
    ``exit_rates[i]`` the exponential sojourn rate and ``labeling[i]`` the
    observable label of state i.  Rows must sum to one and rates must be
    positive for the chain to validate; construction itself only checks
    shapes so that repairable inputs (for example deadlock states with rate
    zero) can be represented.
    """

    states: Tuple[str, ...]
    transition: Tuple[Tuple[Fraction, ...], ...]
    exit_rates: Tuple[Fraction, ...]
    labeling: Tuple[str, ...]

    def __post_init__(self):
        n = len(self.states)
        _refuse_duplicates("state", self.states)
        if len(self.transition) != n or any(len(r) != n for r in self.transition):
            raise ValueError("transition matrix shape does not match states")
        if len(self.exit_rates) != n or len(self.labeling) != n:
            raise ValueError("rates/labeling length does not match states")

    @property
    def labels(self) -> FrozenSet[str]:
        return frozenset(self.labeling)

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise KeyError(f"unknown state {name!r}") from None


def validate_ctmc(chain: Ctmc) -> ValidationReport:
    """Check stochasticity of every row and positivity of every rate, also
    as the positive finite float that the solver and simulator use, and
    that the longest sojourn the simulator can draw, ``53 ln 2 / rate``
    (from a uniform of 2^-53), is a finite float."""
    problems: List[str] = []
    for i, name in enumerate(chain.states):
        row = chain.transition[i]
        for j, p in enumerate(row):
            if p < 0 or p > 1:
                problems.append(
                    f"P({name},{chain.states[j]}) = {p} is outside [0,1]"
                )
        total = sum(row)
        if total != 1:
            problems.append(f"row {name} sums to {total}")
        rate = chain.exit_rates[i]
        if rate <= 0:
            problems.append(f"state {name}: rate must be positive")
        elif rate > sys.float_info.max or float(rate) == 0.0:
            problems.append(f"state {name}: rate is not a positive finite float")
        elif not math.isfinite(LONGEST_LOG_UNIFORM / float(rate)):
            problems.append(f"state {name}: rate {float(rate)!r} is so small that "
                            f"a sojourn overflows the float range")
    return ValidationReport(tuple(problems))


def deadlock_repair(chain: Ctmc, rate: Fraction = Fraction(1)) -> Ctmc:
    """Give every zero-rate state the configured rate and a self-loop.

    States with positive rates are untouched; if nothing needs repair the
    input is returned as is.
    """
    if rate <= 0:
        raise ValueError("repair rate must be positive")
    if all(r != 0 for r in chain.exit_rates):
        return chain
    n = len(chain.states)
    rates = list(chain.exit_rates)
    rows = [list(r) for r in chain.transition]
    for i in range(n):
        if rates[i] == 0:
            rates[i] = rate
            rows[i] = [Fraction(0)] * n
            rows[i][i] = Fraction(1)
    return Ctmc(
        states=chain.states,
        transition=tuple(tuple(r) for r in rows),
        exit_rates=tuple(rates),
        labeling=chain.labeling,
    )


# ---------------------------------------------------------------------------
# Guards and DTA


class Constraint(NamedTuple):
    clock: int
    op: str  # one of < <= > >=
    bound: int


@dataclass(frozen=True)
class Guard:
    """Conjunction of single-clock bounds against natural-number constants."""

    terms: Tuple[Constraint, ...] = ()

    def __post_init__(self):
        for t in self.terms:
            if t.op not in regions.RELATIONS:
                raise ValueError(f"unknown relation {t.op!r}")
            if t.bound < 0 or t.bound != int(t.bound):
                raise ValueError(f"guard constant {t.bound!r} must be a natural")

    def render(self, clock_names: Sequence[str]) -> str:
        if not self.terms:
            return "true"
        return " & ".join(
            f"{clock_names[t.clock]}{t.op}{t.bound}" for t in self.terms
        )


class Rule(NamedTuple):
    source: str
    signature: str
    guard: Guard
    resets: FrozenSet[int]
    target: str


def the_enabled_rule(enabled: Sequence[Rule], location: str, signature: str,
                     valuation: Sequence) -> Rule:
    """The one rule of ``enabled``, the rules of (location, signature)
    enabled at ``valuation``; no rule or several is a
    :class:`ModelIntegrityError`, which a validated automaton never
    raises.  Rule selection and the product graph both decide here."""
    if len(enabled) != 1:
        raise ModelIntegrityError(
            f"{len(enabled)} rules enabled at ({location},{signature}) for "
            f"valuation {tuple(valuation)}; the automaton is not "
            f"deterministic+total"
        )
    return enabled[0]


@dataclass(frozen=True)
class Dta:
    """Deterministic timed automaton over single-clock conjunctive guards.

    ``ceilings[i]`` is the largest constant any guard puts on clock i (zero
    when the clock is unconstrained); values above it are interchangeable
    for every guard.  Determinism and totality are not enforced here, they
    are decided exactly by :func:`validate_dta`.
    """

    locations: Tuple[str, ...]
    final: FrozenSet[str]
    clocks: Tuple[str, ...]
    rules: Tuple[Rule, ...]
    alphabet: FrozenSet[str]
    ceilings: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        _refuse_duplicates("location", self.locations)
        _refuse_duplicates("clock", self.clocks)
        unknown = self.final - set(self.locations)
        if unknown:
            raise ValueError(f"final locations {sorted(unknown)} not declared")
        ceilings = [0] * len(self.clocks)
        for rule in self.rules:
            for term in rule.guard.terms:
                if not 0 <= term.clock < len(self.clocks):
                    raise ValueError(
                        f"rule {rule.source}--{rule.signature}--> references "
                        f"clock #{term.clock}"
                    )
                ceilings[term.clock] = max(ceilings[term.clock], term.bound)
            for c in rule.resets:
                if not 0 <= c < len(self.clocks):
                    raise ValueError(f"reset of unknown clock #{c}")
        object.__setattr__(self, "ceilings", tuple(ceilings))

    @property
    def t_max(self) -> int:
        return max(self.ceilings, default=0)

    def rules_from(self, location: str, signature: str) -> Tuple[Rule, ...]:
        return tuple(
            r
            for r in self.rules
            if r.source == location and r.signature == signature
        )

    def zero_valuation(self) -> regions.ClockValuation:
        return tuple(Fraction(0) for _ in self.clocks)


class RegionRules(NamedTuple):
    """The clock regions of an automaton and the rules enabled in each."""

    codes: Tuple[regions.RegionCode, ...]
    representatives: Tuple[regions.ClockValuation, ...]
    enabled: Tuple[Tuple[Tuple[Tuple[Rule, ...], ...], ...], ...]


@lru_cache(maxsize=8)
def region_rules(dta: Dta) -> RegionRules:
    """The regions of the automaton's ceilings, in
    :func:`regions.enumerate_region_codes` order, one representative
    valuation of each, and the rules enabled there as ``enabled[q][a][r]``.

    ``q`` numbers ``dta.locations``, ``a`` the sorted alphabet and ``r``
    the regions.  Each entry is the tuple of rules of that (location,
    signature), in rule order, whose guard holds at the representative.
    Guard constants never exceed the ceilings, so guard satisfaction is
    constant on every region (Alur & Dill, 1994) and the entry holds for
    the whole region.  This is the one place where regions are enumerated
    and guards evaluated over them; the result is cached per automaton,
    and validation and the product graph both read it.
    """
    codes = tuple(regions.enumerate_region_codes(dta.ceilings))
    reps = tuple(regions.region_representative(c, dta.ceilings) for c in codes)
    enabled = tuple(
        tuple(
            tuple(tuple(rule for rule in group
                        if regions.guard_sat(rep, rule.guard))
                  for rep in reps)
            for group in (dta.rules_from(q, a) for a in sorted(dta.alphabet))
        )
        for q in dta.locations
    )
    return RegionRules(codes, reps, enabled)


def validate_dta(dta: Dta) -> ValidationReport:
    """Decide determinism and totality exactly, from the enabled-rule table.

    Exactly one rule of each (location, signature) must be enabled at every
    region of :func:`region_rules`, the above-ceiling faces included,
    which is what :func:`pathprob.dynamics.select_rule` demands of every
    step.  No enabled rule is a gap, two or more an overlap, even between
    identical rules; each (location, signature, set of enabled rules) is
    reported once, with the representative of the first region where it
    occurs as the witness.
    """
    problems: List[str] = []
    for rule in dta.rules:
        if rule.source not in dta.locations:
            problems.append(f"rule from unknown location {rule.source!r}")
        if rule.target not in dta.locations:
            problems.append(f"rule to unknown location {rule.target!r}")
        if rule.signature not in dta.alphabet:
            problems.append(f"rule signature {rule.signature!r} not in alphabet")
    if problems:
        return ValidationReport(tuple(problems))

    _, representatives, table = region_rules(dta)
    for q, per_label in zip(dta.locations, table):
        for a, per_region in zip(sorted(dta.alphabet), per_label):
            reported = set()
            for rep, enabled in zip(representatives, per_region):
                if len(enabled) == 1 or enabled in reported:
                    continue
                reported.add(enabled)
                rendered = ", ".join(
                    f"{n}={v}" for n, v in zip(dta.clocks, rep)
                )
                if not enabled:
                    problems.append(
                        f"no rule enabled for ({q},{a}) at {rendered}"
                    )
                else:
                    clashing = " and ".join(
                        f"({q},{a},{rule.guard.render(dta.clocks)})"
                        for rule in enabled
                    )
                    problems.append(
                        f"rules {clashing} overlap, witness {rendered}"
                    )
    return ValidationReport(tuple(problems))


# ---------------------------------------------------------------------------
# Paired model constants


@dataclass(frozen=True)
class ModelConstants:
    lambda_max: Fraction
    lambda_min: Fraction
    p_min: Fraction
    t_max: int
    clock_count: int

    def __post_init__(self):
        if self.lambda_min <= 0:
            raise ValueError("rates must be positive")
        if not 0 < self.p_min <= 1:
            raise ValueError("p_min must lie in (0,1]")
        if self.t_max < 0:
            raise ValueError("t_max must be non-negative")


def pairing_report(chain: Ctmc, dta: Dta) -> ValidationReport:
    """The alphabet of the automaton must equal the label set of the chain."""
    if dta.alphabet != chain.labels:
        return ValidationReport(
            (
                f"alphabet {sorted(dta.alphabet)} differs from CTMC labels "
                f"{sorted(chain.labels)}",
            )
        )
    return ValidationReport()


def check_start(chain: Ctmc, dta: Dta, state: str, location: str,
                valuation: Sequence) -> None:
    """Raise ValueError naming an unknown state or location, or a valuation
    that is not one non-negative value per clock."""
    if state not in chain.states:
        raise ValueError(f"unknown state {state!r}")
    if location not in dta.locations:
        raise ValueError(f"unknown location {location!r}")
    if len(valuation) != len(dta.clocks):
        raise ValueError(
            f"valuation has {len(valuation)} clocks, automaton has {len(dta.clocks)}"
        )
    for name, v in zip(dta.clocks, valuation):
        if not v >= 0:
            raise ValueError(f"clock {name!r} is {v}, want a non-negative value")


def model_constants(chain: Ctmc, dta: Dta) -> ModelConstants:
    """Exact extremal rates, minimum positive jump probability and ceilings."""
    positive = [p for row in chain.transition for p in row if p > 0]
    if not positive:
        raise ModelIntegrityError("transition matrix has no positive entry")
    return ModelConstants(
        lambda_max=max(chain.exit_rates),
        lambda_min=min(chain.exit_rates),
        p_min=min(positive),
        t_max=dta.t_max,
        clock_count=len(dta.clocks),
    )
