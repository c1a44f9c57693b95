"""Automaton execution: rule selection, one-step transitions, acceptance.

Runs are never materialized beyond the requested horizon; acceptance
within k steps only ever touches a length-k prefix of a timed word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from . import regions
from .models import Dta, Rule, the_enabled_rule


@dataclass(frozen=True)
class Configuration:
    location: str
    valuation: tuple


def select_rule(dta: Dta, location: str, signature: str, eta: Sequence) -> Rule:
    """The unique rule enabled at (location, signature, eta).

    On a validated automaton exactly one rule matches; anything else is a
    model-integrity failure, not a user error, raised by
    :func:`models.the_enabled_rule` as the product graph raises it.
    """
    return the_enabled_rule(
        [r for r in dta.rules_from(location, signature)
         if regions.guard_sat(eta, r.guard)],
        location, signature, eta)


def kappa(
    dta: Dta, config: Configuration, signature: str, sojourn
) -> Configuration:
    """One step: delay, pick the unique enabled rule, jump and reset."""
    delayed = regions.delay(config.valuation, sojourn)
    rule = select_rule(dta, config.location, signature, delayed)
    return Configuration(rule.target, regions.reset(delayed, rule.resets))


def accepted_within(
    dta: Dta,
    config: Configuration,
    word: Sequence[Tuple[str, object]],
    k: int,
) -> bool:
    """True iff a final location is visited within the first k steps.

    The initial location counts as step zero, so a final starting location
    accepts regardless of the word.
    """
    if k < 0:
        raise ValueError("step bound must be non-negative")
    if len(word) < k:
        raise ValueError(f"word has {len(word)} signatures, need at least {k}")
    if config.location in dta.final:
        return True
    current = config
    for signature, sojourn in word[:k]:
        current = kappa(dta, current, signature, sojourn)
        if current.location in dta.final:
            return True
    return False
