"""Acceptance probabilities of CTMC paths under multi-clock deterministic
timed automata, approximated by a grid fixed-point scheme with a
computable error bound, cross-checked by Monte Carlo simulation."""

from .dynamics import Configuration, accepted_within, kappa, select_rule
from .mc import Estimate, RngStream, estimate, estimate_k
from .models import (
    Ctmc,
    Dta,
    Guard,
    ModelConstants,
    Rational,
    Rule,
    ValidationReport,
    deadlock_repair,
    model_constants,
    rational,
    validate_ctmc,
    validate_dta,
)
from .modelio import parse_model, parse_model_text, serialize_model
from .product import ProductGraph, ProductVertex, build_graph, classify, contraction_constant
from .scheme import (
    Grid,
    SchemeSystem,
    assemble_gamma_double,
    assemble_gamma_prime,
    build_grid,
    scaled_error_constants,
)
from .solver import (
    ApproxResult,
    ErrorReport,
    Solution,
    approximate,
    error_report,
    prob_from_distribution,
    solve,
)

__version__ = "0.1.0"
