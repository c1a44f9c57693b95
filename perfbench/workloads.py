"""Workloads of the benchmark: what one cold query is, how its answer is
checked, and which pathprob functions the traced run wraps.

Every query runs in-process, one at a time (a closed loop with a single
client).  "Cold" means every ``functools.lru_cache`` in the package is
emptied first, which is the state a fresh ``pathprob`` process starts in.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from tracing import PACKAGE, Target, Tracer, package_modules

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())
REF = SPEC["references"]

EXPOSURE = "models/exposure_window.json"
UNIT = "models/unit_deadline.json"

SOLVE_ARGV = ["solve", "--model", EXPOSURE, "--state", "a", "--location", "q0",
              "--valuation", "x=0,y=0", "--grid", "64"]
ACCURACY_ARGV = ["solve", "--model", UNIT, "--state", "s", "--location", "q0",
                 "--valuation", "x=0", "--epsilon", "1e-5", "--force-empirical"]
MC_START = ("a", "q0", (0.0, 0.0))
MC_TRIALS = 5000
# Acceptance needs the goal within one time unit; at the top exit rate 3,
# more than 16 jumps in that time has probability ~2e-8, so the 16-step
# estimate is checked against the same grid reference as the unbounded one.
MC_K = 16
# Two-sided 5-sigma checks fail by chance with probability 5.7e-7 each.
MC_Z = 5.0


def module(name: str):
    return importlib.import_module(f"{PACKAGE}.{name}")


def model_path(relative: str) -> str:
    return str(ROOT / relative)


def clear_caches() -> None:
    """Empty every lru_cache bound at module level in the package."""
    for mod in package_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def purge_package() -> None:
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]


@dataclass
class Context:
    """Inputs of one run, made from its seed, and the set-up products."""

    seed: int
    model: str
    chain: object = None
    dta: object = None
    graph: object = None
    parts: Dict[str, List[float]] = field(default_factory=dict)

    def timed(self, part: str, fn: Callable[[], object]):
        """Call ``fn`` and add its wall time to the samples of ``part``."""
        started = time.perf_counter()
        result = fn()
        self.parts.setdefault(part, []).append(time.perf_counter() - started)
        return result


# ---------------------------------------------------------------------------
# set-up: what every command repeats before it can answer


def setup(ctx: Context, reimport: bool) -> None:
    """Import the package, parse and validate the model, build and
    classify the product graph."""
    if reimport:
        purge_package()
    importlib.import_module(f"{PACKAGE}.cli")
    ctx.chain, ctx.dta = module("modelio").parse_model(model_path(ctx.model))
    ctx.graph = module("product").build_graph(ctx.chain, ctx.dta)
    ctx.graph.classes()


# ---------------------------------------------------------------------------
# queries and their checks


def run_cli(argv: List[str]) -> dict:
    argv = [model_path(a) if a.startswith("models/") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = module("cli").cli_main(argv)
    if code != 0:
        raise RuntimeError(f"pathprob {' '.join(argv)} exited with {code}")
    return json.loads(out.getvalue())  # the document may hold Infinity


def solve_query(ctx: Context) -> dict:
    return run_cli(SOLVE_ARGV)


def accuracy_query(ctx: Context) -> dict:
    return run_cli(ACCURACY_ARGV)


def simulate_query(ctx: Context):
    """The absorbing estimate (the simulate path), then the exact k-step
    estimate, from the same seed; each part is timed on its own."""
    mc = module("mc")
    state, location, eta = MC_START
    est = ctx.timed("estimate_s", lambda: mc.estimate(
        ctx.chain, ctx.dta, ctx.graph, state, location, eta,
        n=MC_TRIALS, seed=ctx.seed))
    est_k = ctx.timed("estimate_k_s", lambda: mc.estimate_k(
        ctx.chain, ctx.dta, state, location, eta,
        k=MC_K, n=MC_TRIALS, seed=ctx.seed))
    return est, est_k


def check_solve(doc: dict) -> List[str]:
    problems = []
    gap = abs(doc["probability"] - REF["exposure_m64"])
    if not gap <= REF["solve_tolerance"]:
        problems.append(f"probability {doc['probability']!r} is {gap:.3g} from "
                        f"the reference {REF['exposure_m64']!r}")
    if not doc["residual"] < REF["residual_limit"]:
        problems.append(f"residual {doc['residual']!r} not below {REF['residual_limit']}")
    if not math.isfinite(doc.get("empirical_error_estimate") or math.nan):
        problems.append(f"empirical estimate {doc.get('empirical_error_estimate')!r} not finite")
    return problems


def check_accuracy(doc: dict) -> List[str]:
    exact = 1.0 - math.exp(-1.0)
    gap = abs(doc["probability"] - exact)
    if not gap <= REF["epsilon"]:
        return [f"probability {doc['probability']!r} is {gap:.3g} from 1 - e^-1, "
                f"more than epsilon {REF['epsilon']}"]
    return []


def mc_allowance(n: int) -> float:
    """Half-width the Monte Carlo estimate must fall in around the grid
    reference: MC_Z binomial standard errors plus the grid's own error,
    taken as twice the m = 64 / m = 128 gap."""
    p = REF["exposure_m64"]
    grid_error = 2.0 * abs(REF["exposure_m128"] - p)
    return MC_Z * math.sqrt(p * (1.0 - p) / n) + grid_error


def check_estimate(est, absorbing: bool) -> List[str]:
    problems = []
    if est.n != MC_TRIALS:
        problems.append(f"ran {est.n} trials, asked for {MC_TRIALS}")
    if est.censored != 0:
        problems.append(f"{est.censored} censored trials")
    if absorbing and est.accepted + est.dead_absorbed != est.n:
        problems.append(f"accepted {est.accepted} + absorbed {est.dead_absorbed} != n {est.n}")
    gap = abs(est.p_hat - REF["exposure_m64"])
    if not gap <= mc_allowance(est.n):
        problems.append(f"p_hat {est.p_hat!r} is {gap:.3g} from the grid reference, "
                        f"beyond {mc_allowance(est.n):.3g}")
    return problems


def check_simulate(answer) -> List[str]:
    est, est_k = answer
    return ([f"estimate: {p}" for p in check_estimate(est, absorbing=True)]
            + [f"estimate_k: {p}" for p in check_estimate(est_k, absorbing=False)])


def doc_fingerprint(doc: dict) -> tuple:
    return tuple(sorted((k, repr(v)) for k, v in doc.items() if k != "timing"))


def simulate_fingerprint(answer) -> tuple:
    return tuple((e.n, e.accepted, e.dead_absorbed, e.censored, e.k_max)
                 for e in answer)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    query: Callable[[Context], object]
    check: Callable[[object], List[str]]
    fingerprint: Callable[[object], tuple]
    # figures printed under their own names: (name, unit, sample series,
    # trials per query or None); with trials the figure is trials per second
    aliases: tuple
    # whether the query parses and builds the graph itself (the CLI does)
    query_does_setup: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("solve_2clock", EXPOSURE, solve_query, check_solve,
                 doc_fingerprint, (("solve_s", "s", "query_s", None),), True),
        Workload("accuracy_1clock", UNIT, accuracy_query, check_accuracy,
                 doc_fingerprint,
                 (("time_to_accuracy_s", "s", "query_s", None),), True),
        Workload("simulate_2clock", EXPOSURE, simulate_query, check_simulate,
                 simulate_fingerprint,
                 (("mc_trials_per_s", "1/s", "estimate_s", MC_TRIALS),
                  ("mc_k_trials_per_s", "1/s", "estimate_k_s", MC_TRIALS)), False),
    )
}


def command(workload: Workload, ctx: Context):
    """One whole cold command as a fresh process runs it: the query, with
    parsing and graph building in front unless the query does them."""
    if not workload.query_does_setup:
        setup(ctx, reimport=False)
    return workload.query(ctx)


# ---------------------------------------------------------------------------
# trace targets and the counters their results feed


def _on_graph(t: Tracer, args, graph) -> None:
    t.counts["product.vertices"] += graph.vertex_count


def _on_grid(t: Tracer, args, grid) -> None:
    t.counts["scheme.grids_built"] += 1
    t.counts["scheme.grid_cells"] += grid.d_m_size


def _on_system(t: Tracer, args, system) -> None:
    t.counts["scheme.unknowns"] += system.size
    t.counts["scheme.nnz"] += len(system.data)


def _on_solution(t: Tracer, args, solution) -> None:
    t.counts["solver.sweeps"] += solution.sweeps
    t.note_max("solver.final_residual", float(solution.residual))


def _kernel_pass(t: Tracer, args, writes_x: bool) -> None:
    """Arithmetic and memory traffic of one pass over the CSR matrix,
    computed from the array sizes, not measured."""
    arrays = [a for a in args if hasattr(a, "nbytes")]
    data, x = args[2], args[4]
    t.counts["kernels.flops_computed"] += 2 * len(data)
    t.counts["kernels.bytes_computed"] += sum(a.nbytes for a in arrays) + (
        x.nbytes if writes_x else 0)


def _on_sweep(t: Tracer, args, result) -> None:
    _kernel_pass(t, args, writes_x=True)


def _on_residual(t: Tracer, args, result) -> None:
    _kernel_pass(t, args, writes_x=False)


def _on_estimate(t: Tracer, args, est) -> None:
    t.counts["mc.trials"] += est.n
    t.counts["mc.accepted"] += est.accepted
    t.counts["mc.dead_absorbed"] += est.dead_absorbed
    t.counts["mc.censored"] += est.censored


TARGETS = (
    Target("modelio.parse_model", f"{PACKAGE}.modelio", "parse_model"),
    Target("product.build_graph", f"{PACKAGE}.product", "build_graph",
           on_result=_on_graph),
    Target("scheme.build_grid", f"{PACKAGE}.scheme", "build_grid",
           on_result=_on_grid),
    Target("scheme.assemble_gamma_prime", f"{PACKAGE}.scheme",
           "assemble_gamma_prime", on_result=_on_system),
    Target("solver.solve", f"{PACKAGE}.solver", "solve", on_result=_on_solution),
    Target("kernels.gauss_seidel_sweep", f"{PACKAGE}.kernels",
           "gauss_seidel_sweep", on_result=_on_sweep),
    Target("kernels.max_residual", f"{PACKAGE}.kernels", "max_residual",
           on_result=_on_residual),
    Target("mc.estimate", f"{PACKAGE}.mc", "estimate", on_result=_on_estimate),
    Target("mc.estimate_k", f"{PACKAGE}.mc", "estimate_k", on_result=_on_estimate),
    Target("mc.trial_rng", f"{PACKAGE}.mc", "RngStream.trial_rng"),
    # only the calls the simulator makes; the grid calls them far more often
    Target("mc.region_of", f"{PACKAGE}.mc", "region_of", everywhere=False),
    Target("mc.select_rule", f"{PACKAGE}.mc", "select_rule", everywhere=False),
)

# per-layer metric -> (kind, spans that feed it); kind is "self" (self
# seconds of the first span), "calls" (calls of the first span), "count" (a
# counter of the same name) or "max".  A metric is absent when every span
# that feeds it is absent.
_EST = ("mc.estimate", "mc.estimate_k")
_KERNELS = ("kernels.gauss_seidel_sweep", "kernels.max_residual")
LAYER_SOURCES = {
    "modelio.parse_s": ("self", ("modelio.parse_model",)),
    "product.build_graph_s": ("self", ("product.build_graph",)),
    "product.vertices": ("count", ("product.build_graph",)),
    "scheme.build_grid_s": ("self", ("scheme.build_grid",)),
    "scheme.assemble_s": ("self", ("scheme.assemble_gamma_prime",)),
    "scheme.grids_built": ("count", ("scheme.build_grid",)),
    "scheme.grid_cells": ("count", ("scheme.build_grid",)),
    "scheme.unknowns": ("count", ("scheme.assemble_gamma_prime",)),
    "scheme.nnz": ("count", ("scheme.assemble_gamma_prime",)),
    "solver.solve_s": ("self", ("solver.solve",)),
    "solver.sweeps": ("count", ("solver.solve",)),
    "solver.final_residual": ("max", ("solver.solve",)),
    "kernels.sweep_s": ("self", ("kernels.gauss_seidel_sweep",)),
    "kernels.sweep_calls": ("calls", ("kernels.gauss_seidel_sweep",)),
    "kernels.residual_s": ("self", ("kernels.max_residual",)),
    "kernels.flops_computed": ("count", _KERNELS),
    "kernels.bytes_computed": ("count", _KERNELS),
    "mc.estimate_s": ("self", ("mc.estimate",)),
    "mc.estimate_k_s": ("self", ("mc.estimate_k",)),
    "mc.trials": ("count", _EST),
    "mc.accepted": ("count", _EST),
    "mc.dead_absorbed": ("count", _EST),
    "mc.censored": ("count", _EST),
    "mc.steps": ("calls", ("mc.select_rule",)),
    "mc.rng_s": ("self", ("mc.trial_rng",)),
    "regions.region_of_s": ("self", ("mc.region_of",)),
    "regions.region_of_calls": ("calls", ("mc.region_of",)),
    "dynamics.select_rule_s": ("self", ("mc.select_rule",)),
    "dynamics.select_rule_calls": ("calls", ("mc.select_rule",)),
}

# counts that must repeat exactly between queries of one run
EXACT = (
    "product.vertices", "scheme.grids_built", "scheme.grid_cells",
    "scheme.unknowns", "scheme.nnz", "solver.sweeps", "solver.cache_hits",
    "solver.cache_misses", "kernels.sweep_calls", "kernels.flops_computed",
    "kernels.bytes_computed", "mc.trials", "mc.accepted", "mc.dead_absorbed",
    "mc.censored", "mc.steps", "regions.region_of_calls",
    "dynamics.select_rule_calls",
)


def layer_values(tracer: Tracer, absent: List[str]) -> Dict[str, Optional[float]]:
    """Per-layer values of one traced command; None marks an absent layer."""
    gone = set(absent) | tracer.hook_errors
    values: Dict[str, Optional[float]] = {}
    for metric, (kind, sources) in LAYER_SOURCES.items():
        if all(s in gone for s in sources):
            values[metric] = None
        elif kind == "self":
            values[metric] = tracer.self_time.get(sources[0], 0.0)
        elif kind == "calls":
            values[metric] = tracer.calls.get(sources[0], 0)
        elif kind == "max":
            values[metric] = tracer.maxima.get(metric, 0.0)
        else:
            values[metric] = tracer.counts.get(metric, 0)
    trials, steps = values["mc.trials"], values["mc.steps"]
    values["mc.steps_per_trial"] = (
        None if trials is None or steps is None else steps / trials if trials else 0.0)
    values["mc.resolved_ratio"] = (
        None if trials is None else
        (values["mc.accepted"] + values["mc.dead_absorbed"]) / trials if trials else 0.0)
    calls = values["kernels.sweep_calls"]
    values["kernels.sweep_pass_s"] = (
        None if calls is None else values["kernels.sweep_s"] / calls if calls else 0.0)
    return values


def cache_stats() -> Dict[str, Optional[int]]:
    """Hits and misses of the solver's grid-solution cache since it was
    last cleared; None when the cache no longer exists."""
    cached = getattr(module("solver"), "_solved", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return {"solver.cache_hits": None, "solver.cache_misses": None}
    info = info()
    return {"solver.cache_hits": info.hits, "solver.cache_misses": info.misses}
