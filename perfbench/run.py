"""pathprob benchmark: one workload, one process, one query at a time.

    python3 perfbench/run.py --workload solve_2clock --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run sets up SETUP_REPS times (``setup_s``), then
runs cold queries back to back until ``--seconds`` have passed
(``query_s``), and reports the medians and the process's peak memory
(``peak_rss_mb``).  With
``--trace 1`` it alternates an untraced and a traced whole command (set-up
included) and reports per-layer self times and counts, the share of the
command the layers cover and the tracing overhead.  Every answer is
checked; a failed check counts as a failed operation.  The last line of
standard output is the JSON result; the metric names and units come from
``BENCHMARK.json``.  ``--out FILE`` also writes the full record (samples,
environment stamp, spans of the first traced command) for
``perfbench/compare.py``.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # one client, at most one BLAS thread
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as wl  # noqa: E402
from tracing import (  # noqa: E402
    Tracer, patched, percentile, supported_percentile, traced_sites,
)

SETUP_REPS = 25


class Ledger:
    """Checks every answer of a run and counts failed operations.

    An answer whose fingerprint differs from the first one of the run is a
    failure too: the queries of one run have identical inputs, so a
    difference means nondeterminism, not noise.
    """

    def __init__(self, workload: wl.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._first = None

    def record(self, answer, error=None, extra=()) -> bool:
        self.attempted += 1
        problems = [error] if error else list(self.workload.check(answer))
        problems += extra
        if not error:
            fingerprint = self.workload.fingerprint(answer)
            if self._first is None:
                self._first = fingerprint
            elif fingerprint != self._first:
                problems.append("answer differs from the first query of this run")
        if problems:
            self.failed += 1
            self.problems += [f"query {self.attempted}: {p}" for p in problems]
        return not problems


def _attempt(fn):
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        return fn(), None
    except Exception as exc:  # noqa: BLE001 - the benchmark keeps measuring
        traceback.print_exc(file=sys.stderr)
        return None, f"{type(exc).__name__}: {exc}"


def _fresh() -> None:
    wl.clear_caches()
    gc.collect()


def _another(started: float, seconds: float, durations) -> bool:
    """Start another operation only if a typical one ends in time."""
    return time.perf_counter() - started + statistics.median(durations) <= seconds


def _timed_setup(ctx, setups) -> None:
    gc.collect()  # the previous import's modules are garbage by now
    started = time.perf_counter()
    wl.setup(ctx, reimport=True)
    setups.append(time.perf_counter() - started)


def run_untraced(workload, seed, seconds, ledger):
    """Set up SETUP_REPS times first, in the clean state a fresh process
    sets up in, then run cold queries until ``seconds`` have passed."""
    ctx = wl.Context(seed, workload.model)
    setups, queries = [], []
    for _ in range(SETUP_REPS):
        _timed_setup(ctx, setups)
    if traced_sites():
        raise RuntimeError(f"tracing wrappers still installed: {traced_sites()}")
    started = time.perf_counter()
    while True:
        _fresh()
        t0 = time.perf_counter()
        answer, error = _attempt(lambda: workload.query(ctx))
        queries.append(time.perf_counter() - t0)
        ledger.record(answer, error)
        if not _another(started, seconds, queries):
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"setup_s": setups, "query_s": queries, **ctx.parts}
    metrics = {
        "setup_s": statistics.median(setups),
        "query_s": statistics.median(queries),
        "peak_rss_mb": peak_mb,
    }
    return metrics, samples, {}


def traced_command(workload, ctx):
    """One cold command under tracing; returns its answer and error, its
    per-layer values, the wrapped functions that no longer exist, and the
    tracer."""
    tracer = Tracer()
    with patched(tracer, wl.TARGETS) as absent:
        with tracer.span("command"):
            answer, error = _attempt(lambda: wl.command(workload, ctx))
        caches = wl.cache_stats()
    values = wl.layer_values(tracer, absent)
    values.update(caches)
    total = tracer.spans[0][2] - tracer.spans[0][1]
    outside = tracer.self_time["command"]
    values["trace.command_s"] = total
    values["trace.unattributed_s"] = outside
    values["trace.coverage"] = 1.0 - outside / total
    return answer, error, values, absent, tracer


def run_traced(workload, seed, seconds, ledger):
    ctx = wl.Context(seed, workload.model)
    wl.setup(ctx, reimport=False)
    untraced, units, absent, spans, pairs = [], [], [], None, []
    started = time.perf_counter()
    while True:
        paired = time.perf_counter()
        _fresh()
        t0 = time.perf_counter()
        answer, error = _attempt(lambda: wl.command(workload, ctx))
        untraced.append(time.perf_counter() - t0)
        ledger.record(answer, error)
        _fresh()
        answer, error, values, absent, tracer = traced_command(workload, ctx)
        drift = [f"exact count {k} is {values[k]}, the first traced command had "
                 f"{units[0][k]}" for k in wl.EXACT if units and values[k] != units[0][k]]
        if ledger.record(answer, error, drift):
            units.append(values)
            spans = spans or tracer.spans
        pairs.append(time.perf_counter() - paired)
        if not _another(started, seconds, pairs):
            break
    metrics = aggregate_units(units)
    if units:
        metrics["trace.untraced_command_s"] = statistics.median(untraced)
        metrics["trace.overhead"] = (
            metrics["trace.command_s"] / metrics["trace.untraced_command_s"] - 1.0)
    samples = {"trace.untraced_command_s": untraced,
               "trace.command_s": [u["trace.command_s"] for u in units]}
    return metrics, samples, {"absent_targets": absent, "spans": spans or []}


def aggregate_units(units):
    """Median of each per-layer value over the traced commands of a run;
    None (absent) wins.  Exact counts were already held equal."""
    metrics = {}
    for name in units[0] if units else ():
        values = [u[name] for u in units]
        if None in values:
            metrics[name] = None
        else:
            metrics[name] = values[0] if name in wl.EXACT else statistics.median(values)
    return metrics


# ---------------------------------------------------------------------------
# environment stamp


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    """What a result depends on besides the code; compare.py refuses to
    compare results whose solver backend differs."""
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    try:
        backend = wl.module("kernels").BACKEND
    except (ImportError, AttributeError):
        backend = "absent"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "backend": backend,
        "PATHPROB_PURE_PYTHON": os.environ.get("PATHPROB_PURE_PYTHON", ""),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# reporting


def _describe(name, samples):
    values = samples.get(name)
    if not values:
        return ""
    text = f"median of {len(values)}"
    p = supported_percentile(len(values))
    if p is None:
        text += "; no percentile (needs >= 20 samples)"
    else:
        text += f"; p{p:g} {percentile(values, p)!r}"
    return text


def report(spec_metrics, metrics, samples, workload):
    """Human-readable lines, then the metric block of the result line."""
    out, absent = {}, []
    for entry in spec_metrics:
        name, unit = entry["name"], entry["unit"]
        value = metrics.get(name)
        if value is None:
            absent.append(name)
            value = 0
        out[name] = {"value": value, "unit": unit}
        print(f"{name:28} {value!r:>24} {unit:6} {_describe(name, samples)}")
    for alias, unit, series, trials in workload.aliases:
        if samples.get(series):
            seconds = statistics.median(samples[series])
            value = seconds if trials is None else trials / seconds
            print(f"{alias:28} {value!r:>24} {unit:6} (from the median {series})")
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}")
    return out, absent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pathprob" / "__init__.py").is_file():
        print(f"perfbench: no pathprob package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = wl.WORKLOADS[args.workload]
    ledger = Ledger(workload)
    run = run_traced if args.trace else run_untraced
    metrics, samples, extra = run(workload, args.seed, args.seconds, ledger)

    env = stamp()
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env " + json.dumps(env, sort_keys=True))
    spec_metrics = bench["per_layer" if args.trace else "end_to_end"]
    block, absent = report(spec_metrics, metrics, samples, workload)
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    print(f"checks: {ledger.attempted} attempted, {ledger.failed} failed")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": block,
    }
    if args.out:
        record = {
            "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "metrics": metrics, "absent": absent,
            "samples": samples, "problems": ledger.problems, "result": result,
            **extra,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
