"""Span tracing from outside the program, plus the small statistics the
benchmark reports.

A :class:`Tracer` records spans (name, start, end, parent) and per-name
self time, call counts and free-form counters.  :func:`patched` replaces
named pathprob functions with recording wrappers for the duration of a
``with`` block and restores the originals on exit, also when the block
raises.  A target that no longer exists is reported as absent instead of
failing the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence

PACKAGE = "pathprob"
MARK = "__perfbench_traced__"


class Tracer:
    """In-memory span recorder for one single-threaded unit of work.

    A span's self time is its duration minus the durations of its direct
    children; children of a single-threaded call never overlap, so that is
    exactly the part of the interval no child covers.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = {}
        self.hook_errors: set = set()
        self._open: List[list] = []  # [span index, seconds covered by children]

    def begin(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append([len(self.spans) - 1, 0.0])

    def end(self) -> None:
        index, covered = self._open.pop()
        span = self.spans[index]
        span[2] = self.clock()
        duration = span[2] - span[1]
        self.self_time[span[0]] += duration - covered
        self.calls[span[0]] += 1
        if self._open:
            self._open[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(value, self.maxima.get(key, value))


Hook = Callable[[Tracer, tuple, object], None]


@dataclass(frozen=True)
class Target:
    """A function to wrap, named by span.

    ``attr`` may be dotted (``"RngStream.trial_rng"``) to reach a method.
    With ``everywhere`` the wrapper also replaces every alias of the same
    function object in other pathprob modules (``from x import f`` copies
    the name), so calls are traced whichever module makes them.  Without
    it only the named module's binding is replaced, which traces just the
    calls that module makes.
    """

    span: str
    module: str
    attr: str
    everywhere: bool = True
    on_result: Optional[Hook] = None


def package_modules(package: str = PACKAGE) -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, vars(owner)[leaf]


def _wrapper(tracer: Tracer, target: Target, fn):
    name, hook = target.span, target.on_result

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if hook is not None:
            try:
                hook(tracer, args, result)
            except (AttributeError, TypeError, IndexError):
                tracer.hook_errors.add(name)
        return result

    setattr(traced, MARK, True)
    return traced


@contextlib.contextmanager
def patched(tracer: Tracer, targets: Sequence[Target]) -> Iterator[List[str]]:
    """Trace ``targets`` inside the block; yields the absent span names."""
    undo = []
    absent: List[str] = []
    try:
        for target in targets:
            try:
                owner, leaf, original = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                absent.append(target.span)
                continue
            wrapper = _wrapper(tracer, target, original)
            sites = [(owner, leaf)]
            if target.everywhere:
                sites += [
                    (mod, key)
                    for mod in package_modules()
                    for key, value in list(vars(mod).items())
                    if value is original and not (mod is owner and key == leaf)
                ]
            for obj, key in sites:
                undo.append((obj, key, original))
                setattr(obj, key, wrapper)
        yield absent
    finally:
        for obj, key, original in reversed(undo):
            setattr(obj, key, original)


def traced_sites(package: str = PACKAGE) -> List[str]:
    """Every binding in the package that still holds a tracing wrapper."""
    found = []
    for mod in package_modules(package):
        for key, value in list(vars(mod).items()):
            holders = [(key, value)]
            if isinstance(value, type):
                holders += [(f"{key}.{k}", v) for k, v in vars(value).items()]
            found += [
                f"{mod.__name__}.{k}" for k, v in holders
                if getattr(v, MARK, False)
            ]
    return found


# ---------------------------------------------------------------------------
# statistics

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def supported_percentile(n: int) -> Optional[float]:
    """Highest reported percentile with at least ten samples beyond it."""
    best = None
    for p in PERCENTILES:
        if round(n * (100.0 - p), 6) >= 1000.0:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(round(p * len(ordered) / 100.0, 6)))
    return ordered[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are held to."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
