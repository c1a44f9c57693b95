"""Run the benchmark over several seeds and report each metric's median
and quartile spread, (Q3 - Q1) / median, next to its bound.

    python3 perfbench/spread.py --workloads solve_2clock,simulate_2clock \
        --seeds 1-10 --trace 0

Runs are made one after another, each in its own process, with
``run_seconds`` from ``BENCHMARK.json`` unless ``--seconds`` is given.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    failed = False
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                failed = True
                print(f"{workload} seed {seed}: exit {proc.returncode}, "
                      f"{result and result['failed']} failed\n{proc.stderr[-2000:]}")
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, series in values.items():
            spread = quartile_spread(series)
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None else (
                "  ok" if spread < bound / 3 else "  WIDE" if spread < bound else "  OVER")
            print(f"{workload:18} {name:28} median {statistics.median(series)!r:>24} "
                  f"spread {spread:.4f} bound {bound}{flag}  n={len(series)}")
            print("    " + " ".join(f"{v:.6g}" for v in series))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
