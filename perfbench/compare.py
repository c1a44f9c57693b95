"""Compare two benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py OLD.json NEW.json

Refuses, with exit code 2, records that cannot be compared: another
workload or trace mode, or another solver backend or
``PATHPROB_PURE_PYTHON`` setting in the environment stamp.  Otherwise
prints each metric's old and new value and their ratio.  For two runs with
the same seed it also checks that the exact counts repeat, and exits with
code 1 when one differs, because that means nondeterminism, not noise.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import EXACT  # noqa: E402

MUST_MATCH = ("workload", "trace")
STAMP_MUST_MATCH = ("backend", "PATHPROB_PURE_PYTHON")


def refusals(old: dict, new: dict) -> list:
    reasons = [f"{key}: {old.get(key)!r} vs {new.get(key)!r}"
               for key in MUST_MATCH if old.get(key) != new.get(key)]
    reasons += [f"env {key}: {old['env'].get(key)!r} vs {new['env'].get(key)!r}"
                for key in STAMP_MUST_MATCH
                if old["env"].get(key) != new["env"].get(key)]
    return reasons


def count_mismatches(old: dict, new: dict) -> list:
    if old.get("seed") != new.get("seed"):
        return []
    return [name for name in EXACT
            if old["metrics"].get(name) != new["metrics"].get(name)]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    old, new = (json.loads(Path(p).read_text()) for p in argv)
    reasons = refusals(old, new)
    if reasons:
        print("refused: the records are not comparable (" + "; ".join(reasons) + ")",
              file=sys.stderr)
        return 2
    for name, before in old["metrics"].items():
        after = new["metrics"].get(name)
        if before is None or after is None:
            ratio = "absent"
        elif before:
            ratio = f"{after / before:.4f}x"
        else:
            ratio = "-"
        print(f"{name:28} {before!r:>24} {after!r:>24} {ratio}")
    mismatched = count_mismatches(old, new)
    for name in mismatched:
        print(f"NONDETERMINISM exact count {name}: {old['metrics'].get(name)!r} "
              f"vs {new['metrics'].get(name)!r} with the same seed")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
