"""Tracing overhead: traced minus untraced pass wall time, per workload.

    python3 perfbench/overhead.py --workload catalog --pairs 5

Runs untraced and traced passes of the workload alternately, each in a
fresh interpreter, so the two halves of a pair see the same machine
speed as far as possible.  Prints each pair, then one JSON object on the
last line with the median untraced and traced wall time and the median
of the per-pair differences.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def pass_wall(workload: str, index: int, spans: str | None) -> float:
    cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
           "--workload", workload, "--seed", "1", "--pass-index", str(index)]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["wrong"]:
        raise SystemExit(f"wrong answers: {result['wrong']}")
    return result["wall_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=3)
    args = parser.parse_args()
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    untraced, traced = [], []
    for i in range(args.pairs):
        # alternate which half goes first, so a steady drift cancels
        spans = os.path.join(out, f"overhead-{args.workload}-{i}.jsonl")
        order = (None, spans) if i % 2 == 0 else (spans, None)
        walls = {s: pass_wall(args.workload, i, s) for s in order}
        untraced.append(walls[None])
        traced.append(walls[spans])
        print(f"pair {i}: untraced {untraced[-1]:.3f} s, "
              f"traced {traced[-1]:.3f} s", flush=True)
    diffs = [t - u for t, u in zip(traced, untraced)]
    print(json.dumps({"workload": args.workload, "pairs": args.pairs,
                      "untraced_wall_s": statistics.median(untraced),
                      "traced_wall_s": statistics.median(traced),
                      "overhead_s": statistics.median(diffs),
                      "overhead_share": statistics.median(
                          d / u for d, u in zip(diffs, untraced))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
