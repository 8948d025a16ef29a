"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload ladder --seeds 1-10 [--trace 1]

For each metric it prints the median over the seeds and the distance
between the first and third quartile as a share of the median, the
figure the bounds in ``BENCHMARK.json`` are compared with.  The runs go
one after another; the summary is one JSON object on the last line.
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


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    values: dict[str, list[float]] = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload,
                                  "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    summary = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "values": vals}
        print(f"{name}: median {med:.6g}, spread "
              f"{summary[name]['spread']:.4f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
