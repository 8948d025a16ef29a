"""zdalliance benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the repository root.  The benchmark imports the package from
``src/`` of the checkout it sits in and nothing else.

A run first times ``import zdalliance.cli`` in fresh interpreters
(``setup_s``, the median of several), then runs whole passes of the
workload, each in a fresh interpreter so module caches start cold,
until the next pass would end after ``--seconds``; there is always at
least one pass.  Questions go one at a time from the pass process (a
closed loop with one client).  The seed only permutes the order of the
questions within a pass.

With ``--trace 0`` nothing is traced and the last stdout line holds the
end-to-end metrics: set-up time, the median pass wall time, the share of
questions answered and peak memory.  With ``--trace 1`` each pass
records spans around the calls into each module, written under
``out/``, and the last line holds the per-layer metrics named in
``BENCHMARK.json`` (medians over the passes).
Every answer is checked against the seed answers in ``expected.json``;
any wrong answer makes the run exit with code 1.  Node counts above the
recorded ones are printed, one line each, but do not fail the run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("ladder", "spectrum", "catalog", "crosscheck")
SETUP_SAMPLES = 10
RUN_LIMIT_S = 170.0
PROBE = ("import time, zdalliance.cli; t = time.time_ns(); "
         "import zdalliance; print(t, zdalliance.__file__)")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.pop("PYTHONSTARTUP", None)
    return env


def _deadline_left(started: float) -> float:
    left = RUN_LIMIT_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError(f"run exceeded {RUN_LIMIT_S:.0f} s")
    return left


def _child(cmd: list[str], started: float) -> str:
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=_deadline_left(started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    return proc.stdout.strip().splitlines()[-1]


def setup_times(started: float) -> list[float]:
    """Fresh interpreter to `import zdalliance.cli` done, in seconds."""
    expected_init = os.path.join(SRC, "zdalliance", "__init__.py")
    samples = []
    # the first import also compiles the bytecode cache: not timed
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.time_ns()
        line = _child([sys.executable, "-c", PROBE], started)
        done, path = line.split(" ", 1)
        if os.path.realpath(path) != os.path.realpath(expected_init):
            raise BenchError(f"imported zdalliance from {path}, "
                             f"not from {SRC}")
        if i:
            samples.append((int(done) - t0) / 1e9)
    return samples


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and never
    below the median: (value, percentile)."""
    ordered = sorted(values)
    idx = max(len(ordered) // 2, len(ordered) - 11)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "zdalliance", "__init__.py")):
        raise BenchError(f"no zdalliance package under {SRC}")
    setup = setup_times(started)

    passes = []
    measured = 0.0
    os.makedirs(OUT, exist_ok=True)
    while True:
        cmd = [sys.executable, os.path.join(HERE, "one_pass.py"),
               "--workload", workload, "--seed", str(seed),
               "--pass-index", str(len(passes))]
        if trace:
            cmd += ["--spans", os.path.join(
                OUT, f"{workload}-{seed}-{len(passes)}.jsonl")]
        t0 = time.monotonic()
        passes.append(json.loads(_child(cmd, started)))
        last = time.monotonic() - t0
        measured += last
        if measured + last > seconds:
            break

    attempted = sum(p["attempted"] for p in passes)
    answered = sum(p["answered"] for p in passes)
    wrong = [w for p in passes for w in p["wrong"]]
    rises = sorted({r for p in passes for r in p["rises"]})
    wall = statistics.median(p["wall_s"] for p in passes)
    print(f"{workload}: seed {seed}, {len(passes)} pass(es) of "
          + ", ".join(f"{p['wall_s']:.3f}" for p in passes) + " s")
    print(f"failed_frac {attempted - answered}/{attempted} "
          f"(unknown answers; wrong answers: {len(wrong)})")
    for line in rises:
        print(f"node rise: {line}")
    for line in wrong:
        print(f"WRONG: {line}")

    if trace:
        values = {name: statistics.median(p["layers"][name] for p in passes)
                  for name in passes[0]["layers"]}
        latencies = [t for p in passes for t in p["latencies_ms"]]
        if latencies:
            values["solver.solve.p50_ms"] = statistics.median(latencies)
            values["solver.solve.tail_ms"], pct = tail(latencies)
            print(f"solve latency: {len(latencies)} solve() calls, "
                  f"tail is p{pct:.1f}")
        else:  # spectrum solves inside spectrum(), never through solve()
            values["solver.solve.p50_ms"] = values["solver.solve.tail_ms"] = 0.0
        values["cli.import_s"] = statistics.median(setup)
        values["trace.wall_s"] = wall
        metrics = _with_units(values, "per_layer")
    else:
        metrics = _with_units({
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "answered_frac": answered / attempted,
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }, "end_to_end")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": len(wrong), "metrics": metrics}))
    return 1 if wrong else 0


def _with_units(values: dict, kind: str) -> dict:
    """The metrics of BENCHMARK.json's ``kind`` list, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(values) != set(declared):
        raise BenchError(f"metrics {sorted(set(values) ^ set(declared))} "
                         f"are not both measured and declared in {kind}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
