"""Steadiness mode: run workloads repeatedly and print each end-to-end
metric's run-to-run spread next to its bound.

    python3 bench/steady.py --runs 10 --seconds 15 [--workload fleet-mix ...]

Run i uses seed ``--first-seed + i``. The spread is the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median. A metric is steady when its spread is below a third of its
bound; ``setup_s`` is gated on its median only, so its spread is shown but
not flagged. The bounds in BENCHMARK.json were set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = [run_once(workload, args.first_seed + i, args.seconds) for i in range(args.runs)]
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds} s each")
        for name, bound in bounds.items():
            median, share = spread([r[name] for r in runs])
            flag = "" if name == "setup_s" or share < bound / 3 else "  <-- not steady"
            steady &= not flag
            print(f"  {name:26s} median {median:12.4f}  spread {share:7.4f}  "
                  f"bound {bound:.2f}{flag}")
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
