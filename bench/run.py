"""wotsim benchmark: one workload against live ``wotsim run`` servients.

    python3 bench/run.py --workload fleet-mix --seed 1 --seconds 25 --trace 0

Every run has three phases, each against its own servient process on
loopback: a closed-loop request phase (2 connections), an event phase (2 SSE
subscribers on one fast fixed-interval event, no request traffic) and a probe
phase (sequential ``probe_target`` passes over the workload's Things). The
workload picks the TDs, the request mix and which phase gets most of the
time, so every run reports every end-to-end metric. The last line of output
is one JSON object; ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer ones (see README.md).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from stats import summarize  # noqa: E402
from workloads import FIXTURE_DIR, FIXTURES, ROOT, WORKLOADS  # noqa: E402

OUT = BENCH / "out"


def _preflight() -> str | None:
    for needed in (ROOT / "src" / "wotsim" / "__init__.py", ROOT / "tests" / "oracles.py",
                   *(FIXTURE_DIR / name for name in FIXTURES)):
        if not needed.is_file():
            return f"missing {needed.relative_to(ROOT)}: run from a full wotsim checkout"
    return None


def _metadata(seed: int) -> dict:
    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_commit": git("rev-parse", "HEAD") or "unknown (not a git checkout)",
        "git_dirty": None if status is None else bool(status),
        "loadavg_at_start": os.getloadavg(),
        "network": "loopback only (127.0.0.1); client and servient on one host",
        "seed": seed,
    }


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    return fields[7], sum(fields)


def _report(run, metrics: dict, units: dict, failed: int, steal_pct: float) -> None:
    print(f"workload {run.w.name}  seed {run.seed}  phases "
          + ", ".join(f"{p} {s:.1f}s" for p, s in run.phase_s.items())
          + f"  host steal {steal_pct:.1f}% of CPU time")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:12.4f} {units.get(name, '')}")
    for name, samples in run.samples.items():
        s = summarize(samples)
        line = f"  {name:24s} n={s['n']:6d}"
        if "p50" in s:
            line += f"  p50={s['p50']:.4f}"
        if "tail_level" in s:
            line += f"  p{s['tail_level'] * 100:g}={s['tail']:.4f} (not gated)"
        print(line)
    print(f"  fail_frac = {failed}/{run.attempted} = "
          f"{failed / max(run.attempted, 1):.6f}")
    for problem in run.problems[:10]:
        print(f"  FAIL {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = _preflight()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Exit through the servients' cleanup when terminated, so none outlives the run.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    logging.getLogger("wotsim").setLevel(logging.ERROR)  # TD warnings cost client time
    OUT.mkdir(exist_ok=True)

    from phases import Run

    meta = _metadata(args.seed)
    steal0, total0 = _cpu_ticks()
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT)
    run.setup_and_requests()
    run.events()
    run.probe()
    if run.trace:
        run.traced_replay()
    units = _units("per_layer" if run.trace else "end_to_end")
    found = run.layers if run.trace else run.metrics
    metrics = {k: found[k] for k in units if k in found}
    steal1, total1 = _cpu_ticks()
    meta["host_steal_pct"] = 100.0 * (steal1 - steal0) / max(total1 - total0, 1)
    failed = len(run.problems)
    _report(run, metrics, units, failed, meta["host_steal_pct"])
    missing = [k for k in units if k not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, fail_frac=failed / max(run.attempted, 1),
                  workload=run.w.name, trace=run.trace, meta=meta,
                  layers=run.layers, end_to_end=run.metrics,
                  sample_counts={k: len(v) for k, v in run.samples.items()},
                  problems=run.problems[:100])
    (OUT / f"result-{run.w.name}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0


def _units(kind: str) -> dict:
    """Name -> unit of the end_to_end or per_layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


if __name__ == "__main__":
    sys.exit(main())
