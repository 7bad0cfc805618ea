"""The three phases of a benchmark run, each against its own ``wotsim run``
process: closed-loop requests, an SSE event stream and probe passes."""

from __future__ import annotations

import json
import os
import statistics
import time
from urllib.parse import quote

from client import check_events, check_logs, closed_loop, gap_excess_ms, stream_events
from servient import HOST, Servient
from stats import percentile
from tracing import layer_timings, replay, traced_probe_pass
from workloads import (
    EVENT_INTERVAL,
    FIXTURE_DIR,
    FIXTURES,
    fixture_docs,
    operations,
    workload_tds,
)
from wotsim.cli import probe_target

CONNECTIONS = min(2, os.cpu_count() or 1)  # one client thread each, never more than nproc
SUBSCRIBERS = 2
SETUP_STARTS = 5
PHASE_SHARE = {"requests": 0.6, "events": 0.2, "probe": 0.2}  # of --seconds
WARMUP_S = 0.3
PROBE_DURATION = 0.2
PROBE_EVENT_MODE = "fixed:0.02"
MIN_PROBE_PASSES = 3


class Run:
    """One benchmark run: its phases, the numbers they produce and every
    problem the checks found."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, out_dir):
        self.w = workload
        self.seed = seed
        self.out = out_dir
        self.trace = trace
        self.docs = workload_tds(workload.name, seed)
        self.titles = [d["title"] for d in self.docs]
        self.td_paths = self._td_files()
        self.phase_s = {p: seconds * share for p, share in PHASE_SHARE.items()}
        self.op_lists = [operations(self.docs, workload.mix, seed, c, CONNECTIONS)
                         for c in range(CONNECTIONS)]
        self.metrics: dict = {}
        self.samples: dict = {}
        self.layers: dict = {}
        self.attempted = 0
        self.problems: list[str] = []
        self.log_path = out_dir / f"servient-{workload.name}-{seed}.log"

    def _td_files(self) -> list:
        """The TD file of each Thing: the fixture itself, or the generated TD
        written to the output directory."""
        by_title = {d["title"]: FIXTURE_DIR / n for n, d in zip(FIXTURES, fixture_docs())}
        paths = []
        for doc in self.docs:
            if doc["title"] in by_title:
                paths.append(by_title[doc["title"]])
            else:
                path = self.out / f"{self.w.name}-{self.seed}-{doc['title']}.td.json"
                path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
                paths.append(path)
        return paths

    def _servient(self, event_args):
        return Servient(self.td_paths, self.titles, self.seed, event_args, self.log_path)

    def _tally(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.problems += problems

    # --- phases -----------------------------------------------------------

    def setup_and_requests(self) -> None:
        starts = []
        for _ in range(SETUP_STARTS - 1):
            with self._servient(["--event-mode", "none"]) as servient:
                starts.append(servient.setup_s)
        with self._servient(["--event-mode", "none"]) as servient:
            starts.append(servient.setup_s)
            self.metrics["setup_s"] = statistics.median(starts)
            self.samples["setup_s"] = starts
            warm, _ = closed_loop(HOST, servient.port, self.op_lists, WARMUP_S)
            self._tally(*check_logs(warm, servient.base_url))
            cpu0 = servient.cpu_s()
            logs, started = closed_loop(HOST, servient.port, self.op_lists,
                                        self.phase_s["requests"])
            cpu = servient.cpu_s() - cpu0
            self._tally(*check_logs(logs, servient.base_url))
        end = started + self.phase_s["requests"]
        records = [(log.ops[r[0]], r) for log in logs for r in log.records]
        done = [r for _, r in records if r[2] <= end]
        latency = {}
        for op, (_, t0, t1, _, _) in records:
            latency.setdefault(op.kind, []).append((t1 - t0) * 1e3)
        for kind in ("read", "write", "action", "td"):
            self.samples[f"{kind}_ms"] = latency.get(kind, [])
        self.metrics["throughput_rps"] = len(done) / self.phase_s["requests"]
        for kind in ("read", "write", "action"):
            self.metrics[f"{kind}_p50_ms"] = percentile(latency[kind], 0.5)
            self.metrics[f"{kind}_p90_ms"] = percentile(latency[kind], 0.9)
        self.metrics["td_p50_ms"] = percentile(latency["td"], 0.5)
        requests = len(records)
        self.layers.update({
            "server.cpu_us_per_req": cpu / requests * 1e6,
            "server.connects_per_req": sum(log.connects for log in logs) / requests,
            "client.stale_retries": sum(log.retries for log in logs),
            "server.resp_bytes_per_req": sum(len(r[4]) for _, r in records) / requests,
            "http_read_p50_us": percentile(latency["read"], 0.5) * 1e3,
        })

    def events(self) -> None:
        title, name = self.w.event
        path = f"/{quote(title, safe='')}/events/{quote(name, safe='')}"
        args = ["--event-mode", "none", "--event-interval",
                f"{name}={EVENT_INTERVAL}"]
        seconds = self.phase_s["events"]
        with self._servient(args) as servient:
            cpu0 = servient.cpu_s()
            arrivals, threads = stream_events(HOST, servient.port, path, SUBSCRIBERS,
                                              WARMUP_S + seconds, midpoint=servient.threads)
            cpu = servient.cpu_s() - cpu0
        doc = next(d for d in self.docs if d["title"] == title)
        self._tally(*check_events(arrivals, doc["events"][name].get("data", {})))
        rates, excess = [], []
        for stream in arrivals:
            times = [t for t, _ in stream]
            window = [t for t in times if t >= times[0] + WARMUP_S] if times else []
            if len(window) < 2:
                self._tally(1, [f"subscriber got {len(times)} events"])
                continue
            rates.append((len(window) - 1) / (window[-1] - window[0]))
            excess += gap_excess_ms(window, EVENT_INTERVAL)
        if not rates:
            return
        self.samples["event_gap_excess_ms"] = excess
        self.metrics["event_rate_hz"] = statistics.mean(rates)
        # Gap excess measures scheduling jitter, which host noise moves 2-8x in
        # bursts; it is reported ungated, with the per-layer numbers.
        self.layers["event_gap_excess_p50_ms"] = percentile(excess, 0.5)
        self.layers["event_gap_excess_p90_ms"] = percentile(excess, 0.9)
        emitted = max(len(s) for s in arrivals)
        self.layers["server.cpu_us_per_emit"] = cpu / emitted * 1e6
        self.layers["server.threads"] = threads

    def probe(self) -> None:
        with self._servient(["--event-mode", PROBE_EVENT_MODE]) as servient:
            urls = [f"{servient.base_url}/{quote(t, safe='')}" for t in self.titles]
            walls = []
            started = time.perf_counter()
            while (len(walls) < MIN_PROBE_PASSES
                   or time.perf_counter() - started < self.phase_s["probe"]):
                t0 = time.perf_counter()
                checks = [c for url in urls
                          for c in probe_target(url, duration=PROBE_DURATION,
                                                seed=self.seed + len(walls))]
                walls.append(time.perf_counter() - t0)
                self._tally(len(checks), [f"probe {c.kind} {c.affordance}: {c.detail}"
                                         for c in checks if not c.passed])
            if self.trace:
                self.layers.update(traced_probe_pass(urls, PROBE_DURATION, self.seed))
        self.samples["probe_wall_s"] = walls
        self.metrics["probe_wall_s"] = statistics.median(walls)

    def traced_replay(self) -> None:
        ops = [op for pair in zip(*self.op_lists) for op in pair]
        spans = self.out / f"spans-{self.w.name}-{self.seed}.jsonl"
        got = replay(self.docs, ops, self.seed, spans)
        self.layers.update(got)
        self.layers.update(layer_timings(self.docs, self.w.event, self.seed))
        self.layers["server.overhead_us"] = (self.layers["http_read_p50_us"]
                                             - got["inproc_read_p50_us"])
