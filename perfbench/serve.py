"""serve-http-open: the daemon over HTTP, driven by an open-loop generator.

``python -m repro serve`` runs in its own process with the batch
workloads' recipe on the profiled backend, a temporary SQLite store and
the default high-water mark.  A generator process (:mod:`loadgen`)
offers Poisson arrivals whose ``src`` is Zipf(1) over 100 values over
two keep-alive connections: a base-rate phase at 4 req/s, then the
rate ladder, which stops at the first rung that fails.  Engine work is
about a millisecond per instance here, so the HTTP transport and the
daemon dominate; this is the only workload through ``repro.server``.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time

import common
import tracing
from batch import CODE, PATTERN
from repro import evaluate_schema, generate_pattern
from repro.obs import histogram_quantile
from repro.server.store import decode_values

#: Base-phase rate: low enough that most POSTs miss the keep-alive stall,
#: so the median sits inside one mode of the latency distribution
#: (NOTES.md, "First perf target").
BASE_RPS = 4
#: Base-phase requests: enough that >= 10 samples lie beyond p95.
BASE_MIN_REQUESTS = 210
#: Ladder rung length: at least this many requests and two seconds.  With
#: fewer, a rung's p95 is one of its few slowest requests and a rung near
#: capacity holds or fails by chance.
RUNG_MIN_REQUESTS = 100
RUNG_SECONDS = 2
SETUP_REPS = 3
HEALTH_TIMEOUT = 60.0
HERE = os.path.dirname(os.path.abspath(__file__))


def serve_command(port_db: str, seed: int, observe: bool) -> list[str]:
    command = [
        sys.executable, "-m", "repro", "serve", "--json", "--port", "0",
        "--code", CODE, "--backend", "profiled", "--engine", "batched",
        "--dispatch", "pooled", "--query-cache", "--cohorts",
        "--nb-rows", str(PATTERN.nb_rows), "--nb-nodes", str(PATTERN.nb_nodes),
        "--pct-enabled", str(PATTERN.pct_enabled),
        "--pattern-seed", str(PATTERN.seed), "--seed", str(seed),
        "--db", port_db,
    ]
    return command + (["--observe"] if observe else [])


class Daemon:
    """One ``repro serve`` process: launch, health wait, stop."""

    def __init__(self, out_dir: str, seed: int, observe: bool, tag: str):
        self.db = os.path.join(out_dir, f"serve-{os.getpid()}-{tag}.sqlite")
        env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            serve_command(self.db, seed, observe),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        try:
            banner = json.loads(self.process.stdout.readline())
            self.url = banner["url"]
            host, port = self.url.rsplit("//", 1)[1].split(":")
            self.host, self.port = host, int(port)
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_healthy(self) -> None:
        deadline = time.perf_counter() + HEALTH_TIMEOUT
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"serve exited with code {self.process.returncode}")
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("serve never reported healthy")

    def stop(self) -> None:
        """SIGINT (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        for suffix in ("", "-wal", "-shm"):
            if os.path.exists(self.db + suffix):
                os.remove(self.db + suffix)


def plan(seed: int, ladder: bool) -> list[dict]:
    """The generator's phases: the base rate, then (optionally) the ladder."""
    draw = common.zipf_sampler(random.Random(f"serve-values/{seed}"))
    phases = [
        {"name": "base", "rate": BASE_RPS, "n": BASE_MIN_REQUESTS,
         "values": [draw() for _ in range(BASE_MIN_REQUESTS)], "scrape": True}
    ]
    if ladder:
        for rate in common.LADDER_RPS:
            n = max(RUNG_MIN_REQUESTS, rate * RUNG_SECONDS)
            phases.append(
                {"name": f"rung-{rate}", "rate": rate, "n": n,
                 "values": [draw() for _ in range(n)]}
            )
    return phases


def drive(daemon: Daemon, seed: int, phases: list[dict], scrape_trace: bool) -> dict:
    """Run the generator process against *daemon*; return its report."""
    scrape = {"metrics": "/metrics", "prometheus": "/metrics?format=prometheus"}
    if scrape_trace:
        scrape["trace"] = "/trace"
    request = {"url": daemon.url, "seed": seed, "phases": phases, "scrape_paths": scrape}
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "loadgen.py")],
        input=json.dumps(request),
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    return json.loads(result.stdout)


def check_phase(pattern, records) -> int:
    """Count decided requests whose decision disagrees with the snapshot."""
    oracle: dict[int, dict] = {}
    wrong = 0
    for record in records:
        if record["status"] != "done":
            continue
        src = record["src"]
        if src not in oracle:
            oracle[src] = evaluate_schema(pattern.schema, {"src": src}).target_values()
        decided = decode_values(record["values"]) or {}
        if {name: decided.get(name) for name in oracle[src]} != oracle[src]:
            record["status"] = "wrong"
            wrong += 1
    return wrong


def run_serve(out_dir: str, seed: int, observe: bool, ladder: bool,
              setup_reps: int = SETUP_REPS) -> dict:
    """Set up the daemon *setup_reps* times, drive the last one, stop it."""
    pattern = generate_pattern(PATTERN)
    setups = []
    for rep in range(setup_reps - 1):
        daemon = Daemon(out_dir, seed, observe, f"setup{rep}")
        setups.append(daemon.setup_s)
        daemon.stop()
    daemon = Daemon(out_dir, seed, observe, "run")
    setups.append(daemon.setup_s)
    try:
        cpu0 = common.cpu_seconds(daemon.process.pid)
        report = drive(daemon, seed, plan(seed, ladder), scrape_trace=observe)
        cpu = common.cpu_seconds(daemon.process.pid) - cpu0
        rss = common.peak_rss_mb(daemon.process.pid)
    finally:
        daemon.stop()
    wrong = sum(check_phase(pattern, phase["records"]) for phase in report["phases"])
    return {"setups": setups, "report": report, "cpu_s": cpu, "rss_mb": rss, "wrong": wrong}


def base_records(result: dict) -> list[dict]:
    return result["report"]["phases"][0]["records"]


def failures(records) -> int:
    return sum(1 for r in records if r["status"] != "done")


def max_rate(result: dict) -> float:
    """The highest rate held: the top ladder rung, else the base rate."""
    held = [p["rate"] for p in result["report"]["phases"] if p["held"]]
    return float(max(held)) if held else 0.0


def end_to_end(result: dict) -> dict:
    records = base_records(result)
    latencies = common.due_latencies([r for r in records if r["status"] == "done"])
    decided = [r for r in records if r["status"] == "done"]
    first_due = min(r["due"] for r in records)
    last_seen = max(r["seen"] for r in decided)
    n = len(records)
    return {
        "setup_s": (statistics.median(result["setups"]), "s"),
        "throughput_ips": (len(decided) / (last_seen - first_due), "inst/s"),
        "decision_p50_ms": (common.percentile(latencies, 50) * 1e3, "ms"),
        "decision_p95_ms": (common.percentile(latencies, 95) * 1e3, "ms"),
        "max_rate_rps": (max_rate(result), "req/s"),
        "success_share": ((n - failures(records)) / n, "ratio"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
    }


def _prometheus_buckets(text: str, stage: str) -> tuple[list[float], list[int]]:
    """Per-bucket counts of one ``stage_seconds`` histogram from the exposition."""
    bounds, cumulative = [], []
    marker = f'repro_stage_seconds_bucket{{stage="{stage}", le="'
    for line in text.splitlines():
        if line.startswith(marker):
            le = line[len(marker):].split('"', 1)[0]
            if le != "+Inf":
                bounds.append(float(le))
            cumulative.append(int(float(line.rsplit(" ", 1)[1])))
    counts = [b - a for a, b in zip([0, *cumulative[:-1]], cumulative)]
    return bounds, counts


def _stage_p95_ms(text: str, stage: str) -> float:
    bounds, counts = _prometheus_buckets(text, stage)
    return histogram_quantile(bounds, counts, 0.95) * 1e3 if bounds else 0.0


def _registry_sum(snapshot: dict, kind: str, name: str) -> float:
    return sum(e["value"] for e in snapshot.get(kind, ()) if e["name"] == name)


def measure_traced(out_dir: str, seed: int) -> dict:
    """Base phase untraced, then traced (``--observe``); per-layer metrics."""
    reference = run_serve(out_dir, seed, observe=False, ladder=False, setup_reps=1)
    traced = run_serve(out_dir, seed, observe=True, ladder=False, setup_reps=1)
    phase = traced["report"]["phases"][0]
    records = phase["records"]
    metrics = json.loads(traced["report"]["scrapes"]["metrics"])
    prometheus = traced["report"]["scrapes"]["prometheus"]
    trace = json.loads(traced["report"]["scrapes"]["trace"])
    server = metrics["server"]
    summary = metrics["summary"]
    registry = metrics["observability"]
    lanes: dict[int, list] = {}
    labels: dict[int, str] = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "M":
            labels[event["pid"]] = event["args"]["name"]
            continue
        lanes.setdefault(event["pid"], []).append(
            (event["ph"], event["name"], event["ts"], event.get("dur", 0.0), event.get("args"))
        )
    names = {"daemon.epoch", "engine.round", "engine.start_state", "des.pool", "plan.compile"}
    self_times: dict[str, float] = {}
    for events in lanes.values():
        for name, value in tracing.ring_self_times(events, names).items():
            self_times[name] = self_times.get(name, 0.0) + value
    wall = phase["span"]
    epoch_total = sum(d for _p, n, _t, d, _a in lanes.get(1000, []) if n == "daemon.epoch") / 1e6
    engine = self_times.get("engine.round", 0.0) + self_times.get("engine.start_state", 0.0)
    des = self_times.get("des.pool", 0.0)
    post_rtts = [r["post_rtt"] for r in records if "post_rtt" in r]
    hits = summary.get("query_cache_hits", 0)
    misses = summary.get("query_cache_misses", 0)
    coalesced = summary.get("query_cache_coalesced", 0)
    lookups = hits + misses + coalesced
    n = len(records)
    base_latencies = common.due_latencies(
        [r for r in base_records(reference) if r["status"] == "done"]
    )
    layers = {
        "server.decision_p50_ms": common.percentile(base_latencies, 50) * 1e3,
        "server.decision_p95_ms": common.percentile(base_latencies, 95) * 1e3,
        "server.post_rtt_p50_ms": common.percentile(post_rtts, 50) * 1e3,
        "server.post_rtt_p95_ms": common.percentile(post_rtts, 95) * 1e3,
        "server.poll_rtt_p50_ms": common.percentile(phase["poll_rtts"], 50) * 1e3,
        "server.gen_late_p95_ms": common.percentile(common.lateness(records), 95) * 1e3,
        "server.stage_admit_p95_ms": _stage_p95_ms(prometheus, "admit"),
        "server.stage_queue_wait_p95_ms": _stage_p95_ms(prometheus, "queue_wait"),
        "server.stage_epoch_p95_ms": _stage_p95_ms(prometheus, "epoch"),
        "server.stage_decision_p95_ms": _stage_p95_ms(prometheus, "decision"),
        "server.epochs": server["epochs"],
        "server.instances_per_epoch": server["completed"] / server["epochs"] if server["epochs"] else 0.0,
        "server.rejected": server["rejected"],
        "server.persisted": server["persisted"],
        "core.engine_self_s": engine,
        "core.queries_launched": _registry_sum(registry, "counters", "engine_queries_launched"),
        "core.scheduling_rounds": _registry_sum(registry, "counters", "engine_scheduling_rounds"),
        "core.cohort_hits": summary.get("cohort_hits", 0),
        "core.cohort_splits": summary.get("cohort_splits", 0),
        "core.cohort_ratio": summary.get("cohort_hits", 0) / n,
        "simdb.des_self_s": des,
        "simdb.events": _registry_sum(registry, "gauges", "sim_events_executed"),
        "simdb.pooled_batches": metrics["dispatch"]["pooled_batches"],
        "simdb.events_per_batch": (
            metrics["dispatch"]["pooled_events"] / metrics["dispatch"]["pooled_batches"]
            if metrics["dispatch"]["pooled_batches"] else 0.0
        ),
        "simdb.db_units": _registry_sum(registry, "gauges", "db_total_units"),
        "simdb.cache_hits": hits,
        "simdb.cache_misses": misses,
        "simdb.cache_coalesced": coalesced,
        "simdb.cache_hit_ratio": (hits + coalesced) / lookups if lookups else 0.0,
        "obs.trace_overhead": traced["cpu_s"] / reference["cpu_s"],
        "obs.unattributed_share": max(0.0, epoch_total - engine - des) / epoch_total if epoch_total else 0.0,
        "obs.trace_coverage": min(
            (tracing.ring_coverage(events, wall) for events in lanes.values()), default=1.0
        ),
    }
    chrome_lanes = [
        (pid, f"program {labels.get(pid, pid)}", events) for pid, events in lanes.items()
    ]
    return {
        "layers": layers,
        "reference": reference,
        "traced": traced,
        "lanes": chrome_lanes,
    }
