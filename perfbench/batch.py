"""The two batch workloads: an embedded service pushed with populations.

* ``burst-zipf100`` — one in-process ``DecisionService``.  Same-instant
  bursts of 500 instances, spaced closer than an uncached instance's
  makespan; each ``src`` is Zipf(1) over 100 values.  Cohorts, the query
  cache and the start-state cache do the work (and the cache answers so
  much at zero delay that each burst is decided at its own instant).
* ``stream-distinct-2proc`` — a 2-shard ``ShardedDecisionService`` on the
  process executor.  Poisson arrivals, every ``src`` distinct, fed in
  rounds of 500 (submit a window, ``run(until=window end)``, repeat) so
  per-round IPC and L2 publication happen.  Cohorts and the L2 tier are
  bypassed; per-instance engine work, the DES, the database kernel and
  the runtime's pipes do the work.

Both feed a fixed number of rounds, sized from ``--seconds`` at a nominal
rate so a run measures about that long on a 2-core host, then drain.
The work is a function of the seed and ``--seconds`` alone, so Work
(``db_units``) and memory are comparable from run to run.  A caller sees a decision when the ``run()`` that
finished it returns, so an instance's decision latency is the host time
from the round that submitted it to the end of the round that decided it.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

import common
import tracing
from repro import (
    ExecutionConfig,
    PatternParams,
    create_service,
    evaluate_schema,
    generate_pattern,
)

PATTERN = PatternParams(nb_rows=4, pct_enabled=50, seed=7)
CODE = "PSE100"
RECIPE = {"engine": "batched", "dispatch": "pooled", "query_cache": True, "cohorts": True}

#: Instances per burst / per stream window (one round each).
ROUND_SIZE = 500
#: Simulated units between bursts; an uncached instance takes 9 or 25.
BURST_SPACING = 10.0
#: Stream arrival rate per simulated unit (~500 instances in flight).
STREAM_RATE = 20.0
#: Instances per second a round count is sized for (measured on a 2-core host).
NOMINAL_IPS = {"burst-zipf100": 1000, "stream-distinct-2proc": 1300}
MIN_ROUNDS = 4
#: Set-ups per run; setup_s is their median.
SETUP_REPS = 9


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds * NOMINAL_IPS[workload] / ROUND_SIZE))


def config(workload: str, observe: bool) -> ExecutionConfig:
    deploy = {"shards": 2, "executor": "process"} if workload.startswith("stream") else {}
    return ExecutionConfig.from_code(CODE, observe=observe, **RECIPE, **deploy)


def rounds(workload: str, seed: int, start: float):
    """The seeded input rounds: lists of ``(at, src)``, one list per round."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "burst-zipf100":
        draw = common.zipf_sampler(rng)
        k = 0
        while True:
            at = start + k * BURST_SPACING
            yield [(at, draw()) for _ in range(ROUND_SIZE)]
            k += 1
    else:
        # Distinct integers well clear of the 0..99 payload range, offset
        # per seed so no two seeds share a valuation.
        next_src = 1_000 + seed * 10_000_000
        t = start
        while True:
            offsets = common.poisson_offsets(rng, ROUND_SIZE, STREAM_RATE)
            yield [(t + offset, next_src + i) for i, offset in enumerate(offsets)]
            t += offsets[-1]
            next_src += ROUND_SIZE


def set_up(workload: str, observe: bool, arm=None) -> tuple[object, dict, dict]:
    """Generate the pattern, build the service, decide one warm-up instance.

    The warm-up spawns the process fleet and compiles what is lazy, so
    the timed rounds start on a ready service.  *arm*, if given, is
    called with the new service before the warm-up.  Returns the
    service, the pattern and the phase times.
    """
    t0 = perf_counter()
    pattern = generate_pattern(PATTERN)
    t1 = perf_counter()
    service = create_service(pattern.schema, config(workload, observe))
    if arm is not None:
        arm(service)
    t2 = perf_counter()
    warm = service.submit(pattern.source_values, at=0.0)
    service.run()
    if warm.result() != evaluate_schema(pattern.schema, pattern.source_values).target_values():
        raise AssertionError("warm-up decision disagrees with the complete snapshot")
    t3 = perf_counter()
    return service, pattern, {"generate": t1 - t0, "construct": t2 - t1, "setup": t3 - t0}


def run_rounds(service, workload: str, seed: int, n_rounds: int):
    """Feed *n_rounds* rounds, then drain.

    Every round's host time is scaled to the reference host speed by the
    calibration loop (``common.calibration_s``; on the fleet, its slowest
    core), timed between rounds outside the timed region: a round counts
    its host time times the reference loop time over the median loop
    time of the three calibrations before and the three after it.  A
    shared host's drifting speed then does not read as a change of the
    program.
    Returns ``(entries, latencies, scaled, wall)``: each entry is
    ``(handle, src)``, latencies are scaled seconds per decision,
    ``scaled`` the scaled and ``wall`` the raw host seconds.
    """
    feed = rounds(workload, seed, service.now)
    # Start every run from the same collector state: the set-up's garbage
    # would otherwise shift when full collections land in the timed rounds.
    gc.collect()
    entries = []
    waiting = []  # (handle, index of the round that submitted it)
    spans = []  # (submitting round, deciding round) per decision
    durations = []
    fleet = hasattr(service, "worker_health")
    calibrations = [common.calibration_s(fleet)]
    batch = next(feed)
    for index in range(n_rounds):
        started = perf_counter()
        for at, src in batch:
            handle = service.submit({"src": src}, at=at)
            entries.append((handle, src))
            waiting.append((handle, index))
        batch = next(feed)
        service.run(None if index == n_rounds - 1 else batch[0][0])
        durations.append(perf_counter() - started)
        calibrations.append(common.calibration_s(fleet))
        still = []
        for handle, first in waiting:
            if handle.done:
                spans.append((first, index))
            else:
                still.append((handle, first))
        waiting = still
    clock = [0.0]  # scaled time at the start of each round, then the end
    for index, duration in enumerate(durations):
        # calibrations[index] ran just before this round, [index + 1] just after.
        nearby = calibrations[max(0, index - 2) : index + 4]
        scale = common.CALIBRATION_REFERENCE_S / statistics.median(nearby)
        clock.append(clock[-1] + duration * scale)
    latencies = [clock[last + 1] - clock[first] for first, last in spans]
    return entries, latencies, clock[-1], sum(durations)


def check_decisions(pattern, entries) -> tuple[int, int]:
    """Compare every decision with its valuation's complete snapshot.

    Returns ``(wrong, undecided)``.
    """
    oracle: dict[int, dict] = {}
    wrong = undecided = 0
    for handle, src in entries:
        if not handle.done:
            undecided += 1
            continue
        expected = oracle.get(src)
        if expected is None:
            expected = oracle[src] = evaluate_schema(
                pattern.schema, {"src": src}
            ).target_values()
        if handle.result() != expected:
            wrong += 1
    return wrong, undecided


def fleet_rss_mb(service) -> float:
    """Parent peak RSS plus every live shard worker's (the system under test)."""
    total = common.peak_rss_mb()
    health = getattr(service, "worker_health", None)
    if health is not None:
        for worker in health()["workers"]:
            total += common.peak_rss_mb(worker["pid"])
    return total


def _close(service) -> None:
    close = getattr(service, "close", None)
    if close is not None:
        close()


def measure(workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: set-up reps, timed rounds, checks, metrics."""
    setups = []
    service = pattern = None
    for rep in range(SETUP_REPS):
        if service is not None:
            _close(service)
        service, pattern, times = set_up(workload, observe=False)
        setups.append(times)
    try:
        n_rounds = rounds_for(workload, seconds)
        entries, latencies, scaled, wall = run_rounds(service, workload, seed, n_rounds)
        rss = fleet_rss_mb(service)
        units = total_units(service)
    finally:
        _close(service)
    wrong, undecided = check_decisions(pattern, entries)
    return {
        "setups": setups,
        "instances": len(entries),
        "latencies": latencies,
        "scaled": scaled,
        "wall": wall,
        "rounds": n_rounds,
        "rss_mb": rss,
        "db_units": units,
        "wrong": wrong,
        "undecided": undecided,
    }


def total_units(service) -> int:
    units = getattr(service, "total_units", None)
    return units if units is not None else service.database.total_units


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics of one untraced batch run."""
    n = result["instances"]
    throughput = n / result["scaled"]
    latencies = result["latencies"]
    failed = result["wrong"] + result["undecided"]
    return {
        "setup_s": (statistics.median(s["setup"] for s in result["setups"]), "s"),
        "throughput_ips": (throughput, "inst/s"),
        "decision_p50_ms": (common.percentile(latencies, 50) * 1e3, "ms"),
        "decision_p95_ms": (common.percentile(latencies, 95) * 1e3, "ms"),
        # Every instance is offered up front: the rate held is the throughput.
        "max_rate_rps": (throughput, "req/s"),
        "success_share": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
    }


def _sum_registry(snapshot: dict, kind: str, name: str) -> float:
    return sum(entry["value"] for entry in snapshot.get(kind, ()) if entry["name"] == name)


def measure_traced(workload: str, seed: int, seconds: float, out_dir: str) -> dict:
    """An untraced reference run, then the same rounds traced.

    Returns the per-layer metrics, the Work of both passes (which must
    agree exactly), the decision checks of both passes, and the
    Chrome-trace lanes.
    """
    reference = measure(workload, seed, seconds)
    tracing.install_program_wraps()
    rec = tracing.RECORDER
    rec.reset()
    fleet = {}

    def arm(service):
        if workload.startswith("stream"):
            fleet["ipc"] = tracing.trace_process_fleet(service, out_dir)

    service, pattern, _times = set_up(workload, observe=True, arm=arm)
    rec.reset()
    service.submit = rec.span("api.submit", service.submit)
    service.run = rec.span("api.run", service.run)
    try:
        n_rounds = reference["rounds"]
        entries, _latencies, scaled, wall = run_rounds(service, workload, seed, n_rounds)
        summary = service.summary()
        dispatch = service.dispatch_stats()
        registry = service.observability()
        shipped = service.trace_groups()
        units = total_units(service)
        instances = [s.instances for s in service.stats()] if hasattr(service, "stats") else [len(entries)]
    finally:
        _close(service)
        tracing.untrace_process_fleet()
    parent = rec.export()
    sharded = bool(fleet)
    workers = tracing.load_worker_dumps(out_dir) if sharded else []
    wrong, undecided = check_decisions(pattern, entries)

    def lanes_self(name):
        return rec.self_time(name) + sum(w["totals"].get(name, [0, 0, 0])[2] for w in workers)

    def lanes_count(name):
        return rec.count(name) + sum(w["totals"].get(name, [0, 0, 0])[0] for w in workers)

    n = len(entries)
    hits, misses, coalesced = (
        summary.query_cache_hits,
        summary.query_cache_misses,
        summary.query_cache_coalesced,
    )
    lookups = hits + misses + coalesced
    batches = dispatch["pooled_batches"]
    coverage = min(
        (tracing.ring_coverage(events, wall) for _pid, _label, events in shipped),
        default=1.0,
    )
    layers = {
        "workload.generate_s": statistics.median(s["generate"] for s in reference["setups"]),
        "api.construct_s": statistics.median(s["construct"] for s in reference["setups"]),
        "api.submit_s": rec.inclusive("api.submit"),
        "api.run_s": rec.inclusive("api.run"),
        "core.engine_self_s": lanes_self("engine.consume"),
        "core.queries_launched": _sum_registry(registry, "counters", "engine_queries_launched"),
        "core.scheduling_rounds": _sum_registry(registry, "counters", "engine_scheduling_rounds"),
        "core.cohort_hits": summary.cohort_hits,
        "core.cohort_splits": summary.cohort_splits,
        "core.cohort_ratio": summary.cohort_hits / n,
        "simdb.des_self_s": lanes_self("des.run") + lanes_self("des.step_instant"),
        "simdb.events": _sum_registry(registry, "gauges", "sim_events_executed"),
        "simdb.pooled_batches": batches,
        "simdb.events_per_batch": dispatch["pooled_events"] / batches if batches else 0.0,
        "simdb.db_dispatches": lanes_count("db.submit"),
        "simdb.db_units": units,
        "simdb.db_submit_s": lanes_self("db.submit"),
        "simdb.cache_submit_s": lanes_self("cache.submit"),
        "simdb.cache_hits": hits,
        "simdb.cache_misses": misses,
        "simdb.cache_coalesced": coalesced,
        "simdb.cache_hit_ratio": (hits + coalesced) / lookups if lookups else 0.0,
        "runtime.rounds": n_rounds if sharded else 0,
        "runtime.parent_wait_s": rec.inclusive("ipc.recv"),
        "runtime.send_s": rec.inclusive("ipc.send"),
        "runtime.worker_self_s": lanes_self("worker.round"),
        "runtime.ipc_bytes": sum(fleet["ipc"].values()) if sharded else 0,
        "runtime.shard_skew": max(instances) / statistics.mean(instances),
        "runtime.l2_hits": summary.query_cache_l2_hits,
        "runtime.l2_misses": summary.query_cache_l2_misses,
        "obs.trace_overhead": scaled / reference["scaled"],
        "obs.unattributed_share": max(0.0, wall - rec.top_level_time()) / wall,
        "obs.trace_coverage": coverage,
    }
    lanes = [(0, "bench", tracing.ring_events(parent["ring"], rec.origin))]
    for index, dump in enumerate(workers, start=1):
        lanes.append((index, dump["lane"], tracing.ring_events(dump["ring"], rec.origin)))
    for pid, label, events in shipped:
        lanes.append((100 + pid, f"program {label}", events))
    return {
        "layers": layers,
        "reference": reference,
        "traced_units": units,
        "traced_instances": n,
        "wrong": wrong,
        "undecided": undecided,
        "lanes": lanes,
    }
