"""Differential ring: cohorts on a warm query cache, with nobody listening.

Lockstep cohorts keep memo-served stages in lockstep only while no
observer listens (``has_listeners`` is False): members then never submit
queries and schedule no delivery events.  The engine and sharded
differential suites run with a recording observer, so they pin the live
path; this ring pins the silent one.  Each run decides a warm-up
instance, then repeated same-instant bursts of the warm valuation, a
burst overlapping the previous burst's tail, and a mixed-valuation
burst, and ``cohorts=True`` must match ``cohorts=False`` exactly in:

* per-instance values and every :class:`InstanceMetrics` counter,
* database totals and the end time,
* the query cache's ``hits`` / ``misses`` / ``coalesced`` / ``reissues``.

The cohort-mode counter proves the warm bursts actually ran in lockstep,
so the equality is not vacuous.  A small-memo run pins that bulk member
hits leave a thrashing memo exactly as one-by-one hits would.  A
sharded twin checks the serial and
process executors agree exactly on the same population, and a
listener-boundary test checks a subscriber attached between rounds gets
the uncohorted event stream from its next round on.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace

import pytest

from repro import (
    Attribute,
    BatchedEngine,
    DecisionFlowSchema,
    IdealDatabase,
    QueryTask,
    Simulation,
    Strategy,
)
from repro.__main__ import main
from repro.api import DecisionService, ExecutionConfig
from repro.core.engine import EngineObserver
from repro.obs import Observability
from repro.runtime import ShardedDecisionService
from repro.simdb.database import QueryShareCache

from tests._support import backend_options, make_database, scenario_pattern
from tests.test_engine_differential import COHORT_SCENARIOS, METRIC_FIELDS, Scenario
from tests.test_sharded_differential import project_event

#: Most cohort scenarios throttle %Permitted or share results, which
#: keeps cohorts off under the cache; these add lockstep-eligible ones
#: with failures, drain halts and cancel-unneeded.
WARM_SCENARIOS = COHORT_SCENARIOS + [
    Scenario(code="PSE100", failure_prob=0.2, spacing=0.0),
    Scenario(code="PCE100", halt_policy="drain", spacing=0.0),
    Scenario(code="PCC100", cancel_unneeded=True, spacing=0.0),
    Scenario(backend="profiled", code="NSE100", failure_prob=0.25, spacing=0.0),
]

#: Same-instant burst size of every phase.
BURST = 6
#: Valuations of the mixed burst (the warm one plus cold neighbours).
MIXED = 3


class SilentObserver(EngineObserver):
    """An observer with no subscriber: aggregated emission may be skipped."""

    has_listeners = False


def counter_values(snapshot: dict, name: str, label: str) -> dict[str, int]:
    """One labelled counter family of a registry snapshot, keyed by *label*."""
    return {
        c["labels"][label]: c["value"]
        for c in snapshot["counters"]
        if c["name"] == name
    }


def mode_counts(obs: Observability) -> dict[str, int]:
    return counter_values(obs.registry.snapshot(), "cohort_modes", "mode")


def lockstep_eligible(scenario) -> bool:
    """Cohorts compose with the cache only at %Permitted 100, without sharing."""
    return not scenario.share and Strategy.parse(scenario.code).permitted >= 100


def run_warm(scenario, seed: int, *, dispatch: str, cohorts: bool) -> dict:
    """Warm-up, two warm bursts, a tail-overlapping burst, a mixed burst."""
    pattern = scenario_pattern(
        seed,
        nb_nodes=scenario.nb_nodes,
        pct_enabled=scenario.pct_enabled,
        max_cost=scenario.max_cost,
    )
    sim = Simulation()
    database = make_database(
        scenario.backend, scenario.kernel, sim, seed, scenario.failure_prob
    )
    obs = Observability.create() if cohorts else None
    engine = BatchedEngine(
        pattern.schema,
        Strategy.parse(scenario.code, cancel_unneeded=scenario.cancel_unneeded),
        database,
        halt_policy=scenario.halt_policy,
        share_results=scenario.share,
        observer=SilentObserver(),
        query_cache=True,
        cohorts=cohorts,
        obs=obs,
    )
    if dispatch == "pooled":
        engine.enable_pooled_dispatch()
    warm = pattern.source_values
    source = next(iter(warm))
    engine.submit_instance(warm)
    sim.run()
    phases = []
    for _ in range(2):
        for _ in range(BURST):
            engine.submit_instance(warm, at=sim.now)
        sim.run()
        phases.append(mode_counts(obs) if obs else None)
    start = sim.now
    for at in (start, start + 1.0):
        for _ in range(BURST):
            engine.submit_instance(warm, at=at)
    sim.run()
    start = sim.now
    for index in range(BURST * MIXED):
        values = {**warm, source: warm[source] + index % MIXED}
        engine.submit_instance(values, at=start)
    sim.run()
    cache = engine.query_cache
    return {
        "values": [
            (inst.instance_id, inst.done, tuple(sorted(
                (name, repr(value)) for name, value in inst.value_map().items()
            )))
            for inst in engine.instances
        ],
        "metrics": [
            tuple(getattr(inst.metrics, name) for name in METRIC_FIELDS)
            for inst in engine.instances
        ],
        "database": (
            database.total_units,
            database.queries_completed,
            database.queries_cancelled,
            database.queries_failed,
            database.mean_gmpl(),
        ),
        "end_time": sim.now,
        "cache": (cache.hits, cache.misses, cache.coalesced, cache.reissues),
        "phases": phases,
        "modes": mode_counts(obs) if obs else None,
    }


@pytest.mark.parametrize("dispatch", ["per-event", "pooled"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize(
    "scenario", WARM_SCENARIOS, ids=[s.label for s in WARM_SCENARIOS]
)
def test_warm_cohorts_match_individual_execution(scenario, seed, dispatch):
    individual = run_warm(scenario, seed, dispatch=dispatch, cohorts=False)
    cohorted = run_warm(scenario, seed, dispatch=dispatch, cohorts=True)
    for part in ("values", "metrics", "database", "end_time", "cache"):
        assert cohorted[part] == individual[part], part
    assert all(done for _, done, _ in individual["values"])
    if lockstep_eligible(scenario):
        # The first warm burst is one cohort whose representative's start
        # launches are answered by the memo: it must have run in
        # lockstep (the pre-memo rule sent it live).
        assert cohorted["phases"][0] == {"lockstep": 1, "live": 0}
        assert cohorted["modes"]["lockstep"] >= 2


def chain_schema(length: int) -> DecisionFlowSchema:
    """src → c1 → … → c<length>, each query's value a function of its input,
    so every valuation has its own keys."""
    attributes = [Attribute("src")]
    previous = "src"
    for index in range(1, length + 1):
        name = f"c{index}"
        attributes.append(Attribute(
            name,
            task=QueryTask(f"q{index}", (previous,), lambda v, p=previous: v[p] * 10 + 1, 1),
            is_target=index == length,
        ))
        previous = name
    return DecisionFlowSchema(attributes, name=f"chain{length}")


def run_small_memo(cohorts: bool) -> tuple:
    sim = Simulation()
    database = IdealDatabase(sim)
    engine = BatchedEngine(
        chain_schema(2),
        Strategy.parse("PSE100"),
        database,
        observer=SilentObserver(),
        query_cache=QueryShareCache(database, memo_limit=4),
        cohorts=cohorts,
    )
    engine.enable_pooled_dispatch()
    arrivals = [(0, 1), (0, 0), (10, 0), (10, 1), (10, 2), (10, 0), (20, 1), (25, 0)]
    for at, src in arrivals:
        engine.submit_instance({"src": src}, at=at)
    sim.run()
    cache = engine.query_cache
    return (
        [tuple(getattr(i.metrics, name) for name in METRIC_FIELDS) for i in engine.instances],
        database.total_units,
        sim.now,
        (cache.hits, cache.misses, cache.coalesced, cache.reissues),
        engine.cohort_hits,
    )


def test_bulk_member_hits_keep_a_small_memo_exact():
    """At t=10 a cohort of src=0 has other valuations between its
    representative and its member, whose memo hits at the next stage
    would land after theirs; with four memo slots the LRU order decides
    later hits, and bulk counting must leave it exactly as it was."""
    individual = run_small_memo(cohorts=False)
    cohorted = run_small_memo(cohorts=True)
    assert cohorted[:4] == individual[:4]
    assert cohorted[4] == 1


# -- the cohort-mode counters ---------------------------------------------------


def warm_service(*, cohorts: bool = True, observe: bool = True) -> tuple:
    """A warm PSE100 service (pooled, cache): one decided instance."""
    pattern = scenario_pattern(3)
    service = DecisionService(
        pattern.schema,
        ExecutionConfig.from_code(
            "PSE100",
            engine="batched",
            dispatch="pooled",
            query_cache=True,
            cohorts=cohorts,
            observe=observe,
        ),
    )
    service.submit(pattern.source_values)
    service.run()
    return service, pattern


def test_warm_burst_without_listener_runs_lockstep():
    service, pattern = warm_service()
    for _ in range(BURST):
        service.submit(pattern.source_values)
    service.run()
    snapshot = service.observability()
    assert counter_values(snapshot, "cohort_modes", "mode") == {"lockstep": 1, "live": 0}
    assert set(counter_values(snapshot, "cohort_demotions", "reason")) == {
        "coalesced", "observed", "late_join", "split_all"
    }
    assert service.summary().cohort_hits == BURST - 1
    text = service.obs.registry.to_prometheus()
    assert 'repro_cohort_modes{mode="lockstep"} 1' in text
    assert 'repro_cohort_demotions{reason="late_join"} 0' in text


def test_warm_burst_with_listener_runs_live():
    service, pattern = warm_service()
    service.attach_log()
    for _ in range(BURST):
        service.submit(pattern.source_values)
    service.run()
    modes = counter_values(service.observability(), "cohort_modes", "mode")
    assert modes["live"] > 0
    assert modes["lockstep"] == 0


def test_cli_json_reports_cohort_modes(capsys):
    assert main([
        "simulate", "--code", "PSE100", "--nb-nodes", "16", "--instances", "40",
        "--concurrency", "8", "--engine", "batched", "--dispatch", "pooled",
        "--query-cache", "--cohorts", "--observe", "--json",
    ]) == 0
    snapshot = json.loads(capsys.readouterr().out)["observability"]
    modes = counter_values(snapshot, "cohort_modes", "mode")
    assert modes["lockstep"] > 0
    assert modes["live"] == 0


# -- a subscriber attached between rounds ----------------------------------------


def listener_boundary_run(cohorts: bool) -> tuple[list, set, int]:
    """Two silent warm rounds, then a log attached, then two more rounds."""
    service, pattern = warm_service(cohorts=cohorts, observe=False)
    warm = pattern.source_values
    for _ in range(BURST):
        service.submit(warm)
    service.run()
    before = {handle.instance_id for handle in service.handles}
    log = service.attach_log()
    for round_index in range(2):
        for index in range(BURST * MIXED):
            service.submit({"src": warm["src"] + (index + round_index) % MIXED})
        for _ in range(BURST):
            service.submit(warm, at=service.now + 1.0)
        service.run()
    events = [project_event(event) for event in log.events]
    return events, before, service.summary().cohort_hits


def test_listener_attached_between_rounds_sees_uncohorted_events():
    individual, before, _ = listener_boundary_run(cohorts=False)
    cohorted, cohorted_before, cohort_hits = listener_boundary_run(cohorts=True)
    assert cohorted_before == before
    assert cohort_hits > 2 * (BURST - 1)  # cohorts formed after the attach too
    # Nothing from the silent rounds reaches the late subscriber.
    assert not {event[2] for event in individual} & before
    assert Counter(cohorted) == Counter(individual)
    # Listened-to cohorts mirror live, which keeps the global order too
    # (and with it every instance's own event subsequence).
    assert cohorted == individual


# -- the sharded twin ------------------------------------------------------------


def run_sharded_warm(executor: str, cohorts: bool = True) -> dict:
    seed = 5
    pattern = scenario_pattern(seed)
    config = ExecutionConfig.from_code(
        "PSE100",
        engine="batched",
        backend_options=backend_options("ideal", seed),
        shards=2,
        executor=executor,
        dispatch="pooled",
        query_cache=True,
        cohorts=cohorts,
        observe=True,
    )
    service = ShardedDecisionService(pattern.schema, config)
    warm = pattern.source_values
    service.submit(warm)
    service.run()
    for _ in range(2):
        for _ in range(2 * BURST):
            service.submit(warm, at=service.now)
        service.run()
    start = service.now
    for at in (start, start + 1.0):
        for _ in range(2 * BURST):
            service.submit(warm, at=at)
    service.run()
    start = service.now
    for index in range(2 * BURST * MIXED):
        service.submit({"src": warm["src"] + index % MIXED}, at=start)
    service.run()
    trace = {
        "values": [
            (h.instance_id, h.done,
             tuple(sorted((n, repr(v)) for n, v in h.value_map().items())))
            for h in service.handles
        ],
        "metrics": [
            tuple(getattr(h.metrics, name) for name in METRIC_FIELDS)
            for h in service.handles
        ],
        "summary": service.summary(),
        "modes": counter_values(service.observability(), "cohort_modes", "mode"),
    }
    service.close()
    return trace


def test_sharded_warm_cohorts_agree_across_executors():
    serial = run_sharded_warm("serial")
    process = run_sharded_warm("process")
    assert process == serial
    individual = run_sharded_warm("serial", cohorts=False)
    assert serial["values"] == individual["values"]
    assert serial["metrics"] == individual["metrics"]
    summary = serial["summary"]
    assert replace(summary, cohort_hits=0) == individual["summary"]
    assert serial["modes"]["lockstep"] >= 2
    assert summary.cohort_hits > 0
