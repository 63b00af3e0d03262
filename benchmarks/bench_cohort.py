"""Micro-benchmark: cohort execution on an overlapping decision sweep.

Not a paper figure — this measures the reproduction itself.  The PR-5
baseline (pooled dispatch + query share cache) removed duplicate
*queries* from an overlapping sweep but still ran every instance's
decision logic: at 10k identical submissions the engine advances 10k
state machines through the same stages, coalescing each one's launches
behind the same primaries.  Cohort execution (``cohorts=True``) dedupes
the *instances*: arrivals sharing one ``(typed start valuation,
strategy)`` key at one instant form a cohort, one representative runs,
and members are tracked as weighted virtual attachments on the
representative's primaries until they finish (or diverge and split
off).

The sweep runs one PSE100 population (ideal backend, batched engine,
pooled dispatch, query cache on — exactly the PR-5 headline
configuration) twice and reports instances/sec: cohorts off (the
baseline) and cohorts on.  The gate: **cohorts must deliver >= 5x** the
pooled+cache baseline on the 10 000-instance single-valuation sweep.
Identical per-instance decision values and identical database work are
asserted before any rate is reported, along with full cohort capture
(every non-representative instance a cohort hit, zero splits on an
identical-valuation sweep).

A second, *warm* cell decides each of 100 valuations once, then times
one same-instant burst cycling through all 100: every representative's
start launches are answered by the query cache's memo, the realistic
steady state of a service.  The same value and database-work
assertions hold there (plus identical cache hit/miss/coalesce counts),
under the same gate.

``--quick`` (CI smoke) shrinks the population and relaxes the gate to a
regression tripwire; both modes write a machine-readable
``BENCH_*.json`` artifact.
"""

from __future__ import annotations

import time

from conftest import usable_cores
from repro import ExecutionConfig, PatternParams, generate_pattern
from repro.api import DecisionService
from repro.bench.figures import FigureResult

#: Full-mode gate (10k instances): cohort execution vs the PR-5
#: pooled+cache baseline.  Quick mode uses the tripwire.
FULL_TARGET = 5.0
TRIPWIRE = 1.5

CODE = "PSE100"

#: Valuations of the warm cell (``src`` payloads 0..99).
WARM_VALUATIONS = 100


def _pattern():
    return generate_pattern(PatternParams(nb_rows=4, pct_enabled=50, seed=7))


def _service(pattern, cohorts: bool) -> DecisionService:
    return DecisionService(
        pattern.schema,
        ExecutionConfig.from_code(
            CODE,
            engine="batched",
            dispatch="pooled",
            query_cache=True,
            cohorts=cohorts,
        ),
    )


def _sweep(pattern, instances: int, cohorts: bool):
    service = _service(pattern, cohorts)
    started = time.perf_counter()
    for _ in range(instances):
        service.submit(pattern.source_values)
    service.run()
    host_seconds = time.perf_counter() - started
    summary = service.summary()
    assert summary.count == instances
    values = frozenset(
        tuple(sorted((k, repr(v)) for k, v in h.instance.value_map().items()))
        for h in service.handles
    )
    return {
        "rate": instances / host_seconds,
        "db_units": service.database.total_units,
        "values": values,
        "cohort_hits": summary.cohort_hits,
        "cohort_splits": summary.cohort_splits,
    }


def _warm_sweep(pattern, instances: int, cohorts: bool):
    """One timed burst over WARM_VALUATIONS valuations, each decided once before."""
    service = _service(pattern, cohorts)
    for src in range(WARM_VALUATIONS):
        service.submit({"src": src})
    service.run()
    started = time.perf_counter()
    handles = [
        service.submit({"src": index % WARM_VALUATIONS}, at=service.now)
        for index in range(instances)
    ]
    service.run()
    host_seconds = time.perf_counter() - started
    summary = service.summary()
    assert summary.count == WARM_VALUATIONS + instances
    return {
        "rate": instances / host_seconds,
        "db_units": service.database.total_units,
        "values": [
            tuple(sorted((k, repr(v)) for k, v in h.instance.value_map().items()))
            for h in handles
        ],
        "cache": (
            summary.query_cache_hits,
            summary.query_cache_misses,
            summary.query_cache_coalesced,
        ),
    }


def measure_warm(instances: int) -> list:
    """The warm cell's figure row: ``[label, baseline, cohorts, speedup]``."""
    pattern = _pattern()
    baseline = _warm_sweep(pattern, instances, cohorts=False)
    cohort = _warm_sweep(pattern, instances, cohorts=True)
    assert cohort["values"] == baseline["values"], (
        "cohort execution changed decision values on the warm cell"
    )
    assert cohort["db_units"] == baseline["db_units"], (
        "cohort execution changed db work on the warm cell"
    )
    assert cohort["cache"] == baseline["cache"], (
        "cohort execution changed query cache counters on the warm cell"
    )
    return [
        f"{instances} warm x{WARM_VALUATIONS}",
        baseline["rate"],
        cohort["rate"],
        cohort["rate"] / baseline["rate"],
    ]


def measure_cohort(counts) -> tuple[FigureResult, dict]:
    """Returns the rendered figure plus the headline sweep's cohort stats."""
    pattern = _pattern()
    rows = []
    cohort_stats: dict = {}
    for count in counts:
        baseline = _sweep(pattern, count, cohorts=False)
        cohort = _sweep(pattern, count, cohorts=True)
        assert cohort["values"] == baseline["values"], (
            "cohort execution changed decision values"
        )
        assert cohort["db_units"] == baseline["db_units"], (
            "cohort execution changed db work"
        )
        assert baseline["cohort_hits"] == 0, "cohorts counted while disabled"
        assert cohort["cohort_hits"] == count - 1, (
            "identical-valuation sweep was not fully cohorted"
        )
        assert cohort["cohort_splits"] == 0, (
            "identical-valuation sweep should never split"
        )
        rows.append(
            [
                count,
                baseline["rate"],
                cohort["rate"],
                cohort["rate"] / baseline["rate"],
            ]
        )
        cohort_stats = {
            "cohort_hits": cohort["cohort_hits"],
            "cohort_splits": cohort["cohort_splits"],
        }
    figure = FigureResult(
        figure_id="Bench cohort",
        title=(
            f"cohort execution vs pooled+cache baseline "
            f"({CODE}, ideal backend, batched engine, single shard)"
        ),
        headers=[
            "instances",
            "pooled+cache inst/s",
            "cohorts inst/s",
            "cohort speedup",
        ],
        rows=rows,
        notes=[
            "identical per-instance decision values asserted between both paths",
            "identical db work asserted between both paths",
            "cohort = one representative instance per (valuation, strategy, instant)",
            f"host cores: {usable_cores()}",
            f"gate: cohorts >= {FULL_TARGET:g}x pooled+cache at the 10k sweep, cold and "
            f"warm (full mode)",
        ],
    )
    return figure, cohort_stats


def test_cohort_throughput(report_figure, bench_artifact, quick):
    counts = (600,) if quick else (1_000, 10_000)
    figure, cohort_stats = measure_cohort(counts)
    headline = counts[-1]
    warm = measure_warm(headline)
    figure.rows.append(warm)
    figure.notes.append(
        f"warm row: each of {WARM_VALUATIONS} valuations decided once, then one "
        f"burst cycling through them (identical values, db work and cache "
        f"counters asserted)"
    )
    result = report_figure(figure)
    by_count = {row[0]: row for row in result.rows}
    speedup = by_count[headline][3]
    warm_speedup = warm[3]
    target = TRIPWIRE if quick else FULL_TARGET
    passed = speedup >= target and warm_speedup >= target
    bench_artifact(
        "bench_cohort",
        metrics={
            "instances": headline,
            "baseline_inst_per_s": by_count[headline][1],
            "cohort_inst_per_s": by_count[headline][2],
            "speedup": speedup,
            **cohort_stats,
            "warm_valuations": WARM_VALUATIONS,
            "warm_baseline_inst_per_s": warm[1],
            "warm_cohort_inst_per_s": warm[2],
            "warm_speedup": warm_speedup,
        },
        gate={
            "description": (
                f"cohorts >= {target:g}x pooled+cache baseline, "
                f"cold and warm x{WARM_VALUATIONS}"
            ),
            "target": target,
            "measured": speedup,
            "warm_measured": warm_speedup,
            "passed": passed,
        },
    )
    assert speedup >= target, (
        f"cohorts only {speedup:.2f}x the pooled+cache baseline at "
        f"{headline} instances (target {target:g}x)"
    )
    assert warm_speedup >= target, (
        f"cohorts only {warm_speedup:.2f}x the pooled+cache baseline on the "
        f"warm x{WARM_VALUATIONS} burst of {headline} (target {target:g}x)"
    )
