"""Releasing decided instances: the memory goes, the reported numbers stay.

``release()`` on both service facades drops decided handles (and, on a
plain service, their engine instances) but keeps every number the
service reports: the summary bit for bit, the ``instances_*`` counters,
the observability gauges, ``repr`` and the per-shard stats.  Each test
drives a twin pair of services through the same rounds, releasing on
one only, and compares what they report.
"""

import pytest

from repro import PatternParams, generate_pattern
from repro.api import DecisionService, ExecutionConfig
from repro.errors import ExecutionError
from repro.runtime import create_service

PATTERN = generate_pattern(PatternParams(nb_nodes=16, nb_rows=3, pct_enabled=50, seed=3))

CONFIGS = {
    "reference": ExecutionConfig.from_code("PSE80", observe=True),
    "batched-cohorts": ExecutionConfig.from_code(
        "PSE100",
        engine="batched",
        dispatch="pooled",
        query_cache=True,
        cohorts=True,
        observe=True,
    ),
    "serial-2": ExecutionConfig.from_code(
        "PSE80", shards=2, query_cache=True, observe=True
    ),
    "process-2": ExecutionConfig.from_code("PSE80", shards=2, executor="process"),
}

COUNTED_GAUGES = ("instances_submitted", "instances_done")


def drive(service, *, release: bool, rounds: int = 4, per_round: int = 12):
    """Submit and drain *rounds* rounds of varied valuations."""
    for round_index in range(rounds):
        floor = service.now
        handles = [
            service.submit({"src": (7 * (round_index * per_round + i)) % 100}, at=floor + i % 3)
            for i in range(per_round)
        ]
        service.run()
        assert all(handle.done for handle in handles)
        if release:
            service.release(handles)


def report(service) -> dict:
    gauges = {
        entry["name"]: entry["value"]
        for entry in service.observability().get("gauges", ())
        if entry["name"] in COUNTED_GAUGES and not entry["labels"]
    }
    stats = service.stats() if hasattr(service, "stats") else None
    return {
        "summary": service.summary(),
        "submitted": service.instances_submitted,
        "done": service.instances_done,
        "gauges": gauges,
        "repr": repr(service),
        "stats": stats,
    }


@pytest.fixture(params=sorted(CONFIGS))
def twins(request):
    config = CONFIGS[request.param]
    services = [create_service(PATTERN.schema, config) for _ in range(2)]
    yield services
    for service in services:
        close = getattr(service, "close", None)
        if close is not None:
            close()


class TestReleaseKeepsTheNumbers:
    def test_release_then_report_equals_no_release(self, twins):
        kept, released = twins
        drive(kept, release=False)
        drive(released, release=True)
        assert report(released) == report(kept)
        assert report(kept)["submitted"] == 48
        assert report(kept)["done"] == 48
        assert len(kept.handles) == 48
        assert released.handles == ()

    def test_summary_is_bit_identical_with_partial_release(self):
        kept = DecisionService(PATTERN.schema, CONFIGS["reference"])
        released = DecisionService(PATTERN.schema, CONFIGS["reference"])
        drive(kept, release=False)
        drive(released, release=False)
        # Release out of submission order: every other handle.
        released.release(released.handles[::2])
        assert len(released.handles) == 24
        assert released.summary().to_dict() == kept.summary().to_dict()
        assert released.instances_done == kept.instances_done == 48


class TestReleaseDropsTheInstances:
    def test_engine_and_handles_hold_only_what_is_unreleased(self):
        service = DecisionService(PATTERN.schema, CONFIGS["batched-cohorts"])
        drive(service, release=True)
        assert service.handles == ()
        assert service.engine.instances == []
        assert service.completed == ()

    def test_released_ids_stay_claimed(self):
        service = DecisionService(PATTERN.schema, CONFIGS["reference"])
        handle = service.submit(PATTERN.source_values, instance_id="only-once")
        service.run()
        service.release([handle])
        with pytest.raises(ExecutionError, match="duplicate instance id"):
            service.submit(PATTERN.source_values, instance_id="only-once")

    def test_double_release_is_ignored(self):
        service = DecisionService(PATTERN.schema, CONFIGS["reference"])
        handle = service.submit(PATTERN.source_values)
        service.run()
        service.release([handle])
        service.release([handle])
        assert service.summary().count == 1
        assert service.instances_done == 1

    def test_released_sharded_handles_lose_their_routes(self):
        service = create_service(PATTERN.schema, CONFIGS["serial-2"])
        handles = [service.submit(PATTERN.source_values) for _ in range(6)]
        service.run()
        service.release(handles)
        assert service._routes == {}
        assert all(shard.handles == () for shard in service._executor.services)
        assert service.summary().count == 6


class TestReleaseRefusesInFlight:
    @pytest.mark.parametrize("name", ["reference", "serial-2"])
    def test_not_yet_run_handle_raises(self, name):
        service = create_service(PATTERN.schema, CONFIGS[name])
        handle = service.submit(PATTERN.source_values, at=5.0)
        with pytest.raises(ExecutionError, match="still in flight"):
            service.release([handle])
        assert len(service.handles) == 1
        service.run()
        service.release([handle])
        assert service.handles == ()
        assert service.summary().count == 1

    def test_handle_of_another_service_raises(self):
        one = DecisionService(PATTERN.schema, CONFIGS["reference"])
        other = DecisionService(PATTERN.schema, CONFIGS["reference"])
        handle = one.submit(PATTERN.source_values)
        one.run()
        with pytest.raises(ValueError, match="another service"):
            other.release([handle])
