"""ShardedDecisionService: one facade, N independent engine + DES shards.

The paper's optimizations are per-instance, which makes instance
populations embarrassingly partitionable: nothing couples two instances
except the database they happen to share (and, optionally, result
sharing).  This module exploits that.  A :class:`ShardedDecisionService`
presents the :class:`~repro.api.service.DecisionService` facade — submit,
``submit_stream``, ``run_closed``, handles, summaries, observer hooks —
but hash-partitions instances across ``config.shards`` shards, each
owning an independent engine (reference or batched), DES calendar, and
database replica built from the backend registry.

Routing is by a *stable* hash (CRC-32 of the instance id) under the
default ``placement="hash"``, so the same workload lands on the same
shards in every process on every run; ``placement="least-loaded"``
instead routes each new submission to the shard with the fewest
instances still in flight (skew rebalancing — deterministic given
submission order, since routing always happens in the parent).  Two
executors drive the fleet (``config.executor``): ``"serial"`` runs every
shard in-process — deterministic, incremental, and for ``shards=1``
indistinguishable from a plain service — while ``"process"`` keeps one
long-lived worker process per shard, streaming each round's ops over a
pipe via :mod:`repro.core.serialize` and merging the incremental
outcomes.  Both executors are fully incremental: submit → run → submit
again works identically on either.

Determinism and equivalence guarantees:

* Any sharded run is exactly reproducible, and the process executor
  reproduces the serial executor's results shard for shard (each worker
  replays the same ops on the same substrate at the same round
  boundaries — including the shared L2 query tier, which commits at
  end-of-round on both executors).
* With one shard, results are identical to a plain ``DecisionService`` —
  bit for bit, including event order.
* With N shards, per-instance results are identical to a single service
  whenever instances do not interact through the database: always on the
  ideal backend (unbounded resources), and on any backend while arrivals
  do not overlap.  Under overlap on a contended backend, sharding *is*
  the point — N replicas replace one shared server, so response times
  (and contention-dependent scheduling) legitimately differ.

Cross-shard aggregation: ``summary()`` merges per-shard summaries via
:meth:`~repro.core.metrics.MetricsSummary.merge`, ``stats()`` reports
per-shard database totals, and :meth:`attach_log` returns a
:class:`MergedEventLog` whose ``events`` property is the stable globally
ordered stream (time, then shard, then in-shard order).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Mapping, Sequence
from zlib import crc32

from repro.api.backends import Backend
from repro.api.config import ExecutionConfig
from repro.api.events import InstanceCompleteEvent, LaunchEvent, QueryDoneEvent
from repro.api.service import DecisionService, InstanceHandle, coerce_config
from repro.core.engine import claim_instance_id
from repro.core.metrics import InstanceMetrics, MetricsSummary
from repro.core.schema import DecisionFlowSchema
from repro.core.strategy import Strategy
from repro.errors import ExecutionError
from repro.nulls import NULL
from repro.obs import MetricsRegistry, export_chrome_trace
from repro.runtime.executors import EXECUTOR_CLASSES, ShardStats
from repro.runtime.worker import InstanceRecord

__all__ = [
    "ShardedDecisionService",
    "ShardedInstanceHandle",
    "MergedEventLog",
    "shard_of",
    "merge_shard_events",
    "create_service",
]


def shard_of(instance_id: str, shards: int) -> int:
    """The home shard of an instance id.

    CRC-32 rather than ``hash()``: Python string hashing is salted per
    process, and routing must agree between the parent and its workers
    (and across runs) for results to be reproducible.
    """
    return crc32(instance_id.encode("utf-8")) % shards


def merge_shard_events(per_shard: Sequence[Sequence[object]]) -> list[object]:
    """Merge per-shard event sequences into the stable global order.

    Shard clocks are independent, so a total order is a convention: sort
    by event time, then shard index, then in-shard arrival order.  Within
    a shard the engine's deterministic sequence is preserved; across
    shards same-instant ties resolve by shard index.  Both executors
    produce the same merged stream for the same workload.
    """
    entries = [
        (event.time, shard, index, event)
        for shard, events in enumerate(per_shard)
        for index, event in enumerate(events or ())
    ]
    entries.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in entries]


class MergedEventLog:
    """Per-shard event recorder exposing one stable globally ordered stream.

    The sharded counterpart of :class:`~repro.api.events.EventLog`:
    ``events`` merges every shard's sequence per
    :func:`merge_shard_events`; ``per_shard(i)`` reads one shard's raw
    sequence.
    """

    def __init__(self, shards: int):
        self._per_shard: list[list[object]] = [[] for _ in range(shards)]

    def record(self, shard: int, event: object) -> None:
        self._per_shard[shard].append(event)

    def per_shard(self, shard: int) -> tuple[object, ...]:
        return tuple(self._per_shard[shard])

    @property
    def events(self) -> list[object]:
        return merge_shard_events(self._per_shard)

    def of_type(self, event_type: type) -> list[object]:
        return [e for e in self.events if isinstance(e, event_type)]

    def __len__(self) -> int:
        return sum(len(events) for events in self._per_shard)


class ShardedInstanceHandle:
    """A submitted instance in a sharded service: poll it, drive it, read it.

    Mirrors :class:`~repro.api.service.InstanceHandle`.  Under the serial
    executor it wraps the live shard handle; under the process executor
    results materialize once the service has run.
    """

    __slots__ = ("_service", "_shard", "_instance_id", "_local", "_record")

    def __init__(
        self,
        service: "ShardedDecisionService",
        shard: int,
        instance_id: str,
        local: InstanceHandle | None,
    ):
        self._service = service
        self._shard = shard
        self._instance_id = instance_id
        self._local = local
        self._record: InstanceRecord | None = None

    @property
    def instance_id(self) -> str:
        return self._instance_id

    @property
    def shard(self) -> int:
        """The shard this instance was routed to."""
        return self._shard

    def _resolve(self) -> InstanceRecord | None:
        # Re-fetch until the record reports done: the persistent process
        # executor re-materializes records of still-running instances
        # every round, so a cached not-done record goes stale.
        record = self._record
        if record is None or not record.done:
            fetched = self._service._executor.record_for(self._instance_id)
            if fetched is not None:
                self._record = fetched
        return self._record

    @property
    def done(self) -> bool:
        if self._local is not None:
            return self._local.done
        record = self._resolve()
        return record is not None and record.done

    @property
    def metrics(self) -> InstanceMetrics:
        if self._local is not None:
            return self._local.metrics
        record = self._resolve()
        if record is None:
            raise ValueError(
                f"instance {self._instance_id} has no metrics yet: the process "
                "executor materializes results when the service runs"
            )
        return record.metrics

    def value(self, name: str) -> object:
        """The value of one attribute (⊥ until stable)."""
        if self._local is not None:
            return self._local.value(name)
        if name not in self._service.schema:
            # Mirror the live handle's cells[name] lookup: a typo raises
            # on both executors instead of silently reading ⊥ on one.
            raise KeyError(name)
        record = self._resolve()
        if record is None:
            return NULL
        return record.values.get(name, NULL)

    def value_map(self) -> dict[str, object]:
        """Every stable attribute's value."""
        if self._local is not None:
            return dict(self._local.instance.value_map())
        record = self._resolve()
        return dict(record.values) if record is not None else {}

    def wait(self) -> InstanceMetrics:
        """Drive the owning shard until this instance finishes."""
        if self._local is not None:
            return self._local.wait()
        if not self.done:
            self._service.run()
        record = self._resolve()
        if record is None or not record.done:
            raise ExecutionError(
                f"instance {self._instance_id} stalled on shard {self._shard}"
            )
        return record.metrics

    def result(self) -> dict[str, object]:
        """The target attribute values, driving the shard if needed."""
        if self._local is not None:
            return self._local.result()
        self.wait()
        record = self._resolve()
        return {
            name: record.values[name]
            for name in self._service.schema.target_names
            if name in record.values
        }

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return (
            f"<ShardedInstanceHandle {self._instance_id!r} "
            f"shard={self._shard} {state}>"
        )


class ShardedDecisionService:
    """Execute decision-flow instances across hash-partitioned shards.

    Accepts the same ``config`` spellings as
    :class:`~repro.api.service.DecisionService` (an
    :class:`~repro.api.config.ExecutionConfig`, a
    :class:`~repro.core.strategy.Strategy`, or a code string);
    ``config.shards`` sets the shard count and ``config.executor`` picks
    the drive mode.  ``backend`` must be a registered backend *name* —
    every shard builds a fresh replica from the registry, so a pre-built
    :class:`~repro.api.backends.Backend` cannot be shared.
    """

    def __init__(
        self,
        schema: DecisionFlowSchema,
        config: ExecutionConfig | Strategy | str | None = None,
        *,
        backend: str | None = None,
        **backend_options: Any,
    ):
        config = coerce_config(config)
        if isinstance(backend, Backend):
            raise TypeError(
                "a sharded service builds one fresh backend per shard from the "
                "registry; pass a registered backend name, not a pre-built Backend"
            )
        if backend is not None:
            config = config.replace(backend=backend)
        if backend_options:
            merged = {**config.backend_options, **backend_options}
            config = config.replace(backend_options=merged)
        self.schema = schema
        self.config = config
        self.shards = config.shards
        self._executor = EXECUTOR_CLASSES[config.executor](schema, config, self.shards)
        self._handles: list[ShardedInstanceHandle] = []
        #: submission counter and finished released instances (release())
        self._submitted = 0
        self._released_done = 0
        #: whether the last run() drained every shard with nothing
        #: submitted since: a not-done instance is then stalled, not in
        #: flight, and may be released.
        self._drained = True
        self._instance_ids: set[str] = set()
        self._id_seq = itertools.count(1)
        #: placement state: where each instance was routed, how many each
        #: shard was assigned, and each shard's completion count as of
        #: the last drain (the live-load signal for least-loaded).
        self._routes: dict[str, int] = {}
        self._assigned = [0] * self.shards
        self._completed_seen = [0] * self.shards
        #: process-executor observation state (serial subscribes live).
        self._handlers: dict[str, list[Callable]] = {
            "launch": [],
            "query_done": [],
            "complete": [],
        }
        self._logs: list[MergedEventLog] = []

    # -- id allocation and routing --------------------------------------------

    def _claim_id(self, instance_id: str | None) -> str:
        return claim_instance_id(
            instance_id, self.schema.name, self._id_seq, self._instance_ids,
            scope="service",
        )

    def shard_of(self, instance_id: str) -> int:
        """Which shard an instance id routes to.

        For an already-routed instance this is its assigned shard under
        any placement policy; otherwise the stable CRC-32 home.
        """
        assigned = self._routes.get(instance_id)
        if assigned is not None:
            return assigned
        return shard_of(instance_id, self.shards)

    def _route(self, instance_id: str) -> int:
        """Assign a new instance a shard under the configured placement."""
        if self.config.placement == "hash":
            shard = shard_of(instance_id, self.shards)
        else:  # least-loaded: fewest in flight, ties to the lowest index
            shard = min(
                range(self.shards),
                key=lambda s: (self._assigned[s] - self._completed_seen[s], s),
            )
        self._routes[instance_id] = shard
        self._assigned[shard] += 1
        return shard

    def _register(
        self, shard: int, instance_id: str, local: InstanceHandle | None
    ) -> ShardedInstanceHandle:
        handle = ShardedInstanceHandle(self, shard, instance_id, local)
        self._handles.append(handle)
        self._submitted += 1
        return handle

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        source_values: Mapping[str, object] | None = None,
        *,
        at: float | None = None,
        instance_id: str | None = None,
    ) -> ShardedInstanceHandle:
        """Submit one instance to its home shard."""
        instance_id = self._claim_id(instance_id)
        shard = self._route(instance_id)
        self._drained = False
        try:
            local = self._executor.submit(shard, instance_id, source_values, at)
        except Exception:
            # A rejected submission (e.g. a past start time) must not
            # burn the name or skew the placement load accounting.
            del self._routes[instance_id]
            self._assigned[shard] -= 1
            raise
        self._instance_ids.add(instance_id)
        return self._register(shard, instance_id, local)

    def submit_stream(
        self,
        arrivals: Iterable[float | tuple[float, Mapping[str, object]]],
        values: Mapping[str, object] | Callable[[int], Mapping[str, object]] | None = None,
        *,
        run: bool = True,
    ) -> list[ShardedInstanceHandle]:
        """Open-system helper; see :meth:`DecisionService.submit_stream`."""
        handles = []
        for index, arrival in enumerate(arrivals):
            if isinstance(arrival, tuple):
                at, source_values = arrival
            else:
                at = arrival
                source_values = values(index) if callable(values) else values
            handles.append(self.submit(source_values, at=at))
        if run:
            self.run()
        return handles

    def run_closed(
        self,
        n: int,
        *,
        concurrency: int = 1,
        values: Mapping[str, object] | Callable[[int], Mapping[str, object]] | None = None,
    ) -> list[ShardedInstanceHandle]:
        """Closed-system helper: per-shard closed loops, then drain.

        Ids are allocated globally and hash-routed; each shard with work
        runs its own replacement loop over its share of the *n* instances.
        *concurrency* splits as evenly as possible across the busy shards
        with every busy shard keeping at least one instance in flight —
        so when ``concurrency < shards`` the global in-flight population
        can exceed *concurrency* (shard clocks are independent; a global
        bound would serialize the fleet).
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        ids = []
        for _ in range(n):
            instance_id = self._claim_id(None)
            self._instance_ids.add(instance_id)
            ids.append(instance_id)
        values_list = [values(i) if callable(values) else values for i in range(n)]
        per_shard_ids: list[list[str]] = [[] for _ in range(self.shards)]
        per_shard_values: list[list[Mapping[str, object] | None]] = [
            [] for _ in range(self.shards)
        ]
        for instance_id, source_values in zip(ids, values_list):
            shard = self._route(instance_id)
            per_shard_ids[shard].append(instance_id)
            per_shard_values[shard].append(source_values)
        self._drained = False
        active = [s for s in range(self.shards) if per_shard_ids[s]]
        shares = _split_concurrency(concurrency, len(active))
        local_lists: dict[int, list[InstanceHandle] | None] = {}
        for share, shard in zip(shares, active):
            local_lists[shard] = self._executor.start_closed(
                shard, per_shard_ids[shard], per_shard_values[shard], share
            )
        self.run()
        # Wrap in global id order; each shard's live list is in shard
        # submission order, which is its id-list order by construction.
        positions = [0] * self.shards
        handles = []
        for instance_id in ids:
            shard = self.shard_of(instance_id)
            locals_ = local_lists.get(shard)
            local = None
            if locals_ is not None:
                local = locals_[positions[shard]]
                positions[shard] += 1
            handles.append(self._register(shard, instance_id, local))
        return handles

    # -- driving and reading --------------------------------------------------

    def run(self, until: float | None = None) -> None:
        """Drive every shard one round: to *until*, or until its work drains."""
        collect = bool(self._logs) or any(self._handlers.values())
        self._executor.run(until, collect_events=collect)
        self._drained = until is None
        self._replay_events()
        if self.config.placement != "hash":
            for index, stat in enumerate(self._executor.shard_stats()):
                self._completed_seen[index] = stat.completed

    @property
    def now(self) -> float:
        """The furthest shard clock."""
        return self._executor.now

    @property
    def handles(self) -> tuple[ShardedInstanceHandle, ...]:
        """Every handle issued and not released, in submission order."""
        return tuple(self._handles)

    @property
    def completed(self) -> tuple[ShardedInstanceHandle, ...]:
        """The finished handles among :attr:`handles`."""
        return tuple(h for h in self._handles if h.done)

    @property
    def instances_submitted(self) -> int:
        """Instances ever submitted, released ones included."""
        return self._submitted

    @property
    def instances_done(self) -> int:
        """Instances ever finished, released ones included."""
        return self._released_done + sum(1 for h in self._handles if h.done)

    def release(self, handles: Iterable[ShardedInstanceHandle]) -> None:
        """Forget decided or stalled instances; see :meth:`DecisionService.release`.

        Drops the handles and their routes here and the executor's copy
        of them: the serial executor releases them from its shard
        services; the process executor drops the records it materialized
        (the workers keep theirs).  Summaries and counters are unchanged.
        A not-done handle is stalled only after a ``run()`` without
        *until* drained every shard; before that, releasing it raises
        :class:`ExecutionError`.  A released handle keeps answering from
        what it last resolved.
        """
        handles = list(handles)
        for handle in handles:
            if handle._service is not self:
                raise ValueError(f"{handle!r} belongs to another service")
            if not handle.done and not self._drained:
                raise ExecutionError(
                    f"instance {handle.instance_id} is still in flight"
                )
        doomed = {id(handle) for handle in handles}
        kept = []
        released = []
        for handle in self._handles:
            (released if id(handle) in doomed else kept).append(handle)
        self._handles = kept
        self._released_done += sum(1 for handle in released if handle.done)
        for handle in released:
            del self._routes[handle.instance_id]
        self._executor.release(
            [(handle.shard, handle.instance_id, handle._local) for handle in released]
        )

    def summary(self) -> MetricsSummary:
        """Cross-shard aggregate metrics (`MetricsSummary.merge` of shards)."""
        return MetricsSummary.merge(*self._executor.shard_summaries())

    def stats(self) -> tuple[ShardStats, ...]:
        """Per-shard population, database totals, and clock positions."""
        return tuple(self._executor.shard_stats())

    @property
    def total_units(self) -> int:
        """Units of processing performed across every shard's database."""
        return sum(stat.total_units for stat in self.stats())

    def mean_gmpl(self) -> float:
        """Mean multiprogramming level across shards, weighted by shard time.

        Each shard's Gmpl is averaged over its own clock; the fleet-level
        figure weights shards by how long they ran.
        """
        stats = self.stats()
        total_time = sum(stat.end_time for stat in stats)
        if total_time <= 0:
            return 0.0
        return sum(stat.mean_gmpl * stat.end_time for stat in stats) / total_time

    def time_unit(self) -> str | None:
        """How to read shard clocks (``"units"``/``"ms"``; None before the
        process executor has built its backends)."""
        return self._executor.time_unit()

    def dispatch_stats(self) -> dict:
        """Fleet-level pooled-dispatch counters (summed across shards)."""
        totals = {"pooled_batches": 0, "pooled_events": 0}
        for stats in self._executor.dispatch_stats():
            totals["pooled_batches"] += stats["pooled_batches"]
            totals["pooled_events"] += stats["pooled_events"]
        return totals

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Release executor resources (shuts persistent shard workers down).

        Idempotent; the serial executor has nothing to release.  A closed
        process-executor service can still be read (summaries, handles,
        stats come from cached outcomes) but not driven further.
        """
        self._executor.close()

    def worker_health(self) -> dict:
        """Executor liveness: per-worker alive flags for the process fleet.

        The daemon folds this into ``/healthz``; the serial executor is
        trivially alive.
        """
        return self._executor.worker_health()

    # -- observability (repro.obs) --------------------------------------------

    def observability(self) -> dict:
        """Shard registry snapshots merged into one, labelled ``shard=<n>``.

        Counters and histograms add across shards; gauges stay per-shard
        (each entry keeps its shard label), since summing shard clocks or
        Gmpl figures would be meaningless.  Process-executor shards ship
        their snapshots back inside :class:`ShardOutcome`, exactly like
        their metrics summaries.
        """
        if not self.config.observe:
            return {"enabled": False, "counters": [], "gauges": [], "histograms": []}
        merged = MetricsRegistry()
        for shard, snapshot in enumerate(self._executor.obs_snapshots()):
            if snapshot and snapshot.get("enabled"):
                merged.merge_snapshot(snapshot, extra_labels={"shard": shard})
        return merged.snapshot()

    def trace_groups(self) -> list[tuple[int, str, list]]:
        """Chrome-trace lanes: one process lane per shard."""
        return [
            (shard, f"shard:{shard}", events)
            for shard, events in enumerate(self._executor.trace_groups())
        ]

    def chrome_trace(self) -> dict:
        """The fleet's flight recorders as one Chrome-trace JSON object."""
        return export_chrome_trace(
            self.trace_groups(), armed=bool(self.config.observe)
        )

    # -- observation ----------------------------------------------------------

    def _subscribe(self, kind: str, handler: Callable) -> Callable:
        if self._executor.live:
            self._executor.subscribe(kind, handler)
        else:
            self._handlers[kind].append(handler)
        return handler

    def on_launch(self, handler: Callable[[LaunchEvent], None]):
        """Subscribe to task-launch events; usable as a decorator.

        Serial-executor delivery is live; the process executor replays
        each round's events in the merged global order once its shards
        return.  Handlers may attach at any point in the service's life —
        a handler attached after some rounds have run receives events
        from the next round on.
        """
        return self._subscribe("launch", handler)

    def on_query_done(self, handler: Callable[[QueryDoneEvent], None]):
        """Subscribe to query-completion events; usable as a decorator."""
        return self._subscribe("query_done", handler)

    def on_instance_complete(self, handler: Callable[[InstanceCompleteEvent], None]):
        """Subscribe to instance-completion events; usable as a decorator."""
        return self._subscribe("complete", handler)

    def attach_log(self) -> MergedEventLog:
        """Subscribe a fresh :class:`MergedEventLog` to every shard.

        Logs may attach at any point; under the process executor a log
        attached after some rounds have run records from the next round.
        """
        log = MergedEventLog(self.shards)
        if self._executor.live:
            self._executor.attach_sink(log.record)
        else:
            self._logs.append(log)
        return log

    def _replay_events(self) -> None:
        """Process executor: fan one round's shard events out after it runs."""
        if self._executor.live:
            return
        if not self._logs and not any(self._handlers.values()):
            return
        per_shard = self._executor.round_events()
        for log in self._logs:
            for shard, events in enumerate(per_shard):
                for event in events:
                    log.record(shard, event)
        dispatch = {
            LaunchEvent: self._handlers["launch"],
            QueryDoneEvent: self._handlers["query_done"],
            InstanceCompleteEvent: self._handlers["complete"],
        }
        for event in merge_shard_events(per_shard):
            for handler in dispatch.get(type(event), ()):
                handler(event)

    def __repr__(self) -> str:
        return (
            f"<ShardedDecisionService {self.schema.name!r} {self.config.code} "
            f"shards={self.shards} executor={self.config.executor!r} "
            f"backend={self.config.backend!r} "
            f"instances={self.instances_done}/{self.instances_submitted} done>"
        )


def _split_concurrency(concurrency: int, active: int) -> list[int]:
    """Split a closed-loop concurrency bound across *active* shards.

    As even as possible, earlier shards take the remainder, and every
    active shard gets at least 1 (a shard with work must make progress).
    """
    if active == 0:
        return []
    base, extra = divmod(concurrency, active)
    return [max(1, base + (1 if index < extra else 0)) for index in range(active)]


def create_service(
    schema: DecisionFlowSchema,
    config: ExecutionConfig | Strategy | str | None = None,
    *,
    backend: Backend | str | None = None,
    **backend_options: Any,
) -> DecisionService | ShardedDecisionService:
    """The right facade for a config: plain service, or sharded fleet.

    A config asking for one serial shard is exactly a plain
    :class:`DecisionService`, so that is what it gets; anything else
    builds a :class:`ShardedDecisionService`.
    """
    coerced = coerce_config(config)
    if coerced.shards == 1 and coerced.executor == "serial":
        return DecisionService(schema, coerced, backend=backend, **backend_options)
    return ShardedDecisionService(schema, coerced, backend=backend, **backend_options)
