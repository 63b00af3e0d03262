"""Outside-in span recording for the traced benchmark runs.

The benchmark wraps calls into the program's public functions from the
outside: the service's ``submit``/``run``, ``Simulation.run`` and
``step_instant``, every batch consumer registered through
``set_batch_consumer``, ``DatabaseServer.submit`` and
``QueryShareCache.submit``, and, on the process fleet, the executor's
pipe send/receive in the parent and each worker's command loop.

A :class:`Recorder` keeps, per span name, the call count, the inclusive
time and the *self* time (the span minus the part its child spans
cover), exactly and online, so totals never depend on how many spans
are retained.  It also keeps the most recent spans in a bounded ring for
the Chrome-trace artifact, which is written once when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
from collections import deque
from time import perf_counter

#: Spans retained per process for the Chrome-trace artifact.
RING_CAPACITY = 50_000


class Recorder:
    """Per-name span totals with exact self time, plus a bounded span ring."""

    def __init__(self, capacity: int = RING_CAPACITY):
        self.origin = perf_counter()
        self.totals: dict[str, list] = {}  # name -> [count, inclusive, self]
        self.ring: deque = deque(maxlen=capacity)
        self.dropped = 0
        self._stack: list[list] = []  # [name, start, child_time]

    def begin(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def end(self) -> None:
        now = perf_counter()
        name, start, child = self._stack.pop()
        duration = now - start
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child
        if len(self.ring) == self.ring.maxlen:
            self.dropped += 1
        self.ring.append((name, start, duration))

    def span(self, name: str, fn):
        """*fn* wrapped so every call records one span named *name*."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    def count(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def inclusive(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def top_level_time(self) -> float:
        """Inclusive time of spans with no parent (sum of all self times)."""
        return sum(entry[2] for entry in self.totals.values())

    def reset(self) -> None:
        self.__init__(self.ring.maxlen)

    def export(self) -> dict:
        """Totals and the retained ring as plain JSON-able data.

        Ring starts stay raw ``perf_counter`` readings: the clock is
        system-wide, so the lanes of the parent and its workers align.
        """
        return {
            "totals": self.totals,
            "ring": list(self.ring),
            "dropped": self.dropped,
        }


#: The recorder of this process (a forked worker resets its inherited copy).
RECORDER = Recorder()

_installed = False


def install_program_wraps() -> None:
    """Wrap the simulation, database and cache entry points, class-wide.

    Installed before any service exists, so the process fleet's forked
    workers inherit the wrapped classes.  Idempotent.
    """
    global _installed
    if _installed:
        return
    _installed = True
    from repro.simdb.database import DatabaseServer, QueryShareCache
    from repro.simdb.des import Simulation

    rec = RECORDER
    Simulation.run = rec.span("des.run", Simulation.run)
    Simulation.step_instant = rec.span("des.step_instant", Simulation.step_instant)
    DatabaseServer.submit = rec.span("db.submit", DatabaseServer.submit)
    QueryShareCache.submit = rec.span("cache.submit", QueryShareCache.submit)
    original_register = Simulation.set_batch_consumer
    consumers: dict = {}

    def set_batch_consumer(sim, consumer):
        # Re-registering the same consumer must hand the kernel the same
        # wrapper object, or its "already registered" guard trips.
        if consumer is not None:
            wrapped = consumers.get(consumer)
            if wrapped is None:
                wrapped = consumers[consumer] = rec.span("engine.consume", consumer)
            consumer = wrapped
        return original_register(sim, consumer)

    Simulation.set_batch_consumer = set_batch_consumer


class _TracedConn:
    """A worker's pipe end that spans each command from receipt to reply."""

    def __init__(self, conn):
        self._conn = conn

    def recv(self):
        message = self._conn.recv()
        if message[0] == "run":
            RECORDER.begin("worker.round")
        return message

    def send(self, frame):
        try:
            return self._conn.send(frame)
        finally:
            if RECORDER._stack and RECORDER._stack[-1][0] == "worker.round":
                RECORDER.end()


def traced_worker_main(original, out_dir: str, conn, shard, *args):
    """Run one shard worker under the recorder; dump its spans at exit."""
    RECORDER.reset()
    install_program_wraps()
    try:
        original(_TracedConn(conn), shard, *args)
    finally:
        path = os.path.join(out_dir, f"worker-{shard}-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(RECORDER.export(), handle)


def trace_process_fleet(service, out_dir: str) -> dict:
    """Arm a not-yet-spawned process fleet for tracing.

    The parent's pipe send and receive become ``ipc.send``/``ipc.recv``
    spans and each worker runs under :func:`traced_worker_main`.
    Returns the running pickled-frame byte counts (``sent``,
    ``received``), measured outside the spans so sizing costs no span
    time.  Received outcomes are sized without the registry snapshot and
    trace ring that only a traced (``observe=True``) fleet ships.
    """
    import dataclasses
    import pickle

    import repro.runtime.executors as executors

    executor = service._executor
    original_main = executors.worker_main
    if not isinstance(original_main, functools.partial):
        executors.worker_main = functools.partial(traced_worker_main, original_main, out_dir)
    send = RECORDER.span("ipc.send", executor._send)
    recv = RECORDER.span("ipc.recv", executor._recv)
    sizes = {"sent": 0, "received": 0}

    def size(payload) -> int:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def traced_send(link, message):
        sizes["sent"] += size(message)
        return send(link, message)

    def traced_recv(link):
        payload = recv(link)
        if isinstance(payload, tuple) and dataclasses.is_dataclass(payload[0]):
            outcome, keys = payload
            sizes["received"] += size((dataclasses.replace(outcome, obs=None, trace=None), keys))
        else:
            sizes["received"] += size(payload)
        return payload

    executor._send = traced_send
    executor._recv = traced_recv
    return sizes


def untrace_process_fleet() -> None:
    import repro.runtime.executors as executors

    if isinstance(executors.worker_main, functools.partial):
        executors.worker_main = executors.worker_main.args[0]


def load_worker_dumps(out_dir: str) -> list[dict]:
    """The span dumps the fleet's workers wrote, removed once read."""
    dumps = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("worker-") and name.endswith(".json"):
            path = os.path.join(out_dir, name)
            with open(path) as handle:
                data = json.load(handle)
            data["lane"] = name[: -len(".json")]
            dumps.append(data)
            os.remove(path)
    return dumps


def ring_events(ring, origin: float) -> list[tuple]:
    """Recorder ring entries as ``repro.obs`` span tuples, in microseconds
    since *origin*."""
    return [("X", name, (start - origin) * 1e6, dur * 1e6, None) for name, start, dur in ring]


def ring_coverage(events, wall_seconds: float) -> float:
    """Share of a run of *wall_seconds* that a trace ring's window spans.

    A ring that never overflowed holds the whole run (1.0); one that did
    keeps only its most recent window, so self times summed from it
    would silently under-attribute the run.
    """
    spans = [(ts, ts + dur) for _phase, _name, ts, dur, _args in events]
    if not spans or wall_seconds <= 0:
        return 1.0
    window = (max(end for _s, end in spans) - min(s for s, _e in spans)) / 1e6
    return min(1.0, window / wall_seconds)


def ring_self_times(events, names) -> dict[str, float]:
    """Self time (seconds) per span name from one lane of ``repro.obs`` events.

    Only spans named in *names* take part: lifecycle spans such as
    ``query`` (dispatch to completion, across many drains) are not host
    work and would overlap everything.  Spans nest by containment in
    time; a span's self time is its duration minus its children's.
    """
    spans = sorted(
        (
            (ts, dur, name)
            for phase, name, ts, dur, _args in events
            if phase == "X" and name in names
        ),
        key=lambda s: (s[0], -s[1]),
    )
    totals: dict[str, float] = {}
    stack: list[list] = []  # [end, name, duration, child_time]

    def close() -> None:
        _end, name, duration, child = stack.pop()
        totals[name] = totals.get(name, 0.0) + (duration - child) / 1e6

    for ts, dur, name in spans:
        while stack and stack[-1][0] <= ts:
            close()
        if stack:
            stack[-1][3] += dur
        stack.append([ts + dur, name, dur, 0.0])
    while stack:
        close()
    return totals
