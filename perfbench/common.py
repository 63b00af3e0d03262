"""Pure helpers shared by the benchmark's workloads and its load generator.

Nothing here imports :mod:`repro`: the helpers are the benchmark's own
measurement rules (percentiles, the rate-ladder verdict, seeded arrival
generators, due-time latency accounting), kept import-light so the load
generator process and the unit tests load them without the program.
"""

from __future__ import annotations

import bisect
import math
import os
import random
import time

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is supported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

#: Rate ladder of serve-http-open (requests per second, each rung x2),
#: reaching 640 so a transport fix shows.
LADDER_RPS = (10, 20, 40, 80, 160, 320, 640)

#: Latency limit a ladder rung must hold at p95 (milliseconds).
LATENCY_LIMIT_MS = 200.0

#: Zipf domain of the repeated-valuation workloads.
ZIPF_VALUES = 100


def percentile(values, p: float) -> float:
    """Nearest-rank percentile *p* (0-100) of *values* (non-empty)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return float(ordered[_rank(len(ordered), p) - 1])


def _rank(n: int, p: float) -> int:
    # Rounded first so 99.9% of 10 000 is rank 9 990, not 9 991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples lie strictly beyond the nearest-rank *p*."""
    return n - _rank(n, p)


def highest_percentile(n: int, candidates=PERCENTILES) -> float | None:
    """The highest candidate percentile with >= TAIL_SAMPLES samples beyond it.

    None when even the median lacks them (fewer than ~20 samples).
    """
    supported = [p for p in candidates if samples_beyond(n, p) >= TAIL_SAMPLES]
    return max(supported) if supported else None


def percentile_counts(n: int, candidates=PERCENTILES) -> dict[str, int]:
    """Samples beyond each candidate percentile (the fingerprint's counts)."""
    return {f"p{p:g}": samples_beyond(n, p) for p in candidates}


def zipf_sampler(rng: random.Random, k: int = ZIPF_VALUES, s: float = 1.0):
    """A draw() over values 0..k-1 with P(rank r) proportional to 1/r**s."""
    cumulative = []
    total = 0.0
    for rank in range(1, k + 1):
        total += 1.0 / rank**s
        cumulative.append(total)

    def draw() -> int:
        return min(bisect.bisect_left(cumulative, rng.random() * total), k - 1)

    return draw


def poisson_offsets(rng: random.Random, n: int, rate: float) -> list[float]:
    """*n* arrival offsets of a Poisson process of *rate* (exponential gaps)."""
    offsets = []
    t = 0.0
    for _ in range(n):
        t += rng.expovariate(rate)
        offsets.append(t)
    return offsets


def poisson_window(rng: random.Random, n: int, span: float) -> list[float]:
    """*n* Poisson arrivals conditioned on falling in [0, span).

    Given its count, a Poisson process's arrival times are sorted
    uniforms; fixing the span keeps a phase's offered rate exact, so the
    rate ladder's rungs and the backlog sample points are comparable
    from seed to seed.
    """
    return sorted(rng.random() * span for _ in range(n))


def due_latencies(records) -> list[float]:
    """Due-time latencies (seconds) of the decided requests in *records*.

    Each record is a mapping with ``due`` (when the open loop scheduled
    the request), ``sent`` (when the generator actually sent it) and
    ``seen`` (when the client saw the decision; None if never).  Timing
    from ``due`` instead of ``sent`` charges a generator stall to every
    request it delayed.
    """
    return [r["seen"] - r["due"] for r in records if r.get("seen") is not None]


def lateness(records) -> list[float]:
    """How late the generator sent each request (seconds, >= 0)."""
    return [max(0.0, r["sent"] - r["due"]) for r in records if r.get("sent") is not None]


def backlog_at(records, t: float) -> int:
    """Requests due by *t* whose decision the client had not seen by *t*."""
    return sum(
        1
        for r in records
        if r["due"] <= t and (r.get("seen") is None or r["seen"] > t)
    )


def rung_verdict(
    records,
    start: float,
    span: float,
    limit_ms: float = LATENCY_LIMIT_MS,
) -> tuple[bool, str]:
    """Whether one ladder rung held its rate, and why not if it did not.

    A rung holds when no request was refused, failed or went undecided,
    the p95 due-time latency is within *limit_ms*, and the backlog is not
    still growing at the end of the rung: at the last due time, more
    requests outstanding than at mid-rung by over a tenth of the rung's
    requests (and over two).
    """
    if not records:
        return False, "no requests"
    refused = sum(1 for r in records if r.get("status") == "refused")
    if refused:
        return False, f"{refused} refused"
    bad = sum(1 for r in records if r.get("status") != "done")
    if bad:
        return False, f"{bad} not decided"
    p95_ms = percentile(due_latencies(records), 95) * 1000.0
    if p95_ms > limit_ms:
        return False, f"p95 {p95_ms:.1f} ms > {limit_ms:g} ms"
    mid = backlog_at(records, start + span / 2)
    end = backlog_at(records, start + span)
    if end - mid > max(2, len(records) / 10):
        return False, f"backlog growing ({mid} -> {end})"
    return True, "held"


#: Iterations of the calibration loop, and its run time on the reference
#: host when that host runs at full speed (2-core host, Python 3.11).
CALIBRATION_LOOP = 300_000
CALIBRATION_REFERENCE_S = 0.0135


def _loop_s(repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOP):
            total += i
        best = min(best, time.perf_counter() - started)
    return best


def calibration_s(every_core: bool = False, repeats: int = 3) -> float:
    """Fastest of *repeats* runs of a fixed pure-Python loop, in seconds.

    How fast this host is running Python right now: on a shared host the
    same loop's time drifts by tens of percent over tens of seconds.
    With *every_core*, the loop runs pinned to each usable core in turn
    and the slowest core's time counts, as it does for a process fleet
    whose every round waits for its slowest worker.
    """
    if not every_core:
        return _loop_s(repeats)
    cores = os.sched_getaffinity(0)
    try:
        times = []
        for core in sorted(cores):
            os.sched_setaffinity(0, {core})
            times.append(_loop_s(repeats))
    finally:
        os.sched_setaffinity(0, cores)
    return max(times)


def peak_rss_mb(pid="self") -> float:
    """Peak resident set size of process *pid* (VmHWM), in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_seconds(pid) -> float:
    """User plus system CPU time process *pid* has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
