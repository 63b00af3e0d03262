"""Open-loop HTTP load generator for serve-http-open (its own process).

Reads a JSON plan on stdin, drives the daemon, writes a JSON report on
stdout.  Two threads, each with one persistent HTTP/1.1 keep-alive
connection, as a pooled upstream caller would use:

* the poster sends ``POST /instances`` at each request's due time
  (Poisson arrivals), whether or not earlier requests have finished;
* the poller (the main thread) walks accepted requests oldest-first with
  ``GET /instances/<id>`` until each is decided.

Every request records when it was due, when it was sent, the POST round
trip, and when the poller first saw its decision.  Latency counts from
the due time, so a stalled generator or connection charges every
request it delayed.  The plan's phases run in order; ladder rungs stop
at the first rung that fails :func:`common.rung_verdict`.
"""

from __future__ import annotations

import http.client
import json
import random
import sys
import threading
import time
from collections import deque
from urllib.parse import urlsplit

import common

#: Seconds to wait past a phase's last due time for its decisions.
DRAIN_TIMEOUT = 5.0
#: Pause before a phase's first due time (lets the previous one settle).
LEAD_IN = 0.2
#: Poller back-off when the oldest request is not decided yet (seconds).
REPOLL = 0.001


class _Connection:
    """One keep-alive connection; reconnects only after a transport error."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.conn = http.client.HTTPConnection(host, port, timeout=30)
        self.reconnects = 0

    def request(self, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data is not None else {}
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
            self.reconnects += 1
            raise
        return response.status, payload

    def close(self) -> None:
        self.conn.close()


def run_phase(post: _Connection, poll: _Connection, phase: dict, rng: random.Random):
    """Offer one phase's requests on schedule; return their records."""
    offsets = common.poisson_window(rng, phase["n"], phase["n"] / phase["rate"])
    values = phase["values"]
    start = time.perf_counter() + LEAD_IN
    records = [
        {"due": start + offset, "src": values[i], "sent": None, "seen": None, "status": None}
        for i, offset in enumerate(offsets)
    ]
    accepted: deque = deque()
    ready = threading.Condition()
    posting_done = threading.Event()
    deadline = records[-1]["due"] + DRAIN_TIMEOUT

    def poster() -> None:
        try:
            for record in records:
                if time.perf_counter() > deadline:
                    record["status"] = "unsent"
                    continue
                delay = record["due"] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                record["sent"] = sent
                try:
                    status, body = post.request(
                        "POST", "/instances", {"values": {"src": record["src"]}}
                    )
                except (OSError, http.client.HTTPException) as error:
                    record["status"] = "error"
                    record["error"] = repr(error)
                    continue
                record["post_rtt"] = time.perf_counter() - sent
                if status == 202:
                    record["id"] = json.loads(body)["accepted"][0]
                    with ready:
                        accepted.append(record)
                        ready.notify()
                else:
                    record["status"] = "refused"
                    record["http_status"] = status
        finally:
            posting_done.set()
            with ready:
                ready.notify()

    thread = threading.Thread(target=poster, name="loadgen-post")
    thread.start()
    poll_rtts = []
    while True:
        with ready:
            while not accepted and not posting_done.is_set():
                ready.wait(timeout=0.05)
            if not accepted:
                break
            record = accepted[0]
        if time.perf_counter() > deadline:
            break
        sent = time.perf_counter()
        try:
            status, body = poll.request("GET", f"/instances/{record['id']}")
        except (OSError, http.client.HTTPException):
            continue
        seen = time.perf_counter()
        poll_rtts.append(seen - sent)
        payload = json.loads(body) if status == 200 else {}
        state = payload.get("status")
        if state in ("done", "failed", "stalled"):
            record["seen"] = seen
            record["status"] = state
            record["values"] = payload.get("values")
            with ready:
                accepted.popleft()
        else:
            time.sleep(REPOLL)
    thread.join()
    for record in records:
        if record["status"] is None:
            record["status"] = "undecided"
    return records, poll_rtts, start


def main() -> int:
    plan = json.load(sys.stdin)
    url = urlsplit(plan["url"])
    post = _Connection(url.hostname, url.port)
    poll = _Connection(url.hostname, url.port)
    rng = random.Random(f"serve-arrivals/{plan['seed']}")
    report = {"phases": [], "scrapes": {}}
    try:
        for phase in plan["phases"]:
            records, poll_rtts, start = run_phase(post, poll, phase, rng)
            span = phase["n"] / phase["rate"]
            held, reason = common.rung_verdict(records, start, span)
            report["phases"].append(
                {
                    "name": phase["name"],
                    "rate": phase["rate"],
                    "start": start,
                    "span": span,
                    "records": records,
                    "poll_rtts": poll_rtts,
                    "held": held,
                    "reason": reason,
                }
            )
            if phase.get("scrape"):
                for name, path in plan["scrape_paths"].items():
                    status, body = poll.request("GET", path)
                    report["scrapes"][name] = body.decode()
            if phase["name"].startswith("rung") and not held:
                break
    finally:
        report["reconnects"] = post.reconnects + poll.reconnects
        post.close()
        poll.close()
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
