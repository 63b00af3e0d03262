"""Repository benchmark: one command runs a workload and prints its metrics.

    python3 perfbench/run.py --workload burst-zipf100 --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` runs the same inputs untraced and then
traced and reports the per-layer metrics.  Metric names and units come
from ``BENCHMARK.json``; ``perfbench/NOTES.md`` says why each workload
exists and which layer metric should move which end-to-end metric.

Every decision is checked against the complete snapshot of its
valuation.  The last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``); the lines before
it name each metric with its unit and give the host fingerprint.  The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("burst-zipf100", "stream-distinct-2proc", "serve-http-open")
OUT_DIR = ".perfbench_out"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_spec() -> dict:
    with open("BENCHMARK.json") as handle:
        return json.load(handle)


def commit() -> str | None:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return result.stdout.strip() or None


def fingerprint(args, samples: int | None) -> dict:
    import common

    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "samples_beyond": common.percentile_counts(samples) if samples else None,
        "highest_percentile": common.highest_percentile(samples) if samples else None,
    }


def write_chrome_trace(lanes, path: str) -> None:
    from repro.obs import export_chrome_trace

    with open(path, "w") as handle:
        json.dump(export_chrome_trace(lanes), handle)


def measure(args, spec: dict) -> tuple[dict, dict]:
    """Run the workload; return (result, metrics as {name: (value, unit)})."""
    import batch
    import serve

    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        if args.workload == "serve-http-open":
            traced = serve.measure_traced(OUT_DIR, args.seed)
            records = serve.base_records(traced["traced"])
            result = {
                "attempted": len(records),
                "failed": serve.failures(records),
                "wrong": traced["reference"]["wrong"] + traced["traced"]["wrong"],
                "samples": len(records),
                "work_checked": False,
            }
        else:
            traced = batch.measure_traced(args.workload, args.seed, args.seconds, OUT_DIR)
            reference = traced["reference"]
            if traced["traced_units"] != reference["db_units"]:
                raise AssertionError(
                    f"Work differs between the untraced ({reference['db_units']}) and "
                    f"traced ({traced['traced_units']}) runs of seed {args.seed}"
                )
            result = {
                "attempted": traced["traced_instances"],
                "failed": traced["wrong"] + traced["undecided"],
                "wrong": traced["wrong"] + reference["wrong"],
                "samples": traced["traced_instances"],
                "work_checked": True,
                "db_units": traced["traced_units"],
            }
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        write_chrome_trace(traced["lanes"], path)
        result["chrome_trace"] = path
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {
            name: (float(traced["layers"].get(name, 0.0)), unit)
            for name, unit in units.items()
        }
        return result, metrics
    if args.workload == "serve-http-open":
        run = serve.run_serve(OUT_DIR, args.seed, observe=False, ladder=True)
        records = serve.base_records(run)
        metrics = serve.end_to_end(run)
        result = {
            "attempted": len(records),
            "failed": serve.failures(records),
            "wrong": run["wrong"],
            "samples": len(records),
            "ladder": [
                (p["rate"], p["held"], p["reason"]) for p in run["report"]["phases"][1:]
            ],
        }
    else:
        run = batch.measure(args.workload, args.seed, args.seconds)
        metrics = batch.end_to_end(run)
        result = {
            "attempted": run["instances"],
            "failed": run["wrong"] + run["undecided"],
            "wrong": run["wrong"],
            "samples": len(run["latencies"]),
            "rounds": run["rounds"],
            "db_units": run["db_units"],
            "unscaled_throughput_ips": run["instances"] / run["wall"],
            "host_speed": run["scaled"] / run["wall"],
        }
    names = [m["name"] for m in spec["end_to_end"]]
    result["unbounded"] = {name: value for name, value in metrics.items() if name not in names}
    return result, {name: metrics[name] for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not os.path.isdir(os.path.join("src", "repro")):
        return fail("run from the repository root: src/repro not found")
    sys.path[:0] = [HERE, os.path.abspath("src")]
    started = time.perf_counter()
    spec = load_spec()
    result, metrics = measure(args, spec)
    attempted, failed, wrong = result["attempted"], result["failed"], result["wrong"]
    correct = wrong == 0
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in result.pop("unbounded", {}).items():
        print(f"{name} = {value:.6g} {unit} (measured, no bound)")
    print(f"failed_share = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(f"wrong_decisions = {wrong}")
    info = {k: v for k, v in result.items() if k not in ("attempted", "failed", "wrong")}
    info["fingerprint"] = fingerprint(args, result["samples"])
    info["wall_s"] = time.perf_counter() - started
    print("info " + json.dumps(info, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
