#!/usr/bin/env python3
"""Regression tripwires over the benches' JSON records.

Standard library only. Each check reads a BENCH_*.json array written by
bench::appendJsonRecord, prints what it compared, and exits 1 when a
floor is not met (2 on unreadable input):

  batching  BENCH_serve.json      micro-batched throughput at 8 clients
                                  is at least 1.2x the per-request
                                  baseline of the same run
  scaling   BENCH_serve.json      micro-batched throughput at 64 clients
                                  is at least 0.9x the 8-client record

Both serving checks also fail when a record they read counts error
replies: throughput of a server answering errors measures nothing.
  lifecycle BENCH_lifecycle.json  every drift latency lies in
                                  (0, window * patience] records, and
                                  the last shadow overhead is within
                                  its tripwire

The latest matching record wins, so a file that several runs appended
to is judged by its newest run. Usage:

  python3 tools/bench_compare.py batching build-dev/bench/BENCH_serve.json
"""

import json
import sys

BATCHING_FLOOR = 1.2
BATCHING_CLIENTS = 8
SCALING_FLOOR = 0.9
SCALING_CLIENTS = 64


class CheckFailed(Exception):
    pass


def latest(records, what, **match):
    rows = [r for r in records
            if all(r.get(k) == v for k, v in match.items())]
    if not rows:
        raise CheckFailed(f"no {what} record")
    return rows[-1]


def serve_record(records, mode, clients):
    r = latest(records, f"{mode} {clients}-client", mode=mode,
               clients=clients)
    if r["errors"] > 0:
        raise CheckFailed(f"{mode} {clients}-client record counts "
                          f"{r['errors']} error replies")
    return r


def check_batching(records):
    serve_record(records, "per-request", BATCHING_CLIENTS)
    micro = serve_record(records, "micro-batched", BATCHING_CLIENTS)
    speedup = micro["speedup_vs_per_request"]
    print(f"micro-batching speedup at {BATCHING_CLIENTS} clients: "
          f"{speedup:.2f}x (floor {BATCHING_FLOOR}x)")
    if speedup < BATCHING_FLOOR:
        raise CheckFailed(f"micro-batching regressed: {speedup:.2f}x")


def check_scaling(records):
    at8 = serve_record(records, "micro-batched",
                       BATCHING_CLIENTS)["throughput_rps"]
    at64 = serve_record(records, "micro-batched",
                        SCALING_CLIENTS)["throughput_rps"]
    print(f"{BATCHING_CLIENTS} clients: {at8:.0f} req/s, "
          f"{SCALING_CLIENTS} clients: {at64:.0f} req/s "
          f"(floor {SCALING_FLOOR}x)")
    if at64 < SCALING_FLOOR * at8:
        raise CheckFailed(
            f"{SCALING_CLIENTS} clients ({at64:.0f} req/s) fell below "
            f"{BATCHING_CLIENTS} clients ({at8:.0f} req/s)")


def check_lifecycle(records):
    latencies = [r for r in records if r.get("metric") == "drift_latency"]
    if not latencies:
        raise CheckFailed("no drift_latency record")
    for r in latencies:
        print(f"window {r['window']} patience {r['patience']}: "
              f"{r['latency_records']} records")
        if not 0 < r["latency_records"] <= r["window"] * r["patience"]:
            raise CheckFailed(f"drift latency out of envelope: {r}")
    r = latest(records, "shadow_overhead", metric="shadow_overhead")
    print(f"shadow overhead: {r['overhead_pct']:.2f}% "
          f"(tripwire {r['tripwire_pct']:.0f}%)")
    if not r["within_tripwire"]:
        raise CheckFailed(f"shadow overhead tripped: {r}")


CHECKS = {
    "batching": check_batching,
    "scaling": check_scaling,
    "lifecycle": check_lifecycle,
}


def main(argv):
    if len(argv) != 3 or argv[1] not in CHECKS:
        sys.stderr.write(f"usage: {argv[0]} {{{','.join(CHECKS)}}} "
                         "BENCH.json\n")
        return 2
    try:
        with open(argv[2]) as f:
            records = json.load(f)
    except (OSError, ValueError) as e:
        sys.stderr.write(f"bench_compare: cannot read {argv[2]}: {e}\n")
        return 2
    try:
        CHECKS[argv[1]](records)
    except (CheckFailed, KeyError, TypeError) as e:
        sys.stderr.write(f"bench_compare {argv[1]}: FAILED: {e}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
