#!/usr/bin/env python3
"""wcnn repository benchmark: one command per workload.

    python3 perfbench/run.py --workload study --seed 1 --seconds 12 --trace 0

Builds the wcnn libraries, the `wcnn` CLI and the benchmark driver from
the checkout this file sits in (into .bench_build/), runs one workload,
checks its outputs, and prints every metric by name and unit. The last
stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 a traced run adds spans and reports the per-layer
metrics. --runs K repeats the workload K times on seeds seed..seed+K-1
and prints min / quartiles / median / max of every metric. See
perfbench/README.md for the workloads, the metrics and what each layer
metric should move.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DATA = os.path.join(HERE, "data")
BUNDLE = os.path.join(DATA, "frozen.bundle")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WCNN = os.path.join(BUILD, "wcnn-tools", "wcnn")
TRACE_DIR = os.path.join(BUILD, "perfbench-trace")

WORKLOADS = ("study", "serve_cold", "serve_hot")

# Set-up launches: set-up time is their median. Study adds this many
# set-up-only launches before each pipeline and after the last one.
PIPELINE_SETUPS = 5
SERVE_SETUPS = 9
# A run must end within 180 s; the watchdog stops it before that.
WATCHDOG_S = 170

# Metric names and units: BENCHMARK.json at the checkout root is the
# single list of what a run reports.
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

CHILDREN = []


class BenchError(Exception):
    """A run that cannot produce a result."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def on_signal(signum, frame):
    """Watchdog or SIGTERM: stop every child, then exit without a result."""
    if signum == signal.SIGALRM:
        log(f"run exceeded {WATCHDOG_S} s; stopping")
    stop_children()
    sys.exit(3)


def stop_children():
    """Kill each child's process group (a build's compilers too), wait."""
    for proc in CHILDREN:
        if proc.poll() is None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            proc.wait(timeout=10)
        except (subprocess.TimeoutExpired, ChildProcessError):
            pass


def spawn(cmd):
    """Start a child with line-oriented stdin/stdout; stderr to a log."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    errlog = open(os.path.join(TRACE_DIR, "stderr.log"), "a")
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=errlog,
                            text=True, cwd=ROOT, start_new_session=True)
    errlog.close()
    CHILDREN.append(proc)
    return proc


def send(proc, line):
    proc.stdin.write(line + "\n")
    proc.stdin.flush()


def expect(proc, prefix):
    line = proc.stdout.readline()
    if not line.startswith(prefix):
        raise BenchError(f"expected {prefix!r} from {proc.args[0]}, got "
                         f"{line.strip()!r}")
    return line.strip()


def reap(proc):
    """Close stdin, read the rest of stdout, wait; return (out, rusage)."""
    if proc.stdin and not proc.stdin.closed:
        proc.stdin.close()
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    CHILDREN.remove(proc)
    return out, usage


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no wcnn sources under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench_driver", "wcnn"])
    for step in steps:
        proc = subprocess.Popen(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                start_new_session=True)
        CHILDREN.append(proc)
        output, _ = proc.communicate()
        CHILDREN.remove(proc)
        if proc.returncode != 0:
            sys.stderr.write(output[-4000:])
            raise BenchError("build failed: " + " ".join(step))


def result_json(out):
    for line in out.splitlines():
        if line.startswith("result "):
            return json.loads(line[len("result "):])
    raise BenchError("no result line")


# -------------------------------------------------------------------- study

def launch_pipeline(trace, extra=()):
    cmd = [DRIVER, "pipeline", "--root", ROOT, "--data", DATA,
           "--trace", str(trace), *extra]
    t0 = time.perf_counter_ns()
    proc = spawn(cmd)
    expect(proc, "ready")
    return proc, (time.perf_counter_ns() - t0) * 1e-9


def pipeline_once(trace, extra=()):
    proc, setup_s = launch_pipeline(trace, extra)
    send(proc, "run")
    out, usage = reap(proc)
    res = result_json(out)
    res["ok"] = res["ok"] and proc.returncode == 0
    res["setup_s"] = setup_s
    res["process_peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return res


def setup_only(count):
    """Set-up times of `count` launches that quit once ready."""
    times = []
    for _ in range(count):
        proc, setup_s = launch_pipeline(0)
        send(proc, "quit")
        reap(proc)
        times.append(setup_s)
    return times


def run_pipeline(seed, seconds):
    """Untraced: pipelines for `seconds`, set-up-only launches between
    them, then the what-if phase: the last pipeline's surrogate deployed
    with `wcnn serve` and queried like serve_cold for `seconds`. (Below
    ~10,000 req/s the server's threads idle between requests and the p99
    of their wake-ups swings by 2x from run to run.)"""
    os.makedirs(TRACE_DIR, exist_ok=True)
    surrogate = os.path.join(TRACE_DIR, "study.surrogate.bundle")
    setups, runs = [], []
    start = time.monotonic()
    while not runs or time.monotonic() - start < seconds:
        setups += setup_only(PIPELINE_SETUPS)
        runs.append(pipeline_once(0, ["--bundle-out", surrogate]))
        setups.append(runs[-1]["setup_s"])
    setups += setup_only(PIPELINE_SETUPS)
    what_if = serve_once("serve_cold", seed, seconds, 0, bundle=surrogate,
                         setups=1)
    what_if_checks = serve_checks(what_if, "serve_cold")

    def med(key):
        return statistics.median(r[key] for r in runs)

    asked = what_if["attempted"]
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "cv_accuracy_pct": (med("cv_accuracy_pct"), len(runs)),
        "p50_ms": (what_if["p50_ms"], asked),
        "p99_ms": (what_if["p99_ms"], asked),
        "throughput_rps": (what_if["throughput_rps"], asked),
        "peak_rss_mb": (med("process_peak_rss_mb"), len(runs)),
    }
    failed = sum(0 if r["ok"] else 1 for r in runs) + what_if["failed"]
    failed += 0 if all(what_if_checks.values()) else 1
    print("detail " + json.dumps({
        "pipelines": len(runs), "walls_s": [r["wall_s"] for r in runs],
        "checks": runs[-1]["checks"], "info": runs[-1]["info"],
        "what_if_checks": what_if_checks,
        "what_if": {k: what_if[k] for k in (
            "p99_ms_overall", "window_p99_ms", "late_us_p99")},
        "all_pipelines_ok": all(r["ok"] for r in runs)}))
    return metrics, len(runs) + asked, failed


def trace_pipeline(seed):
    """Traced: one untraced pipeline, then one traced pipeline."""
    plain = pipeline_once(0)
    os.makedirs(TRACE_DIR, exist_ok=True)
    spans = os.path.join(TRACE_DIR, f"study-{seed}.spans.jsonl")
    traced = pipeline_once(1, ["--trace-out", spans])
    layers = dict(traced["layers"])
    layers["pipeline.wall_s"] = plain["wall_s"]
    layers["trace.overhead_pct"] = (
        (traced["wall_s"] - plain["wall_s"]) / plain["wall_s"] * 100.0)
    reproduced = layers.get("sim.reproduces_dataset", False)
    traced["checks"]["resimulation_reproduces_dataset"] = reproduced
    traced["ok"] = traced["ok"] and reproduced
    print("detail " + json.dumps({"checks": traced["checks"],
                                  "info": traced["info"],
                                  "self_ms": traced["self_ms"],
                                  "spans": os.path.relpath(spans, ROOT)}))
    failed = (0 if plain["ok"] else 1) + (0 if traced["ok"] else 1)
    return layers, 2, failed


# ------------------------------------------------------------------ serving

SERVED_RE = re.compile(r"served (\d+) requests \((\d+) errors\)")
LIFECYCLE_RE = re.compile(r"lifecycle: (\d+) records, (\d+) drifts")
PORT_RE = re.compile(r" on [\d.]+:(\d+) ")


def start_server(gen, workload, bundle, telemetry_prefix=""):
    """Launch `wcnn serve`; ready once every generator connection pinged."""
    cmd = [WCNN, "serve", "--model", bundle, "--port", "0"]
    if workload == "serve_hot":
        cmd.append("--lifecycle")
    if telemetry_prefix:
        cmd += ["--telemetry", telemetry_prefix]
    t0 = time.perf_counter_ns()
    server = spawn(cmd)
    banner = expect(server, "serving ")
    match = PORT_RE.search(banner)
    if not match:
        raise BenchError(f"no port in {banner!r}")
    send(gen, f"connect {match.group(1)}")
    expect(gen, "connected")
    return server, (time.perf_counter_ns() - t0) * 1e-9


def setup_only_server(gen, workload, bundle):
    """Set-up time of one server launch that is stopped once ready."""
    server, setup_s = start_server(gen, workload, bundle)
    send(gen, "close")
    expect(gen, "closed")
    stop_server(server)
    return setup_s


def stop_server(server):
    out, usage = reap(server)
    summary = {"cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0,
               "exit": server.returncode}
    match = SERVED_RE.search(out)
    if match:
        summary["served"] = int(match.group(1))
        summary["errors"] = int(match.group(2))
    match = LIFECYCLE_RE.search(out)
    if match:
        summary["records"] = int(match.group(1))
        summary["drifts"] = int(match.group(2))
    return summary


def serve_once(workload, seed, seconds, trace, bundle=BUNDLE,
               setups=SERVE_SETUPS):
    """Launch the generator, set the server up `setups` times, run the
    timed phase on the last one, set it up `setups` more times when that
    is more than one, and collect both sides' results."""
    gen_cmd = [DRIVER, "loadgen", "--workload", workload, "--seed",
               str(seed), "--seconds", str(seconds), "--bundle", bundle,
               "--trace", str(trace)]
    prefix = ""
    if trace:
        prefix = os.path.join(TRACE_DIR, f"{workload}-{seed}.server")
        gen_cmd += ["--trace-out", os.path.join(
            TRACE_DIR, f"{workload}-{seed}.spans.jsonl")]
    gen = spawn(gen_cmd)
    expect(gen, "gen-ready")
    setup_times = [setup_only_server(gen, workload, bundle)
                   for _ in range(setups - 1)]
    server, setup_s = start_server(gen, workload, bundle, prefix)
    setup_times.append(setup_s)
    send(gen, "go")
    res = json.loads(expect(gen, "result ")[len("result "):])
    res["server"] = stop_server(server)
    if setups > 1:
        setup_times += [setup_only_server(gen, workload, bundle)
                        for _ in range(setups)]
    reap(gen)
    res["generator_exit"] = gen.returncode
    res["setups"] = setup_times
    if trace:
        res["telemetry"] = read_telemetry(prefix + ".jsonl")
    return res


def serve_checks(res, workload):
    server = res["server"]
    checks = {
        "no_request_failed": res["failed"] == 0,
        "replies_bit_identical": res["mismatched"] == 0,
        "warmup_bit_identical": res["warmup_mismatched"] == 0,
        "server_exited_cleanly": server["exit"] == 0,
        "generator_exited_cleanly": res["generator_exit"] == 0,
        "server_counted_no_errors": server.get("errors", 1) == 0,
    }
    if workload == "serve_hot":
        checks["no_drift"] = server.get("drifts", 1) == 0
        checks["every_observe_recorded"] = (
            server.get("records", -1) == res["observes"])
    return checks


def run_serving(workload, seed, seconds):
    res = serve_once(workload, seed, seconds, 0)
    checks = serve_checks(res, workload)
    attempted = res["attempted"]
    metrics = {
        "setup_s": (statistics.median(res["setups"]), len(res["setups"])),
        "cv_accuracy_pct": (100.0 * res["correct_replies"] / attempted,
                            attempted),
        "p50_ms": (res["p50_ms"], attempted),
        "p99_ms": (res["p99_ms"], attempted),
        "throughput_rps": (res["throughput_rps"], attempted),
        "peak_rss_mb": (res["server"]["peak_rss_mb"], 1),
    }
    print("detail " + json.dumps({
        "checks": checks, "server": res["server"],
        "loadgen": {k: res[k] for k in (
            "attempted", "failed", "correct_replies", "mismatched",
            "error_frames", "send_failed", "observes", "late_us_p50",
            "late_us_p99", "late_us_max", "cpu_s", "p99_ms_overall",
            "window_p99_ms", "window_late_p99_us")}}))
    failed = res["failed"] + (0 if all(checks.values()) else 1)
    return metrics, attempted, failed


def read_telemetry(path):
    """Counters and histograms from a `wcnn serve --telemetry` export."""
    counters, histograms = {}, {}
    with open(path) as f:
        for line in f:
            if line.startswith('{"type":"counter"'):
                rec = json.loads(line)
                counters[rec["name"]] = rec["value"]
            elif line.startswith('{"type":"histogram"'):
                rec = json.loads(line)
                histograms[rec["name"]] = rec
    return {"counters": counters, "histograms": histograms}


def histogram_quantile(hist, q):
    """Quantile of a log2-bucket histogram, linear inside the bucket."""
    if not hist or hist["count"] == 0:
        return 0.0
    target = q * hist["count"]
    seen = 0
    for bucket, count in hist["buckets"]:
        if seen + count >= target:
            if bucket == 0:
                return 0.0
            lo, hi = 2.0 ** (bucket - 1), 2.0 ** bucket
            return lo + (hi - lo) * (target - seen) / count
        seen += count
    return 2.0 ** hist["buckets"][-1][0]


def trace_serving(workload, seed, seconds):
    plain = serve_once(workload, seed, seconds, 0)
    traced = serve_once(workload, seed, seconds, 1)
    tel = traced["telemetry"]
    counters, hists = tel["counters"], tel["histograms"]
    server = traced["server"]
    rows = hists.get("serve.batch.rows", {"count": 0, "sum": 0})
    hits = counters.get("serve.cache.hit", 0)
    lookups = hits + counters.get("serve.cache.miss", 0)
    served = server.get("served", 0)
    layers = {
        "serve.requests": counters.get("serve.requests", 0),
        "serve.batches": rows["count"],
        "serve.rows_per_batch": (rows["sum"] / rows["count"]
                                 if rows["count"] else 0.0),
        "serve.queue_wait_us.p50": histogram_quantile(
            hists.get("serve.queue_wait_us"), 0.50),
        "serve.queue_wait_us.p99": histogram_quantile(
            hists.get("serve.queue_wait_us"), 0.99),
        "serve.request_us.p50": histogram_quantile(
            hists.get("serve.request_us"), 0.50),
        "serve.request_us.p99": histogram_quantile(
            hists.get("serve.request_us"), 0.99),
        "serve.ping_us.p50": traced["ping_us_p50"],
        "serve.ping_us.p99": traced["ping_us_p99"],
        "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.cache_evictions": counters.get("serve.cache.evict", 0),
        "serve.cpu_us_per_req": (server["cpu_s"] * 1e6 / served
                                 if served else 0.0),
        "lifecycle.records": server.get("records", 0),
        "lifecycle.drifts": server.get("drifts", 0),
        "lifecycle.observe_us.p50": traced["observe_us_p50"],
        "loadgen.sent": traced["attempted"],
        "loadgen.failed": traced["failed"],
        "loadgen.late_us.p99": traced["late_us_p99"],
        "loadgen.cpu_s": traced["cpu_s"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_pct":
            (traced["p50_ms"] - plain["p50_ms"]) / plain["p50_ms"] * 100.0,
    }
    checks = serve_checks(traced, workload)
    print("detail " + json.dumps({
        "checks": checks, "server": server, "pings": traced["pings"],
        "untraced_p50_ms": plain["p50_ms"], "traced_p50_ms":
            traced["p50_ms"]}))
    failed = (plain["failed"] + traced["failed"] +
              (0 if all(checks.values()) else 1))
    return layers, plain["attempted"] + traced["attempted"], failed


# --------------------------------------------------------------------- main

def run_workload(workload, seed, seconds, trace):
    """One run: (metrics {name: (value, samples)}, attempted, failed)."""
    if not trace:
        if workload == "study":
            return run_pipeline(seed, seconds)
        return run_serving(workload, seed, seconds)
    if workload == "study":
        layers, attempted, failed = trace_pipeline(seed)
    else:
        layers, attempted, failed = trace_serving(workload, seed, seconds)
    # Layers a workload does not exercise read 0.
    metrics = {name: (float(layers.get(name, 0.0)), 1)
               for name, _ in PER_LAYER}
    return metrics, attempted, failed


def spread(values):
    """min / q1 / median / q3 / max of a list of run values."""
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {"min": ordered[0], "q1": q1,
            "median": statistics.median(ordered), "q3": q3,
            "max": ordered[-1]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args()

    signal.signal(signal.SIGALRM, on_signal)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        build()
        table = PER_LAYER if args.trace else END_TO_END
        units = dict(table)
        values = {name: [] for name, _ in table}
        samples = {name: 0 for name, _ in table}
        attempted = failed = 0
        for i in range(args.runs):
            signal.alarm(WATCHDOG_S)
            metrics, run_attempted, run_failed = run_workload(
                args.workload, args.seed + i, args.seconds, args.trace)
            signal.alarm(0)
            attempted += run_attempted
            failed += run_failed
            for name, (value, n) in metrics.items():
                values[name].append(value)
                samples[name] += n
            print("run " + json.dumps({
                "workload": args.workload, "seed": args.seed + i,
                "attempted": run_attempted, "failed": run_failed,
                "metrics": {k: v[0] for k, v in metrics.items()}}))
    except (BenchError, OSError, ValueError, KeyError) as err:
        signal.alarm(0)
        log(f"error: {err}")
        return 1
    finally:
        stop_children()

    print("record " + json.dumps({
        "workload": args.workload, "trace": args.trace,
        "nproc": os.cpu_count(), "runs": args.runs,
        "metrics": {name: dict(spread(values[name]), unit=units[name],
                               samples=samples[name])
                    for name, _ in table}}))
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values[name]),
                           "unit": units[name]}
                    for name, _ in table},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
