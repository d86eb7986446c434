#!/usr/bin/env python3
"""Host-speed benchmark of the ghOSt simulator; see perfbench/README.md.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--jobs J] [--record]

Builds perfbench/ (with the simulator libraries it links) into .bench_build/
at the repository root. Then, for --seconds, it runs the workload's scenario
spec in fresh perfbench_sim processes, one after another. Every process
simulates the spec's fixed horizon once, from the same seed, so every process
must report the same simulated outputs. One warm-up process runs first and is
checked but not timed.

End-to-end metrics are medians over the processes. The simulated outputs are
the correctness check: they must be identical in every process, match the
record for a recorded seed, show no invariant violation and balance the
request accounting. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 1 alternates traced processes (StatsRegistry on, spans recorded)
with untraced ones, reports the per-layer metrics instead, and writes the
spans of every traced process as Chrome-trace JSON under .bench_build/traces/.

Without --workload every workload runs in turn, one result line each.
--record stores the simulated outputs of a passing run as the record for
--seed. Exit status: 0 when every check passes, 1 when a check fails (the
result line is still printed), 2 when the benchmark cannot build or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
SIM = BUILD / "perfbench_sim"

# Per-epoch parallelism of each workload; only a fleet uses it. fleet_rpc
# runs on 1 job: on 2 jobs BatchRunner starts threads every epoch, and its
# host time then swings up to 5x with the load other tenants put on the
# host's CPUs (see README.md). --jobs 2 measures that path on demand.
WORKLOAD_JOBS = {"global_agent": 1, "cfs_pool": 1, "fleet_rpc": 1}
DEFAULT_SEED = 42
# Timed processes per run at the least, however long they take.
MIN_PROCESSES = 5
CHILD_TIMEOUT_S = 120

# Metric names and units, in print order, from the benchmark's definition.
_DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _DEFINITION["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _DEFINITION["per_layer"]}


class BenchError(Exception):
    """The benchmark could not build or run (exit status 2, no result)."""


class ChildFailed(Exception):
    """A simulation process crashed: the run fails its check."""


def spec_path(workload):
    return BENCH / "workloads" / f"{workload}.json"


def records_path(workload):
    return BENCH / "records" / f"{workload}.json"


def build(target="perfbench_sim"):
    """Configures (once) and builds `target`; output goes to a log file."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def run_child(workload, seed, jobs, traced):
    """One perfbench_sim process; returns its parsed JSON line."""
    cmd = [str(SIM), "--spec", str(spec_path(workload)), "--seed", str(seed),
           "--jobs", str(jobs)]
    if traced:
        cmd.append("--traced")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise ChildFailed(f"perfbench_sim exited with {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout)
    out["traced"] = traced
    return out


def accounting(exact):
    """(generated, completed, lost, in_flight): lost is shed or dropped."""
    generated = exact.get("generated", 0)
    completed = exact.get("completed", 0)
    lost = exact["shed"] if "shed" in exact else exact.get("dropped", 0)
    return generated, completed, lost, generated - completed - lost


def check(outputs, record):
    """Returns the list of problems with a run's outputs (empty = correct).

    `record` is the recorded {"exact": ..., "envelopes": ...} for the run's
    seed, or None for a seed without a record.
    """
    problems = []
    result = outputs[0]["result"]
    canonical = json.dumps(result, sort_keys=True)
    for i, out in enumerate(outputs[1:], start=1):
        if json.dumps(out["result"], sort_keys=True) != canonical:
            problems.append(f"process {i} simulated different outputs than process 0")
            break
    traced = [out["stats"] for out in outputs if out["traced"]]
    if any(stats != traced[0] for stats in traced[1:]):
        problems.append("traced processes recorded different StatsRegistry counts")

    exact = result["exact"]
    if result["violations"]:
        problems.append(f"invariant violations: {result['violations'][:5]}")
    if exact.get("invariants_ok", 1) != 1 or exact.get("invariant_violations", 0) != 0:
        problems.append("invariant checker reported a violation")
    if "generated" not in exact or "completed" not in exact:
        problems.append("result lacks generated/completed counts")
    generated, completed, lost, in_flight = accounting(exact)
    if in_flight < 0 or completed < 0 or lost < 0:
        problems.append(f"accounting broken: generated {generated} != completed {completed}"
                        f" + shed/dropped {lost} + in-flight {in_flight} with in-flight >= 0")

    if record is not None:
        for section in ("exact", "envelopes"):
            got = result[section]
            for key, want in sorted(record[section].items()):
                if key not in got:
                    problems.append(f"{section}.{key}: recorded {want!r}, missing")
                elif got[key] != want:
                    problems.append(f"{section}.{key}: recorded {want!r}, got {got[key]!r}")
    return problems


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(exact, timed, correct):
    generated, completed, _, _ = accounting(exact)
    metrics = {
        "sim_ms_per_s": median([o["sim_ms"] / o["run_s"] for o in timed]),
        "setup_s": median([o["setup_s"] for o in timed]),
        "peak_rss_mb": median([o["peak_rss_kb"] for o in timed]) / 1024.0,
        "completed_frac": ratio(completed, generated) if correct else 0.0,
    }
    assert set(metrics) == set(END_TO_END_UNITS)
    return metrics


def span_seconds(out, name):
    return sum((s["end_ns"] - s["start_ns"]) * 1e-9 for s in out["spans"] if s["name"] == name)


def per_layer(spec, traced, untraced):
    """Per-layer metrics of the traced processes; 0 where a layer is off the
    workload's path or not visible from the scenario layer."""
    result = traced[0]["result"]
    exact = result["exact"]
    stats = traced[0]["stats"]
    counters = stats["counters"]
    hists = stats["histograms"]

    def counter(name, label=None):
        if label is not None:
            return counters.get(f"{name}{{{label}}}", 0)
        return sum(v for k, v in counters.items() if k == name or k.startswith(name + "{"))

    def hist_count_mean(name):
        parts = [h for k, h in hists.items() if k == name or k.startswith(name + "{")]
        count = sum(h["count"] for h in parts)
        mean = ratio(sum(h["count"] * (h["mean"] or 0) for h in parts), count)
        return count, mean

    generated, completed, lost, in_flight = accounting(exact)
    committed = counter("txn_commit_total", "status=COMMITTED")
    commits = counter("txn_commit_total")
    ipis = counter("kernel_ipi_total")
    iterations, _ = hist_count_mean("agent_iteration_cost_ns")
    _, group_commit_mean = hist_count_mean("ghost_group_commit_size")
    _, rq_depth_mean = hist_count_mean("policy_runqueue_depth")

    fleet = spec.get("fleet")
    horizon_ms = traced[0]["sim_ms"]
    machines = fleet["machines"] if fleet else 1
    run_s = median([o["run_s"] for o in traced])
    epochs = 0
    if fleet:
        network = fleet.get("network", {})
        latencies = [network.get("latency_us", 50)] + [
            link["latency_us"] for link in network.get("links", [])
            if link.get("latency_us", -1) >= 0]
        epochs = -(-int(horizon_ms * 1000) // int(min(latencies)))
    invariants = spec.get("invariants", {})
    scans = 0
    if invariants.get("enabled", True):
        scans = horizon_ms * 1000 / invariants.get("period_us", 250) * machines
    events = traced[0]["events"] if traced[0]["events"] >= 0 else 0

    def span_ms(name):
        return median([span_seconds(o, name) for o in traced]) * 1e3

    metrics = {
        "scenario.parse_ms": span_ms("scenario.parse"),
        "fleet.build_ms": span_ms("fleet.build"),
        "fleet.epochs": epochs,
        "fleet.host_us_per_epoch": ratio(run_s * 1e6, epochs),
        "fleet.sys_cpu_frac": median([o["run_sys_s"] / o["run_s"] for o in traced]) if fleet else 0.0,
        "fleet.cpu_util": median([(o["run_user_s"] + o["run_sys_s"]) / o["run_s"]
                                  for o in traced]) if fleet else 0.0,
        "fleet.net_msgs_per_req": ratio(exact.get("net_messages", 0), generated),
        "fleet.shed": exact.get("shed", 0),
        "fleet.parked": exact.get("net_parked", 0),
        "sim.events": events,
        "sim.events_per_req": ratio(events, generated),
        "sim.host_ns_per_event": ratio(run_s * 1e9, events),
        "sim.warmup_ms": span_ms("sim.warmup"),
        "sim.measure_ms": span_ms("sim.measure"),
        "sim.drain_ms": span_ms("sim.drain"),
        "kernel.switches_per_req": ratio(counter("kernel_context_switch_total", "kind=task"), generated),
        "kernel.ticks": counter("kernel_tick_total"),
        "kernel.ipis_per_commit": ratio(ipis, committed),
        "kernel.cross_numa_ipi_frac": ratio(counter("kernel_ipi_total", "cross_numa=true"), ipis),
        "ghost.msgs_per_req": ratio(counter("ghost_msg_post_total"), generated),
        "ghost.commits_per_req": ratio(commits, generated),
        "ghost.commit_ok_frac": ratio(committed, commits),
        "ghost.group_commit_mean": group_commit_mean,
        "ghost.msg_drops": counter("ghost_msg_drop_total"),
        "agent.iters_per_commit": ratio(iterations, committed),
        "agent.switches_per_req": ratio(counter("kernel_context_switch_total", "kind=agent"), generated),
        "policies.rq_depth_mean": rq_depth_mean,
        "verify.scans": scans,
        "verify.scan_us": median([span_seconds(o, "verify.finish") for o in traced]) * 1e6,
        "workloads.generated": generated,
        "workloads.in_flight_end": in_flight,
        "stats.overhead_frac": ratio(run_s, median([o["run_s"] for o in untraced])) - 1.0,
    }
    assert set(metrics) == set(PER_LAYER_UNITS)
    return metrics


def write_chrome_trace(workload, seed, outputs):
    """Spans of every traced process as Chrome-trace JSON (opens in Perfetto)."""
    events = []
    origin = min(s["start_ns"] for o in outputs if o["traced"] for s in o["spans"])
    for run_id, out in enumerate(outputs):
        if not out["traced"]:
            continue
        events.append({"name": "process_name", "ph": "M", "pid": run_id, "tid": 0,
                       "args": {"name": f"{workload} seed {seed} run {run_id}"}})
        spans = out["spans"]
        for span in spans:
            parent = spans[span["parent"]]["name"] if span["parent"] >= 0 else None
            events.append({
                "name": span["name"], "cat": span["name"].split(".")[0], "ph": "X",
                "pid": run_id, "tid": 0,
                "ts": (span["start_ns"] - origin) / 1e3,
                "dur": (span["end_ns"] - span["start_ns"]) / 1e3,
                "args": {"run": run_id, "parent": parent},
            })
    path = BUILD / "traces" / f"{workload}-seed{seed}.trace.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
    return path


def load_records(workload):
    path = records_path(workload)
    return json.loads(path.read_text()) if path.exists() else {}


def save_record(workload, seed, result):
    records = load_records(workload)
    records[str(seed)] = {"exact": result["exact"], "envelopes": result["envelopes"]}
    records_path(workload).write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")


def run_workload(workload, seed, seconds, trace, jobs, record):
    """Runs and checks one workload; prints its summary and result line.
    Returns True when every check passed."""
    spec = json.loads(spec_path(workload).read_text())
    jobs = jobs or WORKLOAD_JOBS[workload]
    expected = load_records(workload).get(str(seed))
    outputs = []
    problems = []
    try:
        outputs.append(run_child(workload, seed, jobs, traced=False))  # warm-up
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or len(outputs) <= MIN_PROCESSES * (1 + trace):
            traced = bool(trace) and len(outputs) % 2 == 1
            outputs.append(run_child(workload, seed, jobs, traced))
        problems = check(outputs, None if record else expected)
    except ChildFailed as e:
        problems = [str(e)]
    correct = not problems

    if outputs:
        generated, completed, _, _ = accounting(outputs[0]["result"]["exact"])
        attempted = max(generated, 1)
        failed = attempted - completed if correct else attempted
    else:
        attempted, failed = 1, 1
    timed = [o for o in outputs[1:] if not o["traced"]]
    traced = [o for o in outputs if o["traced"]]

    print(f"{workload}: seed {seed}, jobs {jobs}, {len(outputs) - 1} timed processes"
          f" (+1 warm-up), {outputs[0]['sim_ms'] if outputs else 0:g} simulated ms each")
    if correct:
        events = outputs[0]["events"]
        if record:
            note = "record not compared (--record)"
        elif expected:
            note = f"record for seed {seed} matched"
        else:
            note = f"no record for seed {seed}: invariant and accounting checks only"
        print(f"  check: ok; {note}; executed events {events if events >= 0 else 'n/a'}"
              " (reported, not checked)")
    else:
        print("  check: FAILED")
        for p in problems[:20]:
            print(f"    {p}")
    print(f"  failed_frac = {ratio(failed, attempted):.6g} ratio"
          f" ({failed} of {attempted} requests)")

    if trace:
        metrics = per_layer(spec, traced, timed) if correct else {}
        units = PER_LAYER_UNITS
        if correct:
            print(f"  spans: {write_chrome_trace(workload, seed, outputs)}")
    else:
        metrics = end_to_end(outputs[0]["result"]["exact"], timed, correct) if outputs else {}
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")

    if correct and record:
        save_record(workload, seed, outputs[0]["result"])
        print(f"  recorded seed {seed} in {records_path(workload)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    sys.stdout.flush()
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOAD_JOBS),
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=0,
                        help="fleet per-epoch parallelism (default: the workload's)")
    parser.add_argument("--record", action="store_true",
                        help="store this seed's simulated outputs as its record")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1 or args.jobs < 0:
        parser.error("--seed and --jobs must be >= 0 and --seconds >= 1")
    try:
        build()
        workloads = [args.workload] if args.workload else list(WORKLOAD_JOBS)
        ok = True
        for workload in workloads:
            ok &= run_workload(workload, args.seed, args.seconds, args.trace, args.jobs,
                               args.record)
    except (BenchError, OSError, subprocess.SubprocessError, json.JSONDecodeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
