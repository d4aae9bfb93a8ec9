#!/usr/bin/env python3
"""The fabric benchmark: builds fabric_bench from source, runs one workload
as a series of episodes, each in a fresh process, checks every episode's
outputs and prints the metrics.

    python3 fabricbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under fabricbench/. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 each untraced episode is
paired with a traced one and the metrics are the per-layer ones.

Episode k draws its inputs from the seed and k, and the number of episodes is
a function of --seconds alone, so one seed always runs the same inputs. Every
metric is a median over episodes: a co-tenant that stalls one process moves
one sample, not the result. See fabricbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("many_shards", "wide_groups", "overload_elastic", "transient_fault")

# (name, unit) of the metrics printed on the last line; BENCHMARK.json lists the same.
END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("plays_per_s", "1/s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_p95", "ms"),
    ("cpu_ms_per_play", "ms"),
    ("peak_rss_mb", "MB"),
)

# End-to-end metrics that exist only on some workloads (or can read 0), so
# they are printed in the report table and not on the last line's end-to-end set.
WORKLOAD_END_TO_END = (
    ("failed_share", "ratio"),
    ("pause_ms_max", "ms"),
    ("recovery_s", "s"),
)

PER_LAYER = (
    ("shard.build_ms", "ms"),
    ("shard.window_ms", "ms"),
    ("shard.transitions", "count"),
    ("shard.rebuilt_groups", "count"),
    ("shard.quiesce_pulses_max", "pulses"),
    ("game.cost_calls_build", "count"),
    ("game.cost_calls_per_play", "count"),
    ("game.cost_cpu_ms", "ms"),
    ("bft.sessions_per_play", "count"),
    ("bft.rounds_per_play", "count"),
    ("bft.payload_bytes_per_play", "bytes"),
    ("bft.message_cpu_ms", "ms"),
    ("bft.deliver_cpu_ms", "ms"),
    ("bft.cpu_share", "ratio"),
    ("authority.self_cpu_ms", "ms"),
    ("authority.fouls", "count"),
    ("authority.expelled", "count"),
    ("authority.honest_flagged", "count"),
    ("common.cpu_per_wall", "ratio"),
    ("sim.messages_per_play", "count"),
    ("sim.bytes_per_play", "bytes"),
    ("sim.pulses_per_play", "pulses"),
    ("sim.dropped", "count"),
    ("sim.delayed", "count"),
    ("wire.frames_per_play", "count"),
    ("wire.bytes_per_play", "bytes"),
    ("pipeline.batches", "count"),
    ("pipeline.batch_window_pulses_p50", "pulses"),
    ("clock.held_boundaries", "count"),
    ("ssba.recovery_pulses", "pulses"),
    ("ssba.lost_plays", "count"),
    ("ingest.offered", "count"),
    ("ingest.accepted", "count"),
    ("ingest.queued", "count"),
    ("ingest.retry_after", "count"),
    ("ingest.shed", "count"),
    ("ingest.shed_deadline", "count"),
    ("ingest.shed_expelled", "count"),
    ("ingest.completed", "count"),
    ("ingest.unbacked_completions", "count"),
    ("ingest.useful_ratio", "ratio"),
    ("ingest.queue_depth_max", "count"),
    ("ingest.verdict_pulses_p50", "pulses"),
    ("ingest.verdict_pulses_p99", "pulses"),
    ("telemetry.json_bytes", "bytes"),
    ("telemetry.trace_bytes", "bytes"),
    ("metrics.report_ms", "ms"),
    ("failed_share", "ratio"),
    ("trace_overhead_s", "s"),
)

# Per-layer timings that exist only where their layer runs; printed in the
# table, not on the last line (a time that reads 0 on every run is no timing).
WORKLOAD_PER_LAYER = (
    ("shard.transition_ms", "ms"),
    ("ingest.submit_ms", "ms"),
    ("telemetry.export_ms", "ms"),
)

# Counts that are a pure function of the seed: two processes that run one
# episode's inputs must report them equal. Probe counts (bft.*, game.*) are
# left out: how IC sessions interleave across executor threads is not fixed.
DETERMINISTIC_PREFIXES = ("sim.", "ingest.", "ssba.", "pipeline.", "wire.", "clock.")
DETERMINISTIC = {"authority.fouls", "authority.expelled", "authority.honest_flagged",
                 "shard.transitions", "shard.rebuilt_groups", "shard.quiesce_pulses_max",
                 "telemetry.json_bytes", "telemetry.trace_bytes", "failed_share"}


def deterministic(name):
    return name in DETERMINISTIC or (name.startswith(DETERMINISTIC_PREFIXES) and
                                     not name.endswith("_ms"))


EPISODE_TIMEOUT_S = 170
MIN_EPISODES = 3  # --trace 0: set-up is measured at least this often
# On a machine much slower than the reference box, schedule no episode that
# would end past this multiple of --seconds, so a run still ends in time.
OVERRUN = 1.15
# Wall seconds of one untraced and one traced episode on the reference box
# (4-core Xeon, see README.md); they turn --seconds into an episode count.
EPISODE_S = {
    "many_shards": (1.6, 1.8),
    "wide_groups": (6.5, 7.5),
    "overload_elastic": (1.8, 2.3),
    "transient_fault": (0.85, 0.95),
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure and build fabric_bench; return the binary's path or None."""
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, "fabricbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "fabric_bench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("build failed:", " ".join(step))
            return None
    return os.path.join(build_dir, "fabric_bench"), build_dir


def run_episode(exe, workload, seed, episode, traced, trace_out=None):
    """One fresh process; returns its result dict or an error string."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--episode", str(episode)]
    if traced:
        cmd.append("--traced")
        if trace_out:
            cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=EPISODE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "episode timed out after %d s" % EPISODE_TIMEOUT_S
    if done.returncode != 0:
        return "episode exited %d: %s" % (done.returncode, done.stderr.strip()[-300:])
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "episode printed no result"


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(episodes):
    """Per-episode metrics, each reduced to its median over episodes; with sample counts."""
    n = len(episodes)
    windows = sum(len(ep["window_ms"]) for ep in episodes)
    plays = sum(ep["plays"] for ep in episodes)

    def median(f):
        return statistics.median(f(ep) for ep in episodes)

    values = {
        "setup_s": (median(lambda ep: ep["setup_s"]), n),
        "total_s": (median(lambda ep: ep["total_s"]), n),
        "plays_per_s": (median(lambda ep: ep["plays"] / (ep["total_s"] - ep["setup_s"])), plays),
        "verdict_ms_p50": (median(lambda ep: statistics.median(ep["window_ms"])), windows),
        "verdict_ms_p95": (median(lambda ep: percentile(ep["window_ms"], 95)), windows),
        "cpu_ms_per_play": (median(lambda ep: 1000.0 * ep["post_setup_cpu_s"] / ep["plays"]), plays),
        "peak_rss_mb": (median(lambda ep: ep["peak_rss_mb"]), n),
        "failed_share": (median(lambda ep: ep["layers"]["failed_share"]),
                         sum(ep["attempted"] for ep in episodes)),
    }
    pauses = [max(ep["pause_ms"]) for ep in episodes if ep["pause_ms"]]
    if pauses:
        values["pause_ms_max"] = (statistics.median(pauses), len(pauses))
    recoveries = [ep["recovery_s"] for ep in episodes if "recovery_s" in ep]
    if recoveries:
        values["recovery_s"] = (statistics.median(recoveries), len(recoveries))
    return values


def check(episodes, traced_pairs):
    """Correctness across episodes: gates, determinism, probe purity."""
    problems = []
    for ep in episodes + [t for _, t in traced_pairs]:
        for gate, reason in ep["gate_failures"].items():
            problems.append("%s%s: %s" % ("traced " if ep["traced"] else "", gate, reason))
    # Two processes that ran one episode's inputs must agree on every verdict
    # and every deterministic count.
    runs = [(a, b) for a in episodes for b in episodes
            if a is not b and a["episode"] == b["episode"]][:1] + traced_pairs
    for a, b in runs:
        label = "probe purity" if b["traced"] else "determinism"
        if a["state_digest"] != b["state_digest"]:
            problems.append("%s: episode %d's metrics or histories differ" % (label, a["episode"]))
        for key, value in a["layers"].items():
            if deterministic(key) and b["layers"].get(key) != value:
                problems.append("%s: %s read %s then %s" % (label, key, value, b["layers"].get(key)))
    return sorted(set(problems))


def per_layer(traced_pairs):
    """Per-layer metrics: medians over traced episodes, plus the tracing overhead."""
    traced = [t for _, t in traced_pairs]
    values = {}
    for name, _ in PER_LAYER + WORKLOAD_PER_LAYER:
        samples = [t["layers"][name] for t in traced if name in t["layers"]]
        if name == "shard.window_ms":
            samples = [statistics.median(t["window_ms"]) for t in traced]
        if samples:
            values[name] = statistics.median(samples)
    values["trace_overhead_s"] = statistics.median(t["total_s"] - u["total_s"]
                                                   for u, t in traced_pairs)
    return values


def self_times(traced):
    """Each layer's self time in the traced episode, in ms."""
    layers = traced["layers"]
    rows = [
        ("shard", "construction outside cost() (incl. optimum loop)",
         layers["shard.build_ms"] - layers.get("game.cost_build_ms", 0.0)),
        ("game", "cost() during construction", layers.get("game.cost_build_ms", 0.0)),
        ("bft", "IC message_for_round + deliver_round",
         layers["bft.message_cpu_ms"] + layers["bft.deliver_cpu_ms"]),
        ("game", "cost() during windows", layers["game.cost_cpu_ms"]),
        ("authority", "window CPU outside bft and game", layers["authority.self_cpu_ms"]),
        ("metrics", "report()", layers["metrics.report_ms"]),
    ]
    if "ingest.submit_ms" in layers:
        rows.append(("ingest", "submit() calls", layers["ingest.submit_ms"]))
    if "shard.transition_ms" in layers:
        rows.append(("shard", "maybe_rebalance() outside cost()",
                     layers["shard.transition_ms"] - layers["game.cost_transition_ms"]))
        rows.append(("game", "cost() during transitions", layers["game.cost_transition_ms"]))
    if "telemetry.export_ms" in layers:
        rows.append(("telemetry", "to_json + to_chrome_trace", layers["telemetry.export_ms"]))
    return rows


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return model


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    built = build()
    if built is None:
        return 1
    exe, build_dir = built

    untraced_s, traced_s = EPISODE_S[args.workload]
    if args.trace:
        count = max(1, int(args.seconds / (untraced_s + traced_s)))
        schedule = list(range(count))
    else:
        # The last episode repeats the first: the determinism check.
        count = max(MIN_EPISODES, int(args.seconds / untraced_s))
        schedule = list(range(count - 1)) + [0]
    episodes, pairs, errors = [], [], []
    trace_file = None
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_file = os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))
    start = time.monotonic()
    for k in schedule:
        # Stop before an episode that would end past the limit, judged by the
        # mean episode so far.
        elapsed = time.monotonic() - start
        if (len(episodes) >= MIN_EPISODES and
                elapsed * (len(episodes) + 1) / len(episodes) > OVERRUN * args.seconds):
            log("stopping early: one more episode would pass %.0f s" % (OVERRUN * args.seconds))
            break
        untraced = run_episode(exe, args.workload, args.seed, k, False)
        traced = (run_episode(exe, args.workload, args.seed, k, True, trace_file)
                  if args.trace else None)
        for result in (untraced, traced):
            if isinstance(result, str):
                errors.append(result)
        if errors:
            break
        episodes.append(untraced)
        if args.trace:
            pairs.append((untraced, traced))

    windows_per_episode = len(episodes[0]["window_ms"]) if episodes else 0
    attempted = max(1, windows_per_episode * (len(episodes) + len(pairs) + len(errors)))
    failed = windows_per_episode * len(errors) if episodes else attempted
    problems = errors + (check(episodes, pairs) if episodes else [])

    first = episodes[0] if episodes else {}
    print("fabric benchmark: workload %s, seed %d, %s" %
          (args.workload, args.seed, "traced" if args.trace else "untraced"))
    print("machine: %s, nproc %d, executor width %s, %s, %s build" %
          (machine(), os.cpu_count() or 0, first.get("threads"), first.get("compiler"),
           first.get("build_type")))
    if episodes:
        print("episodes: %d untraced%s, %d verdict windows each, verdict digest %s" %
              (len(episodes), ", %d traced" % len(pairs) if args.trace else "",
               windows_per_episode, first["verdict_digest"][:16]))
        e2e = end_to_end(episodes)
        print("\nend to end (untraced)")
        for name, unit in END_TO_END + WORKLOAD_END_TO_END:
            if name in e2e:
                value, samples = e2e[name]
                print("  %-18s %14.6f %-6s n=%d" % (name, value, unit, samples))
    if "ingest.abandoned" in first.get("layers", {}):
        l = first["layers"]
        print("  failed requests, episode 0: %d of %d fresh = abandoned %d + deadline-shed %d"
              " + still queued %d + awaiting retry %d + completed without an agreed play %d" %
              (first["failed"], first["attempted"], l["ingest.abandoned"], l["ingest.shed_deadline"],
               l["ingest.queued_at_end"], l["ingest.awaiting_retry"],
               l["ingest.unbacked_completions"]))
    if pairs:
        layers = per_layer(pairs)
        print("\nper layer (traced)")
        for name, unit in PER_LAYER + WORKLOAD_PER_LAYER:
            shown = "%14.4f" % layers[name] if name in layers else "%14s" % "absent"
            print("  %-34s %s %s" % (name, shown, unit))
        print("\nself time by layer (traced episode, ms)")
        for layer, what, ms in self_times(pairs[-1][1]):
            print("  %-10s %-50s %12.3f" % (layer, what, ms))
        print("\ntrace: %s (Perfetto, or ga_inspect --trace)" % trace_file)
    for problem in problems:
        print("FAILED CHECK: " + problem)

    metrics = {}
    if args.trace and pairs:
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layers.get(name, 0.0), "unit": unit}
    elif episodes:
        for name, unit in END_TO_END:
            metrics[name] = {"value": e2e[name][0], "unit": unit}
    if not metrics:
        return 1
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
