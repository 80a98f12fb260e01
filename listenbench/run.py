#!/usr/bin/env python3
"""Benchmark of `san_tool listen`: present, history and live workloads.

Run from the repository root:

    python3 listenbench/run.py --workload present|history|live --seed N \
        --seconds S --trace 0|1

One run builds the repository's san_tool plus this directory's load
client and traced harness (listenbench/CMakeLists.txt, build tree under
.bench_build/), makes the run's inputs from --seed (cached under
.bench_build/inputs/, never timed), starts the real `san_tool listen` on a
generated SANv1 network and drives it over loopback through three bulk
repetitions and a probe phase, each on a freshly started server, with
more timed start-ups between the phases (--trace 0). Every
response is checked byte for byte against offline replay (`san_tool
serve`, or `san_tool live --start 0` for the live workload). With
--trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics, from the same socket run plus
the traced in-process replay of the same lines. README.md in this
directory documents every metric, the workloads and the noise they were
tuned against.
"""

import argparse
import bisect
import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
CMAKE_TREE = BUILD / "cmake"
SAN_TOOL = CMAKE_TREE / "san" / "san_tool"
CLIENT = CMAKE_TREE / "listenbench_client"
HARNESS = CMAKE_TREE / "listenbench_harness"

SAN_THREADS = 2      # server lanes; plus one client thread, within nproc
LISTEN_FLAGS = ["--cache", "8", "--batch", "1024", "--max-delay-us", "1000"]
SAN_SEED = 42        # the network is fixed; --seed varies the traces
BULK_REPS = 3        # bulk phase repeats, each on a fresh server
EXTRA_SETUPS = 2     # timed start-ups after each phase (--trace 0 only)
CAP_FACTOR = 3.0     # a fixed-size phase may take this times its share

PRESENT_MIX = "linkrec:40,attrs:15,ego:15,recip:10,sybil:5,community:10"
POINT_MIX = "linkrec:40,attrs:15,ego:15,recip:10"
LIVE_BULK_MIX = "linkrec:40,attrs:15,ego:15,recip:10,sybil:1,community:1"

# Input sizes. `full` is the benchmark; `small` is the self-test's
# (listenbench/test_run.py) scale, which finishes in seconds.
SCALES = {
    "full": {"nodes": 60000, "present_lines": 20000, "history_lines": 24000,
             "history_rounds": 2, "live_bulk_lines": 12000,
             "live_bulk_ingests": 20, "live_probe_pairs": 1000,
             "horizon": 98.0},
    "small": {"nodes": 3000, "present_lines": 2000, "history_lines": 2000,
              "history_rounds": 2, "live_bulk_lines": 2000,
              "live_bulk_ingests": 24,
              "live_probe_pairs": 60, "horizon": 98.0},
}

WORKLOADS = ("present", "history", "live")


def log(message):
    print(f"[listenbench] {message}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """A run that cannot produce a result."""


def run_checked(cmd, **kwargs):
    result = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    if result.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited "
                         f"{result.returncode}: {result.stderr.strip()[-2000:]}")
    return result


# ---------------------------------------------------------------- build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "serve" / "server.hpp").is_file():
        raise BenchError(f"no san sources under {ROOT}: run from a full "
                         "checkout of the repository")
    CMAKE_TREE.mkdir(parents=True, exist_ok=True)
    if not (CMAKE_TREE / "CMakeCache.txt").is_file():
        log("configuring the benchmark build")
        run_checked(["cmake", "-S", str(BENCH), "-B", str(CMAKE_TREE),
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_checked(["cmake", "--build", str(CMAKE_TREE), "--parallel", jobs],
                timeout=900)


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


# --------------------------------------------------------------- inputs

def read_node_times(san_path):
    """Join times of the social nodes (SANv1 lists them in id order)."""
    with open(san_path) as f:
        if f.readline().strip() != "SANv1":
            raise BenchError(f"{san_path} is not SANv1")
        count = int(f.readline().split()[1])
        times = [float(f.readline()) for _ in range(count)]
    if times != sorted(times):
        raise BenchError("SANv1 node ids are not in join order")
    return times


def genload(out, seed, queries, nodes, mix, now, horizon=98.0):
    """Query lines from `san_tool genload`. Users are drawn uniformly
    (--zipf 0): the server caches nothing per user, so skew would only
    let a seed's few hot users decide the medians."""
    run_checked([str(SAN_TOOL), "genload", "--queries", str(queries),
                 "--nodes", str(nodes), "--seed", str(seed), "--mix", mix,
                 "--zipf", "0", "--now", str(now), "--horizon", repr(horizon),
                 "-o", str(out)])
    return [line for line in Path(out).read_text().splitlines()
            if line and not line.startswith("#")]


def remap(line, joined):
    """Points a query's users at ids joined by its time: SANv1 ids are in
    join order, so the users present at a time are an id prefix."""
    parts = line.split()
    users = [2, 3] if parts[0] == "recip" else [2]
    for i in users:
        parts[i] = str(int(parts[i]) % joined)
    return " ".join(parts)


def day_rounds(lines, rounds, rng):
    """The probe lines of a history trace: `rounds` rounds that each visit
    every day once, in a fresh random day order, with a random line of
    that day. Nearly every probe misses the 8-entry cache, and every seed
    probes each day equally often."""
    by_day = {}
    for line in lines:
        by_day.setdefault(line.split()[1], []).append(line)
    days = sorted(by_day, key=float)
    order = []
    for _ in range(rounds):
        rng.shuffle(days)
        order.extend(rng.choice(by_day[day]) for day in days)
    return order


def with_ingests(queries, tips, times):
    """`ingest <tip>` before each of len(tips) equal runs of queries, each
    query remapped to the users joined by the tip it sees."""
    out, per = [], len(queries) / len(tips)
    for i, tip in enumerate(tips):
        out.append(f"ingest {tip}")
        joined = bisect.bisect_right(times, float(tip))
        out.extend(remap(q, joined)
                   for q in queries[round(i * per):round((i + 1) * per)])
    return out


def make_inputs(workload, seed, scale, times, out_dir):
    """Writes bulk.txt and probe.txt (the wire lines of each phase) and
    returns the phase settings."""
    cfg = SCALES[scale]
    nodes = len(times)
    rng = random.Random(seed * 7919 + WORKLOADS.index(workload))
    base = seed * 10 + WORKLOADS.index(workload) * 1000003
    if workload == "present":
        raw = genload(out_dir / "genload_bulk.txt", base, cfg["present_lines"],
                      nodes, PRESENT_MIX, now=1)
        lines = [remap(line, nodes) for line in raw]
        # Untimed warm-up: the snapshot and both derived states.
        warm = ["sybil now 0", "community now 0"]
        bulk = warm + lines
        probe = warm + rng.sample(lines, len(lines))
        phases = {"bulk_cycle": True, "probe_cycle": True,
                  "bulk_warmup": 2, "probe_warmup": 2}
    elif workload == "history":
        raw = genload(out_dir / "genload_bulk.txt", base, cfg["history_lines"],
                      nodes, POINT_MIX, now=0, horizon=cfg["horizon"])
        bulk = [remap(line, bisect.bisect_right(times, float(line.split()[1])))
                for line in raw]
        probe = day_rounds(bulk, cfg["history_rounds"], rng)
        phases = {"bulk_cycle": False, "probe_cycle": False,
                  "bulk_warmup": 0, "probe_warmup": 0}
    else:
        # Ingest tips sit on a fixed grid, so every seed ingests the same
        # event batches and rebuilds derived state on the same epochs; the
        # seed picks the queries.
        half = cfg["horizon"] / 2
        ingests, pairs = cfg["live_bulk_ingests"], cfg["live_probe_pairs"]
        raw = genload(out_dir / "genload_bulk.txt", base,
                      cfg["live_bulk_lines"], nodes, LIVE_BULK_MIX, now=1)
        bulk = [remap(raw[0], bisect.bisect_right(times, 0.0))] + \
            with_ingests(raw[1:], [f"{half * (i + 1) / ingests:.6f}"
                                   for i in range(ingests)], times)
        # The probe server starts at day 0 too: one catch-up ingest to
        # the bulk horizon, then every item is `ingest T` + a query.
        raw = genload(out_dir / "genload_probe.txt", base + 1, pairs + 1,
                      nodes, POINT_MIX, now=1)
        probe = with_ingests(raw, [f"{half:.6f}"] + [
            f"{half + half * (i + 1) / pairs:.6f}" for i in range(pairs)],
            times)
        phases = {"bulk_cycle": False, "probe_cycle": False,
                  "bulk_warmup": 0, "probe_warmup": 1}
    (out_dir / "bulk.txt").write_text("\n".join(bulk) + "\n")
    (out_dir / "probe.txt").write_text("\n".join(probe) + "\n")
    return phases


def offline_reference(workload, san, lines_path):
    """Starts the file replay that answers every query line of
    `lines_path`, one response line each; returns the process."""
    env = dict(os.environ, SAN_THREADS=str(SAN_THREADS))
    cmd = [str(SAN_TOOL), "live" if workload == "live" else "serve", str(san),
           "--workload", str(lines_path), "--cache", "8", "--batch", "1024"]
    if workload == "live":
        cmd += ["--start", "0"]
    return subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env)


def collect(procs):
    """Waits for every process; returns their stdout, in order."""
    outputs = [proc.communicate() for proc in procs]
    for proc, (_, err) in zip(procs, outputs):
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(proc.args)} exited {proc.returncode}:"
                             f" {err.strip()[-2000:]}")
    return [out for out, _ in outputs]


def prepare(workload, seed, scale):
    """Builds (or reuses) the network and the run's traces; returns the
    network, the trace directory and the phase settings."""
    scale_dir = BUILD / "inputs" / scale
    scale_dir.mkdir(parents=True, exist_ok=True)
    san = scale_dir / f"gplus-{SCALES[scale]['nodes']}-seed{SAN_SEED}.san"
    if not san.is_file():
        log(f"generating {san.name}")
        tmp = san.with_suffix(".tmp")
        run_checked([str(SAN_TOOL), "generate", "--kind", "gplus", "--nodes",
                     str(SCALES[scale]["nodes"]), "--seed", str(SAN_SEED),
                     "-o", str(tmp)])
        tmp.rename(san)
    times = read_node_times(san)
    # Traces are keyed by the code that makes them (this file) as well.
    out_dir = scale_dir / f"{workload}-seed{seed}-{file_digest(__file__)}"
    meta_path = out_dir / "phases.json"
    if meta_path.is_file():
        phases = json.loads(meta_path.read_text())
    else:
        out_dir.mkdir(parents=True, exist_ok=True)
        phases = make_inputs(workload, seed, scale, times, out_dir)
        meta_path.write_text(json.dumps(phases))
    return san, out_dir, phases


def reference(workload, san, out_dir):
    """Builds (or reuses) the offline answers to the traces. They depend
    on the program, so they are keyed by its digest; a run computes them
    after its measurement, so every measurement follows the same light
    preparation whether or not the answers were cached."""
    ref_dir = out_dir / f"ref-{file_digest(SAN_TOOL)}"
    if not (ref_dir / "done").is_file():
        ref_dir.mkdir(parents=True, exist_ok=True)
        if workload == "live":
            # Both phases' replays at once: 2 x SAN_THREADS lanes.
            procs = [offline_reference(workload, san, out_dir / f"{p}.txt")
                     for p in ("bulk", "probe")]
            for phase, out in zip(("bulk", "probe"), collect(procs)):
                (ref_dir / f"{phase}.ref").write_text(out)
        else:
            # A static answer depends only on its line, and every probe
            # line is a bulk line: replay each distinct line once.
            bulk = (out_dir / "bulk.txt").read_text().splitlines()
            unique = list(dict.fromkeys(bulk))
            (ref_dir / "unique.txt").write_text("\n".join(unique) + "\n")
            out, = collect([offline_reference(workload, san,
                                              ref_dir / "unique.txt")])
            answer = dict(zip(unique, out.splitlines()))
            for phase in ("bulk", "probe"):
                lines = (out_dir / f"{phase}.txt").read_text().splitlines()
                (ref_dir / f"{phase}.ref").write_text(
                    "".join(answer[line] + "\n" for line in lines))
        (ref_dir / "done").write_text("ok\n")
    return ref_dir


# ------------------------------------------------------------ socket run

class Listener:
    """One `san_tool listen` process; times its start-up."""

    def __init__(self, san, live):
        cmd = [str(SAN_TOOL), "listen", str(san), "--port", "0"] + LISTEN_FLAGS
        if live:
            cmd += ["--start", "0"]
        env = dict(os.environ, SAN_THREADS=str(SAN_THREADS))
        begin = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True, env=env)
        first = self.proc.stderr.readline()
        self.setup_s = time.perf_counter() - begin
        match = re.match(r"listening on 127\.0\.0\.1:(\d+)", first)
        if not match:
            self.stop()
            raise BenchError(f"listen did not start: {first.strip()}")
        self.port = int(match.group(1))
        self.drained = None

    def peak_rss_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return kib / 1024.0

    def stop(self):
        """SIGTERM (graceful drain) and parse the final `drained:` line."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            _, rest = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, rest = self.proc.communicate()
        match = re.search(r"drained: .*?(\d+) queries in (\d+) batches.*?"
                          r"(\d+) dropped responses", rest or "")
        if match:
            self.drained = {"queries": int(match.group(1)),
                            "batches": int(match.group(2)),
                            "dropped": int(match.group(3))}
        return self.drained


def drive(listener, lines_path, mode, seconds, cycle, warmup, run_dir):
    responses = run_dir / f"{mode}.responses"
    cmd = [str(CLIENT), "--port", str(listener.port), "--server-pid",
           str(listener.proc.pid), "--lines", str(lines_path), "--mode", mode,
           "--warmup", str(warmup), "--responses", str(responses)]
    cap = seconds if cycle else seconds * CAP_FACTOR
    cmd += ["--seconds", repr(cap)]
    if cycle:
        cmd.append("--cycle")
    if mode == "probe":
        cmd += ["--samples", str(run_dir / "probe.samples")]
    result = run_checked(cmd, timeout=cap + 90)
    stats = json.loads(result.stdout.strip().splitlines()[-1])
    stats["responses"] = responses.read_text().split("\n")[:-1]
    if mode == "probe":
        stats["samples_ns"] = [
            int(row.split()[0])
            for row in (run_dir / "probe.samples").read_text().splitlines()]
    return stats


def expected_answers(lines_path, ref_path, taken):
    """The offline answer to every query line among the first `taken`
    lines the client sent (wrapping around the file when it cycled)."""
    lines = Path(lines_path).read_text().splitlines()
    ref = Path(ref_path).read_text().splitlines()
    queries = [i for i, line in enumerate(lines)
               if not line.startswith("ingest ")]
    if len(queries) != len(ref):
        raise BenchError(f"{ref_path} has {len(ref)} answers for "
                         f"{len(queries)} queries")
    per_line = [None] * len(lines)
    for i, answer in zip(queries, ref):
        per_line[i] = answer
    return [a for i in range(taken)
            if (a := per_line[i % len(lines)]) is not None]


def check_phase(stats, expected):
    """Counts one phase's failures: responses missing, extra (an `ERR
    workload line` for an ingest), different from offline replay, or
    dropped by the server (an unparsed `drained:` line counts as one)."""
    got = stats["responses"]
    attempted = stats["warmup"] + stats["sent"]
    mismatched = sum(1 for a, b in zip(got, expected) if a != b)
    dropped = stats["drained"]["dropped"] if stats["drained"] else 1
    failed = min(attempted, mismatched + abs(len(got) - len(expected)) + dropped)
    unknown = sum(1 for a in got if a.endswith(" ERR unknown-node"))
    return attempted, failed, unknown, len(got)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def socket_run(workload, seconds, san, out_dir, phases, run_dir, extra_setups):
    """The measured part of a run: BULK_REPS bulk repetitions, then the
    probe phase, each on a freshly started server, and after each phase
    `extra_setups` more start-ups, so that the start-ups are spread over
    the run. Returns {"runs": [(phase, stats)], "setups": [seconds]}."""
    live = workload == "live"
    share = {"bulk": seconds / 2.0 / BULK_REPS, "probe": seconds / 2.0}
    result = {"runs": [], "setups": []}
    listeners = []
    try:
        for phase in ["bulk"] * BULK_REPS + ["probe"]:
            listener = Listener(san, live)
            listeners.append(listener)
            result["setups"].append(listener.setup_s)
            stats = drive(listener, out_dir / f"{phase}.txt", phase,
                          share[phase], phases[f"{phase}_cycle"],
                          phases[f"{phase}_warmup"], run_dir)
            stats["peak_rss_mb"] = listener.peak_rss_mb()
            stats["drained"] = listener.stop()
            result["runs"].append((phase, stats))
            for _ in range(extra_setups):
                listener = Listener(san, live)
                listeners.append(listener)
                result["setups"].append(listener.setup_s)
                listener.stop()
    finally:
        for listener in listeners:
            listener.stop()
    return result


def bulk_runs(sock):
    return [stats for phase, stats in sock["runs"] if phase == "bulk"]


def probe_run(sock):
    return next(stats for phase, stats in sock["runs"] if phase == "probe")


def verify(sock, out_dir, ref_dir, corrupt_reference):
    """Adds the attempted and failed counts of every phase to `sock`."""
    attempted = failed = unknown = answered = 0
    for phase, stats in sock["runs"]:
        expected = expected_answers(out_dir / f"{phase}.txt",
                                    ref_dir / f"{phase}.ref",
                                    stats["lines_taken"])
        if corrupt_reference and phase == "bulk":
            expected[-1] = expected[-1] + " corrupted"
        a, f, u, n = check_phase(stats, expected)
        stats["attempted"], stats["failed"] = a, f
        log(f"{phase}: {f} failed of {a} attempted")
        attempted, failed, unknown, answered = (attempted + a, failed + f,
                                                unknown + u, answered + n)
    sock["attempted"], sock["failed"] = attempted, failed
    sock["unknown_share"] = unknown / answered if answered else 0.0


def end_to_end(sock):
    """qps and CPU are medians over the bulk repetitions, which shrugs
    off a repetition the shared host slowed down."""
    bulk, probe = bulk_runs(sock), probe_run(sock)
    return {
        "setup_s": (median(sock["setups"]), "s"),
        "qps": (median([b["received"] / b["elapsed_s"] for b in bulk]), "1/s"),
        "cpu_ms_per_kquery": (median([b["server_cpu_s"] * 1e6 / b["received"]
                                      for b in bulk]), "ms"),
        "turnaround_p50_us": (median(probe["samples_ns"]) / 1e3, "us"),
        "peak_rss_mb": (max(median([b["peak_rss_mb"] for b in bulk]),
                            probe["peak_rss_mb"]), "MB"),
    }


def server_batches(sock):
    """Admission batches and mean batch size over the bulk servers."""
    drained = [b["drained"] or {"queries": 0, "batches": 0}
               for b in bulk_runs(sock)]
    batches = sum(d["batches"] for d in drained)
    return batches, sum(d["queries"] for d in drained) / max(1, batches)


# ----------------------------------------------------------- traced run

LAYERS = ("serialization", "timeline", "snapshot_cache", "live",
          "derived_cache", "query_engine", "query")
# The layers each workload is built to stress: together they should
# cover the largest self-time share of its traced replay.
STRESSED = {"present": ("query_engine", "query"),
            "history": ("snapshot_cache",),
            "live": ("live", "derived_cache")}
MIN_COVERAGE = 0.9


def trace_warnings(workload, metrics):
    """Ways a traced run misses its design: spans that cover under
    MIN_COVERAGE of the replay, or a layer outside STRESSED[workload]
    with a share at least that of the stressed layers together."""
    value = {name: v for name, (v, _) in metrics.items()}
    warnings = []
    if value["trace.coverage"] < MIN_COVERAGE:
        warnings.append(f"trace.coverage {value['trace.coverage']:.3f} < "
                        f"{MIN_COVERAGE}")
    stressed = sum(value[f"trace.share.{layer}"]
                   for layer in STRESSED[workload])
    for layer in LAYERS:
        share = value[f"trace.share.{layer}"]
        if layer not in STRESSED[workload] and share >= stressed:
            warnings.append(f"trace.share.{layer} {share:.3f} >= the "
                            f"stressed layers' {stressed:.3f}")
    return warnings


def traced_replay(workload, san, out_dir, sock, run_dir):
    spans_path = run_dir / "spans.tsv"
    batch = max(1, round(server_batches(sock)[1]))
    env = dict(os.environ, SAN_THREADS=str(SAN_THREADS))
    cmd = [str(HARNESS), "--san", str(san),
           "--mode", "live" if workload == "live" else "static",
           "--bulk", str(out_dir / "bulk.txt"),
           "--bulk-lines", str(bulk_runs(sock)[0]["lines_taken"]),
           "--batch", str(batch), "--probe", str(out_dir / "probe.txt"),
           "--probe-lines", str(probe_run(sock)["lines_taken"]),
           "--spans", str(spans_path)]
    counters = json.loads(run_checked(cmd, env=env, timeout=170)
                          .stdout.strip().splitlines()[-1])
    spans = []
    for row in spans_path.read_text().splitlines():
        name, start, end, parent, request, items = row.split("\t")
        spans.append({"name": name, "dur": int(end) - int(start),
                      "parent": int(parent), "request": int(request),
                      "items": int(items)})
    child = [0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child[span["parent"]] += span["dur"]
    for i, span in enumerate(spans):
        span["self"] = span["dur"] - child[i]
    return spans, counters


def per_layer(sock, spans, counters):
    def durs(name):
        return [s["dur"] for s in spans if s["name"] == name]

    def total(prefix):
        return sum(s["self"] for s in spans if s["name"].startswith(prefix))

    def items(prefix):
        return sum(s["items"] for s in spans if s["name"].startswith(prefix))

    root = spans[0]["dur"]
    m = {
        "serialization.load_s": (sum(durs("serialization.load")) / 1e9, "s"),
        "timeline.build_s": (median(durs("timeline.build")) / 1e9, "s"),
        "live.seed_s": (median(durs("live.seed")) / 1e9, "s"),
        "snapshot_cache.miss_ms": (median(durs("snapshot_cache.miss")) / 1e6,
                                   "ms"),
        "snapshot_cache.hit_us": (median(durs("snapshot_cache.hit")) / 1e3,
                                  "us"),
        "snapshot_cache.hits": (counters["cache_hits"], "count"),
        "snapshot_cache.misses": (counters["cache_misses"], "count"),
        "snapshot_cache.evictions": (counters["cache_evictions"], "count"),
        "snapshot_cache.hit_ratio": (
            counters["cache_hits"] /
            max(1, counters["cache_hits"] + counters["cache_misses"]),
            "ratio"),
        "live.tip_us": (median(durs("live.tip")) / 1e3, "us"),
        "live.batch_until_ms": (median(durs("live.batch_until")) / 1e6, "ms"),
        "live.ingest_ms": (median(durs("live.ingest")) / 1e6, "ms"),
        "live.events_per_s": (
            counters["ingest_events"] / (sum(durs("live.ingest")) / 1e9)
            if durs("live.ingest") else 0.0, "1/s"),
        "live.epochs": (counters["epochs"], "count"),
        "derived_cache.sybil_build_ms": (
            median(durs("derived_cache.sybil_build")) / 1e6, "ms"),
        "derived_cache.community_build_ms": (
            median(durs("derived_cache.community_build")) / 1e6, "ms"),
        "derived_cache.builds": (counters["derived_builds"], "count"),
        "derived_cache.hit_ratio": (
            counters["derived_hits"] /
            max(1, counters["derived_hits"] + counters["derived_builds"]),
            "ratio"),
    }
    for kind in ("linkrec", "attrs", "ego", "recip", "sybil", "community"):
        name = f"query_engine.execute.{kind}"
        m[f"query_engine.execute_us.{kind}"] = (
            total(name) / max(1, items(name)) / 1e3, "us")
    # A batch's engine time: its execute slices (probe items are batches
    # of one and are left out).
    batch_ns, batch_items = {}, {}
    for s in spans:
        if s["name"].startswith("query_engine.execute."):
            batch_ns[s["request"]] = batch_ns.get(s["request"], 0) + s["dur"]
            batch_items[s["request"]] = batch_items.get(s["request"], 0) + \
                s["items"]
    m["query_engine.batch_ms"] = (median(
        [ns for r, ns in batch_ns.items() if batch_items[r] > 1]) / 1e6, "ms")
    m["query.parse_us"] = (total("query.parse") / max(1, items("query.parse"))
                           / 1e3, "us")
    m["query.render_us"] = (total("query.render") /
                            max(1, items("query.render")) / 1e3, "us")
    m["query.unknown_share"] = (sock["unknown_share"], "ratio")
    batches, mean_batch = server_batches(sock)
    m["server.batches"] = (batches, "count")
    m["server.mean_batch_size"] = (mean_batch, "count")

    # In-process cost of each probe item: every span of its request id.
    per_item = {}
    for s in spans:
        if s["request"] >= counters["probe_first_request"]:
            per_item[s["request"]] = per_item.get(s["request"], 0) + s["dur"]
    probe = probe_run(sock)
    warm = probe["warmup"]
    item_ns = [per_item[r] for r in sorted(per_item)][warm:]
    probe_ns = probe["samples_ns"]
    m["server.frontend_us"] = ((median(probe_ns) - median(item_ns)) / 1e3, "us")
    bulk = bulk_runs(sock)
    m["thread_pool.busy_share"] = (
        sum(b["server_cpu_s"] for b in bulk) /
        (sum(b["elapsed_s"] for b in bulk) * SAN_THREADS), "ratio")
    m["client.cpu_share"] = (
        sum(stats["client_cpu_s"] for _, stats in sock["runs"]) /
        sum(stats["elapsed_s"] for _, stats in sock["runs"]), "ratio")
    m["probe.turnaround_p99_us"] = (percentile(probe_ns, 0.99) / 1e3, "us")
    m["host.calibration_ms"] = (median([stats["calibration_s"] for _, stats
                                        in sock["runs"]]) * 1e3, "ms")
    m["trace.overhead_ratio"] = (
        (counters["traced_s"] - counters["load_s"]) / counters["untraced_s"],
        "ratio")
    covered = sum(s["self"] for s in spans[1:])
    m["trace.coverage"] = (covered / root, "ratio")
    for layer in LAYERS:
        m[f"trace.share.{layer}"] = (total(layer + ".") / root, "ratio")
    return m


# ------------------------------------------------------------------ env

def environment(workload, seed, scale, san, out_dir, seconds, trace):
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = run_checked(["git", "-C", str(ROOT), "rev-parse",
                                  "HEAD"]).stdout.strip()
        except (BenchError, OSError):
            pass
    digest = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*")) +
                       [ROOT / "tools" / "san_tool.cpp",
                        ROOT / "CMakeLists.txt"]):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    help_text = run_checked([str(SAN_TOOL), "help"]).stdout
    simd = re.search(r"kernel dispatch: (\S+) active", help_text)
    with open(san) as f:
        f.readline()
        nodes = int(f.readline().split()[1])
    lines = {p: sum(1 for _ in open(out_dir / f"{p}.txt"))
             for p in ("bulk", "probe")}
    return {"commit": commit, "source_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "SAN_THREADS": SAN_THREADS,
            "simd": simd.group(1) if simd else "unknown",
            "workload": workload, "seed": seed, "scale": scale,
            "san": san.name, "san_seed": SAN_SEED, "social_nodes": nodes,
            "trace_lines": lines, "listen_flags": LISTEN_FLAGS,
            "seconds": seconds, "trace": trace}


# ----------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="input size; `small` is the self-test's")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: alter one reference line, which "
                             "must count as a failure")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # SIGTERM unwinds like an error, so every server and client this run
    # started is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    try:
        nproc = os.cpu_count() or 1
        if SAN_THREADS + 1 > nproc:
            raise BenchError(f"{SAN_THREADS} server lanes + 1 client thread "
                             f"exceed nproc={nproc}")
        build()
        san, out_dir, phases = prepare(args.workload, args.seed, args.scale)
        run_dir = BUILD / "runs" / f"{args.workload}-seed{args.seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        env = environment(args.workload, args.seed, args.scale, san, out_dir,
                          args.seconds, args.trace)
        log("env " + json.dumps(env))
        # setup_s is reported with --trace 0 only; a traced run times just
        # the phases' own start-ups.
        sock = socket_run(args.workload, args.seconds, san, out_dir, phases,
                          run_dir, 0 if args.trace else EXTRA_SETUPS)
        env["bulk_depth"] = bulk_runs(sock)[0]["bulk_depth"]
        log("calibration_ms " + json.dumps(
            [round(stats["calibration_s"] * 1e3, 3)
             for _, stats in sock["runs"]]))
        verify(sock, out_dir,
               reference(args.workload, san, out_dir), args.corrupt_reference)
        if server_batches(sock)[1] <= 1.0:
            raise BenchError("bulk mean batch size <= 1: no pipelining")
        if args.trace:
            spans, counters = traced_replay(args.workload, san, out_dir, sock,
                                            run_dir)
            metrics = per_layer(sock, spans, counters)
            for warning in trace_warnings(args.workload, metrics):
                log(f"warning: {warning}")
        else:
            metrics = end_to_end(sock)
    except (BenchError, subprocess.TimeoutExpired, OSError) as error:
        log(f"error: {error}")
        return 1

    result = {"correct": sock["failed"] == 0, "attempted": sock["attempted"],
              "failed": sock["failed"],
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    raw = {"setups_s": sock["setups"],
           "runs": [[phase, {k: v for k, v in stats.items()
                             if k not in ("responses", "samples_ns")}]
                    for phase, stats in sock["runs"]]}
    (run_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "raw": raw, "result": result}, indent=1)
        + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
