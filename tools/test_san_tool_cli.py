#!/usr/bin/env python3
"""CLI contract tests for san_tool, registered with CTest (san_tool_cli).

Asserts the exit-code contract (0 success / help, 1 runtime failure,
2 usage error), the usage text on bad invocations, and the help output of
every subcommand — the behaviors that until now were only exercised by
hand. Stdlib only; runs a real end-to-end generate -> snapshots -> serve
-> live pipeline on a tiny network in a temp directory.

Usage: tools/test_san_tool_cli.py /path/to/san_tool
"""

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

FAILURES = []
SAN_TOOL = None

SUBCOMMANDS = [
    "generate", "measure", "snapshots", "crawl", "communities", "live",
    "serve", "listen", "genload",
]


def run(*args, timeout=300):
    """Run san_tool; a run past `timeout` is killed and reported as exit
    code None so the check fails instead of the whole script."""
    try:
        return subprocess.run([SAN_TOOL, *args], capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return subprocess.CompletedProcess(
            args, None, "", f"timed out after {timeout} s")


def check(name, condition, detail=""):
    if condition:
        print(f"ok       {name}")
    else:
        FAILURES.append(name)
        print(f"FAIL     {name}  {detail}")


def expect(name, result, code, streams=()):
    """Exit code matches and every needle appears on stdout+stderr."""
    blob = result.stdout + result.stderr
    detail = (f"exit={result.returncode} (want {code}) "
              f"stderr={result.stderr[:200]!r}")
    ok = result.returncode == code
    for needle in streams:
        if needle not in blob:
            ok = False
            detail += f" missing {needle!r}"
    check(name, ok, detail)


@contextlib.contextmanager
def listen_server(*args, env=None):
    """Spawn `san_tool listen`, scrape the bound port from the first
    stderr line, and guarantee a SIGTERM + wait on the way out. Yields
    (proc, port); port is None when the server failed to start."""
    proc = subprocess.Popen([SAN_TOOL, "listen", *args],
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=env)
    banner = proc.stderr.readline().decode(errors="replace")
    port = None
    if banner.startswith("listening on 127.0.0.1:"):
        port = int(banner.rsplit(":", 1)[1])
    try:
        yield proc, port
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stderr.close()


def sock_exchange(port, payload, chunks=None, pause=0.0):
    """One protocol round trip: send, half-close, read to EOF."""
    with socket.create_connection(("127.0.0.1", port), timeout=120) as s:
        s.settimeout(120)
        for piece in (chunks if chunks is not None else [payload]):
            s.sendall(piece)
            if pause:
                time.sleep(pause)
        s.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            got = s.recv(65536)
            if not got:
                return data
            data += got


def test_help_pages():
    expect("no args -> usage, exit 2", run(), 2, ["usage:", "exit codes"])
    top = run("help")
    expect("help -> exit 0", top, 0, ["subcommands:"])
    for name in SUBCOMMANDS:
        check(f"help lists {name}", f"\n  {name}" in top.stdout)
        expect(f"help {name}", run("help", name), 0, [name, "usage:"])
        expect(f"{name} --help", run(name, "--help"), 0, [name, "usage:"])
    expect("help for unknown topic -> exit 2", run("help", "warp"), 2,
           ["unknown command"])
    expect("unknown subcommand -> exit 2", run("warp"), 2,
           ["unknown command", "usage:"])


def test_usage_errors():
    for name in ["measure", "snapshots", "crawl", "communities", "serve",
                 "live"]:
        expect(f"{name} without FILE -> exit 2", run(name), 2,
               ["positional FILE"])
    expect("generate without -o -> exit 2", run("generate"), 2,
           ["requires -o"])
    expect("generate bad --kind -> exit 2",
           run("generate", "--kind", "warp", "-o", "x.san"), 2,
           ["unknown --kind"])
    expect("generate bad --nodes -> exit 2",
           run("generate", "--nodes", "12x", "-o", "x.san"), 2,
           ["invalid --nodes"])
    expect("snapshots bad --step -> exit 2",
           run("snapshots", "f.san", "--step", "0"), 2, ["invalid --step"])
    expect("serve without --workload -> exit 2", run("serve", "f.san"), 2,
           ["requires --workload"])
    expect("serve bad --cache -> exit 2",
           run("serve", "f.san", "--workload", "w", "--cache", "0"), 2,
           ["invalid --cache"])
    expect("live without --workload -> exit 2", run("live", "f.san"), 2,
           ["requires --workload"])
    expect("live bad --start -> exit 2",
           run("live", "f.san", "--workload", "w", "--start", "-1"), 2,
           ["invalid --start"])
    for name in ["serve", "live"]:
        expect(f"{name} zero --stats-every -> exit 2",
               run(name, "f.san", "--workload", "w", "--stats-every", "0"),
               2, ["invalid --stats-every"])
        expect(f"{name} garbage --stats-every -> exit 2",
               run(name, "f.san", "--workload", "w", "--stats-every", "2x"),
               2, ["invalid --stats-every"])
        expect(f"{name} unwritable --stats-json -> exit 2",
               run(name, "f.san", "--workload", "w", "--stats-json",
                   "/nonexistent-dir/stats.json"), 2, ["unwritable"])
        expect(f"{name} unwritable --trace -> exit 2",
               run(name, "f.san", "--workload", "w", "--trace",
                   "/nonexistent-dir/trace.json"), 2, ["unwritable"])


def test_runtime_failures(tmp):
    expect("measure missing file -> exit 1", run("measure", "/nonexistent"),
           1, ["error:"])
    bad = os.path.join(tmp, "bad.san")
    with open(bad, "w", encoding="utf-8") as f:
        f.write("this is not a SANv1 file\n")
    expect("measure malformed file -> exit 1", run("measure", bad), 1,
           ["error:"])


def test_end_to_end(tmp):
    san = os.path.join(tmp, "tiny.san")
    expect("generate gplus -> exit 0",
           run("generate", "--kind", "gplus", "--nodes", "1500", "--seed",
               "9", "-o", san), 0, ["wrote"])
    check("generate wrote the file", os.path.exists(san))

    expect("measure -> exit 0", run("measure", san, "--day", "50"), 0,
           ["social nodes:"])
    snap = run("snapshots", san, "--step", "20")
    expect("snapshots -> exit 0", snap, 0, ["day", "delta-advanced"])
    expect("snapshots --step 7 (README) -> exit 0",
           run("snapshots", san, "--step", "7"), 0, ["14 snapshots"])
    # A step finer than the file's distinct event times can back is
    # refused up front instead of growing the day grid without bound.
    for step in ("1e-300", "1e-9"):
        expect(f"snapshots --step {step} -> exit 2 within 5 s",
               run("snapshots", san, "--step", step, timeout=5), 2,
               [f"invalid --step '{step}'"])

    workload = os.path.join(tmp, "w.txt")
    with open(workload, "w", encoding="utf-8") as f:
        f.write("# queries\nego 50 3\nlinkrec now 3 5\nrecip 98 3 7\n")
    serve = run("serve", san, "--workload", workload)
    expect("serve -> exit 0", serve, 0, ["queries/s"])
    lines = serve.stdout.strip().splitlines()
    check("serve printed one line per query", len(lines) == 3,
          f"got {len(lines)}")
    check("serve renders the now token",
          any(line.startswith("linkrec t=now") for line in lines))

    live_workload = os.path.join(tmp, "wl.txt")
    with open(live_workload, "w", encoding="utf-8") as f:
        f.write("ego 10 3\ningest 55\nego now 3\ningest 99\nego now 3\n")
    live = run("live", san, "--workload", live_workload, "--start", "10")
    expect("live -> exit 0", live, 0, ["live tip", "events/s"])
    live_lines = live.stdout.strip().splitlines()
    check("live printed one line per query", len(live_lines) == 3,
          f"got {len(live_lines)}")
    check("live tip queries render as now",
          live_lines[1].startswith("ego t=now") and
          live_lines[2].startswith("ego t=now"))
    check("live tip advanced between epochs",
          live_lines[1] != live_lines[2], live_lines[1])

    # The same serve workload with an ingest line must fail the load.
    with open(workload, "a", encoding="utf-8") as f:
        f.write("ingest 99\n")
    expect("serve rejects ingest lines -> exit 1",
           run("serve", san, "--workload", workload), 1, ["ingest lines"])
    # Non-advancing ingest tips are a runtime failure, not a crash.
    with open(live_workload, "w", encoding="utf-8") as f:
        f.write("ingest 50\ningest 50\n")
    expect("live rejects non-advancing tips -> exit 1",
           run("live", san, "--workload", live_workload, "--start", "10"),
           1, ["strictly"])


def test_strict_flags(tmp):
    """Each subcommand accepts exactly the flags its synopsis names, each
    followed by a value. The inputs are real, so a parser that skipped a
    bad flag would run to exit 0 (or, for listen, serve until killed)."""
    san = os.path.join(tmp, "flags.san")
    expect("flags: generate -> exit 0",
           run("generate", "--kind", "gplus", "--nodes", "900", "--seed",
               "4", "-o", san), 0, ["wrote"])
    workload = os.path.join(tmp, "flags_wl.txt")
    with open(workload, "w", encoding="utf-8") as f:
        f.write("ego 10 3\ningest 55\nego now 3\n")
    live = ["live", san, "--workload", workload]

    expect("live misspelled flag -> exit 2",
           run(*live, "--start", "10", "--cahce", "0"), 2,
           ["unknown flag '--cahce' for live", "usage:"])
    expect("listen flag of another subcommand -> exit 2",
           run("listen", san, "--workload", workload, timeout=30), 2,
           ["unknown flag '--workload' for listen"])
    # Every ingest publishes: the old epoch-cadence flag is gone.
    expect("live --publish-every -> exit 2",
           run(*live, "--publish-every", "2"), 2,
           ["unknown flag '--publish-every'", "usage:"])
    expect("listen --publish-every -> exit 2",
           run("listen", san, "--start", "10", "--publish-every", "2",
               timeout=30), 2, ["unknown flag '--publish-every'"])
    expect("measure stray argument -> exit 2",
           run("measure", san, "extra"), 2,
           ["unexpected argument 'extra' for measure"])

    expect("live trailing --start -> exit 2", run(*live, "--start"), 2,
           ["--start needs a value", "usage:"])
    expect("listen trailing --start -> exit 2",
           run("listen", san, "--start", timeout=30), 2,
           ["--start needs a value"])
    expect("live --start followed by a flag -> exit 2",
           run(*live, "--start", "--cache", "4"), 2,
           ["--start needs a value"])
    expect("generate trailing -o -> exit 2",
           run("generate", "--kind", "gplus", "-o"), 2, ["-o needs a value"])

    # A repeated flag is refused, not resolved to its first value.
    expect("generate repeated --nodes -> exit 2",
           run("generate", "--nodes", "50", "--nodes", "300", "-o",
               os.path.join(tmp, "twice.san")), 2,
           ["--nodes given twice", "usage:"])
    check("generate repeated --nodes wrote nothing",
          not os.path.exists(os.path.join(tmp, "twice.san")))
    expect("live repeated --start -> exit 2",
           run(*live, "--start", "10", "--cache", "4", "--start", "20"), 2,
           ["--start given twice"])
    expect("listen repeated --port -> exit 2",
           run("listen", san, "--port", "0", "--port", "0", timeout=30), 2,
           ["--port given twice"])


def test_genload_usage_errors():
    expect("genload without -o -> exit 2", run("genload"), 2,
           ["requires -o"])
    expect("genload garbage --zipf -> exit 2",
           run("genload", "--zipf", "hot", "-o", "w.txt"), 2,
           ["invalid --zipf"])
    expect("genload negative --zipf -> exit 2",
           run("genload", "--zipf", "-1", "-o", "w.txt"), 2,
           ["invalid --zipf"])
    expect("genload unknown kind in --mix -> exit 2",
           run("genload", "--mix", "warp:1", "-o", "w.txt"), 2,
           ["invalid --mix"])
    expect("genload malformed --mix -> exit 2",
           run("genload", "--mix", "linkrec", "-o", "w.txt"), 2,
           ["invalid --mix"])
    expect("genload bad --arrival -> exit 2",
           run("genload", "--arrival", "poisson", "-o", "w.txt"), 2,
           ["invalid --arrival"])
    expect("genload garbage --queries -> exit 2",
           run("genload", "--queries", "12x", "-o", "w.txt"), 2,
           ["invalid --queries"])
    expect("genload out-of-range --ingest -> exit 2",
           run("genload", "--ingest", "1.5", "-o", "w.txt"), 2,
           ["invalid --ingest"])
    expect("genload unwritable output -> exit 2",
           run("genload", "-o", "/nonexistent-dir/w.txt"), 2,
           ["unwritable"])


def test_genload_pipeline(tmp):
    """genload is seed-reproducible and its output drives serve and live
    through the unchanged workload grammar."""
    san = os.path.join(tmp, "scen.san")
    expect("genload: generate net -> exit 0",
           run("generate", "--kind", "gplus", "--nodes", "1500", "--seed",
               "9", "-o", san), 0, ["wrote"])

    w1 = os.path.join(tmp, "scen_a.txt")
    w2 = os.path.join(tmp, "scen_b.txt")
    args = ["--queries", "120", "--nodes", "1500", "--seed", "7",
            "--zipf", "1.0", "--arrival", "bursty"]
    expect("genload -> exit 0", run("genload", *args, "-o", w1), 0,
           ["wrote", "queries"])
    expect("genload again -> exit 0", run("genload", *args, "-o", w2), 0)
    with open(w1, "rb") as f:
        bytes1 = f.read()
    with open(w2, "rb") as f:
        bytes2 = f.read()
    check("genload same seed -> byte-identical files", bytes1 == bytes2)
    other = run("genload", "--queries", "120", "--nodes", "1500", "--seed",
                "8", "-o", w2)
    expect("genload other seed -> exit 0", other, 0)
    with open(w2, "rb") as f:
        check("genload different seed -> different file",
              f.read() != bytes1)

    serve = run("serve", san, "--workload", w1)
    expect("genload -> serve consumes unchanged", serve, 0, ["queries/s"])
    check("serve answered every generated query",
          len(serve.stdout.strip().splitlines()) == 120,
          f"got {len(serve.stdout.strip().splitlines())}")

    wl = os.path.join(tmp, "scen_live.txt")
    expect("genload --ingest -> exit 0",
           run("genload", "--queries", "120", "--nodes", "1500", "--seed",
               "7", "--ingest", "0.3", "-o", wl), 0, ["ingest lines"])
    live = run("live", san, "--workload", wl)
    expect("genload --ingest -> live consumes unchanged", live, 0,
           ["live tip", "events/s"])


def test_new_query_kinds(tmp):
    """sybil / community / influence serve end-to-end with their
    documented result tokens, and malformed lines fail naming the token."""
    san = os.path.join(tmp, "kinds.san")
    expect("new kinds: generate -> exit 0",
           run("generate", "--kind", "gplus", "--nodes", "1200", "--seed",
               "3", "-o", san), 0, ["wrote"])
    workload = os.path.join(tmp, "kinds_wl.txt")
    with open(workload, "w", encoding="utf-8") as f:
        f.write("sybil 98 3\ncommunity now 3\ninfluence 98 2\n"
                "influence now 2 3 9\n")
    serve = run("serve", san, "--workload", workload)
    expect("new kinds serve -> exit 0", serve, 0, ["queries/s"])
    lines = serve.stdout.strip().splitlines()
    check("new kinds: one line per query", len(lines) == 4,
          f"got {len(lines)}")
    if len(lines) == 4:
        check("sybil line renders region/attack/sybils",
              lines[0].startswith("sybil t=98 u=3 region=")
              and " attack=" in lines[0] and " sybils=" in lines[0],
              lines[0])
        check("community line renders label/size/of",
              lines[1].startswith("community t=now u=3 label=")
              and " size=" in lines[1] and " of=" in lines[1], lines[1])
        check("influence line renders picks and coverage",
              lines[2].startswith("influence t=98 k=2 s=-")
              and " covered=" in lines[2], lines[2])
        check("influence seeds echo in the query header",
              lines[3].startswith("influence t=now k=2 s=3,9"), lines[3])

    # Malformed K / seed lists fail the workload load (the established
    # runtime-failure contract) and the diagnostic names the token.
    with open(workload, "w", encoding="utf-8") as f:
        f.write("influence 98 2 5x\n")
    expect("malformed seed -> exit 1 naming token",
           run("serve", san, "--workload", workload), 1, ["'5x'", "line 1"])
    with open(workload, "w", encoding="utf-8") as f:
        f.write("sybil 98 3 9\n")
    expect("trailing token -> exit 1 naming token",
           run("serve", san, "--workload", workload), 1, ["'9'"])


def test_listen_usage_errors():
    expect("listen without FILE -> exit 2", run("listen"), 2,
           ["positional FILE"])
    expect("listen bad --port -> exit 2",
           run("listen", "f.san", "--port", "70000"), 2, ["invalid --port"])
    expect("listen garbage --max-delay-us -> exit 2",
           run("listen", "f.san", "--max-delay-us", "2x"), 2,
           ["invalid --max-delay-us"])
    expect("listen zero --batch -> exit 2",
           run("listen", "f.san", "--batch", "0"), 2, ["invalid --batch"])
    expect("listen bad --start -> exit 2",
           run("listen", "f.san", "--start", "-1"), 2, ["invalid --start"])
    expect("listen unwritable --stats-json -> exit 2",
           run("listen", "f.san", "--stats-json",
               "/nonexistent-dir/stats.json"), 2, ["unwritable"])


def test_listen_byte_identity(tmp):
    """The acceptance gate: a genload scenario replayed over the socket
    produces byte-identical result lines to `serve`/`live` file replay, at
    SAN_THREADS=1/4 and at two --max-delay-us settings."""
    san = os.path.join(tmp, "lsn.san")
    expect("listen: generate net -> exit 0",
           run("generate", "--kind", "gplus", "--nodes", "1500", "--seed",
               "9", "-o", san), 0, ["wrote"])
    static_wl = os.path.join(tmp, "lsn_static.txt")
    live_wl = os.path.join(tmp, "lsn_live.txt")
    expect("listen: genload static -> exit 0",
           run("genload", "--queries", "120", "--nodes", "1500", "--seed",
               "7", "-o", static_wl), 0)
    expect("listen: genload live -> exit 0",
           run("genload", "--queries", "120", "--nodes", "1500", "--seed",
               "11", "--ingest", "0.2", "-o", live_wl), 0)
    with open(static_wl, "rb") as f:
        static_bytes = f.read()
    with open(live_wl, "rb") as f:
        live_bytes = f.read()

    offline_static = run("serve", san, "--workload", static_wl)
    expect("listen: offline serve reference -> exit 0", offline_static, 0)
    offline_live = run("live", san, "--workload", live_wl, "--start", "0")
    expect("listen: offline live reference -> exit 0", offline_live, 0)

    for threads in ("1", "4"):
        env = dict(os.environ, SAN_THREADS=threads)
        for delay in ("0", "2000"):
            with listen_server(san, "--max-delay-us", delay,
                               env=env) as (proc, port):
                check(f"listen starts (threads={threads} delay={delay})",
                      port is not None)
                if port is None:
                    continue
                got = sock_exchange(port, static_bytes)
            check(f"socket == serve (threads={threads} delay={delay})",
                  got.decode() == offline_static.stdout,
                  f"got {len(got)}B want {len(offline_static.stdout)}B")
            check(f"listen drains clean (threads={threads} delay={delay})",
                  proc.returncode == 0, f"exit={proc.returncode}")

        with listen_server(san, "--start", "0", "--max-delay-us", "500",
                           env=env) as (proc, port):
            check(f"listen --start 0 starts (threads={threads})",
                  port is not None)
            if port is None:
                continue
            got = sock_exchange(port, live_bytes)
        check(f"socket == live (threads={threads})",
              got.decode() == offline_live.stdout,
              f"got {len(got)}B want {len(offline_live.stdout)}B")


def test_listen_protocol_edges(tmp):
    """Edge rules over the wire: malformed tokens echo the file-replay
    line-numbered diagnostics, NUL bytes, partial sends, oversize."""
    san = os.path.join(tmp, "edge.san")
    expect("edges: generate net -> exit 0",
           run("generate", "--kind", "gplus", "--nodes", "1200", "--seed",
               "3", "-o", san), 0, ["wrote"])

    # File replay's diagnostic for the same stream, for comparison.
    bad_wl = os.path.join(tmp, "edge_bad.txt")
    with open(bad_wl, "w", encoding="utf-8") as f:
        f.write("ego 5x 3\n")
    offline = run("serve", san, "--workload", bad_wl)
    expect("edges: file replay rejects line 1 -> exit 1", offline, 1,
           ["workload line 1", "'5x'"])

    with listen_server(san) as (proc, port):
        check("edges: listen starts", port is not None)
        if port is None:
            return
        # Malformed time on line 1; comment + blank lines keep counting;
        # line 4 is valid and still served — an ERR poisons only its line.
        got = sock_exchange(
            port, b"ego 5x 3\n# comment\n\nego 50 3\n").decode()
        lines = got.splitlines()
        check("edges: two response lines", len(lines) == 2, repr(got))
        if len(lines) == 2:
            check("edges: ERR echoes file replay's line-numbered message",
                  lines[0].startswith("ERR workload line 1:")
                  and "'5x'" in lines[0]
                  and lines[0][len("ERR "):] in offline.stderr,
                  f"{lines[0]!r} vs {offline.stderr!r}")
            check("edges: valid line after ERR still served",
                  lines[1].startswith("ego t=50"), lines[1])

        # A NUL inside the kind token: same path as file replay (the
        # C-string diagnostic truncates at the NUL on both sides).
        got = sock_exchange(port, b"ego\x00x 50 3\n").decode()
        check("edges: NUL byte -> ERR unknown kind",
              got.startswith("ERR workload line 1: unknown query kind"),
              repr(got))

        # One query split across four sends reassembles into one line.
        got = sock_exchange(port, None,
                            chunks=[b"eg", b"o 5", b"0 ", b"3\n"],
                            pause=0.02).decode()
        check("edges: partial sends reassemble",
              got.startswith("ego t=50") and got.count("\n") == 1,
              repr(got))

        # ingest without a live binding rejects the line, not the server.
        got = sock_exchange(port, b"ingest 50\nego 50 3\n").decode()
        check("edges: ingest without live binding -> ERR",
              got.startswith("ERR workload line 1:")
              and "live binding" in got, repr(got))

        # An influence k past the cap rejects its line up front (greedy
        # cost grows with k); the next line is answered normally.
        got = sock_exchange(
            port, b"influence now 65\ninfluence now 2\n").decode()
        lines = got.splitlines()
        check("edges: influence k over the cap -> ERR naming the limit",
              len(lines) == 2
              and lines[0] == ("ERR workload line 1: "
                               "k '65' out of range (1..64)"), repr(got))
        check("edges: line after over-cap influence still served",
              len(lines) == 2 and lines[1].startswith("influence t=now k=2"),
              repr(got))

    with listen_server(san, "--max-line-bytes", "256") as (proc, port):
        check("edges: small-line listen starts", port is not None)
        if port is not None:
            got = sock_exchange(port, b"x" * 1000).decode()
            check("edges: oversized line -> ERR + disconnect",
                  got == "ERR workload line 1: line exceeds 256 bytes\n",
                  repr(got))


def test_listen_drain(tmp):
    """SIGTERM with a client still connected: every accepted query is
    served before the connection closes, exit 0."""
    san = os.path.join(tmp, "drain.san")
    expect("drain: generate net -> exit 0",
           run("generate", "--kind", "gplus", "--nodes", "1200", "--seed",
               "3", "-o", san), 0, ["wrote"])
    wl = os.path.join(tmp, "drain_wl.txt")
    with open(wl, "w", encoding="utf-8") as f:
        f.write("ego 50 3\nlinkrec now 3 5\nrecip 98 3 7\n")
    offline = run("serve", san, "--workload", wl)
    expect("drain: offline reference -> exit 0", offline, 0)

    # A 60 s flush deadline and a huge batch: only the idle loop or the
    # drain can flush, and the drain must lose nothing either way. The
    # in-process test_server drain test pins the case where the queries
    # are still unread when the drain begins.
    with listen_server(san, "--max-delay-us", "60000000", "--batch",
                       "1048576") as (proc, port):
        check("drain: listen starts", port is not None)
        if port is None:
            return
        with socket.create_connection(("127.0.0.1", port),
                                      timeout=120) as s:
            s.settimeout(120)
            with open(wl, "rb") as f:
                s.sendall(f.read())
            time.sleep(0.3)  # let the server admit the queries
            proc.send_signal(signal.SIGTERM)
            data = b""
            while True:
                got = s.recv(65536)
                if not got:
                    break
                data += got
        check("drain: all pending queries answered",
              data.decode() == offline.stdout,
              f"got {data!r} want {offline.stdout!r}")
        stderr = proc.stderr.read().decode()
    check("drain: exit 0 after SIGTERM", proc.returncode == 0,
          f"exit={proc.returncode}")
    check("drain: final stats line printed", "drained:" in stderr, stderr)


def test_listen_stats_json(tmp):
    """listen --stats-json after a SIGTERM drain: the static binding
    writes the cache/serve/server/simd schema and no live keys; --start 0
    adds the live ingest keys."""
    san = os.path.join(tmp, "lstats.san")
    expect("listen stats: generate net -> exit 0",
           run("generate", "--kind", "gplus", "--nodes", "900", "--seed",
               "4", "-o", san), 0, ["wrote"])
    common = ["cache.hits", "cache.misses", "serve.batch.p99_us",
              "serve.query.ego.count", "server.accepted", "server.queries",
              "server.turnaround.p50_us", "simd.active_level"]
    live_keys = ["live.epochs", "live.absorb.p50_us"]
    for name, extra, payload, required in (
            ("static", [], b"ego 50 3\nlinkrec now 3 5\n", common),
            ("--start 0", ["--start", "0"],
             b"ego 10 3\ningest 55\nego now 3\n", common + live_keys)):
        stats_path = os.path.join(tmp, f"listen_stats_{len(extra)}.json")
        with listen_server(san, "--stats-json", stats_path,
                           *extra) as (proc, port):
            check(f"listen stats ({name}): starts", port is not None)
            if port is None:
                continue
            got = sock_exchange(port, payload).decode()
            check(f"listen stats ({name}): answered",
                  got.count("\n") == 2 and "ERR" not in got, repr(got))
        check(f"listen stats ({name}): exit 0 after SIGTERM",
              proc.returncode == 0, f"exit={proc.returncode}")
        try:
            with open(stats_path, encoding="utf-8") as f:
                stats = json.load(f)
        except (OSError, ValueError) as error:
            check(f"listen stats ({name}): JSON parses", False, str(error))
            continue
        missing = [key for key in required if key not in stats]
        check(f"listen stats ({name}): documented keys", not missing,
              f"missing {missing}")
        check(f"listen stats ({name}): values are numbers",
              all(isinstance(v, (int, float)) for v in stats.values()))
        if not extra:
            check("listen stats (static): no live keys",
                  not any(key.startswith("live.") for key in stats))
        elif not missing:
            check("listen stats (--start 0): ingest published an epoch",
                  stats["live.epochs"] >= 2, str(stats["live.epochs"]))


def test_export_write_failures(tmp):
    """Satellite checks: full-disk exports and a closed stdout pipe are
    exit-1 failures that name the sink, never silent truncation."""
    san = os.path.join(tmp, "wf.san")
    expect("writefail: generate net -> exit 0",
           run("generate", "--kind", "gplus", "--nodes", "900", "--seed",
               "4", "-o", san), 0, ["wrote"])
    wl = os.path.join(tmp, "wf_wl.txt")
    with open(wl, "w", encoding="utf-8") as f:
        f.write("ego 10 3\nlinkrec 50 4 5\n")

    if os.path.exists("/dev/full"):
        expect("writefail: --stats-json /dev/full -> exit 1 naming path",
               run("serve", san, "--workload", wl, "--stats-json",
                   "/dev/full"), 1,
               ["short write to stats JSON file '/dev/full'"])
        expect("writefail: --trace /dev/full -> exit 1 naming path",
               run("serve", san, "--workload", wl, "--trace", "/dev/full"),
               1, ["short write to trace file '/dev/full'"])
        expect("writefail: generate -o /dev/full -> exit 1 naming path",
               run("generate", "--kind", "gplus", "--nodes", "900", "-o",
                   "/dev/full"), 1, ["short write to /dev/full"])
    else:
        print("skip     /dev/full checks (no /dev/full on this host)")

    # stdout wired to a pipe whose read end is already gone: EPIPE must
    # surface as exit 1 with a diagnostic, not a silent half-result
    # (san_tool ignores SIGPIPE so the write error is reportable).
    for name, extra in (("serve", []), ("live", ["--start", "50"])):
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            result = subprocess.run(
                [SAN_TOOL, name, san, "--workload", wl, *extra],
                stdout=write_fd, stderr=subprocess.PIPE, text=True,
                timeout=300)
        finally:
            os.close(write_fd)
        check(f"writefail: {name} broken stdout -> exit 1 + diagnostic",
              result.returncode == 1
              and "short write to stdout" in result.stderr,
              f"exit={result.returncode} stderr={result.stderr[:200]!r}")


def test_telemetry(tmp):
    """--stats-json/--trace/--stats-every: valid artifacts, identical
    stdout, the documented key schema."""
    san = os.path.join(tmp, "telem.san")
    expect("telemetry: generate -> exit 0",
           run("generate", "--kind", "gplus", "--nodes", "900", "--seed",
               "4", "-o", san), 0, ["wrote"])
    workload = os.path.join(tmp, "telem_wl.txt")
    with open(workload, "w", encoding="utf-8") as f:
        f.write("ego 10 3\nlinkrec 10 4 5\nattrs 10 5 3\nrecip 10 3 7\n"
                "ingest 55\nego now 3\nlinkrec now 4 5\n"
                "ingest 99\nattrs now 5 3\nrecip now 3 7\n")

    plain = run("live", san, "--workload", workload, "--start", "10")
    expect("telemetry: untelemetered live -> exit 0", plain, 0)

    stats_path = os.path.join(tmp, "stats.json")
    trace_path = os.path.join(tmp, "trace.json")
    telem = run("live", san, "--workload", workload, "--start", "10",
                "--stats-json", stats_path, "--trace", trace_path,
                "--stats-every", "1")
    expect("telemetry: instrumented live -> exit 0", telem, 0,
           ["telemetry[batch "])
    check("telemetry is observation-only (stdout identical)",
          telem.stdout == plain.stdout,
          f"telem={telem.stdout!r} plain={plain.stdout!r}")

    with open(stats_path, encoding="utf-8") as f:
        stats = json.load(f)
    required = (["cache.hits", "cache.misses", "cache.coalesced",
                 "live.ingest_to_publish.p50_us", "live.epochs",
                 "live.absorb.p50_us", "live.advance.p50_us",
                 "live.publish.p50_us", "live.epoch_buffers",
                 "serve.batch.p99_us", "simd.active_level"]
                + [f"serve.query.{kind}.{pct}"
                   for kind in ("linkrec", "attrs", "ego", "recip")
                   for pct in ("count", "p50_us", "p99_us", "p999_us")])
    missing = [key for key in required if key not in stats]
    check("stats JSON has the documented keys", not missing,
          f"missing {missing}")
    check("stats JSON values are numbers",
          all(isinstance(v, (int, float)) for v in stats.values()))
    if not missing:
        check("every query kind recorded a latency",
              all(stats[f"serve.query.{k}.count"] >= 1
                  for k in ("linkrec", "attrs", "ego", "recip")),
              str({k: stats[f"serve.query.{k}.count"]
                   for k in ("linkrec", "attrs", "ego", "recip")}))
        check("epochs advanced past the seed epoch",
              stats["live.epochs"] >= 2, str(stats["live.epochs"]))

    with open(trace_path, encoding="utf-8") as f:
        trace = json.load(f)
    events = trace.get("traceEvents")
    check("trace JSON has a traceEvents list",
          isinstance(events, list) and len(events) > 0)
    if isinstance(events, list) and events:
        check("trace events carry name/ph/ts/dur",
              all(e.get("ph") == "X" and "name" in e and "ts" in e
                  and "dur" in e for e in events))
        names = {e["name"] for e in events}
        check("trace includes serve and ingest spans",
              "serve.run_batch" in names and "live.advance" in names,
              str(sorted(names)))

    # serve takes the same flags; --stats-every alone must not change
    # stdout either.
    serve_wl = os.path.join(tmp, "telem_serve_wl.txt")
    with open(serve_wl, "w", encoding="utf-8") as f:
        f.write("ego 10 3\nlinkrec 50 4 5\nattrs 99 5 3\n")
    serve_plain = run("serve", san, "--workload", serve_wl)
    serve_stats = os.path.join(tmp, "serve_stats.json")
    serve_telem = run("serve", san, "--workload", serve_wl, "--stats-json",
                      serve_stats, "--stats-every", "1")
    expect("telemetry: instrumented serve -> exit 0", serve_telem, 0,
           ["telemetry[batch "])
    check("serve telemetry is observation-only",
          serve_telem.stdout == serve_plain.stdout)
    with open(serve_stats, encoding="utf-8") as f:
        check("serve stats JSON parses with query percentiles",
              "serve.query.ego.p50_us" in json.load(f))


def test_derived_build_stats(tmp):
    """A live session that served sybil and community queries reports
    their derived-state build latencies in --stats-json, and telemetry
    leaves stdout unchanged."""
    san = os.path.join(tmp, "derived.san")
    expect("derived stats: generate net -> exit 0",
           run("generate", "--kind", "gplus", "--nodes", "900", "--seed",
               "4", "-o", san), 0, ["wrote"])
    workload = os.path.join(tmp, "derived_wl.txt")
    with open(workload, "w", encoding="utf-8") as f:
        f.write("sybil 10 3\ncommunity 10 4\ningest 55\nsybil now 3\n"
                "community now 5\ninfluence now 2\n")
    plain = run("live", san, "--workload", workload, "--start", "10")
    expect("derived stats: untelemetered live -> exit 0", plain, 0)
    stats_path = os.path.join(tmp, "derived_stats.json")
    telem = run("live", san, "--workload", workload, "--start", "10",
                "--stats-json", stats_path)
    expect("derived stats: instrumented live -> exit 0", telem, 0)
    check("derived stats: stdout identical with telemetry on",
          telem.stdout == plain.stdout,
          f"telem={telem.stdout!r} plain={plain.stdout!r}")
    try:
        with open(stats_path, encoding="utf-8") as f:
            stats = json.load(f)
    except (OSError, ValueError) as error:
        check("derived stats: JSON parses", False, str(error))
        return
    for kind in ("sybil", "community", "influence"):
        key = f"cache.derived_build.{kind}.count"
        check(f"derived stats: {key} >= 1", stats.get(key, 0) >= 1,
              str(stats.get(key)))


def main():
    global SAN_TOOL
    if len(sys.argv) != 2:
        print("usage: test_san_tool_cli.py /path/to/san_tool",
              file=sys.stderr)
        return 2
    SAN_TOOL = sys.argv[1]
    test_help_pages()
    test_usage_errors()
    test_genload_usage_errors()
    test_listen_usage_errors()
    with tempfile.TemporaryDirectory() as tmp:
        test_runtime_failures(tmp)
        test_end_to_end(tmp)
        test_strict_flags(tmp)
        test_genload_pipeline(tmp)
        test_new_query_kinds(tmp)
        test_telemetry(tmp)
        test_derived_build_stats(tmp)
        test_listen_byte_identity(tmp)
        test_listen_protocol_edges(tmp)
        test_listen_drain(tmp)
        test_listen_stats_json(tmp)
        test_export_write_failures(tmp)
    if FAILURES:
        print(f"{len(FAILURES)} CLI contract checks failed", file=sys.stderr)
        return 1
    print("all CLI contract checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
