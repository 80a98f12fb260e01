// serve::Server socket contract: response streams are byte-identical to
// offline file replay at every batching setting, protocol edge cases
// (oversized lines, NUL bytes, partial lines split across sends,
// malformed tokens) produce the same line-numbered diagnostics file
// replay prints, slow consumers are disconnected instead of wedging the
// loop, ingest routes through the bound live timeline, a lone query is
// answered as soon as the loop goes idle, and a drain never drops an
// accepted query.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "san/live_replay.hpp"
#include "san/live_timeline.hpp"
#include "san/timeline.hpp"
#include "san_testlib.hpp"
#include "serve/genload.hpp"
#include "serve/query.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot_cache.hpp"

namespace {

using san::IngestBatch;
using san::LiveReplay;
using san::LiveTimeline;
using san::LiveTimelineOptions;
using san::SanTimeline;
using san::SocialAttributeNetwork;
using san::serve::GenloadOptions;
using san::serve::Query;
using san::serve::QueryEngine;
using san::serve::Server;
using san::serve::ServerOptions;
using san::serve::SnapshotCache;
using san::serve::WorkloadStep;
using san::serve::generate_workload;
using san::serve::parse_live_workload;

// The server relies on the CLI ignoring SIGPIPE; tests must too, or a
// disconnect racing a send kills the test binary.
struct IgnoreSigpipe {
  IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }
} ignore_sigpipe;

int connect_loopback(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    // Must be set before connect to shrink the advertised window — the
    // slow-consumer test caps how many bytes the kernel will accept.
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0)
      << std::strerror(errno);
  return fd;
}

void send_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t w = ::send(fd, text.data() + off, text.size() - off, 0);
    if (w < 0 && errno == EINTR) continue;
    ASSERT_GT(w, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(w);
  }
}

/// Reads until EOF (or a reset, which the slow-consumer test expects).
std::string recv_until_eof(int fd) {
  std::string out;
  char buf[16384];
  for (;;) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return out;
    out.append(buf, static_cast<std::size_t>(r));
  }
}

/// One client exchange against a running server: send the workload text,
/// half-close, read the full response stream.
std::string exchange(std::uint16_t port, const std::string& text) {
  const int fd = connect_loopback(port);
  send_all(fd, text);
  ::shutdown(fd, SHUT_WR);
  const std::string response = recv_until_eof(fd);
  ::close(fd);
  return response;
}

/// What file replay prints for a pure-query workload: one rendered line
/// per query, admission order.
std::string offline_serve(QueryEngine& engine,
                          const std::vector<Query>& queries) {
  std::string out;
  const auto results =
      engine.run_batch(std::span<const Query>(queries.data(),
                                              queries.size()));
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += results[i].to_line(queries[i]);
    out += '\n';
  }
  return out;
}

std::string scenario_text(std::size_t queries, std::uint64_t seed,
                          double ingest_fraction = 0.0) {
  GenloadOptions options;
  options.queries = queries;
  options.nodes = 1'500;
  options.seed = seed;
  options.ingest_fraction = ingest_fraction;
  options.now_fraction = 0.1;
  return generate_workload(options);
}

SocialAttributeNetwork test_net() {
  return san::testlib::synthetic_gplus(1'500, /*seed=*/7);
}

TEST(Server, ByteIdentityAcrossBatchingSettings) {
  const auto net = test_net();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 8);
  QueryEngine engine(cache);

  const std::string text = scenario_text(400, 21);
  std::vector<Query> queries;
  for (const auto& step : parse_live_workload(text)) {
    queries.push_back(step.query);
  }
  const std::string expected = offline_serve(engine, queries);

  for (const std::uint64_t max_delay_us : {0ull, 5'000ull}) {
    for (const std::size_t batch_size : {std::size_t{4}, std::size_t{1024}}) {
      ServerOptions options;
      options.batch_size = batch_size;
      options.max_delay_us = max_delay_us;
      Server server(engine, options);
      ASSERT_GT(server.port(), 0);
      std::thread loop([&] { server.run(); });
      const std::string response = exchange(server.port(), text);
      server.request_drain();
      loop.join();
      EXPECT_EQ(response, expected)
          << "batch_size=" << batch_size
          << " max_delay_us=" << max_delay_us;
      EXPECT_EQ(server.stats().queries, queries.size());
      EXPECT_EQ(server.stats().dropped_responses, 0u);
    }
  }
}

TEST(Server, MalformedLinesEchoFileReplayDiagnostics) {
  const auto net = test_net();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 4);
  QueryEngine engine(cache);
  ServerOptions options;
  options.max_delay_us = 0;
  Server server(engine, options);
  std::thread loop([&] { server.run(); });

  // Line numbers count every line, including blanks and comments, so the
  // diagnostics match replaying this exact stream as a file.
  std::string bad("linkrec 2x 5 3\n");       // line 1: malformed time
  bad += "# comment\n";                      // line 2: skipped
  bad += "\n";                               // line 3: skipped
  bad += "bogus 1 2\n";                      // line 4: unknown kind
  bad += std::string("ego\0x 1 5\n", 10);    // line 5: NUL in the kind
  bad += "ego 1 7 9\n";                      // line 6: trailing token
  bad += "ego 1 3\n";                        // line 7: valid
  const std::string response = exchange(server.port(), bad);
  server.request_drain();
  loop.join();

  // The NUL truncates the echoed diagnostic at the what() boundary —
  // exactly where file replay's fprintf("%s", e.what()) truncates it.
  const std::vector<std::string> expected_err = {
      "workload line 1: malformed time '2x'",
      "workload line 4: unknown query kind 'bogus'",
      "workload line 5: unknown query kind 'ego",
      "workload line 6: trailing token '9'",
  };
  // The exact messages are the file-replay ones: parsing the same line at
  // the same position throws the identical text.
  const std::string stream_prefix(
      "linkrec 2x 5 3\n# comment\n\nbogus 1 2\n");
  for (const auto& expect : expected_err) {
    EXPECT_NE(response.find("ERR " + expect + "\n"), std::string::npos)
        << "missing: " << expect << "\nresponse:\n"
        << response;
  }
  try {
    parse_live_workload(stream_prefix);
    FAIL() << "file replay accepted a malformed line";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), expected_err[0]);
  }
  // The valid trailing query still got served.
  EXPECT_NE(response.find("ego t=1 u=3 "), std::string::npos) << response;
  EXPECT_EQ(server.stats().parse_errors, 4u);
  EXPECT_EQ(server.stats().queries, 1u);
}

TEST(Server, PartialLinesSplitAcrossSendsReassemble) {
  const auto net = test_net();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 4);
  QueryEngine engine(cache);
  ServerOptions options;
  options.max_delay_us = 0;
  Server server(engine, options);
  std::thread loop([&] { server.run(); });

  const std::vector<Query> query = {
      parse_live_workload("ego 2 9\n")[0].query};
  const std::string expected = offline_serve(engine, query);

  const int fd = connect_loopback(server.port());
  // One query line dribbled in four sends, with pauses long enough for
  // the event loop to observe each fragment as its own readable event.
  for (const char* piece : {"eg", "o 2", " ", "9\n"}) {
    send_all(fd, piece);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::shutdown(fd, SHUT_WR);
  const std::string response = recv_until_eof(fd);
  ::close(fd);
  server.request_drain();
  loop.join();
  EXPECT_EQ(response, expected);
}

TEST(Server, OversizedLineGetsErrorAndDisconnect) {
  const auto net = test_net();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 4);
  QueryEngine engine(cache);
  ServerOptions options;
  options.max_delay_us = 0;
  options.max_line_bytes = 256;
  Server server(engine, options);
  std::thread loop([&] { server.run(); });

  const int fd = connect_loopback(server.port());
  send_all(fd, std::string(1'000, 'x'));  // no newline, over the cap
  const std::string response = recv_until_eof(fd);  // server closes
  ::close(fd);
  server.request_drain();
  loop.join();
  EXPECT_EQ(response,
            "ERR workload line 1: line exceeds 256 bytes\n");
  EXPECT_EQ(server.stats().oversize_disconnects, 1u);
}

TEST(Server, SlowConsumerIsDisconnectedNotBuffered) {
  const auto net = test_net();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 4);
  QueryEngine engine(cache);
  ServerOptions options;
  options.max_delay_us = 0;
  // Small flushes: each one lands under the outbound cap, so the socket
  // fills first (EAGAIN -> backpressure) and THEN the cap trips.
  options.batch_size = 16;
  options.max_outbound_bytes = 2'048;
  options.sndbuf_bytes = 4'096;
  Server server(engine, options);
  std::thread loop([&] { server.run(); });

  // ~2000 ego responses (~150 KiB) against a 4 KiB rcvbuf client that
  // never reads: the socket fills, then the outbound cap trips.
  std::string flood;
  for (int i = 0; i < 2'000; ++i) {
    flood += "ego 2 " + std::to_string(i % 1'000) + "\n";
  }
  const int fd = connect_loopback(server.port(), /*rcvbuf=*/4'096);
  send_all(fd, flood);
  // Do NOT read: wait for the server to give up on us.
  for (int spin = 0; spin < 2'000 && server.stats().slow_disconnects == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(fd);
  server.request_drain();
  loop.join();
  EXPECT_EQ(server.stats().slow_disconnects, 1u);
  EXPECT_GE(server.stats().backpressure, 1u);
  EXPECT_GE(server.stats().dropped_responses, 1u);
}

TEST(Server, DrainServesEveryAcceptedQuery) {
  const auto net = test_net();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 8);
  QueryEngine engine(cache);
  ServerOptions options;
  options.max_delay_us = 60ull * 1'000'000;
  options.batch_size = 1 << 20;
  Server server(engine, options);

  const std::string text = scenario_text(200, 33);
  std::vector<Query> queries;
  for (const auto& step : parse_live_workload(text)) {
    queries.push_back(step.query);
  }
  const std::string expected = offline_serve(engine, queries);

  // Connect, send every line and request the drain before the loop
  // starts: the lines sit in the kernel socket buffer when the drain's
  // final read runs, so the drain itself must admit and serve them.
  const int fd = connect_loopback(server.port());
  send_all(fd, text);
  server.request_drain();
  std::thread loop([&] { server.run(); });
  const std::string response = recv_until_eof(fd);
  ::close(fd);
  loop.join();
  EXPECT_EQ(response, expected);
  EXPECT_EQ(server.stats().queries, queries.size());
  EXPECT_EQ(server.stats().dropped_responses, 0u);
}

TEST(Server, LoneQueryIsAnsweredWithoutWaitingForTheDeadline) {
  const auto net = test_net();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 8);
  QueryEngine engine(cache);
  const std::string text = "linkrec 60 7 5\n";
  std::vector<Query> queries;
  for (const auto& step : parse_live_workload(text)) {
    queries.push_back(step.query);
  }
  const std::string expected = offline_serve(engine, queries);

  // Neither a full batch nor the deadline can flush one query within the
  // test's bound: only the idle loop can answer it.
  ServerOptions options;
  options.max_delay_us = 60ull * 1'000'000;
  options.batch_size = 1024;
  Server server(engine, options);
  std::thread loop([&] { server.run(); });

  const int fd = connect_loopback(server.port());
  const timeval bound{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &bound, sizeof bound);
  const auto start = std::chrono::steady_clock::now();
  send_all(fd, text);  // no half-close: EOF would flush the batch itself
  std::string response;
  char buf[4096];
  while (response.find('\n') == std::string::npos) {
    const ssize_t r = ::recv(fd, buf, sizeof buf, 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;  // the 10 s receive timeout, or a close
    response.append(buf, static_cast<std::size_t>(r));
  }
  const auto waited = std::chrono::steady_clock::now() - start;
  server.request_drain();
  loop.join();
  ::close(fd);
  EXPECT_EQ(response, expected);
  EXPECT_LT(waited, std::chrono::seconds(10));
  EXPECT_EQ(server.stats().batches, 1u);
}

TEST(Server, IngestRoutesThroughLiveBindingByteIdentically) {
  const auto net = test_net();
  const std::string text = scenario_text(300, 55, /*ingest_fraction=*/0.15);
  const auto steps = parse_live_workload(text);

  // Offline reference: the exact cmd_live loop — flush queued queries
  // before each ingest, then advance the live timeline.
  std::string expected;
  {
    LiveReplay replay(net, 0.0);
    const SanTimeline frozen(replay.seed);
    SnapshotCache cache(frozen, 8);
    LiveTimelineOptions live_options;
    live_options.initial_tip = 0.0;
    LiveTimeline live(replay.seed, live_options);
    cache.bind_live(live, 0.0);
    QueryEngine engine(cache);
    std::vector<Query> queued;
    const auto flush = [&] {
      expected += offline_serve(engine, queued);
      queued.clear();
    };
    for (const auto& step : steps) {
      if (!step.ingest) {
        queued.push_back(step.query);
        continue;
      }
      flush();
      IngestBatch batch = replay.batch_until(step.tip);
      live.ingest(batch);
    }
    flush();
  }

  LiveReplay replay(net, 0.0);
  const SanTimeline frozen(replay.seed);
  SnapshotCache cache(frozen, 8);
  LiveTimelineOptions live_options;
  live_options.initial_tip = 0.0;
  LiveTimeline live(replay.seed, live_options);
  cache.bind_live(live, 0.0);
  QueryEngine engine(cache);
  ServerOptions options;
  options.max_delay_us = 2'500;
  options.batch_size = 64;
  Server server(engine, options);
  server.set_ingest_handler([&](double tip, std::string& error) {
    try {
      IngestBatch batch = replay.batch_until(tip);
      live.ingest(batch);
      return true;
    } catch (const std::exception& e) {
      error = e.what();
      return false;
    }
  });
  std::thread loop([&] { server.run(); });
  const std::string response = exchange(server.port(), text);
  server.request_drain();
  loop.join();
  EXPECT_EQ(response, expected);
  std::size_t ingest_lines = 0;
  for (const auto& step : steps) ingest_lines += step.ingest ? 1 : 0;
  EXPECT_EQ(server.stats().ingests, ingest_lines);
}

TEST(Server, FailedIngestRejectsTheLineNotTheConnection) {
  const auto net = test_net();
  LiveReplay replay(net, 0.0);
  const SanTimeline frozen(replay.seed);
  SnapshotCache cache(frozen, 8);
  LiveTimelineOptions live_options;
  live_options.initial_tip = 0.0;
  LiveTimeline live(replay.seed, live_options);
  cache.bind_live(live, 0.0);
  QueryEngine engine(cache);
  ServerOptions options;
  options.max_delay_us = 0;
  Server server(engine, options);
  server.set_ingest_handler([&](double tip, std::string& error) {
    try {
      IngestBatch batch = replay.batch_until(tip);
      live.ingest(batch);
      return true;
    } catch (const std::exception& e) {
      error = e.what();
      return false;
    }
  });
  std::thread loop([&] { server.run(); });

  // Tip 5, then a non-advancing tip 5 (rejected, connection survives),
  // then a query that must still be served.
  const std::string response =
      exchange(server.port(), "ingest 5\ningest 5\nego now 1\n");
  server.request_drain();
  loop.join();
  EXPECT_NE(response.find("ERR workload line 2: "), std::string::npos)
      << response;
  EXPECT_NE(response.find("strictly"), std::string::npos) << response;
  EXPECT_NE(response.find("ego t=now u=1 "), std::string::npos) << response;
  EXPECT_EQ(server.stats().ingests, 1u);
  EXPECT_EQ(server.stats().parse_errors, 1u);
}

TEST(Server, TelemetryRegistersServerSchema) {
  const auto net = test_net();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 4);
  QueryEngine engine(cache);
  Server server(engine, ServerOptions{});
  san::obs::Registry registry;
  server.register_metrics(registry, "server");
  san::obs::set_timing_enabled(true);
  std::thread loop([&] { server.run(); });
  exchange(server.port(), "ego 1 2\nbroken\n");
  server.request_drain();
  loop.join();
  san::obs::set_timing_enabled(false);

  const auto snapshot = registry.snapshot();
  const auto value = [&](const std::string& name) -> double {
    for (const auto& [key, v] : snapshot) {
      if (key == name) return v;
    }
    return -1.0;
  };
  EXPECT_EQ(value("server.accepted"), 1.0);
  EXPECT_EQ(value("server.closed"), 1.0);
  EXPECT_EQ(value("server.queries"), 1.0);
  EXPECT_EQ(value("server.parse_errors"), 1.0);
  EXPECT_EQ(value("server.open_connections"), 0.0);
  EXPECT_GE(value("server.batches"), 1.0);
  // One admitted query: one admission wait and one turnaround, and the
  // wait is the front part of the turnaround.
  EXPECT_EQ(value("server.admission_wait.count"), 1.0);
  EXPECT_EQ(value("server.turnaround.count"), 1.0);
  EXPECT_LE(value("server.admission_wait.p50_us"),
            value("server.turnaround.p50_us"));
}

}  // namespace
