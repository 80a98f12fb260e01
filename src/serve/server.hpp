// serve::Server — the socket serving front end (`san_tool listen`): an
// epoll-based single-threaded event loop on a loopback TCP listener
// speaking a newline-delimited protocol that IS the existing serve/live
// workload grammar (serve/query.hpp). One query or `ingest` line in, one
// result line out, rendered by the same QueryResult::to_line the file
// replay paths print — so `genload` output pipes straight over a socket
// and a loopback client's response stream is byte-identical to
// `san_tool serve`/`live` over the same lines.
//
// Execution model:
//
//  * Admission batching. Parsed queries from every connection accumulate
//    into one pending batch in arrival order; the batch flushes into
//    QueryEngine::run_batch when it reaches batch_size, when the loop
//    goes idle (while a batch is pending the loop polls, and a pass with
//    no events means nothing more can join it), or when max_delay_us
//    has elapsed since its first admission under a trickle that never
//    goes idle. So a lone request is answered at once, and a deep
//    pipeline still fills whole batches. The engine's batch==single
//    byte-identity contract makes the flush boundary invisible in the
//    results.
//  * Ingest ordering. An `ingest <tip>` line first flushes the pending
//    batch (queries admitted before the ingest must see the pre-ingest
//    epochs — the same order file replay executes), then invokes the
//    bound ingest handler (`san_tool listen` wires it to LiveReplay +
//    LiveTimeline). Successful ingest produces no response line, matching
//    the file-replay renderer; a failed one (for example a non-advancing
//    tip) produces an `ERR workload line N: ...` line on that connection
//    instead of killing the process.
//  * Write backpressure. Responses append to a bounded per-connection
//    outbound buffer; EAGAIN arms EPOLLOUT and the buffer drains as the
//    socket opens up. A consumer whose buffer exceeds max_outbound_bytes
//    is disconnected and counted (slow_disconnects) — one slow reader
//    must never wedge the loop or grow memory without bound.
//  * Graceful drain. request_drain() (async-signal-safe: one eventfd
//    write, callable from a SIGTERM/SIGINT handler) stops the listener,
//    performs one final read drain of every connection (lines already in
//    the kernel socket buffers — including queries that arrived mid-drain
//    — are accepted and served), flushes the in-flight batch, writes all
//    outbound buffers (bounded by drain_timeout_ms), and returns from
//    run(). No accepted query is ever dropped by a drain.
//
// Protocol edge rules: lines end in '\n' (one optional trailing '\r' is
// stripped); blank lines and '#' comments are skipped; a line longer than
// max_line_bytes gets an ERR line and a disconnect (the framing cannot be
// trusted past it); NUL bytes and malformed tokens take exactly the path
// file replay takes — a bad line's line-numbered std::invalid_argument
// message is echoed back as `ERR <message>`; a half-closed connection's final
// unterminated line is parsed like std::getline would at EOF. Line
// numbers count per connection, so diagnostics match replaying that
// connection's stream as a file.
//
// Telemetry (register_metrics, `server.*` by convention): accepted /
// closed / slow_disconnects / oversize_disconnects / queries / ingests /
// parse_errors / batches / backpressure / dropped_responses counters, an
// open_connections gauge, and three latency histograms —
// `<p>.admission_wait` (per query: admission to the start of its batch
// flush), `<p>.turnaround` (per query: line read to response line
// enqueued, the server-side SLO number) and `<p>.batch_flush` (run_batch
// duration per flush). Histograms record only while
// obs::timing_enabled(), like every other instrumented site.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/query_engine.hpp"

namespace san::serve {

struct ServerOptions {
  /// Listening port on 127.0.0.1; 0 asks the kernel for an ephemeral
  /// port (read it back with Server::port()).
  std::uint16_t port = 0;
  /// Pending-batch flush threshold (queries), >= 1.
  std::size_t batch_size = 1024;
  /// Flush deadline: microseconds after the first admission of a pending
  /// batch before it flushes regardless of size. It bounds the wait only
  /// under a trickle that keeps the loop busy; an idle loop flushes at
  /// once. 0 = flush after every event-loop pass.
  std::uint64_t max_delay_us = 1000;
  /// A line longer than this (no '\n' seen) is an error + disconnect.
  std::size_t max_line_bytes = 64 * 1024;
  /// Outbound-buffer cap per connection; exceeding it disconnects the
  /// slow consumer (counted, never blocks the loop).
  std::size_t max_outbound_bytes = 1 << 20;
  /// Drain: how long the final write-out may keep retrying EAGAIN
  /// sockets before force-closing the stragglers.
  std::uint64_t drain_timeout_ms = 5000;
  /// When nonzero, SO_SNDBUF for accepted connections (tests shrink it
  /// to force backpressure deterministically).
  int sndbuf_bytes = 0;
};

class Server {
 public:
  struct Stats {
    std::uint64_t accepted = 0;           // connections accepted
    std::uint64_t closed = 0;             // connections closed (any cause)
    std::uint64_t slow_disconnects = 0;   // outbound cap exceeded
    std::uint64_t oversize_disconnects = 0;
    std::uint64_t queries = 0;            // query lines admitted
    std::uint64_t ingests = 0;            // successful ingest lines
    std::uint64_t parse_errors = 0;       // ERR lines sent (parse + ingest)
    std::uint64_t batches = 0;            // run_batch flushes
    std::uint64_t backpressure = 0;       // EAGAIN -> EPOLLOUT arms
    std::uint64_t dropped_responses = 0;  // results whose conn had closed
  };

  /// Ingest hook for `ingest <tip>` lines: return true on success, false
  /// with `error` filled to send `ERR workload line N: <error>` back.
  /// Without a handler every ingest line fails with "no live binding".
  using IngestHandler = std::function<bool(double tip, std::string& error)>;

  /// Binds and listens on 127.0.0.1:options.port immediately (throws
  /// std::runtime_error on socket failures); the loop starts in run().
  /// The engine must outlive the server.
  Server(QueryEngine& engine, ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void set_ingest_handler(IngestHandler handler);

  /// The port actually bound (resolves port 0 to the kernel's choice).
  std::uint16_t port() const { return port_; }

  /// The event loop: blocks the calling thread until a drain completes.
  void run();

  /// Begin graceful drain. Async-signal-safe (one write(2) to an
  /// eventfd) and callable from any thread.
  void request_drain() noexcept;

  Stats stats() const;

  /// Attach the server telemetry under `<prefix>.` (see file comment for
  /// the key schema).
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::string in;            // bytes read, not yet consumed as lines
    std::string out;           // response bytes not yet written
    std::size_t out_off = 0;   // written prefix of `out`
    std::size_t line_no = 0;   // per-connection line counter
    std::size_t inflight = 0;  // admitted queries awaiting their response
    bool read_closed = false;  // EOF seen or input poisoned (oversize)
    bool want_write = false;   // EPOLLOUT armed
  };

  void accept_ready();
  void on_readable(Connection& conn);
  void on_writable(Connection& conn);
  void process_line(Connection& conn, std::string line);
  void flush_pending();
  void enqueue(Connection& conn, const std::string& text);
  void try_write(Connection& conn);
  void update_epoll(Connection& conn);
  void close_if_done(Connection& conn);
  void close_connection(Connection& conn);
  void drain_and_stop();

  QueryEngine& engine_;
  ServerOptions options_;
  IngestHandler ingest_handler_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: request_drain() wakes the loop with it
  std::uint16_t port_ = 0;
  std::uint64_t next_conn_id_ = 16;  // low ids are reserved for the fds
  std::unordered_map<std::uint64_t, Connection> conns_;
  // The pending admission batch: queries contiguous for run_batch, the
  // (connection, admit stamp) rows parallel to them.
  std::vector<Query> pending_;
  struct PendingMeta {
    std::uint64_t conn_id = 0;
    std::uint64_t admit_ns = 0;  // 0 while timing capture is off
  };
  std::vector<PendingMeta> pending_meta_;
  std::uint64_t first_admit_us_ = 0;  // deadline base (monotonic us)
  std::int64_t open_count_ = 0;       // live fds behind open_connections_
  bool draining_ = false;

  // Telemetry cells (lock-free; stats() may be read from other threads).
  std::shared_ptr<obs::Counter> accepted_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> closed_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> slow_disconnects_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> oversize_disconnects_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> queries_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> ingests_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> parse_errors_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> batches_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> backpressure_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> dropped_responses_ =
      std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Gauge> open_connections_ =
      std::make_shared<obs::Gauge>();
  std::shared_ptr<obs::Histogram> admission_wait_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> turnaround_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> batch_flush_ns_ =
      std::make_shared<obs::Histogram>();
};

}  // namespace san::serve
