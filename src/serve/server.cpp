#include "serve/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

namespace san::serve {
namespace {

// epoll user-data ids for the two non-connection descriptors; connection
// ids start at Server::next_conn_id_'s initial value, above both.
constexpr std::uint64_t kListenerId = 0;
constexpr std::uint64_t kWakeId = 1;

std::uint64_t mono_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string errno_string() { return std::strerror(errno); }

void close_retry(int fd) {
  int rc;
  do {
    rc = ::close(fd);
  } while (rc < 0 && errno == EINTR);
}

}  // namespace

Server::Server(QueryEngine& engine, ServerOptions options)
    : engine_(engine), options_(options) {
  if (options_.batch_size == 0) options_.batch_size = 1;
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("server: socket() failed: " + errno_string());
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string what = "server: cannot listen on 127.0.0.1:" +
                             std::to_string(options_.port) + ": " +
                             errno_string();
    close_retry(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(what);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    const std::string what =
        "server: epoll/eventfd setup failed: " + errno_string();
    if (epoll_fd_ >= 0) close_retry(epoll_fd_);
    if (wake_fd_ >= 0) close_retry(wake_fd_);
    close_retry(listen_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    throw std::runtime_error(what);
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeId;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

Server::~Server() {
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) close_retry(conn.fd);
  }
  if (listen_fd_ >= 0) close_retry(listen_fd_);
  if (epoll_fd_ >= 0) close_retry(epoll_fd_);
  if (wake_fd_ >= 0) close_retry(wake_fd_);
}

void Server::set_ingest_handler(IngestHandler handler) {
  ingest_handler_ = std::move(handler);
}

void Server::request_drain() noexcept {
  const std::uint64_t one = 1;
  ssize_t r;
  do {
    r = ::write(wake_fd_, &one, sizeof one);
  } while (r < 0 && errno == EINTR);
}

Server::Stats Server::stats() const {
  Stats s;
  s.accepted = accepted_->value();
  s.closed = closed_->value();
  s.slow_disconnects = slow_disconnects_->value();
  s.oversize_disconnects = oversize_disconnects_->value();
  s.queries = queries_->value();
  s.ingests = ingests_->value();
  s.parse_errors = parse_errors_->value();
  s.batches = batches_->value();
  s.backpressure = backpressure_->value();
  s.dropped_responses = dropped_responses_->value();
  return s;
}

void Server::register_metrics(obs::Registry& registry,
                              const std::string& prefix) const {
  registry.attach_counter(prefix + ".accepted", accepted_);
  registry.attach_counter(prefix + ".closed", closed_);
  registry.attach_counter(prefix + ".slow_disconnects", slow_disconnects_);
  registry.attach_counter(prefix + ".oversize_disconnects",
                          oversize_disconnects_);
  registry.attach_counter(prefix + ".queries", queries_);
  registry.attach_counter(prefix + ".ingests", ingests_);
  registry.attach_counter(prefix + ".parse_errors", parse_errors_);
  registry.attach_counter(prefix + ".batches", batches_);
  registry.attach_counter(prefix + ".backpressure", backpressure_);
  registry.attach_counter(prefix + ".dropped_responses", dropped_responses_);
  registry.attach_gauge(prefix + ".open_connections", open_connections_);
  registry.attach_histogram(prefix + ".admission_wait", admission_wait_ns_);
  registry.attach_histogram(prefix + ".turnaround", turnaround_ns_);
  registry.attach_histogram(prefix + ".batch_flush", batch_flush_ns_);
}

void Server::run() {
  std::vector<epoll_event> events(64);
  while (true) {
    // Sweep connections closed during the previous pass (close only marks
    // fd = -1 so references held across enqueue/flush stay valid).
    for (auto it = conns_.begin(); it != conns_.end();) {
      it = it->second.fd < 0 ? conns_.erase(it) : std::next(it);
    }
    if (draining_) break;

    // With a batch pending the loop polls instead of sleeping, so it
    // never waits on a deadline: a pass with no events means the batch
    // cannot grow, and it flushes below.
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               pending_.empty() ? -1 : 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("server: epoll_wait failed: " +
                               errno_string());
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = events[i].data.u64;
      if (id == kListenerId) {
        accept_ready();
        continue;
      }
      if (id == kWakeId) {
        std::uint64_t value = 0;
        ssize_t r;
        do {
          r = ::read(wake_fd_, &value, sizeof value);
        } while (r < 0 && errno == EINTR);
        draining_ = true;
        continue;
      }
      const auto it = conns_.find(id);
      if (it == conns_.end() || it->second.fd < 0) continue;
      Connection& conn = it->second;
      const std::uint32_t mask = events[i].events;
      if ((mask & EPOLLIN) != 0 && !conn.read_closed) on_readable(conn);
      if (conn.fd >= 0 && (mask & EPOLLOUT) != 0) on_writable(conn);
      if (conn.fd >= 0 && (mask & (EPOLLHUP | EPOLLERR)) != 0 &&
          (mask & EPOLLIN) == 0) {
        // Hard error or full close with nothing readable: the next read
        // observes it (EOF or errno) and closes the connection.
        on_readable(conn);
      }
    }
    if (!pending_.empty() &&
        (n == 0 || mono_us() >= first_admit_us_ + options_.max_delay_us)) {
      flush_pending();
    }
  }
  drain_and_stop();
}

void Server::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient per-connection accept error
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(int));
    }
    const std::uint64_t id = next_conn_id_++;
    Connection& conn = conns_[id];
    conn.fd = fd;
    conn.id = id;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close_retry(fd);
      conns_.erase(id);
      continue;
    }
    accepted_->add();
    open_connections_->set(++open_count_);
  }
}

void Server::on_readable(Connection& conn) {
  char buf[64 * 1024];
  while (conn.fd >= 0 && !conn.read_closed) {
    const ssize_t r = ::read(conn.fd, buf, sizeof buf);
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(conn);
      return;
    }
    if (r == 0) {
      conn.read_closed = true;
      if (!conn.in.empty()) {
        // std::getline's EOF rule: a final unterminated line still parses.
        std::string line;
        line.swap(conn.in);
        process_line(conn, std::move(line));
      }
      // The client finished its stream: serve its queued queries now,
      // even while other connections keep the loop busy, then close below.
      flush_pending();
      break;
    }
    conn.in.append(buf, static_cast<std::size_t>(r));
    std::size_t start = 0;
    std::size_t nl;
    while (conn.fd >= 0 && !conn.read_closed &&
           (nl = conn.in.find('\n', start)) != std::string::npos) {
      process_line(conn, conn.in.substr(start, nl - start));
      start = nl + 1;
    }
    if (conn.fd < 0) return;
    conn.in.erase(0, start);
    if (!conn.read_closed && conn.in.size() > options_.max_line_bytes) {
      // Unterminated line past the cap: framing can't be trusted, so
      // error out and stop reading; the connection closes once the error
      // line (and any earlier responses) are written.
      ++conn.line_no;
      oversize_disconnects_->add();
      enqueue(conn, "ERR workload line " + std::to_string(conn.line_no) +
                        ": line exceeds " +
                        std::to_string(options_.max_line_bytes) + " bytes\n");
      conn.in.clear();
      conn.read_closed = true;
    }
  }
  if (conn.fd < 0) return;
  update_epoll(conn);
  try_write(conn);
  close_if_done(conn);
}

void Server::on_writable(Connection& conn) {
  try_write(conn);
  close_if_done(conn);
}

void Server::process_line(Connection& conn, std::string line) {
  ++conn.line_no;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  WorkloadStep step;
  try {
    if (!parse_workload_line(line, conn.line_no, step)) return;  // blank/#
  } catch (const std::invalid_argument& error) {
    parse_errors_->add();
    enqueue(conn, std::string("ERR ") + error.what() + "\n");
    return;
  }
  if (step.ingest) {
    // Queries admitted before this line must execute against the
    // pre-ingest epochs, exactly as file replay orders them.
    flush_pending();
    std::string error;
    if (!ingest_handler_) {
      error = "no live binding for ingest";
    } else if (ingest_handler_(step.tip, error)) {
      ingests_->add();
      return;
    }
    parse_errors_->add();
    enqueue(conn, "ERR workload line " + std::to_string(conn.line_no) +
                      ": " + error + "\n");
    return;
  }
  if (pending_.empty()) first_admit_us_ = mono_us();
  pending_.push_back(std::move(step.query));
  pending_meta_.push_back(
      {conn.id, obs::timing_enabled() ? obs::now_ns() : 0});
  ++conn.inflight;
  queries_->add();
  if (pending_.size() >= options_.batch_size) flush_pending();
}

void Server::flush_pending() {
  if (pending_.empty()) return;
  const bool timing = obs::timing_enabled();
  const std::uint64_t t0 = timing ? obs::now_ns() : 0;
  const auto results =
      engine_.run_batch(std::span<const Query>(pending_.data(),
                                               pending_.size()));
  const std::uint64_t t1 = timing ? obs::now_ns() : 0;
  if (timing) batch_flush_ns_->record(t1 - t0);
  batches_->add();

  std::vector<std::uint64_t> touched;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto it = conns_.find(pending_meta_[i].conn_id);
    if (it == conns_.end() || it->second.fd < 0) {
      dropped_responses_->add();
      continue;
    }
    Connection& conn = it->second;
    if (conn.inflight > 0) --conn.inflight;
    enqueue(conn, results[i].to_line(pending_[i]) + "\n");
    if (timing && pending_meta_[i].admit_ns != 0) {
      admission_wait_ns_->record(t0 - pending_meta_[i].admit_ns);
      turnaround_ns_->record(t1 - pending_meta_[i].admit_ns);
    }
    if (touched.empty() || touched.back() != pending_meta_[i].conn_id) {
      touched.push_back(pending_meta_[i].conn_id);
    }
  }
  pending_.clear();
  pending_meta_.clear();

  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const std::uint64_t id : touched) {
    const auto it = conns_.find(id);
    if (it == conns_.end() || it->second.fd < 0) continue;
    try_write(it->second);
    close_if_done(it->second);
  }
}

void Server::enqueue(Connection& conn, const std::string& text) {
  if (conn.fd < 0) return;
  conn.out += text;
  if (conn.out.size() - conn.out_off > options_.max_outbound_bytes) {
    slow_disconnects_->add();
    close_connection(conn);
  }
}

void Server::try_write(Connection& conn) {
  while (conn.fd >= 0 && conn.out_off < conn.out.size()) {
    const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn.want_write) {
          conn.want_write = true;
          backpressure_->add();
          update_epoll(conn);
        }
        return;
      }
      close_connection(conn);
      return;
    }
    conn.out_off += static_cast<std::size_t>(w);
  }
  if (conn.fd < 0) return;
  conn.out.clear();
  conn.out_off = 0;
  if (conn.want_write) {
    conn.want_write = false;
    update_epoll(conn);
  }
}

void Server::update_epoll(Connection& conn) {
  if (conn.fd < 0) return;
  epoll_event ev{};
  ev.events = (conn.read_closed ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
              (conn.want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Server::close_if_done(Connection& conn) {
  if (conn.fd >= 0 && conn.read_closed && conn.inflight == 0 &&
      conn.out_off >= conn.out.size()) {
    close_connection(conn);
  }
}

void Server::close_connection(Connection& conn) {
  if (conn.fd < 0) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  close_retry(conn.fd);
  conn.fd = -1;
  conn.in.clear();
  conn.out.clear();
  conn.out_off = 0;
  closed_->add();
  open_connections_->set(--open_count_);
}

void Server::drain_and_stop() {
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    close_retry(listen_fd_);
    listen_fd_ = -1;
  }
  // Final read drain: every line already delivered to the kernel socket
  // buffers — including queries that arrived mid-drain — is accepted.
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0 && !conn.read_closed) on_readable(conn);
  }
  flush_pending();

  // Write-out: keep retrying backpressured sockets until every response
  // is on the wire or the drain timeout expires.
  const std::uint64_t deadline =
      mono_us() + options_.drain_timeout_ms * 1000;
  std::vector<epoll_event> events(64);
  for (;;) {
    bool outstanding = false;
    for (auto& [id, conn] : conns_) {
      if (conn.fd < 0) continue;
      try_write(conn);
      if (conn.fd >= 0 && conn.out_off < conn.out.size()) outstanding = true;
    }
    if (!outstanding) break;
    const std::uint64_t now = mono_us();
    if (now >= deadline) {
      for (auto& [id, conn] : conns_) {
        if (conn.fd >= 0 && conn.out_off < conn.out.size()) {
          slow_disconnects_->add();
          close_connection(conn);
        }
      }
      break;
    }
    const int wait_ms = static_cast<int>(
        std::min<std::uint64_t>(100, (deadline - now) / 1000 + 1));
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), wait_ms);
    if (n < 0 && errno != EINTR) break;
  }
  for (auto& [id, conn] : conns_) {
    if (conn.fd >= 0) close_connection(conn);
  }
  conns_.clear();
}

}  // namespace san::serve
