// listenbench_client — the single-threaded loopback load client of the
// `san_tool listen` benchmark (see README.md in this directory).
//
//   listenbench_client --port P --server-pid PID --lines FILE
//       --mode bulk|probe [--seconds S] [--cycle] [--warmup N]
//       --responses FILE [--samples FILE]
//
// One connection, one thread. FILE holds workload lines exactly as they
// go on the wire; a query line earns one response line, a successful
// `ingest` line earns none. The first N query lines (and the ingest
// lines before them) are a warm-up: they are sent one at a time and
// awaited before the clock starts, and their responses are kept for the
// correctness check like every other response.
//
//  * bulk: closed loop with up to kBulkDepth query lines in flight. Sending stops
//    when the lines run out (or, with --cycle, when S seconds have
//    passed), then the client waits for every outstanding response.
//  * probe: one item in flight and zero think time. An item is one query
//    line plus the ingest lines before it, written together; its
//    turnaround runs from the write to the query's response line. Stops
//    when the lines run out (or, with --cycle, after S seconds).
//
// Without --cycle the lines are sent once and S is only a safety cap.
// Every response byte goes to --responses; probe turnarounds go to
// --samples, one `<ns> <has_ingest>` row per item. The last stdout line
// is a JSON object with the counts, the phase wall time, the server's
// user+sys CPU over the timed part (from /proc/PID/stat), the client's
// own CPU over the same span and the wall time of a fixed calibration
// loop run before connecting (see calibrate()).
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

/// How long the server may stay silent while responses are owed.
constexpr int kStallMs = 30000;

/// Bulk query lines in flight: twice listen's admission batch (1024), so
/// a full batch is always waiting and throughput follows the server's
/// work rather than the ping-pong of flush deadlines. With 256 in flight
/// present's qps spread 30% across seeds.
constexpr std::uint64_t kBulkDepth = 2048;

/// Calibration loop size: 9 rounds of 2^21 hashed reads over a 16 MiB
/// table; the median round is reported, so a brief stall does not count.
constexpr int kCalibrationRounds = 9;
constexpr std::uint64_t kCalibrationReads = std::uint64_t{1} << 21;
constexpr std::size_t kCalibrationWords = std::size_t{1} << 22;

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "listenbench_client: %s\n", message.c_str());
  std::exit(1);
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// user+sys CPU seconds of every thread of `pid` (fields 14 and 15 of
/// /proc/PID/stat, counted after the parenthesised command name).
double process_cpu_seconds(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const auto close = text.rfind(')');
  if (close == std::string::npos) die("cannot read /proc stat of server");
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) {
      stime = std::stoull(field);
      break;
    }
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double self_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// Wall seconds of the median round of a fixed single-threaded loop of
/// hashed reads over a table larger than a core's cache share. The work
/// never changes, so its time tracks only the host (clock, cache and
/// memory contention); a run whose figure is far off the others ran on
/// a drifted host.
double calibrate() {
  std::vector<std::uint32_t> table(kCalibrationWords);
  for (std::size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  std::uint64_t x = 88172645463325252ull, sum = 0;
  std::vector<double> rounds;
  for (int round = 0; round < kCalibrationRounds; ++round) {
    const auto begin = Clock::now();
    for (std::uint64_t i = 0; i < kCalibrationReads; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      sum += table[x & (kCalibrationWords - 1)];
    }
    rounds.push_back(seconds_between(begin, Clock::now()));
  }
  static volatile std::uint64_t sink;
  sink = sum;  // keeps the loop from being optimised away
  std::nth_element(rounds.begin(), rounds.begin() + rounds.size() / 2,
                   rounds.end());
  return rounds[rounds.size() / 2];
}

/// A workload line plus whether it expects a response.
struct Line {
  std::string text;  // includes the trailing '\n'
  bool query = true;
};

std::vector<Line> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  std::vector<Line> lines;
  std::string text;
  while (std::getline(in, text)) {
    if (text.empty()) continue;
    lines.push_back({text + "\n", text.rfind("ingest ", 0) != 0});
  }
  return lines;
}

class Connection {
 public:
  explicit Connection(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) die("socket failed");
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      die(std::string("connect failed: ") + std::strerror(errno));
    }
  }
  ~Connection() { close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }

  void set_nonblocking() {
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
  }

  /// Blocking write of all of `data`.
  void write_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n = send(fd_, data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) die(std::string("send failed: ") + std::strerror(errno));
      off += static_cast<std::size_t>(n);
    }
  }

  /// Appends what one recv returns to `out` and returns the number of
  /// '\n' in it; -1 when a non-blocking socket has nothing to read.
  long read_some(std::string& out) {
    char buffer[1 << 16];
    const ssize_t n = recv(fd_, buffer, sizeof(buffer), 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      return -1;
    }
    if (n < 0) die(std::string("recv failed: ") + std::strerror(errno));
    if (n == 0) die("server closed the connection");
    out.append(buffer, static_cast<std::size_t>(n));
    return std::count(buffer, buffer + n, '\n');
  }

  /// Blocks until `lines` more response lines have arrived; a server
  /// that stays silent for kStallMs is a failed run.
  void await_lines(std::string& out, long lines) {
    while (lines > 0) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = poll(&pfd, 1, kStallMs);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) die("timed out waiting for a response");
      lines -= std::max(0L, read_some(out));
    }
  }

 private:
  int fd_ = -1;
};

struct Args {
  int port = 0;
  long server_pid = 0;
  std::string lines_path, mode, responses_path, samples_path;
  double seconds = 5.0;
  bool cycle = false;
  std::size_t warmup = 0;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--cycle") {
      args.cycle = true;
      continue;
    }
    if (i + 1 >= argc) die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--port") args.port = std::stoi(value);
    else if (flag == "--server-pid") args.server_pid = std::stol(value);
    else if (flag == "--lines") args.lines_path = value;
    else if (flag == "--mode") args.mode = value;
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--warmup") args.warmup = std::stoul(value);
    else if (flag == "--responses") args.responses_path = value;
    else if (flag == "--samples") args.samples_path = value;
    else die("unknown flag " + flag);
  }
  if (args.port <= 0 || args.server_pid <= 0 || args.lines_path.empty() ||
      args.responses_path.empty() ||
      (args.mode != "bulk" && args.mode != "probe") ||
      (args.mode == "probe" && args.samples_path.empty())) {
    die("usage: --port P --server-pid PID --lines FILE --mode bulk|probe"
        " --responses FILE [--samples FILE] [--seconds S] [--cycle]"
        " [--warmup N]");
  }
  return args;
}

/// Walks the lines in order, wrapping around when cycling.
class Cursor {
 public:
  Cursor(const std::vector<Line>& lines, bool cycle)
      : lines_(lines), cycle_(cycle) {}
  bool done() const { return !cycle_ && next_ >= lines_.size(); }
  const Line& take() {
    const Line& line = lines_[next_ % lines_.size()];
    ++next_;
    return line;
  }
  std::size_t taken() const { return next_; }

 private:
  const std::vector<Line>& lines_;
  bool cycle_;
  std::size_t next_ = 0;
};

/// Takes one item — ingest lines up to and including the next query
/// line — into `out`; returns whether it ends in a query and whether it
/// carried an ingest line.
bool take_item(Cursor& cursor, std::string& out, bool& has_ingest) {
  has_ingest = false;
  while (!cursor.done()) {
    const Line& line = cursor.take();
    out += line.text;
    if (line.query) return true;
    has_ingest = true;
  }
  return false;
}

void write_file(const std::string& path, const std::string& data) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) die("cannot write " + path);
  const bool ok = std::fwrite(data.data(), 1, data.size(), file) ==
                  data.size();
  if (std::fclose(file) != 0 || !ok) die("short write to " + path);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::vector<Line> lines = read_lines(args.lines_path);
  const double calibration_s = calibrate();
  if (std::none_of(lines.begin(), lines.end(),
                   [](const Line& l) { return l.query; })) {
    die("no query lines in " + args.lines_path);
  }
  Connection conn(args.port);
  Cursor cursor(lines, args.cycle);
  std::string responses;
  responses.reserve(64 << 20);

  // Warm-up: sent one item at a time, untimed.
  std::size_t warm = 0;
  for (std::string item; warm < args.warmup; ++warm, item.clear()) {
    bool has_ingest = false;
    if (!take_item(cursor, item, has_ingest)) die("warm-up ran out of lines");
    conn.write_all(item);
    conn.await_lines(responses, 1);
  }

  std::uint64_t sent = 0, received = 0;
  std::string samples;
  const double server_cpu0 = process_cpu_seconds(args.server_pid);
  const double client_cpu0 = self_cpu_seconds();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));

  if (args.mode == "bulk") {
    conn.set_nonblocking();
    std::string outbox;
    std::size_t out_off = 0;
    bool sending = true;
    auto last_progress = Clock::now();
    while (sending || received < sent || out_off < outbox.size()) {
      if (sending && (cursor.done() || Clock::now() >= deadline)) {
        sending = false;
      }
      // Top the window up to kBulkDepth query lines in flight.
      while (sending && sent - received < kBulkDepth && !cursor.done()) {
        const Line& line = cursor.take();
        outbox += line.text;
        if (line.query) ++sent;
      }
      pollfd pfd{conn.fd(), POLLIN, 0};
      if (out_off < outbox.size()) pfd.events |= POLLOUT;
      if (poll(&pfd, 1, 100) < 0 && errno != EINTR) die("poll failed");
      if (pfd.revents & (POLLERR | POLLHUP)) die("connection error");
      if (pfd.revents & POLLOUT) {
        const ssize_t n = send(conn.fd(), outbox.data() + out_off,
                               outbox.size() - out_off, MSG_NOSIGNAL);
        if (n > 0) out_off += static_cast<std::size_t>(n);
        else if (n < 0 && errno != EAGAIN && errno != EINTR) {
          die(std::string("send failed: ") + std::strerror(errno));
        }
        if (out_off == outbox.size()) {
          outbox.clear();
          out_off = 0;
        }
      }
      if (pfd.revents & POLLIN) {
        for (long got; (got = conn.read_some(responses)) > 0;) {
          received += static_cast<std::uint64_t>(got);
          last_progress = Clock::now();
        }
      }
      if (Clock::now() - last_progress > std::chrono::milliseconds(kStallMs)) {
        break;  // the missing responses are counted as failures
      }
    }
  } else {
    std::string item;
    while (!cursor.done() && Clock::now() < deadline) {
      item.clear();
      bool has_ingest = false;
      if (!take_item(cursor, item, has_ingest)) break;
      const auto begin = Clock::now();
      conn.write_all(item);
      conn.await_lines(responses, 1);
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - begin)
                          .count();
      ++sent;
      ++received;
      samples += std::to_string(ns) + (has_ingest ? " 1\n" : " 0\n");
    }
  }

  const auto end = Clock::now();
  const double client_cpu = self_cpu_seconds() - client_cpu0;
  const double server_cpu = process_cpu_seconds(args.server_pid) - server_cpu0;
  write_file(args.responses_path, responses);
  if (!args.samples_path.empty()) write_file(args.samples_path, samples);
  std::printf(
      "{\"warmup\": %zu, \"sent\": %llu, \"received\": %llu,"
      " \"lines_taken\": %zu, \"elapsed_s\": %.9f, \"server_cpu_s\": %.6f,"
      " \"client_cpu_s\": %.6f, \"calibration_s\": %.9f,"
      " \"bulk_depth\": %llu}\n",
      warm, static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(received), cursor.taken(),
      seconds_between(start, end), server_cpu, client_cpu, calibration_s,
      static_cast<unsigned long long>(kBulkDepth));
  return 0;
}
