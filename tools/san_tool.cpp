// san_tool — command-line front end for the library.
//
//   san_tool help [COMMAND]            (also: san_tool COMMAND --help)
//   san_tool generate --kind model|zhel|gplus [--nodes N] [--seed S] -o FILE
//   san_tool measure FILE [--day D]
//   san_tool snapshots FILE [--step D]
//   san_tool crawl FILE --day D [--private P] -o FILE
//   san_tool communities FILE [--attribute-weight W]
//   san_tool live FILE --workload W [--start D] [--cache N] [--batch B]
//            [--stats-json FILE] [--trace FILE] [--stats-every N]
//   san_tool serve FILE --workload W [--cache N] [--batch B]
//            [--stats-json FILE] [--trace FILE] [--stats-every N]
//   san_tool listen FILE [--port P] [--start D] [--cache N] [--batch B]
//            [--max-delay-us U] [--max-line-bytes N]
//            [--max-outbound-bytes N] [--drain-timeout-ms N]
//            [--sndbuf BYTES] [--stats-json FILE] [--trace FILE]
//   san_tool genload [--queries N] [--nodes N] [--seed S] [--zipf Z]
//            [--mix SPEC] [--arrival MODEL] [--horizon D] [--now F]
//            [--ingest F] -o FILE
//
// Files use the SANv1 text format (san/serialization.hpp); workload files
// use the serve/query.hpp line format. Malformed numbers, unknown
// subcommands, unknown flags, flags missing their value, and missing
// positionals all fail loudly with usage + a nonzero exit instead of
// silently falling back to atof/atol defaults.
//
// Exit codes (shared by every subcommand): 0 success / help, 1 runtime
// failure (unreadable or malformed input file, workload parse error),
// 2 usage error (unknown subcommand or flag, bad or missing flag value,
// missing positional).
//
// The subcommand table below is the single source of the usage strings
// and of the flags each subcommand accepts (exactly those its synopsis
// names); the docs CI job (tools/check_docs.py) fails when `san_tool
// help` drifts from the subcommand table documented in README.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "apps/community.hpp"
#include "core/parse.hpp"
#include "core/simd/simd.hpp"
#include "crawl/crawler.hpp"
#include "crawl/gplus_synth.hpp"
#include "graph/clustering.hpp"
#include "graph/metrics.hpp"
#include "model/generator.hpp"
#include "model/zhel.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "san/live_replay.hpp"
#include "san/live_timeline.hpp"
#include "san/san_metrics.hpp"
#include "san/serialization.hpp"
#include "san/timeline.hpp"
#include "serve/genload.hpp"
#include "serve/query_engine.hpp"
#include "serve/server.hpp"
#include "stats/fit.hpp"

namespace {

using namespace san;

/// One row per subcommand: the synopsis is shared between the usage
/// message, `san_tool help`, and each per-subcommand help page, so the
/// three can never disagree.
struct SubcommandDoc {
  const char* name;
  const char* synopsis;
  const char* summary;  // one line, shown by `san_tool help`
  const char* details;  // flags + semantics, shown by `san_tool help NAME`
};

constexpr SubcommandDoc kSubcommands[] = {
    {"generate",
     "san_tool generate --kind model|zhel|gplus [--nodes N] [--seed S]"
     " -o FILE",
     "synthesize a SAN and write it in SANv1 text format",
     "Generates a Social-Attribute Network and saves it to FILE.\n"
     "\n"
     "  --kind model|zhel|gplus   generator family (default: model)\n"
     "        model  the paper's SAN evolution model (attribute-augmented\n"
     "               preferential attachment + triangle closing)\n"
     "        zhel   the Zheleva et al. baseline model\n"
     "        gplus  synthetic Google+ ground truth with daily crawl\n"
     "               timestamps (the bench substrate)\n"
     "  --nodes N                 social node count (default: 20000)\n"
     "  --seed S                  RNG seed (default: 42)\n"
     "  -o FILE                   output path, SANv1 text format (required)\n"},
    {"measure",
     "san_tool measure FILE [--day D]",
     "print structural metrics of a snapshot",
     "Loads the SANv1 file and prints node/link counts, reciprocity,\n"
     "densities, assortativity, clustering coefficients, and the best-fit\n"
     "outdegree model of the snapshot at day D.\n"
     "\n"
     "  --day D   snapshot time (default: the complete network)\n"},
    {"snapshots",
     "san_tool snapshots FILE [--step D]",
     "per-day growth table via the timeline delta sweep",
     "Replays the network's history as daily snapshots (the paper's 79\n"
     "crawls) through san::SanTimeline — index once, then advance each\n"
     "snapshot incrementally — and prints one growth row per day.\n"
     "\n"
     "  --step D   day stride between snapshots, > 0 (default: 1); a\n"
     "             grid of more days than the file has distinct event\n"
     "             times (+1) only repeats rows and is refused\n"},
    {"crawl",
     "san_tool crawl FILE --day D [--private P] -o FILE",
     "simulate the paper's BFS crawl of a ground-truth SAN",
     "Crawls the ground-truth network as of day D the way the paper\n"
     "crawled Google+ (BFS from the seed set, private profiles hidden)\n"
     "and writes the crawled SAN to the output file.\n"
     "\n"
     "  --day D       crawl date (default: the complete network)\n"
     "  --private P   probability a profile is private, in [0, 1]\n"
     "                (default: 0.12)\n"
     "  -o FILE       output path (required)\n"},
    {"communities",
     "san_tool communities FILE [--attribute-weight W]",
     "attribute-aware community detection",
     "Runs label-propagation community detection over the complete\n"
     "network, optionally mixing shared-attribute affinity into the edge\n"
     "weights, and prints community count and modularity.\n"
     "\n"
     "  --attribute-weight W   weight of shared attributes relative to\n"
     "                         social links (default: 0)\n"},
    {"live",
     "san_tool live FILE --workload W [--start D] [--cache N] [--batch B]"
     " [--stats-json FILE] [--trace FILE] [--stats-every N]",
     "replay FILE as a live ingest stream while serving queries",
     "Treats the SANv1 file as a future event stream: events up to day D\n"
     "seed a frozen history, the rest ingest at runtime through\n"
     "san::LiveTimeline as the workload's `ingest` lines advance the tip.\n"
     "Each ingested batch delta-appends into an idle epoch buffer (per-node\n"
     "slack) and is published as an immutable epoch by an atomic snapshot\n"
     "swap — queries never block on ingest. Query lines run through the\n"
     "same engine as `serve`: numeric times at or before D resolve exactly\n"
     "against the frozen history, times past D and the `now` token resolve\n"
     "against the latest published epoch. One result line per query on\n"
     "stdout; QPS, ingest rate, epoch count, and cache stats on stderr.\n"
     "\n"
     "  --workload W        workload file (required): `serve` grammar plus\n"
     "                      `ingest <tip>` lines, tips strictly increasing\n"
     "  --start D           seed horizon day, >= 0 (default: 0)\n"
     "  --cache N           frozen snapshots kept resident (default: 8)\n"
     "  --batch B           queries admitted per batch (default: 1024)\n"
     "  --stats-json FILE   write a flat JSON telemetry snapshot on exit:\n"
     "                      per-query-type latency percentiles, cache\n"
     "                      counters, ingest phase timings (absorb /\n"
     "                      advance / publish), ingest-to-publish\n"
     "                      latency, and the gap between epochs\n"
     "                      (enables latency capture)\n"
     "  --trace FILE        write a Chrome trace-event JSON of the\n"
     "                      recorded spans on exit; load it in Perfetto\n"
     "                      or chrome://tracing\n"
     "  --stats-every N     print a telemetry line to stderr every N\n"
     "                      ingest batches, N > 0 (enables latency\n"
     "                      capture)\n"
     "\n"
     "Telemetry is observation-only: stdout result lines are\n"
     "byte-identical with and without these flags, at any SAN_THREADS\n"
     "and SAN_SIMD.\n"
     "\n"
     "A link whose endpoint id has not been created yet is held and\n"
     "activates when the endpoint appears (the paper's links that predate\n"
     "a crawl's view of their endpoints); every published epoch is\n"
     "bit-identical to rebuilding a SanTimeline from the ingested log\n"
     "prefix at the same tip.\n"},
    {"serve",
     "san_tool serve FILE --workload W [--cache N] [--batch B]"
     " [--stats-json FILE] [--trace FILE] [--stats-every N]",
     "serve a query workload over cached timeline snapshots",
     "Loads the SAN, indexes it into a SanTimeline, and serves the\n"
     "workload through serve::QueryEngine: admission-ordered batches,\n"
     "snapshots resolved through an LRU serve::SnapshotCache (distinct\n"
     "cold days materialize concurrently), queries executed data-parallel\n"
     "(SAN_THREADS lanes). One result line per query on stdout; QPS and\n"
     "cache hit/miss/eviction stats on stderr.\n"
     "\n"
     "  --workload W   workload file, one query per line (required)\n"
     "  --cache N      snapshots kept resident, >= 1 (default: 8)\n"
     "  --batch B      queries admitted per batch, >= 1 (default: 1024)\n"
     "  --stats-json FILE   write a flat JSON telemetry snapshot on exit:\n"
     "                      per-query-type p50/p90/p99/p999 service\n"
     "                      latency, batch admission-to-completion\n"
     "                      latency, cache hit/miss/coalesce/eviction\n"
     "                      counters, and materialize-duration\n"
     "                      percentiles (enables latency capture)\n"
     "  --trace FILE        write a Chrome trace-event JSON of the\n"
     "                      recorded spans on exit; load it in Perfetto\n"
     "                      or chrome://tracing\n"
     "  --stats-every N     print a telemetry line to stderr every N\n"
     "                      batches, N > 0 (enables latency capture)\n"
     "\n"
     "Telemetry is observation-only: stdout result lines are\n"
     "byte-identical with and without these flags, at any SAN_THREADS\n"
     "and SAN_SIMD.\n"
     "\n"
     "Workload grammar (serve/query.hpp): blank lines and lines starting\n"
     "with '#' are skipped; every other line is one of\n"
     "\n"
     "  linkrec   <time> <user> <k>   top-k friend recommendation\n"
     "  attrs     <time> <user> <k>   top-k attribute inference\n"
     "  ego       <time> <user>       ego degree/reciprocity/2-hop metrics\n"
     "  recip     <time> <src> <dst>  will src -> dst reciprocate?\n"
     "  sybil     <time> <user>       accepted-Sybil bound for user's\n"
     "                                region (cached degree-bounded\n"
     "                                topology)\n"
     "  community <time> <user>       user's label + community size\n"
     "                                (cached label-propagation run)\n"
     "  influence <time> <k> [s...]   frontier-bounded greedy influence\n"
     "                                seeds (optional given seed list)\n"
     "\n"
     "<time> is a day on the snapshot grid (bit-exact cache key; NaN is\n"
     "rejected) or the token `now` (the complete network here; the latest\n"
     "published epoch under `live`), ids are the dense SANv1 node ids, and\n"
     "<k> must be > 0 (and at most 64 for influence, whose greedy cost\n"
     "grows with k). Malformed lines fail the load with their line\n"
     "number and the offending token (exit 1).\n"},
    {"listen",
     "san_tool listen FILE [--port P] [--start D] [--cache N] [--batch B]"
     " [--max-delay-us U] [--max-line-bytes N]"
     " [--max-outbound-bytes N] [--drain-timeout-ms N] [--sndbuf BYTES]"
     " [--stats-json FILE] [--trace FILE]",
     "serve the query grammar over a loopback TCP socket",
     "Serves the `serve`/`live` workload grammar over a newline-delimited\n"
     "protocol on a 127.0.0.1 TCP listener (serve::Server): one query or\n"
     "`ingest` line in, one result line out, rendered by the same code as\n"
     "file replay — piping a `genload` scenario over the socket yields\n"
     "response lines byte-identical to `serve`/`live` on the same file.\n"
     "Malformed lines come back as `ERR workload line N: <message>` with\n"
     "the same per-connection line numbers and messages file replay\n"
     "prints, instead of an exit. The first stderr line is\n"
     "`listening on 127.0.0.1:<port>` once the socket is ready.\n"
     "\n"
     "Queries from all connections are admission-batched into\n"
     "QueryEngine::run_batch: a batch flushes when it reaches --batch\n"
     "queries, when the event loop goes idle (no more lines waiting to\n"
     "be read), or --max-delay-us after its first admission under a\n"
     "trickle that never goes idle. Slow consumers get bounded outbound\n"
     "buffers and are disconnected (counted) rather than wedging the\n"
     "loop. SIGTERM or SIGINT drains gracefully: stop accepting, serve\n"
     "every line already received, flush responses, print final stats —\n"
     "no accepted query is dropped.\n"
     "\n"
     "  --port P            listen port; 0 = kernel-assigned ephemeral\n"
     "                      port, printed on stderr (default: 0)\n"
     "  --start D           live binding: seed the frozen history up to\n"
     "                      day D and route `ingest` lines through\n"
     "                      san::LiveTimeline exactly like `live --start\n"
     "                      D`. Without it the complete network serves\n"
     "                      statically and ingest lines are errors.\n"
     "  --cache N           frozen snapshots kept resident (default: 8)\n"
     "  --batch B           admission batch flush size (default: 1024)\n"
     "  --max-delay-us U    upper bound in microseconds on how long a\n"
     "                      batch waits for more queries while lines\n"
     "                      keep arriving (an idle loop flushes at\n"
     "                      once); 0 = flush every loop pass\n"
     "                      (default: 1000)\n"
     "  --max-line-bytes N  protocol line cap; longer lines get an ERR\n"
     "                      and a disconnect (default: 65536)\n"
     "  --max-outbound-bytes N  per-connection outbound buffer cap before\n"
     "                      a slow-consumer disconnect (default: 1048576)\n"
     "  --drain-timeout-ms N  bound on the final drain write-out\n"
     "                      (default: 5000)\n"
     "  --sndbuf BYTES      SO_SNDBUF for accepted sockets, 0 = kernel\n"
     "                      default (tests shrink it to force\n"
     "                      backpressure)\n"
     "  --stats-json FILE   write the flat JSON telemetry snapshot on\n"
     "                      exit — cache/serve keys as in `serve` plus\n"
     "                      the server.* schema: accepted, closed,\n"
     "                      slow_disconnects, oversize_disconnects,\n"
     "                      queries, ingests, parse_errors, batches,\n"
     "                      backpressure, dropped_responses,\n"
     "                      open_connections, and admission_wait /\n"
     "                      turnaround / batch_flush latency\n"
     "                      percentiles (enables latency capture)\n"
     "  --trace FILE        write a Chrome trace-event JSON on exit\n"},
    {"genload",
     "san_tool genload [--queries N] [--nodes N] [--seed S] [--zipf Z]"
     " [--mix SPEC] [--arrival MODEL] [--horizon D] [--now F] [--ingest F]"
     " -o FILE",
     "generate a reproducible scenario workload file",
     "Generates a seeded scenario workload in the `serve`/`live` grammar:\n"
     "Zipf-skewed user popularity over a shuffled id space, arrival times\n"
     "from a diurnal, bursty, or uniform process mapped onto the\n"
     "snapshot-day grid, a configurable query-kind mix over all seven\n"
     "kinds, and an optional read/ingest mix. Equal seed + flags produce\n"
     "a byte-identical file; with --ingest 0 the file is plain `serve`\n"
     "grammar, otherwise it gains strictly-advancing `ingest <tip>` lines\n"
     "for `live`.\n"
     "\n"
     "  --queries N        steps to emit (default: 1000)\n"
     "  --nodes N          user id space [0, N), > 0 (default: 20000)\n"
     "  --seed S           RNG seed (default: 42)\n"
     "  --zipf Z           popularity skew exponent, >= 0; 0 = uniform\n"
     "                     (default: 0.8)\n"
     "  --mix SPEC         query-kind mix `kind:weight,...` over\n"
     "                     linkrec/attrs/ego/recip/sybil/community/\n"
     "                     influence; omitted kinds get weight 0\n"
     "                     (default: 40:15:15:10:5:10:5 in that order)\n"
     "  --arrival MODEL    uniform|diurnal|bursty (default: diurnal)\n"
     "  --horizon D        arrival window [0, D] days, > 0 (default: 98)\n"
     "  --now F            fraction of queries addressing the live tip\n"
     "                     via the `now` token, in [0, 1] (default: 0.1)\n"
     "  --ingest F         fraction of steps emitted as `ingest` lines,\n"
     "                     in [0, 1] (default: 0)\n"
     "  -o FILE            output workload path (required)\n"},
};

void print_synopses(std::FILE* stream) {
  std::fprintf(stream, "usage:\n  san_tool help [COMMAND]\n");
  for (const auto& doc : kSubcommands) {
    std::fprintf(stream, "  %s\n", doc.synopsis);
  }
}

int usage() {
  print_synopses(stderr);
  std::fprintf(stderr,
               "exit codes: 0 success, 1 runtime failure, 2 usage error\n");
  return 2;
}

const SubcommandDoc* find_subcommand(const std::string& name) {
  for (const auto& doc : kSubcommands) {
    if (name == doc.name) return &doc;
  }
  return nullptr;
}

/// A usage error (exit 2): unknown subcommand or flag, bad or missing
/// flag value, missing positional. main() prints it with the usage text.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] __attribute__((format(printf, 1, 2))) void usage_error(
    const char* format, ...) {
  va_list args, sizing;
  va_start(args, format);
  va_copy(sizing, args);
  std::string message(std::vsnprintf(nullptr, 0, format, sizing), '\0');
  va_end(sizing);
  std::vsnprintf(message.data(), message.size() + 1, format, args);
  va_end(args);
  throw UsageError(message);
}

int cmd_help(const std::string& topic) {
  if (topic.empty()) {
    std::printf("san_tool — Social-Attribute Network toolkit"
                " (docs: README.md)\n\n");
    print_synopses(stdout);
    std::printf("\nsubcommands:\n");
    for (const auto& doc : kSubcommands) {
      std::printf("  %-12s %s\n", doc.name, doc.summary);
    }
    std::printf(
        "\nFILE arguments use the SANv1 text format"
        " (src/san/serialization.hpp).\n"
        "SAN_THREADS=<n> sets the parallel lane count; results are\n"
        "byte-identical at any thread count.\n"
        "SAN_SIMD=scalar|sse|avx2 forces the kernel dispatch level\n"
        "(byte-identical at every level; unknown values are a usage\n"
        "error).\n");
    std::printf("kernel dispatch: %s active, %s detected\n",
                core::simd::level_name(core::simd::active_level()),
                core::simd::level_name(core::simd::detected_level()));
    std::printf("exit codes: 0 success, 1 runtime failure, 2 usage error\n");
    return 0;
  }
  const SubcommandDoc* doc = find_subcommand(topic);
  if (doc == nullptr) usage_error("unknown command '%s'", topic.c_str());
  std::printf("usage: %s\n\n%s\n%s", doc->synopsis, doc->details,
              "exit codes: 0 success, 1 runtime failure, 2 usage error\n");
  return 0;
}

/// True when `token` is a flag (`-o`, `--cache`, ...) that `doc`'s
/// synopsis names — the one list of flags each subcommand accepts.
bool accepts_flag(const SubcommandDoc& doc, std::string_view token) {
  if (!token.starts_with('-')) return false;
  std::string_view rest = doc.synopsis;
  while (!rest.empty()) {
    const std::size_t space = rest.find(' ');
    std::string_view word = rest.substr(0, space);
    rest = space == std::string_view::npos ? "" : rest.substr(space + 1);
    if (word.starts_with('[')) word.remove_prefix(1);
    if (word.ends_with(']')) word.remove_suffix(1);
    if (word == token) return true;
  }
  return false;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

/// A subcommand's flag/value pairs, checked before any is read: each flag
/// one the synopsis names, given at most once, and followed by a value
/// that is not itself an accepted flag (so a trailing or skipped value is
/// reported instead of swallowing the next flag). The typed reads parse
/// strictly (core/parse.hpp, no atof/atol-style silent zero) and report a
/// bad value as `invalid --FLAG 'VALUE' (need RANGE)`.
class Flags {
 public:
  Flags(const SubcommandDoc& doc, int argc, char** argv, int first)
      : doc_(doc) {
    for (int i = first; i < argc; i += 2) {
      if (!accepts_flag(doc, argv[i])) {
        usage_error(argv[i][0] == '-' ? "unknown flag '%s' for %s"
                                      : "unexpected argument '%s' for %s",
                    argv[i], doc.name);
      }
      if (i + 1 == argc || accepts_flag(doc, argv[i + 1])) {
        usage_error("%s needs a value", argv[i]);
      }
      if (text(argv[i]) != nullptr) usage_error("%s given twice", argv[i]);
      values_.emplace_back(argv[i], argv[i + 1]);
    }
  }

  /// The value given for `flag`, or `fallback` when it is absent.
  const char* text(std::string_view flag,
                   const char* fallback = nullptr) const {
    for (const auto& [name, value] : values_) {
      if (name == flag) return value;
    }
    return fallback;
  }

  /// The value of a flag the subcommand cannot run without.
  const char* required(const char* flag) const {
    const char* value = text(flag);
    if (value == nullptr) usage_error("%s requires %s FILE", doc_.name, flag);
    return value;
  }

  /// An integer in [lo, hi], or `fallback` when the flag is absent.
  std::uint64_t integer(const char* flag, std::uint64_t fallback,
                        std::uint64_t lo = 0,
                        std::uint64_t hi = kMaxU64) const {
    const char* value = text(flag);
    std::uint64_t out = fallback;
    if (value != nullptr &&
        (!core::parse_u64_strict(value, out) || out < lo || out > hi)) {
      if (hi == kMaxU64) {
        usage_error("invalid %s '%s' (need an integer >= %llu)", flag, value,
                    static_cast<unsigned long long>(lo));
      }
      usage_error("invalid %s '%s' (need an integer in [%llu, %llu])", flag,
                  value, static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
    }
    return out;
  }

  /// A number in [lo, hi] (above lo when `above`), or `fallback` when the
  /// flag is absent. Infinities parse; NaN never does.
  double number(const char* flag, double fallback, double lo = -kInf,
                double hi = kInf, bool above = false) const {
    const char* value = text(flag);
    double out = fallback;
    if (value != nullptr && (!core::parse_double_strict(value, out) ||
                             out < lo || (above && out == lo) || out > hi)) {
      if (hi < kInf) {
        usage_error("invalid %s '%s' (need a number in [%g, %g])", flag,
                    value, lo, hi);
      }
      if (lo > -kInf) {
        usage_error("invalid %s '%s' (need a number %s %g)", flag, value,
                    above ? ">" : ">=", lo);
      }
      usage_error("invalid %s '%s' (need a number)", flag, value);
    }
    return out;
  }

 private:
  const SubcommandDoc& doc_;
  std::vector<std::pair<std::string_view, const char*>> values_;
};

/// With SIGPIPE ignored a dead stdout (closed pipe, full disk) surfaces
/// as a buffered-stdio error instead of killing the process; flush after
/// every result batch so truncation fails the run instead of looking
/// like success.
void flush_stdout() {
  if (std::fflush(stdout) != 0 || std::ferror(stdout) != 0) {
    throw std::runtime_error(
        "short write to stdout (closed pipe or full disk)");
  }
}

int cmd_generate(const Flags& flags) {
  const std::string kind = flags.text("--kind", "model");
  const std::size_t nodes = flags.integer("--nodes", 20000);
  const std::uint64_t seed = flags.integer("--seed", 42);
  const char* out = flags.required("-o");

  SocialAttributeNetwork net;
  if (kind == "model") {
    model::GeneratorParams params;
    params.social_node_count = nodes;
    params.seed = seed;
    net = model::generate_san(params);
  } else if (kind == "zhel") {
    model::ZhelParams params;
    params.social_node_count = nodes;
    params.seed = seed;
    net = model::generate_zhel(params);
  } else if (kind == "gplus") {
    crawl::SyntheticGplusParams params;
    params.total_social_nodes = nodes;
    params.seed = seed;
    net = crawl::generate_synthetic_gplus(params);
  } else {
    usage_error("unknown --kind '%s'", kind.c_str());
  }
  save_san(net, std::string(out));
  std::printf("wrote %s: %zu social nodes, %llu social links, %zu attributes,"
              " %llu attribute links\n",
              out, net.social_node_count(),
              static_cast<unsigned long long>(net.social_link_count()),
              net.attribute_node_count(),
              static_cast<unsigned long long>(net.attribute_link_count()));
  return 0;
}

int cmd_measure(const Flags& flags, const char* path) {
  const double day = flags.number("--day", 1e300);
  const auto net = load_san(path);
  const auto snap = day >= 1e300 ? snapshot_full(net) : snapshot_at(net, day);

  std::printf("social nodes:        %zu\n", snap.social_node_count());
  std::printf("attribute nodes:     %zu (populated %zu)\n",
              snap.attribute_node_count(), snap.populated_attribute_count());
  std::printf("social links:        %llu\n",
              static_cast<unsigned long long>(snap.social_link_count()));
  std::printf("attribute links:     %llu\n",
              static_cast<unsigned long long>(snap.attribute_link_count));
  std::printf("reciprocity:         %.4f\n", graph::reciprocity(snap.social));
  std::printf("social density:      %.3f\n", graph::density(snap.social));
  std::printf("attribute density:   %.3f\n", attribute_density(snap));
  std::printf("assortativity:       %+.4f\n",
              graph::assortativity(snap.social));

  graph::ClusteringOptions cc;
  cc.epsilon = 0.01;
  std::printf("social clustering:   %.4f\n",
              graph::approx_average_clustering(snap.social, cc));
  std::printf("attribute clustering:%.4f\n",
              average_attribute_clustering(snap, cc));

  if (snap.social_link_count() > 100) {
    const auto out_sel =
        stats::select_degree_model(graph::out_degree_histogram(snap.social), 1);
    std::printf("outdegree best fit:  %s (lognormal mu=%.2f sigma=%.2f)\n",
                to_string(out_sel.best).c_str(), out_sel.lognormal.mu,
                out_sel.lognormal.sigma);
  }
  return 0;
}

/// Number of distinct timestamps over every node and link of `net`.
std::size_t distinct_event_times(const SocialAttributeNetwork& net) {
  std::vector<double> times(net.social_node_times().begin(),
                            net.social_node_times().end());
  times.insert(times.end(), net.attribute_node_times().begin(),
               net.attribute_node_times().end());
  for (const auto& e : net.social_log()) times.push_back(e.time);
  for (const auto& l : net.attribute_log()) times.push_back(l.time);
  std::sort(times.begin(), times.end());
  return static_cast<std::size_t>(
      std::unique(times.begin(), times.end()) - times.begin());
}

int cmd_snapshots(const Flags& flags, const char* path) {
  const double step = flags.number("--step", 1.0, 0.0, kInf, /*above=*/true);
  const auto net = load_san(path);
  const SanTimeline timeline(net);

  // Size the grid before allocating it. Consecutive rows differ only when
  // an event time falls between them, so no more rows than the distinct
  // event times (plus an empty first day) can differ; a finer step only
  // repeats rows, and a tiny one would grow the grid without bound.
  const std::size_t distinct_rows = distinct_event_times(net) + 1;
  const double grid = std::ceil(timeline.max_time() / step);
  if (!(grid <= static_cast<double>(distinct_rows))) {
    usage_error("invalid --step '%s' (%.3g snapshots over %g days; this "
                "file's distinct event times back at most %zu)",
                flags.text("--step", "1"), grid, timeline.max_time(),
                distinct_rows);
  }

  // Integer-index grid: repeated `day += step` accumulates rounding error
  // and can emit two nearly-identical final snapshots.
  std::vector<double> days;
  for (std::size_t i = 1;; ++i) {
    const double day = step * static_cast<double>(i);
    if (day >= timeline.max_time()) {
      days.push_back(timeline.max_time());
      break;
    }
    days.push_back(day);
  }
  std::printf("%8s %12s %12s %14s %12s %12s %10s\n", "day", "nodes", "links",
              "attr-nodes", "attr-links", "density", "attr-dens");
  timeline.sweep(days, [](double day, const SanSnapshot& snap) {
    std::printf("%8.2f %12zu %12llu %14zu %12llu %12.4f %10.3f\n", day,
                snap.social_node_count(),
                static_cast<unsigned long long>(snap.social_link_count()),
                snap.attribute_node_count(),
                static_cast<unsigned long long>(snap.attribute_link_count),
                graph::density(snap.social), attribute_density(snap));
  });
  std::printf("(%zu snapshots; indexed %llu social + %llu attribute links"
              " once, delta-advanced per day)\n",
              days.size(),
              static_cast<unsigned long long>(timeline.social_link_total()),
              static_cast<unsigned long long>(timeline.attribute_link_total()));
  return 0;
}

int cmd_crawl(const Flags& flags, const char* path) {
  const double day = flags.number("--day", 1e300);
  const double privacy = flags.number("--private", 0.12, 0.0, 1.0);
  const char* out = flags.required("-o");

  const auto truth = load_san(path);
  crawl::CrawlerOptions options;
  options.private_profile_prob = privacy;
  const auto result = crawl::crawl_at(
      truth, day >= 1e300 ? std::numeric_limits<double>::max() : day, options);
  save_san(result.network, std::string(out));
  std::printf("crawled %zu/%zu nodes (%.1f%%), link coverage %.1f%% -> %s\n",
              result.network.social_node_count(), truth.social_node_count(),
              100.0 * result.node_coverage, 100.0 * result.link_coverage, out);
  return 0;
}

int cmd_communities(const Flags& flags, const char* path) {
  const double weight = flags.number("--attribute-weight", 0.0);
  const auto net = load_san(path);
  const auto snap = snapshot_full(net);
  apps::CommunityOptions options;
  options.attribute_weight = weight;
  const auto result = apps::detect_communities(snap, options);
  std::printf("communities: %zu (after %d iterations), modularity %.4f\n",
              result.community_count, result.iterations,
              apps::modularity(snap, result.label));
  return 0;
}

/// The flags `serve`, `live` and `listen` share. Reading them also flips
/// the obs capture switches, so instrumented sites start reading the
/// clock only when a sink asked for the data.
struct SessionOptions {
  /// Seed horizon of the live binding; none serves the complete network.
  std::optional<double> start;
  std::size_t cache_size = 8;
  std::size_t batch_size = 1024;
  const char* stats_json = nullptr;
  const char* trace = nullptr;
  std::size_t stats_every = 0;  // 0 = no periodic stderr line
};

/// `live` always binds (default --start 0), `listen` only when --start is
/// given, `serve` never (its synopsis has no --start). Output paths are
/// probed writable up front — a long session must not discover a bad sink
/// path at export time.
SessionOptions read_session_options(const Flags& flags, bool always_live) {
  SessionOptions options;
  if (always_live || flags.text("--start") != nullptr) {
    options.start = flags.number("--start", 0.0, 0.0);
  }
  options.cache_size = flags.integer("--cache", options.cache_size, 1);
  options.batch_size = flags.integer("--batch", options.batch_size, 1);
  options.stats_json = flags.text("--stats-json");
  options.trace = flags.text("--trace");
  options.stats_every = flags.integer("--stats-every", 0, 1);
  for (const char* sink : {options.stats_json, options.trace}) {
    if (sink == nullptr) continue;
    std::FILE* probe = std::fopen(sink, "w");
    if (probe == nullptr) usage_error("unwritable output path '%s'", sink);
    std::fclose(probe);
  }
  if (options.stats_json != nullptr || options.stats_every != 0) {
    obs::set_timing_enabled(true);
  }
  if (options.trace != nullptr) obs::set_tracing_enabled(true);
  return options;
}

double seconds_since(std::chrono::steady_clock::time_point begin) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

/// A SANv1 file's network and the seconds load_san took to read it.
struct TimedLoad {
  explicit TimedLoad(const char* path) {
    const auto begin = std::chrono::steady_clock::now();
    net = load_san(path);
    seconds = seconds_since(begin);
  }
  SocialAttributeNetwork net;
  double seconds = 0.0;
};

/// The serving stack behind `serve`, `live` and `listen`: a frozen
/// timeline behind the LRU snapshot cache, an optional live binding, the
/// query engine, and a registry with all of their telemetry attached.
/// With a --start day, events up to it seed the frozen history and the
/// rest become the LiveReplay stream that ingest() hands to a
/// LiveTimeline; the cache resolves later times and `now` to its latest
/// published epoch. The loaded network is released once the timelines are
/// built: serving never reads it. The registry reports the startup stages
/// once: `session.load_s` (load_san) and `session.build_s` (the replay
/// split, the live seed and both timelines).
struct Session {
  Session(const char* path, const SessionOptions& session_options)
      : Session(TimedLoad(path), session_options) {}

  Session(const TimedLoad& loaded, const SessionOptions& session_options)
      : options(session_options),
        replay(options.start ? std::optional<LiveReplay>(std::in_place,
                                                         loaded.net,
                                                         *options.start)
                             : std::nullopt),
        frozen(replay ? replay->seed : loaded.net),
        cache(frozen, options.cache_size) {
    if (replay) {
      LiveTimelineOptions live_options;
      live_options.initial_tip = *options.start;  // attr catalog times may
                                                  // lie ahead
      live.emplace(replay->seed, live_options);
      cache.bind_live(*live, *options.start);
      replay->seed = SocialAttributeNetwork{};  // both timelines copied it
      live->register_metrics(registry, "live");
    }
    registry.attach_fn("session.load_s",
                       [seconds = loaded.seconds] { return seconds; });
    registry.attach_fn("session.build_s",
                       [seconds = seconds_since(build_begin)] {
                         return seconds;
                       });
    cache.register_metrics(registry, "cache");
    engine.register_metrics(registry, "serve");
    // One-shot kernel-dispatch info (numeric levels; the names stay on
    // the human-readable stderr lines).
    registry.attach_fn("simd.active_level", [] {
      return static_cast<double>(core::simd::active_level());
    });
    registry.attach_fn("simd.detected_level", [] {
      return static_cast<double>(core::simd::detected_level());
    });
  }

  /// One `ingest <tip>` line: hand the replay's events up to `tip` to the
  /// live timeline. On false, `error` says why the line was rejected:
  /// there is no live binding, or the tip is bad (e.g. not strictly
  /// advancing) — validate-before-mutate leaves the timeline usable.
  bool ingest(double tip, std::string& error) {
    if (!live) {
      error = "ingest lines need a live binding (listen --start D)";
      return false;
    }
    try {
      const IngestBatch batch = replay->batch_until(tip);
      const auto begin = std::chrono::steady_clock::now();
      live->ingest(batch);
      ingest_seconds += seconds_since(begin);
      ingested_events += batch.social_nodes.size() +
                         batch.social_links.size() +
                         batch.attribute_links.size();
      return true;
    } catch (const std::exception& e) {
      error = e.what();
      return false;
    }
  }

  /// Write the requested sinks; 1 (runtime failure) when a
  /// probed-writable path stopped being writable mid-session.
  int export_telemetry() const {
    const bool stats_ok = options.stats_json == nullptr ||
                          registry.write_json(options.stats_json);
    const bool trace_ok =
        options.trace == nullptr || obs::write_chrome_trace(options.trace);
    return stats_ok && trace_ok ? 0 : 1;
  }

  const SessionOptions options;
  // Initialised before the replay split, so build_s times all of it.
  const std::chrono::steady_clock::time_point build_begin =
      std::chrono::steady_clock::now();
  std::optional<LiveReplay> replay;  // the future event stream (live)
  SanTimeline frozen;
  serve::SnapshotCache cache;
  std::optional<LiveTimeline> live;
  serve::QueryEngine engine{cache};
  obs::Registry registry;
  std::size_t ingested_events = 0;
  double ingest_seconds = 0.0;  // inside LiveTimeline::ingest only
};

double snapshot_value(
    const std::vector<std::pair<std::string, double>>& snapshot,
    const char* name) {
  for (const auto& [key, value] : snapshot) {
    if (key == name) return value;
  }
  return 0.0;
}

/// `serve` and `live`: file replay through a session. Queries queue until
/// a batch fills or an `ingest` line arrives, which runs them first and
/// then advances the live tip — the order `listen` runs a connection's
/// lines in, so socket and file replay give the same bytes.
int cmd_replay(const Flags& flags, const char* path, bool live_replay) {
  const char* workload_path = flags.required("--workload");
  Session session(path, read_session_options(flags, live_replay));
  std::vector<serve::WorkloadStep> steps;
  if (live_replay) {
    steps = serve::load_live_workload(workload_path);
  } else {
    // `serve`'s loader refuses ingest lines.
    for (auto& query : serve::load_workload(workload_path)) {
      steps.emplace_back().query = std::move(query);
    }
  }

  LiveTimeline* live = session.live ? &*session.live : nullptr;
  const std::size_t every = session.options.stats_every;
  std::vector<serve::Query> queued;
  std::size_t served = 0, batches = 0, ingests = 0;
  double query_seconds = 0.0;
  const auto run_queued = [&] {
    if (queued.empty()) return;
    const auto begin = std::chrono::steady_clock::now();
    const auto results = session.engine.run_batch(queued);
    for (std::size_t i = 0; i < results.size(); ++i) {
      std::printf("%s\n", results[i].to_line(queued[i]).c_str());
    }
    query_seconds += seconds_since(begin);
    served += queued.size();
    queued.clear();
    flush_stdout();
    ++batches;
    if (!live && every != 0 && batches % every == 0) {
      const auto snap = session.registry.snapshot();
      std::fprintf(stderr,
                   "telemetry[batch %zu]: served %zu queries; batch p99"
                   " %.1f us; cache %.0f hits, %.0f misses\n",
                   batches, served, snapshot_value(snap, "serve.batch.p99_us"),
                   snapshot_value(snap, "cache.hits"),
                   snapshot_value(snap, "cache.misses"));
    }
  };

  std::string error;
  for (const auto& step : steps) {
    if (!step.ingest) {
      queued.push_back(step.query);
      if (queued.size() < session.options.batch_size) continue;
    }
    run_queued();
    if (!step.ingest) continue;
    if (!session.ingest(step.tip, error)) throw std::runtime_error(error);
    ++ingests;
    if (every != 0 && ingests % every == 0) {
      const auto snap = session.registry.snapshot();
      std::fprintf(stderr,
                   "telemetry[batch %zu]: tip %.2f, %.0f epochs;"
                   " ingest_to_publish p99 %.1f us; cache %.0f hits,"
                   " %.0f misses\n",
                   ingests, live->tip_time(),
                   snapshot_value(snap, "live.epochs"),
                   snapshot_value(snap, "live.ingest_to_publish.p99_us"),
                   snapshot_value(snap, "cache.hits"),
                   snapshot_value(snap, "cache.misses"));
    }
  }
  run_queued();

  const auto cache_stats = session.cache.stats();
  const char* kernels = core::simd::level_name(core::simd::active_level());
  const double qps = query_seconds > 0.0 ? served / query_seconds : 0.0;
  if (!live) {
    std::fprintf(stderr,
                 "served %zu queries in %.3f s (%.0f queries/s); snapshot"
                 " cache: %llu hits, %llu misses, %llu evictions; kernels:"
                 " %s\n",
                 served, query_seconds, qps,
                 static_cast<unsigned long long>(cache_stats.hits),
                 static_cast<unsigned long long>(cache_stats.misses),
                 static_cast<unsigned long long>(cache_stats.evictions),
                 kernels);
    return session.export_telemetry();
  }
  const auto live_stats = live->stats();
  const double ingest_seconds = session.ingest_seconds;
  std::fprintf(
      stderr,
      "served %zu queries in %.3f s (%.0f queries/s); ingested %zu events"
      " over %zu batches in %.3f s (%.0f events/s)\n",
      served, query_seconds, qps, session.ingested_events, ingests,
      ingest_seconds,
      ingest_seconds > 0.0 ? session.ingested_events / ingest_seconds : 0.0);
  std::fprintf(
      stderr,
      "live tip %.2f after %llu epochs (%llu activated, %llu pending,"
      " %llu late batches); cache: %llu hits, %llu misses, %llu live hits;"
      " kernels: %s\n",
      live->tip_time(), static_cast<unsigned long long>(live_stats.epochs),
      static_cast<unsigned long long>(live_stats.activated_links),
      static_cast<unsigned long long>(live_stats.pending_links),
      static_cast<unsigned long long>(live_stats.late_batches),
      static_cast<unsigned long long>(cache_stats.hits),
      static_cast<unsigned long long>(cache_stats.misses),
      static_cast<unsigned long long>(cache_stats.live_hits), kernels);
  return session.export_telemetry();
}

/// The running server, for the SIGTERM/SIGINT handler. request_drain()
/// is async-signal-safe (one eventfd write), so the handler body is too.
serve::Server* g_server = nullptr;

int cmd_listen(const Flags& flags, const char* path) {
  serve::ServerOptions server_options;
  server_options.port =
      static_cast<std::uint16_t>(flags.integer("--port", 0, 0, 65535));
  server_options.max_delay_us =
      flags.integer("--max-delay-us", server_options.max_delay_us);
  server_options.max_line_bytes =
      flags.integer("--max-line-bytes", server_options.max_line_bytes, 1);
  server_options.max_outbound_bytes = flags.integer(
      "--max-outbound-bytes", server_options.max_outbound_bytes, 1);
  server_options.drain_timeout_ms =
      flags.integer("--drain-timeout-ms", server_options.drain_timeout_ms);
  server_options.sndbuf_bytes =
      static_cast<int>(flags.integer("--sndbuf", 0, 0, 0x7fffffff));
  Session session(path, read_session_options(flags, false));
  server_options.batch_size = session.options.batch_size;
  serve::Server server(session.engine, server_options);
  server.register_metrics(session.registry, "server");
  // The server runs a connection's pending queries before calling this,
  // so the batch lands between the same neighbours as in file replay.
  server.set_ingest_handler([&session](double tip, std::string& error) {
    return session.ingest(tip, error);
  });

  g_server = &server;
  struct sigaction action {};
  action.sa_handler = [](int) {
    if (g_server != nullptr) g_server->request_drain();
  };
  sigemptyset(&action.sa_mask);
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);

  // The first stderr line, so harnesses can scrape the bound port.
  std::fprintf(stderr, "listening on 127.0.0.1:%u\n",
               static_cast<unsigned>(server.port()));
  std::fflush(stderr);
  server.run();
  g_server = nullptr;

  const auto stats = server.stats();
  std::fprintf(
      stderr,
      "drained: %llu connections (%llu slow, %llu oversize), %llu queries"
      " in %llu batches, %llu ingests, %llu parse errors,"
      " %llu backpressure stalls, %llu dropped responses; kernels: %s\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.slow_disconnects),
      static_cast<unsigned long long>(stats.oversize_disconnects),
      static_cast<unsigned long long>(stats.queries),
      static_cast<unsigned long long>(stats.batches),
      static_cast<unsigned long long>(stats.ingests),
      static_cast<unsigned long long>(stats.parse_errors),
      static_cast<unsigned long long>(stats.backpressure),
      static_cast<unsigned long long>(stats.dropped_responses),
      core::simd::level_name(core::simd::active_level()));
  return session.export_telemetry();
}

int cmd_genload(const Flags& flags) {
  serve::GenloadOptions options;
  options.queries = flags.integer("--queries", options.queries);
  options.nodes = flags.integer("--nodes", options.nodes, 1);
  options.seed = flags.integer("--seed", options.seed);
  options.zipf = flags.number("--zipf", options.zipf, 0.0);
  options.horizon =
      flags.number("--horizon", options.horizon, 0.0, kInf, /*above=*/true);
  options.now_fraction = flags.number("--now", options.now_fraction, 0.0, 1.0);
  options.ingest_fraction =
      flags.number("--ingest", options.ingest_fraction, 0.0, 1.0);
  const char* mix_text = flags.text("--mix");
  if (mix_text != nullptr && !serve::parse_mix(mix_text, options.mix)) {
    usage_error("invalid --mix '%s' (need kind:weight,... over known kinds,"
                " weights >= 0, not all zero)",
                mix_text);
  }
  const char* arrival_text = flags.text("--arrival", "diurnal");
  if (!serve::parse_arrival(arrival_text, options.arrival)) {
    usage_error("invalid --arrival '%s' (need uniform|diurnal|bursty)",
                arrival_text);
  }
  const char* out = flags.required("-o");

  const std::string text = serve::generate_workload(options);
  std::FILE* file = std::fopen(out, "w");
  if (file == nullptr) usage_error("unwritable output path '%s'", out);
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const bool flushed = std::fclose(file) == 0;
  if (written != text.size() || !flushed) {
    std::fprintf(stderr, "error: short write to %s\n", out);
    return 1;
  }
  std::size_t ingest_lines = 0, query_lines = 0;
  for (const auto& step : serve::parse_live_workload(text)) {
    if (step.ingest) ++ingest_lines;
    else ++query_lines;
  }
  std::printf("wrote %s: %zu queries, %zu ingest lines (seed %llu, %s"
              " arrivals, zipf %.3g)\n",
              out, query_lines, ingest_lines,
              static_cast<unsigned long long>(options.seed), arrival_text,
              options.zipf);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // SIGPIPE off: a peer (or a closed stdout pipe) must surface as a
  // write error at the call site — send()/fflush() failure — not kill
  // the process silently mid-replay or mid-serve.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "help" || command == "--help" || command == "-h") {
      return cmd_help(argc >= 3 ? argv[2] : "");
    }
    const SubcommandDoc* doc = find_subcommand(command);
    if (doc == nullptr) usage_error("unknown command '%s'", command.c_str());
    // --help/-h anywhere after the subcommand.
    if (std::any_of(argv + 2, argv + argc, [](std::string_view arg) {
          return arg == "--help" || arg == "-h";
        })) {
      return cmd_help(command);
    }
    // An unparseable SAN_SIMD is as bad as a bad flag value: refuse it up
    // front instead of silently running on the detected level.
    if (const char* bad = core::simd::env_error()) {
      usage_error("invalid SAN_SIMD '%s' (need scalar|sse|avx2)", bad);
    }
    // A subcommand takes a positional FILE exactly when its synopsis says so.
    const std::string file_usage = "san_tool " + command + " FILE";
    const bool takes_file =
        std::string_view(doc->synopsis).starts_with(file_usage);
    if (takes_file && (argc < 3 || argv[2][0] == '-')) {
      usage_error("%s requires a positional FILE argument", doc->name);
    }
    const char* path = takes_file ? argv[2] : nullptr;
    const Flags flags(*doc, argc, argv, takes_file ? 3 : 2);
    if (command == "generate") return cmd_generate(flags);
    if (command == "measure") return cmd_measure(flags, path);
    if (command == "snapshots") return cmd_snapshots(flags, path);
    if (command == "crawl") return cmd_crawl(flags, path);
    if (command == "communities") return cmd_communities(flags, path);
    if (command == "serve") return cmd_replay(flags, path, false);
    if (command == "live") return cmd_replay(flags, path, true);
    if (command == "listen") return cmd_listen(flags, path);
    return cmd_genload(flags);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
