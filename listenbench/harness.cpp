// listenbench_harness — the traced in-process replay of the `san_tool
// listen` benchmark (see README.md in this directory).
//
//   listenbench_harness --san FILE --mode static|live
//       --bulk FILE --bulk-lines N --batch B
//       --probe FILE --probe-lines M --spans OUT
//
// Replays the line sequence a benchmark run sent over the socket in its
// first bulk repetition and its probe phase through the public calls
// `listen` makes, once with spans recorded and once without (the
// difference is the tracing overhead). Each phase starts from fresh
// serving state, as each phase of the socket run starts a fresh `listen`:
//
//   bulk   the first N lines of the bulk file (wrapping around), queries
//          cut into admission batches of B and at every ingest line;
//   probe  the first M lines of the probe file, one item (a query plus
//          the ingest lines before it) at a time.
//
// Every batch resolves each of its snapshots through SnapshotCache::at
// and the derived state it needs through DerivedCache before
// QueryEngine::run_batch runs the snapshot's queries one single-kind
// slice at a time, so each layer's cost lands in its own span (the
// engine's own lookups then hit). The spans — name, start,
// end, parent, request id and an item count — stay in memory and are
// written to OUT at exit as tab-separated rows; the last stdout line is
// a JSON object of the counters the spans cannot carry.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "san/live_replay.hpp"
#include "san/live_timeline.hpp"
#include "san/serialization.hpp"
#include "san/timeline.hpp"
#include "serve/query.hpp"
#include "serve/query_engine.hpp"
#include "serve/snapshot_cache.hpp"

namespace {

using namespace san;
using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  // index into the span list, -1 for the root
  std::int64_t request = -1;
  std::uint64_t items = 0;   // lines or queries the span covers
};

/// In-memory span recorder. Disabled, it only runs the timed calls.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  std::int64_t now() const {
    return enabled_ ? std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - origin_)
                          .count()
                    : 0;
  }
  /// Opens a span; close it with end(). Returns its index (or -1).
  std::int64_t begin(std::string name, std::int64_t parent,
                     std::int64_t request, std::uint64_t items = 0) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), now(), 0, parent, request, items});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void end(std::int64_t span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end_ns = now();
  }
  /// Renames an open span once its outcome (hit, miss, build) is known.
  void rename(std::int64_t span, std::string name) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].name = std::move(name);
  }
  /// Runs `fn` inside a span.
  template <typename Fn>
  auto timed(std::string name, std::int64_t parent, std::int64_t request,
             std::uint64_t items, Fn&& fn) {
    const std::int64_t span = begin(std::move(name), parent, request, items);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      end(span);
    } else {
      auto result = fn();
      end(span);
      return result;
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "listenbench_harness: %s\n", message.c_str());
  std::exit(1);
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) die("no lines in " + path);
  return lines;
}

/// The first `count` lines of `lines`, wrapping around.
std::vector<std::string> take_cycled(const std::vector<std::string>& lines,
                                     std::size_t count) {
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(lines[i % lines.size()]);
  return out;
}

/// Counters gathered across one replay pass (spans carry the timings).
struct Counters {
  std::uint64_t cache_hits = 0, cache_misses = 0, cache_evictions = 0;
  std::uint64_t derived_hits = 0, derived_builds = 0;
  std::uint64_t ingest_events = 0, epochs = 0;
  std::int64_t probe_first_request = -1;  // probe items follow bulk batches
};

/// One phase's serving state: what `listen` builds before it accepts a
/// connection, static or bound to a live frontier at --start 0.
struct ServingState {
  std::unique_ptr<LiveReplay> replay;
  std::unique_ptr<LiveTimeline> live;
  std::unique_ptr<SanTimeline> timeline;
  std::unique_ptr<serve::SnapshotCache> cache;
  std::unique_ptr<serve::QueryEngine> engine;

  ServingState(const SocialAttributeNetwork& net, bool live_mode,
               Tracer& tracer, std::int64_t root) {
    constexpr std::size_t kCacheSize = 8;  // listen's --cache default
    if (!live_mode) {
      timeline = tracer.timed("timeline.build", root, -1, 0, [&] {
        return std::make_unique<SanTimeline>(net);
      });
      cache = std::make_unique<serve::SnapshotCache>(*timeline, kCacheSize);
    } else {
      const std::int64_t seed = tracer.begin("live.seed", root, -1);
      replay = std::make_unique<LiveReplay>(net, 0.0);
      LiveTimelineOptions options;
      options.initial_tip = 0.0;
      live = std::make_unique<LiveTimeline>(replay->seed, options);
      tracer.end(seed);
      timeline = tracer.timed("timeline.build", root, -1, 0, [&] {
        return std::make_unique<SanTimeline>(replay->seed);
      });
      cache = std::make_unique<serve::SnapshotCache>(*timeline, kCacheSize);
      cache->bind_live(*live, 0.0);
    }
    engine = std::make_unique<serve::QueryEngine>(*cache);
  }
};

/// Replays one admission batch the way Server::flush_pending hands it to
/// the engine, with every layer's share in its own span.
void run_batch(ServingState& state, const std::vector<std::string>& lines,
               std::size_t first_line_no, Tracer& tracer, std::int64_t root,
               std::int64_t request, Counters& counters) {
  std::vector<serve::Query> queries;
  queries.reserve(lines.size());
  tracer.timed("query.parse", root, request, lines.size(), [&] {
    serve::WorkloadStep step;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (serve::parse_workload_line(lines[i], first_line_no + i, step)) {
        queries.push_back(step.query);
      }
    }
  });

  // One group per distinct time, in first-appearance order (the
  // engine's own resolve order): the snapshot, the derived state the
  // group needs, then one run_batch per kind over the group's queries of
  // that kind. Results return to their admission slots.
  std::vector<double> times;
  for (const auto& query : queries) {
    if (std::find(times.begin(), times.end(), query.time) == times.end()) {
      times.push_back(query.time);
    }
  }
  std::vector<serve::QueryResult> results(queries.size());
  const auto& derived_options = state.engine->options().derived;
  for (const double time : times) {
    const auto before = state.cache->stats();
    const std::int64_t at = tracer.begin("snapshot_cache.at", root, request);
    const auto snap = state.cache->at(time);
    tracer.end(at);
    const auto after = state.cache->stats();
    if (after.live_hits > before.live_hits) {
      tracer.rename(at, "live.tip");
    } else if (after.misses > before.misses) {
      tracer.rename(at, "snapshot_cache.miss");
      ++counters.cache_misses;
    } else {
      tracer.rename(at, "snapshot_cache.hit");
      ++counters.cache_hits;
    }
    for (std::size_t k = 0; k < serve::kQueryKindCount; ++k) {
      const auto kind = static_cast<serve::QueryKind>(k);
      std::vector<serve::Query> slice;
      std::vector<std::size_t> slots;
      for (std::size_t i = 0; i < queries.size(); ++i) {
        if (queries[i].kind == kind && queries[i].time == time) {
          slice.push_back(queries[i]);
          slots.push_back(i);
        }
      }
      if (slice.empty()) continue;
      if (kind == serve::QueryKind::kSybil ||
          kind == serve::QueryKind::kCommunity) {
        auto& derived = state.cache->derived();
        const std::uint64_t misses = derived.misses();
        const std::int64_t span =
            tracer.begin("derived_cache.lookup", root, request);
        if (kind == serve::QueryKind::kSybil) {
          derived.sybil(snap, derived_options.sybil);
        } else {
          derived.community(snap, derived_options.community);
        }
        tracer.end(span);
        if (derived.misses() > misses) {
          tracer.rename(span, kind == serve::QueryKind::kSybil
                                  ? "derived_cache.sybil_build"
                                  : "derived_cache.community_build");
          ++counters.derived_builds;
        } else {
          tracer.rename(span, "derived_cache.hit");
          ++counters.derived_hits;
        }
      }
      auto out = tracer.timed(
          std::string("query_engine.execute.") + serve::to_string(kind), root,
          request, slice.size(), [&] {
            return state.engine->run_batch(
                std::span<const serve::Query>(slice));
          });
      for (std::size_t i = 0; i < slots.size(); ++i) {
        results[slots[i]] = std::move(out[i]);
      }
    }
  }

  std::uint64_t rendered = 0;
  tracer.timed("query.render", root, request, queries.size(), [&] {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      rendered += results[i].to_line(queries[i]).size();
    }
  });
  if (rendered == 0) die("rendered nothing");
}

/// One `ingest <tip>` line, as listen's ingest handler runs it.
void run_ingest(ServingState& state, const std::string& line, Tracer& tracer,
                std::int64_t root, std::int64_t request, Counters& counters) {
  if (!state.live) die("ingest line in a static phase: " + line);
  const double tip = std::stod(line.substr(7));
  IngestBatch batch = tracer.timed("live.batch_until", root, request, 0,
                                   [&] { return state.replay->batch_until(tip); });
  const std::uint64_t events = batch.social_nodes.size() +
                               batch.social_links.size() +
                               batch.attribute_links.size();
  tracer.timed("live.ingest", root, request, events,
               [&] { state.live->ingest(batch); });
  counters.ingest_events += events;
}

bool is_ingest(const std::string& line) { return line.rfind("ingest ", 0) == 0; }

struct Args {
  std::string san, mode, bulk, probe, spans;
  std::size_t bulk_lines = 0, probe_lines = 0, batch = 0;
};

/// One replay pass over both phases; returns its wall time in seconds.
double replay(const SocialAttributeNetwork& net, const Args& args,
              const std::vector<std::string>& bulk,
              const std::vector<std::string>& probe, Tracer& tracer,
              std::int64_t root, Counters& counters) {
  const bool live = args.mode == "live";
  const auto start = Clock::now();
  std::int64_t request = 0;
  {
    ServingState state(net, live, tracer, root);
    std::vector<std::string> pending;
    std::size_t line_no = 1, first = 1;
    const auto flush = [&] {
      if (pending.empty()) return;
      run_batch(state, pending, first, tracer, root, request++, counters);
      pending.clear();
    };
    for (const auto& line : bulk) {
      if (is_ingest(line)) {
        flush();
        run_ingest(state, line, tracer, root, request++, counters);
      } else {
        if (pending.empty()) first = line_no;
        pending.push_back(line);
        if (pending.size() == args.batch) flush();
      }
      ++line_no;
    }
    flush();
    counters.cache_evictions += state.cache->stats().evictions;
    if (state.live) counters.epochs += state.live->stats().epochs;
  }
  counters.probe_first_request = request;
  {
    ServingState state(net, live, tracer, root);
    std::size_t line_no = 1;
    for (const auto& line : probe) {
      // One request id per probe item: its ingest lines and its query.
      if (is_ingest(line)) {
        run_ingest(state, line, tracer, root, request, counters);
      } else {
        run_batch(state, {line}, line_no, tracer, root, request++, counters);
      }
      ++line_no;
    }
    counters.cache_evictions += state.cache->stats().evictions;
    if (state.live) counters.epochs += state.live->stats().epochs;
  }
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--san") args.san = value;
    else if (flag == "--mode") args.mode = value;
    else if (flag == "--bulk") args.bulk = value;
    else if (flag == "--probe") args.probe = value;
    else if (flag == "--spans") args.spans = value;
    else if (flag == "--bulk-lines") args.bulk_lines = std::stoul(value);
    else if (flag == "--probe-lines") args.probe_lines = std::stoul(value);
    else if (flag == "--batch") args.batch = std::stoul(value);
    else die("unknown flag " + flag);
  }
  if (args.san.empty() || (args.mode != "static" && args.mode != "live") ||
      args.bulk.empty() || args.probe.empty() || args.spans.empty() ||
      args.batch == 0) {
    die("usage: --san FILE --mode static|live --bulk FILE --bulk-lines N"
        " --batch B --probe FILE --probe-lines M --spans OUT");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto bulk = take_cycled(read_lines(args.bulk), args.bulk_lines);
  const auto probe = take_cycled(read_lines(args.probe), args.probe_lines);

  // Traced pass: the load and both phases under one root span.
  Tracer tracer(true);
  Counters counters;
  const std::int64_t root = tracer.begin("replay", -1, -1);
  const SocialAttributeNetwork net = tracer.timed(
      "serialization.load", root, -1, 0, [&] { return load_san(args.san); });
  replay(net, args, bulk, probe, tracer, root, counters);
  tracer.end(root);
  const auto& spans = tracer.spans();
  const double traced_s =
      static_cast<double>(spans[0].end_ns - spans[0].start_ns) * 1e-9;
  const double load_s =
      static_cast<double>(spans[1].end_ns - spans[1].start_ns) * 1e-9;

  // Untraced pass over the same lines and the already loaded network.
  Tracer off(false);
  Counters unused;
  const double untraced_s = replay(net, args, bulk, probe, off, -1, unused);

  std::FILE* out = std::fopen(args.spans.c_str(), "w");
  if (out == nullptr) die("cannot write " + args.spans);
  for (const auto& span : spans) {
    std::fprintf(out, "%s\t%lld\t%lld\t%lld\t%lld\t%llu\n", span.name.c_str(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.request),
                 static_cast<unsigned long long>(span.items));
  }
  if (std::fclose(out) != 0) die("short write to " + args.spans);

  std::printf(
      "{\"traced_s\": %.9f, \"load_s\": %.9f, \"untraced_s\": %.9f,"
      " \"cache_hits\": %llu, \"cache_misses\": %llu,"
      " \"cache_evictions\": %llu, \"derived_hits\": %llu,"
      " \"derived_builds\": %llu, \"ingest_events\": %llu,"
      " \"epochs\": %llu, \"probe_first_request\": %lld}\n",
      traced_s, load_s, untraced_s,
      static_cast<unsigned long long>(counters.cache_hits),
      static_cast<unsigned long long>(counters.cache_misses),
      static_cast<unsigned long long>(counters.cache_evictions),
      static_cast<unsigned long long>(counters.derived_hits),
      static_cast<unsigned long long>(counters.derived_builds),
      static_cast<unsigned long long>(counters.ingest_events),
      static_cast<unsigned long long>(counters.epochs),
      static_cast<long long>(counters.probe_first_request));
  return 0;
}
