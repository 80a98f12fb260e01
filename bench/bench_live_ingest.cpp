// Live-ingestion gate: replays the synthetic Google+ stream (seeded at day
// 20, one ingest batch per day through day 98) through san::LiveTimeline
// and
//
//   1. FAILS (exit 1) unless every published epoch is bit-identical
//      (snapshot fingerprint over every observable span) to a from-scratch
//      SanTimeline rebuild of the same ingested log prefix at the same
//      tip — the rebuild IS the baseline being timed, so the oracle is
//      free;
//   2. re-runs the replay at SAN_THREADS=1/2/4/8 and FAILS on any epoch
//      fingerprint deviating from the first run;
//   3. reports ingest-while-serving throughput: a reader thread hammers
//      `now` + historical queries through a live-bound SnapshotCache for
//      the whole replay (readers resolve the tip with one atomic load and
//      never block on ingest) and FAILS if any query errors;
//   4. FAILS unless the live ingest path beats the rebuild-per-epoch
//      baseline by >= 1.5x end to end.
//
// Scale with SAN_BENCH_NODES (default 60k) and SAN_LIVE_STEP (days per
// ingest batch, default 1). `--json OUT` writes the headline metrics for
// the CI bench-regression gate.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/thread_pool.hpp"
#include "san/live_replay.hpp"
#include "san/live_timeline.hpp"
#include "san/timeline.hpp"
#include "san_testlib.hpp"
#include "serve/query_engine.hpp"

namespace {

using namespace san;

constexpr double kSeedDay = 20.0;

double live_step() {
  if (const char* env = std::getenv("SAN_LIVE_STEP")) {
    const double value = std::atof(env);
    if (value > 0.0) return value;
  }
  return 1.0;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::vector<double> tip_grid(double max_time) {
  std::vector<double> tips;
  const double step = live_step();
  for (double tip = kSeedDay + step; tip < max_time; tip += step) {
    tips.push_back(tip);
  }
  tips.push_back(max_time + 1.0);  // final epoch covers the whole stream
  return tips;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report;
  std::printf("generating synthetic Google+ ground truth (%zu nodes)...\n",
              bench::scale());
  const auto net = bench::make_gplus_ground_truth();
  std::printf("  %zu social nodes, %llu social links, %llu attribute links\n",
              net.social_node_count(),
              static_cast<unsigned long long>(net.social_link_count()),
              static_cast<unsigned long long>(net.attribute_link_count()));

  const SanTimeline full(net);
  const auto tips = tip_grid(full.max_time());
  std::printf("replay: seed <= day %.0f, %zu ingest batches\n", kSeedDay,
              tips.size());

  // ---- Leg 1: live ingest vs rebuild-per-epoch, interleaved so both see
  // exactly the same log prefix at every epoch. ----
  bench::header("live delta ingest vs rebuild-per-epoch baseline");
  std::vector<std::uint64_t> reference;
  reference.reserve(tips.size());
  double live_s = 0.0, baseline_s = 0.0;
  {
    LiveReplay replay(net, kSeedDay);
    LiveTimelineOptions options;
    options.initial_tip = kSeedDay;
    LiveTimeline live(replay.seed, options);
    for (const double tip : tips) {
      auto batch = replay.batch_until(tip);
      const auto live_start = std::chrono::steady_clock::now();
      live.ingest(batch);
      live_s += seconds_since(live_start);
      const auto epoch = live.tip();
      reference.push_back(testlib::snapshot_fingerprint(*epoch));

      // Baseline: what publishing this epoch costs WITHOUT the frontier —
      // index the accumulated log from scratch and materialize the tip.
      const auto base_start = std::chrono::steady_clock::now();
      const SanTimeline rebuilt(live.log());
      const auto snap = rebuilt.snapshot_at(tip);
      baseline_s += seconds_since(base_start);
      if (testlib::snapshot_fingerprint(snap) != reference.back()) {
        std::fprintf(stderr,
                     "FAIL: epoch at tip %.2f deviates from the"
                     " from-scratch rebuild\n",
                     tip);
        return 1;
      }
    }
    const auto stats = live.stats();
    std::printf("  live:     %7.3f s (%llu epochs, %llu late batches,"
                " %llu activated links)\n",
                live_s, static_cast<unsigned long long>(stats.epochs),
                static_cast<unsigned long long>(stats.late_batches),
                static_cast<unsigned long long>(stats.activated_links));
    std::printf("  baseline: %7.3f s (SanTimeline rebuild + snapshot per"
                " epoch)\n",
                baseline_s);
    std::printf("  speedup:  %.2fx (acceptance >= 1.50x)\n",
                baseline_s / live_s);
  }
  std::printf("  every epoch bit-identical to its from-scratch rebuild\n");
  report.add("live_vs_rebuild_speedup", baseline_s / live_s);

  // ---- Leg 2: thread-count determinism. ----
  bench::header("epoch byte-identity at SAN_THREADS=1/2/4/8");
  const std::size_t restore_threads = core::thread_count();
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::set_thread_count(threads);
    LiveReplay replay(net, kSeedDay);
    LiveTimelineOptions options;
    options.initial_tip = kSeedDay;
    LiveTimeline live(replay.seed, options);
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < tips.size(); ++i) {
      live.ingest(replay.batch_until(tips[i]));
      if (testlib::snapshot_fingerprint(*live.tip()) != reference[i]) {
        std::fprintf(stderr,
                     "FAIL: epoch %zu deviates at %zu threads\n", i,
                     threads);
        return 1;
      }
    }
    std::printf("  %zu threads: identical, %7.3f s\n", threads,
                seconds_since(start));
  }
  core::set_thread_count(restore_threads);

  // ---- Leg 3: serving while ingesting. Readers resolve the tip with one
  // atomic load; the whole replay runs under continuous query fire. ----
  bench::header("ingest-while-serving (reader thread on the live tip)");
  {
    LiveReplay replay(net, kSeedDay);
    LiveTimelineOptions options;
    options.initial_tip = kSeedDay;
    LiveTimeline live(replay.seed, options);
    const SanTimeline frozen(replay.seed);
    serve::SnapshotCache cache(frozen, 8);
    cache.bind_live(live, kSeedDay);
    serve::QueryEngine engine(cache);

    const std::vector<double> days{5.0, 12.0, 18.0,
                                   std::numeric_limits<double>::infinity()};
    auto queries = testlib::mixed_queries(512, net.social_node_count(), days,
                                          0x11fe);
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> failed{0};
    std::thread reader([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          const auto results = engine.run_batch(queries);
          served.fetch_add(results.size(), std::memory_order_relaxed);
        } catch (const std::exception& e) {
          failed.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "reader error: %s\n", e.what());
        }
      }
    });

    const auto start = std::chrono::steady_clock::now();
    std::size_t events = 0;
    for (const double tip : tips) {
      auto batch = replay.batch_until(tip);
      events += batch.social_nodes.size() + batch.social_links.size() +
                batch.attribute_links.size();
      live.ingest(batch);
    }
    const double ingest_s = seconds_since(start);
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    std::printf("  ingested %zu events in %7.3f s (%.0f events/s) under"
                " query fire\n",
                events, ingest_s, events / ingest_s);
    std::printf("  reader served %llu queries meanwhile (%.0f queries/s,"
                " %llu live hits)\n",
                static_cast<unsigned long long>(served.load()),
                served.load() / ingest_s,
                static_cast<unsigned long long>(cache.stats().live_hits));
    if (failed.load() != 0) {
      std::fprintf(stderr, "FAIL: %llu reader batches errored\n",
                   static_cast<unsigned long long>(failed.load()));
      return 1;
    }
    if (served.load() == 0) {
      std::fprintf(stderr, "FAIL: reader served no queries\n");
      return 1;
    }
  }

  if (live_s * 1.5 > baseline_s) {
    std::fprintf(stderr,
                 "FAIL: live ingest (%.3f s) not >= 1.5x faster than the"
                 " rebuild-per-epoch baseline (%.3f s)\n",
                 live_s, baseline_s);
    return 1;
  }
  if (!report.write_if_requested(argc, argv)) return 1;
  std::printf("OK\n");
  return 0;
}
