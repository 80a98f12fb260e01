// Snapshot-sweep gate: replays the paper's 79 daily crawls over a generated
// SAN four ways — the SEED algorithm (unsorted edge list canonicalized per
// day + vector<vector> attribute layer, reproduced below), the current
// naive san::snapshot_at (full log re-scan per day, shared fast builders),
// a SanTimeline rebuild leg (snapshot_at per day: a filter over the
// timeline's link index, which the first day builds), and the delta sweep
// (advance day to day, O(new links) per day) — and FAILS (exit 1) if any
// per-day metric of either timeline path deviates from the naive path, if
// the seed-path counts disagree, or if the delta-sweep metrics change at
// 1/2/4/8 threads. The seed, rebuild and delta legs are each the median of
// kReps timings. The acceptance speedup compares the delta sweep against
// the seed path (>= 3x); delta vs full rebuild is reported, informational.
// Scale with SAN_BENCH_NODES (default 60k social nodes, ~1M links), days
// with SAN_TIMELINE_DAYS. `--json OUT` writes the headline metrics for the
// CI bench-regression gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/thread_pool.hpp"
#include "graph/metrics.hpp"
#include "san/san_metrics.hpp"
#include "san/timeline.hpp"

namespace {

using namespace san;

/// The snapshot algorithm this repo seeded with (PR <= 1): per day, filter
/// the unsorted edge list and canonicalize it from scratch (comparison
/// sort), then materialize the attribute layer as one heap-allocated vector
/// per social and per attribute node. Kept verbatim as the timing baseline
/// the acceptance criterion is defined against.
struct SeedSnapshot {
  graph::CsrGraph social;
  std::vector<std::vector<AttrId>> attributes;
  std::vector<std::vector<NodeId>> members;
  std::uint64_t attribute_link_count = 0;
};

SeedSnapshot seed_snapshot_at(const SocialAttributeNetwork& network,
                              double time) {
  SeedSnapshot snap;
  const auto social_times = network.social_node_times();
  const auto first_after =
      std::upper_bound(social_times.begin(), social_times.end(), time);
  const auto n_social =
      static_cast<std::size_t>(first_after - social_times.begin());

  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const auto& e : network.social_log()) {
    if (e.time <= time) edges.emplace_back(e.src, e.dst);
  }
  snap.social = graph::CsrGraph::from_edges(n_social, edges);

  const std::size_t n_attr = network.attribute_node_count();
  snap.attributes.resize(n_social);
  snap.members.resize(n_attr);
  for (const auto& link : network.attribute_log()) {
    if (link.time > time) continue;
    if (link.user >= n_social) continue;
    snap.attributes[link.user].push_back(link.attr);
    snap.members[link.attr].push_back(link.user);
    ++snap.attribute_link_count;
  }
  for (auto& attrs : snap.attributes) std::sort(attrs.begin(), attrs.end());
  return snap;
}

/// Per-day fingerprint: exact counts, order-sensitive float metrics, and an
/// FNV-1a hash over every adjacency array — byte-identity, not closeness.
struct DayMetrics {
  std::uint64_t nodes = 0, edges = 0, attr_links = 0, dropped = 0;
  std::uint64_t populated = 0, created = 0;
  double density = 0.0, attr_density = 0.0, reciprocity = 0.0;
  double attr_assortativity = 0.0;
  std::uint64_t structure_hash = 0;

  bool operator==(const DayMetrics&) const = default;
};

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  hash ^= value;
  return hash * 0x100000001b3ULL;
}

DayMetrics measure(const SanSnapshot& snap) {
  DayMetrics m;
  m.nodes = snap.social_node_count();
  m.edges = snap.social_link_count();
  m.attr_links = snap.attribute_link_count;
  m.dropped = snap.dropped_link_count;
  m.populated = snap.populated_attribute_count();
  m.created = snap.attribute_node_count();
  m.density = graph::density(snap.social);
  m.attr_density = attribute_density(snap);
  m.reciprocity = graph::reciprocity(snap.social);
  m.attr_assortativity = attribute_assortativity(snap);

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (NodeId u = 0; u < snap.social_node_count(); ++u) {
    for (const NodeId v : snap.social.out(u)) h = fnv1a(h, v);
    for (const NodeId v : snap.social.in(u)) h = fnv1a(h, v ^ 0x1111);
    for (const NodeId v : snap.social.neighbors(u)) h = fnv1a(h, v ^ 0x2222);
    for (const AttrId x : snap.attributes_of(u)) h = fnv1a(h, x ^ 0x3333);
  }
  for (AttrId x = 0; x < snap.attribute_id_count(); ++x) {
    for (const NodeId v : snap.members_of(x)) h = fnv1a(h, v ^ 0x4444);
  }
  m.structure_hash = h;
  return m;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Repetitions behind each gated leg's median: one timing of a smoke-scale
/// leg swings by 2x on a shared host.
constexpr std::size_t kReps = 5;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

int fail(const char* what, double day) {
  std::fprintf(stderr, "FAIL: %s deviates at day %.2f\n", what, day);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report;
  const std::size_t n_days = [] {
    if (const char* env = std::getenv("SAN_TIMELINE_DAYS")) {
      const long value = std::atol(env);
      if (value > 0) return static_cast<std::size_t>(value);
    }
    return static_cast<std::size_t>(79);
  }();

  std::printf("generating synthetic Google+ ground truth (%zu nodes)...\n",
              bench::scale());
  const auto net = bench::make_gplus_ground_truth();
  std::printf("  %zu social nodes, %llu social links, %llu attribute links\n",
              net.social_node_count(),
              static_cast<unsigned long long>(net.social_link_count()),
              static_cast<unsigned long long>(net.attribute_link_count()));

  std::vector<double> days(n_days);
  const double max_time = 98.0;
  for (std::size_t i = 0; i < n_days; ++i) {
    days[i] =
        max_time * static_cast<double>(i + 1) / static_cast<double>(n_days);
  }

  // Per-day metric evaluation is identical work on every path, so it is
  // kept out of the timed legs: the gate compares snapshot MATERIALIZATION
  // (full re-scan + sort per day vs the timeline's index filter or delta
  // append). Each gated leg is the median of kReps timings, one fresh
  // SanTimeline per repetition so every rebuild sample includes the
  // link-index build (the first dense snapshot builds it).
  bench::header("seed sweep: canonicalize-from-scratch + vector<vector>");
  std::vector<std::uint64_t> seed_edges(n_days), seed_attr_links(n_days);
  std::vector<double> seed_reps;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    double total = 0.0;
    for (std::size_t i = 0; i < n_days; ++i) {
      const auto start = std::chrono::steady_clock::now();
      const auto snap = seed_snapshot_at(net, days[i]);
      total += seconds_since(start);
      seed_edges[i] = snap.social.edge_count();
      seed_attr_links[i] = snap.attribute_link_count;
    }
    seed_reps.push_back(total);
  }
  const double seed_s = median(seed_reps);
  std::printf("seed:     %7.3f s materialization (%zu snapshots)\n", seed_s,
              n_days);

  bench::header("naive sweep: snapshot_at re-scans the full logs per day");
  std::vector<DayMetrics> naive(n_days);
  double naive_s = 0.0;
  for (std::size_t i = 0; i < n_days; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const auto snap = snapshot_at(net, days[i]);
    naive_s += seconds_since(start);
    naive[i] = measure(snap);
  }
  std::printf("naive:    %7.3f s materialization (%zu snapshots)\n", naive_s,
              n_days);

  bench::header("timeline: snapshot_at per day (link-index filter) vs the"
                " delta sweep (O(new links) per day)");
  std::vector<double> index_reps, rebuild_reps, delta_reps;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    const auto index_start = std::chrono::steady_clock::now();
    const SanTimeline fresh(net);
    index_reps.push_back(seconds_since(index_start));
    double rebuild = 0.0;
    for (const double day : days) {
      const auto start = std::chrono::steady_clock::now();
      const auto snap = fresh.snapshot_at(day);
      rebuild += seconds_since(start);
    }
    rebuild_reps.push_back(rebuild);
    const auto delta_start = std::chrono::steady_clock::now();
    fresh.sweep(days, [](double, const SanSnapshot&) {});
    delta_reps.push_back(seconds_since(delta_start));
  }
  const double index_s = median(index_reps);
  const double rebuild_s = median(rebuild_reps);
  const double delta_s = median(delta_reps);
  std::printf("timeline: %7.3f s index + %7.3f s materialization\n", index_s,
              rebuild_s);
  std::printf("delta:    %7.3f s materialization\n", delta_s);
  std::printf("(medians of %zu repetitions)\n", kReps);
  std::printf("speedup vs seed path:    %0.2fx (acceptance target >= 3x)\n",
              seed_s / (index_s + delta_s));
  std::printf("speedup vs new naive:    %0.2fx\n",
              naive_s / (index_s + delta_s));
  std::printf("delta vs full rebuild:   %0.2fx (informational)\n",
              rebuild_s / delta_s);
  std::printf("rebuild vs seed path:    %0.2fx\n",
              seed_s / (index_s + rebuild_s));
  report.add("speedup_vs_seed", seed_s / (index_s + delta_s));
  report.add("delta_vs_full_speedup", rebuild_s / delta_s);
  // The rebuild leg's own ratio, gated: it times the dense path every
  // SnapshotCache miss takes, link index build included.
  report.add("rebuild_vs_seed", seed_s / (index_s + rebuild_s));

  // The identity gate, untimed: every day of both timeline paths against
  // the naive snapshot.
  const SanTimeline timeline(net);
  std::vector<DayMetrics> indexed(n_days), delta(n_days);
  for (std::size_t i = 0; i < n_days; ++i) {
    indexed[i] = measure(timeline.snapshot_at(days[i]));
  }
  {
    std::size_t i = 0;
    timeline.sweep(days, [&](double, const SanSnapshot& snap) {
      delta[i++] = measure(snap);
    });
  }
  for (std::size_t i = 0; i < n_days; ++i) {
    if (!(naive[i] == indexed[i])) return fail("timeline vs naive", days[i]);
    if (!(naive[i] == delta[i])) return fail("delta sweep vs naive", days[i]);
    // Seed counts must agree wherever nothing was dropped (the seed path
    // silently kept links to not-yet-created attributes, which the current
    // paths drop and count instead).
    if (seed_edges[i] != indexed[i].edges) {
      return fail("seed vs timeline edge count", days[i]);
    }
    if (indexed[i].dropped == 0 &&
        seed_attr_links[i] != indexed[i].attr_links) {
      return fail("seed vs timeline attribute link count", days[i]);
    }
  }
  std::printf(
      "metric check: delta == full rebuild == naive at all %zu days\n",
      n_days);

  bench::header(
      "determinism: delta sweep byte-identical at 1/2/4/8 threads");
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    core::set_thread_count(threads);
    std::size_t i = 0;
    bool ok = true;
    double bad_day = 0.0;
    timeline.sweep(days, [&](double day, const SanSnapshot& snap) {
      if (ok && !(measure(snap) == indexed[i])) {
        ok = false;
        bad_day = day;
      }
      ++i;
    });
    std::printf("  %zu threads: %s\n", threads, ok ? "identical" : "DEVIATES");
    if (!ok) return fail("thread-count sweep", bad_day);
  }
  if (!report.write_if_requested(argc, argv)) return 1;
  std::printf("OK\n");
  return 0;
}
