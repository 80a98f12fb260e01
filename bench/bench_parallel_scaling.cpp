// Thread-scaling bench for the parallel CSR kernels: builds a ~1M-edge
// synthetic directed graph, runs each kernel at 1/2/4/8 threads, reports
// wall-clock speedups, and verifies that every metric is byte-identical to
// the single-threaded run (the substrate's determinism contract).
//
// Each (kernel, threads) cell is the median of kReps timed runs, with the
// spread (max - min) / median printed beside it: one timing of a small
// kernel swings by 2x on a shared host. Each of the kReps rounds runs every
// thread count once, in turn (1, 2, 4, 8, then 1, 2, ...), so host drift
// over the minutes-long sweep spreads across all columns instead of
// landing on one. Every run, not only the first, must match the
// single-thread metrics.
//
// Scale with SAN_SCALING_EDGES; thread sweep is fixed at 1/2/4/8 capped by
// SAN_SCALING_MAX_THREADS if set. `--json OUT` writes the single-thread
// kernel median timings (informational — absolute seconds, not gated by
// tools/check_bench.py).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/thread_pool.hpp"
#include "graph/clustering.hpp"
#include "graph/csr.hpp"
#include "graph/hyperanf.hpp"
#include "graph/metrics.hpp"
#include "graph/wcc.hpp"
#include "stats/rng.hpp"

namespace {

using san::graph::CsrGraph;
using san::graph::NodeId;

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long value = std::atol(env);
    if (value > 0) return static_cast<std::size_t>(value);
  }
  return fallback;
}

/// Skewed synthetic digraph: preferential-style targets create hubs and
/// triangles, like the Google+ snapshots the kernels are built for.
CsrGraph build_graph(std::size_t nodes, std::size_t edges) {
  san::stats::Rng rng(0x5ca11ab1e);
  std::vector<std::pair<NodeId, NodeId>> list;
  list.reserve(edges);
  for (std::size_t i = 0; i < edges; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_index(nodes));
    // Mix of local (triangle-forming) and global (hub-forming) targets.
    NodeId v;
    if (rng.bernoulli(0.5)) {
      v = static_cast<NodeId>((u + 1 + rng.uniform_index(64)) % nodes);
    } else {
      v = static_cast<NodeId>(rng.uniform_index(1 + rng.uniform_index(nodes)));
    }
    if (u != v) list.emplace_back(u, v);
  }
  return CsrGraph::from_edges(nodes, list);
}

struct KernelResults {
  double approx_cc = 0.0;
  double assortativity = 0.0;
  double reciprocity = 0.0;
  std::size_t wcc_count = 0;
  std::uint64_t wcc_largest_size = 0;
  std::vector<double> anf;
};

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool identical(const KernelResults& a, const KernelResults& b) {
  if (!bitwise_equal(a.approx_cc, b.approx_cc)) return false;
  if (!bitwise_equal(a.assortativity, b.assortativity)) return false;
  if (!bitwise_equal(a.reciprocity, b.reciprocity)) return false;
  if (a.wcc_count != b.wcc_count) return false;
  if (a.wcc_largest_size != b.wcc_largest_size) return false;
  if (a.anf.size() != b.anf.size()) return false;
  for (std::size_t i = 0; i < a.anf.size(); ++i) {
    if (!bitwise_equal(a.anf[i], b.anf[i])) return false;
  }
  return true;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

struct TimedRun {
  KernelResults results;
  double clustering_s = 0.0;
  double wcc_s = 0.0;
  double metrics_s = 0.0;
  double anf_s = 0.0;
};

/// Timed runs behind each cell's median.
constexpr std::size_t kReps = 5;

/// Median and relative spread of one kernel's kReps timings.
struct Cell {
  double median_s = 0.0;
  double spread = 0.0;  // (max - min) / median
};

Cell summarize(const std::vector<TimedRun>& runs, double TimedRun::* field) {
  std::vector<double> values;
  for (const TimedRun& run : runs) values.push_back(run.*field);
  std::sort(values.begin(), values.end());
  const double median = values[values.size() / 2];
  return {median, median > 0.0 ? (values.back() - values.front()) / median
                               : 0.0};
}

TimedRun run_kernels(const CsrGraph& g) {
  TimedRun run;

  auto t0 = std::chrono::steady_clock::now();
  san::graph::ClusteringOptions cc_opts;
  cc_opts.epsilon = 0.002;
  run.results.approx_cc = san::graph::approx_average_clustering(g, cc_opts);
  run.clustering_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  const auto wcc = san::graph::weakly_connected_components(g);
  run.results.wcc_count = wcc.component_count();
  run.results.wcc_largest_size = wcc.sizes[wcc.largest()];
  run.wcc_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  run.results.assortativity = san::graph::assortativity(g);
  run.results.reciprocity = san::graph::reciprocity(g);
  run.metrics_s = seconds_since(t0);

  t0 = std::chrono::steady_clock::now();
  san::graph::HyperAnfOptions anf_opts;
  anf_opts.max_iterations = 8;
  run.results.anf = san::graph::hyper_anf(g, anf_opts).neighborhood;
  run.anf_s = seconds_since(t0);

  return run;
}

}  // namespace

int main(int argc, char** argv) {
  san::bench::JsonReport report;
  const std::size_t edges = env_size("SAN_SCALING_EDGES", 1'000'000);
  const std::size_t nodes = edges / 4;
  const std::size_t max_threads = env_size("SAN_SCALING_MAX_THREADS", 8);

  std::printf("# bench_parallel_scaling: %zu nodes, target %zu edges\n", nodes,
              edges);
  const CsrGraph g = build_graph(nodes, edges);
  std::printf("# built graph: %zu nodes, %llu edges\n", g.node_count(),
              static_cast<unsigned long long>(g.edge_count()));

  std::printf("# each cell: median of %zu runs (spread = (max-min)/median)\n",
              kReps);
  std::printf("%-8s %-12s %-12s %-12s %-12s %-10s\n", "threads", "clustering",
              "wcc", "metrics", "hyperanf", "identical");

  constexpr double TimedRun::* kFields[] = {
      &TimedRun::clustering_s, &TimedRun::wcc_s, &TimedRun::metrics_s,
      &TimedRun::anf_s};
  std::vector<std::size_t> sweep;
  for (const std::size_t t : {1UL, 2UL, 4UL, 8UL}) {
    if (t <= max_threads) sweep.push_back(t);
  }
  std::vector<std::vector<TimedRun>> runs(sweep.size());
  std::vector<bool> same(sweep.size(), true);
  KernelResults base_results;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    for (std::size_t ti = 0; ti < sweep.size(); ++ti) {
      san::core::set_thread_count(sweep[ti]);
      runs[ti].push_back(run_kernels(g));
      if (ti == 0 && rep == 0) base_results = runs[0].front().results;
      same[ti] = same[ti] && identical(runs[ti].back().results, base_results);
    }
  }

  Cell base[4];
  bool all_identical = true;
  for (std::size_t ti = 0; ti < sweep.size(); ++ti) {
    const std::size_t t = sweep[ti];
    all_identical = all_identical && same[ti];
    Cell cell[4];
    for (std::size_t k = 0; k < 4; ++k) {
      cell[k] = summarize(runs[ti], kFields[k]);
    }
    if (t == 1) std::copy(cell, cell + 4, base);
    std::printf("%-8zu %-12.3f %-12.3f %-12.3f %-12.3f %-10s", t,
                cell[0].median_s, cell[1].median_s, cell[2].median_s,
                cell[3].median_s, t == 1 ? "-" : same[ti] ? "yes" : "NO");
    if (t > 1) {
      std::printf("  (speedup cc=%.2fx wcc=%.2fx metrics=%.2fx anf=%.2fx)",
                  base[0].median_s / cell[0].median_s,
                  base[1].median_s / cell[1].median_s,
                  base[2].median_s / cell[2].median_s,
                  base[3].median_s / cell[3].median_s);
    }
    std::printf("\n%-8s spread cc=%.0f%% wcc=%.0f%% metrics=%.0f%% anf=%.0f%%\n",
                "", 100.0 * cell[0].spread, 100.0 * cell[1].spread,
                100.0 * cell[2].spread, 100.0 * cell[3].spread);
  }
  san::core::set_thread_count(1);

  std::printf("# approx_cc=%.6f assortativity=%.6f reciprocity=%.6f wcc=%zu "
              "largest=%llu\n",
              base_results.approx_cc, base_results.assortativity,
              base_results.reciprocity, base_results.wcc_count,
              static_cast<unsigned long long>(base_results.wcc_largest_size));
  if (!all_identical) {
    std::printf("FAIL: multi-threaded results differ from single-threaded\n");
    return 1;
  }
  report.add("clustering_1t_s", base[0].median_s);
  report.add("wcc_1t_s", base[1].median_s);
  report.add("metrics_1t_s", base[2].median_s);
  report.add("hyperanf_1t_s", base[3].median_s);
  if (!report.write_if_requested(argc, argv)) return 1;
  std::printf("OK: all thread counts produced byte-identical metrics\n");
  return 0;
}
