// Tests for the core parallel substrate (core/thread_pool.hpp,
// core/parallel.hpp): coverage, exceptions, nesting, and the determinism
// contract — kernels built on the substrate must produce byte-identical
// results at every thread count.
#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/thread_pool.hpp"
#include "graph/clustering.hpp"
#include "graph/csr.hpp"
#include "graph/metrics.hpp"
#include "graph/wcc.hpp"
#include "stats/rng.hpp"

namespace {

using san::graph::CsrGraph;
using san::graph::NodeId;

class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { san::core::set_thread_count(4); }
};

TEST_F(ParallelTest, ThreadCountRoundTrip) {
  san::core::set_thread_count(3);
  EXPECT_EQ(san::core::thread_count(), 3u);
  san::core::set_thread_count(1);
  EXPECT_EQ(san::core::thread_count(), 1u);
  // Values below 1 clamp to a single lane.
  san::core::set_thread_count(0);
  EXPECT_EQ(san::core::thread_count(), 1u);
}

TEST_F(ParallelTest, ParallelForCoversEveryIndexExactlyOnce) {
  san::core::set_thread_count(4);
  constexpr std::size_t kN = 100'000;
  std::vector<std::atomic<int>> hits(kN);
  san::core::parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_F(ParallelTest, ResizedPoolNeverReplaysAnEarlierJob) {
  // Workers spawned by a resize must wait for the NEXT job: one that took
  // the previous job as new would run its (by then dead) chunk function
  // against the next job's chunk counter. Every job's functor stays alive
  // here, so a replay shows as miscounted chunks instead of a crash.
  constexpr std::size_t kRounds = 400;
  constexpr std::size_t kChunks = 8;
  std::vector<std::atomic<std::size_t>> runs(kRounds);
  std::vector<std::function<void(std::size_t)>> jobs;
  jobs.reserve(kRounds);
  for (std::size_t r = 0; r < kRounds; ++r) {
    jobs.emplace_back([&runs, r](std::size_t) { runs[r].fetch_add(1); });
  }
  auto& pool = san::core::ThreadPool::instance();
  for (std::size_t r = 0; r < kRounds; ++r) {
    san::core::set_thread_count(r % 2 == 0 ? 2 : 4);
    pool.run_chunks(kChunks, jobs[r]);
  }
  for (std::size_t r = 0; r < kRounds; ++r) {
    ASSERT_EQ(runs[r].load(), kChunks) << "job " << r;
  }
}

TEST_F(ParallelTest, ParallelForEmptyAndTinyRanges) {
  san::core::set_thread_count(4);
  std::atomic<int> count{0};
  san::core::parallel_for(0, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 0);
  san::core::parallel_for(1, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1);
}

TEST_F(ParallelTest, ParallelReduceMatchesSerialSum) {
  san::core::set_thread_count(4);
  constexpr std::size_t kN = 123'457;
  const auto sum = san::core::parallel_reduce(
      kN, std::uint64_t{0},
      [](std::size_t begin, std::size_t end, std::size_t) {
        std::uint64_t s = 0;
        for (std::size_t i = begin; i < end; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(sum, static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

TEST_F(ParallelTest, ReduceIsBitIdenticalAcrossThreadCounts) {
  // Floating-point reduction: ordered chunk combine must make the result
  // independent of the thread count.
  const auto run = [] {
    return san::core::parallel_reduce(
        1'000'003, 0.0,
        [](std::size_t begin, std::size_t end, std::size_t) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            s += 1.0 / static_cast<double>(i + 1);
          }
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  san::core::set_thread_count(1);
  const double serial = run();
  for (const std::size_t t : {2u, 3u, 8u}) {
    san::core::set_thread_count(t);
    const double parallel = run();
    EXPECT_EQ(std::memcmp(&serial, &parallel, sizeof(double)), 0)
        << "thread count " << t;
  }
}

TEST_F(ParallelTest, NestedParallelRegionsRunInline) {
  san::core::set_thread_count(4);
  std::atomic<std::uint64_t> total{0};
  san::core::parallel_for(64, [&](std::size_t) {
    san::core::parallel_for(100, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 6400u);
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
  san::core::set_thread_count(4);
  EXPECT_THROW(
      san::core::parallel_for(10'000,
                              [&](std::size_t i) {
                                if (i == 7777) throw std::runtime_error("boom");
                              }),
      std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> count{0};
  san::core::parallel_for(100, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST_F(ParallelTest, ChunkRngIsDeterministicAndKeyed) {
  auto a = san::core::chunk_rng(42, 7);
  auto b = san::core::chunk_rng(42, 7);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  auto c = san::core::chunk_rng(42, 8);
  auto d = san::core::chunk_rng(43, 7);
  // Different chunk or seed keys give different streams.
  EXPECT_NE(san::core::chunk_rng(42, 7).next_u64(), c.next_u64());
  EXPECT_NE(san::core::chunk_rng(42, 7).next_u64(), d.next_u64());
}

CsrGraph scale_free_ish(std::size_t n, std::size_t m, std::uint64_t seed) {
  san::stats::Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_index(n));
    const auto v = static_cast<NodeId>(rng.uniform_index(1 + u));
    if (u != v) edges.emplace_back(u, v);
  }
  return CsrGraph::from_edges(n, edges);
}

TEST_F(ParallelTest, GraphKernelsAreByteIdenticalAcrossThreadCounts) {
  const CsrGraph g = scale_free_ish(20'000, 120'000, 0xfeed);

  san::core::set_thread_count(1);
  const double cc1 = san::graph::approx_average_clustering(g);
  const double as1 = san::graph::assortativity(g);
  const auto wcc1 = san::graph::weakly_connected_components(g);

  for (const std::size_t t : {2u, 4u, 8u}) {
    san::core::set_thread_count(t);
    const double cct = san::graph::approx_average_clustering(g);
    const double ast = san::graph::assortativity(g);
    const auto wcct = san::graph::weakly_connected_components(g);
    EXPECT_EQ(std::memcmp(&cc1, &cct, sizeof(double)), 0) << "threads " << t;
    EXPECT_EQ(std::memcmp(&as1, &ast, sizeof(double)), 0) << "threads " << t;
    EXPECT_EQ(wcc1.component, wcct.component) << "threads " << t;
    EXPECT_EQ(wcc1.sizes, wcct.sizes) << "threads " << t;
  }
}

}  // namespace
