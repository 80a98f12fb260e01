// The SIMD kernel layer's contract (core/simd): every dispatch level is
// byte-identical — scalar, SSE4.2, and AVX2 must agree on every input the
// CSR invariant allows — and the level knob composes with the thread
// knob: the serve batch==single and timeline delta==naive determinism
// gates hold at every SAN_SIMD x SAN_THREADS=1/2/4/8 combination. The
// scalar kernel itself is checked against std::set_intersection, so the
// cross-level equivalence chain is anchored to ground truth.
#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/simd/simd.hpp"
#include "core/thread_pool.hpp"
#include "san/snapshot.hpp"
#include "san/timeline.hpp"
#include "san_testlib.hpp"
#include "serve/query_engine.hpp"

namespace {

using namespace san;
namespace simd = core::simd;

/// Every level this host can dispatch to, scalar first.
std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (const simd::Level level : {simd::Level::kSse, simd::Level::kAvx2}) {
    if (simd::set_level(level)) levels.push_back(level);
  }
  simd::set_level(simd::detected_level());
  return levels;
}

/// `size` strictly ascending u32 drawn from [lo, lo + span) via random
/// gaps.
std::vector<std::uint32_t> sorted_set(std::mt19937_64& rng, std::size_t size,
                                      std::uint32_t lo, std::uint32_t span) {
  std::vector<std::uint32_t> out;
  out.reserve(size);
  if (size == 0) return out;
  const double mean_gap =
      std::max(1.0, static_cast<double>(span) / (size + 1));
  std::uniform_int_distribution<std::uint32_t> gap(
      1, static_cast<std::uint32_t>(2.0 * mean_gap));
  std::uint32_t value = lo;
  for (std::size_t i = 0; i < size; ++i) {
    value += gap(rng);
    out.push_back(value);
  }
  return out;
}

/// Assert every available level reproduces scalar's count and into bytes
/// on (a, b) — and scalar reproduces std::set_intersection.
void expect_all_levels_agree(std::span<const std::uint32_t> a,
                             std::span<const std::uint32_t> b) {
  std::vector<std::uint32_t> truth(std::min(a.size(), b.size()));
  const auto truth_end = std::set_intersection(
      a.begin(), a.end(), b.begin(), b.end(), truth.begin());
  truth.resize(static_cast<std::size_t>(truth_end - truth.begin()));

  const std::size_t cap = std::min(a.size(), b.size()) + simd::kIntoPad;
  std::vector<std::uint32_t> got(cap);
  for (const simd::Level level : available_levels()) {
    ASSERT_TRUE(simd::set_level(level));
    ASSERT_EQ(simd::intersect_count(a, b), truth.size())
        << "level " << simd::level_name(level);
    got.assign(cap, 0xDEADu);
    ASSERT_EQ(simd::intersect_into(a, b, got.data()), truth.size())
        << "level " << simd::level_name(level);
    ASSERT_TRUE(std::equal(truth.begin(), truth.end(), got.begin()))
        << "level " << simd::level_name(level);
  }
  simd::set_level(simd::detected_level());
}

TEST(SimdDispatch, ParseLevelIsStrict) {
  simd::Level level = simd::Level::kAvx2;
  EXPECT_TRUE(simd::parse_level("scalar", level));
  EXPECT_EQ(level, simd::Level::kScalar);
  EXPECT_TRUE(simd::parse_level("sse", level));
  EXPECT_EQ(level, simd::Level::kSse);
  EXPECT_TRUE(simd::parse_level("avx2", level));
  EXPECT_EQ(level, simd::Level::kAvx2);
  for (const char* bad : {"", "SSE", "Scalar", "s", "avx", "avx22",
                          "scalar ", " sse", "sse4.2"}) {
    EXPECT_FALSE(simd::parse_level(bad, level)) << "'" << bad << "'";
  }
  EXPECT_FALSE(simd::parse_level(nullptr, level));
}

TEST(SimdDispatch, SetLevelHonorsDetectionCeiling) {
  const simd::Level detected = simd::detected_level();
  for (const simd::Level level :
       {simd::Level::kScalar, simd::Level::kSse, simd::Level::kAvx2}) {
    if (level <= detected) {
      EXPECT_TRUE(simd::set_level(level));
      EXPECT_EQ(simd::active_level(), level);
    } else {
      const simd::Level before = simd::active_level();
      EXPECT_FALSE(simd::set_level(level));
      EXPECT_EQ(simd::active_level(), before);
    }
  }
  EXPECT_TRUE(simd::set_level(detected));
}

TEST(SimdIntersect, EdgeShapes) {
  std::mt19937_64 rng(7);
  const auto some = sorted_set(rng, 300, 0, 3000);
  const std::vector<std::uint32_t> empty;
  const std::vector<std::uint32_t> one{42};
  expect_all_levels_agree(empty, empty);
  expect_all_levels_agree(empty, some);
  expect_all_levels_agree(some, empty);
  expect_all_levels_agree(one, one);
  expect_all_levels_agree(one, some);
  expect_all_levels_agree(some, some);  // equal spans
  const auto far = sorted_set(rng, 300, 1'000'000, 3000);
  expect_all_levels_agree(some, far);  // fully disjoint ranges
}

TEST(SimdIntersect, VectorWidthStraddlingAndUnalignedOffsets) {
  std::mt19937_64 rng(11);
  for (std::size_t na = 0; na < 20; ++na) {
    for (std::size_t nb = 0; nb < 20; ++nb) {
      const auto a = sorted_set(rng, na, 0, 40);
      const auto b = sorted_set(rng, nb, 0, 40);
      for (const std::size_t offset : {std::size_t{0}, std::size_t{1},
                                       std::size_t{3}}) {
        if (offset > a.size() || offset > b.size()) continue;
        expect_all_levels_agree(
            {a.data() + offset, a.size() - offset},
            {b.data() + offset, b.size() - offset});
      }
    }
  }
}

TEST(SimdIntersect, RandomizedBalancedAndSkewed) {
  std::mt19937_64 rng(13);
  std::uniform_int_distribution<std::size_t> size_dist(0, 2000);
  for (int i = 0; i < 150; ++i) {
    const std::size_t na = size_dist(rng);
    const std::size_t nb = size_dist(rng);
    expect_all_levels_agree(sorted_set(rng, na, 0, 4000),
                            sorted_set(rng, nb, 0, 4000));
  }
  // Skew past the gallop ratio: 1:1000 takes the galloping path at every
  // level, 1:32 sits on the boundary.
  for (int i = 0; i < 20; ++i) {
    expect_all_levels_agree(sorted_set(rng, 2, 0, 2'000'000),
                            sorted_set(rng, 2000, 0, 2'000'000));
    expect_all_levels_agree(sorted_set(rng, 64, 0, 200'000),
                            sorted_set(rng, 64 * 32, 0, 200'000));
  }
}

// The serving gate: batched results byte-identical to the single-query
// reference at every SAN_SIMD x SAN_THREADS combination. The reference is
// rendered once at scalar / 1 thread, anchoring every combination to the
// same bytes.
TEST(SimdSweep, ServeBatchMatchesSingleAcrossLevelsAndThreads) {
  const auto net = testlib::synthetic_gplus(3000, 0x51D);
  const SanTimeline timeline(net);
  const std::vector<double> days{30.0, 60.0, 98.0};
  const auto queries =
      testlib::mixed_queries(600, net.social_node_count(), days, 0x51D2);

  core::set_thread_count(1);
  ASSERT_TRUE(simd::set_level(simd::Level::kScalar));
  serve::SnapshotCache reference_cache(timeline, days.size());
  serve::QueryEngine reference_engine(reference_cache);
  std::vector<std::string> reference;
  reference.reserve(queries.size());
  for (const auto& q : queries) {
    reference.push_back(reference_engine.run_single(q).to_line(q));
  }

  for (const simd::Level level : available_levels()) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      ASSERT_TRUE(simd::set_level(level));
      core::set_thread_count(threads);
      serve::SnapshotCache cache(timeline, days.size());
      serve::QueryEngine engine(cache);
      const auto results = engine.run_batch(queries);
      ASSERT_EQ(results.size(), queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(results[i].to_line(queries[i]), reference[i])
            << simd::level_name(level) << " x " << threads
            << " threads, query " << i;
      }
    }
  }
  simd::set_level(simd::detected_level());
  core::set_thread_count(1);
}

// The timeline gate: delta-sweep and snapshot_at (link-index filter)
// snapshots fingerprint-identical to the naive per-day rescan at every
// SAN_SIMD x SAN_THREADS combination.
TEST(SimdSweep, TimelineDeltaMatchesNaiveAcrossLevelsAndThreads) {
  const auto net = testlib::synthetic_gplus(2000, 0xABC);
  std::vector<double> days;
  for (int d = 10; d <= 98; d += 11) days.push_back(d);

  core::set_thread_count(1);
  ASSERT_TRUE(simd::set_level(simd::Level::kScalar));
  std::vector<std::uint64_t> naive;
  naive.reserve(days.size());
  for (const double day : days) {
    naive.push_back(testlib::snapshot_fingerprint(snapshot_at(net, day)));
  }

  const SanTimeline timeline(net);
  for (const simd::Level level : available_levels()) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      ASSERT_TRUE(simd::set_level(level));
      core::set_thread_count(threads);
      std::size_t i = 0;
      timeline.sweep(days, [&](double day, const SanSnapshot& snap) {
        ASSERT_EQ(testlib::snapshot_fingerprint(snap), naive[i])
            << "delta sweep, " << simd::level_name(level) << " x "
            << threads << " threads, day " << day;
        ++i;
      });
      for (i = 0; i < days.size(); ++i) {
        ASSERT_EQ(testlib::snapshot_fingerprint(timeline.snapshot_at(days[i])),
                  naive[i])
            << "snapshot_at, " << simd::level_name(level) << " x "
            << threads << " threads, day " << days[i];
      }
    }
  }
  simd::set_level(simd::detected_level());
  core::set_thread_count(1);
}

}  // namespace
