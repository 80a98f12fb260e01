// SanTimeline equivalence and BipartiteCsr invariants.
//
// The timeline contract is exact: snapshot_at(t) through the index must be
// indistinguishable — adjacency arrays, member ordering, metrics, dropped
// counts — from the naive full-log-scan san::snapshot_at at every t. The
// randomized suites check that on generated SANs at many random times.
#include "san/timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <latch>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "graph/bipartite_csr.hpp"
#include "obs/trace.hpp"
#include "san/san_metrics.hpp"
#include "san/serialization.hpp"
#include "san_testlib.hpp"
#include "stats/rng.hpp"

namespace {

using san::AttrId;
using san::AttributeType;
using san::NodeId;
using san::SanSnapshot;
using san::SanTimeline;
using san::SocialAttributeNetwork;
using san::snapshot_at;
using san::graph::BipartiteCsr;

void expect_snapshots_identical(const SanSnapshot& a, const SanSnapshot& b,
                                double time) {
  SCOPED_TRACE(testing::Message() << "time=" << time);
  ASSERT_EQ(a.social_node_count(), b.social_node_count());
  ASSERT_EQ(a.social_link_count(), b.social_link_count());
  ASSERT_EQ(a.attribute_link_count, b.attribute_link_count);
  ASSERT_EQ(a.attribute_node_count(), b.attribute_node_count());
  ASSERT_EQ(a.attribute_id_count(), b.attribute_id_count());
  ASSERT_EQ(a.dropped_link_count, b.dropped_link_count);
  EXPECT_EQ(a.populated_attribute_count(), b.populated_attribute_count());
  EXPECT_EQ(a.attribute_types, b.attribute_types);
  EXPECT_EQ(a.attribute_created, b.attribute_created);

  for (NodeId u = 0; u < a.social_node_count(); ++u) {
    const auto ao = a.social.out(u);
    const auto bo = b.social.out(u);
    ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()))
        << "out list differs at node " << u;
    const auto ai = a.social.in(u);
    const auto bi = b.social.in(u);
    ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()))
        << "in list differs at node " << u;
    const auto an = a.social.neighbors(u);
    const auto bn = b.social.neighbors(u);
    ASSERT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()))
        << "neighbor list differs at node " << u;
    const auto aa = a.attributes_of(u);
    const auto ba = b.attributes_of(u);
    ASSERT_TRUE(std::equal(aa.begin(), aa.end(), ba.begin(), ba.end()))
        << "attribute list differs at node " << u;
  }
  for (AttrId x = 0; x < a.attribute_id_count(); ++x) {
    const auto am = a.members_of(x);
    const auto bm = b.members_of(x);
    ASSERT_TRUE(std::equal(am.begin(), am.end(), bm.begin(), bm.end()))
        << "member list differs (incl. order) at attribute " << x;
  }

  // Metric identity, including the float-accumulation-order-sensitive ones.
  EXPECT_EQ(san::attribute_density(a), san::attribute_density(b));
  EXPECT_EQ(san::attribute_assortativity(a), san::attribute_assortativity(b));
}

void check_equivalence_at_random_times(const SocialAttributeNetwork& net,
                                       std::size_t samples,
                                       std::uint64_t seed) {
  const SanTimeline timeline(net);
  san::stats::Rng rng(seed);
  const double horizon = timeline.max_time() * 1.1 + 1.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double t = rng.uniform() * horizon;
    expect_snapshots_identical(timeline.snapshot_at(t), snapshot_at(net, t), t);
  }
  expect_snapshots_identical(timeline.snapshot_full(), san::snapshot_full(net),
                             timeline.max_time());
}

/// Links logged with timestamps before their endpoint joins (or their
/// attribute is created): dropped at early days, they must ACTIVATE —
/// including mid-list in members_of time order — once the endpoint
/// arrives.
SocialAttributeNetwork activation_network() {
  SocialAttributeNetwork net;
  net.add_social_node(1.0);
  net.add_social_node(1.0);
  net.add_social_node(2.0);
  net.add_social_node(6.0);
  const auto a = net.add_attribute_node(AttributeType::kCity, "SF", 1.0);
  const auto b = net.add_attribute_node(AttributeType::kEmployer, "G", 5.0);
  net.add_social_link(1, 2, 1.2);  // predates node 2's join (2.0)
  net.add_social_link(0, 1, 1.5);
  net.add_social_link(0, 3, 1.7);  // predates node 3's join (6.0)
  net.add_social_link(1, 0, 2.5);
  net.add_attribute_link(2, a, 1.1);  // predates user 2's join
  net.add_attribute_link(0, a, 1.3);
  net.add_attribute_link(1, b, 3.0);  // predates attribute b (5.0)
  net.add_attribute_link(1, a, 4.0);
  return net;
}

/// add_* allows locally out-of-order link timestamps (e.g. a clamped link
/// time exceeding a later event's); the stable time sort must agree with
/// the naive filter at every cut.
SocialAttributeNetwork out_of_order_network() {
  SocialAttributeNetwork net;
  net.add_social_node(1.0);
  net.add_social_node(1.0);
  net.add_social_node(2.0);
  const auto a = net.add_attribute_node(AttributeType::kCity, "SF", 1.0);
  const auto b = net.add_attribute_node(AttributeType::kEmployer, "G", 1.0);
  net.add_social_link(0, 2, 3.0);  // later time logged first
  net.add_social_link(0, 1, 1.5);
  net.add_social_link(1, 0, 2.5);
  net.add_attribute_link(1, b, 2.0);
  net.add_attribute_link(0, a, 1.0);
  net.add_attribute_link(2, a, 4.0);
  return net;
}

/// Every cut of the small hand-built networks above, plus one before the
/// first event and t = +inf.
std::vector<double> edge_case_times() {
  return {-1.0, 0.5, 1.0, 1.1, 1.4, 1.5, 1.8, 1.9, 2.0, 2.5, 3.0,
          3.5,  4.0, 4.5, 5.0, 5.5, 6.0, 9.0,
          std::numeric_limits<double>::infinity()};
}

TEST(Timeline, MatchesNaiveSnapshotsOnModelSan) {
  check_equivalence_at_random_times(san::testlib::model_san(600, 11), 25, 99);
}

TEST(Timeline, MatchesNaiveSnapshotsOnSyntheticGplus) {
  check_equivalence_at_random_times(san::testlib::synthetic_gplus(1'500, 5),
                                    25, 1234);
}

TEST(Timeline, MatchesNaiveOnSerializationRoundTrip) {
  const auto net = san::testlib::synthetic_gplus(800, 21);

  // Fractional timestamps must survive the text round trip exactly, or the
  // reloaded timeline's snapshot boundaries shift.
  std::stringstream buffer;
  san::save_san(net, buffer);
  const auto reloaded = san::load_san(buffer);
  const SanTimeline timeline(reloaded);
  san::stats::Rng rng(7);
  for (std::size_t i = 0; i < 10; ++i) {
    const double t = rng.uniform() * (timeline.max_time() + 1.0);
    expect_snapshots_identical(timeline.snapshot_at(t), snapshot_at(net, t), t);
  }
}

TEST(Timeline, SweepMatchesIndividualSnapshots) {
  const auto net = san::testlib::model_san(400, 3);
  const SanTimeline timeline(net);

  std::vector<double> times;
  const double stride = timeline.max_time() / 7.0 + 0.1;
  for (double t = 0.0; t <= timeline.max_time() + 1.0; t += stride) {
    times.push_back(t);
  }
  std::size_t visited = 0;
  timeline.sweep(times, [&](double t, const SanSnapshot& snap) {
    expect_snapshots_identical(snap, snapshot_at(net, t), t);
    ++visited;
  });
  EXPECT_EQ(visited, times.size());
}

TEST(Timeline, CountsAndMaxTime) {
  const auto net = san::testlib::model_san(200, 17);
  const SanTimeline timeline(net);
  EXPECT_EQ(timeline.social_node_total(), net.social_node_count());
  EXPECT_EQ(timeline.attribute_node_total(), net.attribute_node_count());
  EXPECT_EQ(timeline.social_link_total(), net.social_link_count());
  EXPECT_EQ(timeline.attribute_link_total(), net.attribute_link_count());
  const auto full = timeline.snapshot_at(timeline.max_time());
  EXPECT_EQ(full.social_node_count(), net.social_node_count());
  EXPECT_EQ(full.social_link_count(), net.social_link_count());
}

TEST(Timeline, EmptyNetwork) {
  const SocialAttributeNetwork net;
  const SanTimeline timeline(net);
  EXPECT_EQ(timeline.max_time(), 0.0);
  for (const double t : edge_case_times()) {
    const auto snap = timeline.snapshot_at(t);
    EXPECT_EQ(snap.social_node_count(), 0u);
    EXPECT_EQ(snap.attribute_link_count, 0u);
    expect_snapshots_identical(snap, snapshot_at(net, t), t);
  }
}

TEST(Timeline, AbsorbDropsTheLinkIndex) {
  // Grow a network after its timeline has served a dense snapshot (which
  // built the link index): once absorbed, snapshot_at must equal a freshly
  // built timeline's, at cuts before and after the new events — a stale
  // index would miss the new links or read past its node range.
  auto net = san::testlib::synthetic_gplus(600, 41);
  SanTimeline timeline(net);
  const double old_max = timeline.max_time();
  (void)timeline.snapshot_at(old_max / 2.0);

  const NodeId first_new = static_cast<NodeId>(net.social_node_count());
  for (int i = 0; i < 5; ++i) net.add_social_node(old_max + 1.0);
  ASSERT_TRUE(net.add_social_link(first_new, 0, old_max + 1.5));
  ASSERT_TRUE(net.add_social_link(1, first_new + 1, old_max + 2.0));
  // Late: the first absent 0 -> v link, inside the old time range.
  NodeId v = 1;
  while (!net.add_social_link(0, v, old_max / 4.0)) ++v;
  ASSERT_LT(v, first_new);
  ASSERT_TRUE(net.add_social_link(first_new + 2, first_new + 3, old_max + 0.5));
  ASSERT_TRUE(net.add_attribute_link(first_new + 4, 0, old_max + 2.5));
  timeline.absorb(net);

  const SanTimeline fresh(net);
  for (const double t : {old_max / 4.0, old_max / 2.0, old_max + 1.0,
                         old_max + 1.5, old_max + 3.0}) {
    const auto snap = timeline.snapshot_at(t);
    expect_snapshots_identical(snap, fresh.snapshot_at(t), t);
    expect_snapshots_identical(snap, snapshot_at(net, t), t);
  }
}

TEST(Timeline, RacingFirstSnapshotsBuildTheIndexOnce) {
  // Eight threads released together into one timeline's first dense
  // snapshot: the lazily built link index is shared state, so exactly one
  // of them may build it (one "timeline.index" span) and all must agree
  // with a snapshot of an independent timeline.
  const auto net = san::testlib::synthetic_gplus(1'500, 23);
  const SanTimeline timeline(net);
  const double t = timeline.max_time() * 0.6;
  const std::uint64_t expected =
      san::testlib::snapshot_fingerprint(SanTimeline(net).snapshot_at(t));

  constexpr std::size_t kThreads = 8;
  std::vector<std::uint64_t> fingerprints(kThreads, 0);
  std::latch start(kThreads);
  san::obs::set_tracing_enabled(true);
  const std::uint64_t spans_before = san::obs::span_count();
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        start.arrive_and_wait();
        fingerprints[i] =
            san::testlib::snapshot_fingerprint(timeline.snapshot_at(t));
      });
    }
  }
  const std::uint64_t index_builds = san::obs::span_count() - spans_before;
  san::obs::set_tracing_enabled(false);
  EXPECT_EQ(index_builds, 1u);
  for (std::size_t i = 0; i < kThreads; ++i) {
    EXPECT_EQ(fingerprints[i], expected) << "thread " << i;
  }
}

TEST(Timeline, FullRebuildsAfterAbsorbFilterAFreshIndex) {
  // Both full-rebuild triggers of advance() on a timeline that absorbed
  // since its link index was built: slack exhaustion after in-order
  // absorbs, and invalidate() after a late one. Each rebuild must filter a
  // fresh index (exactly one "timeline.index" span) and match the naive
  // snapshot; a stale index would miss the absorbed links. The node set
  // never grows, so a stale index stays in range and fails by content.
  SocialAttributeNetwork net;
  for (int i = 0; i < 40; ++i) net.add_social_node(1.0);
  for (NodeId v = 1; v <= 8; ++v) ASSERT_TRUE(net.add_social_link(0, v, 1.0));
  const auto add_links_from_0 = [&](NodeId first, NodeId last, double t) {
    for (NodeId v = first; v <= last; ++v) {
      ASSERT_TRUE(net.add_social_link(0, v, t));
    }
  };
  SanTimeline timeline(net);
  SanTimeline::Materializer materializer(timeline);
  SanSnapshot snap;
  san::obs::set_tracing_enabled(true);
  const auto index_builds_during_advance = [&](double t) {
    const std::uint64_t before = san::obs::span_count();
    materializer.advance(t, snap);
    return san::obs::span_count() - before;
  };
  EXPECT_EQ(index_builds_during_advance(1.0), 1u);  // first: slack build
  expect_snapshots_identical(snap, snapshot_at(net, 1.0), 1.0);

  // Node 0 holds 8 out-links in a 16-slot region. Nine more relocate it
  // (16 stranded slots against 17 live links): still a delta.
  add_links_from_0(9, 17, 2.0);
  timeline.absorb(net);
  EXPECT_EQ(index_builds_during_advance(2.0), 0u);
  expect_snapshots_identical(snap, snapshot_at(net, 2.0), 2.0);

  // Eighteen more overflow its 34-slot region again, which would strand
  // 16 + 34 slots against 35 live links: append refuses, advance rebuilds.
  add_links_from_0(18, 35, 3.0);
  timeline.absorb(net);
  EXPECT_EQ(index_builds_during_advance(3.0), 1u);
  expect_snapshots_identical(snap, snapshot_at(net, 3.0), 3.0);

  // A late link lands inside the applied region: invalidate, rebuild.
  ASSERT_TRUE(net.add_social_link(5, 6, 1.5));
  timeline.absorb(net);
  materializer.invalidate();
  EXPECT_EQ(index_builds_during_advance(3.0), 1u);
  expect_snapshots_identical(snap, snapshot_at(net, 3.0), 3.0);
  san::obs::set_tracing_enabled(false);
}

// ---- Delta sweep (Materializer::advance). ----

TEST(Timeline, AdvanceMatchesNaiveDayByDay) {
  const auto net = san::testlib::synthetic_gplus(1'200, 31);
  const SanTimeline timeline(net);

  SanTimeline::Materializer materializer(timeline);
  SanSnapshot snap;
  const double stride = timeline.max_time() / 23.0 + 0.05;
  for (double t = 0.0; t <= timeline.max_time() + 1.0; t += stride) {
    materializer.advance(t, snap);
    expect_snapshots_identical(snap, snapshot_at(net, t), t);
  }
}

TEST(Timeline, AdvanceActivatesLinksThatPredateTheirEndpoints) {
  // Drives advance()'s rebuild fallbacks as deferred links activate, and
  // the dense path's filter, which drops a link (and counts it in
  // dropped_link_count) until its endpoint's cut.
  const auto net = activation_network();
  const SanTimeline timeline(net);

  SanTimeline::Materializer materializer(timeline);
  SanSnapshot snap;
  std::uint64_t dropped_anywhere = 0;
  for (const double t : edge_case_times()) {
    materializer.advance(t, snap);
    expect_snapshots_identical(snap, snapshot_at(net, t), t);
    expect_snapshots_identical(timeline.snapshot_at(t), snapshot_at(net, t),
                               t);
    dropped_anywhere += snap.dropped_link_count;
  }
  EXPECT_GT(dropped_anywhere, 0u) << "the network must exercise drops";
}

TEST(Timeline, AdvanceFallsBackOnFreshSnapshotAndRegression) {
  const auto net = san::testlib::model_san(300, 8);
  const SanTimeline timeline(net);
  const double mid = timeline.max_time() / 2.0;

  SanTimeline::Materializer materializer(timeline);
  SanSnapshot snap;
  materializer.advance(mid, snap);  // fresh snapshot: full build
  expect_snapshots_identical(snap, snapshot_at(net, mid), mid);
  materializer.advance(timeline.max_time(), snap);  // delta forward
  expect_snapshots_identical(snap, snapshot_at(net, timeline.max_time()),
                             timeline.max_time());
  materializer.advance(mid, snap);  // regression: full rebuild
  expect_snapshots_identical(snap, snapshot_at(net, mid), mid);

  // A different snapshot object invalidates the delta state.
  SanSnapshot other;
  materializer.advance(mid, other);
  expect_snapshots_identical(other, snapshot_at(net, mid), mid);
}

TEST(Timeline, AdvanceTakesTheDeltaPathOnACopyOfItsLastOutput) {
  // A copy shares its original's generation, so the Materializer treats it
  // as its own last output and takes the delta path. Observable through
  // storage: a delta with nothing to append leaves the copy's buffers in
  // place, where a full build always adopts freshly allocated ones (built
  // while the old ones are still held, so the address must change).
  // Advancing stamps the copy anew, so the original no longer matches and
  // rebuilds.
  const auto net = san::testlib::model_san(300, 8);
  const SanTimeline timeline(net);
  const double mid = timeline.max_time() / 2.0;
  const double next = mid + timeline.max_time() / 40.0;
  ASSERT_GT(snapshot_at(net, next).social_link_count(),
            snapshot_at(net, mid).social_link_count());
  const auto storage = [](const SanSnapshot& snap) {
    return snap.social.out(0).data();
  };

  SanTimeline::Materializer materializer(timeline);
  SanSnapshot original;
  materializer.advance(mid, original);
  SanSnapshot copy = original;
  ASSERT_EQ(copy.generation, original.generation);

  const NodeId* copy_storage = storage(copy);
  materializer.advance(mid, copy);
  EXPECT_EQ(storage(copy), copy_storage) << "copy took a full rebuild";
  EXPECT_NE(copy.generation, original.generation);
  materializer.advance(next, copy);
  expect_snapshots_identical(copy, snapshot_at(net, next), next);

  const NodeId* original_storage = storage(original);
  materializer.advance(next, original);
  EXPECT_NE(storage(original), original_storage) << "original took a delta";
  expect_snapshots_identical(original, snapshot_at(net, next), next);
  EXPECT_NE(original.generation, copy.generation);
}

TEST(Timeline, AdvanceDetectsFreshSnapshotAtReusedAddress) {
  // A loop-local snapshot typically lands at the SAME stack address every
  // iteration, so the Materializer's identity check must not rely on the
  // address alone — a fresh (default) snapshot there has to trigger a
  // full build, never a delta applied on top of empty state.
  const auto net = san::testlib::model_san(300, 19);
  const SanTimeline timeline(net);
  SanTimeline::Materializer materializer(timeline);
  for (const double t : {timeline.max_time() / 3.0,
                         timeline.max_time() / 2.0, timeline.max_time()}) {
    SanSnapshot snap;
    materializer.advance(t, snap);
    expect_snapshots_identical(snap, snapshot_at(net, t), t);
  }
}

TEST(Timeline, SweepByteIdenticalAcrossThreadCounts) {
  // Gates both the chunk-parallel social counting passes and the delta
  // append path: the whole sweep must be byte-identical at 1/2/4/8 lanes.
  const auto net = san::testlib::synthetic_gplus(2'000, 13);
  const SanTimeline timeline(net);

  std::vector<double> days;
  for (double t = 1.0; t <= timeline.max_time() + 1.0;
       t += timeline.max_time() / 11.0) {
    days.push_back(t);
  }
  const auto fingerprint = san::testlib::snapshot_fingerprint;

  std::vector<std::uint64_t> reference;
  timeline.sweep(days, [&](double, const SanSnapshot& snap) {
    reference.push_back(fingerprint(snap));
  });
  const std::size_t restore = san::core::thread_count();
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    san::core::set_thread_count(threads);
    std::size_t i = 0;
    timeline.sweep(days, [&](double, const SanSnapshot& snap) {
      EXPECT_EQ(fingerprint(snap), reference[i]) << "day index " << i;
      ++i;
    });
    for (i = 0; i < days.size(); ++i) {
      EXPECT_EQ(fingerprint(timeline.snapshot_at(days[i])), reference[i])
          << "day index " << i;
    }
  }
  san::core::set_thread_count(restore);
}

TEST(Timeline, OutOfOrderLogTimesStillMatchNaive) {
  const auto net = out_of_order_network();
  const SanTimeline timeline(net);
  for (const double t : edge_case_times()) {
    expect_snapshots_identical(timeline.snapshot_at(t), snapshot_at(net, t), t);
  }
}

// ---- BipartiteCsr invariants. ----

TEST(BipartiteCsr, SortedLeftSpansAndDegreeSums) {
  san::stats::Rng rng(42);
  const std::size_t n_left = 60, n_right = 25;
  std::vector<NodeId> users;
  std::vector<AttrId> attrs;
  std::vector<std::uint8_t> seen(n_left * n_right, 0);
  for (std::size_t i = 0; i < 400; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_index(n_left));
    const auto x = static_cast<AttrId>(rng.uniform_index(n_right));
    if (seen[u * n_right + x]) continue;  // keep links unique
    seen[u * n_right + x] = 1;
    users.push_back(u);
    attrs.push_back(x);
  }
  const auto csr = BipartiteCsr::from_links(n_left, n_right, users, attrs);
  EXPECT_EQ(csr.link_count(), users.size());

  std::uint64_t left_sum = 0, right_sum = 0;
  for (NodeId u = 0; u < n_left; ++u) {
    const auto span = csr.attrs_of(u);
    left_sum += span.size();
    for (std::size_t i = 1; i < span.size(); ++i) {
      EXPECT_LT(span[i - 1], span[i]) << "attrs_of not strictly ascending";
    }
  }
  for (AttrId x = 0; x < n_right; ++x) right_sum += csr.members_of(x).size();
  EXPECT_EQ(left_sum, csr.link_count());
  EXPECT_EQ(right_sum, csr.link_count());
}

TEST(BipartiteCsr, MembersPreserveInputOrder) {
  const std::vector<NodeId> users{3, 1, 2, 0};
  const std::vector<AttrId> attrs{0, 0, 0, 0};
  const auto csr = BipartiteCsr::from_links(4, 1, users, attrs);
  const auto members = csr.members_of(0);
  ASSERT_EQ(members.size(), 4u);
  EXPECT_EQ(members[0], 3u);
  EXPECT_EQ(members[1], 1u);
  EXPECT_EQ(members[2], 2u);
  EXPECT_EQ(members[3], 0u);
}

TEST(BipartiteCsr, RebuildReusesAndResets) {
  BipartiteCsr csr;
  const std::vector<NodeId> u1{0, 1, 2};
  const std::vector<AttrId> a1{1, 0, 1};
  csr.rebuild_from_links(3, 2, u1, a1);
  EXPECT_EQ(csr.link_count(), 3u);
  const std::vector<NodeId> u2{1};
  const std::vector<AttrId> a2{0};
  csr.rebuild_from_links(2, 1, u2, a2);
  EXPECT_EQ(csr.left_count(), 2u);
  EXPECT_EQ(csr.right_count(), 1u);
  EXPECT_EQ(csr.link_count(), 1u);
  ASSERT_EQ(csr.members_of(0).size(), 1u);
  EXPECT_EQ(csr.members_of(0)[0], 1u);
  EXPECT_TRUE(csr.attrs_of(0).empty());
}

TEST(BipartiteCsr, CommonAttrs) {
  const std::vector<NodeId> users{0, 0, 1, 1, 1};
  const std::vector<AttrId> attrs{0, 2, 0, 1, 2};
  const auto csr = BipartiteCsr::from_links(2, 3, users, attrs);
  EXPECT_EQ(csr.common_attrs(0, 1), 2u);
  EXPECT_EQ(csr.common_attrs(0, 0), 2u);
}

TEST(BipartiteCsr, RejectsOutOfRange) {
  const std::vector<NodeId> users{5};
  const std::vector<AttrId> attrs{0};
  EXPECT_THROW(BipartiteCsr::from_links(2, 1, users, attrs), std::out_of_range);
}

TEST(BipartiteCsr, ParallelScatterMatchesSerialReferenceAtAnyThreadCount) {
  // A large, skewed input (hot users and attributes): every thread count
  // must reproduce the serial reference byte for byte.
  san::stats::Rng rng(271828);
  const std::size_t n_left = 4'000, n_right = 700, m = 300'000;
  std::vector<NodeId> users(m);
  std::vector<AttrId> attrs(m);
  for (std::size_t i = 0; i < m; ++i) {
    // Skewed keys (hot users/attributes) to stress unequal chunk rows.
    users[i] = static_cast<NodeId>(
        std::min<std::uint64_t>(rng.uniform_index(n_left),
                                rng.uniform_index(n_left)));
    attrs[i] = static_cast<AttrId>(
        std::min<std::uint64_t>(rng.uniform_index(n_right),
                                rng.uniform_index(n_right)));
  }

  // Serial reference: members in input order, attrs ascending. Uniqueness
  // is the caller's contract; the counting sorts are duplicate-agnostic, so
  // the random pairs here (which may repeat) still have one exact answer.
  std::vector<std::vector<NodeId>> members(n_right);
  std::vector<std::vector<AttrId>> attr_lists(n_left);
  for (std::size_t i = 0; i < m; ++i) members[attrs[i]].push_back(users[i]);
  for (AttrId a = 0; a < n_right; ++a) {
    for (const NodeId u : members[a]) attr_lists[u].push_back(a);
  }

  const std::size_t restore = san::core::thread_count();
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    san::core::set_thread_count(threads);
    const auto csr = BipartiteCsr::from_links(n_left, n_right, users, attrs);
    ASSERT_EQ(csr.link_count(), m);
    for (AttrId a = 0; a < n_right; ++a) {
      const auto span = csr.members_of(a);
      ASSERT_TRUE(std::equal(span.begin(), span.end(), members[a].begin(),
                             members[a].end()))
          << "members_of(" << a << ") deviates";
    }
    for (NodeId u = 0; u < n_left; ++u) {
      const auto span = csr.attrs_of(u);
      ASSERT_TRUE(std::equal(span.begin(), span.end(), attr_lists[u].begin(),
                             attr_lists[u].end()))
          << "attrs_of(" << u << ") deviates";
    }
  }
  san::core::set_thread_count(restore);
}

// ---- CsrGraph::from_sorted_edges fast path. ----

TEST(CsrFromSorted, MatchesCanonicalBuild) {
  san::stats::Rng rng(9);
  const std::size_t n = 80;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t i = 0; i < 500; ++i) {
    edges.emplace_back(static_cast<NodeId>(rng.uniform_index(n)),
                       static_cast<NodeId>(rng.uniform_index(n)));
  }
  const auto reference = san::graph::CsrGraph::from_edges(n, edges);
  std::sort(edges.begin(), edges.end());  // duplicates + self loops remain
  const auto fast = san::graph::CsrGraph::from_sorted_edges(n, edges);
  ASSERT_EQ(fast.node_count(), reference.node_count());
  ASSERT_EQ(fast.edge_count(), reference.edge_count());
  for (NodeId u = 0; u < n; ++u) {
    const auto fo = fast.out(u), ro = reference.out(u);
    ASSERT_TRUE(std::equal(fo.begin(), fo.end(), ro.begin(), ro.end()));
    const auto fi = fast.in(u), ri = reference.in(u);
    ASSERT_TRUE(std::equal(fi.begin(), fi.end(), ri.begin(), ri.end()));
    const auto fn = fast.neighbors(u), rn = reference.neighbors(u);
    ASSERT_TRUE(std::equal(fn.begin(), fn.end(), rn.begin(), rn.end()));
  }
}

TEST(CsrFromSorted, RejectsUnsortedInput) {
  const std::vector<std::pair<NodeId, NodeId>> edges{{1, 0}, {0, 1}};
  EXPECT_THROW(san::graph::CsrGraph::from_sorted_edges(2, edges),
               std::invalid_argument);
}

// ---- CsrGraph append (slack layout) fast path. ----

namespace csr_append {

void expect_graphs_equal(const san::graph::CsrGraph& a,
                         const san::graph::CsrGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId u = 0; u < a.node_count(); ++u) {
    const auto ao = a.out(u), bo = b.out(u);
    ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()))
        << "out list differs at node " << u;
    const auto ai = a.in(u), bi = b.in(u);
    ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()))
        << "in list differs at node " << u;
    const auto an = a.neighbors(u), bn = b.neighbors(u);
    ASSERT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()))
        << "neighbor list differs at node " << u;
  }
}

void split(const std::vector<std::pair<NodeId, NodeId>>& edges,
           std::vector<NodeId>& srcs, std::vector<NodeId>& dsts) {
  srcs.resize(edges.size());
  dsts.resize(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    srcs[i] = edges[i].first;
    dsts[i] = edges[i].second;
  }
}

/// Median wall time in ns of `step(s, k)` for each of two sizes s, over
/// k in [0, reps). The sizes alternate, so host drift lands on both.
template <typename Step>
std::array<double, 2> median_ns(std::size_t reps, Step&& step) {
  std::array<std::vector<double>, 2> ns;
  for (std::size_t k = 0; k < reps; ++k) {
    for (std::size_t s = 0; s < 2; ++s) {
      const auto t0 = std::chrono::steady_clock::now();
      step(s, k);
      ns[s].push_back(std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    }
  }
  std::array<double, 2> median{};
  for (std::size_t s = 0; s < 2; ++s) {
    std::nth_element(ns[s].begin(), ns[s].begin() + reps / 2, ns[s].end());
    median[s] = ns[s][reps / 2];
  }
  return median;
}

}  // namespace csr_append

TEST(CsrAppend, SlackBuildMatchesDenseSpans) {
  san::stats::Rng rng(5150);
  const std::size_t n = 120;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t i = 0; i < 900; ++i) {
    edges.emplace_back(static_cast<NodeId>(rng.uniform_index(n)),
                       static_cast<NodeId>(rng.uniform_index(n)));
  }
  std::sort(edges.begin(), edges.end());
  std::vector<NodeId> srcs, dsts;
  csr_append::split(edges, srcs, dsts);
  san::graph::CsrGraph dense, slack;
  dense.rebuild_from_sorted_edges(n, srcs, dsts, /*with_slack=*/false);
  slack.rebuild_from_sorted_edges(n, srcs, dsts, /*with_slack=*/true);
  csr_append::expect_graphs_equal(slack, dense);
}

TEST(CsrAppend, BatchedAppendsMatchFullBuilds) {
  // Grow a graph batch by batch (unique edges, growing node count) exactly
  // as the delta sweep does, comparing spans against a from-scratch build
  // after every batch; rebuild with fresh slack whenever append refuses.
  san::stats::Rng rng(90125);
  const std::size_t n_final = 150, batches = 12;
  std::vector<std::pair<NodeId, NodeId>> all;
  for (NodeId u = 0; u < n_final; ++u) {
    for (NodeId v = 0; v < n_final; ++v) {
      if (u != v && rng.uniform() < 0.05) all.emplace_back(u, v);
    }
  }
  // Random batch order, unique by construction.
  for (std::size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.uniform_index(i)]);
  }

  san::graph::CsrGraph g;
  std::vector<std::pair<NodeId, NodeId>> seen;
  std::vector<NodeId> srcs, dsts;
  std::size_t refusals = 0;
  std::size_t nodes = 1;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t begin = all.size() * b / batches;
    const std::size_t end = all.size() * (b + 1) / batches;
    std::vector<std::pair<NodeId, NodeId>> batch(all.begin() + begin,
                                                 all.begin() + end);
    std::sort(batch.begin(), batch.end());
    seen.insert(seen.end(), batch.begin(), batch.end());
    // Node count grows with the ids seen so far, exercising joining-node
    // regions on most batches.
    for (const auto& [u, v] : batch) {
      nodes = std::max<std::size_t>(nodes, std::max(u, v) + 1);
    }
    csr_append::split(batch, srcs, dsts);
    if (b == 0) {
      // Seed DENSE: the very next append must refuse (zero slack), forcing
      // at least one refusal -> slack-rebuild cycle through the loop.
      g.rebuild_from_sorted_edges(nodes, srcs, dsts, /*with_slack=*/false);
    } else if (!g.append_sorted_links(nodes, srcs, dsts)) {
      ++refusals;
      std::vector<std::pair<NodeId, NodeId>> sorted_seen(seen);
      std::sort(sorted_seen.begin(), sorted_seen.end());
      csr_append::split(sorted_seen, srcs, dsts);
      g.rebuild_from_sorted_edges(nodes, srcs, dsts, /*with_slack=*/true);
    }
    csr_append::expect_graphs_equal(g, san::graph::CsrGraph::from_edges(
                                           nodes, seen));
  }
  // Overflowing nodes relocate in place (the dense seed leaves every node
  // with zero slack, so batch 2 relocates heavily); with amortized-doubling
  // capacities the appends must not all degrade to compacting rebuilds.
  EXPECT_LT(refusals, batches - 1);
}

TEST(CsrAppend, OverflowRelocatesUntilWasteExceedsLiveThenRefuses) {
  // Node 0 starts with 10 dense out-links (live 10, zero slack).
  const std::size_t n = 30;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v <= 10; ++v) edges.emplace_back(0, v);
  std::vector<NodeId> srcs, dsts;
  csr_append::split(edges, srcs, dsts);
  san::graph::CsrGraph g;
  g.rebuild_from_sorted_edges(n, srcs, dsts, /*with_slack=*/false);

  // Appending one more link overflows node 0's region: it RELOCATES
  // (waste 10 <= live 11) rather than refusing.
  std::vector<NodeId> s1{0}, d1{11};
  ASSERT_TRUE(g.append_sorted_links(n, s1, d1));
  EXPECT_EQ(g.edge_count(), 11u);

  // Fill the doubled region: capacity is slack_capacity(11) = 22.
  std::vector<NodeId> s2, d2;
  for (NodeId v = 12; v <= 22; ++v) {
    s2.push_back(0);
    d2.push_back(v);
  }
  ASSERT_TRUE(g.append_sorted_links(n, s2, d2));
  EXPECT_EQ(g.edge_count(), 22u);

  // One more overflow would strand 10 + 22 dead slots against 23 live
  // links: the append must refuse and leave the graph untouched, so the
  // caller compacts with a full rebuild.
  std::vector<NodeId> s3{0}, d3{23};
  EXPECT_FALSE(g.append_sorted_links(n, s3, d3));
  EXPECT_EQ(g.edge_count(), 22u);
  ASSERT_EQ(g.out(0).size(), 22u);
  EXPECT_EQ(g.out(0)[0], 1u);
  EXPECT_EQ(g.out(0)[21], 22u);
  edges.clear();
  for (NodeId v = 1; v <= 22; ++v) edges.emplace_back(0, v);
  csr_append::expect_graphs_equal(g,
                                  san::graph::CsrGraph::from_edges(n, edges));
}

TEST(CsrAppend, RejectsMalformedBatches) {
  san::graph::CsrGraph g;
  const std::vector<NodeId> srcs{0}, dsts{1};
  g.rebuild_from_sorted_edges(2, srcs, dsts, /*with_slack=*/true);
  const std::vector<NodeId> self{1};
  EXPECT_THROW(g.append_sorted_links(2, self, self), std::invalid_argument);
  const std::vector<NodeId> u2{1, 0}, v2{0, 1};  // unsorted
  EXPECT_THROW(g.append_sorted_links(2, u2, v2), std::invalid_argument);
  const std::vector<NodeId> big{5};
  EXPECT_THROW(g.append_sorted_links(2, big, dsts), std::out_of_range);
  EXPECT_THROW(g.append_sorted_links(1, srcs, dsts), std::invalid_argument);
}

TEST(CsrAppend, RejectedAppendLeavesTheGraphUnchanged) {
  // Each malformed batch is valid up to its LAST link, so a call that
  // mutated while validating would leave the earlier links behind.
  std::vector<std::pair<NodeId, NodeId>> edges{{0, 1}, {1, 2}, {2, 0}};
  std::vector<NodeId> srcs, dsts;
  csr_append::split(edges, srcs, dsts);
  san::graph::CsrGraph g;
  g.rebuild_from_sorted_edges(4, srcs, dsts, /*with_slack=*/true);
  const auto before = san::graph::CsrGraph::from_edges(4, edges);

  const std::vector<NodeId> s_range{0, 1, 3}, d_range{2, 3, 9};
  EXPECT_THROW(g.append_sorted_links(5, s_range, d_range), std::out_of_range);
  csr_append::expect_graphs_equal(g, before);
  const std::vector<NodeId> s_loop{0, 1, 3}, d_loop{2, 3, 3};
  EXPECT_THROW(g.append_sorted_links(5, s_loop, d_loop),
               std::invalid_argument);
  csr_append::expect_graphs_equal(g, before);
  const std::vector<NodeId> s_order{0, 3, 1}, d_order{2, 1, 3};
  EXPECT_THROW(g.append_sorted_links(5, s_order, d_order),
               std::invalid_argument);
  csr_append::expect_graphs_equal(g, before);
  const std::vector<NodeId> s_ok{0, 1, 3}, d_ok{2, 3, 1};
  EXPECT_THROW(g.append_sorted_links(3, s_ok, d_ok), std::invalid_argument);
  csr_append::expect_graphs_equal(g, before);

  // The rejections left no stale scratch behind: a valid append lands.
  ASSERT_TRUE(g.append_sorted_links(5, s_ok, d_ok));
  edges.insert(edges.end(), {{0, 2}, {1, 3}, {3, 1}});
  csr_append::expect_graphs_equal(g,
                                  san::graph::CsrGraph::from_edges(5, edges));
}

TEST(CsrAppend, IncrementalNeighborMergeMatchesFreshBuild) {
  // A node that keeps its regions merges only its new neighbors into its
  // neighbor list; compare every view against a fresh build after each
  // batch.
  const std::size_t n = 6000;
  const NodeId hub = 5000;
  std::vector<std::pair<NodeId, NodeId>> seen;
  for (NodeId v = 3000; v < 3100; ++v) seen.emplace_back(v, hub);
  for (NodeId v = 3100; v < 3150; ++v) seen.emplace_back(hub, v);
  seen.emplace_back(1, 2);
  seen.emplace_back(20, 21);
  std::sort(seen.begin(), seen.end());
  std::vector<NodeId> srcs, dsts;
  csr_append::split(seen, srcs, dsts);
  san::graph::CsrGraph g;
  g.rebuild_from_sorted_edges(n, srcs, dsts, /*with_slack=*/true);

  const auto append = [&](std::vector<std::pair<NodeId, NodeId>> batch) {
    std::sort(batch.begin(), batch.end());
    csr_append::split(batch, srcs, dsts);
    ASSERT_TRUE(g.append_sorted_links(n, srcs, dsts));
    seen.insert(seen.end(), batch.begin(), batch.end());
    csr_append::expect_graphs_equal(g,
                                    san::graph::CsrGraph::from_edges(n, seen));
  };

  std::vector<std::pair<NodeId, NodeId>> batch{
      {2, 1},               // reverse of a present link: no duplicate
      {10, 11}, {11, 10}};  // both directions of a new pair
  // The hub gains in-links from ids below all its neighbors, so the merge
  // shifts its whole list; it keeps its region (in cap 200, 110 live).
  for (NodeId v = 0; v < 10; ++v) batch.emplace_back(v, hub);
  // Node 20 outgrows its out region (cap 5) and relocates in the same
  // batch.
  for (NodeId v = 22; v < 27; ++v) batch.emplace_back(20, v);
  // 2,400 touched nodes: more than one kDefaultGrain chunk of per-node
  // merges.
  for (NodeId k = 0; k < 1200; ++k) {
    batch.emplace_back(100 + 2 * k, 101 + 2 * k);
  }
  append(std::move(batch));

  batch.clear();
  // Reverses of the wide batch: every neighbor is already present.
  for (NodeId k = 0; k < 1200; ++k) {
    batch.emplace_back(101 + 2 * k, 100 + 2 * k);
  }
  // Hub out-links to existing in-neighbors (0..4) and to a new low id.
  for (NodeId v = 0; v < 5; ++v) batch.emplace_back(hub, v);
  batch.emplace_back(hub, 12);
  // Node 20 again (now in its relocated region) and node 21, in place.
  batch.emplace_back(20, 27);
  batch.emplace_back(21, 20);
  append(std::move(batch));

  batch.clear();
  // The hub now outgrows its in region (cap 200, 110 live) while its
  // in-neighbors stay in place.
  for (NodeId v = 3200; v < 3300; ++v) batch.emplace_back(v, hub);
  batch.emplace_back(hub, 13);
  append(std::move(batch));
}

TEST(CsrAppend, OneLinkAppendDoesNotScaleWithNodeCount) {
  // An append that joins no node costs O(batch): the median one-link
  // append on 2^20 nodes stays within a small factor of the one on 2^12
  // nodes (cache misses only). Any pass over the id space would scale
  // with the 256x node ratio.
  constexpr std::size_t kReps = 301;
  std::vector<san::graph::CsrGraph> graphs(2);
  const std::size_t sizes[2] = {std::size_t{1} << 12, std::size_t{1} << 20};
  for (std::size_t s = 0; s < 2; ++s) {
    graphs[s].rebuild_from_sorted_edges(sizes[s], {}, {}, /*with_slack=*/true);
  }
  const auto ns = csr_append::median_ns(kReps, [&](std::size_t s,
                                                    std::size_t k) {
    // Distinct sources (13 is odd, so k * 13 is distinct mod 2^12): each
    // link is new and fits its nodes' slack.
    const NodeId src[1] = {static_cast<NodeId>(k * 13 % sizes[s])};
    const NodeId dst[1] = {static_cast<NodeId>((src[0] + 1) % sizes[s])};
    ASSERT_TRUE(graphs[s].append_sorted_links(sizes[s], src, dst));
  });
  EXPECT_EQ(graphs[1].edge_count(), kReps);
  EXPECT_LT(ns[1], 50 * ns[0]) << "2^12: " << ns[0] << " ns, 2^20: " << ns[1]
                               << " ns";
}

// ---- BipartiteCsr append (slack layout) fast path. ----

TEST(BipartiteCsr, SlackBuildMatchesDenseSpans) {
  san::stats::Rng rng(777);
  const std::size_t n_left = 50, n_right = 20;
  std::vector<NodeId> users;
  std::vector<AttrId> attrs;
  std::vector<std::uint8_t> seen(n_left * n_right, 0);
  for (std::size_t i = 0; i < 300; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_index(n_left));
    const auto x = static_cast<AttrId>(rng.uniform_index(n_right));
    if (seen[u * n_right + x]) continue;
    seen[u * n_right + x] = 1;
    users.push_back(u);
    attrs.push_back(x);
  }
  BipartiteCsr dense, slack;
  dense.rebuild_from_links(n_left, n_right, users, attrs);
  slack.rebuild_from_links(n_left, n_right, users, attrs, /*with_slack=*/true);
  ASSERT_EQ(slack.link_count(), dense.link_count());
  for (NodeId u = 0; u < n_left; ++u) {
    const auto a = slack.attrs_of(u), b = dense.attrs_of(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  for (AttrId x = 0; x < n_right; ++x) {
    const auto a = slack.members_of(x), b = dense.members_of(x);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
  EXPECT_EQ(slack.populated_right_count(), dense.populated_right_count());
}

TEST(BipartiteCsr, AppendMatchesRebuildAndKeepsOrders) {
  // Two appended batches (later links, growing left side) must equal a
  // from-scratch build of the concatenated input: members_of in input
  // order, attrs_of sorted ascending.
  const std::size_t n_right = 4;
  std::vector<NodeId> users{2, 0, 1};
  std::vector<AttrId> attrs{1, 1, 3};
  BipartiteCsr csr;
  csr.rebuild_from_links(3, n_right, users, attrs, /*with_slack=*/true);

  const std::vector<NodeId> u1{1, 4, 0};
  const std::vector<AttrId> a1{1, 0, 0};
  ASSERT_TRUE(csr.append_links(5, csr.right_count(), u1, a1));
  users.insert(users.end(), u1.begin(), u1.end());
  attrs.insert(attrs.end(), a1.begin(), a1.end());

  const std::vector<NodeId> u2{4, 1};
  const std::vector<AttrId> a2{3, 0};
  ASSERT_TRUE(csr.append_links(6, csr.right_count(), u2, a2));
  users.insert(users.end(), u2.begin(), u2.end());
  attrs.insert(attrs.end(), a2.begin(), a2.end());

  const auto reference = BipartiteCsr::from_links(6, n_right, users, attrs);
  ASSERT_EQ(csr.link_count(), reference.link_count());
  ASSERT_EQ(csr.left_count(), reference.left_count());
  for (NodeId u = 0; u < 6; ++u) {
    const auto a = csr.attrs_of(u), b = reference.attrs_of(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "attrs_of(" << u << ")";
  }
  for (AttrId x = 0; x < n_right; ++x) {
    const auto a = csr.members_of(x), b = reference.members_of(x);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "members_of(" << x << ")";
  }
}

TEST(BipartiteCsr, AppendRelocatesUntilWasteExceedsLiveThenRefuses) {
  // Attribute 0 starts with 10 dense members (live 10, zero slack).
  const std::size_t n_left = 40;
  std::vector<NodeId> users;
  std::vector<AttrId> attrs;
  for (NodeId u = 0; u < 10; ++u) {
    users.push_back(u);
    attrs.push_back(0);
  }
  BipartiteCsr csr;
  csr.rebuild_from_links(n_left, 1, users, attrs);

  // One more member overflows: the list RELOCATES (waste 10 <= live 11).
  const std::vector<NodeId> u1{10};
  const std::vector<AttrId> a1{0};
  ASSERT_TRUE(csr.append_links(n_left, csr.right_count(), u1, a1));
  EXPECT_EQ(csr.link_count(), 11u);

  // Fill the doubled region: capacity is slack_capacity(11) = 22.
  std::vector<NodeId> u2;
  std::vector<AttrId> a2;
  for (NodeId u = 11; u <= 21; ++u) {
    u2.push_back(u);
    a2.push_back(0);
  }
  ASSERT_TRUE(csr.append_links(n_left, csr.right_count(), u2, a2));
  EXPECT_EQ(csr.link_count(), 22u);

  // One more overflow would strand 10 + 22 dead slots against 23 live
  // links: refuse and leave the structure untouched.
  const std::vector<NodeId> u3{22};
  const std::vector<AttrId> a3{0};
  EXPECT_FALSE(csr.append_links(n_left, csr.right_count(), u3, a3));
  EXPECT_EQ(csr.link_count(), 22u);
  ASSERT_EQ(csr.members_of(0).size(), 22u);
  for (NodeId u = 0; u < 22; ++u) {
    EXPECT_EQ(csr.members_of(0)[u], u);  // input (time) order survived both
                                         // relocations
  }
}

TEST(BipartiteCsr, RejectedCallsLeaveTheStructureUnchanged) {
  // Every rejected batch is valid up to its LAST link, so a call that
  // mutated while validating would leave the earlier links behind.
  std::vector<NodeId> users{2, 0, 1, 2};
  std::vector<AttrId> attrs{1, 1, 0, 2};
  BipartiteCsr csr;
  csr.rebuild_from_links(3, 3, users, attrs, /*with_slack=*/true);
  const auto expect_matches = [&](const BipartiteCsr& reference) {
    ASSERT_EQ(csr.left_count(), reference.left_count());
    ASSERT_EQ(csr.right_count(), reference.right_count());
    ASSERT_EQ(csr.link_count(), reference.link_count());
    for (NodeId u = 0; u < reference.left_count(); ++u) {
      const auto a = csr.attrs_of(u), b = reference.attrs_of(u);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "attrs_of(" << u << ")";
    }
    for (AttrId x = 0; x < reference.right_count(); ++x) {
      const auto a = csr.members_of(x), b = reference.members_of(x);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "members_of(" << x << ")";
    }
  };
  const auto before = BipartiteCsr::from_links(3, 3, users, attrs);

  const std::vector<NodeId> bad_user{0, 1, 7};
  const std::vector<AttrId> bad_attr{0, 2, 9};
  const std::vector<AttrId> ok_attr{0, 2, 1};
  const std::vector<NodeId> ok_user{0, 1, 3};
  EXPECT_THROW(csr.rebuild_from_links(3, 3, bad_user, ok_attr),
               std::out_of_range);
  expect_matches(before);
  EXPECT_THROW(csr.rebuild_from_links(3, 3, ok_user, ok_attr),
               std::out_of_range);
  expect_matches(before);
  EXPECT_THROW(csr.rebuild_from_links(4, 3, ok_user, bad_attr),
               std::out_of_range);
  expect_matches(before);
  EXPECT_THROW(csr.append_links(4, 3, bad_user, ok_attr), std::out_of_range);
  expect_matches(before);
  EXPECT_THROW(csr.append_links(4, 3, ok_user, bad_attr), std::out_of_range);
  expect_matches(before);
  EXPECT_THROW(csr.append_links(2, 3, ok_user, ok_attr),
               std::invalid_argument);
  expect_matches(before);
  EXPECT_THROW(csr.append_links(4, 2, ok_user, ok_attr),
               std::invalid_argument);
  expect_matches(before);

  // The rejections left no stale scratch behind: a valid append lands.
  ASSERT_TRUE(csr.append_links(4, 3, ok_user, ok_attr));
  users.insert(users.end(), ok_user.begin(), ok_user.end());
  attrs.insert(attrs.end(), ok_attr.begin(), ok_attr.end());
  expect_matches(BipartiteCsr::from_links(4, 3, users, attrs));
}

TEST(BipartiteCsr, OneLinkAppendDoesNotScaleWithNodeCount) {
  // The bipartite twin of CsrAppend.OneLinkAppendDoesNotScaleWithNodeCount:
  // a one-link append that joins no user or attribute costs O(batch).
  constexpr std::size_t kReps = 301;
  std::vector<BipartiteCsr> csrs(2);
  const std::size_t sizes[2] = {std::size_t{1} << 12, std::size_t{1} << 20};
  for (std::size_t s = 0; s < 2; ++s) {
    csrs[s].rebuild_from_links(sizes[s], sizes[s], {}, {},
                               /*with_slack=*/true);
  }
  const auto ns = csr_append::median_ns(kReps, [&](std::size_t s,
                                                    std::size_t k) {
    const NodeId user[1] = {static_cast<NodeId>(k * 13 % sizes[s])};
    const AttrId attr[1] = {static_cast<AttrId>(k * 29 % sizes[s])};
    ASSERT_TRUE(csrs[s].append_links(sizes[s], sizes[s], user, attr));
  });
  EXPECT_EQ(csrs[1].link_count(), kReps);
  EXPECT_LT(ns[1], 50 * ns[0]) << "2^12: " << ns[0] << " ns, 2^20: " << ns[1]
                               << " ns";
}

}  // namespace
