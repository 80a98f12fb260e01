// Served sybil / community / influence contract: every new query kind is
// gated by a randomized ONE-SHOT oracle — the batch engine's rendered
// result must be byte-identical to the standalone apps/ formulation
// computed directly on the resolved snapshot — swept across SAN_THREADS
// and every SIMD level this host dispatches to, against frozen history
// and the live tip alike. Also covers the derived-state side-cache:
// hit/miss accounting, generation keying (copies share cells, a
// re-materialized day does not), and the live epoch-buffer recycling
// hazard.
#include "serve/query_engine.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/community.hpp"
#include "apps/influence_max.hpp"
#include "apps/sybil.hpp"
#include "core/simd/simd.hpp"
#include "core/thread_pool.hpp"
#include "san/live_timeline.hpp"
#include "san/timeline.hpp"
#include "san_testlib.hpp"
#include "stats/rng.hpp"

namespace {

namespace simd = san::core::simd;

using san::IngestBatch;
using san::LiveTimeline;
using san::NodeId;
using san::SanSnapshot;
using san::SanTimeline;
using san::SocialAttributeNetwork;
using san::serve::Query;
using san::serve::QueryEngine;
using san::serve::QueryKind;
using san::serve::SnapshotCache;

SocialAttributeNetwork small_gplus() {
  return san::testlib::synthetic_gplus(1'200, 77);
}

/// Every level this host can dispatch to, scalar first.
std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  for (const simd::Level level : {simd::Level::kSse, simd::Level::kAvx2}) {
    if (simd::set_level(level)) levels.push_back(level);
  }
  simd::set_level(simd::detected_level());
  return levels;
}

Query make(QueryKind kind, double time, NodeId user) {
  Query q;
  q.kind = kind;
  q.time = time;
  q.user = user;
  return q;
}

// ---- One-shot oracle gates (randomized users/times, frozen history). ----

TEST(ServeApps, SybilServedMatchesOneShotOracle) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 4);
  QueryEngine engine(cache);
  const auto& options = engine.options().derived.sybil;

  san::stats::Rng rng(101);
  const std::vector<double> days{20.0, 55.0, 98.0};
  for (int trial = 0; trial < 60; ++trial) {
    const double t = days[rng.uniform_index(days.size())];
    const auto snap = timeline.snapshot_at(t);
    const std::size_t n = snap.social_node_count();
    if (n == 0) continue;
    const auto user = static_cast<NodeId>(rng.uniform_index(n));

    // One-shot formulation: whole-network evaluate() with an explicit
    // compromised-flags vector marking USER's closed neighborhood in the
    // degree-bounded topology.
    const san::apps::SybilLimit oracle(snap.social, options);
    std::vector<std::uint8_t> flags(oracle.topology().node_count(), 0);
    flags[user] = 1;
    for (const NodeId v : oracle.topology().out(user)) flags[v] = 1;
    const auto expected = oracle.evaluate(flags);

    const auto q = make(QueryKind::kSybil, t, user);
    const auto served = engine.run_single(q);
    ASSERT_TRUE(served.ok) << "t=" << t << " u=" << user;
    EXPECT_EQ(served.sybil, expected) << "t=" << t << " u=" << user;
    EXPECT_GT(served.sybil.compromised, 0u);
  }
}

TEST(ServeApps, CommunityServedMatchesOneShotOracle) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 4);
  QueryEngine engine(cache);
  const auto& options = engine.options().derived.community;

  san::stats::Rng rng(202);
  for (const double t : {30.0, 98.0}) {
    const auto snap = timeline.snapshot_at(t);
    const std::size_t n = snap.social_node_count();
    ASSERT_GT(n, 0u);
    const auto oracle = san::apps::detect_communities(snap, options);
    std::vector<std::uint64_t> size(oracle.community_count, 0);
    for (const std::uint32_t label : oracle.label) ++size[label];

    for (int trial = 0; trial < 30; ++trial) {
      const auto user = static_cast<NodeId>(rng.uniform_index(n));
      const auto served =
          engine.run_single(make(QueryKind::kCommunity, t, user));
      ASSERT_TRUE(served.ok);
      EXPECT_EQ(served.community.label, oracle.label[user]);
      EXPECT_EQ(served.community.size, size[oracle.label[user]]);
      EXPECT_EQ(served.community.communities, oracle.community_count);
    }
  }
}

TEST(ServeApps, InfluenceServedMatchesOneShotOracle) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 4);
  QueryEngine engine(cache);

  san::stats::Rng rng(303);
  const std::vector<double> days{20.0, 55.0, 98.0};
  for (int trial = 0; trial < 40; ++trial) {
    const double t = days[rng.uniform_index(days.size())];
    const auto snap = timeline.snapshot_at(t);
    const std::size_t n = snap.social_node_count();
    if (n == 0) continue;

    Query q;
    q.kind = QueryKind::kInfluence;
    q.time = t;
    q.k = 1 + static_cast<std::uint32_t>(rng.uniform_index(4));
    const std::uint64_t seed_count = rng.uniform_index(4);
    for (std::uint64_t s = 0; s < seed_count; ++s) {
      q.seeds.push_back(static_cast<NodeId>(rng.uniform_index(n)));
    }

    // One-shot formulation: the greedy run on the resolved snapshot with
    // NO first-pick hint — the served path's cached hint must be
    // result-invisible.
    san::apps::InfluenceScratch scratch;
    const auto expected =
        san::apps::influence_maximize(snap.social, q.seeds, q.k, scratch);

    const auto served = engine.run_single(q);
    ASSERT_TRUE(served.ok);
    EXPECT_EQ(served.influence, expected)
        << "t=" << t << " k=" << q.k << " seeds=" << q.seeds.size();
  }
}

// ---- Influence greedy semantics on a hand-built graph. ----

TEST(ServeApps, InfluenceGreedyPicksAndTieBreaks) {
  // Two stars: node 0 covers {0,1,2,3}, node 5 covers {5,6,7}; node 4 is
  // isolated. Degrees: 0 -> 3, 5 -> 2, leaves -> 1.
  using Edge = std::pair<NodeId, NodeId>;
  std::vector<Edge> edges;
  for (const auto& [u, v] : {Edge{0, 1}, Edge{0, 2}, Edge{0, 3}, Edge{5, 6},
                             Edge{5, 7}}) {
    edges.push_back({u, v});
    edges.push_back({v, u});
  }
  const auto g = san::graph::CsrGraph::from_edges(8, edges);

  EXPECT_EQ(san::apps::best_first_pick(g), 0u);

  san::apps::InfluenceScratch scratch;
  const auto result = san::apps::influence_maximize(g, {}, 3, scratch);
  // First pick: the global best cover {0,1,2,3}. After it the frontier
  // (covered nodes and their neighbors) is saturated — the other star is
  // at distance > 1, so the greedy stops early instead of padding the
  // budget with unreachable picks.
  ASSERT_EQ(result.picks.size(), 1u);
  EXPECT_EQ(result.picks[0].node, 0u);
  EXPECT_EQ(result.picks[0].gain, 4u);
  EXPECT_EQ(result.covered, 4u);

  // Equal-gain tie resolves to the smaller id: starting from seed 1, the
  // frontier sees 0 (gain 2: {2,3}) first.
  const auto from_seed =
      san::apps::influence_maximize(g, std::vector<NodeId>{1}, 1, scratch);
  ASSERT_EQ(from_seed.picks.size(), 1u);
  EXPECT_EQ(from_seed.picks[0].node, 0u);
  EXPECT_EQ(from_seed.picks[0].gain, 2u);
  EXPECT_EQ(from_seed.covered, 4u);

  // Duplicate seeds collapse; a wrong-sized hint is rejected by contract
  // (hint must be best_first_pick), so pass the real one: same result.
  const auto deduped = san::apps::influence_maximize(
      g, std::vector<NodeId>{1, 1, 1}, 1, scratch);
  EXPECT_EQ(deduped, from_seed);
  const auto hinted = san::apps::influence_maximize(
      g, {}, 3, scratch, san::apps::best_first_pick(g));
  EXPECT_EQ(hinted, result);

  EXPECT_THROW(
      san::apps::influence_maximize(g, std::vector<NodeId>{99}, 1, scratch),
      std::invalid_argument);
}

TEST(ServeApps, InfluenceGreedyIsFrontierBounded) {
  // A path 0-1-2-3-4-5: after seeding 0, the greedy can only ever pick
  // nodes at distance <= 1 from the covered set, so coverage grows along
  // the path instead of jumping to the far end.
  using Edge = std::pair<NodeId, NodeId>;
  std::vector<Edge> edges;
  for (NodeId u = 0; u + 1 < 6; ++u) {
    edges.push_back({u, u + 1});
    edges.push_back({u + 1, u});
  }
  const auto g = san::graph::CsrGraph::from_edges(6, edges);
  san::apps::InfluenceScratch scratch;
  const auto result =
      san::apps::influence_maximize(g, std::vector<NodeId>{0}, 1, scratch);
  ASSERT_EQ(result.picks.size(), 1u);
  EXPECT_EQ(result.picks[0].node, 2u);  // covers {2,3}; 4/5 out of reach
  EXPECT_EQ(result.picks[0].gain, 2u);
  EXPECT_EQ(result.covered, 4u);
}

// ---- Error paths. ----

TEST(ServeApps, UnknownSubjectsAndSeedsYieldErrorResults) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 2);
  QueryEngine engine(cache);
  const auto huge = static_cast<NodeId>(net.social_node_count() - 1);

  for (const QueryKind kind :
       {QueryKind::kSybil, QueryKind::kCommunity}) {
    const auto q = make(kind, 0.5, huge);  // nobody has joined by day 0.5
    const auto result = engine.run_single(q);
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.to_line(q).find("ERR unknown-node"), std::string::npos);
  }

  Query q;
  q.kind = QueryKind::kInfluence;
  q.time = 98.0;
  q.k = 2;
  // The second seed's id lies past every node that will ever join.
  q.seeds = {0, static_cast<NodeId>(net.social_node_count() + 7)};
  const auto result = engine.run_single(q);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.to_line(q).find("ERR unknown-node"), std::string::npos);
}

// ---- Byte-identity sweep: threads x SIMD levels, mixed seven kinds. ----

TEST(ServeApps, FullMixBatchMatchesSingleAcrossThreadsAndSimdLevels) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  const std::vector<double> days{15.0, 40.0, 70.0, 98.0};
  const auto queries = san::testlib::full_mixed_queries(
      300, net.social_node_count(), days, 4242);

  SnapshotCache reference_cache(timeline, 4);
  QueryEngine reference_engine(reference_cache);
  std::vector<std::string> reference;
  for (const auto& q : queries) {
    reference.push_back(reference_engine.run_single(q).to_line(q));
  }

  const std::size_t restore = san::core::thread_count();
  for (const simd::Level level : available_levels()) {
    ASSERT_TRUE(simd::set_level(level));
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " simd="
                                      << simd::level_name(level));
      san::core::set_thread_count(threads);
      SnapshotCache cache(timeline, 4);
      QueryEngine engine(cache);
      const auto results = engine.run_batch(queries);
      ASSERT_EQ(results.size(), queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(results[i].to_line(queries[i]), reference[i])
            << "query " << i;
      }
    }
  }
  simd::set_level(simd::detected_level());
  san::core::set_thread_count(restore);
}

// ---- Live binding: `now` for the new kinds, and epoch-buffer safety. ----

/// Live frontier over the full network plus post-horizon hand-made links.
struct LiveRig {
  SocialAttributeNetwork net = small_gplus();
  SanTimeline frozen{net};
  LiveTimeline live{net};

  void ingest_day(double tip, NodeId from, NodeId to) {
    IngestBatch batch;
    batch.tip = tip;
    san::TimedSocialEdge e;
    e.src = from;
    e.dst = to;
    e.time = tip;
    batch.social_links.push_back(e);
    live.ingest(batch);
  }
};

TEST(ServeApps, NowQueriesForNewKindsServeTheLiveTip) {
  LiveRig rig;
  const double horizon = rig.frozen.max_time();
  rig.ingest_day(horizon + 1.0, 3, 9);
  rig.ingest_day(horizon + 2.0, 9, 3);

  SnapshotCache cache(rig.frozen, 4);
  cache.bind_live(rig.live);
  QueryEngine engine(cache);
  const auto tip = rig.live.tip();
  ASSERT_EQ(tip->time, horizon + 2.0);

  Query sybil = make(QueryKind::kSybil, 0.0, 3);
  sybil.time = std::numeric_limits<double>::infinity();
  sybil.now = true;
  const san::apps::SybilLimit oracle(tip->social,
                                     engine.options().derived.sybil);
  std::vector<std::uint8_t> flags(oracle.topology().node_count(), 0);
  flags[3] = 1;
  for (const NodeId v : oracle.topology().out(3)) flags[v] = 1;
  const auto served = engine.run_single(sybil);
  ASSERT_TRUE(served.ok);
  EXPECT_EQ(served.sybil, oracle.evaluate(flags));

  Query community = sybil;
  community.kind = QueryKind::kCommunity;
  const auto lp = san::apps::detect_communities(
      *tip, engine.options().derived.community);
  const auto community_served = engine.run_single(community);
  ASSERT_TRUE(community_served.ok);
  EXPECT_EQ(community_served.community.label, lp.label[3]);
  EXPECT_EQ(community_served.community.communities, lp.community_count);

  Query influence;
  influence.kind = QueryKind::kInfluence;
  influence.time = std::numeric_limits<double>::infinity();
  influence.now = true;
  influence.k = 2;
  san::apps::InfluenceScratch scratch;
  const auto influence_served = engine.run_single(influence);
  ASSERT_TRUE(influence_served.ok);
  EXPECT_EQ(influence_served.influence,
            san::apps::influence_maximize(tip->social, {}, 2, scratch));
}

TEST(ServeApps, DerivedStateRebuildsWhenLiveEpochBufferIsRecycled) {
  // Live timelines RECYCLE retired epoch buffers in place: the same
  // SanSnapshot address (same control block, still alive) reappears as a
  // later epoch with more links. Derived cells keyed by address alone
  // would serve the OLD epoch's sybil topology / labels / first pick for
  // the new one; the fresh generation each advance stamps prevents it. Each
  // round ingests a link incident to the queried user, so any stale
  // reuse changes the rendered result.
  LiveRig rig;
  SnapshotCache cache(rig.frozen, 4);
  cache.bind_live(rig.live);
  QueryEngine engine(cache);
  const double horizon = rig.frozen.max_time();
  const NodeId user = 3;

  for (int round = 1; round <= 5; ++round) {
    rig.ingest_day(horizon + round,
                   user, static_cast<NodeId>(500 + round));
    const auto tip = rig.live.tip();

    Query q = make(QueryKind::kSybil, 0.0, user);
    q.time = std::numeric_limits<double>::infinity();
    q.now = true;
    const san::apps::SybilLimit oracle(tip->social,
                                       engine.options().derived.sybil);
    std::vector<std::uint8_t> flags(oracle.topology().node_count(), 0);
    flags[user] = 1;
    for (const NodeId v : oracle.topology().out(user)) flags[v] = 1;
    const auto served = engine.run_single(q);
    ASSERT_TRUE(served.ok) << "round " << round;
    EXPECT_EQ(served.sybil, oracle.evaluate(flags)) << "round " << round;
  }
  // Every round hit a fresh tip epoch: no derived cell may be reused.
  EXPECT_EQ(cache.stats().derived_hits, 0u);
  EXPECT_EQ(cache.stats().derived_misses, 5u);
}

TEST(ServeApps, EveryOtherLiveEpochReusesABufferAndRebuildsDerivedState) {
  // With no reader pinning old epochs the live frontier alternates two
  // buffers, so epoch k+2 is served from the very address epoch k was.
  // Each epoch adds a link at the queried user, so sybil and community
  // cells reused across that recycling would render the old answer.
  LiveRig rig;
  SnapshotCache cache(rig.frozen, 4);
  cache.bind_live(rig.live);
  QueryEngine engine(cache);
  const double horizon = rig.frozen.max_time();
  const NodeId user = 5;
  const auto& options = engine.options().derived;

  std::vector<const SanSnapshot*> buffers;
  for (int round = 1; round <= 6; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    rig.ingest_day(horizon + round, static_cast<NodeId>(600 + round), user);
    const auto tip = rig.live.tip();
    buffers.push_back(tip.get());
    if (round >= 3) {
      ASSERT_EQ(buffers[round - 1], buffers[round - 3]);  // recycled
    }

    Query sybil = make(QueryKind::kSybil, 0.0, user);
    sybil.time = std::numeric_limits<double>::infinity();
    sybil.now = true;
    const san::apps::SybilLimit oracle(tip->social, options.sybil);
    std::vector<std::uint8_t> flags(oracle.topology().node_count(), 0);
    flags[user] = 1;
    for (const NodeId v : oracle.topology().out(user)) flags[v] = 1;
    const auto served = engine.run_single(sybil);
    ASSERT_TRUE(served.ok);
    EXPECT_EQ(served.sybil, oracle.evaluate(flags));

    Query community = sybil;
    community.kind = QueryKind::kCommunity;
    const auto lp = san::apps::detect_communities(*tip, options.community);
    std::uint64_t size = 0;
    for (const std::uint32_t label : lp.label) {
      size += label == lp.label[user];
    }
    const auto community_served = engine.run_single(community);
    ASSERT_TRUE(community_served.ok);
    EXPECT_EQ(community_served.community.label, lp.label[user]);
    EXPECT_EQ(community_served.community.size, size);
    EXPECT_EQ(community_served.community.communities, lp.community_count);

    // Two fresh cells per epoch — sybil and community — and no reuse.
    EXPECT_EQ(cache.stats().derived_misses, 2u * round);
    EXPECT_EQ(cache.stats().derived_hits, 0u);
  }
}

TEST(ServeApps, LiveTipDerivedCellsStayBoundedAndSpareFrozenDays) {
  // Every publish supersedes the tip, so tips' derived state lives in its
  // own two-cell LRU: past epochs' cells do not pile up, and tip churn
  // never pushes a frozen day's cells out of the LRU for frozen days.
  LiveRig rig;
  SnapshotCache cache(rig.frozen, 2);
  cache.bind_live(rig.live);
  QueryEngine engine(cache);
  const double horizon = rig.frozen.max_time();
  const double inf = std::numeric_limits<double>::infinity();

  (void)engine.run_single(make(QueryKind::kSybil, 40.0, 3));
  for (int round = 1; round <= 4; ++round) {
    rig.ingest_day(horizon + round, 3, static_cast<NodeId>(700 + round));
    Query q = make(QueryKind::kSybil, inf, 3);
    q.now = true;
    ASSERT_TRUE(engine.run_single(q).ok);
  }
  EXPECT_EQ(cache.derived().size(), 3u);  // two tips + day 40
  EXPECT_EQ(cache.stats().derived_misses, 5u);

  (void)engine.run_single(make(QueryKind::kSybil, 40.0, 3));
  EXPECT_EQ(cache.stats().derived_hits, 1u);
  EXPECT_EQ(cache.stats().derived_misses, 5u);
}

// ---- Derived-state side-cache accounting. ----

TEST(ServeApps, DerivedStateBuildsOncePerSnapshotAcrossBatches) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 4);
  QueryEngine engine(cache);

  std::vector<Query> batch;
  for (const NodeId user : {3u, 9u, 27u}) {
    batch.push_back(make(QueryKind::kSybil, 98.0, user));
    batch.push_back(make(QueryKind::kCommunity, 98.0, user));
  }
  Query influence;
  influence.kind = QueryKind::kInfluence;
  influence.time = 98.0;
  influence.k = 1;
  batch.push_back(influence);

  (void)engine.run_batch(batch);
  // One snapshot, three derived kinds: three builds, however many queries.
  EXPECT_EQ(cache.stats().derived_misses, 3u);
  EXPECT_EQ(cache.stats().derived_hits, 0u);

  (void)engine.run_batch(batch);
  EXPECT_EQ(cache.stats().derived_misses, 3u);
  EXPECT_EQ(cache.stats().derived_hits, 3u);

  // A different day builds its own cells.
  (void)engine.run_single(make(QueryKind::kSybil, 40.0, 3));
  EXPECT_EQ(cache.stats().derived_misses, 4u);
}

TEST(ServeApps, ACopiedSnapshotReusesItsDerivedCells) {
  // Cells are keyed by generation alone and a copy shares its original's,
  // so the copy reuses every cell. Re-materializing the same day stamps a
  // new generation and builds again.
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  san::serve::DerivedCache derived(4);
  const san::serve::DerivedOptions options;
  const auto original =
      std::make_shared<const SanSnapshot>(timeline.snapshot_at(98.0));
  const auto copy = std::make_shared<const SanSnapshot>(*original);
  ASSERT_EQ(copy->generation, original->generation);

  const auto sybil = derived.sybil(original, options.sybil);
  const auto community = derived.community(original, options.community);
  const auto influence = derived.influence(original);
  EXPECT_EQ(derived.sybil(copy, options.sybil), sybil);
  EXPECT_EQ(derived.community(copy, options.community), community);
  EXPECT_EQ(derived.influence(copy), influence);
  EXPECT_EQ(derived.misses(), 3u);  // one build per kind
  EXPECT_EQ(derived.hits(), 3u);

  const auto again =
      std::make_shared<const SanSnapshot>(timeline.snapshot_at(98.0));
  EXPECT_NE(again->generation, original->generation);
  EXPECT_NE(derived.sybil(again, options.sybil), sybil);
  EXPECT_EQ(derived.misses(), 4u);
}

TEST(ServeApps, DerivedCellsEvictWithTheirSnapshot) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 1);  // every new day evicts the previous
  QueryEngine engine(cache);

  (void)engine.run_single(make(QueryKind::kSybil, 40.0, 3));
  (void)engine.run_single(make(QueryKind::kSybil, 70.0, 3));
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Returning to the evicted day must rebuild the derived state too: the
  // re-materialized snapshot is a new generation, and the old cell has
  // aged out of the side-cache's LRU of the same capacity.
  (void)engine.run_single(make(QueryKind::kSybil, 40.0, 3));
  EXPECT_EQ(cache.stats().derived_misses, 3u);
  EXPECT_EQ(cache.stats().derived_hits, 0u);
}

}  // namespace
