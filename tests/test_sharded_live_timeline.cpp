// ShardedLiveTimeline oracle: every stitched epoch must be bit-identical
// — adjacency spans, members_of order, dropped counts, metrics — to a
// single-shard SanTimeline rebuild of the merged log at the same tip, at
// shard counts 1/2/4/8 and SAN_THREADS 1/2/4/8. On top of the
// LiveTimeline contract this adds: cross-shard deferral (links naming
// ids owned by a different shard that has not created them yet),
// multi-writer ingest racing a publisher and a reader (the TSan target),
// and the S=1 equivalence with LiveTimeline's epochs.
#include "san/sharded_live_timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "san/live_replay.hpp"
#include "san/live_timeline.hpp"
#include "san/san_metrics.hpp"
#include "san/timeline.hpp"
#include "san_testlib.hpp"
#include "stats/rng.hpp"

namespace {

using san::AttrId;
using san::AttributeType;
using san::IngestBatch;
using san::LiveTimeline;
using san::NodeId;
using san::SanSnapshot;
using san::SanTimeline;
using san::ShardedLiveTimeline;
using san::ShardedLiveTimelineOptions;
using san::SocialAttributeNetwork;
using san::TimedAttributeLink;
using san::TimedSocialEdge;

void expect_snapshots_identical(const SanSnapshot& a, const SanSnapshot& b,
                                double time) {
  SCOPED_TRACE(testing::Message() << "tip=" << time);
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
  EXPECT_EQ(san::attribute_density(a), san::attribute_density(b));
  EXPECT_EQ(san::attribute_assortativity(a), san::attribute_assortativity(b));
}

/// The PR's oracle gate: a stitched epoch must equal a single-shard
/// SanTimeline rebuild of the merged log at the same tip.
void expect_epoch_matches_merged_rebuild(const ShardedLiveTimeline& live) {
  const auto tip = live.tip();
  ASSERT_NE(tip, nullptr);
  const SanTimeline rebuilt(live.merged_log());
  expect_snapshots_identical(*tip, rebuilt.snapshot_at(tip->time), tip->time);
}

TEST(ShardedOracle, GplusReplayMatchesMergedLogRebuildEveryEpoch) {
  const auto net = san::testlib::synthetic_gplus(800, 2718);
  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    san::LiveReplay replay(net, 20.0);
    ShardedLiveTimelineOptions options;
    options.shards = shards;
    options.initial_tip = 20.0;  // the attribute catalog lies ahead
    ShardedLiveTimeline live(replay.seed, options);
    expect_epoch_matches_merged_rebuild(live);  // epoch 0: the seed

    san::stats::Rng rng(99);
    double tip = 20.0;
    while (tip < 99.0) {
      tip = std::min(99.0, tip + 2.0 + rng.uniform() * 12.0);
      live.ingest(replay.batch_until(tip));
      expect_epoch_matches_merged_rebuild(live);
    }
    EXPECT_EQ(live.tip_time(), 99.0);
    const auto stats = live.stats();
    EXPECT_EQ(stats.pending_links, 0u);
    const auto merged = live.merged_log();
    EXPECT_EQ(merged.social_link_count(), net.social_link_count());
    EXPECT_EQ(merged.attribute_link_count(), net.attribute_link_count());
    EXPECT_EQ(merged.social_node_count(), net.social_node_count());
  }
}

/// Randomized schedule exercising every path: forward-referencing ids
/// (held, then activated), link times predating their endpoint's join,
/// late events, duplicates, attribute nodes mid-stream, empty batches.
/// `cross_shard` biases held links toward endpoints owned by a DIFFERENT
/// shard block than their source (the satellite's deferral scenario).
std::vector<IngestBatch> random_schedule(std::uint64_t seed,
                                         std::size_t batches,
                                         bool cross_shard = false) {
  san::stats::Rng rng(seed);
  std::vector<IngestBatch> schedule;
  double tip = 0.0;
  double last_join = 0.0;
  std::size_t nodes = 0;
  std::size_t attrs = 0;
  std::vector<std::pair<NodeId, NodeId>> issued;
  for (std::size_t b = 0; b < batches; ++b) {
    IngestBatch batch;
    tip += 0.5 + rng.uniform() * 4.0;
    batch.tip = tip;
    if (rng.uniform() < 0.1) {
      schedule.push_back(batch);  // pure tip advance
      continue;
    }
    const std::size_t joins = rng.uniform_index(4);
    for (std::size_t i = 0; i < joins; ++i) {
      last_join = std::max(last_join, tip - 2.0 + rng.uniform() * 5.0);
      batch.social_nodes.push_back(last_join);
      ++nodes;
    }
    if (rng.uniform() < 0.3) {
      IngestBatch::AttributeNode attr;
      attr.type = static_cast<AttributeType>(rng.uniform_index(5));
      attr.time = tip + 3.0 - rng.uniform() * 6.0;
      batch.attribute_nodes.push_back(attr);
      ++attrs;
    }
    const std::size_t n_links = rng.uniform_index(7);
    for (std::size_t i = 0; i < n_links && nodes > 1; ++i) {
      TimedSocialEdge e;
      e.src = static_cast<NodeId>(rng.uniform_index(nodes + 2));
      e.dst = static_cast<NodeId>(rng.uniform_index(nodes + 2));
      if (cross_shard && rng.uniform() < 0.5) {
        // A link whose target id lives a whole shard block ahead of the
        // frontier: owned by another shard, not created for several more
        // batches — held at admission, activated cross-shard.
        e.src = static_cast<NodeId>(rng.uniform_index(nodes));
        e.dst = static_cast<NodeId>(
            nodes + ShardedLiveTimeline::kShardBlock +
            rng.uniform_index(ShardedLiveTimeline::kShardBlock));
      }
      e.time = tip - 2.0 + rng.uniform() * 4.0;  // may be late
      if (!issued.empty() && rng.uniform() < 0.15) {
        const auto& dup = issued[rng.uniform_index(issued.size())];
        e.src = dup.first;
        e.dst = dup.second;
      }
      issued.emplace_back(e.src, e.dst);
      batch.social_links.push_back(e);
    }
    const std::size_t n_alinks = rng.uniform_index(4);
    for (std::size_t i = 0; i < n_alinks && nodes > 0 && attrs > 0; ++i) {
      TimedAttributeLink link;
      link.user = static_cast<NodeId>(rng.uniform_index(nodes + 1));
      if (cross_shard && rng.uniform() < 0.4) {
        // Held attribute declaration by a not-yet-joined user: activation
        // must splice into members_of in link-time order, not at the end.
        link.user = static_cast<NodeId>(
            nodes + rng.uniform_index(ShardedLiveTimeline::kShardBlock));
      }
      link.attr = static_cast<AttrId>(rng.uniform_index(attrs + 1));
      link.time = tip - 2.0 + rng.uniform() * 4.0;
      batch.attribute_links.push_back(link);
    }
    schedule.push_back(batch);
  }
  return schedule;
}

/// Satellite gate: links repeatedly name ids owned by a different shard
/// that has not created them yet; once the owner shard creates the id,
/// activation must land in correct members_of time order (and the full
/// span compare) in the stitched epoch.
TEST(ShardedOracle, CrossShardDeferralActivatesInTimeOrder) {
  for (const std::uint64_t seed : {0x5eedULL, 0xd00dULL, 0xecc0ULL}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    const auto schedule = random_schedule(seed, 60, /*cross_shard=*/true);
    ShardedLiveTimelineOptions options;
    options.shards = 4;
    ShardedLiveTimeline live(SocialAttributeNetwork{}, options);
    std::uint64_t cross_shard_links = 0;
    for (const auto& batch : schedule) {
      for (const auto& e : batch.social_links) {
        cross_shard_links += live.owner_of(e.src) != live.owner_of(e.dst);
      }
      live.ingest(batch);
      expect_epoch_matches_merged_rebuild(live);
    }
    // The schedule must actually have exercised the deferral paths.
    EXPECT_GT(cross_shard_links, 0u);
    const auto stats = live.stats();
    EXPECT_GT(stats.activated_links, 0u);
    EXPECT_GT(stats.rejected_links, 0u);
    EXPECT_GT(stats.late_batches, 0u);
    EXPECT_GT(stats.ingested_attribute_links, 0u);
  }
}

/// Cross-dimension determinism: the epoch fingerprints of every (shard
/// count x thread count) combination must match a LiveTimeline replay of
/// the identical schedule — the single-writer baseline the whole repo is
/// gated against.
TEST(ShardedOracle, ByteIdenticalAcrossShardAndThreadCounts) {
  const auto schedule = random_schedule(0xabba, 30);

  std::vector<std::uint64_t> reference;
  {
    LiveTimeline live;
    for (const auto& batch : schedule) {
      live.ingest(batch);
      reference.push_back(san::testlib::snapshot_fingerprint(*live.tip()));
    }
  }
  const std::size_t restore = san::core::thread_count();
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    san::core::set_thread_count(threads);
    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(testing::Message()
                   << "threads=" << threads << " shards=" << shards);
      ShardedLiveTimelineOptions options;
      options.shards = shards;
      ShardedLiveTimeline live(SocialAttributeNetwork{}, options);
      std::size_t i = 0;
      for (const auto& batch : schedule) {
        live.ingest(batch);
        EXPECT_EQ(san::testlib::snapshot_fingerprint(*live.tip()),
                  reference[i])
            << "epoch " << i;
        ++i;
      }
    }
  }
  san::core::set_thread_count(restore);
}

/// The TSan target: S writers ingesting concurrently, a publisher thread
/// stitching mid-stream, and a reader hammering tip(). The final epoch
/// must equal the merged-log rebuild; every epoch the reader observed
/// must have a non-decreasing time.
TEST(ShardedLiveTimelineTest, MultiWriterIngestRacingPublisherAndReader) {
  constexpr std::size_t kWriters = 4;
  const auto schedule = random_schedule(0xbeef, 96);

  ShardedLiveTimelineOptions options;
  options.shards = kWriters;
  // No cadence publishes: the publisher thread drives the epoch clock.
  options.batches_per_epoch = schedule.size() + 1;
  ShardedLiveTimeline live(SocialAttributeNetwork{}, options);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> stale_tips{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::size_t b = w; b < schedule.size(); b += kWriters) {
        try {
          live.ingest(schedule[b]);
        } catch (const std::invalid_argument&) {
          // The publisher may have stitched past this batch's tip while
          // it waited its turn; a stale tip is rejected whole.
          stale_tips.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread publisher([&] {
    while (!done.load(std::memory_order_acquire)) {
      live.publish();
      std::this_thread::yield();
    }
  });
  std::thread reader([&] {
    double last_time = -1.0;
    std::uint64_t reads = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto tip = live.tip();
      ASSERT_NE(tip, nullptr);
      EXPECT_GE(tip->time, last_time);
      last_time = tip->time;
      // Touch the spans so TSan sees reader-side accesses too.
      if (tip->social_node_count() > 0) {
        reads += tip->social.out(0).size() + tip->members_of(0).size();
      }
      std::this_thread::yield();
    }
    (void)reads;
  });

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  publisher.join();
  reader.join();

  live.publish();
  expect_epoch_matches_merged_rebuild(live);
  const auto stats = live.stats();
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.batches + stale_tips.load(), schedule.size());
}

TEST(ShardedLiveTimelineTest, SingleShardMatchesLiveTimelineBehavior) {
  // S=1 keeps the full machinery but one owner; its epochs fingerprint-
  // match LiveTimeline's exactly, batch for batch.
  const auto schedule = random_schedule(0xfeed, 40);
  LiveTimeline reference;
  ShardedLiveTimeline live;  // defaults: shards=1, cadence 1, empty seed
  EXPECT_EQ(live.shard_count(), 1u);
  for (const auto& batch : schedule) {
    reference.ingest(batch);
    live.ingest(batch);
    EXPECT_EQ(san::testlib::snapshot_fingerprint(*live.tip()),
              san::testlib::snapshot_fingerprint(*reference.tip()));
  }
}

TEST(ShardedLiveTimelineTest, TipMustBeStrictlyAfterPublishedEpoch) {
  ShardedLiveTimeline live;  // empty seed: published tip 0
  IngestBatch batch;
  batch.tip = 0.0;
  EXPECT_THROW(live.ingest(batch), std::invalid_argument);
  batch.tip = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(live.ingest(batch), std::invalid_argument);
  batch.tip = 5.0;
  live.ingest(batch);  // cadence 1: publishes at 5
  batch.tip = 5.0;
  EXPECT_THROW(live.ingest(batch), std::invalid_argument);
  EXPECT_EQ(live.stats().batches, 1u);

  // Validation failures admit nothing anywhere.
  IngestBatch bad;
  bad.tip = 8.0;
  bad.social_nodes.push_back(std::numeric_limits<double>::quiet_NaN());
  EXPECT_THROW(live.ingest(bad), std::invalid_argument);
  IngestBatch join;
  join.tip = 8.0;
  join.social_nodes.push_back(7.0);
  live.ingest(join);
  IngestBatch regress;
  regress.tip = 9.0;
  regress.social_nodes.push_back(6.5);  // before the last join (7.0)
  EXPECT_THROW(live.ingest(regress), std::invalid_argument);
  EXPECT_EQ(live.merged_log().social_node_count(), 1u);

  EXPECT_THROW(ShardedLiveTimeline(SocialAttributeNetwork{},
                                   ShardedLiveTimelineOptions{.shards = 0}),
               std::invalid_argument);
}

/// An infinite tip would publish an epoch no later tip can follow, so
/// both frontiers reject it up front, name the cause, and keep ingesting.
template <typename Frontier>
void expect_non_finite_tips_rejected(Frontier& live) {
  for (const double tip : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    IngestBatch batch;
    batch.tip = tip;
    try {
      live.ingest(batch);
      ADD_FAILURE() << "tip " << tip << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("tip must be finite"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(live.stats().batches, 0u);
  IngestBatch next;
  next.tip = 5.0;
  live.ingest(next);
  EXPECT_EQ(live.tip()->time, 5.0);
}

TEST(ShardedLiveTimelineTest, NonFiniteTipsAreRejectedByBothFrontiers) {
  LiveTimeline single;
  expect_non_finite_tips_rejected(single);
  ShardedLiveTimeline sharded(SocialAttributeNetwork{},
                              ShardedLiveTimelineOptions{.shards = 3});
  expect_non_finite_tips_rejected(sharded);
}

TEST(ShardedLiveTimelineTest, CadenceFrontierAndBufferRecycling) {
  ShardedLiveTimelineOptions options;
  options.shards = 2;
  options.batches_per_epoch = 3;
  ShardedLiveTimeline live(SocialAttributeNetwork{}, options);
  EXPECT_EQ(live.stats().epochs, 1u);  // the seed epoch
  EXPECT_EQ(live.epoch(), 0u);

  // Between publishes tips may interleave out of order (concurrent
  // writers); the frontier is their running max.
  IngestBatch batch;
  batch.tip = 5.0;
  live.ingest(batch);
  batch.tip = 3.0;
  EXPECT_EQ(live.ingest(batch), 5.0);     // frontier holds at the max
  EXPECT_EQ(live.stats().epochs, 1u);     // cadence not reached
  EXPECT_EQ(live.tip_time(), 0.0);        // readers still see the seed
  batch.tip = 6.0;
  live.ingest(batch);  // third batch publishes
  EXPECT_EQ(live.stats().epochs, 2u);
  EXPECT_EQ(live.tip_time(), 6.0);
  live.publish();  // no-op: nothing changed since the stitch
  EXPECT_EQ(live.stats().epochs, 2u);

  // A held epoch stays immutable while ingest continues; with no
  // outstanding readers at publish time, at most two buffers ping-pong.
  const auto held = live.tip();
  const std::uint64_t held_print = san::testlib::snapshot_fingerprint(*held);
  std::vector<const SanSnapshot*> seen;
  for (int i = 7; i <= 14; ++i) {
    batch.tip = i;
    batch.social_nodes.assign(1, static_cast<double>(i));
    live.ingest(batch);
    live.publish();
    seen.push_back(live.tip().get());
  }
  EXPECT_EQ(san::testlib::snapshot_fingerprint(*held), held_print);
  EXPECT_EQ(held->time, 6.0);
  std::vector<const SanSnapshot*> distinct(seen);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  // `held` pins one buffer, so the rotation uses at most three.
  EXPECT_LE(distinct.size(), 3u);
}

}  // namespace
