// LiveTimeline oracle: every published epoch must be bit-identical —
// adjacency spans, members_of order, dropped counts, metrics — to a
// from-scratch SanTimeline rebuild of the same ingested log prefix at the
// same tip, under randomized ingest schedules (out-of-order times, links
// predating their endpoints, forward-referencing ids, duplicates, empty
// batches) and at SAN_THREADS=1/2/4/8. Readers must see immutable epochs:
// a held snapshot never changes while ingest continues.
#include "san/live_timeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "san/live_replay.hpp"
#include "san/san_metrics.hpp"
#include "san/timeline.hpp"
#include "san_testlib.hpp"
#include "stats/rng.hpp"

namespace {

using san::AttrId;
using san::AttributeType;
using san::IngestBatch;
using san::LiveTimeline;
using san::LiveTimelineOptions;
using san::NodeId;
using san::SanSnapshot;
using san::SanTimeline;
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

/// The from-scratch oracle: a published epoch must equal rebuilding a
/// SanTimeline over the ingested log and snapshotting it at the tip.
void expect_epoch_matches_rebuild(const LiveTimeline& live) {
  const auto tip = live.tip();
  ASSERT_NE(tip, nullptr);
  const SanTimeline rebuilt(live.log());
  expect_snapshots_identical(*tip, rebuilt.snapshot_at(tip->time), tip->time);
}

using Replay = san::LiveReplay;

TEST(LiveOracle, GplusReplayMatchesFromScratchRebuildEveryEpoch) {
  const auto net = san::testlib::synthetic_gplus(800, 2718);
  Replay replay(net, 20.0);

  LiveTimelineOptions options;
  options.initial_tip = 20.0;  // the attribute catalog lies ahead
  LiveTimeline live(replay.seed, options);
  expect_epoch_matches_rebuild(live);  // epoch 0: the seed

  san::stats::Rng rng(99);
  double tip = 20.0;
  while (tip < 99.0) {
    tip = std::min(99.0, tip + 1.0 + rng.uniform() * 9.0);  // random stride
    live.ingest(replay.batch_until(tip));
    expect_epoch_matches_rebuild(live);
  }
  EXPECT_EQ(live.tip_time(), 99.0);
  // The whole stream was delivered and admitted.
  const auto stats = live.stats();
  EXPECT_EQ(stats.pending_links, 0u);
  EXPECT_EQ(live.log().social_link_count(), net.social_link_count());
  EXPECT_EQ(live.log().attribute_link_count(), net.attribute_link_count());
  EXPECT_EQ(live.log().social_node_count(), net.social_node_count());
}

/// Hand-built randomized schedule: forward-referencing link ids (held,
/// then activated), link times predating their endpoint's join (the PR 4
/// deferral), late events (at or before an already-published tip),
/// duplicates, attribute nodes created mid-stream, and empty batches.
std::vector<IngestBatch> random_schedule(std::uint64_t seed,
                                         std::size_t batches) {
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
      // Join times wander ahead of the tip now and then (future-scheduled
      // nodes) but never regress.
      last_join = std::max(last_join, tip - 2.0 + rng.uniform() * 5.0);
      batch.social_nodes.push_back(last_join);
      ++nodes;
    }
    if (rng.uniform() < 0.3) {
      IngestBatch::AttributeNode attr;
      attr.type = static_cast<AttributeType>(rng.uniform_index(5));
      // Sometimes late (<= a previous tip), sometimes future-scheduled.
      attr.time = tip + 3.0 - rng.uniform() * 6.0;
      batch.attribute_nodes.push_back(attr);
      ++attrs;
    }
    const std::size_t n_links = rng.uniform_index(7);
    for (std::size_t i = 0; i < n_links && nodes > 1; ++i) {
      TimedSocialEdge e;
      // Reach up to two ids past the current node count: those links must
      // be held until the id exists.
      e.src = static_cast<NodeId>(rng.uniform_index(nodes + 2));
      e.dst = static_cast<NodeId>(rng.uniform_index(nodes + 2));
      e.time = tip - 2.0 + rng.uniform() * 4.0;  // may be late
      if (!issued.empty() && rng.uniform() < 0.15) {
        // Duplicate of an already-issued link: must be rejected.
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
      link.attr = static_cast<AttrId>(rng.uniform_index(attrs + 1));
      link.time = tip - 2.0 + rng.uniform() * 4.0;
      batch.attribute_links.push_back(link);
    }
    schedule.push_back(batch);
  }
  return schedule;
}

TEST(LiveOracle, RandomizedScheduleMatchesRebuildEveryEpoch) {
  const auto schedule = random_schedule(0xfeed, 40);
  LiveTimeline live;
  for (const auto& batch : schedule) {
    live.ingest(batch);
    expect_epoch_matches_rebuild(live);
  }
  const auto stats = live.stats();
  // The schedule is built to hit every path; assert it actually did.
  EXPECT_GT(stats.rejected_links, 0u);
  EXPECT_GT(stats.activated_links, 0u);
  EXPECT_GT(stats.late_batches, 0u);
  EXPECT_GT(stats.ingested_attribute_links, 0u);
}

TEST(LiveOracle, ByteIdenticalAcrossThreadCounts) {
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
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    san::core::set_thread_count(threads);
    LiveTimeline live;
    std::size_t i = 0;
    for (const auto& batch : schedule) {
      live.ingest(batch);
      EXPECT_EQ(san::testlib::snapshot_fingerprint(*live.tip()),
                reference[i])
          << "epoch " << i;
      ++i;
    }
  }
  san::core::set_thread_count(restore);
}

TEST(LiveTimeline, PublishedEpochsAreImmutableWhileIngestContinues) {
  const auto net = san::testlib::synthetic_gplus(600, 4242);
  Replay replay(net, 30.0);
  LiveTimelineOptions options;
  options.initial_tip = 30.0;
  LiveTimeline live(replay.seed, options);

  const auto held = live.tip();
  const std::uint64_t held_print = san::testlib::snapshot_fingerprint(*held);
  const std::uint64_t epoch0 = live.epoch();

  live.ingest(replay.batch_until(60.0));
  live.ingest(replay.batch_until(99.0));

  // The held epoch is untouched; the tip moved on.
  EXPECT_EQ(san::testlib::snapshot_fingerprint(*held), held_print);
  EXPECT_EQ(held->time, 30.0);
  EXPECT_EQ(live.tip()->time, 99.0);
  EXPECT_EQ(live.epoch(), epoch0 + 2);
  EXPECT_NE(live.tip().get(), held.get());
}

TEST(LiveTimeline, TipMustStrictlyAdvance) {
  LiveTimeline live;  // empty seed: tip 0
  IngestBatch batch;
  batch.tip = 0.0;
  EXPECT_THROW(live.ingest(batch), std::invalid_argument);
  batch.tip = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(live.ingest(batch), std::invalid_argument);
  batch.tip = 5.0;
  live.ingest(batch);
  batch.tip = 5.0;  // equal is not an advance
  EXPECT_THROW(live.ingest(batch), std::invalid_argument);
  EXPECT_EQ(live.stats().batches, 1u);

  // NaN event times and regressing join times are rejected up front,
  // leaving the log unchanged.
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
  EXPECT_EQ(live.log().social_node_count(), 1u);
}

TEST(LiveTimeline, NonFiniteTipsAreRejected) {
  // An infinite tip would publish an epoch no later tip can follow, so it
  // is rejected up front, names the cause, and ingest keeps going.
  LiveTimeline live;
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

/// The TSan target: four writers ingesting concurrently (they serialize on
/// the writer mutex, and each ingest publishes an epoch) and a reader
/// hammering tip(). Every epoch the reader observes must have a
/// non-decreasing time, and the final epoch must equal the from-scratch
/// rebuild of whatever log the race admitted.
TEST(LiveTimeline, MultiWriterIngestRacingPublisherAndReader) {
  constexpr std::size_t kWriters = 4;
  const auto schedule = random_schedule(0xbeef, 96);

  LiveTimeline live;

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> stale{0};

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::size_t b = w; b < schedule.size(); b += kWriters) {
        try {
          live.ingest(schedule[b]);
        } catch (const std::invalid_argument&) {
          // Another writer got a later batch in first: this batch's tip
          // (or its node joins) now lies behind the log, and it is
          // rejected whole.
          stale.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  std::thread reader([&] {
    double last_time = -1.0;
    std::uint64_t reads = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto tip = live.tip();
      ASSERT_NE(tip, nullptr);
      EXPECT_GE(tip->time, last_time);
      last_time = tip->time;
      // Touch the spans so TSan sees reader-side accesses too.
      if (tip->social_node_count() > 0) reads += tip->social.out(0).size();
      if (tip->attribute_id_count() > 0) reads += tip->members_of(0).size();
      std::this_thread::yield();
    }
    (void)reads;
  });

  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  reader.join();

  expect_epoch_matches_rebuild(live);
  const auto stats = live.stats();
  EXPECT_GT(stats.batches, 0u);
  EXPECT_EQ(stats.batches + stale.load(), schedule.size());
}

TEST(LiveTimeline, EveryIngestPublishes) {
  LiveTimeline live;
  EXPECT_EQ(live.stats().epochs, 1u);  // the seed epoch
  EXPECT_EQ(live.epoch(), 0u);
  EXPECT_EQ(live.tip_time(), 0.0);

  IngestBatch batch;
  for (const double tip : {1.0, 2.0, 3.0, 4.0}) {
    batch.tip = tip;
    live.ingest(batch);
    const auto stats = live.stats();
    EXPECT_EQ(stats.epochs, stats.batches + 1);
    EXPECT_EQ(live.epoch(), stats.batches);
    EXPECT_EQ(live.tip_time(), batch.tip);
  }
}

TEST(LiveTimeline, RetiredEpochBuffersAreRecycled) {
  // Publishing with no outstanding readers must not grow the buffer pool
  // beyond the published one plus one retiree: exactly two buffers
  // alternate, each advanced in place from its own epoch two back.
  LiveTimeline live;
  EXPECT_EQ(live.stats().epoch_buffers, 1u);  // the seed epoch's
  std::vector<const SanSnapshot*> seen;
  IngestBatch batch;
  for (int i = 1; i <= 8; ++i) {
    batch.tip = i;
    live.ingest(batch);
    seen.push_back(live.tip().get());
  }
  std::vector<const SanSnapshot*> distinct(seen);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(distinct.size(), 2u);
  for (std::size_t i = 1; i < seen.size(); ++i) {
    // The new epoch can never reuse the currently-published buffer.
    EXPECT_NE(seen[i], seen[i - 1]) << "epoch " << i + 1;
    if (i >= 2) {
      EXPECT_EQ(seen[i], seen[i - 2]) << "epoch " << i + 1;
    }
  }
  EXPECT_EQ(live.stats().epoch_buffers, 2u);
}

TEST(LiveTimeline, EveryPublishedEpochCarriesAFreshGeneration) {
  // Epoch k+2 is served from epoch k's recycled buffer, yet it is new
  // content, so it must carry a new generation (state keyed by generation
  // would otherwise outlive what it was built from). A pinned epoch keeps
  // its generation while ingest continues around it.
  LiveTimeline live;
  std::vector<const SanSnapshot*> seen;
  std::vector<std::uint64_t> generations{live.tip()->generation};
  IngestBatch batch;
  std::shared_ptr<const SanSnapshot> pinned;
  std::uint64_t pinned_generation = san::kNoGeneration;
  for (int i = 1; i <= 8; ++i) {
    batch.tip = i;
    live.ingest(batch);
    const auto tip = live.tip();
    seen.push_back(tip.get());
    generations.push_back(tip->generation);
    if (i == 5) {
      pinned = tip;
      pinned_generation = tip->generation;
    }
  }
  ASSERT_EQ(seen[2], seen[0]);  // recycled buffers are in the sequence
  ASSERT_EQ(seen[3], seen[1]);
  std::vector<std::uint64_t> distinct(generations);
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  EXPECT_EQ(distinct.size(), generations.size());
  EXPECT_EQ(std::count(generations.begin(), generations.end(),
                       san::kNoGeneration),
            0);
  EXPECT_EQ(pinned->generation, pinned_generation);
}

TEST(LiveOracle, PinnedEpochGrowsThePoolAndLaggingBufferCatchesUp) {
  // A reader pins epoch k across many ingests: publication must route
  // around it (a third buffer appears, then two alternate), the pinned
  // epoch never changes, and once released its buffer — now many epochs
  // behind — is the next one advanced, in one multi-epoch step that must
  // still equal the from-scratch rebuild.
  const auto net = san::testlib::synthetic_gplus(800, 31337);
  Replay replay(net, 20.0);
  LiveTimelineOptions options;
  options.initial_tip = 20.0;
  LiveTimeline live(replay.seed, options);

  // Epochs alternate the first two buffers, so epoch 2 sits in the
  // first one — the buffer publication tries first once it is free.
  double tip = 20.0;
  for (int i = 0; i < 2; ++i) {
    tip += 1.0;
    live.ingest(replay.batch_until(tip));
  }
  auto pinned = live.tip();
  const SanSnapshot* pinned_buffer = pinned.get();
  const std::uint64_t pinned_print =
      san::testlib::snapshot_fingerprint(*pinned);

  for (int i = 0; i < 24; ++i) {
    tip += 2.0;
    live.ingest(replay.batch_until(tip));
    EXPECT_NE(live.tip().get(), pinned_buffer) << "tip " << tip;
    EXPECT_EQ(san::testlib::snapshot_fingerprint(*pinned), pinned_print)
        << "tip " << tip;
    expect_epoch_matches_rebuild(live);
  }
  EXPECT_EQ(live.stats().epoch_buffers, 3u);
  // No late batch invalidated the lagging buffer's delta state, so its
  // catch-up below is one delta advance across 25 epochs of events.
  EXPECT_EQ(live.stats().late_batches, 0u);

  pinned.reset();
  tip += 2.0;
  live.ingest(replay.batch_until(tip));
  EXPECT_EQ(live.tip().get(), pinned_buffer);  // the lagging buffer, reused
  expect_epoch_matches_rebuild(live);
  for (int i = 0; i < 4; ++i) {
    tip += 1.0;
    live.ingest(replay.batch_until(tip));
    expect_epoch_matches_rebuild(live);
  }
  EXPECT_EQ(live.stats().epoch_buffers, 3u);  // the pool never shrinks
}

TEST(LiveOracle, DeferredAdvanceMatchesRebuildAtEveryPublishedEpoch) {
  // With two epoch buffers alternating, each buffer's advance covers two
  // batches. A late batch and a held-link activation must still reach the
  // next published epoch exactly as a rebuild would.
  LiveTimeline live;
  const auto link = [](NodeId src, NodeId dst, double time) {
    TimedSocialEdge e;
    e.src = src;
    e.dst = dst;
    e.time = time;
    return e;
  };

  std::vector<IngestBatch> schedule(6);
  for (std::size_t b = 0; b < schedule.size(); ++b) {
    schedule[b].tip = static_cast<double>(b + 1);
  }
  schedule[0].social_nodes = {0.2, 0.4, 0.6};
  schedule[0].social_links = {link(0, 1, 0.8), link(1, 2, 0.9)};
  IngestBatch::AttributeNode school;
  school.type = AttributeType::kSchool;
  school.time = 0.5;
  schedule[0].attribute_nodes.push_back(school);
  schedule[0].attribute_links.push_back({0, 0, 0.7});
  // Node 3 does not exist yet: held until batch 4 admits it.
  schedule[1].social_links = {link(0, 3, 1.5), link(2, 0, 1.8)};
  schedule[2].social_links = {link(2, 1, 2.5)};
  // Batch 4: node 3 joins, so the held 0->3 @1.5 — at or before the
  // previous tip — activates, which makes the batch late.
  schedule[3].social_nodes = {3.2};
  schedule[3].attribute_links.push_back({3, 0, 3.4});
  // Batch 5: an ordinary late link, back at t=2.2.
  schedule[4].social_links = {link(1, 0, 2.2), link(3, 2, 4.5)};
  schedule[5].social_links = {link(3, 1, 5.5)};

  for (std::size_t b = 0; b < schedule.size(); ++b) {
    SCOPED_TRACE(testing::Message() << "batch " << b + 1);
    live.ingest(schedule[b]);
    expect_epoch_matches_rebuild(live);
    EXPECT_EQ(live.tip_time(), schedule[b].tip);
    EXPECT_EQ(live.stats().epochs, b + 2);
  }
  const auto stats = live.stats();
  EXPECT_EQ(stats.activated_links, 1u);
  EXPECT_EQ(stats.late_batches, 2u);
  EXPECT_EQ(stats.pending_links, 0u);

  // The same check over the randomized schedule: every epoch equals the
  // rebuild.
  LiveTimeline random_live;
  for (const auto& batch : random_schedule(0xc0de, 40)) {
    random_live.ingest(batch);
    expect_epoch_matches_rebuild(random_live);
  }
  EXPECT_GT(random_live.stats().late_batches, 0u);
  EXPECT_GT(random_live.stats().activated_links, 0u);
}

}  // namespace
