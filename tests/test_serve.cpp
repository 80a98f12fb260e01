// Serving-engine contract: SnapshotCache LRU semantics and snapshot
// fidelity, workload parsing, and QueryEngine batch/single equality —
// byte-for-byte rendered results, stable at SAN_THREADS=1/2/4/8.
#include "serve/query_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"
#include "san/live_timeline.hpp"
#include "san/timeline.hpp"
#include "san_testlib.hpp"
#include "stats/rng.hpp"

namespace {

using san::IngestBatch;
using san::LiveTimeline;
using san::NodeId;
using san::SanSnapshot;
using san::SanTimeline;
using san::SocialAttributeNetwork;
using san::serve::Query;
using san::serve::QueryEngine;
using san::serve::QueryKind;
using san::serve::QueryResult;
using san::serve::SnapshotCache;

SocialAttributeNetwork small_gplus() {
  return san::testlib::synthetic_gplus(1'200, 77);
}

std::vector<Query> mixed_workload(const SocialAttributeNetwork& net,
                                  std::size_t count, std::uint64_t seed) {
  const std::vector<double> days{15.0, 40.0, 70.0, 98.0};
  return san::testlib::mixed_queries(count, net.social_node_count(), days,
                                     seed);
}

// ---- SnapshotCache. ----

TEST(SnapshotCache, HitsMissesAndEvictions) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 2);

  EXPECT_EQ(cache.size(), 0u);
  const auto a = cache.at(10.0);
  const auto b = cache.at(20.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().misses, 2u);

  // Warm hit returns the same object.
  EXPECT_EQ(cache.at(10.0).get(), a.get());
  EXPECT_EQ(cache.stats().hits, 1u);

  // Third time evicts the LRU entry (20.0: the hit promoted 10.0).
  const auto c = cache.at(30.0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.at(10.0).get(), a.get());  // still resident
  cache.at(20.0);                            // re-materialized
  EXPECT_EQ(cache.stats().misses, 4u);

  // The evicted snapshot stays valid through the shared_ptr.
  EXPECT_EQ(b->time, 20.0);
  EXPECT_EQ(c->time, 30.0);
}

TEST(SnapshotCache, SnapshotsMatchTimeline) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 3);
  for (const double t : {25.0, 60.0, 98.0, 25.0}) {
    const auto cached = cache.at(t);
    const auto direct = timeline.snapshot_at(t);
    EXPECT_EQ(cached->social_node_count(), direct.social_node_count());
    EXPECT_EQ(cached->social_link_count(), direct.social_link_count());
    EXPECT_EQ(cached->attribute_link_count, direct.attribute_link_count);
    EXPECT_EQ(cached->dropped_link_count, direct.dropped_link_count);
    for (NodeId u = 0; u < direct.social_node_count(); u += 97) {
      const auto co = cached->social.out(u);
      const auto go = direct.social.out(u);
      ASSERT_TRUE(std::equal(co.begin(), co.end(), go.begin(), go.end()));
      const auto ca = cached->attributes_of(u);
      const auto ga = direct.attributes_of(u);
      ASSERT_TRUE(std::equal(ca.begin(), ca.end(), ga.begin(), ga.end()));
    }
  }
}

TEST(SnapshotCache, ClearResets) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 2);
  const auto held = cache.at(10.0);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(held->time, 10.0);  // outstanding handle survives clear()
}

TEST(SnapshotCache, RejectsZeroCapacity) {
  const SocialAttributeNetwork net;
  const SanTimeline timeline(net);
  EXPECT_THROW(SnapshotCache(timeline, 0), std::invalid_argument);
}

TEST(SnapshotCache, RejectsNanTime) {
  // NaN != NaN would make every lookup miss and every eviction erase
  // nothing, leaking index entries; the cache must refuse it outright.
  const SocialAttributeNetwork net;
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 2);
  EXPECT_THROW(cache.at(std::nan("")), std::invalid_argument);
  EXPECT_EQ(cache.size(), 0u);
}

// ---- SnapshotCache concurrency. ----

// Rendezvous helper: release() blocks callers until `expected` of them have
// arrived (or fails the test after a generous timeout). Used inside the
// cache's miss hook to PROVE that N cold misses are inside their
// materializations at the same instant — with serialized misses the later
// arrivals would be blocked on the cache lock and the rendezvous could
// never fill.
class Rendezvous {
 public:
  explicit Rendezvous(std::size_t expected) : expected_(expected) {}

  bool arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++arrived_;
    cv_.notify_all();
    return cv_.wait_for(lock, std::chrono::seconds(60),
                        [&] { return arrived_ >= expected_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t expected_;
  std::size_t arrived_ = 0;
};

TEST(SnapshotCache, DistinctColdMissesMaterializeConcurrently) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 8);

  constexpr std::size_t kThreads = 3;
  Rendezvous rendezvous(kThreads);
  std::atomic<int> rendezvous_failures{0};
  cache.set_miss_hook([&](double) {
    if (!rendezvous.arrive_and_wait()) ++rendezvous_failures;
  });

  const double times[kThreads] = {20.0, 50.0, 98.0};
  std::shared_ptr<const SanSnapshot> snaps[kThreads];
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { snaps[i] = cache.at(times[i]); });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(rendezvous_failures.load(), 0)
      << "cold misses serialized: the rendezvous never saw all " << kThreads
      << " materializations in flight together";
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, kThreads);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.peak_inflight, kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    ASSERT_NE(snaps[i], nullptr);
    EXPECT_EQ(snaps[i]->time, times[i]);
    // Each concurrently built snapshot must equal the single-threaded one.
    const auto direct = timeline.snapshot_at(times[i]);
    EXPECT_EQ(snaps[i]->social_link_count(), direct.social_link_count());
    EXPECT_EQ(snaps[i]->attribute_link_count, direct.attribute_link_count);
  }
}

TEST(SnapshotCache, DuplicateTimeStampedeCoalescesOntoOneMiss) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 4);

  // Hold the first materialization of t=40 until the stampede has piled up
  // behind its in-flight future.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  cache.set_miss_hook([&](double) {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait_for(lock, std::chrono::seconds(60), [&] { return gate_open; });
  });

  constexpr std::size_t kThreads = 4;
  std::shared_ptr<const SanSnapshot> snaps[kThreads];
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { snaps[i] = cache.at(40.0); });
  }
  // Wait until one thread owns the miss and the rest have coalesced...
  for (int spin = 0; spin < 6000; ++spin) {
    const auto s = cache.stats();
    if (s.misses == 1 && s.coalesced == kThreads - 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().coalesced, kThreads - 1);
  // ...then release the single materialization.
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (auto& t : threads) t.join();

  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(snaps[i].get(), snaps[0].get())
        << "stampede produced more than one snapshot object";
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SnapshotCache, EvictionRacesInflightMaterialization) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 1);  // every insert evicts

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  cache.set_miss_hook([&](double time) {
    if (time != 10.0) return;  // only hold the first time's build
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait_for(lock, std::chrono::seconds(60), [&] { return gate_open; });
  });

  std::shared_ptr<const SanSnapshot> slow;
  std::thread holder([&] { slow = cache.at(10.0); });
  for (int spin = 0; spin < 6000 && cache.stats().misses == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // While t=10 is in flight, fill and churn the capacity-1 LRU.
  const auto a = cache.at(20.0);
  const auto b = cache.at(30.0);  // evicts 20.0
  EXPECT_EQ(cache.stats().evictions, 1u);
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  holder.join();  // t=10 lands, evicting 30.0

  ASSERT_NE(slow, nullptr);
  EXPECT_EQ(slow->time, 10.0);
  EXPECT_EQ(a->time, 20.0);  // evicted snapshots stay valid via shared_ptr
  EXPECT_EQ(b->time, 30.0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().misses, 3u);
  // The landed snapshot is resident: this hit must not re-materialize.
  EXPECT_EQ(cache.at(10.0).get(), slow.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(QueryEngine, BatchPrefetchDoesNotBlockOnForeignInflightMiss) {
  // run_batch prefetches snapshot times on core-substrate pool lanes. A
  // lane that finds a time already in flight on a FOREIGN thread must not
  // block on that build (the foreign thread may itself be queued behind
  // this very pool job — a deadlock): it builds a private copy instead.
  // Deterministic: the foreign build is held at a gate for the whole
  // batch, so any blocking wait could never return.
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 8);
  QueryEngine engine(cache);
  const std::size_t restore = san::core::thread_count();
  san::core::set_thread_count(4);  // real pool workers

  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  cache.set_miss_hook([&](double time) {
    if (time != 40.0) return;
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait_for(lock, std::chrono::seconds(60), [&] { return gate_open; });
  });
  std::shared_ptr<const SanSnapshot> foreign_snap;
  std::thread foreign([&] { foreign_snap = cache.at(40.0); });
  for (int spin = 0; spin < 6000 && cache.stats().misses == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  std::vector<Query> queries;
  for (const double day : {40.0, 70.0}) {
    Query q;
    q.kind = QueryKind::kEgoMetrics;
    q.time = day;
    q.user = 3;
    queries.push_back(q);
  }
  const auto results = engine.run_batch(queries);  // must not deadlock
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_EQ(cache.stats().coalesced, 1u);  // 40.0 built as a private copy

  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  foreign.join();
  ASSERT_NE(foreign_snap, nullptr);
  EXPECT_EQ(foreign_snap->time, 40.0);

  // The private copy rendered the same result the resident snapshot does.
  cache.set_miss_hook(nullptr);
  const auto again = engine.run_single(queries[0]);
  EXPECT_EQ(again.to_line(queries[0]), results[0].to_line(queries[0]));
  san::core::set_thread_count(restore);
}

// ---- Live binding (ingest-while-serving). ----

/// A live frontier over the full small_gplus network plus a few hand-made
/// post-horizon batches, with the frozen timeline serving exact history.
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

TEST(SnapshotCache, LiveBindingServesTipPastHorizonAndExactHistoryBelow) {
  LiveRig rig;
  SnapshotCache cache(rig.frozen, 4);
  cache.bind_live(rig.live);
  const double horizon = rig.frozen.max_time();

  // Historical time: exact frozen snapshot, cached and LRU-managed.
  const auto historical = cache.at(40.0);
  EXPECT_EQ(historical->time, 40.0);
  EXPECT_EQ(cache.stats().misses, 1u);

  // `now` (+infinity) and any time past the horizon: the published epoch,
  // resolved without touching the cache index.
  const auto now0 = cache.at(std::numeric_limits<double>::infinity());
  EXPECT_EQ(now0.get(), rig.live.tip().get());
  const auto past = cache.at(horizon + 0.5);
  EXPECT_EQ(past.get(), now0.get());
  EXPECT_EQ(cache.stats().live_hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);  // live hits never materialize

  // Ingest advances the tip; the next live resolution sees the new epoch
  // while the held handle stays on the old one. Nothing was invalidated:
  // the historical entry is still a hit.
  rig.ingest_day(horizon + 1.0, 3, 9);
  const auto now1 = cache.at(std::numeric_limits<double>::infinity());
  EXPECT_NE(now1.get(), now0.get());
  EXPECT_EQ(now1->time, horizon + 1.0);
  EXPECT_EQ(now0->time, rig.frozen.max_time());
  EXPECT_EQ(cache.at(40.0).get(), historical.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(QueryEngine, MixedHistoricalAndLiveBatchMatchesSingleAcrossThreads) {
  LiveRig rig;
  rig.ingest_day(rig.frozen.max_time() + 1.0, 3, 9);
  rig.ingest_day(rig.frozen.max_time() + 2.0, 9, 3);

  // Mixed workload: historical days plus `now` queries against the tip.
  auto queries = mixed_workload(rig.net, 200, 777);
  for (std::size_t i = 0; i < queries.size(); i += 3) {
    queries[i].time = std::numeric_limits<double>::infinity();
    queries[i].now = true;
  }

  SnapshotCache reference_cache(rig.frozen, 4);
  reference_cache.bind_live(rig.live);
  QueryEngine reference_engine(reference_cache);
  std::vector<std::string> reference;
  for (const auto& q : queries) {
    reference.push_back(reference_engine.run_single(q).to_line(q));
  }
  EXPECT_GT(reference_cache.stats().live_hits, 0u);

  const std::size_t restore = san::core::thread_count();
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    san::core::set_thread_count(threads);
    SnapshotCache cache(rig.frozen, 4);
    cache.bind_live(rig.live);
    QueryEngine engine(cache);
    const auto results = engine.run_batch(queries);
    ASSERT_EQ(results.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(results[i].to_line(queries[i]), reference[i])
          << "query " << i;
    }
  }
  san::core::set_thread_count(restore);
}

// ---- Workload parsing. ----

TEST(Workload, ParsesEveryKindAndSkipsComments) {
  const auto queries = san::serve::parse_workload(
      "# a comment\n"
      "\n"
      "linkrec 12.5 7 10\n"
      "attrs 98 42 3\n"
      "ego 40 9\n"
      "recip 70 3 8\n");
  ASSERT_EQ(queries.size(), 4u);
  EXPECT_EQ(queries[0].kind, QueryKind::kLinkRec);
  EXPECT_EQ(queries[0].time, 12.5);
  EXPECT_EQ(queries[0].user, 7u);
  EXPECT_EQ(queries[0].k, 10u);
  EXPECT_EQ(queries[1].kind, QueryKind::kAttrInfer);
  EXPECT_EQ(queries[2].kind, QueryKind::kEgoMetrics);
  EXPECT_EQ(queries[2].user, 9u);
  EXPECT_EQ(queries[3].kind, QueryKind::kReciprocity);
  EXPECT_EQ(queries[3].user, 3u);
  EXPECT_EQ(queries[3].other, 8u);
}

TEST(Workload, RejectsMalformedLines) {
  EXPECT_THROW(san::serve::parse_workload("warp 1 2 3\n"),
               std::invalid_argument);
  EXPECT_THROW(san::serve::parse_workload("linkrec 1 2\n"),
               std::invalid_argument);
  EXPECT_THROW(san::serve::parse_workload("linkrec abc 2 3\n"),
               std::invalid_argument);
  EXPECT_THROW(san::serve::parse_workload("ego 1 2x\n"),
               std::invalid_argument);
  EXPECT_THROW(san::serve::parse_workload("ego 1 2 3\n"),
               std::invalid_argument);
  EXPECT_THROW(san::serve::parse_workload("linkrec 1 2 0\n"),
               std::invalid_argument);
  EXPECT_THROW(san::serve::parse_workload("recip 1 -2 3\n"),
               std::invalid_argument);
  // NaN times would poison the snapshot cache's hash keying.
  EXPECT_THROW(san::serve::parse_workload("ego nan 2\n"),
               std::invalid_argument);
}

TEST(Workload, ParsesSybilCommunityInfluenceLines) {
  const auto queries = san::serve::parse_workload(
      "sybil 40 7\n"
      "community now 9\n"
      "influence 98 3\n"
      "influence 98 2 4 8 15\n");
  ASSERT_EQ(queries.size(), 4u);
  EXPECT_EQ(queries[0].kind, QueryKind::kSybil);
  EXPECT_EQ(queries[0].time, 40.0);
  EXPECT_EQ(queries[0].user, 7u);
  EXPECT_EQ(queries[1].kind, QueryKind::kCommunity);
  EXPECT_TRUE(queries[1].now);
  EXPECT_EQ(queries[1].user, 9u);
  EXPECT_EQ(queries[2].kind, QueryKind::kInfluence);
  EXPECT_EQ(queries[2].k, 3u);
  EXPECT_TRUE(queries[2].seeds.empty());
  EXPECT_EQ(queries[3].k, 2u);
  EXPECT_EQ(queries[3].seeds, (std::vector<NodeId>{4, 8, 15}));

  EXPECT_THROW(san::serve::parse_workload("sybil 40\n"),
               std::invalid_argument);
  EXPECT_THROW(san::serve::parse_workload("community 40 7 9\n"),
               std::invalid_argument);
  EXPECT_THROW(san::serve::parse_workload("influence 98 0\n"),
               std::invalid_argument);
  EXPECT_THROW(san::serve::parse_workload("influence 98\n"),
               std::invalid_argument);
}

TEST(Workload, InfluenceKIsCappedButTopKIsNot) {
  // Greedy influence cost grows with k, so its k stops at kMaxInfluenceK;
  // linkrec/attrs k only truncates a top-k and keeps the 32-bit range.
  const auto cap = std::to_string(san::serve::kMaxInfluenceK);
  const auto over = std::to_string(san::serve::kMaxInfluenceK + 1);
  const auto queries = san::serve::parse_workload(
      "influence now " + cap + "\nlinkrec 5 3 4294967295\n");
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0].k, san::serve::kMaxInfluenceK);
  EXPECT_EQ(queries[1].k, 4294967295u);

  for (const std::string& k : {over, std::string("1000"),
                               std::string("4294967295")}) {
    SCOPED_TRACE(k);
    try {
      (void)san::serve::parse_workload("ego 1 2\ninfluence now " + k +
                                       " 3\n");
      ADD_FAILURE() << "influence k " << k << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "workload line 2: k '" + k + "' out of range (1.." + cap +
                    ")");
    }
  }
  EXPECT_THROW(san::serve::parse_workload("linkrec 5 3 4294967296\n"),
               std::invalid_argument);
}

TEST(Workload, MalformedLinesNameTheLineAndOffendingToken) {
  const auto message_of = [](const std::string& text) {
    try {
      (void)san::serve::parse_workload(text);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("<no throw>");
  };
  constexpr auto npos = std::string::npos;
  // Every diagnostic carries the 1-based line number...
  EXPECT_NE(message_of("ego 1 2\nwarp 1 2\n").find("line 2"), npos);
  // ...and quotes the token that broke the parse, not just a category.
  EXPECT_NE(message_of("warp 1 2\n").find("'warp'"), npos);
  EXPECT_NE(message_of("linkrec abc 2 3\n").find("'abc'"), npos);
  EXPECT_NE(message_of("ego 1 2x\n").find("'2x'"), npos);
  EXPECT_NE(message_of("ego 1 2 3\n").find("'3'"), npos);  // trailing
  EXPECT_NE(message_of("linkrec 1 2 0\n").find("'0'"), npos);  // k range
  EXPECT_NE(message_of("influence 1 2 5x\n").find("'5x'"), npos);  // seed
  EXPECT_NE(message_of("recip 1 -2 3\n").find("'-2'"), npos);
}

TEST(Workload, NowTokenParsesToInfinityWithFlag) {
  const auto queries = san::serve::parse_workload("ego now 9\n");
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_TRUE(queries[0].now);
  EXPECT_EQ(queries[0].time, std::numeric_limits<double>::infinity());
  // Rendering uses the token, not the sentinel value.
  QueryResult result;
  result.kind = QueryKind::kEgoMetrics;
  EXPECT_EQ(result.to_line(queries[0]).rfind("ego t=now u=9", 0), 0u);
}

TEST(Workload, IngestLinesOnlyParseInLiveReplay) {
  // Plain serve workloads reject the live-only directive with its line.
  EXPECT_THROW(san::serve::parse_workload("ego 1 2\ningest 5\n"),
               std::invalid_argument);

  const auto steps =
      san::serve::parse_live_workload("ego 1 2\ningest 5\nego now 2\n");
  ASSERT_EQ(steps.size(), 3u);
  EXPECT_FALSE(steps[0].ingest);
  EXPECT_TRUE(steps[1].ingest);
  EXPECT_EQ(steps[1].tip, 5.0);
  EXPECT_FALSE(steps[2].ingest);
  EXPECT_TRUE(steps[2].query.now);

  EXPECT_THROW(san::serve::parse_live_workload("ingest\n"),
               std::invalid_argument);
  EXPECT_THROW(san::serve::parse_live_workload("ingest nan\n"),
               std::invalid_argument);
  EXPECT_THROW(san::serve::parse_live_workload("ingest 5 6\n"),
               std::invalid_argument);
  EXPECT_THROW(san::serve::parse_live_workload("ingest now\n"),
               std::invalid_argument);
}

TEST(Workload, NonFiniteIngestTipIsRejectedWithItsLine) {
  // `ingest inf` would publish an epoch at +inf that no later tip can
  // follow; the parser names the line instead of letting the replay die
  // at the next ingest.
  for (const char* tip : {"inf", "-inf", "Infinity", "+INF"}) {
    SCOPED_TRACE(tip);
    const std::string text =
        std::string("ego 1 2\ningest ") + tip + "\nego now 2\n";
    try {
      (void)san::serve::parse_live_workload(text);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "workload line 2: ingest TIP must be finite");
    }
  }
}

TEST(Workload, ToLinePinsNumberRendering) {
  // Doubles render as printf("%.17g") does and integers in plain decimal;
  // the expected strings are the %.17g bytes.
  Query query;
  query.kind = QueryKind::kLinkRec;
  query.time = 2.5;
  query.user = 4'294'967'295u;
  const auto score_of = [&](double score) {
    QueryResult result;
    result.kind = QueryKind::kLinkRec;
    result.ok = true;
    result.recommendations = {{7, score}};
    const std::string line = result.to_line(query);
    EXPECT_EQ(line.rfind("linkrec t=2.5 u=4294967295 7:", 0), 0u) << line;
    return line.substr(line.find(" 7:") + 3);
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double denormal = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(score_of(1.0), "1");
  EXPECT_EQ(score_of(30.0), "30");
  EXPECT_EQ(score_of(1e16), "10000000000000000");
  EXPECT_EQ(score_of(1e21), "1e+21");
  EXPECT_EQ(score_of(1e-300), "1e-300");
  EXPECT_EQ(score_of(denormal), "4.9406564584124654e-324");
  EXPECT_EQ(score_of(-0.0), "-0");
  EXPECT_EQ(score_of(inf), "inf");
  EXPECT_EQ(score_of(-inf), "-inf");
  EXPECT_EQ(score_of(0.1), "0.10000000000000001");
  EXPECT_EQ(score_of(1.0 / 3.0), "0.33333333333333331");
  EXPECT_EQ(score_of(-1.5e-7), "-1.4999999999999999e-07");

  Query ego;
  ego.kind = QueryKind::kEgoMetrics;
  ego.time = 40.0;
  QueryResult counts;
  counts.kind = QueryKind::kEgoMetrics;
  counts.ok = true;
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  counts.ego = {0, 1, 10, 1'000'000, 4'294'967'296ull, max};
  EXPECT_EQ(counts.to_line(ego),
            "ego t=40 u=0 out=0 in=1 deg=10 mutual=1000000 "
            "attrs=4294967296 twohop=18446744073709551615");

  // 17 significant digits read back to the same double, for random bit
  // patterns of every magnitude, denormals included.
  san::stats::Rng rng(0x70c4a75);
  for (int i = 0; i < 1000; ++i) {
    const double value = std::bit_cast<double>(rng.next_u64());
    if (std::isnan(value)) continue;
    EXPECT_EQ(std::strtod(score_of(value).c_str(), nullptr), value);
  }
}

// ---- QueryEngine. ----

TEST(QueryEngine, BatchMatchesSingleByteForByteAcrossThreadCounts) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  const auto queries = mixed_workload(net, 300, 2024);

  SnapshotCache reference_cache(timeline, 4);
  QueryEngine reference_engine(reference_cache);
  std::vector<std::string> reference;
  for (const auto& q : queries) {
    reference.push_back(reference_engine.run_single(q).to_line(q));
  }

  const std::size_t restore = san::core::thread_count();
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    san::core::set_thread_count(threads);
    SnapshotCache cache(timeline, 4);
    QueryEngine engine(cache);
    const auto results = engine.run_batch(queries);
    ASSERT_EQ(results.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(results[i].to_line(queries[i]), reference[i])
          << "query " << i << " at " << threads << " threads";
    }
  }
  san::core::set_thread_count(restore);
}

TEST(QueryEngine, BatchResolvesEachDayOnce) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 8);
  QueryEngine engine(cache);
  const auto queries = mixed_workload(net, 100, 9);  // 4 distinct days
  (void)engine.run_batch(queries);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
  (void)engine.run_batch(queries);
  EXPECT_EQ(cache.stats().hits, 4u);
}

TEST(QueryEngine, UnknownSubjectYieldsErrorResultNotThrow) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 2);
  QueryEngine engine(cache);

  // At day 0.5 almost no node has joined yet; a huge id certainly hasn't.
  Query q;
  q.kind = QueryKind::kLinkRec;
  q.time = 0.5;
  q.user = static_cast<NodeId>(net.social_node_count() - 1);
  q.k = 5;
  const auto result = engine.run_single(q);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.to_line(q).find("ERR unknown-node"), std::string::npos);

  const auto batch = engine.run_batch(std::vector<Query>{q});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0], result);
}

TEST(QueryEngine, ReciprocityFlagsAndEgoCounts) {
  SocialAttributeNetwork net;
  for (int i = 0; i < 5; ++i) net.add_social_node(0.0);
  const auto a = net.add_attribute_node(san::AttributeType::kEmployer, "G");
  net.add_attribute_link(0, a, 0.0);
  // 0 <-> 1 mutual; 0 -> 2 one-way; 2 -> 3 builds a 2-hop path from 0.
  net.add_social_link(0, 1, 1.0);
  net.add_social_link(1, 0, 1.0);
  net.add_social_link(0, 2, 1.0);
  net.add_social_link(2, 3, 1.0);

  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 1);
  QueryEngine engine(cache);

  Query ego;
  ego.kind = QueryKind::kEgoMetrics;
  ego.time = 2.0;
  ego.user = 0;
  const auto ego_result = engine.run_single(ego);
  ASSERT_TRUE(ego_result.ok);
  EXPECT_EQ(ego_result.ego.out_degree, 2u);
  EXPECT_EQ(ego_result.ego.in_degree, 1u);
  EXPECT_EQ(ego_result.ego.degree, 2u);
  EXPECT_EQ(ego_result.ego.mutual_degree, 1u);
  EXPECT_EQ(ego_result.ego.attribute_count, 1u);
  EXPECT_EQ(ego_result.ego.two_hop_count, 1u);  // node 3 via 2

  Query recip;
  recip.kind = QueryKind::kReciprocity;
  recip.time = 2.0;
  recip.user = 0;
  recip.other = 2;
  auto result = engine.run_single(recip);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.link_present);
  EXPECT_FALSE(result.already_mutual);

  recip.other = 1;
  result = engine.run_single(recip);
  EXPECT_TRUE(result.already_mutual);

  recip.user = 3;
  recip.other = 4;
  result = engine.run_single(recip);
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.link_present);
}

TEST(QueryEngine, AttrInferKOverridesOptions) {
  const auto net = small_gplus();
  const SanTimeline timeline(net);
  SnapshotCache cache(timeline, 1);
  QueryEngine engine(cache);
  Query q;
  q.kind = QueryKind::kAttrInfer;
  q.time = 98.0;
  q.k = 2;
  // Find a user with predictions and check the cap.
  for (NodeId u = 0; u < net.social_node_count(); ++u) {
    q.user = u;
    const auto result = engine.run_single(q);
    if (result.ok && !result.predictions.empty()) {
      EXPECT_LE(result.predictions.size(), 2u);
      return;
    }
  }
  FAIL() << "no user produced attribute predictions";
}

}  // namespace
