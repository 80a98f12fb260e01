// LRU cache of materialized SanSnapshots, the storage layer of the serving
// engine (serve/query_engine.hpp). A SanTimeline makes one snapshot cheap —
// a filter over its link index — but a query workload concentrated on a
// few popular days would still re-materialize the same CSR over and over.
// The cache keys snapshots by their exact query time and hands them out as
// shared_ptr<const SanSnapshot> (an evicted snapshot stays valid for every
// query still holding it).
//
// Concurrency: the mutex only guards the index — NEVER a materialization.
// A cold miss registers a per-time in-flight shared_future, releases the
// lock, and materializes on the calling thread, so DISTINCT cold times
// build concurrently while duplicate requests for one time coalesce onto
// that time's future (one materialization per time, stampede-proof). The
// one exception: a duplicate request arriving on a core-substrate pool
// lane (core::in_parallel_region()) must not block on a foreign build —
// the builder may be queued behind that very pool job — so it builds a
// private unregistered copy instead of waiting. A miss is one
// SanTimeline::snapshot_at call, which needs no per-call scratch; the first
// miss also builds the timeline's link index, serially, so a pool lane
// waiting on that build never waits on pool work.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "san/timeline.hpp"
#include "serve/derived_cache.hpp"

namespace san {
class LiveTipSource;
}

namespace san::serve {

class SnapshotCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Requests that found their time already in flight on another
    /// thread: they either waited on that build or — when arriving on a
    /// core-substrate pool lane, where waiting could deadlock — built a
    /// private unregistered copy. Either way no new cache entry resulted.
    std::uint64_t coalesced = 0;
    std::uint64_t evictions = 0;
    /// High-water mark of concurrently materializing misses — > 1 proves
    /// cold misses on distinct times overlapped instead of serializing.
    std::uint64_t peak_inflight = 0;
    /// Requests past the live horizon, resolved to the published ingest
    /// epoch with one atomic load (never through the materializing path).
    std::uint64_t live_hits = 0;
    /// Derived-state side-cache traffic (serve/derived_cache.hpp): a hit
    /// means a sybil/community/influence query reused state already built
    /// for its snapshot.
    std::uint64_t derived_hits = 0;
    std::uint64_t derived_misses = 0;
  };

  /// `capacity` >= 1 snapshots are kept resident; the timeline must outlive
  /// the cache.
  SnapshotCache(const SanTimeline& timeline, std::size_t capacity);

  /// The snapshot at exactly `time`, materialized on first use. Times are
  /// compared bit-exactly: query workloads address snapshots by a shared
  /// grid of days, not by free-form floats. Safe to call from any number of
  /// threads; a cold time materializes once however many callers race it.
  std::shared_ptr<const SanSnapshot> at(double time);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  Stats stats() const;

  /// The per-snapshot derived-state side-cache (sybil topology, community
  /// labels, influence first pick). Cells are keyed by snapshot identity
  /// and dropped the moment at() evicts their snapshot; live-tip epochs
  /// get cells too, bounded by the side-cache's own LRU (same capacity).
  DerivedCache& derived() { return derived_; }

  /// One coherent zero-point for every stat, including the lock-free
  /// live_hits path: all counters advance their obs epoch baselines in
  /// one pass (obs/metrics.hpp), replacing the old split reset that
  /// zeroed the mutex-guarded fields and the live-hit atomic separately
  /// (a stats() racing that could see one half reset and not the other).
  void reset_stats();

  /// Drop every resident snapshot (outstanding shared_ptrs stay valid) and
  /// zero the stats. In-flight materializations are not interrupted; each
  /// lands in the cleared cache when it completes. Benches use this to
  /// measure cold-start throughput.
  void clear();

  /// Attach this cache's per-instance telemetry to `registry` under
  /// `prefix`: the Stats counters plus a `<prefix>.materialize` latency
  /// histogram (cold-miss build duration, recorded only while
  /// obs::timing_enabled()). Attach-only — recording never touches the
  /// registry, and two caches registered under different prefixes stay
  /// fully independent.
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

  /// Observability/test hook, invoked on the materializing thread right
  /// before a cold miss starts building (outside the cache lock). Tests
  /// use it to hold materializations at a barrier and prove that distinct
  /// cold times overlap; pass nullptr to remove.
  void set_miss_hook(std::function<void(double)> hook);

  /// Bind a live ingest frontier: at() resolves every time PAST `horizon`
  /// — including the `now` token, which parses to +infinity — to the live
  /// timeline's latest published epoch with one atomic load, lock-free
  /// with respect to ingest. Times at or before the horizon keep
  /// resolving exactly against the frozen timeline, and nothing is ever
  /// invalidated: history is immutable, and a time past the old tip
  /// simply resolves against the newer epoch on its next request (tip
  /// snapshots are intentionally not LRU-cached — an epoch handle would
  /// go stale on the next publish). `horizon` defaults to the frozen
  /// timeline's max event time; `live` must outlive the cache. Bind
  /// DURING SETUP, before any concurrent at() calls: the binding fields
  /// are read without synchronization on the serve path, so rebinding
  /// while queries are in flight is a data race (and could route a
  /// historical time to the tip). Any LiveTipSource works — LiveTimeline
  /// and ShardedLiveTimeline both publish through the same
  /// atomic-shared_ptr tip.
  void bind_live(const LiveTipSource& live);
  void bind_live(const LiveTipSource& live, double horizon);

 private:
  struct Entry {
    double time = 0.0;
    std::shared_ptr<const SanSnapshot> snapshot;
  };
  using Handle = std::shared_ptr<const SanSnapshot>;

  const SanTimeline& timeline_;
  const std::size_t capacity_;
  const LiveTipSource* live_ = nullptr;
  double live_horizon_ = 0.0;

  // Per-instance telemetry cells (obs/metrics.hpp): lock-free per-thread
  // slots, so the live-hit fast path and stats() never need the mutex.
  // The mutex-path counters (hits/misses/...) are only ever bumped while
  // mutex_ is held, but live on the same substrate so reset_stats() is
  // one coherent epoch cut across all of them.
  std::shared_ptr<obs::Counter> hits_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> misses_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> coalesced_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> evictions_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> live_hits_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Gauge> peak_inflight_ = std::make_shared<obs::Gauge>();
  std::shared_ptr<obs::Histogram> materialize_ns_ =
      std::make_shared<obs::Histogram>();

  DerivedCache derived_;

  mutable std::mutex mutex_;
  std::unordered_map<double, std::shared_future<Handle>> inflight_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<double, std::list<Entry>::iterator> index_;
  std::function<void(double)> miss_hook_;
};

}  // namespace san::serve
