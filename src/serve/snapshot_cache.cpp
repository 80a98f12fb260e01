#include "serve/snapshot_cache.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/thread_pool.hpp"
#include "obs/trace.hpp"
#include "san/live_timeline.hpp"

namespace san::serve {

SnapshotCache::SnapshotCache(const SanTimeline& timeline, std::size_t capacity)
    : timeline_(timeline),
      capacity_(capacity),
      derived_(std::max<std::size_t>(capacity, 1)) {
  if (capacity == 0) {
    throw std::invalid_argument("SnapshotCache: capacity must be >= 1");
  }
}

std::shared_ptr<const SanSnapshot> SnapshotCache::at(double time) {
  if (std::isnan(time)) {
    // NaN != NaN would defeat both the index lookup and eviction's erase,
    // leaking one stale index entry per call. The workload parser already
    // rejects NaN; guard the programmatic path too.
    throw std::invalid_argument("SnapshotCache: time must not be NaN");
  }
  if (live_ != nullptr && time > live_horizon_) {
    // Past the frozen horizon the exact per-day history does not exist —
    // it is being written right now. Resolve against the latest published
    // ingest epoch: one atomic load, never the cache mutex, never a
    // materialization, so queries cannot block on ingest.
    live_hits_->add();
    return live_->tip();
  }

  std::shared_future<Handle> wait_on;
  std::optional<std::promise<Handle>> promise;
  std::function<void(double)> hook;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(time); it != index_.end()) {
      hits_->add();
      lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
      return it->second->snapshot;
    }
    if (const auto it = inflight_.find(time); it != inflight_.end()) {
      coalesced_->add();
      if (!core::in_parallel_region()) {
        // Another thread is already building this exact time: wait on ITS
        // future (outside the lock) instead of duplicating the work.
        wait_on = it->second;
      }
      // From inside a pool job, waiting could deadlock: the foreign
      // builder may be queued behind THIS job's lock while this lane
      // blocks the job from finishing. Build an unregistered duplicate
      // instead (the registered builder still owns the cache insert).
    } else {
      misses_->add();
      promise.emplace();
      inflight_.emplace(time,
                        std::shared_future<Handle>(promise->get_future()));
      peak_inflight_->update_max(static_cast<std::int64_t>(inflight_.size()));
      hook = miss_hook_;
    }
  }
  if (wait_on.valid()) return wait_on.get();

  // Cold miss (or in-region duplicate): materialize WITHOUT the lock, so
  // distinct cold times build concurrently. Duplicate requests block on
  // the future registered above, never on the mutex.
  Handle handle;
  try {
    if (hook) hook(time);
    obs::TraceSpan span("cache.materialize");
    obs::ScopedTimer timer(materialize_ns_.get());
    handle = std::make_shared<const SanSnapshot>(timeline_.snapshot_at(time));
  } catch (...) {
    if (promise) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        inflight_.erase(time);
      }
      promise->set_exception(std::current_exception());
    }
    throw;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!promise) return handle;  // unregistered duplicate: no insert
    if (lru_.size() >= capacity_) {
      evictions_->add();
      index_.erase(lru_.back().time);
      lru_.pop_back();
    }
    lru_.push_front(Entry{time, handle});
    index_.emplace(time, lru_.begin());
    inflight_.erase(time);
  }
  promise->set_value(handle);
  return handle;
}

std::size_t SnapshotCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

SnapshotCache::Stats SnapshotCache::stats() const {
  Stats out;
  out.hits = hits_->value();
  out.misses = misses_->value();
  out.coalesced = coalesced_->value();
  out.evictions = evictions_->value();
  out.peak_inflight = static_cast<std::uint64_t>(peak_inflight_->value());
  out.live_hits = live_hits_->value();
  out.derived_hits = derived_.hits();
  out.derived_misses = derived_.misses();
  return out;
}

void SnapshotCache::reset_stats() {
  hits_->reset();
  misses_->reset();
  coalesced_->reset();
  evictions_->reset();
  live_hits_->reset();
  peak_inflight_->reset();
  materialize_ns_->reset();
  derived_.reset_stats();
}

void SnapshotCache::clear() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
  }
  derived_.clear();
  reset_stats();
}

void SnapshotCache::register_metrics(obs::Registry& registry,
                                     const std::string& prefix) const {
  registry.attach_counter(prefix + ".hits", hits_);
  registry.attach_counter(prefix + ".misses", misses_);
  registry.attach_counter(prefix + ".coalesced", coalesced_);
  registry.attach_counter(prefix + ".evictions", evictions_);
  registry.attach_counter(prefix + ".live_hits", live_hits_);
  registry.attach_gauge(prefix + ".peak_inflight", peak_inflight_);
  registry.attach_histogram(prefix + ".materialize", materialize_ns_);
  derived_.register_metrics(registry, prefix);
}

void SnapshotCache::bind_live(const LiveTimeline& live) {
  bind_live(live, timeline_.max_time());
}

void SnapshotCache::bind_live(const LiveTimeline& live, double horizon) {
  if (std::isnan(horizon)) {
    throw std::invalid_argument("SnapshotCache: horizon must not be NaN");
  }
  live_ = &live;
  live_horizon_ = horizon;
  derived_.bind_live(horizon);
}

void SnapshotCache::set_miss_hook(std::function<void(double)> hook) {
  std::lock_guard<std::mutex> lock(mutex_);
  miss_hook_ = std::move(hook);
}

}  // namespace san::serve
