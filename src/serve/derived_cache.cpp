#include "serve/derived_cache.hpp"

#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/thread_pool.hpp"

namespace san::serve {

DerivedCache::DerivedCache(std::size_t capacity) : days_{capacity} {
  if (capacity == 0) {
    throw std::invalid_argument("DerivedCache: capacity must be >= 1");
  }
}

template <typename T, typename Build>
std::shared_ptr<const T> DerivedCache::resolve(
    std::shared_future<std::shared_ptr<const T>> Cell::* slot,
    const Handle& snap, Build&& build) {
  using Ptr = std::shared_ptr<const T>;
  const std::uint64_t key = snap->generation;
  Lru& lru = lru_for(*snap);
  std::optional<std::promise<Ptr>> promise;
  std::shared_future<Ptr> shared;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = lru.index.find(key);
    if (it == lru.index.end()) {
      if (lru.cells.size() >= lru.capacity) {
        lru.index.erase(lru.cells.back().generation);
        lru.cells.pop_back();
      }
      lru.cells.push_front(Cell{key, {}, {}, {}});
      it = lru.index.emplace(key, lru.cells.begin()).first;
    } else {
      lru.cells.splice(lru.cells.begin(), lru.cells, it->second);  // to MRU
    }
    auto& future = (*it->second).*slot;
    if (future.valid()) {
      hits_->add();
      shared = future;
    } else {
      misses_->add();
      promise.emplace();
      future = std::shared_future<Ptr>(promise->get_future());
    }
  }
  if (shared.valid()) {
    if (!core::in_parallel_region() ||
        shared.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
      return shared.get();
    }
    // A pool lane must not block on a foreign in-flight build — the
    // builder may be queued behind this very job. Build a private
    // unregistered copy; the determinism contract makes it identical.
    return build();
  }
  // Miss: build OUTSIDE the mutex so distinct snapshots (and distinct
  // kinds of one snapshot) build concurrently.
  Ptr value;
  try {
    value = build();
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Reset the slot so a later request can retry.
      if (const auto it = lru.index.find(key); it != lru.index.end()) {
        (*it->second).*slot = {};
      }
    }
    promise->set_exception(std::current_exception());
    throw;
  }
  promise->set_value(value);
  return value;
}

std::shared_ptr<const apps::SybilLimit> DerivedCache::sybil(
    const Handle& snap, const apps::SybilLimitOptions& options) {
  return resolve<apps::SybilLimit>(&Cell::sybil, snap, [&] {
    obs::ScopedTimer timer(sybil_build_ns_.get());
    return std::make_shared<const apps::SybilLimit>(snap->social, options);
  });
}

std::shared_ptr<const CommunityState> DerivedCache::community(
    const Handle& snap, const apps::CommunityOptions& options) {
  return resolve<CommunityState>(&Cell::community, snap, [&] {
    obs::ScopedTimer timer(community_build_ns_.get());
    auto state = std::make_shared<CommunityState>();
    state->result = apps::detect_communities(*snap, options);
    state->size.assign(state->result.community_count, 0);
    for (const std::uint32_t label : state->result.label) {
      ++state->size[label];
    }
    return std::shared_ptr<const CommunityState>(std::move(state));
  });
}

std::shared_ptr<const InfluenceState> DerivedCache::influence(
    const Handle& snap) {
  return resolve<InfluenceState>(&Cell::influence, snap, [&] {
    obs::ScopedTimer timer(influence_build_ns_.get());
    auto state = std::make_shared<InfluenceState>();
    state->first_pick = apps::best_first_pick(snap->social);
    return std::shared_ptr<const InfluenceState>(std::move(state));
  });
}

void DerivedCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Lru* lru : {&days_, &tips_}) {
    lru->cells.clear();
    lru->index.clear();
  }
}

std::size_t DerivedCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return days_.cells.size() + tips_.cells.size();
}

void DerivedCache::reset_stats() {
  hits_->reset();
  misses_->reset();
  sybil_build_ns_->reset();
  community_build_ns_->reset();
  influence_build_ns_->reset();
}

void DerivedCache::register_metrics(obs::Registry& registry,
                                    const std::string& prefix) const {
  registry.attach_counter(prefix + ".derived_hits", hits_);
  registry.attach_counter(prefix + ".derived_misses", misses_);
  registry.attach_histogram(prefix + ".derived_build.sybil", sybil_build_ns_);
  registry.attach_histogram(prefix + ".derived_build.community",
                            community_build_ns_);
  registry.attach_histogram(prefix + ".derived_build.influence",
                            influence_build_ns_);
}

}  // namespace san::serve
