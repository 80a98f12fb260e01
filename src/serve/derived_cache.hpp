// Typed side-cache of per-snapshot DERIVED serving state — the expensive
// artifacts the sybil/community/influence query kinds need beyond the raw
// snapshot: the degree-bounded SybilLimit topology, a full
// label-propagation community run, and the influence first-pick scan.
// Each is computed at most once per resolved snapshot and shared by every
// query in a batch (and across batches) that addresses the same time.
//
// Keying: cells are keyed by snapshot IDENTITY (the SanSnapshot address),
// not by time — live-tip epochs are not LRU-cached by SnapshotCache and
// have no stable time key. Identity alone is not enough, though, because
// an address can carry DIFFERENT network states over the cache's
// lifetime, two ways:
//   * the owning snapshot died and the allocator handed the address to a
//     new one — caught by a weak_ptr owner guard (expired => drop);
//   * a live timeline RECYCLED a retired epoch buffer in place (same
//     object, same control block, grown content) — invisible to the
//     owner guard, caught by storing the snapshot's `time` in the cell:
//     published tips strictly advance, and resident non-live snapshots
//     are immutable, so `cell.time != snap->time` means the content
//     changed and the cell is dropped on the next lookup.
//
// Eviction: SnapshotCache::at erases a snapshot's cell the moment it
// evicts the snapshot (the coupling the serving layer relies on — derived
// state never outlives its snapshot's residency), and the side-cache
// additionally bounds itself with its own LRU of the same capacity so
// live-tip cells (one per published epoch) cannot accumulate.
//
// Determinism contract: every builder is a deterministic serial function
// of the immutable snapshot and the options fixed at engine construction
// (SybilLimit's projection, seeded label propagation, a max-degree scan),
// so a cell's content is byte-identical WHEREVER it is built — on a cache
// hit, a coalesced wait, or a pool lane's private unregistered copy (a
// lane inside core::in_parallel_region() must not block on a foreign
// build; it rebuilds privately, same bytes). Cells are keyed by snapshot
// only, NOT by options: every engine sharing one SnapshotCache must use
// identical DerivedOptions.
#pragma once

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/community.hpp"
#include "apps/influence_max.hpp"
#include "apps/sybil.hpp"
#include "obs/metrics.hpp"
#include "san/snapshot.hpp"

namespace san::serve {

/// Options for the derived builders, fixed per engine (and per cache —
/// see the keying note above).
struct DerivedOptions {
  apps::SybilLimitOptions sybil;
  apps::CommunityOptions community;
};

/// One snapshot's community run plus the per-label member counts the
/// `community` query renders.
struct CommunityState {
  apps::CommunityResult result;
  std::vector<std::uint64_t> size;  // members per dense community id
};

/// One snapshot's influence precomputation: the globally best first seed
/// (apps::best_first_pick), so a no-seed `influence` query never scans
/// all nodes on the serving path.
struct InfluenceState {
  graph::NodeId first_pick = apps::kNoFirstPick;
};

class DerivedCache {
 public:
  explicit DerivedCache(std::size_t capacity);

  /// The derived artifact for `snap`, built on first request. Safe from
  /// any number of threads; duplicate requests coalesce onto the first
  /// build except on a core-substrate pool lane, which builds a private
  /// copy instead of blocking (identical bytes either way).
  std::shared_ptr<const apps::SybilLimit> sybil(
      const std::shared_ptr<const SanSnapshot>& snap,
      const apps::SybilLimitOptions& options);
  std::shared_ptr<const CommunityState> community(
      const std::shared_ptr<const SanSnapshot>& snap,
      const apps::CommunityOptions& options);
  std::shared_ptr<const InfluenceState> influence(
      const std::shared_ptr<const SanSnapshot>& snap);

  /// Drop `snapshot`'s cell, if resident (the SnapshotCache eviction
  /// hook). Outstanding shared_ptrs to the derived state stay valid.
  void erase(const SanSnapshot* snapshot);
  void clear();

  std::size_t size() const;
  std::uint64_t hits() const { return hits_->value(); }
  std::uint64_t misses() const { return misses_->value(); }
  void reset_stats();

  /// Attach `<prefix>.derived_hits` / `<prefix>.derived_misses` and the
  /// per-kind build latency histograms `<prefix>.derived_build.{sybil,
  /// community,influence}` (recorded only while obs::timing_enabled(), for
  /// every build, including a pool lane's private copy).
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

 private:
  using Handle = std::shared_ptr<const SanSnapshot>;
  struct Cell {
    const SanSnapshot* key = nullptr;
    std::weak_ptr<const SanSnapshot> owner;  // address-reuse guard
    double time = 0.0;  // epoch-buffer-recycling guard (see keying note)
    // Per-kind build slots: an invalid future means "never requested";
    // a valid one is the (possibly still in-flight) single build.
    std::shared_future<std::shared_ptr<const apps::SybilLimit>> sybil;
    std::shared_future<std::shared_ptr<const CommunityState>> community;
    std::shared_future<std::shared_ptr<const InfluenceState>> influence;
  };

  template <typename T, typename Build>
  std::shared_ptr<const T> resolve(
      std::shared_future<std::shared_ptr<const T>> Cell::* slot,
      const Handle& snap, Build&& build);

  const std::size_t capacity_;
  std::shared_ptr<obs::Counter> hits_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> misses_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Histogram> sybil_build_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> community_build_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> influence_build_ns_ =
      std::make_shared<obs::Histogram>();
  mutable std::mutex mutex_;
  std::list<Cell> lru_;  // front = most recently used
  std::unordered_map<const SanSnapshot*, std::list<Cell>::iterator> index_;
};

}  // namespace san::serve
