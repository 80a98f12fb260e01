// Typed side-cache of per-snapshot DERIVED serving state — the expensive
// artifacts the sybil/community/influence query kinds need beyond the raw
// snapshot: the degree-bounded SybilLimit topology, a full
// label-propagation community run, and the influence first-pick scan.
// Each is computed at most once per resolved snapshot and shared by every
// query in a batch (and across batches) that addresses the same time.
//
// Keying: by the snapshot's generation (san/snapshot.hpp) alone. Live
// tips have no stable time key, and an address can carry new content
// (a recycled live epoch buffer), but every rewrite stamps a fresh
// generation, so a stale cell is simply never looked up again.
//
// Eviction: only the cache's own LRUs. Frozen days share one of the
// constructor's capacity; a day re-materialized after its snapshot left
// the SnapshotCache is a new generation, so its old cells age out unused.
// Once bind_live() names the live horizon, tips (snapshots past it) get a
// separate two-cell LRU: each publish supersedes the tip, so only the
// newest and one a request resolved just before a publish can be asked
// for again, and one shared LRU would fill with dead epochs' cells.
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
#include <limits>
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

  /// Keep snapshots whose time is past `horizon` (live tips) in the tip
  /// LRU. Call during setup, before any concurrent request.
  void bind_live(double horizon) { live_horizon_ = horizon; }

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

  /// Drop every cell. Outstanding shared_ptrs to derived state stay valid.
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
    std::uint64_t generation = kNoGeneration;
    // Per-kind build slots: an invalid future means "never requested";
    // a valid one is the (possibly still in-flight) single build.
    std::shared_future<std::shared_ptr<const apps::SybilLimit>> sybil;
    std::shared_future<std::shared_ptr<const CommunityState>> community;
    std::shared_future<std::shared_ptr<const InfluenceState>> influence;
  };

  struct Lru {
    explicit Lru(std::size_t cells_max) : capacity(cells_max) {}
    const std::size_t capacity;
    std::list<Cell> cells;  // front = most recently used
    std::unordered_map<std::uint64_t, std::list<Cell>::iterator> index;
  };
  Lru& lru_for(const SanSnapshot& snap) {
    return snap.time > live_horizon_ ? tips_ : days_;
  }

  template <typename T, typename Build>
  std::shared_ptr<const T> resolve(
      std::shared_future<std::shared_ptr<const T>> Cell::* slot,
      const Handle& snap, Build&& build);

  std::shared_ptr<obs::Counter> hits_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Counter> misses_ = std::make_shared<obs::Counter>();
  std::shared_ptr<obs::Histogram> sybil_build_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> community_build_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> influence_build_ns_ =
      std::make_shared<obs::Histogram>();
  double live_horizon_ = std::numeric_limits<double>::infinity();
  mutable std::mutex mutex_;
  Lru days_;
  Lru tips_{2};
};

}  // namespace san::serve
