// ShardedLiveTimeline: the multi-writer ingest frontier. LiveTimeline
// (san/live_timeline.hpp) serializes every writer on one mutex and owns
// one monolithic log + index; here the SOCIAL frontier is partitioned
// into S shards by source-node-id range, each with its own log, columnar
// SanTimeline index, Materializer delta state, and mutex — batches routed
// to different shards absorb and advance fully in parallel, with no
// global writer lock on the hot path.
//
// Partition (the id-range rule): node ids are split into fixed-width
// blocks of kShardBlock consecutive ids, striped round-robin across
// shards — owner(u) = (u / kShardBlock) % S. A directed link u->v lands
// in owner(u)'s shard (so both copies of a duplicate pair resolve inside
// one shard log, in one deterministic application order); v may live
// anywhere. Every shard carries the FULL social-join column (joins fan
// out to per-shard inboxes at admission), so shard-local snapshots agree
// on the node-id space and cross-shard endpoints are ordinary ids.
//
// Split state:
//   - per shard: joins + owned social links only. The shard's work
//     snapshot therefore holds exactly the owned rows of the social CSR.
//   - meta (one mutex, held only for admission and stitching): the
//     attribute layer — every join, attribute node, and admitted
//     attribute link in one SocialAttributeNetwork + SanTimeline +
//     Materializer. members_of order is the one log-order-sensitive
//     observable, and keeping the whole attribute column behind the meta
//     admission order preserves it exactly. Links naming ids that do not
//     exist yet are held at the meta level and routed once both
//     endpoints exist (the PR 4/5 deferral machinery then handles
//     time-based activation inside each shard / the attribute timeline).
//
// ingest(batch) = Phase A (meta admission: validate, admit joins to
// every inbox, admit attribute events, route social links by owner) then
// Phase B (apply each routed group under that shard's mutex only). Lock
// order is meta -> inbox, shard -> inbox, and meta -> shards-ascending;
// no path takes meta while holding a shard, so the hierarchy is acyclic.
//
// Epoch clock: one global frontier (max ingested tip). publish() stitches
// the per-shard work snapshots and the attribute work snapshot into a
// single immutable epoch at the frontier time T — all shard mutexes are
// taken (ascending) so every shard is advanced to exactly T, the owned
// out-rows are concatenated by prefix-sum, the in-rows are S-way merged
// (per-shard in-lists are ascending over disjoint owned source sets), and
// the attribute side is copied from the meta work snapshot. The result is
// swapped into the same std::atomic<shared_ptr<const SanSnapshot>>
// readers load — tip() stays one lock-free atomic load, and a held epoch
// is immutable forever. Writers stall during a stitch; readers never do.
//
// Determinism contract (the PR's oracle gate, absolute): every stitched
// epoch is bit-identical — full adjacency spans, members_of order,
// dropped counts, float metrics — to a single-shard
//   SanTimeline(merged_log()).snapshot_at(T)
// rebuild of the merged log, at any SAN_THREADS count and any shard
// count. Social CSR content is order-insensitive (out ascending by
// target, in ascending by source) so the shard concatenation order of
// the social log never shows; the attribute column keeps global meta
// admission order; per-pair duplicate resolution is per-shard-local.
//
// Tip rule: batch.tip must be finite and strictly after the last
// PUBLISHED epoch time (with batches_per_epoch == 1 this degenerates to
// LiveTimeline's strictly-advancing tip). Between publishes, concurrent
// writers may interleave tips freely; the frontier is their running max.
//
// Batch atomicity is per shard: when a publish races an in-flight
// ingest, a batch spanning several shards may land half in one epoch and
// half in the next (each half applied atomically under its shard's
// mutex). Every epoch is still a self-consistent stitch of the logs as
// they stood at that stitch — single-driver flows (the CLI, the bench
// legs) never observe a torn batch.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "san/live_timeline.hpp"
#include "san/san.hpp"
#include "san/timeline.hpp"

namespace san {

struct ShardedLiveTimelineOptions {
  /// Number of ingest shards (>= 1). 1 keeps the sharded machinery but a
  /// single owner — useful as the equivalence baseline.
  std::size_t shards = 1;
  /// Publish cadence, as LiveTimelineOptions::batches_per_epoch.
  std::size_t batches_per_epoch = 1;
  /// Tip of the seed epoch; NaN derives it from the seed's max event time.
  double initial_tip = std::numeric_limits<double>::quiet_NaN();
};

class ShardedLiveTimeline : public LiveTipSource {
 public:
  /// Width of the id blocks striped across shards. Small enough that even
  /// tiny test networks span every shard.
  static constexpr std::size_t kShardBlock = 8;

  using Stats = LiveTimeline::Stats;

  /// Starts with `seed` fully ingested and epoch 0 (the seed's complete
  /// stitched snapshot) published, so tip() never returns null.
  explicit ShardedLiveTimeline(
      const SocialAttributeNetwork& seed = SocialAttributeNetwork{},
      ShardedLiveTimelineOptions options = ShardedLiveTimelineOptions{});
  ShardedLiveTimeline(const ShardedLiveTimeline&) = delete;
  ShardedLiveTimeline& operator=(const ShardedLiveTimeline&) = delete;
  ~ShardedLiveTimeline() override;

  /// Ingest one batch: meta admission, then per-shard application (only
  /// the owning shards' mutexes are taken). Returns the global frontier.
  /// Throws std::invalid_argument on a tip that is not finite or not strictly
  /// after the last published epoch, NaN times, or out-of-order joins —
  /// nothing is admitted on throw.
  double ingest(const IngestBatch& batch);

  /// Stitch and publish the current frontier as a new epoch (no-op when
  /// nothing changed since the last stitch).
  void publish();

  /// The latest stitched epoch: one atomic load, lock-free for readers.
  std::shared_ptr<const SanSnapshot> tip() const override;

  double tip_time() const { return tip()->time; }

  /// Published epoch counter (0 = the seed epoch).
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Aggregated stats. `late_batches` counts shard applications (and
  /// attribute-side publishes) that looked back past an already-applied
  /// time and forced a full shard rebuild; `activated_links` counts held
  /// links routed once their endpoints appeared (a duplicate among them is
  /// also counted rejected at its shard).
  Stats stats() const;

  /// Attach this frontier's ingest telemetry to `registry` under `prefix`,
  /// mirroring LiveTimeline::register_metrics where the phases correspond:
  /// `<prefix>.apply_shard` (per-shard absorb+advance under that shard's
  /// mutex), `<prefix>.stitch` (S-way epoch assembly), and the shared
  /// `<prefix>.ingest_to_publish` / `<prefix>.epoch_gap` latencies plus
  /// the Stats fn gauges — so CLI consumers read the same key schema
  /// whichever frontier backs the live path.
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

  std::size_t shard_count() const { return shards_.size(); }

  /// The shard that owns links sourced at `u` (the id-range rule).
  std::size_t owner_of(NodeId u) const {
    return (u / kShardBlock) % shards_.size();
  }

  /// The merged log: every admitted event of every shard plus the
  /// attribute layer, reassembled into one SocialAttributeNetwork — the
  /// log the determinism contract is stated against. Quiesced access
  /// only (no concurrent ingest/publish).
  SocialAttributeNetwork merged_log() const;

 private:
  struct Shard;

  void apply_shard(Shard& shard, std::span<const TimedSocialEdge> links,
                   double tip);
  void drain_inbox_locked(Shard& shard);
  void stitch_and_publish_locked();

  mutable std::mutex meta_mutex_;  // admission + attribute layer + stitch
  // Attribute layer: all joins + attribute nodes + admitted attribute
  // links, no social links. Its SanTimeline reproduces the oracle's
  // attribute columns exactly (same admission order).
  SocialAttributeNetwork attr_net_;
  std::unique_ptr<SanTimeline> attr_timeline_;
  std::unique_ptr<SanTimeline::Materializer> attr_mat_;
  SanSnapshot attr_work_;
  bool attr_late_ = false;  // attribute events at/below the published time
  double frontier_ = 0.0;   // max ingested tip (>= published_time_)
  double published_time_ = 0.0;
  std::size_t batches_since_publish_ = 0;
  ShardedLiveTimelineOptions options_;
  Stats stats_;  // meta-side counters; shard counters live in each shard
  // Ingest telemetry (obs/metrics.hpp). The tracking timestamps are
  // guarded by meta_mutex_; apply_ns_ records under shard mutexes (its
  // per-thread rows make that contention-free).
  std::shared_ptr<obs::Histogram> apply_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> stitch_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> ingest_to_publish_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> epoch_gap_ns_ =
      std::make_shared<obs::Histogram>();
  std::uint64_t pending_since_ns_ = 0;  // first unpublished batch admission
  std::uint64_t last_publish_ns_ = 0;
  // Held links whose endpoint id does not exist anywhere yet, admission
  // order.
  std::vector<TimedSocialEdge> pending_social_;
  std::vector<TimedAttributeLink> pending_attr_;
  std::vector<double> joins_scratch_;

  std::vector<std::unique_ptr<Shard>> shards_;

  // Mutation counter (Phase A admissions and Phase B applications) so
  // publish() can skip the stitch when nothing changed since the last one.
  std::atomic<std::uint64_t> version_{0};
  std::uint64_t stitched_version_ = 0;

  // Stitch scratch: prefix-sum offsets + target arrays, ping-ponged with
  // the epoch buffers by adopt_sorted_adjacency's swap.
  std::vector<std::uint64_t> stitch_out_off_, stitch_in_off_;
  std::vector<NodeId> stitch_out_tgt_, stitch_in_tgt_;

  // Epoch buffers, recycled exactly like LiveTimeline's pool.
  std::vector<std::shared_ptr<SanSnapshot>> pool_;
  std::atomic<std::shared_ptr<const SanSnapshot>> published_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace san
