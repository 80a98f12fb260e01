// LiveTimeline: an ingest frontier over SanTimeline — the first subsystem
// where the network is mutable at serve time. Writers feed timestamped
// link/node batches through ingest() while readers keep resolving
// snapshots; the two never share a lock:
//
//   writer (ingest, one batch at a time under a writer mutex):
//     1. append the batch to the accumulated log (a SocialAttributeNetwork,
//        the prefix every published epoch is gated against);
//     2. absorb the new events into the columnar timeline index
//        (SanTimeline::absorb — a stable suffix merge, not a re-sort);
//     3. PUBLISH: pick an epoch buffer no reader holds and bring it to the
//        batch's tip in place with its own Materializer::advance — the
//        delta-append fast path (per-node slack, relocation, deferred-link
//        activation). With no readers pinning old epochs two buffers
//        alternate, so each advance covers the events of the last two
//        batches;
//     4. atomically swap the shared_ptr readers load. Nothing is copied:
//        the advanced buffer itself becomes the epoch.
//
//   readers: tip() is one atomic shared_ptr load — no mutex, no wait on
//     any ingest or materialization. A held epoch stays valid and
//     unchanged forever (publication never mutates earlier buffers;
//     retired buffers are only advanced again once no reader references
//     them).
//
// Determinism contract: every published epoch is bit-identical — adjacency
// spans, members_of order, dropped counts — to a from-scratch
//   SanTimeline(log()).snapshot_at(tip)
// rebuild of the ingested log prefix, at any SAN_THREADS count
// (tests/test_live_timeline.cpp and bench_live_ingest gate this).
//
// Time discipline: the tip strictly advances batch to batch. Event times
// at or after the previous tip ride the delta fast path; events that LOOK
// BACK — a link timestamped at or before the already-published tip, e.g.
// one that waited for its endpoint id to exist (PR 4 activation) — are
// legal but invalidate every epoch buffer's delta state, because they
// land inside the already-applied region of the log: each buffer's next
// advance is a full (slack-layout) rebuild, which filters the timeline's
// link index — dropped by every absorb and rebuilt by the first full
// rebuild after it, so batches that only append never pay for the index.
// Links naming ids that do not exist yet are held internally and activate
// on the first batch where both endpoints exist.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "san/san.hpp"
#include "san/timeline.hpp"

namespace san {

/// One timestamped batch of new network events. Event times must not be
/// NaN; `tip` must be finite, strictly exceed the previous tip, and is
/// the time the next epoch is published at. Event times may exceed `tip`:
/// such events are indexed now and surface once the tip passes them,
/// exactly like future log entries in a SanTimeline replay.
struct IngestBatch {
  struct AttributeNode {
    AttributeType type = AttributeType::kOther;
    std::string name;
    double time = 0.0;
  };

  /// New tip time (required, strictly greater than the current tip).
  double tip = 0.0;
  /// Join times of new social nodes. Sorted on admission (stably, so ties
  /// keep batch order) and assigned consecutive ids in sorted order,
  /// starting at the log's current social_node_count(); the earliest time
  /// must not precede the last already-logged join (ids stay
  /// chronological).
  std::vector<double> social_nodes;
  /// New attribute nodes, assigned consecutive ids in batch order starting
  /// at the log's current attribute_node_count().
  std::vector<AttributeNode> attribute_nodes;
  /// New directed social links. Links naming a not-yet-existing id are
  /// held and activate when the id appears; duplicates and self-links are
  /// counted and dropped.
  std::vector<TimedSocialEdge> social_links;
  /// New user<->attribute links; same holding/dropping rules.
  std::vector<TimedAttributeLink> attribute_links;
};

struct LiveTimelineOptions {
  /// Tip of the seed epoch. NaN (the default) derives it from the seed's
  /// max event time; pass an explicit tip when the seed schedules events
  /// in the future (e.g. the full attribute catalog with later creation
  /// times) — they stay pending in the index and surface when the tip
  /// passes them.
  double initial_tip = std::numeric_limits<double>::quiet_NaN();
};

class LiveTimeline {
 public:
  struct Stats {
    std::uint64_t batches = 0;
    /// Published epochs, including the seed epoch.
    std::uint64_t epochs = 0;
    std::uint64_t ingested_nodes = 0;
    std::uint64_t ingested_attribute_nodes = 0;
    std::uint64_t ingested_links = 0;
    std::uint64_t ingested_attribute_links = 0;
    /// Links dropped: already present, or a self-link.
    std::uint64_t rejected_links = 0;
    /// Links currently held because an endpoint id does not exist yet.
    std::uint64_t pending_links = 0;
    /// Held links that activated (their endpoints appeared).
    std::uint64_t activated_links = 0;
    /// Batches that looked back past the previous tip and forced full
    /// buffer rebuilds instead of the delta append.
    std::uint64_t late_batches = 0;
    /// Epoch buffers in the recycle pool: 2 in steady state (published +
    /// one retiree), one more per old epoch a reader still holds.
    std::uint64_t epoch_buffers = 0;
  };

  /// Starts with `seed` fully ingested: the initial tip is the seed's
  /// max event time (0.0 for an empty seed) and epoch 0 — the seed's
  /// complete snapshot — is published immediately, so tip() never returns
  /// null.
  explicit LiveTimeline(const SocialAttributeNetwork& seed =
                            SocialAttributeNetwork{},
                        LiveTimelineOptions options = LiveTimelineOptions{});
  LiveTimeline(const LiveTimeline&) = delete;
  LiveTimeline& operator=(const LiveTimeline&) = delete;

  /// Ingest one batch and publish its tip (returned) as a new epoch.
  /// Serializes with other writers on an internal mutex; never blocks
  /// readers. Throws std::invalid_argument on a non-advancing or
  /// non-finite tip, NaN times, or out-of-order node joins — the log is
  /// unchanged on throw.
  double ingest(const IngestBatch& batch);

  /// The latest published epoch snapshot: one atomic load, lock-free with
  /// respect to writers. The snapshot is immutable; hold it as long as
  /// needed.
  std::shared_ptr<const SanSnapshot> tip() const;

  /// Time of the latest published epoch (== tip()->time).
  double tip_time() const { return tip()->time; }

  /// Published epoch counter (0 = the seed epoch).
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }

  Stats stats() const;

  /// Attach this frontier's ingest telemetry to `registry` under `prefix`:
  /// phase latency histograms (`<prefix>.absorb` per batch; `.advance`,
  /// the epoch buffer's in-place advance, and `.publish`, the pointer
  /// swap, per published epoch), `<prefix>.ingest_to_publish` (batch
  /// admitted -> its epoch visible to readers), `<prefix>.epoch_gap`
  /// (time between publishes), fn gauges over the Stats
  /// fields (`<prefix>.epochs`, `.batches`, `.late_batches`,
  /// `.pending_links`, `.activated_links`, `.ingested_links`,
  /// `.rejected_links`) and `<prefix>.epoch_buffers` (the recycle pool
  /// size: 2 in steady state, more while readers pin old epochs).
  /// Latencies record only while obs::timing_enabled(); attach is
  /// per-instance.
  void register_metrics(obs::Registry& registry,
                        const std::string& prefix) const;

  /// The accumulated log: seed plus every ingested event, the prefix the
  /// determinism contract is stated against. Writer-side access only —
  /// reading it while another thread ingests is a data race.
  const SocialAttributeNetwork& log() const { return log_; }

 private:
  // An epoch buffer, the Materializer that last advanced it (so the next
  // advance is a delta from that buffer's own epoch) and its idle flag:
  // false while a published handle to the buffer lives, set by the last
  // handle's deleter.
  struct EpochSlot {
    explicit EpochSlot(const SanTimeline& timeline)
        : buffer(std::make_shared<SanSnapshot>()),
          idle(std::make_shared<std::atomic<bool>>(true)),
          materializer(timeline) {}
    std::shared_ptr<SanSnapshot> buffer;
    std::shared_ptr<std::atomic<bool>> idle;
    SanTimeline::Materializer materializer;
  };

  // Publish tip_ as the next epoch; `admitted_ns` is the clock reading at
  // the batch's admission (0: none, e.g. the seed epoch).
  void publish_locked(std::uint64_t admitted_ns);
  void record_publish_latency_locked(std::uint64_t admitted_ns);

  mutable std::mutex mutex_;  // serializes writers; readers never take it
  SocialAttributeNetwork log_;
  SanTimeline timeline_;
  double tip_ = 0.0;  // ingest frontier, the published epoch's time
  Stats stats_;
  // Ingest telemetry (obs/metrics.hpp): phase latencies plus the gap
  // between publishes. The last-publish timestamp is guarded by mutex_
  // like the rest of the writer state; clock reads happen only while
  // timing is enabled.
  std::shared_ptr<obs::Histogram> absorb_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> advance_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> publish_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> ingest_to_publish_ns_ =
      std::make_shared<obs::Histogram>();
  std::shared_ptr<obs::Histogram> epoch_gap_ns_ =
      std::make_shared<obs::Histogram>();
  std::uint64_t last_publish_ns_ = 0;
  // Held links whose endpoint ids do not exist yet, in admission order.
  std::vector<TimedSocialEdge> pending_social_;
  std::vector<TimedAttributeLink> pending_attr_;
  std::vector<double> joins_scratch_;  // per-batch sort buffer, reused
  // Epoch buffers: the published one plus retired ones kept for recycling
  // (a retired buffer is reused only when no reader holds it). A deque:
  // slots hold a Materializer, which cannot move.
  std::deque<EpochSlot> slots_;
  std::atomic<std::shared_ptr<const SanSnapshot>> published_;
  std::atomic<std::uint64_t> epoch_{0};
};

}  // namespace san
