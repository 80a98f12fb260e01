// SanTimeline: temporal index over a SocialAttributeNetwork that makes the
// daily snapshot sweep — the paper's 79 crawls replayed as snapshot_at(t)
// for t = 1..79 — the fast path.
//
// Cost model:
//   - construction: both link logs are stably time-sorted ONCE into
//     columnar arrays (O(E log E) total, the only comparison sort);
//   - the link index: the out- and in-CSR of the whole social log, each
//     entry tagged with its link's position in the time-sorted log. Built
//     serially on the first social build, once — O(links + nodes), no
//     comparison sort — and dropped by absorb(), so a growing timeline
//     rebuilds it lazily on its next full build;
//   - snapshot_at(t): a sequential filter over the link index. The
//     snapshot keeps exactly the entries whose position is inside the
//     <= t prefix and whose neighbour has joined by t, in index order: one
//     chunk-parallel count pass, a serial prefix sum and one
//     chunk-parallel copy pass, O(index entries of the nodes joined by t);
//   - advance(snapshot, t'): build the snapshot at t' FROM its state at
//     t <= t' by appending only the (t, t'] log slice into per-node
//     adjacency slack (graph/slack.hpp). That costs O(m log m + joining
//     nodes + still-dropped links) for m new links, plus one merge per
//     touched list, with no pass over the id space. It falls back to a
//     full rebuild when slack is exhausted or a previously dropped link
//     activates. That rebuild is the same filter into fresh arrays, laid
//     out with slack headroom per node, plus one serial O(prefix) sweep
//     collecting the dropped links when any were dropped;
//   - sweep(times, visit): advance one snapshot through the grid, so a
//     whole replay costs O(total links) amortized instead of O(sum of
//     prefixes). The appends reuse the snapshot's own scratch; only the
//     rare full rebuilds allocate.
//
// Results are bit-identical to the naive san::snapshot_at at every time and
// at any SAN_THREADS count: the stable time order fixes members_of
// ordering, the index keeps each node's neighbours sorted so the filtered
// lists come out sorted, and the per-node phases write disjoint ranges
// (see core/parallel.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "san/snapshot.hpp"

namespace san {

class SanTimeline {
 private:
  struct Scratch;
  struct LinkIndex;

 public:
  explicit SanTimeline(const SocialAttributeNetwork& network);
  SanTimeline(const SanTimeline&) = delete;
  SanTimeline& operator=(const SanTimeline&) = delete;
  ~SanTimeline();

  /// Delta-sweep state: one Materializer + one SanSnapshot advance a
  /// snapshot day to day (sweep() holds one, LiveTimeline one per epoch
  /// buffer). It keeps only the log prefixes and dropped links of its last
  /// output; the snapshot's arrays are the only copy. Not thread-safe; the
  /// timeline it borrows must outlive it.
  class Materializer {
   public:
    explicit Materializer(const SanTimeline& timeline);
    Materializer(const Materializer&) = delete;
    Materializer& operator=(const Materializer&) = delete;
    ~Materializer();

    /// Delta path: bring `snap` to `time` by appending only the links that
    /// arrived since this Materializer last produced it. Falls back to a
    /// full (slack-layout) rebuild when `snap` lacks the generation this
    /// Materializer last stamped, `time` regresses, per-node slack is
    /// exhausted, or a previously dropped link activates (its endpoint
    /// joined, which belongs mid-list in members_of time order). Either
    /// way the result is bit-identical to snapshot_at(time). A full
    /// rebuild filters the link index (built first if absorb() dropped
    /// it), so it throws std::length_error like snapshot_at.
    void advance(double time, SanSnapshot& snap);

    /// Drop the delta state so the next advance() performs a full
    /// (slack-layout) rebuild. Required after the borrowed timeline
    /// absorbs events at or before this Materializer's last-produced
    /// time — such events shift the indexed log under the recorded
    /// prefixes, which advance() cannot detect on its own (LiveTimeline
    /// calls this on every late batch).
    void invalidate();

   private:
    const SanTimeline* timeline_;
    std::unique_ptr<Scratch> scratch_;
  };

  std::size_t social_node_total() const { return social_node_times_.size(); }
  std::size_t attribute_node_total() const { return attr_times_.size(); }
  std::uint64_t social_link_total() const { return edge_time_.size(); }
  std::uint64_t attribute_link_total() const { return link_time_.size(); }
  /// Largest timestamp of any node or link (0.0 for an empty network).
  double max_time() const { return max_time_; }

  /// Live-ingest extension (san/live_timeline.hpp): index every event
  /// `network` gained since this timeline last saw it (construction or a
  /// previous absorb) by stable-merging the new log slices into the
  /// columnar time-sorted arrays — identical to rebuilding the timeline
  /// from `network`, at O(moved suffix + new events) instead of a full
  /// re-sort. `network` must be the same append-only network this timeline
  /// indexes. NOT thread-safe: absorbing while any other thread reads this
  /// timeline (snapshot_at, a Materializer, a SnapshotCache bound to it)
  /// is a data race — LiveTimeline keeps its growing timeline writer-only
  /// and gives historical readers a separate frozen index for exactly that
  /// reason. Absorbing events at or before a Materializer's last-produced
  /// time additionally requires invalidating that Materializer. It also
  /// drops the link index; the next snapshot_at or full advance() rebuild
  /// builds it again.
  void absorb(const SocialAttributeNetwork& network);

  /// Dense snapshot at time t, filtered from the full-network link index
  /// (built on the first call); equivalent to san::snapshot_at(network, t).
  /// Safe to call from any number of threads while nothing absorbs: racing
  /// first calls build the index once. Throws std::length_error for a
  /// social log of more than 2^32-1 links (index positions are 32-bit).
  SanSnapshot snapshot_at(double time) const;

  /// Snapshot of the complete network (t = +infinity).
  SanSnapshot snapshot_full() const;

  /// Materialize a snapshot at each element of `times` in order and invoke
  /// visit(time, snapshot) for it. The snapshot reference is only valid
  /// during the call — its buffers are reused for the next day. Consecutive
  /// times advance incrementally (the delta path); a non-ascending grid
  /// still works but pays a full rebuild at each regression.
  void sweep(
      std::span<const double> times,
      const std::function<void(double, const SanSnapshot&)>& visit) const;

 private:
  /// Rebuild `snap` as of `time` from the link index: densely packed when
  /// `slack` is null, else in the advance-ready slack layout, recording
  /// the delta state in `*slack`.
  void materialize(double time, SanSnapshot& snap, Scratch* slack) const;
  void advance(double time, SanSnapshot& snap, Scratch& s) const;
  /// The link index, built on first use under index_mutex_.
  const LinkIndex& link_index() const;
  /// Social layer filtered from the link index into fresh arrays the
  /// snapshot adopts: packed, or (`slack` non-null) in the slack layout
  /// with the dropped links kept in slack->deferred_social. Returns the
  /// dropped count.
  std::size_t filter_social(std::size_t n_social, std::size_t edge_prefix,
                            SanSnapshot& snap, Scratch* slack) const;
  /// Attribute layer from the <= link_prefix log slice, laid out like
  /// filter_social's; returns the dropped count.
  std::size_t build_attribute_links(std::size_t n_social,
                                    std::size_t link_prefix, SanSnapshot& snap,
                                    Scratch* slack) const;

  // Columnar logs, stably sorted by time (ties keep append order).
  std::vector<double> social_node_times_;
  std::vector<NodeId> edge_src_, edge_dst_;
  std::vector<double> edge_time_;
  std::vector<NodeId> link_user_;
  std::vector<AttrId> link_attr_;
  std::vector<double> link_time_;
  std::vector<AttributeType> attr_types_;
  std::vector<double> attr_times_;
  // Attribute ids in stable creation-time order plus the matching sorted
  // times, so both materialize and advance touch exactly the attributes
  // created inside their time window.
  std::vector<AttrId> attr_order_;
  std::vector<double> attr_sorted_times_;
  double max_time_ = 0.0;

  // Lazily built link index behind every social build; absorb() drops it.
  mutable std::mutex index_mutex_;
  mutable std::unique_ptr<const LinkIndex> index_;

  // absorb() scratch, reused across batches so the live ingest hot path
  // stops allocating once the arrays reach their high-water size.
  struct AbsorbScratch {
    std::vector<std::uint64_t> perm, order;
    std::vector<double> chunk_times, time_scratch;
    std::vector<NodeId> id_scratch;
    std::vector<AttrId> attr_scratch;
  };
  AbsorbScratch absorb_;
};

}  // namespace san
