// Compressed-sparse-row snapshot of a directed graph. All metric code
// operates on this form: adjacency is sorted (binary-searchable) and an
// undirected neighbor view (the paper's Γs(u)) is precomputed.
//
// Layout: node u's out list lives at [out_start_[u], +out_len_[u]) inside a
// reserved region of out_cap_[u] slots in out_targets_ (in and neighbor
// views mirror this). A DENSE build packs the regions (cap == len); a
// SLACK build (graph/slack.hpp) reserves amortized-doubling headroom per
// node so whole days of links can be appended in place — the delta-sweep
// fast path of san/timeline.hpp. When one node outgrows its region,
// `append_sorted_links` RELOCATES just that node's list to the array tail
// with doubled capacity (the old region becomes tracked waste) instead of
// rebuilding the world; only when accumulated waste would exceed the live
// entries does it refuse, and the caller compacts with a full rebuild.
// Readers never see any of this: every accessor is bounded by the length
// arrays.
//
// Build paths:
//   - `from_edges` canonicalizes an arbitrary edge list (comparison sort +
//     dedup);
//   - `from_sorted_edges` / `rebuild_from_sorted_edges` accept edges sorted
//     by (src, dst) and build all three adjacency views in O(edges + nodes)
//     with no comparison sort;
//   - `adopt_adjacency` takes over externally built length/target arrays
//     by move (the SanTimeline link-index filter, packed or slack, and the
//     apps/projection.cpp topology);
//   - `append_sorted_links` merges a sorted batch of new edges into the
//     per-node regions. It finds the touched nodes from the batch alone,
//     merges each one's new out, in and neighbor entries into its lists in
//     parallel, and never walks the id space.
//
// The undirected neighbor merge runs chunked on the src/core/ substrate
// (per-node disjoint writes, byte-identical at any thread count).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/slack.hpp"

namespace san::graph {

class CsrGraph {
 public:
  CsrGraph() = default;

  static CsrGraph from_digraph(const Digraph& g);
  /// Build from an explicit edge list over nodes [0, node_count). Duplicate
  /// edges and self-loops are dropped.
  static CsrGraph from_edges(std::size_t node_count,
                             std::span<const std::pair<NodeId, NodeId>> edges);
  /// Fast path: edges must already be sorted by (src, dst). Duplicates and
  /// self-loops are still dropped (single linear pass); an unsorted input
  /// throws std::invalid_argument.
  static CsrGraph from_sorted_edges(
      std::size_t node_count, std::span<const std::pair<NodeId, NodeId>> edges);

  /// Structure-of-arrays variant of from_sorted_edges that rebuilds in
  /// place. `with_slack` builds the append-friendly layout
  /// (graph/slack.hpp) instead of packing the regions densely.
  void rebuild_from_sorted_edges(std::size_t node_count,
                                 std::span<const NodeId> srcs,
                                 std::span<const NodeId> dsts,
                                 bool with_slack = false);

  /// Expert fast path (SanTimeline): adopt externally built out/in
  /// adjacency. The length and target vectors are taken by value (move
  /// them in); the offset vectors are only read. Offsets are monotone
  /// per-node storage starts over node_count+1 entries (dense prefix sums
  /// or a slack layout with offsets[u+1] - offsets[u] slots reserved for
  /// u); lengths give the live entries per node and each live per-node
  /// target range must be sorted, unique, and loop-free. Cheap shape
  /// invariants are always checked, full sortedness only in debug builds;
  /// a rejected call throws std::invalid_argument and leaves the graph
  /// unchanged. The undirected neighbor view is rebuilt here (chunked on
  /// the core substrate).
  void adopt_adjacency(std::size_t node_count,
                       std::span<const std::uint64_t> out_offsets,
                       std::vector<std::uint32_t> out_len,
                       std::vector<NodeId> out_targets,
                       std::span<const std::uint64_t> in_offsets,
                       std::vector<std::uint32_t> in_len,
                       std::vector<NodeId> in_targets);

  /// Append a batch of new edges in place — the delta-sweep fast path. The
  /// batch must be sorted by (src, dst), free of self loops, and disjoint
  /// from both itself and the edges already present (the SAN link log
  /// guarantees uniqueness at insert time); ids must be < new_node_count
  /// >= node_count(). Nodes in [node_count(), new_node_count) are appended
  /// with fresh slack; an existing node whose region overflows is
  /// relocated to the tail with amortized-doubling capacity. Returns false
  /// — leaving the graph UNCHANGED — only when the relocation waste would
  /// exceed the live entries; the caller then compacts with a full
  /// (re-slacked) rebuild. Cost: O(m log m + joining nodes) to find and
  /// count the touched nodes, plus one merge per touched list; a node that
  /// keeps its regions merges only the neighbors it lacks into its
  /// neighbor view. Counting is serial and the per-node merges write
  /// disjoint ranges, so results are byte-identical at any SAN_THREADS
  /// count.
  bool append_sorted_links(std::size_t new_node_count,
                           std::span<const NodeId> srcs,
                           std::span<const NodeId> dsts);

  std::size_t node_count() const { return node_count_; }
  std::uint64_t edge_count() const { return edge_count_; }

  std::span<const NodeId> out(NodeId u) const;
  std::span<const NodeId> in(NodeId u) const;
  /// Undirected neighbor view: sorted union of in- and out-neighbors.
  std::span<const NodeId> neighbors(NodeId u) const;

  std::size_t out_degree(NodeId u) const { return out(u).size(); }
  std::size_t in_degree(NodeId u) const { return in(u).size(); }
  std::size_t degree(NodeId u) const { return neighbors(u).size(); }

  bool has_edge(NodeId u, NodeId v) const;
  /// The paper's F mapping for directed graphs: 0 if v,w unconnected, 1 if
  /// linked one way, 2 if reciprocally linked (Appendix A).
  int link_count(NodeId v, NodeId w) const;

 private:
  static CsrGraph build(std::size_t node_count,
                        std::vector<std::pair<NodeId, NodeId>> edges);

  /// Reset start/cap/len bookkeeping from monotone offsets (build paths).
  void adopt_layout(std::size_t node_count,
                    std::span<const std::uint64_t> out_offsets,
                    std::span<const std::uint64_t> in_offsets);
  /// Recompute nbr_len_/nbr_targets_ for every node.
  void build_neighbor_view();
  /// Rebuild the neighbor union of one node into its (fixed) region.
  void rebuild_neighbors_of(std::size_t u);

  std::size_t node_count_ = 0;
  std::uint64_t edge_count_ = 0;
  // Per-node regions: start slot, reserved capacity, live length. Starts
  // are monotone after a build but relocation moves individual regions to
  // the tail, so only (start, cap, len) is authoritative.
  std::vector<std::uint64_t> out_start_, in_start_, nbr_start_;
  std::vector<std::uint32_t> out_cap_, in_cap_, nbr_cap_;
  std::vector<std::uint32_t> out_len_, in_len_, nbr_len_;
  std::vector<NodeId> out_targets_, in_targets_, nbr_targets_;
  // Dead slots stranded by relocations; a full rebuild resets them.
  std::uint64_t out_waste_ = 0, in_waste_ = 0, nbr_waste_ = 0;

  // append_sorted_links scratch, kept so steady-state appends recycle
  // capacity. slot_ grows only for joining nodes and holds kNoSlot outside
  // a call (graph/slack.hpp); the rest is sized by the batch.
  std::vector<std::uint32_t> slot_;
  std::vector<NodeId> touched_;       // first-touch order
  std::vector<SideDelta> out_delta_, in_delta_;  // per touched node
  std::vector<NodeId> delta_in_src_;  // new in runs, by touched node
  std::vector<NodeId> delta_nbr_;     // new neighbors, by touched node
};

}  // namespace san::graph
