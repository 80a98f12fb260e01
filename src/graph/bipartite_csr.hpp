// CSR form of a bipartite user<->attribute link set, the storage behind
// SanSnapshot's attribute layer. Both sides are offset/length/target
// arrays:
//
//   left  (social node u):  attrs_of(u)   — attribute ids, sorted ascending,
//                                           so set intersections are merges;
//   right (attribute a):    members_of(a) — social nodes in input (time)
//                                           order, matching the append order
//                                           of the source attribute log.
//
// Build cost is O(links + left_count + right_count) with serial counting
// sorts — no comparison sort — so the arrays are byte-identical at any
// SAN_THREADS.
//
// A `with_slack` build reserves amortized-doubling headroom per node
// (graph/slack.hpp) so `append_links` can absorb whole days of new links
// in place — the delta-sweep fast path. An append finds the users and
// attributes it touches from the batch alone and never walks either id
// space. A node that outgrows its region is RELOCATED to the array tail
// with doubled capacity (the old region becomes tracked waste); only when
// accumulated waste would exceed the live links does append refuse and
// the caller compacts with a full rebuild.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/slack.hpp"

namespace san::graph {

using AttrId = std::uint32_t;

class BipartiteCsr {
 public:
  BipartiteCsr() = default;

  /// Build from (user, attr) pairs given as parallel arrays in input order.
  /// Pairs must reference users < left_count and attrs < right_count and be
  /// unique; order is arbitrary but determines members_of ordering.
  static BipartiteCsr from_links(std::size_t left_count,
                                 std::size_t right_count,
                                 std::span<const NodeId> users,
                                 std::span<const AttrId> attrs);

  /// Same as from_links but rebuilds in place (the full-rebuild fallback
  /// of the delta sweep). `with_slack` builds the append-friendly layout
  /// (graph/slack.hpp).
  void rebuild_from_links(std::size_t left_count, std::size_t right_count,
                          std::span<const NodeId> users,
                          std::span<const AttrId> attrs,
                          bool with_slack = false);

  /// Append a batch of new links in place — the delta-sweep fast path. The
  /// batch is given in input (time) order and must sort AFTER every link
  /// already present (members_of stays in global time order only if later
  /// batches hold later links); pairs must be unique against the existing
  /// links. Users may reference the joining range
  /// [left_count(), new_left_count), attrs the joining range
  /// [right_count(), new_right_count) — live ingestion grows the attribute
  /// id space, and a joining right node gets a fresh slack region just
  /// like a joining left node. Nodes whose region overflows are relocated
  /// with amortized-doubling capacity; append returns false — leaving the
  /// structure UNCHANGED — only when the relocation waste would exceed the
  /// live links, and the caller then compacts with a full rebuild.
  /// Cost: O(m log m + joining nodes) to find and count the touched nodes,
  /// plus one append or merge per touched list. Counting is serial and
  /// per-node merges write disjoint ranges, so results are byte-identical
  /// at any SAN_THREADS count.
  bool append_links(std::size_t new_left_count, std::size_t new_right_count,
                    std::span<const NodeId> users,
                    std::span<const AttrId> attrs);

  std::size_t left_count() const { return left_count_; }
  std::size_t right_count() const { return right_count_; }
  std::uint64_t link_count() const { return link_count_; }

  /// Γa(u): attribute ids of social node u, sorted ascending.
  std::span<const AttrId> attrs_of(NodeId u) const;
  /// Γs(a): social nodes declaring attribute a, in input order.
  std::span<const NodeId> members_of(AttrId a) const;

  std::size_t attr_degree(NodeId u) const { return attrs_of(u).size(); }
  std::size_t member_count(AttrId a) const { return members_of(a).size(); }

  /// Right nodes with at least one member.
  std::size_t populated_right_count() const;

  /// a(u, v): the number of attributes u and v share (merge of two sorted
  /// spans).
  std::size_t common_attrs(NodeId u, NodeId v) const;

 private:
  std::size_t left_count_ = 0;
  std::size_t right_count_ = 0;
  std::uint64_t link_count_ = 0;
  // Per-node regions: start slot, reserved capacity, live length. Starts
  // are monotone after a build but relocation moves individual regions to
  // the tail, so only (start, cap, len) is authoritative.
  std::vector<std::uint64_t> left_start_, right_start_;
  std::vector<std::uint32_t> left_cap_, right_cap_;
  std::vector<std::uint32_t> left_len_, right_len_;
  std::vector<AttrId> left_targets_;
  std::vector<NodeId> right_targets_;
  // Dead slots stranded by relocations; a full rebuild resets them.
  std::uint64_t left_waste_ = 0, right_waste_ = 0;
  // append_links scratch, kept so steady-state appends recycle capacity.
  // The slot arrays grow only for joining nodes and hold kNoSlot outside a
  // call (graph/slack.hpp); the rest is sized by the batch.
  std::vector<std::uint32_t> left_slot_, right_slot_;
  std::vector<NodeId> touched_left_;    // first-touch order
  std::vector<AttrId> touched_right_;   // ascending
  std::vector<SideDelta> left_delta_, right_delta_;  // per touched node
  std::vector<NodeId> delta_right_users_;  // new members, by touched attr
  std::vector<AttrId> delta_left_attrs_;   // new attrs, by touched user
};

}  // namespace san::graph
