// Snapshot extraction: project the timestamped SAN onto "everything that
// existed by day t", the unit of analysis of the paper's 79 daily crawls.
//
// The attribute layer is a graph::BipartiteCsr — apps read it through the
// span accessors attributes_of(u) (sorted ascending) and members_of(a)
// (link-time order), never through per-node vectors. The attribute id space
// always spans every attribute of the source network so ids stay aligned
// across snapshots; attribute_node_count() counts only the attributes whose
// creation time is <= t, and links that reference a not-yet-joined user or
// a not-yet-created attribute are dropped and surfaced in
// dropped_link_count instead of silently vanishing.
//
// snapshot_at() here is the naive path: it re-scans the full logs on every
// call (O(total links) regardless of t). Evolution studies that materialize
// many snapshots should build a san::SanTimeline (san/timeline.hpp) once
// and sweep it — same results, O(links <= t) per snapshot.
//
// Identity: a snapshot's `generation` is process-unique, drawn from one
// global counter at construction and whenever SanTimeline rewrites it in
// place; copies share it. State kept per snapshot elsewhere (derived
// serving state, a Materializer's delta state) is keyed by it alone. It
// is not content: byte-identity gates ignore it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/bipartite_csr.hpp"
#include "graph/csr.hpp"
#include "san/san.hpp"

namespace san {

/// A generation no snapshot carries.
inline constexpr std::uint64_t kNoGeneration = 0;
/// The next snapshot generation; thread-safe.
std::uint64_t next_snapshot_generation();

/// Immutable snapshot of a SAN at one point in time. Node ids are the same
/// dense ids as the source network (nodes join chronologically).
struct SanSnapshot {
  graph::CsrGraph social;           // social links with time <= t
  graph::BipartiteCsr attribute;    // user<->attribute links with time <= t
  std::vector<AttributeType> attribute_types;   // dense attr-id space
  std::vector<std::uint8_t> attribute_created;  // 1 iff creation time <= t
  std::uint64_t attribute_link_count = 0;
  /// Links with time <= t dropped because an endpoint did not exist yet
  /// (user joined or attribute created after t).
  std::uint64_t dropped_link_count = 0;
  std::size_t created_attribute_count = 0;
  double time = 0.0;
  std::uint64_t generation = next_snapshot_generation();

  std::size_t social_node_count() const { return social.node_count(); }
  /// Attribute nodes created by `time` (see attribute_id_count for the
  /// id-space size).
  std::size_t attribute_node_count() const { return created_attribute_count; }
  /// Size of the dense attribute id space (all attributes of the source
  /// network, so ids stay aligned across snapshots).
  std::size_t attribute_id_count() const { return attribute.right_count(); }
  std::uint64_t social_link_count() const { return social.edge_count(); }

  /// Γa(u): the attributes of social node u at this time, sorted ascending.
  std::span<const AttrId> attributes_of(NodeId u) const {
    return attribute.attrs_of(u);
  }
  /// Γs(a): the social nodes declaring attribute a, in link-time order.
  std::span<const NodeId> members_of(AttrId a) const {
    return attribute.members_of(a);
  }

  /// Attribute nodes with at least one member at this time (the crawled
  /// dataset only contains attributes that appear in some profile).
  std::size_t populated_attribute_count() const {
    return attribute.populated_right_count();
  }

  std::size_t common_attributes(NodeId u, NodeId v) const {
    return attribute.common_attrs(u, v);
  }
};

/// Snapshot at time t: social/attribute nodes with join time <= t and links
/// with timestamp <= t. Naive path — re-scans the full logs; prefer
/// SanTimeline for sweeps.
SanSnapshot snapshot_at(const SocialAttributeNetwork& network, double time);

/// Snapshot of the complete network (t = +infinity).
SanSnapshot snapshot_full(const SocialAttributeNetwork& network);

}  // namespace san
