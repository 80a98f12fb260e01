// The Social-Attribute Network (SAN) of §2.1: a directed social graph over
// social nodes Vs plus M binary-attribute nodes Va, with undirected links Ea
// between social nodes and the attributes they declare.
//
// All nodes and links carry a (logical, e.g. day-granularity) timestamp so
// that evolution studies can extract per-day snapshots, exactly like the
// paper's 79 daily crawls.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace san {

using graph::NodeId;
using AttrId = std::uint32_t;

/// The four attribute types the paper extracts from Google+ profiles (§2.2),
/// plus a catch-all for other applications.
enum class AttributeType : std::uint8_t {
  kSchool = 0,
  kMajor = 1,
  kEmployer = 2,
  kCity = 3,
  kOther = 4,
};

inline constexpr int kAttributeTypeCount = 5;

std::string to_string(AttributeType type);

struct TimedSocialEdge {
  NodeId src = 0;
  NodeId dst = 0;
  double time = 0.0;
};

struct TimedAttributeLink {
  NodeId user = 0;
  AttrId attr = 0;
  double time = 0.0;
};

/// A network's columns, in the order a SANv1 file lists them: the social
/// node join times, the attribute catalog (types, names and creation
/// times, one entry per attribute id) and both link logs in log order.
struct SanColumns {
  std::vector<double> social_times;
  std::vector<AttributeType> attribute_types;
  std::vector<std::string> attribute_names;
  std::vector<double> attribute_times;
  std::vector<TimedSocialEdge> social_log;
  std::vector<TimedAttributeLink> attribute_log;
};

class SocialAttributeNetwork {
 public:
  /// Build a network from its columns in one O(nodes + links) pass. The
  /// result equals adding the nodes, the attributes, the social links and
  /// then the attribute links one at a time, in every accessor. Throws
  /// std::invalid_argument "<section> <index>: <reason>" naming the first
  /// record in column order (social_nodes, social_links, attribute_links)
  /// that the per-record calls would refuse: a decreasing join time, an
  /// unknown id, a self link or a duplicate link.
  static SocialAttributeNetwork from_logs(SanColumns columns);

  /// Append a social node joining at `time`; join times must be
  /// non-decreasing so that node ids are chronological.
  NodeId add_social_node(double time = 0.0);

  /// Append an attribute node of the given type. `name` is optional display
  /// metadata (e.g. "Google Inc.").
  AttrId add_attribute_node(AttributeType type, std::string name = {},
                            double time = 0.0);

  /// Add the directed social link u -> v at `time`. Returns false if the
  /// link already exists or u == v.
  bool add_social_link(NodeId u, NodeId v, double time = 0.0);

  /// Add the undirected attribute link between user u and attribute a.
  /// Returns false if it already exists.
  bool add_attribute_link(NodeId u, AttrId a, double time = 0.0);

  std::size_t social_node_count() const { return social_.node_count(); }
  std::size_t attribute_node_count() const { return members_.size(); }
  std::uint64_t social_link_count() const { return social_.edge_count(); }
  std::uint64_t attribute_link_count() const { return attribute_log_.size(); }

  const graph::Digraph& social() const { return social_; }

  /// Γa(u): the attributes of social node u, sorted ascending.
  std::span<const AttrId> attributes_of(NodeId u) const;
  /// Γs(a): the social nodes that declare attribute a (insertion order).
  std::span<const NodeId> members_of(AttrId a) const;

  bool has_attribute(NodeId u, AttrId a) const;
  /// a(u, v): the number of attributes u and v share (§5.1).
  std::size_t common_attributes(NodeId u, NodeId v) const;

  AttributeType attribute_type(AttrId a) const;
  const std::string& attribute_name(AttrId a) const;

  double social_node_time(NodeId u) const;
  double attribute_node_time(AttrId a) const;

  std::span<const TimedSocialEdge> social_log() const { return social_log_; }
  std::span<const TimedAttributeLink> attribute_log() const {
    return attribute_log_;
  }
  std::span<const double> social_node_times() const { return social_times_; }
  std::span<const double> attribute_node_times() const {
    return attribute_times_;
  }

 private:
  void check_attr(AttrId a) const;

  graph::Digraph social_;
  std::vector<double> social_times_;

  std::vector<std::vector<NodeId>> members_;      // per attribute
  std::vector<std::vector<AttrId>> attributes_;   // per social node, sorted
  std::vector<AttributeType> attr_types_;
  std::vector<std::string> attr_names_;
  std::vector<double> attribute_times_;

  std::vector<TimedSocialEdge> social_log_;
  std::vector<TimedAttributeLink> attribute_log_;
};

}  // namespace san
