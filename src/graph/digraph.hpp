// Growable directed graph used while a network evolves (crawler, generative
// models). Analysis code should snapshot into a CsrGraph (csr.hpp) instead
// of traversing this structure.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace san::graph {

using NodeId = std::uint32_t;

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t node_count) { add_nodes(node_count); }
  /// Adopt per-node out- and in-lists that already describe one simple
  /// digraph: u -> v appears once in out[u] and once in in[v], never with
  /// u == v. The caller checks this; add_edge would have refused the rest.
  Digraph(std::vector<std::vector<NodeId>> out,
          std::vector<std::vector<NodeId>> in);

  /// Append one node; returns its id.
  NodeId add_node();
  /// Append `count` nodes; returns the id of the first one.
  NodeId add_nodes(std::size_t count);

  /// Insert the directed edge u -> v. Returns false (and leaves the graph
  /// unchanged) when the edge already exists or u == v. Throws
  /// std::out_of_range for unknown node ids.
  bool add_edge(NodeId u, NodeId v);

  bool has_edge(NodeId u, NodeId v) const;

  std::size_t node_count() const { return out_.size(); }
  std::uint64_t edge_count() const { return edge_count_; }

  std::size_t out_degree(NodeId u) const { return out_.at(u).size(); }
  std::size_t in_degree(NodeId u) const { return in_.at(u).size(); }

  std::span<const NodeId> out_neighbors(NodeId u) const { return out_.at(u); }
  std::span<const NodeId> in_neighbors(NodeId u) const { return in_.at(u); }

 private:
  void check_node(NodeId u) const;

  std::vector<std::vector<NodeId>> out_;
  std::vector<std::vector<NodeId>> in_;
  std::uint64_t edge_count_ = 0;
};

}  // namespace san::graph
