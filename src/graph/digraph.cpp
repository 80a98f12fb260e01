#include "graph/digraph.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace san::graph {

Digraph::Digraph(std::vector<std::vector<NodeId>> out,
                 std::vector<std::vector<NodeId>> in)
    : out_(std::move(out)), in_(std::move(in)) {
  if (out_.size() != in_.size()) {
    throw std::invalid_argument("Digraph: out and in lists differ in length");
  }
  for (const auto& list : out_) edge_count_ += list.size();
}

NodeId Digraph::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<NodeId>(out_.size() - 1);
}

NodeId Digraph::add_nodes(std::size_t count) {
  const auto first = static_cast<NodeId>(out_.size());
  out_.resize(out_.size() + count);
  in_.resize(in_.size() + count);
  return first;
}

void Digraph::check_node(NodeId u) const {
  if (u >= out_.size()) throw std::out_of_range("Digraph: unknown node id");
}

bool Digraph::add_edge(NodeId u, NodeId v) {
  check_node(u);
  check_node(v);
  if (u == v) return false;
  if (has_edge(u, v)) return false;
  out_[u].push_back(v);
  in_[v].push_back(u);
  ++edge_count_;
  return true;
}

bool Digraph::has_edge(NodeId u, NodeId v) const {
  check_node(u);
  check_node(v);
  // Scan the shorter of u's out-list and v's in-list; degree distributions
  // are skewed, so this keeps hub lookups cheap.
  const auto& uo = out_[u];
  const auto& vi = in_[v];
  if (uo.size() <= vi.size()) {
    return std::find(uo.begin(), uo.end(), v) != uo.end();
  }
  return std::find(vi.begin(), vi.end(), u) != vi.end();
}

}  // namespace san::graph
