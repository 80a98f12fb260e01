#include "apps/projection.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

namespace san::apps {

graph::CsrGraph degree_bounded_undirected(const graph::CsrGraph& social,
                                          std::size_t degree_bound) {
  if (degree_bound == 0) {
    throw std::invalid_argument("degree_bounded_undirected: bound must be > 0");
  }
  using graph::NodeId;
  const std::size_t n = social.node_count();

  // Admission: neighbors(u) is the sorted, deduplicated, loop-free union of
  // u's in- and out-neighbours, so walking it for ascending u and keeping
  // v > u visits each canonical undirected link (u, v) exactly once, in
  // ascending (u, v) order. Admitted partners are recorded per u.
  std::vector<std::uint32_t> degree(n, 0);
  std::vector<std::uint64_t> admitted_start(n + 1, 0);
  std::vector<NodeId> admitted;
  for (NodeId u = 0; u < n; ++u) {
    admitted_start[u] = admitted.size();
    for (const NodeId v : social.neighbors(u)) {
      if (v <= u) continue;
      if (degree[u] >= degree_bound || degree[v] >= degree_bound) continue;
      ++degree[u];
      ++degree[v];
      admitted.push_back(v);
    }
  }
  admitted_start[n] = admitted.size();

  // Symmetric fill in admission order. Node x receives its partners w < x
  // while w is processed (ascending w), then its own partners v > x in
  // ascending order, so every list comes out sorted with no comparison
  // sort.
  std::vector<std::uint64_t> offsets(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) offsets[u + 1] = offsets[u] + degree[u];
  std::vector<NodeId> targets(offsets[n]);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (std::uint64_t i = admitted_start[u]; i < admitted_start[u + 1]; ++i) {
      const NodeId v = admitted[i];
      targets[cursor[u]++] = v;
      targets[cursor[v]++] = u;
    }
  }

  // Symmetric: the in-adjacency is a copy of the out-adjacency.
  std::vector<std::uint32_t> in_degree = degree;
  std::vector<NodeId> in_targets = targets;
  graph::CsrGraph topology;
  topology.adopt_adjacency(n, offsets, std::move(degree), std::move(targets),
                           offsets, std::move(in_degree),
                           std::move(in_targets));
  return topology;
}

}  // namespace san::apps
