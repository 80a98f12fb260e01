// Degree-bounded undirected projection of a directed social graph.
//
// Both application benchmarks of §6.2 (SybilLimit and the anonymity walk)
// run on the social structure with "an upper bound of 100 on the node
// degree", following the SybilLimit guidelines. This helper builds that
// symmetric, capped graph once so both apps share it.
#pragma once

#include <cstdint>

#include "graph/csr.hpp"

namespace san::apps {

/// Symmetric graph containing each undirected link {u, v} (in both
/// directions) for which neither endpoint has exhausted `degree_bound`.
/// Links are admitted in ascending (u, v) order, mirroring a deterministic
/// truncation of oversized adjacency lists: admission walks the undirected
/// neighbour view `social.neighbors(u)` for ascending u, keeping v > u, and
/// the kept lists are filled already sorted — O(nodes + links), no
/// comparison sort.
graph::CsrGraph degree_bounded_undirected(const graph::CsrGraph& social,
                                          std::size_t degree_bound);

}  // namespace san::apps
