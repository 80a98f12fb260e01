#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

using san::graph::CsrGraph;
using san::graph::Digraph;
using san::graph::NodeId;

CsrGraph triangle() {
  // 0 -> 1, 1 -> 2, 2 -> 0, plus reciprocal 1 -> 0.
  const std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1}, {1, 2}, {2, 0}, {1, 0}};
  return CsrGraph::from_edges(3, edges);
}

TEST(Csr, FromEdgesBasicCounts) {
  const auto g = triangle();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 4u);
}

TEST(Csr, OutAndInAdjacencySorted) {
  const auto g = triangle();
  const auto out1 = g.out(1);
  ASSERT_EQ(out1.size(), 2u);
  EXPECT_TRUE(std::is_sorted(out1.begin(), out1.end()));
  const auto in0 = g.in(0);
  ASSERT_EQ(in0.size(), 2u);
  EXPECT_TRUE(std::is_sorted(in0.begin(), in0.end()));
}

TEST(Csr, NeighborsAreUnionOfInOut) {
  const auto g = triangle();
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);  // 1 (both ways) and 2 (incoming)
  EXPECT_EQ(n0[0], 1u);
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Csr, HasEdgeAndLinkCount) {
  const auto g = triangle();
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.link_count(0, 1), 2);  // reciprocal
  EXPECT_EQ(g.link_count(1, 2), 1);  // one way
  EXPECT_EQ(g.link_count(0, 0), 0);
}

TEST(Csr, DuplicatesAndSelfLoopsDropped) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1}, {0, 1}, {1, 1}, {1, 0}};
  const auto g = CsrGraph::from_edges(2, edges);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(Csr, FromDigraphMatches) {
  Digraph d(4);
  d.add_edge(0, 1);
  d.add_edge(1, 2);
  d.add_edge(2, 3);
  d.add_edge(3, 0);
  d.add_edge(0, 2);
  const auto g = CsrGraph::from_digraph(d);
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 5u);
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(g.out_degree(u), d.out_degree(u));
    EXPECT_EQ(g.in_degree(u), d.in_degree(u));
  }
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(2, 0));
}

TEST(Csr, OutOfRangeEdgesThrow) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 5}};
  EXPECT_THROW(CsrGraph::from_edges(3, edges), std::out_of_range);
}

TEST(Csr, UnknownNodeQueriesThrow) {
  const auto g = triangle();
  EXPECT_THROW((void)g.out(10), std::out_of_range);
  EXPECT_THROW((void)g.in(10), std::out_of_range);
  EXPECT_THROW((void)g.neighbors(10), std::out_of_range);
}

TEST(Csr, EmptyGraph) {
  const auto g = CsrGraph::from_edges(0, {});
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Csr, IsolatedNodes) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}};
  const auto g = CsrGraph::from_edges(5, edges);
  EXPECT_EQ(g.out_degree(4), 0u);
  EXPECT_EQ(g.neighbors(4).size(), 0u);
}

TEST(Csr, DegreeSumsMatchEdgeCount) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < 100; ++u) {
    for (NodeId v = 0; v < 100; v += 13) {
      if (u != v) edges.emplace_back(u, v);
    }
  }
  const auto g = CsrGraph::from_edges(100, edges);
  std::uint64_t out_sum = 0, in_sum = 0;
  for (NodeId u = 0; u < 100; ++u) {
    out_sum += g.out_degree(u);
    in_sum += g.in_degree(u);
  }
  EXPECT_EQ(out_sum, g.edge_count());
  EXPECT_EQ(in_sum, g.edge_count());
}

/// Externally built out/in adjacency in adopt_adjacency's layout.
struct AdjacencyLayout {
  std::size_t nodes = 0;
  std::vector<std::uint64_t> out_off;
  std::vector<std::uint32_t> out_len;
  std::vector<NodeId> out_targets;
  std::vector<std::uint64_t> in_off;
  std::vector<std::uint32_t> in_len;
  std::vector<NodeId> in_targets;
};

void adopt(CsrGraph& g, const AdjacencyLayout& l) {
  g.adopt_adjacency(l.nodes, l.out_off, l.out_len, l.out_targets, l.in_off,
                    l.in_len, l.in_targets);
}

/// Every view of `g` as plain vectors, for whole-graph comparisons.
std::vector<std::vector<NodeId>> views(const CsrGraph& g) {
  std::vector<std::vector<NodeId>> all;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const auto span : {g.out(u), g.in(u), g.neighbors(u)}) {
      all.emplace_back(span.begin(), span.end());
    }
  }
  return all;
}

TEST(CsrGraph, AdoptAdjacencyRejectsMalformedLayout) {
  // triangle(): 0->1, 1->0, 1->2, 2->0, packed densely.
  const AdjacencyLayout valid{3,
                              {0, 1, 3, 4},
                              {1, 2, 1},
                              {1, 0, 2, 0},
                              {0, 2, 3, 4},
                              {2, 1, 1},
                              {1, 2, 0, 1}};
  CsrGraph g;
  adopt(g, valid);
  const auto before = views(g);
  ASSERT_EQ(before, views(triangle()));
  ASSERT_EQ(g.edge_count(), 4u);

  const auto expect_rejected = [&](const AdjacencyLayout& bad,
                                   const std::string& reason) {
    SCOPED_TRACE(reason);
    try {
      adopt(g, bad);
      ADD_FAILURE() << "malformed layout was adopted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(g.node_count(), 3u);
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_EQ(views(g), before);
  };

  AdjacencyLayout bad = valid;
  bad.out_off.pop_back();  // node_count offsets, not node_count + 1
  expect_rejected(bad, "bad shape");
  bad = valid;
  bad.in_targets.push_back(0);  // storage longer than the last offset
  expect_rejected(bad, "bad shape");

  bad = valid;
  bad.out_off = {0, 2, 1, 4};  // node 1's region would end before it starts
  bad.out_len = {1, 0, 1};
  expect_rejected(bad, "offsets not monotone");

  bad = valid;
  bad.in_len = {2, 2, 1};  // node 1 holds one in slot, claims two
  expect_rejected(bad, "length exceeds node capacity");

  bad = valid;
  bad.in_len = {2, 1, 0};  // 4 out entries against 3 in entries
  expect_rejected(bad, "out/in edge totals disagree");

  // A valid adopt afterwards, in a slack layout whose dead slots hold
  // junk, matches from_edges.
  const std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1}, {0, 2}, {1, 2}, {2, 0}, {3, 1}};
  constexpr NodeId kJunk = 99;
  const AdjacencyLayout slack{
      4,
      {0, 4, 6, 8, 10},
      {2, 1, 1, 1},
      {1, 2, kJunk, kJunk, 2, kJunk, 0, kJunk, 1, kJunk},
      {0, 2, 6, 10, 11},
      {1, 2, 2, 0},
      {2, kJunk, 0, 3, kJunk, kJunk, 0, 1, kJunk, kJunk, kJunk}};
  adopt(g, slack);
  const auto reference = CsrGraph::from_edges(4, edges);
  EXPECT_EQ(g.node_count(), reference.node_count());
  EXPECT_EQ(g.edge_count(), reference.edge_count());
  EXPECT_EQ(views(g), views(reference));
}

}  // namespace
