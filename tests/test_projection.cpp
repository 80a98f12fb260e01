#include "apps/projection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/csr.hpp"
#include "san/timeline.hpp"
#include "san_testlib.hpp"
#include "stats/rng.hpp"

namespace {

using san::apps::degree_bounded_undirected;
using san::graph::CsrGraph;
using san::graph::NodeId;

/// Independent reference: the original sort-based formulation. Collect the
/// canonical pairs (u < v) from every directed link, comparison-sort and
/// dedup them, admit them in that order under the cap, then let from_edges
/// canonicalise the symmetric list with a second sort.
CsrGraph reference_projection(const CsrGraph& social, std::size_t bound) {
  const std::size_t n = social.node_count();
  std::vector<std::pair<NodeId, NodeId>> undirected;
  for (NodeId u = 0; u < n; ++u) {
    for (const NodeId v : social.out(u)) {
      if (u < v) {
        undirected.emplace_back(u, v);
      } else if (!social.has_edge(v, u)) {
        undirected.emplace_back(v, u);
      }
    }
  }
  std::sort(undirected.begin(), undirected.end());
  undirected.erase(std::unique(undirected.begin(), undirected.end()),
                   undirected.end());
  std::vector<std::size_t> degree(n, 0);
  std::vector<std::pair<NodeId, NodeId>> kept;
  for (const auto& [u, v] : undirected) {
    if (degree[u] >= bound || degree[v] >= bound) continue;
    ++degree[u];
    ++degree[v];
    kept.emplace_back(u, v);
    kept.emplace_back(v, u);
  }
  return CsrGraph::from_edges(n, kept);
}

void expect_matches_reference(const CsrGraph& social, std::size_t bound) {
  const auto got = degree_bounded_undirected(social, bound);
  const auto want = reference_projection(social, bound);
  ASSERT_EQ(got.node_count(), want.node_count());
  ASSERT_EQ(got.edge_count(), want.edge_count()) << "bound " << bound;
  for (NodeId u = 0; u < want.node_count(); ++u) {
    const auto g = got.out(u);
    const auto w = want.out(u);
    ASSERT_TRUE(std::equal(g.begin(), g.end(), w.begin(), w.end()))
        << "out(" << u << ") differs at bound " << bound;
    const auto gi = got.in(u);
    ASSERT_TRUE(std::equal(gi.begin(), gi.end(), w.begin(), w.end()))
        << "in(" << u << ") is not symmetric at bound " << bound;
  }
}

/// Seeded random digraph over `n` nodes: the upper half of the ids stays
/// isolated, node 0 is a hub linking to every third active id (half of
/// those links reciprocal), and about a third of the random links are made
/// reciprocal.
CsrGraph random_social(std::size_t n, std::size_t links, std::uint64_t seed) {
  san::stats::Rng rng(seed);
  const std::size_t active = std::max<std::size_t>(2, n / 2);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t i = 0; i < links; ++i) {
    const auto u = static_cast<NodeId>(rng.uniform_index(active));
    const auto v = static_cast<NodeId>(rng.uniform_index(active));
    edges.emplace_back(u, v);
    if (rng.bernoulli(0.33)) edges.emplace_back(v, u);
  }
  for (NodeId v = 1; v < active; v += 3) {
    edges.emplace_back(0, v);
    if (v % 2 == 0) edges.emplace_back(v, 0);
  }
  return CsrGraph::from_edges(n, edges);
}

TEST(Projection, SymmetricOutput) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {2, 1}, {2, 3}};
  const auto g = degree_bounded_undirected(CsrGraph::from_edges(4, edges), 100);
  for (NodeId u = 0; u < 4; ++u) {
    for (const NodeId v : g.out(u)) {
      EXPECT_TRUE(g.has_edge(v, u)) << u << "->" << v;
    }
  }
  EXPECT_EQ(g.edge_count(), 6u);  // 3 undirected links, both directions
}

TEST(Projection, ReciprocalPairBecomesOneLink) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {1, 0}};
  const auto g = degree_bounded_undirected(CsrGraph::from_edges(2, edges), 100);
  EXPECT_EQ(g.edge_count(), 2u);  // single undirected link
}

TEST(Projection, DegreeBoundEnforced) {
  // Star with 10 leaves, bound 4: hub keeps at most 4 links.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v <= 10; ++v) edges.emplace_back(0, v);
  const auto g = degree_bounded_undirected(CsrGraph::from_edges(11, edges), 4);
  EXPECT_EQ(g.out_degree(0), 4u);
  for (NodeId v = 1; v <= 10; ++v) EXPECT_LE(g.out_degree(v), 1u);
}

TEST(Projection, BoundLargeEnoughKeepsEverything) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v <= 10; ++v) edges.emplace_back(0, v);
  const auto g = degree_bounded_undirected(CsrGraph::from_edges(11, edges), 10);
  EXPECT_EQ(g.out_degree(0), 10u);
}

TEST(Projection, ZeroBoundThrows) {
  const auto g = CsrGraph::from_edges(2, {{std::pair<NodeId, NodeId>{0, 1}}});
  EXPECT_THROW(degree_bounded_undirected(g, 0), std::invalid_argument);
}

TEST(Projection, DeterministicAdmission) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId v = 1; v <= 8; ++v) edges.emplace_back(0, v);
  const auto a = degree_bounded_undirected(CsrGraph::from_edges(9, edges), 3);
  const auto b = degree_bounded_undirected(CsrGraph::from_edges(9, edges), 3);
  ASSERT_EQ(a.out_degree(0), b.out_degree(0));
  const auto sa = a.out(0);
  const auto sb = b.out(0);
  EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin()));
}

TEST(Projection, MatchesSortBasedReferenceOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const std::size_t n = 20 + 37 * seed;
    const auto social = random_social(n, 4 * n, seed);
    for (const std::size_t bound : {1u, 2u, 3u, 7u, 100u}) {
      expect_matches_reference(social, bound);
    }
  }
}

TEST(Projection, MatchesReferenceOnEmptyAndEdgelessGraphs) {
  expect_matches_reference(CsrGraph::from_edges(0, {}), 1);
  expect_matches_reference(CsrGraph::from_edges(5, {}), 3);
}

TEST(Projection, MatchesReferenceOnSlackLayoutSweepSnapshots) {
  // SanTimeline's delta sweep appends each day's links in place, leaving
  // per-node slack and relocated regions in the CSR layout.
  const auto net = san::testlib::model_san(600, 5);
  const san::SanTimeline timeline(net);
  std::vector<double> days;
  const double stride = timeline.max_time() / 12.0 + 0.1;
  for (double t = 0.0; t <= timeline.max_time() + 1.0; t += stride) {
    days.push_back(t);
  }
  std::size_t checked = 0;
  timeline.sweep(days, [&](double, const san::SanSnapshot& snap) {
    for (const std::size_t bound : {1u, 3u, 100u}) {
      expect_matches_reference(snap.social, bound);
    }
    ++checked;
  });
  EXPECT_EQ(checked, days.size());
}

}  // namespace
