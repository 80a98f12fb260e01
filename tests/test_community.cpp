#include "apps/community.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "san/san.hpp"
#include "san/snapshot.hpp"
#include "san_testlib.hpp"
#include "stats/rng.hpp"

namespace {

using san::AttrId;
using san::AttributeType;
using san::NodeId;
using san::SocialAttributeNetwork;
using san::snapshot_full;
using san::apps::CommunityOptions;
using san::apps::detect_communities;
using san::apps::modularity;
using san::apps::normalized_mutual_information;

/// Independent reference: the original hash-map formulation of the label
/// propagation (same seeded update order, votes tallied in an
/// unordered_map, labels compacted through a second map).
san::apps::CommunityResult reference_communities(
    const san::SanSnapshot& snap, const CommunityOptions& options) {
  const std::size_t n = snap.social_node_count();
  san::apps::CommunityResult result;
  result.label.resize(n);
  std::iota(result.label.begin(), result.label.end(), 0u);
  if (n == 0) return result;
  san::stats::Rng rng(options.seed);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  std::unordered_map<std::uint32_t, double> votes;
  bool changed = true;
  for (int iter = 0; iter < options.max_iterations && changed; ++iter) {
    result.iterations = iter + 1;
    changed = false;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    for (const NodeId u : order) {
      votes.clear();
      for (const NodeId v : snap.social.neighbors(u)) {
        votes[result.label[v]] += 1.0;
      }
      if (options.attribute_weight > 0.0) {
        for (const AttrId x : snap.attributes_of(u)) {
          const auto members = snap.members_of(x);
          if (members.size() < 2) continue;
          const double w =
              options.attribute_weight / static_cast<double>(members.size());
          for (const NodeId v : members) {
            if (v != u) votes[result.label[v]] += w;
          }
        }
      }
      if (votes.empty()) continue;
      std::uint32_t best = result.label[u];
      double best_votes = -1.0;
      for (const auto& [label, weight] : votes) {
        if (weight > best_votes || (weight == best_votes && label < best)) {
          best = label;
          best_votes = weight;
        }
      }
      if (best != result.label[u]) {
        result.label[u] = best;
        changed = true;
      }
    }
  }
  std::unordered_map<std::uint32_t, std::uint32_t> remap;
  for (auto& label : result.label) {
    const auto [it, inserted] =
        remap.emplace(label, static_cast<std::uint32_t>(remap.size()));
    label = it->second;
  }
  result.community_count = remap.size();
  return result;
}

void expect_matches_reference(const san::SanSnapshot& snap,
                              const CommunityOptions& options) {
  const auto got = detect_communities(snap, options);
  const auto want = reference_communities(snap, options);
  EXPECT_EQ(got.label, want.label)
      << "attribute_weight " << options.attribute_weight;
  EXPECT_EQ(got.community_count, want.community_count);
  EXPECT_EQ(got.iterations, want.iterations);
}

/// Two mutually-meshed cliques joined by a single bridge link.
SocialAttributeNetwork two_cliques(bool with_attributes) {
  SocialAttributeNetwork net;
  for (int i = 0; i < 10; ++i) net.add_social_node(0.0);
  const auto mesh = [&](NodeId lo, NodeId hi) {
    for (NodeId u = lo; u < hi; ++u) {
      for (NodeId v = lo; v < hi; ++v) {
        if (u != v) net.add_social_link(u, v);
      }
    }
  };
  mesh(0, 5);
  mesh(5, 10);
  net.add_social_link(4, 5);
  if (with_attributes) {
    const AttrId a = net.add_attribute_node(AttributeType::kEmployer, "A");
    const AttrId b = net.add_attribute_node(AttributeType::kEmployer, "B");
    for (NodeId u = 0; u < 5; ++u) net.add_attribute_link(u, a);
    for (NodeId u = 5; u < 10; ++u) net.add_attribute_link(u, b);
  }
  return net;
}

TEST(Community, RecoversTwoCliques) {
  const auto snap = snapshot_full(two_cliques(false));
  const auto result = detect_communities(snap);
  EXPECT_EQ(result.community_count, 2u);
  // Every node in the same clique shares a label.
  for (NodeId u = 1; u < 5; ++u) EXPECT_EQ(result.label[u], result.label[0]);
  for (NodeId u = 6; u < 10; ++u) EXPECT_EQ(result.label[u], result.label[5]);
  EXPECT_NE(result.label[0], result.label[5]);
}

TEST(Community, ModularityPositiveForGoodPartition) {
  const auto snap = snapshot_full(two_cliques(false));
  const auto result = detect_communities(snap);
  EXPECT_GT(modularity(snap, result.label), 0.3);
  // The all-in-one partition has modularity ~0.
  const std::vector<std::uint32_t> trivial(snap.social_node_count(), 0);
  EXPECT_LT(modularity(snap, trivial), 0.05);
}

TEST(Community, ModularityValidatesSize) {
  const auto snap = snapshot_full(two_cliques(false));
  EXPECT_THROW(modularity(snap, std::vector<std::uint32_t>{1, 2}),
               std::invalid_argument);
}

TEST(Community, AttributeAwareVariantUsesAttributeVotes) {
  // A sparse network where social links alone are ambiguous: two groups
  // connected only through attributes.
  SocialAttributeNetwork net;
  for (int i = 0; i < 8; ++i) net.add_social_node(0.0);
  const AttrId a = net.add_attribute_node(AttributeType::kEmployer, "A");
  const AttrId b = net.add_attribute_node(AttributeType::kEmployer, "B");
  for (NodeId u = 0; u < 4; ++u) net.add_attribute_link(u, a);
  for (NodeId u = 4; u < 8; ++u) net.add_attribute_link(u, b);
  // A thin chain inside each group.
  net.add_social_link(0, 1);
  net.add_social_link(2, 3);
  net.add_social_link(4, 5);
  net.add_social_link(6, 7);

  CommunityOptions with_attrs;
  with_attrs.attribute_weight = 4.0;
  const auto result = detect_communities(snapshot_full(net), with_attrs);
  // Attribute votes merge each group's chains.
  EXPECT_EQ(result.label[0], result.label[2]);
  EXPECT_EQ(result.label[4], result.label[6]);
  EXPECT_NE(result.label[0], result.label[4]);
}

TEST(Community, NmiBasics) {
  const std::vector<std::uint32_t> a = {0, 0, 1, 1};
  EXPECT_NEAR(normalized_mutual_information(a, a), 1.0, 1e-12);
  const std::vector<std::uint32_t> swapped = {5, 5, 9, 9};
  EXPECT_NEAR(normalized_mutual_information(a, swapped), 1.0, 1e-12);
  const std::vector<std::uint32_t> independent = {0, 1, 0, 1};
  EXPECT_NEAR(normalized_mutual_information(a, independent), 0.0, 1e-9);
  EXPECT_THROW(normalized_mutual_information(a, {0, 1}), std::invalid_argument);
}

TEST(Community, NmiAgainstPlantedAttributes) {
  const auto snap = snapshot_full(two_cliques(true));
  const auto result = detect_communities(snap);
  // Planted partition: first five nodes attribute A, rest B.
  std::vector<std::uint32_t> planted(10, 0);
  for (std::size_t u = 5; u < 10; ++u) planted[u] = 1;
  EXPECT_NEAR(normalized_mutual_information(result.label, planted), 1.0, 1e-9);
}

TEST(Community, EmptyNetworkSafe) {
  const SocialAttributeNetwork net;
  const auto snap = snapshot_full(net);
  const auto result = detect_communities(snap);
  EXPECT_EQ(result.community_count, 0u);
  EXPECT_DOUBLE_EQ(modularity(snap, result.label), 0.0);
}

TEST(Community, MatchesHashMapReferenceOnTiedVotes) {
  // A ring with chords: every node starts with two or four equally weighted
  // neighbour labels, and each attribute pairs two nodes so an attribute
  // vote of weight/2 can tie a social vote exactly.
  SocialAttributeNetwork net;
  constexpr NodeId kN = 24;
  for (NodeId u = 0; u < kN; ++u) net.add_social_node(0.0);
  for (NodeId u = 0; u < kN; ++u) {
    net.add_social_link(u, (u + 1) % kN);
    if (u % 3 == 0) net.add_social_link((u + 7) % kN, u);
  }
  for (NodeId u = 0; u + 12 < kN; u += 2) {
    const AttrId a = net.add_attribute_node(AttributeType::kEmployer,
                                            "pair" + std::to_string(u));
    net.add_attribute_link(u, a);
    net.add_attribute_link(u + 12, a);
  }
  const auto snap = snapshot_full(net);
  for (const double weight : {0.0, 1.0, 2.0, 4.0}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      CommunityOptions options;
      options.attribute_weight = weight;
      options.seed = seed;
      expect_matches_reference(snap, options);
    }
  }
}

TEST(Community, MatchesHashMapReferenceOnSyntheticSans) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto net = san::testlib::model_san(400 + 150 * seed, seed);
    const double last = net.social_node_times().back();
    for (const double time : {last / 3.0, last}) {
      const auto snap = san::snapshot_at(net, time);
      for (const double weight : {0.0, 0.5, 2.0}) {
        CommunityOptions options;
        options.attribute_weight = weight;
        options.seed = seed + 10;
        expect_matches_reference(snap, options);
      }
    }
  }
}

}  // namespace
