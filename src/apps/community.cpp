#include "apps/community.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace san::apps {

CommunityResult detect_communities(const SanSnapshot& snap,
                                   const CommunityOptions& options) {
  const std::size_t n = snap.social_node_count();
  CommunityResult result;
  result.label.resize(n);
  std::iota(result.label.begin(), result.label.end(), 0u);
  if (n == 0) return result;

  stats::Rng rng(options.seed);
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});

  // Dense per-label vote tally (labels stay in [0, n): they start as node
  // ids and only ever copy a neighbour's label) plus the labels touched by
  // the current node, reset after each node. Each label's weights are
  // summed in visit order, and the winner — highest vote, ties to the
  // smallest label — does not depend on the order labels are scanned.
  std::vector<double> votes(n, 0.0);
  std::vector<std::uint32_t> touched;
  const auto vote = [&](std::uint32_t label, double weight) {
    if (votes[label] == 0.0) touched.push_back(label);
    votes[label] += weight;
  };
  bool changed = true;
  for (int iter = 0; iter < options.max_iterations && changed; ++iter) {
    result.iterations = iter + 1;
    changed = false;
    // Random asynchronous update order each round.
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    }
    for (const NodeId u : order) {
      for (const NodeId v : snap.social.neighbors(u)) {
        vote(result.label[v], 1.0);
      }
      if (options.attribute_weight > 0.0) {
        for (const AttrId x : snap.attributes_of(u)) {
          const auto members = snap.members_of(x);
          if (members.size() < 2) continue;
          const double w =
              options.attribute_weight / static_cast<double>(members.size());
          for (const NodeId v : members) {
            if (v != u) vote(result.label[v], w);
          }
        }
      }
      if (touched.empty()) continue;
      // Highest vote; break ties by smallest label for determinism.
      std::uint32_t best = result.label[u];
      double best_votes = -1.0;
      for (const std::uint32_t label : touched) {
        const double weight = votes[label];
        votes[label] = 0.0;
        if (weight > best_votes ||
            (weight == best_votes && label < best)) {
          best = label;
          best_votes = weight;
        }
      }
      touched.clear();
      if (best != result.label[u]) {
        result.label[u] = best;
        changed = true;
      }
    }
  }

  // Compact labels to dense ids in first-appearance order.
  constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};
  std::vector<std::uint32_t> remap(n, kUnmapped);
  std::uint32_t next = 0;
  for (auto& label : result.label) {
    if (remap[label] == kUnmapped) remap[label] = next++;
    label = remap[label];
  }
  result.community_count = next;
  return result;
}

double modularity(const SanSnapshot& snap,
                  const std::vector<std::uint32_t>& label) {
  const std::size_t n = snap.social_node_count();
  if (label.size() != n) {
    throw std::invalid_argument("modularity: label size mismatch");
  }
  // Undirected view: degree = |neighbors|, total stubs = sum of degrees.
  double m2 = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    m2 += static_cast<double>(snap.social.degree(u));
  }
  if (m2 == 0.0) return 0.0;

  std::unordered_map<std::uint32_t, double> community_degree;
  double internal = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    community_degree[label[u]] += static_cast<double>(snap.social.degree(u));
    for (const NodeId v : snap.social.neighbors(u)) {
      if (label[u] == label[v]) internal += 1.0;
    }
  }
  double q = internal / m2;
  for (const auto& [community, degree] : community_degree) {
    q -= (degree / m2) * (degree / m2);
  }
  return q;
}

double normalized_mutual_information(const std::vector<std::uint32_t>& a,
                                     const std::vector<std::uint32_t>& b) {
  if (a.size() != b.size() || a.empty()) {
    throw std::invalid_argument("nmi: size mismatch or empty");
  }
  const auto n = static_cast<double>(a.size());
  std::unordered_map<std::uint32_t, double> pa, pb;
  std::unordered_map<std::uint64_t, double> joint;
  for (std::size_t i = 0; i < a.size(); ++i) {
    pa[a[i]] += 1.0;
    pb[b[i]] += 1.0;
    joint[(static_cast<std::uint64_t>(a[i]) << 32) | b[i]] += 1.0;
  }
  double ha = 0.0, hb = 0.0, mi = 0.0;
  for (const auto& [label, count] : pa) {
    const double p = count / n;
    ha -= p * std::log(p);
  }
  for (const auto& [label, count] : pb) {
    const double p = count / n;
    hb -= p * std::log(p);
  }
  for (const auto& [key, count] : joint) {
    const double pxy = count / n;
    const double px = pa[static_cast<std::uint32_t>(key >> 32)] / n;
    const double py = pb[static_cast<std::uint32_t>(key & 0xffffffffu)] / n;
    mi += pxy * std::log(pxy / (px * py));
  }
  if (ha <= 0.0 && hb <= 0.0) return 1.0;  // both single-community
  const double denom = 0.5 * (ha + hb);
  return denom <= 0.0 ? 0.0 : mi / denom;
}

}  // namespace san::apps
