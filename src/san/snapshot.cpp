#include "san/snapshot.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <utility>

namespace san {

std::uint64_t next_snapshot_generation() {
  static std::atomic<std::uint64_t> counter{kNoGeneration};
  return ++counter;
}

SanSnapshot snapshot_at(const SocialAttributeNetwork& network, double time) {
  SanSnapshot snap;
  snap.time = time;

  // Social nodes join chronologically, so the prefix with join time <= t is
  // exactly the node set of the snapshot.
  const auto social_times = network.social_node_times();
  const auto first_after =
      std::upper_bound(social_times.begin(), social_times.end(), time);
  const auto n_social =
      static_cast<std::size_t>(first_after - social_times.begin());

  std::vector<std::pair<NodeId, NodeId>> edges;
  for (const auto& e : network.social_log()) {
    if (e.time > time) continue;
    if (e.src >= n_social || e.dst >= n_social) {
      ++snap.dropped_link_count;  // link predates an endpoint's join
      continue;
    }
    edges.emplace_back(e.src, e.dst);
  }
  std::sort(edges.begin(), edges.end());
  snap.social = graph::CsrGraph::from_sorted_edges(n_social, edges);

  // Attribute nodes are not necessarily chronological (ids assigned on first
  // use); the id space spans all of them so ids stay aligned with the source
  // network, but only those created by t are part of the snapshot.
  const std::size_t n_attr = network.attribute_node_count();
  const auto attr_times = network.attribute_node_times();
  snap.attribute_types.assign(n_attr, AttributeType::kOther);
  snap.attribute_created.assign(n_attr, 0);
  for (AttrId a = 0; a < n_attr; ++a) {
    if (attr_times[a] <= time) {
      snap.attribute_created[a] = 1;
      snap.attribute_types[a] = network.attribute_type(a);
      ++snap.created_attribute_count;
    }
  }

  // Attribute links in stable time order — the same order a SanTimeline
  // prefix yields, so both paths produce bit-identical members_of spans.
  std::vector<TimedAttributeLink> links;
  for (const auto& link : network.attribute_log()) {
    if (link.time > time) continue;
    if (link.user >= n_social || !snap.attribute_created[link.attr]) {
      ++snap.dropped_link_count;  // link predates its user or attribute
      continue;
    }
    links.push_back(link);
  }
  std::stable_sort(links.begin(), links.end(),
                   [](const TimedAttributeLink& a,
                      const TimedAttributeLink& b) {
                     return a.time < b.time;
                   });
  std::vector<NodeId> users(links.size());
  std::vector<AttrId> attrs(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    users[i] = links[i].user;
    attrs[i] = links[i].attr;
  }
  snap.attribute =
      graph::BipartiteCsr::from_links(n_social, n_attr, users, attrs);
  snap.attribute_link_count = snap.attribute.link_count();
  return snap;
}

SanSnapshot snapshot_full(const SocialAttributeNetwork& network) {
  return snapshot_at(network, std::numeric_limits<double>::infinity());
}

}  // namespace san
