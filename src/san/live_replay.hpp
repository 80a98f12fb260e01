// LiveReplay: the replay driver that turns an existing (fully logged)
// SocialAttributeNetwork into a live ingest stream — events up to `start`
// become the seed, the rest is handed out as LiveTimeline ingest batches
// in time order. Shared verbatim by `san_tool live`, the randomized
// oracle in tests/test_live_timeline.cpp, and bench_live_ingest, so the
// shipped CLI replays exactly the split the gates verify.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "san/live_timeline.hpp"
#include "san/san.hpp"

namespace san {

/// Splits `net` into a seed (events <= start, plus the WHOLE attribute
/// catalog so ids align with the source network — later creation times
/// stay future-scheduled) and time-sorted remainder streams. Links are
/// delivered as soon as their time passes, including ones whose endpoint
/// id does not exist yet, which the LiveTimeline holds and activates.
struct LiveReplay {
  SocialAttributeNetwork seed;
  std::vector<double> node_times;
  std::vector<TimedSocialEdge> edges;
  std::vector<TimedAttributeLink> links;
  std::size_t next_node = 0, next_edge = 0, next_link = 0;

  LiveReplay(const SocialAttributeNetwork& net, double start) {
    const auto times = net.social_node_times();
    std::size_t seed_nodes = 0;
    while (seed_nodes < times.size() && times[seed_nodes] <= start) {
      ++seed_nodes;
    }
    // The seed is a subset of a valid network, so from_logs builds it in
    // one pass without refusing a record.
    SanColumns columns;
    columns.social_times.assign(
        times.begin(), times.begin() + static_cast<std::ptrdiff_t>(seed_nodes));
    const auto attr_times = net.attribute_node_times();
    columns.attribute_times.assign(attr_times.begin(), attr_times.end());
    for (AttrId a = 0; a < net.attribute_node_count(); ++a) {
      columns.attribute_types.push_back(net.attribute_type(a));
      columns.attribute_names.push_back(net.attribute_name(a));
    }
    for (const auto& e : net.social_log()) {
      if (e.time <= start && e.src < seed_nodes && e.dst < seed_nodes) {
        columns.social_log.push_back(e);
      } else {
        edges.push_back(e);
      }
    }
    for (const auto& link : net.attribute_log()) {
      if (link.time <= start && link.user < seed_nodes) {
        columns.attribute_log.push_back(link);
      } else {
        links.push_back(link);
      }
    }
    seed = SocialAttributeNetwork::from_logs(std::move(columns));
    node_times.assign(times.begin() + static_cast<std::ptrdiff_t>(seed_nodes),
                      times.end());
    std::stable_sort(edges.begin(), edges.end(),
                     [](const TimedSocialEdge& a, const TimedSocialEdge& b) {
                       return a.time < b.time;
                     });
    std::stable_sort(
        links.begin(), links.end(),
        [](const TimedAttributeLink& a, const TimedAttributeLink& b) {
          return a.time < b.time;
        });
  }

  /// The next ingest batch: every not-yet-delivered event with time <=
  /// tip.
  IngestBatch batch_until(double tip) {
    IngestBatch batch;
    batch.tip = tip;
    while (next_node < node_times.size() && node_times[next_node] <= tip) {
      batch.social_nodes.push_back(node_times[next_node++]);
    }
    while (next_edge < edges.size() && edges[next_edge].time <= tip) {
      batch.social_links.push_back(edges[next_edge++]);
    }
    while (next_link < links.size() && links[next_link].time <= tip) {
      batch.attribute_links.push_back(links[next_link++]);
    }
    return batch;
  }
};

}  // namespace san
