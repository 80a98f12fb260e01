#include "san/timeline.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/parallel.hpp"
#include "graph/slack.hpp"
#include "obs/trace.hpp"

namespace san {
namespace {

/// Stable permutation of [0, n) ordered by times[i] (ties keep index
/// order), filled into `order` so absorb() can reuse one buffer per batch.
void stable_order_by_time_into(std::span<const double> times,
                               std::vector<std::uint64_t>& order) {
  order.resize(times.size());
  std::iota(order.begin(), order.end(), std::uint64_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint64_t a, std::uint64_t b) {
                     return times[a] < times[b];
                   });
}

std::vector<std::uint64_t> stable_order_by_time(std::span<const double> times) {
  std::vector<std::uint64_t> order;
  stable_order_by_time_into(times, order);
  return order;
}

std::size_t prefix_at(std::span<const double> times, double time) {
  return static_cast<std::size_t>(
      std::upper_bound(times.begin(), times.end(), time) - times.begin());
}

/// absorb() merge plan: `key` holds `old_size` time-sorted rows followed by
/// a time-sorted appended chunk. Emits into `perm` the stable merge of the
/// two runs (existing rows first on ties) as original indices for the
/// positions that move, and returns the first moving position — rows
/// earlier than the chunk's first time stay put, so an in-order absorb
/// costs O(new events), not O(log).
std::size_t merge_suffix_permutation(std::span<const double> key,
                                     std::size_t old_size,
                                     std::vector<std::uint64_t>& perm) {
  const std::size_t n = key.size();
  perm.clear();
  if (old_size >= n) return n;
  const std::size_t pos = static_cast<std::size_t>(
      std::upper_bound(key.begin(), key.begin() + old_size, key[old_size]) -
      key.begin());
  perm.reserve(n - pos);
  std::size_t i = pos, j = old_size;
  while (i < old_size || j < n) {
    if (j >= n || (i < old_size && key[i] <= key[j])) {
      perm.push_back(i++);
    } else {
      perm.push_back(j++);
    }
  }
  return pos;
}

template <typename T>
void apply_suffix_permutation(std::vector<T>& column, std::size_t pos,
                              std::span<const std::uint64_t> perm,
                              std::vector<T>& scratch) {
  scratch.assign(column.begin() + static_cast<std::ptrdiff_t>(pos),
                 column.end());
  for (std::size_t k = 0; k < perm.size(); ++k) {
    column[pos + k] = scratch[perm[k] - pos];
  }
}

}  // namespace

// Full-network link index behind every social build: the out- and in-CSR of
// the whole social log. Node u's entries [off[u], off[u + 1]) are sorted by
// neighbour id, and each carries its link's position in the time-sorted log,
// so the snapshot at t is the entries with pos < edge_prefix(t) and
// neighbour < n_social(t) — the latter a prefix of every list.
struct SanTimeline::LinkIndex {
  struct Entry {
    NodeId node;
    std::uint32_t pos;
  };
  std::vector<std::uint64_t> out_off, in_off;
  std::vector<Entry> out, in;
};

struct SanTimeline::Scratch {
  // Delta-sweep state: the generation of the snapshot this scratch last
  // produced (kNoGeneration: none, the next advance rebuilds), the log
  // prefixes it covers, and the links that snapshot dropped, in log order
  // (they activate later, when their endpoint joins or their attribute is
  // created).
  std::uint64_t generation = kNoGeneration;
  std::size_t n_social = 0;
  std::size_t edge_prefix = 0;
  std::size_t link_prefix = 0;
  std::size_t created_prefix = 0;
  std::vector<std::pair<NodeId, NodeId>> deferred_social;
  std::vector<std::pair<NodeId, AttrId>> deferred_attr;
  // advance() working sets.
  std::vector<std::pair<NodeId, NodeId>> delta_edges;
  std::vector<NodeId> delta_src, delta_dst;
  std::vector<NodeId> delta_users;
  std::vector<AttrId> delta_attrs;
};

SanTimeline::~SanTimeline() = default;

SanTimeline::Materializer::Materializer(const SanTimeline& timeline)
    : timeline_(&timeline), scratch_(std::make_unique<Scratch>()) {}

SanTimeline::Materializer::~Materializer() = default;

void SanTimeline::Materializer::advance(double time, SanSnapshot& snap) {
  timeline_->advance(time, snap, *scratch_);
}

void SanTimeline::Materializer::invalidate() {
  scratch_->generation = kNoGeneration;
}

SanTimeline::SanTimeline(const SocialAttributeNetwork& network) {
  const auto node_times = network.social_node_times();
  social_node_times_.assign(node_times.begin(), node_times.end());

  const auto social_log = network.social_log();
  {
    std::vector<double> times(social_log.size());
    for (std::size_t i = 0; i < social_log.size(); ++i) {
      times[i] = social_log[i].time;
    }
    const auto order = stable_order_by_time(times);
    edge_src_.resize(social_log.size());
    edge_dst_.resize(social_log.size());
    edge_time_.resize(social_log.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto& e = social_log[order[i]];
      edge_src_[i] = e.src;
      edge_dst_[i] = e.dst;
      edge_time_[i] = e.time;
    }
  }

  const auto attribute_log = network.attribute_log();
  {
    std::vector<double> times(attribute_log.size());
    for (std::size_t i = 0; i < attribute_log.size(); ++i) {
      times[i] = attribute_log[i].time;
    }
    const auto order = stable_order_by_time(times);
    link_user_.resize(attribute_log.size());
    link_attr_.resize(attribute_log.size());
    link_time_.resize(attribute_log.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      const auto& link = attribute_log[order[i]];
      link_user_[i] = link.user;
      link_attr_[i] = link.attr;
      link_time_[i] = link.time;
    }
  }

  const std::size_t n_attr = network.attribute_node_count();
  attr_types_.reserve(n_attr);
  attr_times_.reserve(n_attr);
  for (AttrId a = 0; a < n_attr; ++a) {
    attr_types_.push_back(network.attribute_type(a));
    attr_times_.push_back(network.attribute_node_time(a));
  }
  {
    const auto order = stable_order_by_time(attr_times_);
    attr_order_.resize(n_attr);
    attr_sorted_times_.resize(n_attr);
    for (std::size_t i = 0; i < n_attr; ++i) {
      attr_order_[i] = static_cast<AttrId>(order[i]);
      attr_sorted_times_[i] = attr_times_[order[i]];
    }
  }

  max_time_ = 0.0;
  if (!social_node_times_.empty()) max_time_ = social_node_times_.back();
  if (!edge_time_.empty()) max_time_ = std::max(max_time_, edge_time_.back());
  if (!link_time_.empty()) max_time_ = std::max(max_time_, link_time_.back());
  for (const double t : attr_times_) max_time_ = std::max(max_time_, t);
}

void SanTimeline::absorb(const SocialAttributeNetwork& network) {
  const auto node_times = network.social_node_times();
  const auto social_log = network.social_log();
  const auto attribute_log = network.attribute_log();
  const std::size_t n_attr = network.attribute_node_count();
  if (node_times.size() < social_node_times_.size() ||
      social_log.size() < edge_time_.size() ||
      attribute_log.size() < link_time_.size() ||
      n_attr < attr_times_.size()) {
    throw std::invalid_argument(
        "SanTimeline::absorb: network holds fewer events than the index");
  }
  index_.reset();

  // Social nodes: join times are non-decreasing (the network enforces it)
  // and ids are chronological, so node rows append without a merge.
  social_node_times_.insert(
      social_node_times_.end(),
      node_times.begin() +
          static_cast<std::ptrdiff_t>(social_node_times_.size()),
      node_times.end());

  AbsorbScratch& s = absorb_;

  if (social_log.size() > edge_time_.size()) {
    const std::size_t old_m = edge_time_.size();
    s.chunk_times.resize(social_log.size() - old_m);
    for (std::size_t i = 0; i < s.chunk_times.size(); ++i) {
      s.chunk_times[i] = social_log[old_m + i].time;
    }
    stable_order_by_time_into(s.chunk_times, s.order);
    for (const std::uint64_t k : s.order) {
      const auto& e = social_log[old_m + k];
      edge_src_.push_back(e.src);
      edge_dst_.push_back(e.dst);
      edge_time_.push_back(e.time);
    }
    const std::size_t pos =
        merge_suffix_permutation(edge_time_, old_m, s.perm);
    apply_suffix_permutation(edge_src_, pos, s.perm, s.id_scratch);
    apply_suffix_permutation(edge_dst_, pos, s.perm, s.id_scratch);
    apply_suffix_permutation(edge_time_, pos, s.perm, s.time_scratch);
  }

  if (attribute_log.size() > link_time_.size()) {
    const std::size_t old_m = link_time_.size();
    s.chunk_times.resize(attribute_log.size() - old_m);
    for (std::size_t i = 0; i < s.chunk_times.size(); ++i) {
      s.chunk_times[i] = attribute_log[old_m + i].time;
    }
    stable_order_by_time_into(s.chunk_times, s.order);
    for (const std::uint64_t k : s.order) {
      const auto& link = attribute_log[old_m + k];
      link_user_.push_back(link.user);
      link_attr_.push_back(link.attr);
      link_time_.push_back(link.time);
    }
    const std::size_t pos =
        merge_suffix_permutation(link_time_, old_m, s.perm);
    apply_suffix_permutation(link_user_, pos, s.perm, s.id_scratch);
    apply_suffix_permutation(link_attr_, pos, s.perm, s.attr_scratch);
    apply_suffix_permutation(link_time_, pos, s.perm, s.time_scratch);
  }

  if (n_attr > attr_times_.size()) {
    const std::size_t old_n = attr_times_.size();
    for (std::size_t a = old_n; a < n_attr; ++a) {
      attr_types_.push_back(network.attribute_type(static_cast<AttrId>(a)));
      attr_times_.push_back(
          network.attribute_node_time(static_cast<AttrId>(a)));
    }
    s.chunk_times.assign(
        attr_times_.begin() + static_cast<std::ptrdiff_t>(old_n),
        attr_times_.end());
    stable_order_by_time_into(s.chunk_times, s.order);
    for (const std::uint64_t k : s.order) {
      attr_order_.push_back(static_cast<AttrId>(old_n + k));
      attr_sorted_times_.push_back(s.chunk_times[k]);
    }
    const std::size_t pos =
        merge_suffix_permutation(attr_sorted_times_, old_n, s.perm);
    apply_suffix_permutation(attr_order_, pos, s.perm, s.attr_scratch);
    apply_suffix_permutation(attr_sorted_times_, pos, s.perm,
                             s.time_scratch);
  }

  if (!social_node_times_.empty()) {
    max_time_ = std::max(max_time_, social_node_times_.back());
  }
  if (!edge_time_.empty()) max_time_ = std::max(max_time_, edge_time_.back());
  if (!link_time_.empty()) max_time_ = std::max(max_time_, link_time_.back());
  if (!attr_sorted_times_.empty()) {
    max_time_ = std::max(max_time_, attr_sorted_times_.back());
  }
}

const SanTimeline::LinkIndex& SanTimeline::link_index() const {
  // Serial by design: a core-substrate pool lane may be blocked on this
  // mutex, so the build must never wait on pool work.
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (index_) return *index_;
  obs::TraceSpan span("timeline.index");
  const std::size_t m = edge_time_.size();
  if (m > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(
        "SanTimeline: social log exceeds 2^32-1 links, the link index "
        "position limit");
  }
  const std::size_t n = social_node_times_.size();
  const auto valid = [&](std::size_t i) {
    return edge_src_[i] < n && edge_dst_[i] < n;
  };
  const auto prefix_sum = [&](std::vector<std::uint64_t>& off) {
    for (std::size_t u = 0; u < n; ++u) off[u + 1] += off[u];
  };
  auto index = std::make_unique<LinkIndex>();
  index->out_off.assign(n + 1, 0);
  index->in_off.assign(n + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    if (!valid(i)) continue;
    ++index->out_off[edge_src_[i] + 1];
    ++index->in_off[edge_dst_[i] + 1];
  }
  prefix_sum(index->out_off);
  prefix_sum(index->in_off);
  const std::size_t kept = index->out_off[n];

  // Three stable counting scatters. Log positions grouped by source; those
  // grouped by target (sources ascending per target: the in-CSR); and the
  // in-CSR regrouped by source (targets ascending per source: the out-CSR).
  std::vector<std::uint64_t> cursor(index->out_off.begin(),
                                    index->out_off.end() - 1);
  std::vector<std::uint32_t> by_src(kept);
  for (std::size_t i = 0; i < m; ++i) {
    if (valid(i)) {
      by_src[cursor[edge_src_[i]]++] = static_cast<std::uint32_t>(i);
    }
  }
  cursor.assign(index->in_off.begin(), index->in_off.end() - 1);
  index->in.resize(kept);
  for (const std::uint32_t i : by_src) {
    index->in[cursor[edge_dst_[i]]++] = {edge_src_[i], i};
  }
  cursor.assign(index->out_off.begin(), index->out_off.end() - 1);
  index->out.resize(kept);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::uint64_t k = index->in_off[v]; k < index->in_off[v + 1]; ++k) {
      const auto [u, pos] = index->in[k];
      index->out[cursor[u]++] = {static_cast<NodeId>(v), pos};
    }
  }
  index_ = std::move(index);
  return *index_;
}

// Social layer: filter the link index. One chunk-parallel pass counts each
// joined node's surviving entries per direction, a serial prefix sum lays
// them out (packed, or with slack headroom per node so advance() can
// append later days in place), and one chunk-parallel pass copies them —
// already sorted, because each index list is — into fresh arrays the
// snapshot adopts. Per-node writes are disjoint, so the result is
// byte-identical at any thread count.
std::size_t SanTimeline::filter_social(std::size_t n_social,
                                       std::size_t edge_prefix,
                                       SanSnapshot& snap,
                                       Scratch* slack) const {
  const LinkIndex& index = link_index();
  // Visits node u's surviving entries: neighbours < n_social form a prefix
  // of its sorted list.
  const auto for_each_kept = [&](const std::vector<std::uint64_t>& off,
                                 const std::vector<LinkIndex::Entry>& entries,
                                 std::size_t u, auto&& fn) {
    for (std::uint64_t k = off[u]; k < off[u + 1]; ++k) {
      const LinkIndex::Entry& e = entries[k];
      if (e.node >= n_social) break;
      if (e.pos < edge_prefix) fn(e.node);
    }
  };

  std::vector<std::uint32_t> out_len(n_social), in_len(n_social);
  core::parallel_for(n_social, [&](std::size_t u) {
    std::uint32_t out = 0, in = 0;
    for_each_kept(index.out_off, index.out, u, [&](NodeId) { ++out; });
    for_each_kept(index.in_off, index.in, u, [&](NodeId) { ++in; });
    out_len[u] = out;
    in_len[u] = in;
  });
  const auto capacity = [&](std::uint32_t len) -> std::uint64_t {
    return slack ? graph::slack_capacity(len) : len;
  };
  std::vector<std::uint64_t> out_off(n_social + 1, 0), in_off(n_social + 1, 0);
  std::size_t kept = 0;
  for (std::size_t u = 0; u < n_social; ++u) {
    out_off[u + 1] = out_off[u] + capacity(out_len[u]);
    in_off[u + 1] = in_off[u] + capacity(in_len[u]);
    kept += out_len[u];
  }
  std::vector<NodeId> out_targets(out_off[n_social]);
  std::vector<NodeId> in_targets(in_off[n_social]);
  core::parallel_for(n_social, [&](std::size_t u) {
    NodeId* out = out_targets.data() + out_off[u];
    NodeId* in = in_targets.data() + in_off[u];
    for_each_kept(index.out_off, index.out, u, [&](NodeId v) { *out++ = v; });
    for_each_kept(index.in_off, index.in, u, [&](NodeId v) { *in++ = v; });
  });
  snap.social.adopt_adjacency(n_social, out_off, std::move(out_len),
                              std::move(out_targets), in_off,
                              std::move(in_len), std::move(in_targets));

  // The common case drops nothing; otherwise one serial sweep collects the
  // links whose endpoint has not joined yet, in log order.
  if (slack) {
    slack->deferred_social.clear();
    if (kept < edge_prefix) {
      for (std::size_t i = 0; i < edge_prefix; ++i) {
        if (edge_src_[i] >= n_social || edge_dst_[i] >= n_social) {
          slack->deferred_social.emplace_back(edge_src_[i], edge_dst_[i]);
        }
      }
    }
  }
  return edge_prefix - kept;
}

// Attribute links: the prefix is already in stable time order, so a
// filtered copy preserves exactly the order the naive path produces.
// Dropped links are counted and, for a slack build, remembered — they
// activate once their user joins or their attribute is created.
std::size_t SanTimeline::build_attribute_links(std::size_t n_social,
                                               std::size_t link_prefix,
                                               SanSnapshot& snap,
                                               Scratch* slack) const {
  std::vector<NodeId> users;
  std::vector<AttrId> attrs;
  std::size_t dropped = 0;
  if (slack) slack->deferred_attr.clear();
  for (std::size_t i = 0; i < link_prefix; ++i) {
    if (link_user_[i] >= n_social || !snap.attribute_created[link_attr_[i]]) {
      ++dropped;
      if (slack) {
        slack->deferred_attr.emplace_back(link_user_[i], link_attr_[i]);
      }
      continue;
    }
    users.push_back(link_user_[i]);
    attrs.push_back(link_attr_[i]);
  }
  snap.attribute.rebuild_from_links(n_social, attr_times_.size(), users,
                                    attrs, slack != nullptr);
  return dropped;
}

void SanTimeline::materialize(double time, SanSnapshot& snap,
                              Scratch* slack) const {
  snap.generation = next_snapshot_generation();
  snap.time = time;

  const std::size_t n_social = prefix_at(social_node_times_, time);
  const std::size_t edge_prefix = prefix_at(edge_time_, time);
  const std::size_t dropped_edges =
      filter_social(n_social, edge_prefix, snap, slack);

  // Attribute nodes created by t; ids stay dense and aligned.
  const std::size_t n_attr = attr_times_.size();
  const std::size_t created_prefix = prefix_at(attr_sorted_times_, time);
  snap.attribute_types.assign(n_attr, AttributeType::kOther);
  snap.attribute_created.assign(n_attr, 0);
  for (std::size_t k = 0; k < created_prefix; ++k) {
    const AttrId a = attr_order_[k];
    snap.attribute_created[a] = 1;
    snap.attribute_types[a] = attr_types_[a];
  }
  snap.created_attribute_count = created_prefix;

  const std::size_t link_prefix = prefix_at(link_time_, time);
  const std::size_t dropped_links =
      build_attribute_links(n_social, link_prefix, snap, slack);
  snap.attribute_link_count = snap.attribute.link_count();
  snap.dropped_link_count = dropped_edges + dropped_links;
  if (!slack) return;

  // A slack build is advance-ready: remember what `snap` now holds.
  slack->generation = snap.generation;
  slack->n_social = n_social;
  slack->edge_prefix = edge_prefix;
  slack->link_prefix = link_prefix;
  slack->created_prefix = created_prefix;
}

void SanTimeline::advance(double time, SanSnapshot& snap, Scratch& s) const {
  // Only what this scratch last produced (or a copy: same generation)
  // takes a delta; anything else gets a full build.
  if (snap.generation != s.generation || time < snap.time) {
    materialize(time, snap, &s);
    return;
  }
  // Restamp before the first write: a rewrite that throws halfway must
  // not pass for the old content.
  snap.generation = next_snapshot_generation();
  // The timeline may have absorbed new attribute nodes since this snapshot
  // was produced (live ingestion): extend the dense id-space arrays — ids
  // only ever append, so existing entries keep their positions.
  const std::size_t n_attr = attr_times_.size();
  if (snap.attribute_created.size() < n_attr) {
    snap.attribute_created.resize(n_attr, 0);
    snap.attribute_types.resize(n_attr, AttributeType::kOther);
  }
  const std::size_t n_new = prefix_at(social_node_times_, time);
  const std::size_t edge_prefix_new = prefix_at(edge_time_, time);
  const std::size_t link_prefix_new = prefix_at(link_time_, time);
  const std::size_t created_new = prefix_at(attr_sorted_times_, time);

  // ---- Social graph: activated deferred links + the (t, t'] slice are
  // one sorted batch appended into the per-node slack. ----
  s.delta_edges.clear();
  if (n_new > s.n_social && !s.deferred_social.empty()) {
    std::size_t w = 0;
    for (const auto& e : s.deferred_social) {
      if (e.first < n_new && e.second < n_new) {
        s.delta_edges.push_back(e);  // endpoint joined: the link activates
      } else {
        s.deferred_social[w++] = e;
      }
    }
    s.deferred_social.resize(w);
  }
  for (std::size_t i = s.edge_prefix; i < edge_prefix_new; ++i) {
    if (edge_src_[i] >= n_new || edge_dst_[i] >= n_new) {
      s.deferred_social.emplace_back(edge_src_[i], edge_dst_[i]);
    } else {
      s.delta_edges.emplace_back(edge_src_[i], edge_dst_[i]);
    }
  }
  if (!s.delta_edges.empty() || n_new > s.n_social) {
    std::sort(s.delta_edges.begin(), s.delta_edges.end());
    s.delta_src.resize(s.delta_edges.size());
    s.delta_dst.resize(s.delta_edges.size());
    for (std::size_t i = 0; i < s.delta_edges.size(); ++i) {
      s.delta_src[i] = s.delta_edges[i].first;
      s.delta_dst[i] = s.delta_edges[i].second;
    }
    if (!snap.social.append_sorted_links(n_new, s.delta_src, s.delta_dst)) {
      // Slack exhausted somewhere: full rebuild re-reserves against the
      // grown degrees (amortized-doubling, so this stays rare).
      filter_social(n_new, edge_prefix_new, snap, &s);
    }
  }

  // ---- Attribute nodes created in (t, t']. ----
  for (std::size_t k = s.created_prefix; k < created_new; ++k) {
    const AttrId a = attr_order_[k];
    snap.attribute_created[a] = 1;
    snap.attribute_types[a] = attr_types_[a];
  }
  snap.created_attribute_count = created_new;

  // ---- Attribute links. An activated deferred link belongs in the MIDDLE
  // of its members_of list (global time order), which append cannot
  // express — rebuild the layer instead. ----
  bool activated = false;
  for (const auto& [u, a] : s.deferred_attr) {
    if (u < n_new && snap.attribute_created[a]) {
      activated = true;
      break;
    }
  }
  if (activated) {
    build_attribute_links(n_new, link_prefix_new, snap, &s);
  } else {
    s.delta_users.clear();
    s.delta_attrs.clear();
    for (std::size_t i = s.link_prefix; i < link_prefix_new; ++i) {
      if (link_user_[i] >= n_new ||
          !snap.attribute_created[link_attr_[i]]) {
        s.deferred_attr.emplace_back(link_user_[i], link_attr_[i]);
      } else {
        s.delta_users.push_back(link_user_[i]);
        s.delta_attrs.push_back(link_attr_[i]);
      }
    }
    if (!s.delta_users.empty() || n_new > s.n_social ||
        n_attr > snap.attribute.right_count()) {
      if (!snap.attribute.append_links(n_new, n_attr, s.delta_users,
                                       s.delta_attrs)) {
        build_attribute_links(n_new, link_prefix_new, snap, &s);
      }
    }
  }

  snap.attribute_link_count = snap.attribute.link_count();
  snap.dropped_link_count =
      s.deferred_social.size() + s.deferred_attr.size();
  snap.time = time;
  s.generation = snap.generation;
  s.n_social = n_new;
  s.edge_prefix = edge_prefix_new;
  s.link_prefix = link_prefix_new;
  s.created_prefix = created_new;
}

SanSnapshot SanTimeline::snapshot_at(double time) const {
  SanSnapshot snap;
  materialize(time, snap, nullptr);
  return snap;
}

SanSnapshot SanTimeline::snapshot_full() const {
  return snapshot_at(std::numeric_limits<double>::infinity());
}

void SanTimeline::sweep(
    std::span<const double> times,
    const std::function<void(double, const SanSnapshot&)>& visit) const {
  Materializer m(*this);
  SanSnapshot snap;
  for (const double time : times) {
    m.advance(time, snap);
    visit(time, snap);
  }
}

}  // namespace san
