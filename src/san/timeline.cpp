#include "san/timeline.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/counting_scatter.hpp"
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

// Attribute links of one build: the filtered prefix in time order, plus
// every dropped link (those activate later, when their user joins or their
// attribute is created).
struct SanTimeline::AttrLinkBuffers {
  std::vector<NodeId> users;
  std::vector<AttrId> attrs;
  std::vector<std::pair<NodeId, AttrId>> deferred;
};

// Full-network link index behind the dense path: the out- and in-CSR of
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
  // Slack social CSR build: shared counting-scatter engines plus the arrays
  // handed to the snapshot's CsrGraph by buffer swap (adopt_adjacency), so
  // full rebuilds ping-pong two buffer sets with zero steady-state
  // allocation.
  core::StableCountingScatter by_src, by_dst, by_rank;
  std::vector<std::uint64_t> counts;
  std::vector<NodeId> g_dst;  // src-major dst sequence, dense ranks
  std::vector<std::uint64_t> out_off, in_off;  // storage starts (cap prefix)
  std::vector<std::uint32_t> out_len, in_len;
  std::vector<NodeId> out_targets, in_targets;
  std::vector<std::uint64_t> dense_out, dense_in;  // dense rank prefixes
  AttrLinkBuffers attr_links;

  // Delta-sweep state: which snapshot this scratch last produced, the log
  // prefixes it covers, and every logged social link it had to drop.
  bool delta_valid = false;
  const SanSnapshot* delta_snap = nullptr;
  double delta_time = 0.0;
  std::size_t n_social = 0;
  std::size_t edge_prefix = 0;
  std::size_t link_prefix = 0;
  std::size_t created_prefix = 0;
  // Attribute id-space size when the snapshot was produced: absorb() can
  // grow the space between advances, which is legal (the snapshot's dense
  // arrays are extended), unlike a size mismatch against this record
  // (a foreign snapshot), which forces a full build.
  std::size_t attr_total = 0;
  std::vector<std::pair<NodeId, NodeId>> deferred_edges;
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

void SanTimeline::Materializer::invalidate() { scratch_->delta_valid = false; }

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

// Dense social layer: filter the link index. One chunk-parallel pass counts
// each joined node's surviving entries per direction, a serial prefix sum
// lays them out, and one chunk-parallel pass copies them — already sorted,
// because each index list is. Per-node writes are disjoint, so the result
// is byte-identical at any thread count.
std::size_t SanTimeline::filter_social(std::size_t n_social,
                                       std::size_t edge_prefix,
                                       SanSnapshot& snap) const {
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
  std::vector<std::uint64_t> out_off(n_social + 1, 0), in_off(n_social + 1, 0);
  for (std::size_t u = 0; u < n_social; ++u) {
    out_off[u + 1] = out_off[u] + out_len[u];
    in_off[u + 1] = in_off[u] + in_len[u];
  }
  std::vector<NodeId> out_targets(out_off[n_social]);
  std::vector<NodeId> in_targets(in_off[n_social]);
  core::parallel_for(n_social, [&](std::size_t u) {
    NodeId* out = out_targets.data() + out_off[u];
    NodeId* in = in_targets.data() + in_off[u];
    for_each_kept(index.out_off, index.out, u, [&](NodeId v) { *out++ = v; });
    for_each_kept(index.in_off, index.in, u, [&](NodeId v) { *in++ = v; });
  });
  const std::size_t kept = out_targets.size();
  snap.social.adopt_adjacency(n_social, out_off, out_len, out_targets, in_off,
                              in_len, in_targets);
  return edge_prefix - kept;
}

// Slack social layer: radix-order the <= t slice into the final out/in CSR
// arrays with chunk-parallel stable counting sorts
// (core/counting_scatter.hpp) — O(prefix + nodes), no comparison sort, no
// dedup branches (the network rejects duplicate and self links at insert
// time). Every node gets slack headroom so advance() can append later
// days in place.
//
// The pipeline is FUSED to four passes over the data: the validity filter
// rides inside the src count (invalid links simply don't emit — both
// phases of a counting sort tolerate filtered sequences as long as they
// agree), and each scatter feeds the NEXT sort's chunk histograms through
// scatter_fused's hook at the moment it knows an item's output position,
// so the standalone count passes P2 and P3 used to pay disappear. The
// last sort therefore works in the in-adjacency's STORAGE slot space
// (positions are all a fused count sees); ascending storage order equals
// ascending (dst, src) order, so stable ranks — and every output byte —
// are identical to the unfused pipeline.
std::size_t SanTimeline::build_social(std::size_t n_social,
                                      std::size_t edge_prefix,
                                      SanSnapshot& snap, Scratch& s) const {
  s.deferred_edges.clear();
  const NodeId* log_src = edge_src_.data();
  const NodeId* log_dst = edge_dst_.data();
  const auto valid = [&](std::size_t i) {
    return log_src[i] < n_social && log_dst[i] < n_social;
  };

  const auto layout = [&](std::vector<std::uint32_t>& len,
                          std::vector<std::uint64_t>& off,
                          std::vector<std::uint64_t>& dense) {
    len.assign(n_social, 0);
    off.assign(n_social + 1, 0);
    dense.assign(n_social + 1, 0);
    for (std::size_t u = 0; u < n_social; ++u) {
      len[u] = static_cast<std::uint32_t>(s.counts[u]);
      off[u + 1] = off[u] + graph::slack_capacity(s.counts[u]);
      dense[u + 1] = dense[u] + s.counts[u];
    }
  };

  // P1: count by src over the RAW slice, filtering as it counts (a link
  // whose endpoint hasn't joined yet doesn't emit). The common case drops
  // nothing; when something was dropped, one serial sweep collects the
  // deferred links (they activate when their endpoint arrives).
  s.by_src.count(
      edge_prefix, n_social,
      [&](std::size_t begin, std::size_t end, auto emit) {
        for (std::size_t i = begin; i < end; ++i) {
          if (valid(i)) emit(log_src[i]);
        }
      },
      s.counts);
  layout(s.out_len, s.out_off, s.dense_out);
  const std::size_t m = s.dense_out[n_social];
  if (m < edge_prefix) {
    for (std::size_t i = 0; i < edge_prefix; ++i) {
      if (!valid(i)) s.deferred_edges.emplace_back(log_src[i], log_dst[i]);
    }
  }

  // P1 scatter: the slice lands src-major as a dense dst sequence (the
  // source of rank i is recovered from the dense prefix while walking),
  // and the hook counts each landed dst into P2's chunk histograms.
  s.g_dst.resize(m);
  s.by_dst.begin_fused_count(m, n_social);
  s.by_src.scatter_fused(
      std::span<const std::uint64_t>(s.dense_out.data(), n_social),
      [&](std::size_t begin, std::size_t end, auto emit) {
        for (std::size_t i = begin; i < end; ++i) {
          if (valid(i)) emit(log_src[i], log_dst[i]);
        }
      },
      s.g_dst.data(),
      [&](std::uint64_t pos, NodeId dst) { s.by_dst.fused_add(pos, dst); });
  s.by_dst.finish_fused_count(s.counts);
  layout(s.in_len, s.in_off, s.dense_in);

  // P2 scatter: src-major order by dst — sources arrive ascending per
  // target, which IS the final in-adjacency (written at the slack
  // layout's storage starts). The hook counts each landed source into
  // P3's histograms, keyed by the STORAGE slot it landed in.
  const auto src_major = [&](std::size_t begin, std::size_t end, auto&& fn) {
    // start == dense: the src-major intermediate is packed, so pos == rank.
    core::walk_keyed_regions(s.dense_out, s.dense_out, begin, end, fn);
  };
  s.in_targets.resize(s.in_off.back());
  s.by_rank.begin_fused_count(s.in_off.back(), n_social);
  s.by_dst.scatter_fused(
      std::span<const std::uint64_t>(s.in_off.data(), n_social),
      [&](std::size_t begin, std::size_t end, auto emit) {
        src_major(begin, end,
                  [&](std::size_t i, NodeId u) { emit(s.g_dst[i], u); });
      },
      s.in_targets.data(),
      [&](std::uint64_t pos, NodeId u) { s.by_rank.fused_add(pos, u); });

  // P3 scatter: walk the in-adjacency's live storage slots (dead slack
  // skipped region-by-region; the per-src totals were already known at
  // P1, so no finish_fused_count) and scatter by source — targets arrive
  // ascending per source, the final out-adjacency.
  s.out_targets.resize(s.out_off.back());
  s.by_rank.scatter(
      std::span<const std::uint64_t>(s.out_off.data(), n_social),
      [&](std::size_t begin, std::size_t end, auto emit) {
        core::walk_slack_slots(
            std::span<const std::uint64_t>(s.in_off.data(), n_social),
            s.in_len, begin, end, [&](std::uint64_t pos, std::size_t d) {
              emit(s.in_targets[pos], static_cast<NodeId>(d));
            });
      },
      s.out_targets.data());

  snap.social.adopt_adjacency(n_social, s.out_off, s.out_len, s.out_targets,
                              s.in_off, s.in_len, s.in_targets);
  return s.deferred_edges.size();
}

// Attribute links: the prefix is already in stable time order, so a
// filtered copy preserves exactly the order the naive path produces.
// Dropped links are remembered — they activate once their user joins or
// their attribute is created.
void SanTimeline::build_attribute_links(std::size_t n_social,
                                        std::size_t link_prefix,
                                        SanSnapshot& snap,
                                        AttrLinkBuffers& buffers,
                                        bool slack) const {
  buffers.users.clear();
  buffers.attrs.clear();
  buffers.deferred.clear();
  for (std::size_t i = 0; i < link_prefix; ++i) {
    if (link_user_[i] >= n_social || !snap.attribute_created[link_attr_[i]]) {
      buffers.deferred.emplace_back(link_user_[i], link_attr_[i]);
      continue;
    }
    buffers.users.push_back(link_user_[i]);
    buffers.attrs.push_back(link_attr_[i]);
  }
  snap.attribute.rebuild_from_links(n_social, attr_times_.size(),
                                    buffers.users, buffers.attrs, slack);
}

void SanTimeline::materialize(double time, SanSnapshot& snap,
                              Scratch* slack) const {
  snap.time = time;

  const std::size_t n_social = prefix_at(social_node_times_, time);
  const std::size_t edge_prefix = prefix_at(edge_time_, time);
  const std::size_t dropped_edges =
      slack ? build_social(n_social, edge_prefix, snap, *slack)
            : filter_social(n_social, edge_prefix, snap);

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
  AttrLinkBuffers dense_links;
  AttrLinkBuffers& links = slack ? slack->attr_links : dense_links;
  build_attribute_links(n_social, link_prefix, snap, links, slack != nullptr);
  snap.attribute_link_count = snap.attribute.link_count();
  snap.dropped_link_count = dropped_edges + links.deferred.size();
  if (!slack) return;

  // A slack build is advance-ready: remember what `snap` now holds.
  slack->delta_valid = true;
  slack->delta_snap = &snap;
  slack->delta_time = time;
  slack->n_social = n_social;
  slack->edge_prefix = edge_prefix;
  slack->link_prefix = link_prefix;
  slack->created_prefix = created_prefix;
  slack->attr_total = n_attr;
}

void SanTimeline::advance(double time, SanSnapshot& snap, Scratch& s) const {
  // The address check alone is spoofable (a new snapshot can reuse a
  // destroyed one's storage), so also require the snapshot's observable
  // state to match what this scratch last produced — any mismatch falls
  // back to a full build instead of corrupting a foreign object.
  if (!s.delta_valid || s.delta_snap != &snap || time < s.delta_time ||
      snap.time != s.delta_time ||
      snap.social.node_count() != s.n_social ||
      snap.attribute_created.size() != s.attr_total ||
      snap.created_attribute_count != s.created_prefix) {
    materialize(time, snap, &s);
    return;
  }
  // The timeline may have absorbed new attribute nodes since this snapshot
  // was produced (live ingestion): extend the dense id-space arrays — ids
  // only ever append, so existing entries keep their positions.
  const std::size_t n_attr = attr_times_.size();
  if (snap.attribute_created.size() < n_attr) {
    snap.attribute_created.resize(n_attr, 0);
    snap.attribute_types.resize(n_attr, AttributeType::kOther);
  }
  s.attr_total = n_attr;
  const std::size_t n_new = prefix_at(social_node_times_, time);
  const std::size_t edge_prefix_new = prefix_at(edge_time_, time);
  const std::size_t link_prefix_new = prefix_at(link_time_, time);
  const std::size_t created_new = prefix_at(attr_sorted_times_, time);

  // ---- Social graph: activated deferred links + the (t, t'] slice are
  // one sorted batch appended into the per-node slack. ----
  s.delta_edges.clear();
  if (n_new > s.n_social && !s.deferred_edges.empty()) {
    std::size_t w = 0;
    for (const auto& e : s.deferred_edges) {
      if (e.first < n_new && e.second < n_new) {
        s.delta_edges.push_back(e);  // endpoint joined: the link activates
      } else {
        s.deferred_edges[w++] = e;
      }
    }
    s.deferred_edges.resize(w);
  }
  for (std::size_t i = s.edge_prefix; i < edge_prefix_new; ++i) {
    if (edge_src_[i] >= n_new || edge_dst_[i] >= n_new) {
      s.deferred_edges.emplace_back(edge_src_[i], edge_dst_[i]);
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
      build_social(n_new, edge_prefix_new, snap, s);
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
  for (const auto& [u, a] : s.attr_links.deferred) {
    if (u < n_new && snap.attribute_created[a]) {
      activated = true;
      break;
    }
  }
  if (activated) {
    build_attribute_links(n_new, link_prefix_new, snap, s.attr_links,
                          /*slack=*/true);
  } else {
    s.delta_users.clear();
    s.delta_attrs.clear();
    for (std::size_t i = s.link_prefix; i < link_prefix_new; ++i) {
      if (link_user_[i] >= n_new ||
          !snap.attribute_created[link_attr_[i]]) {
        s.attr_links.deferred.emplace_back(link_user_[i], link_attr_[i]);
      } else {
        s.delta_users.push_back(link_user_[i]);
        s.delta_attrs.push_back(link_attr_[i]);
      }
    }
    if (!s.delta_users.empty() || n_new > s.n_social ||
        n_attr > snap.attribute.right_count()) {
      if (!snap.attribute.append_links(n_new, n_attr, s.delta_users,
                                       s.delta_attrs)) {
        build_attribute_links(n_new, link_prefix_new, snap, s.attr_links,
                              /*slack=*/true);
      }
    }
  }

  snap.attribute_link_count = snap.attribute.link_count();
  snap.dropped_link_count =
      s.deferred_edges.size() + s.attr_links.deferred.size();
  snap.time = time;
  s.delta_time = time;
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

void SanTimeline::sweep_full_rebuild(
    std::span<const double> times,
    const std::function<void(double, const SanSnapshot&)>& visit) const {
  SanSnapshot snap;
  for (const double time : times) {
    materialize(time, snap, nullptr);
    visit(time, snap);
  }
}

}  // namespace san
