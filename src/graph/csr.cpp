#include "graph/csr.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/parallel.hpp"
#include "graph/slack.hpp"

namespace san::graph {
namespace {

/// Sort-and-dedup an edge list; drops self loops.
void canonicalize(std::vector<std::pair<NodeId, NodeId>>& edges) {
  edges.erase(std::remove_if(edges.begin(), edges.end(),
                             [](const auto& e) { return e.first == e.second; }),
              edges.end());
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

}  // namespace

CsrGraph CsrGraph::from_digraph(const Digraph& g) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(g.edge_count());
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (const NodeId v : g.out_neighbors(u)) edges.emplace_back(u, v);
  }
  return build(g.node_count(), std::move(edges));
}

CsrGraph CsrGraph::from_edges(
    std::size_t node_count, std::span<const std::pair<NodeId, NodeId>> edges) {
  std::vector<std::pair<NodeId, NodeId>> copy(edges.begin(), edges.end());
  for (const auto& [u, v] : copy) {
    if (u >= node_count || v >= node_count) {
      throw std::out_of_range("CsrGraph::from_edges: node id out of range");
    }
  }
  return build(node_count, std::move(copy));
}

CsrGraph CsrGraph::from_sorted_edges(
    std::size_t node_count, std::span<const std::pair<NodeId, NodeId>> edges) {
  std::vector<NodeId> srcs(edges.size()), dsts(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    srcs[i] = edges[i].first;
    dsts[i] = edges[i].second;
  }
  CsrGraph g;
  g.rebuild_from_sorted_edges(node_count, srcs, dsts);
  return g;
}

CsrGraph CsrGraph::build(std::size_t node_count,
                         std::vector<std::pair<NodeId, NodeId>> edges) {
  canonicalize(edges);
  return from_sorted_edges(node_count, edges);
}

void CsrGraph::rebuild_from_sorted_edges(std::size_t node_count,
                                         std::span<const NodeId> srcs,
                                         std::span<const NodeId> dsts,
                                         bool with_slack) {
  if (srcs.size() != dsts.size()) {
    throw std::invalid_argument("CsrGraph: srcs/dsts size mismatch");
  }
  const std::size_t m = srcs.size();

  // Single validation + counting pass. `keep(i)` = not a self loop and not
  // equal to the previous kept edge (sorted input makes duplicates adjacent).
  const auto keep = [&](std::size_t i) {
    if (srcs[i] == dsts[i]) return false;
    if (i > 0 && srcs[i] == srcs[i - 1] && dsts[i] == dsts[i - 1]) return false;
    return true;
  };
  out_len_.assign(node_count, 0);
  in_len_.assign(node_count, 0);
  std::uint64_t kept = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (srcs[i] >= node_count || dsts[i] >= node_count) {
      throw std::out_of_range("CsrGraph: node id out of range");
    }
    if (i > 0 && (srcs[i] < srcs[i - 1] ||
                  (srcs[i] == srcs[i - 1] && dsts[i] < dsts[i - 1]))) {
      throw std::invalid_argument("CsrGraph: edges not sorted by (src, dst)");
    }
    if (!keep(i)) continue;
    ++out_len_[srcs[i]];
    ++in_len_[dsts[i]];
    ++kept;
  }
  edge_count_ = kept;
  std::vector<std::uint64_t> out_offsets(node_count + 1, 0);
  std::vector<std::uint64_t> in_offsets(node_count + 1, 0);
  for (std::size_t u = 0; u < node_count; ++u) {
    const std::size_t out_cap =
        with_slack ? slack_capacity(out_len_[u]) : out_len_[u];
    const std::size_t in_cap =
        with_slack ? slack_capacity(in_len_[u]) : in_len_[u];
    out_offsets[u + 1] = out_offsets[u] + out_cap;
    in_offsets[u + 1] = in_offsets[u] + in_cap;
  }
  adopt_layout(node_count, out_offsets, in_offsets);

  // Outgoing lists fill in input order (already dst-sorted per src); the
  // incoming scatter visits sources in ascending order per target, so
  // in-lists come out sorted as well.
  out_targets_.resize(out_offsets.back());
  in_targets_.resize(in_offsets.back());
  {
    // Src-major input: one running out cursor that jumps to the node's
    // storage start whenever the source changes.
    bool have_src = false;
    NodeId cur_src = 0;
    std::uint64_t out_cursor = 0;
    std::vector<std::uint64_t> in_cursor(in_start_.begin(), in_start_.end());
    for (std::size_t i = 0; i < m; ++i) {
      if (!keep(i)) continue;
      if (!have_src || srcs[i] != cur_src) {
        have_src = true;
        cur_src = srcs[i];
        out_cursor = out_start_[cur_src];
      }
      out_targets_[out_cursor++] = dsts[i];
      in_targets_[in_cursor[dsts[i]]++] = srcs[i];
    }
  }

  build_neighbor_view();
}

void CsrGraph::adopt_layout(std::size_t node_count,
                            std::span<const std::uint64_t> out_offsets,
                            std::span<const std::uint64_t> in_offsets) {
  node_count_ = node_count;
  out_start_.resize(node_count);
  out_cap_.resize(node_count);
  in_start_.resize(node_count);
  in_cap_.resize(node_count);
  nbr_start_.resize(node_count);
  nbr_cap_.resize(node_count);
  for (std::size_t u = 0; u < node_count; ++u) {
    out_start_[u] = out_offsets[u];
    out_cap_[u] = static_cast<std::uint32_t>(out_offsets[u + 1] -
                                             out_offsets[u]);
    in_start_[u] = in_offsets[u];
    in_cap_[u] = static_cast<std::uint32_t>(in_offsets[u + 1] -
                                            in_offsets[u]);
    // Each node's neighbor region sits at its worst-case slot (out + in
    // capacity prefix), disjoint by the offsets' monotonicity.
    nbr_start_[u] = out_offsets[u] + in_offsets[u];
    nbr_cap_[u] = out_cap_[u] + in_cap_[u];
  }
  out_waste_ = 0;
  in_waste_ = 0;
  nbr_waste_ = 0;
}

void CsrGraph::adopt_adjacency(std::size_t node_count,
                               std::span<const std::uint64_t> out_offsets,
                               std::vector<std::uint32_t> out_len,
                               std::vector<NodeId> out_targets,
                               std::span<const std::uint64_t> in_offsets,
                               std::vector<std::uint32_t> in_len,
                               std::vector<NodeId> in_targets) {
  if (out_offsets.size() != node_count + 1 ||
      in_offsets.size() != node_count + 1 || out_len.size() != node_count ||
      in_len.size() != node_count || out_offsets.front() != 0 ||
      in_offsets.front() != 0 || out_offsets.back() != out_targets.size() ||
      in_offsets.back() != in_targets.size()) {
    throw std::invalid_argument("CsrGraph::adopt_adjacency: bad shape");
  }
  std::uint64_t out_total = 0, in_total = 0;
  for (std::size_t u = 0; u < node_count; ++u) {
    if (out_offsets[u + 1] < out_offsets[u] ||
        in_offsets[u + 1] < in_offsets[u]) {
      throw std::invalid_argument(
          "CsrGraph::adopt_adjacency: offsets not monotone");
    }
    if (out_offsets[u] + out_len[u] > out_offsets[u + 1] ||
        in_offsets[u] + in_len[u] > in_offsets[u + 1]) {
      throw std::invalid_argument(
          "CsrGraph::adopt_adjacency: length exceeds node capacity");
    }
    out_total += out_len[u];
    in_total += in_len[u];
  }
  if (out_total != in_total) {
    throw std::invalid_argument(
        "CsrGraph::adopt_adjacency: out/in edge totals disagree");
  }
#ifndef NDEBUG
  for (std::size_t u = 0; u < node_count; ++u) {
    for (const bool out_side : {true, false}) {
      const auto& off = out_side ? out_offsets : in_offsets;
      const auto& len = out_side ? out_len : in_len;
      const auto& arr = out_side ? out_targets : in_targets;
      for (std::uint64_t i = off[u]; i + 1 < off[u] + len[u]; ++i) {
        if (arr[i] >= arr[i + 1]) {
          throw std::invalid_argument(
              "CsrGraph::adopt_adjacency: unsorted adjacency");
        }
      }
    }
  }
#endif
  edge_count_ = out_total;
  adopt_layout(node_count, out_offsets, in_offsets);
  out_len_ = std::move(out_len);
  out_targets_ = std::move(out_targets);
  in_len_ = std::move(in_len);
  in_targets_ = std::move(in_targets);
  build_neighbor_view();
}

bool CsrGraph::append_sorted_links(std::size_t new_node_count,
                                   std::span<const NodeId> srcs,
                                   std::span<const NodeId> dsts) {
  if (srcs.size() != dsts.size()) {
    throw std::invalid_argument("CsrGraph::append: srcs/dsts size mismatch");
  }
  if (new_node_count < node_count_) {
    throw std::invalid_argument("CsrGraph::append: node count may not shrink");
  }
  const std::size_t m = srcs.size();
  const std::size_t old_n = node_count_;
  // Validate the whole batch first: a bad link throws before any state,
  // scratch included, mutates.
  for (std::size_t i = 0; i < m; ++i) {
    if (srcs[i] >= new_node_count || dsts[i] >= new_node_count) {
      throw std::out_of_range("CsrGraph::append: node id out of range");
    }
    if (srcs[i] == dsts[i]) {
      throw std::invalid_argument("CsrGraph::append: self loop");
    }
    if (i > 0 && (srcs[i] < srcs[i - 1] ||
                  (srcs[i] == srcs[i - 1] && dsts[i] <= dsts[i - 1]))) {
      throw std::invalid_argument(
          "CsrGraph::append: edges not sorted by (src, dst)");
    }
  }

  // The touched nodes and their per-side counts and runs, from the batch
  // alone (graph/slack.hpp). Sources are touched first, in the batch's
  // ascending src order, so the out prefix over the touched list is each
  // src run's batch offset. In runs come from a stable scatter by dst
  // through the slots, so each node's new sources stay ascending. The
  // passes are serial, so the touched order, and with it the order of the
  // relocation tails, is deterministic.
  grow_slots(slot_, new_node_count);
  touched_.clear();
  out_delta_.clear();
  in_delta_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    ++out_delta_[touch(srcs[i], slot_, touched_, out_delta_, in_delta_)].add;
  }
  for (std::size_t i = 0; i < m; ++i) {
    ++in_delta_[touch(dsts[i], slot_, touched_, out_delta_, in_delta_)].add;
  }
  assign_runs(out_delta_);
  assign_runs(in_delta_);
  delta_in_src_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    delta_in_src_[in_delta_[slot_[dsts[i]]].run++] = srcs[i];
  }
  for (SideDelta& d : in_delta_) d.run -= d.add;
  release_slots(touched_, slot_);

  // Waste policy check BEFORE any mutation: relocating every overflowing
  // region must not strand more dead slots than there are live entries —
  // past that point a compacting rebuild is cheaper, so refuse and leave
  // the graph untouched for the caller.
  std::uint64_t out_hole = 0, in_hole = 0, nbr_hole = 0;
  for (std::size_t ti = 0; ti < touched_.size(); ++ti) {
    const std::size_t u = touched_[ti];
    if (u >= old_n) continue;
    const bool move_out = out_len_[u] + out_delta_[ti].add > out_cap_[u];
    const bool move_in = in_len_[u] + in_delta_[ti].add > in_cap_[u];
    if (move_out) out_hole += out_cap_[u];
    if (move_in) in_hole += in_cap_[u];
    if (move_out || move_in) nbr_hole += nbr_cap_[u];
  }
  const std::uint64_t live = edge_count_ + m;
  if (out_waste_ + out_hole > live || in_waste_ + in_hole > live ||
      nbr_waste_ + nbr_hole > 2 * live) {
    return false;
  }

  // Plan relocations and joining-node regions serially in touched order,
  // then grow the arrays once.
  out_start_.resize(new_node_count, 0);
  out_cap_.resize(new_node_count, 0);
  out_len_.resize(new_node_count, 0);
  in_start_.resize(new_node_count, 0);
  in_cap_.resize(new_node_count, 0);
  in_len_.resize(new_node_count, 0);
  nbr_start_.resize(new_node_count, 0);
  nbr_cap_.resize(new_node_count, 0);
  nbr_len_.resize(new_node_count, 0);
  std::uint64_t out_tail = out_targets_.size();
  std::uint64_t in_tail = in_targets_.size();
  std::uint64_t nbr_tail = nbr_targets_.size();
  for (std::size_t ti = 0; ti < touched_.size(); ++ti) {
    const std::size_t u = touched_[ti];
    SideDelta& o = out_delta_[ti];
    SideDelta& i = in_delta_[ti];
    plan_region(u, o, old_n, out_start_, out_cap_, out_len_, out_waste_,
                out_tail);
    plan_region(u, i, old_n, in_start_, in_cap_, in_len_, in_waste_,
                in_tail);
    // A joining or relocated node gets a fresh neighbor region sized to
    // its new out + in capacity.
    const bool moved = o.old_start != kInPlace || i.old_start != kInPlace;
    if (u < old_n && !moved) continue;
    if (moved) nbr_waste_ += nbr_cap_[u];
    nbr_start_[u] = nbr_tail;
    nbr_cap_[u] = out_cap_[u] + in_cap_[u];
    nbr_tail += nbr_cap_[u];
  }
  node_count_ = new_node_count;
  out_targets_.resize(out_tail);
  in_targets_.resize(in_tail);
  nbr_targets_.resize(nbr_tail);
  delta_nbr_.resize(2 * m);

  // Per-node work is independent (disjoint regions) — one parallel pass
  // merges both sides and the neighbor view, byte-identical at any thread
  // count. A node that keeps its regions merges into its neighbor list
  // only the new neighbors it lacks; its region has room, since nbr_cap
  // is out_cap + in_cap. A relocated node unions its lists afresh.
  core::parallel_for(touched_.size(), [&](std::size_t ti) {
    const std::size_t u = touched_[ti];
    const SideDelta& o = out_delta_[ti];
    const SideDelta& i = in_delta_[ti];
    const NodeId* new_out = dsts.data() + o.run;
    const NodeId* new_in = delta_in_src_.data() + i.run;
    merge_into_region(out_targets_.data(), out_start_[u], out_len_[u],
                      o.old_start, new_out, o.add);
    merge_into_region(in_targets_.data(), in_start_[u], in_len_[u],
                      i.old_start, new_in, i.add);
    if (o.old_start != kInPlace || i.old_start != kInPlace) {
      rebuild_neighbors_of(u);
      return;
    }
    NodeId* nbr = nbr_targets_.data() + nbr_start_[u];
    const std::uint32_t len = nbr_len_[u];
    // Disjoint scratch: the node's out and in run offsets sum to its share
    // of the 2m-entry column.
    NodeId* fresh = delta_nbr_.data() + o.run + i.run;
    NodeId* end =
        std::set_union(new_out, new_out + o.add, new_in, new_in + i.add, fresh);
    end = std::remove_if(fresh, end, [&](NodeId v) {
      return std::binary_search(nbr, nbr + len, v);
    });
    const auto added = static_cast<std::size_t>(end - fresh);
    merge_sorted_tail(nbr, len, fresh, added);
    nbr_len_[u] = len + static_cast<std::uint32_t>(added);
  });
  edge_count_ += m;
  return true;
}

void CsrGraph::rebuild_neighbors_of(std::size_t u) {
  const auto o = out(static_cast<NodeId>(u));
  const auto i = in(static_cast<NodeId>(u));
  const auto begin =
      nbr_targets_.begin() + static_cast<std::ptrdiff_t>(nbr_start_[u]);
  const auto end = std::set_union(o.begin(), o.end(), i.begin(), i.end(),
                                  begin);
  nbr_len_[u] = static_cast<std::uint32_t>(end - begin);
}

void CsrGraph::build_neighbor_view() {
  // Undirected neighbor view: per-node set_union of the two sorted lists,
  // written at each node's worst-case region — one chunked merge pass, no
  // counting prescan, byte-identical at any thread count.
  nbr_len_.resize(node_count_);
  nbr_targets_.resize(out_targets_.size() + in_targets_.size());
  core::parallel_for(node_count_,
                     [&](std::size_t u) { rebuild_neighbors_of(u); });
}

std::span<const NodeId> CsrGraph::out(NodeId u) const {
  if (u >= node_count_) throw std::out_of_range("CsrGraph: unknown node id");
  return {out_targets_.data() + out_start_[u],
          static_cast<std::size_t>(out_len_[u])};
}

std::span<const NodeId> CsrGraph::in(NodeId u) const {
  if (u >= node_count_) throw std::out_of_range("CsrGraph: unknown node id");
  return {in_targets_.data() + in_start_[u],
          static_cast<std::size_t>(in_len_[u])};
}

std::span<const NodeId> CsrGraph::neighbors(NodeId u) const {
  if (u >= node_count_) throw std::out_of_range("CsrGraph: unknown node id");
  return {nbr_targets_.data() + nbr_start_[u], nbr_len_[u]};
}

bool CsrGraph::has_edge(NodeId u, NodeId v) const {
  const auto o = out(u);
  return std::binary_search(o.begin(), o.end(), v);
}

int CsrGraph::link_count(NodeId v, NodeId w) const {
  return static_cast<int>(has_edge(v, w)) + static_cast<int>(has_edge(w, v));
}

}  // namespace san::graph
