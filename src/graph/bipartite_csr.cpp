#include "graph/bipartite_csr.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/parallel.hpp"
#include "graph/slack.hpp"

namespace san::graph {
namespace {

/// Lay per-node regions out back to back from their live lengths: each
/// node reserves its length, or slack_capacity(length) slots `with_slack`.
/// Returns the storage size.
std::uint64_t lay_out_regions(std::span<const std::uint32_t> len,
                              std::vector<std::uint64_t>& start,
                              std::vector<std::uint32_t>& cap,
                              bool with_slack) {
  start.resize(len.size());
  cap.resize(len.size());
  std::uint64_t tail = 0;
  for (std::size_t i = 0; i < len.size(); ++i) {
    start[i] = tail;
    cap[i] = static_cast<std::uint32_t>(with_slack ? slack_capacity(len[i])
                                                   : len[i]);
    tail += cap[i];
  }
  return tail;
}

}  // namespace

BipartiteCsr BipartiteCsr::from_links(std::size_t left_count,
                                      std::size_t right_count,
                                      std::span<const NodeId> users,
                                      std::span<const AttrId> attrs) {
  BipartiteCsr b;
  b.rebuild_from_links(left_count, right_count, users, attrs);
  return b;
}

void BipartiteCsr::rebuild_from_links(std::size_t left_count,
                                      std::size_t right_count,
                                      std::span<const NodeId> users,
                                      std::span<const AttrId> attrs,
                                      bool with_slack) {
  if (users.size() != attrs.size()) {
    throw std::invalid_argument("BipartiteCsr: users/attrs size mismatch");
  }
  const std::size_t m = users.size();
  for (std::size_t i = 0; i < m; ++i) {
    if (users[i] >= left_count || attrs[i] >= right_count) {
      throw std::out_of_range("BipartiteCsr: link endpoint out of range");
    }
  }
  left_count_ = left_count;
  right_count_ = right_count;
  link_count_ = m;
  left_waste_ = 0;
  right_waste_ = 0;
  right_len_.assign(right_count, 0);
  left_len_.assign(left_count, 0);
  for (std::size_t i = 0; i < m; ++i) {
    ++right_len_[attrs[i]];
    ++left_len_[users[i]];
  }
  right_targets_.resize(
      lay_out_regions(right_len_, right_start_, right_cap_, with_slack));
  left_targets_.resize(
      lay_out_regions(left_len_, left_start_, left_cap_, with_slack));

  // Both sides are stable counting sorts. Right side: bucket the links by
  // attribute in input order, so members_of(a) keeps the (time) order of
  // the input links.
  std::vector<std::uint64_t> cursor(right_start_.begin(), right_start_.end());
  for (std::size_t i = 0; i < m; ++i) {
    right_targets_[cursor[attrs[i]]++] = users[i];
  }
  // Left side from the right side: walking attributes in ascending order
  // and bucketing their members by user yields per-user attribute lists
  // already sorted ascending — no per-user sort.
  cursor.assign(left_start_.begin(), left_start_.end());
  for (std::size_t a = 0; a < right_count; ++a) {
    const NodeId* members = right_targets_.data() + right_start_[a];
    for (std::uint32_t j = 0; j < right_len_[a]; ++j) {
      left_targets_[cursor[members[j]]++] = static_cast<AttrId>(a);
    }
  }
}

bool BipartiteCsr::append_links(std::size_t new_left_count,
                                std::size_t new_right_count,
                                std::span<const NodeId> users,
                                std::span<const AttrId> attrs) {
  if (users.size() != attrs.size()) {
    throw std::invalid_argument("BipartiteCsr: users/attrs size mismatch");
  }
  if (new_left_count < left_count_ || new_right_count < right_count_) {
    throw std::invalid_argument(
        "BipartiteCsr::append_links: node counts may not shrink");
  }
  const std::size_t m = users.size();
  const std::size_t old_left = left_count_;
  const std::size_t old_right = right_count_;
  // An out-of-range endpoint throws before any state, scratch included,
  // mutates.
  for (std::size_t i = 0; i < m; ++i) {
    if (users[i] >= new_left_count || attrs[i] >= new_right_count) {
      throw std::out_of_range(
          "BipartiteCsr::append_links: link endpoint out of range");
    }
  }

  // The touched users and attributes with their counts and runs, from
  // the batch alone (graph/slack.hpp). A stable scatter by attribute keeps
  // each attribute's new members in input (time) order. The touched
  // attributes are sorted, so walking them then fills each user's run
  // already ascending; users keep their (deterministic) first-touch order.
  grow_slots(left_slot_, new_left_count);
  grow_slots(right_slot_, new_right_count);
  touched_left_.clear();
  touched_right_.clear();
  left_delta_.clear();
  for (std::size_t i = 0; i < m; ++i) {
    ++left_delta_[touch(users[i], left_slot_, touched_left_, left_delta_)].add;
    touch(attrs[i], right_slot_, touched_right_);
  }
  std::sort(touched_right_.begin(), touched_right_.end());
  for (std::size_t ti = 0; ti < touched_right_.size(); ++ti) {
    right_slot_[touched_right_[ti]] = static_cast<std::uint32_t>(ti);
  }
  right_delta_.assign(touched_right_.size(), SideDelta{});
  for (std::size_t i = 0; i < m; ++i) {
    ++right_delta_[right_slot_[attrs[i]]].add;
  }
  assign_runs(left_delta_);
  assign_runs(right_delta_);
  delta_right_users_.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    delta_right_users_[right_delta_[right_slot_[attrs[i]]].run++] = users[i];
  }
  delta_left_attrs_.resize(m);
  for (std::size_t ti = 0; ti < touched_right_.size(); ++ti) {
    SideDelta& d = right_delta_[ti];
    d.run -= d.add;
    for (std::uint64_t k = d.run; k < d.run + d.add; ++k) {
      delta_left_attrs_[left_delta_[left_slot_[delta_right_users_[k]]]
                            .run++] = touched_right_[ti];
    }
  }
  for (SideDelta& d : left_delta_) d.run -= d.add;
  release_slots(touched_left_, left_slot_);
  release_slots(touched_right_, right_slot_);

  // Waste policy check BEFORE any mutation: relocating every overflowing
  // region must not strand more dead slots than there are live links —
  // past that point a compacting rebuild is cheaper, so refuse and leave
  // the structure untouched for the caller.
  std::uint64_t left_hole = 0, right_hole = 0;
  for (std::size_t ti = 0; ti < touched_right_.size(); ++ti) {
    const std::size_t a = touched_right_[ti];
    if (a < old_right && right_len_[a] + right_delta_[ti].add > right_cap_[a]) {
      right_hole += right_cap_[a];
    }
  }
  for (std::size_t ti = 0; ti < touched_left_.size(); ++ti) {
    const std::size_t u = touched_left_[ti];
    if (u < old_left && left_len_[u] + left_delta_[ti].add > left_cap_[u]) {
      left_hole += left_cap_[u];
    }
  }
  const std::uint64_t live = link_count_ + m;
  if (left_waste_ + left_hole > live || right_waste_ + right_hole > live) {
    return false;
  }

  // Plan relocations and joining-node regions serially in touched order;
  // a joining node with no link keeps an empty region until its first one
  // relocates it.
  right_start_.resize(new_right_count, 0);
  right_cap_.resize(new_right_count, 0);
  right_len_.resize(new_right_count, 0);
  std::uint64_t right_tail = right_targets_.size();
  for (std::size_t ti = 0; ti < touched_right_.size(); ++ti) {
    plan_region(touched_right_[ti], right_delta_[ti], old_right, right_start_,
                right_cap_, right_len_, right_waste_, right_tail);
  }
  right_targets_.resize(right_tail);
  right_count_ = new_right_count;
  left_start_.resize(new_left_count, 0);
  left_cap_.resize(new_left_count, 0);
  left_len_.resize(new_left_count, 0);
  std::uint64_t left_tail = left_targets_.size();
  for (std::size_t ti = 0; ti < touched_left_.size(); ++ti) {
    plan_region(touched_left_[ti], left_delta_[ti], old_left, left_start_,
                left_cap_, left_len_, left_waste_, left_tail);
  }
  left_targets_.resize(left_tail);
  left_count_ = new_left_count;

  // Per-node work writes disjoint regions, byte-identical at any thread
  // count. Members append behind the live entries (moved along first when
  // relocated), keeping input (time) order under the append contract;
  // attribute lists merge their sorted runs.
  core::parallel_for(touched_right_.size(), [&](std::size_t ti) {
    const AttrId a = touched_right_[ti];
    const SideDelta& d = right_delta_[ti];
    NodeId* region = right_targets_.data() + right_start_[a];
    if (d.old_start != kInPlace) {
      const NodeId* old = right_targets_.data() + d.old_start;
      std::copy(old, old + right_len_[a], region);
    }
    const NodeId* run = delta_right_users_.data() + d.run;
    std::copy(run, run + d.add, region + right_len_[a]);
    right_len_[a] += static_cast<std::uint32_t>(d.add);
  });
  core::parallel_for(touched_left_.size(), [&](std::size_t ti) {
    const NodeId u = touched_left_[ti];
    const SideDelta& d = left_delta_[ti];
    merge_into_region(left_targets_.data(), left_start_[u], left_len_[u],
                      d.old_start, delta_left_attrs_.data() + d.run, d.add);
  });
  link_count_ += m;
  return true;
}

std::span<const AttrId> BipartiteCsr::attrs_of(NodeId u) const {
  if (u >= left_count_) {
    throw std::out_of_range("BipartiteCsr: unknown left node");
  }
  return {left_targets_.data() + left_start_[u],
          static_cast<std::size_t>(left_len_[u])};
}

std::span<const NodeId> BipartiteCsr::members_of(AttrId a) const {
  if (a >= right_count_) {
    throw std::out_of_range("BipartiteCsr: unknown right node");
  }
  return {right_targets_.data() + right_start_[a],
          static_cast<std::size_t>(right_len_[a])};
}

std::size_t BipartiteCsr::populated_right_count() const {
  std::size_t count = 0;
  for (AttrId a = 0; a < right_count_; ++a) {
    if (right_len_[a] > 0) ++count;
  }
  return count;
}

std::size_t BipartiteCsr::common_attrs(NodeId u, NodeId v) const {
  const auto au = attrs_of(u);
  const auto av = attrs_of(v);
  std::size_t count = 0;
  auto iu = au.begin();
  auto iv = av.begin();
  while (iu != au.end() && iv != av.end()) {
    if (*iu < *iv) {
      ++iu;
    } else if (*iv < *iu) {
      ++iv;
    } else {
      ++count;
      ++iu;
      ++iv;
    }
  }
  return count;
}

}  // namespace san::graph
