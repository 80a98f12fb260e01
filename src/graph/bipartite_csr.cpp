#include "graph/bipartite_csr.hpp"

#include <algorithm>
#include <limits>
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
  cursor_.assign(right_start_.begin(), right_start_.end());
  for (std::size_t i = 0; i < m; ++i) {
    right_targets_[cursor_[attrs[i]]++] = users[i];
  }
  // Left side from the right side: walking attributes in ascending order
  // and bucketing their members by user yields per-user attribute lists
  // already sorted ascending — no per-user sort.
  cursor_.assign(left_start_.begin(), left_start_.end());
  for (std::size_t a = 0; a < right_count; ++a) {
    const NodeId* members = right_targets_.data() + right_start_[a];
    for (std::uint32_t j = 0; j < right_len_[a]; ++j) {
      left_targets_[cursor_[members[j]]++] = static_cast<AttrId>(a);
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

  // Counts of the new links per endpoint; an out-of-range endpoint throws
  // before any public state mutates (only the scratch counts are written).
  add_right_.assign(new_right_count, 0);
  add_left_.assign(new_left_count, 0);
  for (std::size_t i = 0; i < m; ++i) {
    if (users[i] >= new_left_count || attrs[i] >= new_right_count) {
      throw std::out_of_range(
          "BipartiteCsr::append_links: link endpoint out of range");
    }
    ++add_right_[attrs[i]];
    ++add_left_[users[i]];
  }

  // Waste policy check BEFORE any mutation: relocating every overflowing
  // region must not strand more dead slots than there are live links —
  // past that point a compacting rebuild is cheaper, so refuse and leave
  // the structure untouched for the caller.
  std::uint64_t left_hole = 0, right_hole = 0;
  for (std::size_t a = 0; a < old_right; ++a) {
    if (add_right_[a] > 0 && right_len_[a] + add_right_[a] > right_cap_[a]) {
      right_hole += right_cap_[a];
    }
  }
  touched_left_.clear();
  for (std::size_t u = 0; u < new_left_count; ++u) {
    if (add_left_[u] == 0) continue;
    touched_left_.push_back(static_cast<NodeId>(u));
    if (u < old_left && left_len_[u] + add_left_[u] > left_cap_[u]) {
      left_hole += left_cap_[u];
    }
  }
  const std::uint64_t live = link_count_ + m;
  if (left_waste_ + left_hole > live || right_waste_ + right_hole > live) {
    return false;
  }

  // Right side: plan relocations serially (ascending id, deterministic
  // tail), copy relocated member lists, then bucket the batch by attribute
  // behind each list's live entries — input (time) order is preserved
  // under the append contract.
  reloc_right_.clear();
  reloc_right_old_.clear();
  right_start_.resize(new_right_count, 0);
  right_cap_.resize(new_right_count, 0);
  right_len_.resize(new_right_count, 0);
  {
    std::uint64_t tail = right_targets_.size();
    for (std::size_t a = 0; a < new_right_count; ++a) {
      if (a >= old_right) {
        // Joining right node: fresh slack region at the tail, no waste.
        right_start_[a] = tail;
        right_cap_[a] = static_cast<std::uint32_t>(
            add_right_[a] > 0 ? slack_capacity(add_right_[a]) : 0);
        tail += right_cap_[a];
      } else if (add_right_[a] > 0 &&
                 right_len_[a] + add_right_[a] > right_cap_[a]) {
        reloc_right_.push_back(static_cast<AttrId>(a));
        reloc_right_old_.push_back(right_start_[a]);
        right_waste_ += right_cap_[a];
        right_start_[a] = tail;
        right_cap_[a] = static_cast<std::uint32_t>(
            slack_capacity(right_len_[a] + add_right_[a]));
        tail += right_cap_[a];
      }
    }
    right_targets_.resize(tail);
  }
  right_count_ = new_right_count;
  core::parallel_for(reloc_right_.size(), [&](std::size_t i) {
    const AttrId a = reloc_right_[i];
    const NodeId* old = right_targets_.data() + reloc_right_old_[i];
    std::copy(old, old + right_len_[a],
              right_targets_.data() + right_start_[a]);
  });
  for (std::size_t i = 0; i < m; ++i) {
    const AttrId a = attrs[i];
    right_targets_[right_start_[a] + right_len_[a]++] = users[i];
  }

  // Left side: joining users get fresh tail regions; overflowing users are
  // relocated.
  left_start_.resize(new_left_count, 0);
  left_cap_.resize(new_left_count, 0);
  left_len_.resize(new_left_count, 0);
  reloc_left_.assign(touched_left_.size(),
                     std::numeric_limits<std::uint64_t>::max());
  {
    std::uint64_t tail = left_targets_.size();
    for (std::size_t ti = 0; ti < touched_left_.size(); ++ti) {
      const std::size_t u = touched_left_[ti];
      if (u >= old_left) {
        left_start_[u] = tail;
        left_cap_[u] =
            static_cast<std::uint32_t>(slack_capacity(add_left_[u]));
        tail += left_cap_[u];
      } else if (left_len_[u] + add_left_[u] > left_cap_[u]) {
        reloc_left_[ti] = left_start_[u];
        left_waste_ += left_cap_[u];
        left_start_[u] = tail;
        left_cap_[u] = static_cast<std::uint32_t>(
            slack_capacity(left_len_[u] + add_left_[u]));
        tail += left_cap_[u];
      }
    }
    left_targets_.resize(tail);
  }
  left_count_ = new_left_count;

  // The batch's new attribute ids per user, in dense per-user runs:
  // walking the freshly appended per-attribute segments in ascending
  // attribute order fills each run sorted ascending, ready for one merge
  // per node. Each cursor advances from its run's start to its end.
  cursor_.resize(new_left_count);
  {
    std::uint64_t run = 0;
    for (std::size_t u = 0; u < new_left_count; ++u) {
      cursor_[u] = run;
      run += add_left_[u];
    }
  }
  delta_left_attrs_.resize(m);
  for (std::size_t a = 0; a < new_right_count; ++a) {
    const NodeId* end = right_targets_.data() + right_start_[a] + right_len_[a];
    for (const NodeId* p = end - add_right_[a]; p != end; ++p) {
      delta_left_attrs_[cursor_[*p]++] = static_cast<AttrId>(a);
    }
  }

  core::parallel_for(touched_left_.size(), [&](std::size_t ti) {
    const std::size_t u = touched_left_[ti];
    const AttrId* batch =
        delta_left_attrs_.data() + (cursor_[u] - add_left_[u]);
    AttrId* region = left_targets_.data() + left_start_[u];
    if (reloc_left_[ti] != std::numeric_limits<std::uint64_t>::max()) {
      const AttrId* old = left_targets_.data() + reloc_left_[ti];
      std::merge(old, old + left_len_[u], batch, batch + add_left_[u],
                 region);
    } else {
      merge_sorted_tail(region, left_len_[u], batch, add_left_[u]);
    }
    left_len_[u] += static_cast<std::uint32_t>(add_left_[u]);
  });
  link_count_ += m;

  delta_left_attrs_.clear();
  touched_left_.clear();
  reloc_left_.clear();
  reloc_right_.clear();
  reloc_right_old_.clear();
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
