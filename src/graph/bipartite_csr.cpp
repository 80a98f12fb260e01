#include "graph/bipartite_csr.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/parallel.hpp"
#include "graph/slack.hpp"

namespace san::graph {

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

  // Both sides are stable counting sorts on the shared chunk-parallel
  // engine (core/counting_scatter.hpp): chunks scatter concurrently into
  // disjoint slots while the result stays byte-identical to the serial
  // stable sort (earlier input positions land first). The pipeline is
  // fused to three passes: endpoint validation rides inside the attribute
  // count (an invalid link doesn't emit, and a short total rejects the
  // input before any public state mutates), and the right-side scatter
  // feeds the left-side histograms through its hook, so the left count
  // pass disappears (scatter_fused in core/counting_scatter.hpp).

  // Right side: sort links by attribute, stable in input order, so
  // members_of(a) preserves the (time) order of the input links.
  by_attr_.count(
      m, right_count,
      [&](std::size_t begin, std::size_t end, auto emit) {
        for (std::size_t i = begin; i < end; ++i) {
          if (users[i] < left_count && attrs[i] < right_count) {
            emit(attrs[i]);
          }
        }
      },
      counts_);
  std::uint64_t valid = 0;
  for (std::size_t a = 0; a < right_count; ++a) valid += counts_[a];
  if (valid < m) {
    throw std::out_of_range("BipartiteCsr: link endpoint out of range");
  }
  left_count_ = left_count;
  right_count_ = right_count;
  link_count_ = m;
  left_waste_ = 0;
  right_waste_ = 0;
  right_start_.resize(right_count);
  right_cap_.resize(right_count);
  right_len_.resize(right_count);
  dense_right_.assign(right_count + 1, 0);
  {
    std::uint64_t tail = 0;
    for (std::size_t a = 0; a < right_count; ++a) {
      right_start_[a] = tail;
      right_len_[a] = static_cast<std::uint32_t>(counts_[a]);
      right_cap_[a] = static_cast<std::uint32_t>(
          with_slack ? slack_capacity(counts_[a]) : counts_[a]);
      tail += right_cap_[a];
      dense_right_[a + 1] = dense_right_[a] + counts_[a];
    }
    right_targets_.resize(tail);
  }
  // The hook counts each landed user into the left sort's histograms,
  // keyed by the storage slot the link landed in.
  by_user_.begin_fused_count(right_targets_.size(), left_count);
  by_attr_.scatter_fused(
      right_start_,
      [&](std::size_t begin, std::size_t end, auto emit) {
        for (std::size_t i = begin; i < end; ++i) emit(attrs[i], users[i]);
      },
      right_targets_.data(),
      [&](std::uint64_t pos, NodeId u) { by_user_.fused_add(pos, u); });

  // Left side from the right side: walking the attr-major storage slots
  // in ascending order (== ascending attribute order; dead slack skipped
  // region-by-region) and scattering by user yields per-user attribute
  // lists already sorted ascending — a second counting sort instead of a
  // per-user sort.
  by_user_.finish_fused_count(counts_);
  left_start_.resize(left_count);
  left_cap_.resize(left_count);
  left_len_.resize(left_count);
  {
    std::uint64_t tail = 0;
    for (std::size_t u = 0; u < left_count; ++u) {
      left_start_[u] = tail;
      left_len_[u] = static_cast<std::uint32_t>(counts_[u]);
      left_cap_[u] = static_cast<std::uint32_t>(
          with_slack ? slack_capacity(counts_[u]) : counts_[u]);
      tail += left_cap_[u];
    }
    left_targets_.resize(tail);
  }
  by_user_.scatter(
      left_start_,
      [&](std::size_t begin, std::size_t end, auto emit) {
        core::walk_slack_slots(
            right_start_, right_len_, begin, end,
            [&](std::uint64_t pos, std::size_t a) {
              emit(right_targets_[pos], static_cast<AttrId>(a));
            });
      },
      left_targets_.data());
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
  const std::size_t bad = core::parallel_reduce(
      m, std::size_t{0},
      [&](std::size_t begin, std::size_t end, std::size_t) {
        std::size_t count = 0;
        for (std::size_t i = begin; i < end; ++i) {
          if (users[i] >= new_left_count || attrs[i] >= new_right_count) {
            ++count;
          }
        }
        return count;
      },
      [](std::size_t a, std::size_t b) { return a + b; },
      core::kScatterGrain);
  if (bad > 0) {
    throw std::out_of_range(
        "BipartiteCsr::append_links: link endpoint out of range");
  }

  // Chunk-parallel counts of the new links per endpoint.
  by_attr_.count(
      m, new_right_count,
      [&](std::size_t begin, std::size_t end, auto emit) {
        for (std::size_t i = begin; i < end; ++i) emit(attrs[i]);
      },
      counts_);
  by_user_.count(
      m, new_left_count,
      [&](std::size_t begin, std::size_t end, auto emit) {
        for (std::size_t i = begin; i < end; ++i) emit(users[i]);
      },
      add_left_);

  // Waste policy check BEFORE any mutation: relocating every overflowing
  // region must not strand more dead slots than there are live links —
  // past that point a compacting rebuild is cheaper, so refuse and leave
  // the structure untouched for the caller.
  std::uint64_t left_hole = 0, right_hole = 0;
  for (std::size_t a = 0; a < old_right; ++a) {
    if (counts_[a] > 0 && right_len_[a] + counts_[a] > right_cap_[a]) {
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
  // tail), copy relocated member lists, then stable-scatter the batch by
  // attribute so each list's new members land AFTER its live entries —
  // input (time) order is preserved under the append contract.
  reloc_right_.clear();
  reloc_right_old_.clear();
  base_.assign(new_right_count, 0);
  dense_right_.assign(new_right_count + 1, 0);
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
            counts_[a] > 0 ? slack_capacity(counts_[a]) : 0);
        tail += right_cap_[a];
      } else if (counts_[a] > 0 &&
                 right_len_[a] + counts_[a] > right_cap_[a]) {
        reloc_right_.push_back(static_cast<AttrId>(a));
        reloc_right_old_.push_back(right_start_[a]);
        right_waste_ += right_cap_[a];
        right_start_[a] = tail;
        right_cap_[a] = static_cast<std::uint32_t>(
            slack_capacity(right_len_[a] + counts_[a]));
        tail += right_cap_[a];
      }
      base_[a] = right_start_[a] + right_len_[a];
      dense_right_[a + 1] = dense_right_[a] + counts_[a];
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
  by_attr_.scatter(
      base_,
      [&](std::size_t begin, std::size_t end, auto emit) {
        for (std::size_t i = begin; i < end; ++i) emit(attrs[i], users[i]);
      },
      right_targets_.data());
  for (std::size_t a = 0; a < new_right_count; ++a) {
    right_len_[a] += static_cast<std::uint32_t>(counts_[a]);
  }

  // Left side: joining users get fresh tail regions; overflowing users are
  // relocated. The batch is walked attr-major (ascending attribute) and
  // scattered by user into dense per-user runs — each run is the user's
  // new attribute ids sorted ascending, ready for one merge per node.
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

  // The batch's attr-major walk: new ranks live in the freshly appended
  // right segments, addressed by base_ and the batch's dense rank prefix.
  const auto attr_major = [&](std::size_t begin, std::size_t end, auto&& fn) {
    core::walk_keyed_regions(dense_right_, base_, begin, end, fn);
  };
  by_user_.count(
      m, new_left_count,
      [&](std::size_t begin, std::size_t end, auto emit) {
        attr_major(begin, end, [&](std::uint64_t pos, AttrId) {
          emit(right_targets_[pos]);
        });
      },
      add_left_);
  delta_left_base_.assign(new_left_count, 0);
  {
    std::uint64_t running = 0;
    for (std::size_t u = 0; u < new_left_count; ++u) {
      delta_left_base_[u] = running;
      running += add_left_[u];
    }
  }
  delta_left_attrs_.resize(m);
  by_user_.scatter(
      delta_left_base_,
      [&](std::size_t begin, std::size_t end, auto emit) {
        attr_major(begin, end, [&](std::uint64_t pos, AttrId a) {
          emit(right_targets_[pos], a);
        });
      },
      delta_left_attrs_.data());

  core::parallel_for(touched_left_.size(), [&](std::size_t ti) {
    const std::size_t u = touched_left_[ti];
    const AttrId* batch = delta_left_attrs_.data() + delta_left_base_[u];
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
