// Amortized-doubling slack policy and the sparse append scratch shared by
// the append-in-place CSR layouts (graph/csr.hpp, graph/bipartite_csr.hpp).
//
// A slack build reserves `slack_capacity(len)` slots per node instead of
// exactly `len`: the list can absorb up to max(len, kMinNodeSlack) appended
// entries before the structure reports exhaustion and the owner falls back
// to a full rebuild (which re-reserves against the new lengths). Doubling
// the headroom on every rebuild makes the total append work over a
// monotone growth sweep amortized O(final size); the minimum term keeps
// brand-new (empty) nodes appendable without an immediate rebuild.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace san::graph {

inline constexpr std::size_t kMinNodeSlack = 4;

inline std::size_t slack_capacity(std::size_t len) {
  return len + std::max(len, kMinNodeSlack);
}

/// Backward in-place merge of the sorted batch `add` into the sorted list
/// base[0, len), which must have room for len + add_len entries (the
/// node's slack). Merging from the back never overwrites unread input, so
/// no temporary is needed. Inputs are disjoint by the append contract
/// (debug-checked).
template <typename T>
void merge_sorted_tail(T* base, std::size_t len, const T* add,
                       std::size_t add_len) {
  std::size_t i = len, j = add_len, w = len + add_len;
  while (j > 0) {
    if (i > 0 && base[i - 1] > add[j - 1]) {
      base[--w] = base[--i];
    } else {
#ifndef NDEBUG
      if (i > 0 && base[i - 1] == add[j - 1]) {
        throw std::invalid_argument("merge_sorted_tail: entry already present");
      }
#endif
      base[--w] = add[--j];
    }
  }
}

/// An append finds the nodes it touches from the batch alone. Each
/// structure keeps a per-node slot array that grows only for joining
/// nodes: during a call slot[u] is u's index in the touched list, outside
/// one it holds kNoSlot. A call writes and resets it at the touched nodes
/// only, so no pass walks the id space.
inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
/// SideDelta::old_start of a node that keeps its region.
inline constexpr std::uint64_t kInPlace = ~std::uint64_t{0};

/// One side of a touched node's append: `add` new entries at [run, +add)
/// of the call's delta column, and the region start before relocation.
struct SideDelta {
  std::uint64_t add = 0;
  std::uint64_t run = 0;
  std::uint64_t old_start = kInPlace;
};

/// Grow `slot` to cover ids [0, n); new entries are unmarked.
inline void grow_slots(std::vector<std::uint32_t>& slot, std::size_t n) {
  if (slot.size() < n) slot.resize(n, kNoSlot);
}

/// `id`'s index in `touched`. Its first touch in a call appends it, and an
/// empty entry to each per-node `delta` vector.
template <typename Id, typename... Delta>
std::uint32_t touch(Id id, std::vector<std::uint32_t>& slot,
                    std::vector<Id>& touched, std::vector<Delta>&... delta) {
  std::uint32_t& s = slot[id];
  if (s == kNoSlot) {
    s = static_cast<std::uint32_t>(touched.size());
    touched.push_back(id);
    (delta.emplace_back(), ...);
  }
  return s;
}

/// Reset the slots of the touched ids to kNoSlot.
template <typename Id>
void release_slots(const std::vector<Id>& touched,
                   std::vector<std::uint32_t>& slot) {
  for (const Id id : touched) slot[id] = kNoSlot;
}

/// Give each touched node's delta its run offset: the prefix of the adds.
inline void assign_runs(std::vector<SideDelta>& delta) {
  std::uint64_t run = 0;
  for (SideDelta& d : delta) {
    d.run = run;
    run += d.add;
  }
}

/// Plan node u's region on one side: a joining node (u >= old_count)
/// gets a fresh slack region at `tail`; an old node that overflows
/// relocates there with doubled capacity and records its old start in
/// `d`. Advances `tail` past any new region.
inline void plan_region(std::size_t u, SideDelta& d, std::size_t old_count,
                        std::vector<std::uint64_t>& start,
                        std::vector<std::uint32_t>& cap,
                        std::span<const std::uint32_t> len,
                        std::uint64_t& waste, std::uint64_t& tail) {
  if (u >= old_count) {
    start[u] = tail;
    cap[u] = static_cast<std::uint32_t>(slack_capacity(d.add));
    tail += cap[u];
  } else if (len[u] + d.add > cap[u]) {
    d.old_start = start[u];
    waste += cap[u];
    start[u] = tail;
    cap[u] = static_cast<std::uint32_t>(slack_capacity(len[u] + d.add));
    tail += cap[u];
  }
}

/// Merge the sorted batch add[0, add_len) into one node's list at
/// targets[start, +len): in place behind the live entries, or, for a
/// relocated node, from its old region into the new one.
template <typename T>
void merge_into_region(T* targets, std::uint64_t start, std::uint32_t& len,
                       std::uint64_t old_start, const T* add,
                       std::size_t add_len) {
  T* region = targets + start;
  if (old_start == kInPlace) {
    merge_sorted_tail(region, len, add, add_len);
  } else {
    const T* old = targets + old_start;
    std::merge(old, old + len, add, add + add_len, region);
  }
  len += static_cast<std::uint32_t>(add_len);
}

}  // namespace san::graph
