// Chunk-parallel stable counting sort, the scatter engine shared by the
// graph builders (graph/bipartite_csr.cpp, graph/csr.cpp append path).
//
// The scheme is two-level per-chunk cursors: phase one counts each chunk's
// keys into a private histogram row, a serial transform turns the rows into
// per-chunk starting cursors (chunk c's cursor for key k is the caller's
// base slot of k plus every earlier chunk's count of k), and phase two
// scatters chunks concurrently into disjoint slots. Because the cursor
// transform computes each item's GLOBAL stable rank exactly — chunk c's
// cursor for key k is base[k] plus every earlier chunk's count of k — the
// output is byte-identical to the serial stable counting sort for ANY
// chunk partition, so the grain may (and does) depend on the thread
// count: a serial pool collapses to one chunk, shedding the row-matrix
// zeroing and strided cursor transform that the chunked scheme pays.
// Parallel pools derive the grain only from (m, key_count).
//
// The caller owns the output layout: `base[k]` is the first output slot of
// key k, which may be a dense prefix sum of the counts or a slack layout
// with per-key gaps (graph/slack.hpp) for append-in-place structures.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/parallel.hpp"

namespace san::core {

/// Base chunk grain for counting scatters. Coarser than the general
/// default: each chunk carries a histogram row over the key space, so
/// memory is chunks x key_count — at 64Ki items per chunk a ~1M-item
/// scatter stays in the tens of rows.
inline constexpr std::size_t kScatterGrain = std::size_t{1} << 16;

/// Cap on total cursor-matrix cells (chunks x (key_count+1)) per pass:
/// 16Mi cells = 128 MiB of u64. A key space that is huge relative to the
/// item count widens the grain — degrading gracefully toward the
/// single-row serial sort — instead of allocating chunks x key_count rows.
inline constexpr std::size_t kCursorBudgetCells = std::size_t{1} << 24;

inline std::size_t scatter_grain(std::size_t m, std::size_t key_count) {
  const std::size_t max_chunks =
      std::max<std::size_t>(1, kCursorBudgetCells / (key_count + 1));
  const std::size_t budget_grain = (m + max_chunks - 1) / max_chunks;
  return std::max(kScatterGrain, budget_grain);
}

/// Walk ranks [begin, end) of a keyed sequence laid out as per-key
/// regions: `dense` (key_count + 1 entries) is the dense prefix of the
/// per-key counts and `start[k]` each key's first storage slot (pass
/// `dense` itself for packed layouts, or a slack layout's starts). Calls
/// fn(pos, key) once per rank in ascending order with
/// pos = start[k] + (rank - dense[k]); keys with zero items are skipped.
/// The upper_bound seeds once per call, so walk whole chunks, not items.
template <typename Fn>
void walk_keyed_regions(std::span<const std::uint64_t> dense,
                        std::span<const std::uint64_t> start,
                        std::size_t begin, std::size_t end, Fn&& fn) {
  if (begin >= end) return;
  std::size_t k = static_cast<std::size_t>(
      std::upper_bound(dense.begin(), dense.end(), begin) - dense.begin() -
      1);
  for (std::size_t i = begin; i < end; ++i) {
    while (i >= dense[k + 1]) ++k;
    fn(start[k] + (i - dense[k]), k);
  }
}

/// Walk STORAGE slots [begin, end) of a slack layout: `start[k]` is key
/// k's first slot (monotone; region k extends to start[k+1] or the array
/// tail) and `len[k]` its live entries. Calls fn(pos, key) for every live
/// slot in ascending pos order; dead slack is skipped region-by-region.
/// This is the item-space view a fused count sees (begin_fused_count
/// positions are storage slots), so the scatter that follows one walks
/// storage, not dense ranks.
template <typename Fn>
void walk_slack_slots(std::span<const std::uint64_t> start,
                      std::span<const std::uint32_t> len, std::size_t begin,
                      std::size_t end, Fn&& fn) {
  const std::size_t n = len.size();
  if (begin >= end || n == 0) return;
  std::size_t k = static_cast<std::size_t>(
      std::upper_bound(start.begin(), start.end(), begin) - start.begin());
  if (k > 0) --k;  // the last region whose start is <= begin owns it
  std::uint64_t pos = begin;
  for (; k < n; ++k) {
    if (pos < start[k]) pos = start[k];
    const std::uint64_t live_end = start[k] + len[k];
    const std::uint64_t stop = end < live_end ? end : live_end;
    for (; pos < stop; ++pos) fn(pos, k);
    if (pos >= end) return;
  }
}

/// One stable counting sort = one count() followed by one scatter() over
/// the SAME item sequence. The object owns the cursor matrix, so keeping it
/// alive across rebuilds makes the steady state allocation-free.
///
/// Both phases take a `visit(begin, end, emit)` callback instead of a plain
/// key array: visit must call emit exactly once per item of [begin, end) in
/// ascending item order. This lets callers walk derived sequences (e.g.
/// CSR rank spaces with slack gaps) with per-chunk incremental state
/// instead of paying a binary search per item.
class StableCountingScatter {
 public:
  /// Phase 1: count keys. visit(begin, end, emit) must call emit(key) with
  /// key < key_count once per item in order (emitting FEWER items — a
  /// filtered sequence — is fine as long as the scatter visit skips the
  /// same items). `counts` is resized to key_count and overwritten with
  /// the global per-key totals.
  template <typename Visit>
  void count(std::size_t m, std::size_t key_count, Visit&& visit,
             std::vector<std::uint64_t>& counts) {
    m_ = m;
    key_count_ = key_count;
    // A serial pool runs one chunk — the plain serial counting sort.
    // Output bytes are chunking-invariant (see file header), so this
    // cannot diverge from the chunked layout a parallel pool picks.
    grain_ = thread_count() > 1 ? scatter_grain(m, key_count)
                                : std::max<std::size_t>(m, 1);
    chunks_ = std::max<std::size_t>(1, chunk_count_for(m, grain_));
    rows_.assign(chunks_ * key_count, 0);
    parallel_for_chunks(
        m, grain_, [&](std::size_t begin, std::size_t end, std::size_t c) {
          std::uint64_t* row = rows_.data() + c * key_count_;
          // Plain increments beat staged/prefetched batches here: the row
          // is cache-resident at bench key counts and random histogram
          // stores are absorbed by the store buffer (measured: a 16-item
          // prefetch stage cost ~15% on the 1-core rebuild sweep).
          visit(begin, end, [&](std::uint64_t key) { ++row[key]; });
        });
    reduce_rows(counts);
  }

  /// Phase-1 alternative: prepare to receive this pass's counts from a
  /// PRECEDING scatter (scatter_fused's hook) instead of a dedicated
  /// counting pass — the rebuild-pipeline fusion that removes a whole
  /// pass from BipartiteCsr rebuilds.
  /// `m` is the item space the hook's positions index (a storage slot
  /// space for slack layouts); the grain is rounded to a power of two so
  /// fused_add maps positions to chunk rows with one shift.
  void begin_fused_count(std::size_t m, std::size_t key_count) {
    m_ = m;
    key_count_ = key_count;
    grain_ = std::bit_ceil(thread_count() > 1
                               ? scatter_grain(m, key_count)
                               : std::max<std::size_t>(m, 1));
    shift_ = static_cast<unsigned>(std::countr_zero(grain_));
    chunks_ = std::max<std::size_t>(1, chunk_count_for(m, grain_));
    rows_.assign(chunks_ * key_count, 0);
    // Chunks of the FEEDING scatter race on these rows (distinct input
    // chunks scatter into the same output chunk). The adds commute, so
    // totals are byte-identical at any thread count; plain increments
    // when the pool is serial keep the 1-core path penalty-free.
    fused_atomic_ = thread_count() > 1;
  }

  /// Record one fused-count item: the item at position `pos` (of the
  /// space declared to begin_fused_count) has `key`. Called from inside a
  /// preceding scatter's parallel chunks.
  void fused_add(std::uint64_t pos, std::uint64_t key) {
    std::uint64_t& cell = rows_[(pos >> shift_) * key_count_ + key];
    if (fused_atomic_) {
      std::atomic_ref<std::uint64_t>(cell).fetch_add(
          1, std::memory_order_relaxed);
    } else {
      ++cell;
    }
  }

  /// Optional fused-count tail: global per-key totals, as count() returns.
  /// scatter() itself only needs the rows, so callers that already know
  /// the totals (e.g. from an earlier pass's layout) skip this.
  void finish_fused_count(std::vector<std::uint64_t>& counts) {
    reduce_rows(counts);
  }

  /// Phase 2: stable scatter. Must follow a count() / fused count over the
  /// same item sequence; visit must call emit(key, value) in the same
  /// order count saw the keys. Item i of key k lands at base[k] + (stable
  /// rank of i within k) — `base` may describe any non-overlapping layout
  /// whose per-key extent is >= counts[k].
  template <typename Visit, typename T>
  void scatter(std::span<const std::uint64_t> base, Visit&& visit, T* out) {
    scatter_fused(base, visit, out, [](std::uint64_t, T) {});
  }

  /// scatter() that additionally calls hook(pos, value) for every item at
  /// the moment its output slot is known — the feeder side of the fused
  /// count (hook = next_engine.fused_add(pos, key_of(value))). Hook calls
  /// are in ascending item order within a chunk; across chunks they
  /// interleave, which fused_add's commutative adds absorb.
  template <typename Visit, typename T, typename Hook>
  void scatter_fused(std::span<const std::uint64_t> base, Visit&& visit,
                     T* out, Hook&& hook) {
    // Serial transform of counts into per-chunk starting cursors; bounded
    // by kCursorBudgetCells, negligible next to the parallel scatters.
    for (std::size_t k = 0; k < key_count_; ++k) {
      std::uint64_t running = base[k];
      for (std::size_t c = 0; c < chunks_; ++c) {
        std::uint64_t& cell = rows_[c * key_count_ + k];
        const std::uint64_t count = cell;
        cell = running;
        running += count;
      }
    }
    parallel_for_chunks(
        m_, grain_, [&](std::size_t begin, std::size_t end, std::size_t c) {
          std::uint64_t* cursor = rows_.data() + c * key_count_;
          visit(begin, end, [&](std::uint64_t key, T value) {
            const std::uint64_t pos = cursor[key]++;
            hook(pos, value);
            out[pos] = value;
          });
        });
  }

 private:
  void reduce_rows(std::vector<std::uint64_t>& counts) {
    counts.assign(key_count_, 0);
    for (std::size_t c = 0; c < chunks_; ++c) {
      const std::uint64_t* row = rows_.data() + c * key_count_;
      for (std::size_t k = 0; k < key_count_; ++k) counts[k] += row[k];
    }
  }

  std::vector<std::uint64_t> rows_;
  std::size_t m_ = 0;
  std::size_t key_count_ = 0;
  std::size_t grain_ = 0;
  std::size_t chunks_ = 0;
  unsigned shift_ = 0;
  bool fused_atomic_ = false;
};

}  // namespace san::core
