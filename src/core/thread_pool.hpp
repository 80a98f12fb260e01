// Process-wide worker pool for the chunked parallel_for / parallel_reduce
// helpers (core/parallel.hpp). Design goals, in order:
//
//  1. Determinism: the pool never decides how work is split. Callers hand it
//     a fixed chunk count (derived from the problem size and a grain that is
//     independent of the thread count) and the pool only schedules those
//     chunks. Combined with ordered chunk reduction this makes every kernel
//     byte-identical across thread counts.
//  2. No allocation on the hot path: one atomic fetch_add per chunk.
//  3. Safe nesting: a parallel region entered from inside a worker runs
//     inline on that worker instead of deadlocking the pool.
//
// The worker count defaults to the SAN_THREADS environment variable, falling
// back to std::thread::hardware_concurrency(); benches override it at
// runtime through set_thread_count().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace san::core {

class ThreadPool {
 public:
  /// The process-wide pool, created on first use.
  static ThreadPool& instance();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool();

  /// Total execution lanes (workers + the calling thread).
  std::size_t thread_count() const { return workers_.size() + 1; }

  /// Resize to `n` lanes (n >= 1 enforced). Joins or spawns workers; must
  /// not be called from inside a parallel region.
  void set_thread_count(std::size_t n);

  /// Run fn(chunk_index) once for every chunk_index in [0, chunk_count).
  /// The calling thread participates; returns after all chunks finished.
  /// The first exception thrown by any chunk is rethrown on the caller.
  /// Concurrent calls from distinct external threads are serialized: the
  /// second caller blocks until the first job drains, then runs its own.
  void run_chunks(std::size_t chunk_count,
                  const std::function<void(std::size_t)>& fn);

 private:
  ThreadPool();

  void worker_loop(std::uint64_t seen_epoch);
  void drain_chunks(const std::function<void(std::size_t)>& fn,
                    std::size_t chunk_count);
  void stop_workers();
  void spawn_workers(std::size_t count);

  std::vector<std::thread> workers_;

  std::mutex job_mutex_;  // serializes whole jobs across external callers
  std::mutex mutex_;
  std::condition_variable job_cv_;   // workers wait here for a new epoch
  std::condition_variable done_cv_;  // caller waits here for job completion
  std::uint64_t epoch_ = 0;
  std::size_t active_workers_ = 0;
  bool stopping_ = false;

  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::size_t job_chunk_count_ = 0;
  std::atomic<std::size_t> next_chunk_{0};
  std::exception_ptr first_exception_;
};

/// Current lane count of the process-wide pool.
std::size_t thread_count();

/// True while the calling thread is executing chunks of a pool job.
/// Blocking on foreign work from inside a job risks deadlock — the pool's
/// job lock is held until every chunk (including the blocked one) drains —
/// so long waits must be replaced with local work when this is set.
bool in_parallel_region();

/// Resize the process-wide pool (used by benches to sweep 1/2/4/8 threads).
void set_thread_count(std::size_t n);

}  // namespace san::core
