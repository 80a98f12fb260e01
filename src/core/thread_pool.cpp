#include "core/thread_pool.hpp"

#include <cstdlib>

namespace san::core {
namespace {

// True while the current thread is executing chunks of some job; nested
// parallel regions detect this and run inline.
thread_local bool t_in_parallel_region = false;

std::size_t default_thread_count() {
  if (const char* env = std::getenv("SAN_THREADS")) {
    const long value = std::atol(env);
    if (value >= 1) return static_cast<std::size_t>(value);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() { spawn_workers(default_thread_count() - 1); }

ThreadPool::~ThreadPool() { stop_workers(); }

void ThreadPool::set_thread_count(std::size_t n) {
  if (n < 1) n = 1;
  std::lock_guard job_lock(job_mutex_);  // never resize under a live job
  if (n == thread_count()) return;
  stop_workers();
  spawn_workers(n - 1);
}

void ThreadPool::spawn_workers(std::size_t count) {
  std::uint64_t epoch = 0;
  {
    std::lock_guard lock(mutex_);
    stopping_ = false;
    epoch = epoch_;
  }
  // A new worker starts at the current epoch: the job that epoch names has
  // finished, and taking it would run its dead chunk function against the
  // next job's chunk counter and decrement that job's active count twice.
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this, epoch] { worker_loop(epoch); });
  }
}

void ThreadPool::stop_workers() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  job_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::drain_chunks(const std::function<void(std::size_t)>& fn,
                              std::size_t chunk_count) {
  for (;;) {
    const std::size_t chunk = next_chunk_.fetch_add(1,
                                                    std::memory_order_relaxed);
    if (chunk >= chunk_count) break;
    try {
      fn(chunk);
    } catch (...) {
      std::lock_guard lock(mutex_);
      if (!first_exception_) first_exception_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop(std::uint64_t seen_epoch) {
  std::unique_lock lock(mutex_);
  for (;;) {
    job_cv_.wait(lock, [&] { return stopping_ || epoch_ != seen_epoch; });
    if (stopping_) return;
    seen_epoch = epoch_;
    const auto* fn = job_fn_;
    const std::size_t chunk_count = job_chunk_count_;
    lock.unlock();

    t_in_parallel_region = true;
    drain_chunks(*fn, chunk_count);
    t_in_parallel_region = false;

    lock.lock();
    if (--active_workers_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::run_chunks(std::size_t chunk_count,
                            const std::function<void(std::size_t)>& fn) {
  if (chunk_count == 0) return;
  // Serial paths: nested region, single-lane pool, or a single chunk.
  if (t_in_parallel_region || workers_.empty() || chunk_count == 1) {
    for (std::size_t i = 0; i < chunk_count; ++i) fn(i);
    return;
  }

  // One job owns the shared dispatch state at a time; a second external
  // caller queues here instead of clobbering a live epoch.
  std::lock_guard job_lock(job_mutex_);
  {
    std::lock_guard lock(mutex_);
    job_fn_ = &fn;
    job_chunk_count_ = chunk_count;
    next_chunk_.store(0, std::memory_order_relaxed);
    active_workers_ = workers_.size();
    ++epoch_;
  }
  job_cv_.notify_all();

  t_in_parallel_region = true;
  drain_chunks(fn, chunk_count);
  t_in_parallel_region = false;

  std::unique_lock lock(mutex_);
  done_cv_.wait(lock, [&] { return active_workers_ == 0; });
  if (first_exception_) {
    auto e = first_exception_;
    first_exception_ = nullptr;
    lock.unlock();
    std::rethrow_exception(e);
  }
}

std::size_t thread_count() { return ThreadPool::instance().thread_count(); }

bool in_parallel_region() { return t_in_parallel_region; }

void set_thread_count(std::size_t n) {
  ThreadPool::instance().set_thread_count(n);
}

}  // namespace san::core
