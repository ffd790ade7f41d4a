/// \file thread_pool.hpp
/// \brief Minimal fixed-size worker pool + countdown latch for the
///        fan-out/join pattern the serving layer uses (ScalerFleet batches
///        per-tenant planning across workers and joins before returning).
///
/// Deliberately small: a mutex/condvar task queue, no futures, no work
/// stealing. Fallible work should report through Status objects captured
/// by the closure, like everything else in this codebase — but a task that
/// *does* throw never kills the pool: the worker catches the exception,
/// counts it (tasks_failed()), and keeps serving the queue, and a
/// ParallelFor whose fn throws still joins cleanly and rethrows the first
/// exception on the calling thread (no deadlock, no lost indices).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rs::common {

/// \brief Single-use countdown latch: Wait() returns once CountDown() has
///        been called `count` times.
///
/// Unlike std::latch this one is copy-free to reason about under TSan: the
/// final CountDown() publishes everything the counting threads wrote
/// before it (mutex release/acquire), which is exactly the happens-before
/// edge ParallelFor relies on to hand results back race-free.
class Latch {
 public:
  explicit Latch(std::size_t count) : remaining_(count) {}

  Latch(const Latch&) = delete;
  Latch& operator=(const Latch&) = delete;

  void CountDown();

  /// Blocks until the count reaches zero (returns immediately if it
  /// already has).
  void Wait();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t remaining_;
};

/// \brief Fixed-size worker pool over a FIFO task queue.
///
/// `threads == 0` selects inline mode: Submit() runs the task on the
/// calling thread before returning. That keeps single-threaded callers
/// (and the parity baseline in tests) on the exact same code path with
/// zero scheduling nondeterminism.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);

  /// Drains: blocks until every submitted task has run, then joins.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 = inline mode).
  std::size_t threads() const { return workers_.size(); }

  /// Enqueues `task` (runs it inline when threads() == 0). Safe to call
  /// from multiple threads; must not be called after destruction begins.
  /// A worker-run task that throws is swallowed (counted in
  /// tasks_failed()); an inline-run task's exception propagates to the
  /// caller, who is on the stack to handle it.
  void Submit(std::function<void()> task);

  /// Tasks whose exception a worker swallowed (0 in a healthy fleet; the
  /// chaos suite asserts the pool outlives a storm of these).
  std::size_t tasks_failed() const {
    return tasks_failed_.load(std::memory_order_relaxed);
  }

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> tasks_failed_{0};
};

/// \brief Runs fn(0), ..., fn(n-1) across `pool` and blocks until all
///        calls completed; a null or inline pool runs them sequentially on
///        the calling thread.
///
/// Each index is executed exactly once by exactly one thread, and the
/// return orders every fn(i)'s writes before the caller's reads — callers
/// may scatter results into a preallocated slot-per-index buffer without
/// further synchronization (deterministic result ordering regardless of
/// scheduling). The calling thread participates in the work (indices are
/// claimed from a shared counter), which makes nested ParallelFor calls on
/// one shared pool deadlock-free: an outer task that fans out again always
/// progresses on its own indices, even while every worker is busy.
///
/// A throwing fn(i) does not deadlock the join or lose other indices: the
/// failed index still counts down, the remaining indices still run, and
/// the first exception is rethrown on the calling thread after all calls
/// completed (later exceptions are dropped).
void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

/// \brief Runs body(chunk_index, begin, end) for each fixed-size chunk of
///        [0, n) across `pool`, blocking until all chunks completed.
///
/// The chunk boundaries depend only on n and `chunk` — never on the worker
/// count — so per-chunk partial results (sums, RNG substream draws) that
/// the caller combines in chunk-index order are bitwise identical whether
/// the chunks ran inline, on one worker, or on many. This is the reduction
/// discipline the parallel training paths use to stay deterministic.
void ParallelForChunks(
    ThreadPool* pool, std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace rs::common
