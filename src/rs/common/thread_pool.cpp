#include "rs/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace rs::common {

void Latch::CountDown() {
  std::lock_guard<std::mutex> lock(mu_);
  if (remaining_ > 0 && --remaining_ == 0) cv_.notify_all();
}

void Latch::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return remaining_ == 0; });
}

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  if (workers_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      // Keep draining after stop: the destructor promises every submitted
      // task runs (ScalerFleet counts on its latch reaching zero).
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // A throwing task must not unwind the worker thread (std::terminate)
    // or starve the queue: swallow, count, keep serving. Fallible work is
    // expected to report through captured Status objects instead.
    try {
      task();
    } catch (...) {
      tasks_failed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void ParallelFor(ThreadPool* pool, std::size_t n,
                 const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || pool->threads() == 0 || n == 1) {
    // Same exception contract as the pooled path below: every index runs,
    // the first exception is rethrown afterwards. A throw must not change
    // which indices execute depending on the worker count.
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }
  // Work-conquering fan-out: indices are claimed from a shared counter by
  // up to `threads` helper tasks AND the calling thread. The caller always
  // drains the remaining indices itself, so nested ParallelFor calls on one
  // shared pool cannot deadlock — a worker running an outer task that fans
  // out again makes progress on its own indices even while every other
  // worker is busy.
  struct SharedState {
    explicit SharedState(std::size_t count) : done(count) {}
    std::atomic<std::size_t> next{0};
    Latch done;
    std::mutex error_mu;
    std::exception_ptr first_error;
  };
  auto state = std::make_shared<SharedState>(n);
  // Capturing `fn` by reference is safe: a helper only dereferences it
  // after claiming an index < n, and the latch cannot reach zero (so Wait
  // cannot return and `fn` cannot die) until that index finishes. Late
  // helpers that claim >= n touch only their own shared_ptr copy.
  //
  // A throwing fn(i) must still count its index down (otherwise the caller
  // deadlocks in Wait) and must not abandon the remaining indices; the
  // first exception is kept and rethrown on the calling thread after the
  // join, preserving the "every index ran, writes published" contract for
  // the indices that succeeded.
  const auto work = [state, &fn, n] {
    for (;;) {
      const std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->error_mu);
        if (!state->first_error) state->first_error = std::current_exception();
      }
      state->done.CountDown();
    }
  };
  const std::size_t helpers = std::min(pool->threads(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) pool->Submit(work);
  work();
  state->done.Wait();
  // The join published every helper's writes, so no lock is needed here.
  if (state->first_error) std::rethrow_exception(state->first_error);
}

void ParallelForChunks(
    ThreadPool* pool, std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  const std::size_t width = chunk == 0 ? n : chunk;
  const std::size_t count = (n + width - 1) / width;
  ParallelFor(pool, count, [&body, n, width](std::size_t c) {
    const std::size_t begin = c * width;
    body(c, begin, std::min(begin + width, n));
  });
}

}  // namespace rs::common
