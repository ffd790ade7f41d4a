/// \file prefault.cpp
/// \brief The journal's page populator (prefault.hpp): one lazily started
///        helper thread running MADV_POPULATE_WRITE ahead of the cursor.
#include "rs/wal/prefault.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>
#include <system_error>

// Headers older than Linux 5.14's lack it; such a kernel answers EINVAL,
// which retires the helper.
#ifndef MADV_POPULATE_WRITE
#define MADV_POPULATE_WRITE 23
#endif

namespace rs::wal::internal {

namespace {

/// Advance() never wakes the helper again before the next Follow or Rearm.
constexpr std::uint64_t kNeverWake = std::numeric_limits<std::uint64_t>::max();

std::uint64_t PageBytes() {
  static const std::uint64_t bytes =
      static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  return bytes;
}

std::uint64_t PageFloor(std::uint64_t offset) {
  return offset - offset % PageBytes();
}

}  // namespace

Prefaulter::~Prefaulter() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_one();
  thread_.join();
}

void Prefaulter::ResetLocked(std::uint64_t cursor) {
  ++generation_;
  done_ = target_ = std::min(PageFloor(cursor), map_bytes_);
  populated_end_.store(done_, std::memory_order_release);
}

void Prefaulter::Follow(char* map, std::uint64_t bytes, std::uint64_t cursor) {
  std::lock_guard<std::mutex> lock(mu_);
  map_ = map;
  map_bytes_ = bytes;
  ResetLocked(cursor);
  requested_end_ = retired_ ? kNeverWake : done_;
}

void Prefaulter::Release() {
  std::unique_lock<std::mutex> lock(mu_);
  map_ = nullptr;
  map_bytes_ = 0;
  ResetLocked(0);
  idle_.wait(lock, [this] { return !busy_; });
}

void Prefaulter::Rearm(std::uint64_t cursor, std::uint64_t interval_bytes) {
  if (interval_bytes > 0) window_ = std::min(interval_bytes, kMaxWindowBytes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (map_ == nullptr) return;
    ResetLocked(cursor);
    requested_end_ = retired_ ? kNeverWake : done_;
  }
  // Before the first append there is no helper, and Rearm does not start
  // one: the next Advance does.
  if (thread_.joinable()) Request(cursor, 0);
}

void Prefaulter::Request(std::uint64_t cursor, std::uint64_t interval_bytes) {
  window_ = std::max(window_, std::min(interval_bytes, kMaxWindowBytes));
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!retired_ && !thread_.joinable()) {
      // The first append starts the helper, so later wake-ups allocate
      // nothing.
      try {
        thread_ = std::thread(&Prefaulter::Run, this);
      } catch (const std::system_error&) {
        retired_ = true;
      }
    }
    if (retired_ || map_ == nullptr) {
      requested_end_ = kNeverWake;
      return;
    }
    if (window_ < PageBytes()) {
      // Standing aside; looks again once the cursor enters the next page.
      requested_end_ = PageFloor(cursor) + PageBytes();
      return;
    }
    const std::uint64_t end = std::min(
        PageFloor(cursor + window_ + PageBytes() - 1), map_bytes_);
    target_ = std::max(target_, end);
    // At the mapping's end there is nothing left to ask for.
    requested_end_ = end == map_bytes_ ? kNeverWake : end;
  }
  wake_.notify_one();
}

void Prefaulter::Run() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this] {
      return stop_ || (map_ != nullptr && done_ < target_);
    });
    if (stop_) return;
    char* const begin = map_ + done_;
    const std::uint64_t end = target_;
    const std::uint64_t length = end - done_;
    const std::uint64_t generation = generation_;
    busy_ = true;
    lock.unlock();
    const int error =
        ::madvise(begin, length, MADV_POPULATE_WRITE) == 0 ? 0 : errno;
    lock.lock();
    busy_ = false;
    idle_.notify_all();
    if (error == EINVAL || error == ENOSYS) {
      retired_ = true;  // Unsupported here: appends fault as before.
      return;
    }
    // Any other error skips the window: population only saves faults.
    if (generation == generation_) {
      done_ = end;
      populated_end_.store(end, std::memory_order_release);
    }
  }
}

}  // namespace rs::wal::internal
