/// \file prefault.hpp
/// \brief The journal's page populator: one helper thread that maps the
///        active segment's pages writable a bounded window ahead of the
///        append cursor, so the serving thread's record copy takes no page
///        fault. wal.hpp ("Where the bytes live") states the contract.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

namespace rs::wal::internal {

/// \brief Populates a shared segment mapping for writing ahead of the
///        append cursor, off the caller's thread.
///
/// The caller (the journal's single serving thread) owns every method but
/// populated_end(); the helper thread only ever runs madvise over
/// [map, map + bytes) of the mapping it was last told to Follow, and only
/// while that mapping is installed. The caller-side bookkeeping is plain
/// data: an append costs one compare unless the helper needs a wake-up.
///
/// Population writes no byte: MADV_POPULATE_WRITE faults each page in as a
/// store would, without storing. Correctness never depends on it, so every
/// failure is silent: EINVAL or ENOSYS (a kernel before 5.14, or a
/// filesystem that refuses) retires the helper and appends take the page
/// faults they took without it; any other error skips that window.
class Prefaulter {
 public:
  /// The most bytes populated ahead of the cursor. Each fsync writes back
  /// the populated zero pages too, so the window is further bounded by the
  /// bytes appended per sync interval: the larger of the previous
  /// interval's and the current one's so far. Under a page, population
  /// could not get ahead of the next writeback, so the helper stands aside.
  static constexpr std::uint64_t kMaxWindowBytes = 256u << 10;

  Prefaulter() = default;
  /// Stops the helper, waiting out its current madvise.
  ~Prefaulter();

  Prefaulter(const Prefaulter&) = delete;
  Prefaulter& operator=(const Prefaulter&) = delete;

  /// Installs a new active mapping, [map, map + bytes), whose data ends at
  /// `cursor`. Starts no thread: the helper starts on the first append.
  void Follow(char* map, std::uint64_t bytes, std::uint64_t cursor);

  /// Waits until the helper is idle and uninstalls the mapping. Call it
  /// before the mapping is unmapped or its file truncated.
  void Release();

  /// After an append moved the cursor, `interval_bytes` past the last
  /// sync: wakes the helper (starting it the first time) once the cursor is
  /// within half a window of the end it was last asked to populate.
  void Advance(std::uint64_t cursor, std::uint64_t interval_bytes) {
    if (cursor + window_ / 2 >= requested_end_) Request(cursor, interval_bytes);
  }

  /// After an fsync of the active segment, which appended `interval_bytes`
  /// since the previous one. Writeback write-protects the populated pages
  /// again, so population restarts at the cursor's page, over a window of
  /// at most `interval_bytes` (an empty interval keeps the window).
  void Rearm(std::uint64_t cursor, std::uint64_t interval_bytes);

  /// The segment offset up to which pages are populated (or were skipped
  /// after an error) since the last Follow, Rearm or Release.
  std::uint64_t populated_end() const {
    return populated_end_.load(std::memory_order_acquire);
  }

 private:
  /// Asks the helper to populate from the cursor's page to one window
  /// past `cursor`, starting the helper if it has not started.
  void Request(std::uint64_t cursor, std::uint64_t interval_bytes);
  /// Restarts population at the cursor's page (mu_ held).
  void ResetLocked(std::uint64_t cursor);
  /// The helper thread's loop.
  void Run();

  // Caller thread only.
  std::uint64_t window_ = 0;
  std::uint64_t requested_end_ = 0;

  // Shared, under mu_.
  std::mutex mu_;
  std::condition_variable wake_;  ///< Work or stop, for the helper.
  std::condition_variable idle_;  ///< The helper left madvise.
  char* map_ = nullptr;
  std::uint64_t map_bytes_ = 0;
  std::uint64_t done_ = 0;    ///< Populated (or skipped) through here.
  std::uint64_t target_ = 0;  ///< Requested through here.
  /// Bumped whenever done_ is reset; a madvise that started under an older
  /// value does not publish its end.
  std::uint64_t generation_ = 0;
  bool busy_ = false;     ///< The helper is inside madvise.
  bool stop_ = false;
  bool retired_ = false;  ///< madvise is unsupported, or no thread started.

  std::atomic<std::uint64_t> populated_end_{0};

  /// Started by the first Request (caller thread); joined before any
  /// member above is destroyed.
  std::thread thread_;
};

}  // namespace rs::wal::internal
