/// \file spans.hpp
/// \brief In-memory span recorder for the traced run. Spans are recorded by
///        the benchmark around each call it makes into a layer's public
///        function; nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One timed call: name, start/end (ns on the steady clock), the span that
/// caused it (-1 for a root) and the request id (arrival or boundary index).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Single-threaded recorder (the fleet has one caller thread). Open spans
/// form a stack; a span opened while another is open becomes its child.
class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(1 << 20); }

  std::size_t Begin(const char* name, std::uint64_t request) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
    span.request = request;
    spans_.push_back(span);
    open_.push_back(spans_.size() - 1);
    spans_.back().start_ns = NowNs();
    return spans_.size() - 1;
  }

  void End(std::size_t index) {
    spans_[index].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span scope.
class Scope {
 public:
  Scope(SpanRecorder* recorder, const char* name, std::uint64_t request)
      : recorder_(recorder),
        index_(recorder == nullptr ? 0 : recorder->Begin(name, request)) {}
  ~Scope() {
    if (recorder_ != nullptr) recorder_->End(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* recorder_;
  std::size_t index_;
};

/// Per-name aggregate of a recorded span set: call count, busy time
/// (sum of durations), self time (busy minus time covered by direct
/// children) and every duration, for percentiles.
struct SpanStats {
  std::size_t calls = 0;
  double busy_s = 0.0;
  double self_s = 0.0;
  std::vector<double> durations_s;
};

inline std::map<std::string, SpanStats> Aggregate(
    const std::vector<Span>& spans) {
  std::map<std::string, SpanStats> out;
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] +=
          1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = 1e-9 * static_cast<double>(spans[i].end_ns -
                                                spans[i].start_ns);
    SpanStats& stats = out[spans[i].name];
    ++stats.calls;
    stats.busy_s += d;
    stats.self_s += d - child_s[i];
    stats.durations_s.push_back(d);
  }
  return out;
}

}  // namespace perfbench
