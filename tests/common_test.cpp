// Tests for Status / Result error propagation, logging, the
// thread-pool/latch utility behind ScalerFleet's batched planning, and the
// planner's double sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rs/common/logging.hpp"
#include "rs/common/radix_sort.hpp"
#include "rs/common/status.hpp"
#include "rs/common/stopwatch.hpp"
#include "rs/common/thread_pool.hpp"

namespace rs {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryConstructorsCarryCodeAndMessage) {
  EXPECT_EQ(Status::Invalid("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::RuntimeError("x").code(), StatusCode::kRuntimeError);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::NotConverged("x").code(), StatusCode::kNotConverged);
  EXPECT_EQ(Status::Infeasible("x").code(), StatusCode::kInfeasible);
  EXPECT_EQ(Status::Invalid("bad arg").message(), "bad arg");
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::Invalid("bad").ToString(), "InvalidArgument: bad");
  EXPECT_EQ(Status::NotConverged("max iters").ToString(),
            "NotConverged: max iters");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Invalid("a"), Status::Invalid("a"));
  EXPECT_FALSE(Status::Invalid("a") == Status::Invalid("b"));
  EXPECT_FALSE(Status::Invalid("a") == Status::IoError("a"));
}

TEST(StatusTest, StreamOperatorPrintsToString) {
  std::ostringstream os;
  os << Status::IoError("disk");
  EXPECT_EQ(os.str(), "IoError: disk");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Invalid("no");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOnlyValueWorks) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  auto p = std::move(r).ValueOrDie();
  EXPECT_EQ(*p, 7);
}

Result<int> Doubler(Result<int> in) {
  RS_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagatesValue) {
  auto r = Doubler(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  auto r = Doubler(Status::OutOfRange("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

Status FailThenSucceed(bool fail) {
  RS_RETURN_NOT_OK(fail ? Status::IoError("boom") : Status::OK());
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkMacro) {
  EXPECT_TRUE(FailThenSucceed(false).ok());
  EXPECT_EQ(FailThenSucceed(true).code(), StatusCode::kIoError);
}

TEST(LoggingTest, LevelFiltering) {
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  // Below-threshold messages must not crash and are simply dropped.
  RS_LOG(Info) << "this is filtered";
  SetLogLevel(original);
}

TEST(LatchTest, WaitReturnsOnceCountReachesZero) {
  common::Latch latch(2);
  latch.CountDown();
  latch.CountDown();
  latch.Wait();  // Must not block.
  common::Latch zero(0);
  zero.Wait();  // A zero-count latch is already open.
}

TEST(ThreadPoolTest, InlineModeRunsOnCallingThread) {
  common::ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 0u);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.Submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPoolTest, RunsEverySubmittedTaskBeforeJoin) {
  std::atomic<int> counter{0};
  {
    common::ThreadPool pool(3);
    EXPECT_EQ(pool.threads(), 3u);
    for (int i = 0; i < 200; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(counter.load(), 200);
}

class ParallelForTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ParallelForTest, CoversEveryIndexExactlyOnce) {
  common::ThreadPool pool(GetParam());
  // One slot per index, written without synchronization: ParallelFor's
  // join must publish the writes (TSan checks the happens-before edge).
  std::vector<int> hits(500, 0);
  common::ParallelFor(&pool, hits.size(),
                      [&hits](std::size_t i) { hits[i] += 1; });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << "index " << i;
  }
  common::ParallelFor(&pool, 0, [](std::size_t) { FAIL(); });
  // A null pool degrades to a sequential loop.
  std::size_t sum = 0;
  common::ParallelFor(nullptr, 4, [&sum](std::size_t i) { sum += i; });
  EXPECT_EQ(sum, 6u);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelForTest,
                         ::testing::Values(0, 1, 2, 8));

TEST(StopwatchTest, ElapsedIsNonNegativeAndMonotone) {
  Stopwatch w;
  const double a = w.ElapsedSeconds();
  const double b = w.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  w.Reset();
  EXPECT_GE(w.ElapsedMillis(), 0.0);
}

// -- RadixSortAscending: the comparison network below 128 elements, the
// radix passes from 128, std::sort without a scratch ----------------------

std::uint64_t Bits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// The elements' bit patterns in order: equal for a and b iff b is a
/// permutation of a's bits.
std::vector<std::uint64_t> BitMultiset(const std::vector<double>& v) {
  std::vector<std::uint64_t> bits;
  bits.reserve(v.size());
  for (const double x : v) bits.push_back(Bits(x));
  std::sort(bits.begin(), bits.end());
  return bits;
}

enum class SortInput {
  kPlanning,    // A shared offset plus Gaussian spread, like the targets.
  kWide,        // Random bit patterns: every sign and exponent.
  kDuplicates,  // Six distinct values.
  kSorted,
  kReversed,
  kSpecial,     // ±inf, ±0.0 and subnormals among ordinary values.
  kWithNan,     // Planning values with NaNs of both signs mixed in.
};

std::vector<double> MakeSortInput(SortInput kind, std::size_t n,
                                  std::mt19937_64* rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kDenorm = std::numeric_limits<double>::denorm_min();
  std::normal_distribution<double> gauss(500.0, 40.0);
  std::vector<double> v(n);
  for (auto& x : v) x = gauss(*rng);
  switch (kind) {
    case SortInput::kPlanning:
      break;
    case SortInput::kWide:
      for (auto& x : v) {
        do {
          const std::uint64_t bits = (*rng)();
          std::memcpy(&x, &bits, sizeof(x));
        } while (std::isnan(x));
      }
      break;
    case SortInput::kDuplicates: {
      const double pool[] = {-2.0, -0.5, 1.0, 3.0, 500.0, 1e300};
      for (auto& x : v) x = pool[(*rng)() % 6];
      break;
    }
    case SortInput::kSorted:
      std::sort(v.begin(), v.end());
      break;
    case SortInput::kReversed:
      std::sort(v.begin(), v.end(), [](double a, double b) { return b < a; });
      break;
    case SortInput::kSpecial: {
      const double pool[] = {kInf,    -kInf,   0.0,      -0.0,
                             kDenorm, -kDenorm, 3e-310, -3e-310};
      for (auto& x : v) {
        if ((*rng)() % 2 == 0) x = pool[(*rng)() % 8];
      }
      break;
    }
    case SortInput::kWithNan:
      for (auto& x : v) {
        if ((*rng)() % 5 == 0) x = (*rng)() % 2 == 0 ? kNan : -kNan;
      }
      break;
  }
  return v;
}

/// Checks RadixSortAscending's output for `input`; `radix` says whether
/// the call took the radix path (a scratch and at least 128 elements).
void ExpectSortedLikeStdSort(const std::vector<double>& input,
                             const std::vector<double>& out, bool radix) {
  ASSERT_EQ(out.size(), input.size());
  EXPECT_EQ(BitMultiset(out), BitMultiset(input)) << "not a permutation";
  const bool has_nan = std::any_of(input.begin(), input.end(),
                                   [](double x) { return std::isnan(x); });
  if (has_nan) {
    if (radix) {  // NaNs aside, values ascend.
      std::vector<double> numbers;
      for (const double x : out) {
        if (!std::isnan(x)) numbers.push_back(x);
      }
      EXPECT_TRUE(std::is_sorted(numbers.begin(), numbers.end()));
    }
    return;
  }
  std::vector<double> expected = input;
  std::sort(expected.begin(), expected.end());
  for (std::size_t i = 0; i < out.size(); ++i) {
    // −0.0 == +0.0, so their order is the sort's own; any other value has
    // one bit pattern per position.
    if (expected[i] == 0.0) {
      EXPECT_EQ(out[i], 0.0) << "at " << i;
    } else {
      EXPECT_EQ(Bits(out[i]), Bits(expected[i])) << "at " << i;
    }
  }
  if (radix) {  // −0.0 before +0.0.
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {
      EXPECT_FALSE(out[i] == 0.0 && out[i + 1] == 0.0 &&
                   !std::signbit(out[i]) && std::signbit(out[i + 1]))
          << "+0.0 before -0.0 at " << i;
    }
  }
}

class RadixSortTest : public ::testing::TestWithParam<SortInput> {};

TEST_P(RadixSortTest, EverySizeMatchesStdSort) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) + 1);
  for (std::size_t n = 0; n <= 300; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<double> input = MakeSortInput(GetParam(), n, &rng);
    common::RadixSortScratch scratch;
    std::vector<double> out = input;
    common::RadixSortAscending(out.data(), n, &scratch);
    ExpectSortedLikeStdSort(input, out, n >= 128);
    out = input;
    common::RadixSortAscending(out.data(), n, nullptr);
    ExpectSortedLikeStdSort(input, out, false);
  }
}

INSTANTIATE_TEST_SUITE_P(Inputs, RadixSortTest,
                         ::testing::Values(SortInput::kPlanning,
                                           SortInput::kWide,
                                           SortInput::kDuplicates,
                                           SortInput::kSorted,
                                           SortInput::kReversed,
                                           SortInput::kSpecial,
                                           SortInput::kWithNan));

TEST(RadixSortScratchTest, OneScratchServesGrowingAndShrinkingSizes) {
  std::mt19937_64 rng(7);
  common::RadixSortScratch scratch;
  const std::size_t sizes[] = {20, 20, 64, 127, 300, 128, 40, 12, 20, 11, 2,
                               127, 13};
  for (const std::size_t n : sizes) {
    SCOPED_TRACE("n=" + std::to_string(n));
    for (const SortInput kind : {SortInput::kPlanning, SortInput::kSpecial,
                                 SortInput::kWithNan}) {
      const std::vector<double> input = MakeSortInput(kind, n, &rng);
      std::vector<double> out = input;
      common::RadixSortAscending(out.data(), n, &scratch);
      ExpectSortedLikeStdSort(input, out, n >= 128);
    }
  }
}

TEST(RadixSortScratchTest, RetainedBytesCountTheComparatorList) {
  std::mt19937_64 rng(8);
  common::RadixSortScratch scratch;
  EXPECT_EQ(scratch.RetainedBytes(), 0u);
  std::vector<double> v = MakeSortInput(SortInput::kPlanning, 20, &rng);
  common::RadixSortAscending(v.data(), v.size(), &scratch);
  EXPECT_TRUE(scratch.keys.empty());
  EXPECT_FALSE(scratch.network.empty());
  EXPECT_EQ(scratch.RetainedBytes(),
            scratch.network.capacity() *
                sizeof(common::RadixSortScratch::Comparator));
  v = MakeSortInput(SortInput::kPlanning, 200, &rng);
  common::RadixSortAscending(v.data(), v.size(), &scratch);
  EXPECT_GE(scratch.RetainedBytes(), 2 * 200 * sizeof(std::uint64_t));
}

}  // namespace
}  // namespace rs
