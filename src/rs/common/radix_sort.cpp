#include "rs/common/radix_sort.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace rs::common {

namespace {

constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;

/// The radix passes sort from this size on, the network below it, where
/// it beats std::sort at every size measured (bench_micro BM_SortDoubles,
/// from n = 2 on).
constexpr std::size_t kRadixMinSize = 128;
static_assert(kRadixMinSize - 1 <= 0xFF,
              "comparator indices are stored as bytes");

/// Monotone double→uint64 key: non-negative doubles get the sign bit set,
/// negative doubles are fully complemented, so unsigned key order equals
/// double value order.
inline std::uint64_t ForwardKey(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const auto ext = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(bits) >> 63);  // All ones iff negative.
  return bits ^ (ext | kSignBit);
}

inline double InverseKey(std::uint64_t key) {
  const auto ext = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(key) >> 63);  // All ones iff originally >= 0.
  const std::uint64_t bits = key ^ ((ext & kSignBit) | ~ext);
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Batcher's odd–even merge sort network for n elements (K. E. Batcher,
/// "Sorting networks and their applications", AFIPS SJCC 1968), stage by
/// stage. It is the network for the next power of two with every
/// comparator that touches an index ≥ n dropped: those slots would hold
/// +∞, which no comparator moves.
void BuildOddEvenMergeNetwork(
    std::size_t n, std::vector<RadixSortScratch::Comparator>* out) {
  out->clear();
  for (std::size_t p = 1; p < n; p <<= 1) {
    for (std::size_t k = p; k >= 1; k >>= 1) {
      for (std::size_t j = k % p; j + k < n; j += 2 * k) {
        for (std::size_t i = j; i < j + k && i + k < n; ++i) {
          // Only exchange within one 2p-block being merged.
          if (i / (2 * p) == (i + k) / (2 * p)) {
            out->push_back({static_cast<std::uint8_t>(i),
                            static_cast<std::uint8_t>(i + k)});
          }
        }
      }
    }
  }
}

/// Orders *lo ≤ *hi without a branch. Both results test the same
/// predicate (*hi < *lo), so the pair is always permuted, never
/// duplicated, even for −0.0/+0.0 (std::min(a, b) and std::max(b, a)).
inline void CompareExchange(double* lo, double* hi) {
#if defined(__SSE2__)
  // GCC turns std::min/std::max on doubles into a data-dependent branch;
  // minsd/maxsd compute the same two values.
  const __m128d a = _mm_load_sd(lo);
  const __m128d b = _mm_load_sd(hi);
  _mm_store_sd(lo, _mm_min_sd(b, a));  // b < a ? b : a
  _mm_store_sd(hi, _mm_max_sd(a, b));  // a > b ? a : b
#else
  const double a = *lo;
  const double b = *hi;
  *lo = std::min(a, b);
  *hi = std::max(b, a);
#endif
}

void NetworkSort(double* data, std::size_t n, RadixSortScratch* scratch) {
  if (scratch->network_n != n) {
    BuildOddEvenMergeNetwork(n, &scratch->network);
    scratch->network_n = n;
  }
  for (const auto& c : scratch->network) {
    CompareExchange(data + c.lo, data + c.hi);
  }
}

void RadixSort(double* data, std::size_t n, RadixSortScratch* scratch) {
  scratch->keys.resize(n);
  scratch->tmp.resize(n);
  std::uint64_t* a = scratch->keys.data();
  std::uint64_t* b = scratch->tmp.data();

  // One pass builds all eight byte histograms.
  std::uint32_t counts[8][256] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = ForwardKey(data[i]);
    a[i] = key;
    for (int pass = 0; pass < 8; ++pass) {
      ++counts[pass][(key >> (8 * pass)) & 0xFF];
    }
  }

  for (int pass = 0; pass < 8; ++pass) {
    const std::uint32_t* hist = counts[pass];
    // A byte that is constant across the array contributes nothing: the
    // stable scatter would be the identity. (Targets/slacks share sign,
    // exponent, and high-mantissa bytes, so this skips most passes.)
    const unsigned first_byte = (a[0] >> (8 * pass)) & 0xFF;
    if (hist[first_byte] == n) continue;

    std::uint32_t offsets[256];
    std::uint32_t running = 0;
    for (int v = 0; v < 256; ++v) {
      offsets[v] = running;
      running += hist[v];
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t key = a[i];
      b[offsets[(key >> (8 * pass)) & 0xFF]++] = key;
    }
    std::swap(a, b);
  }

  for (std::size_t i = 0; i < n; ++i) data[i] = InverseKey(a[i]);
}

bool HasNan(const double* data, std::size_t n) {
  bool nan = false;
  for (std::size_t i = 0; i < n; ++i) nan |= std::isnan(data[i]);
  return nan;
}

}  // namespace

std::size_t RadixSortScratch::RetainedBytes() const {
  return (keys.capacity() + tmp.capacity()) * sizeof(std::uint64_t) +
         network.capacity() * sizeof(Comparator);
}

void RadixSortAscending(double* data, std::size_t n,
                        RadixSortScratch* scratch) {
  if (n < 2) return;
  if (scratch != nullptr && n >= kRadixMinSize) {
    RadixSort(data, n, scratch);
  } else if (scratch != nullptr && !HasNan(data, n)) {
    // A NaN compares false both ways, so the network would leave it (and
    // whatever it separates) unsorted.
    NetworkSort(data, n, scratch);
  } else {
    std::sort(data, data + n);
  }
}

}  // namespace rs::common
