/// \file radix_sort.hpp
/// \brief Allocation-free, branch-free sorts for doubles — the workhorse
///        behind the per-decision Monte Carlo sorts.
///
/// The planning hot loop sorts R doubles once per committed decision, and
/// std::sort's data-dependent branches mispredict on random doubles. Both
/// paths here take no branch on the data:
///
///  * Below 128 elements, a Batcher odd–even merge network: a fixed list
///    of compare-exchanges, each one minsd/maxsd pair. The list is built
///    once per size and kept in the scratch. At R = 20 it takes about a
///    third of std::sort's time (bench_micro BM_SortDoubles).
///  * From 128 elements, a byte-wise LSD radix sort at ~2-3 ns/element/pass.
///    Passes whose byte is constant across the whole array are skipped
///    outright — planning targets share sign, exponent, and high mantissa
///    bytes, so typically only 4-5 of the 8 passes run.
///
/// Calls without a scratch, and arrays below 128 elements that hold a NaN,
/// go to std::sort. A NaN-free array of doubles has one ascending sequence
/// of values, so every path returns the values std::sort returns; only the
/// order of −0.0 and +0.0, which compare equal, may differ.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rs::common {

/// Reusable buffers for RadixSortAscending: two 8-byte keys per element
/// for the radix path, the comparator list for the network path.
struct RadixSortScratch {
  /// One compare-exchange: afterwards data[lo] <= data[hi].
  struct Comparator {
    std::uint8_t lo;
    std::uint8_t hi;
  };

  std::vector<std::uint64_t> keys;
  std::vector<std::uint64_t> tmp;
  std::vector<Comparator> network;  ///< Sorts network_n elements.
  std::size_t network_n = 0;

  /// Bytes retained by the buffers (their capacities).
  std::size_t RetainedBytes() const;
};

/// Sorts data[0..n) ascending. Finite values and infinities order exactly
/// as operator< does. From 128 elements −0.0 sorts before +0.0 and NaNs
/// sort by bit pattern (below −inf / above +inf by sign); below that, and
/// without a scratch, the order among equal zeros and NaNs is unspecified.
void RadixSortAscending(double* data, std::size_t n,
                        RadixSortScratch* scratch);

}  // namespace rs::common
