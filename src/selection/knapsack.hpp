#pragma once
// The exact Step 1/2 search as a 0/1 knapsack (DESIGN.md §17).
//
// The paper's gain estimator is additive per message, so "enumerate every
// fitting combination, keep the best" (Sec. 3.1-3.2) is a knapsack over the
// candidates' contributions and trace widths. This is the pure solver: it
// knows nothing of flows or messages, only (values, widths, budget).

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace tracesel::selection {

/// The optimum of a knapsack instance: item indices (ascending), the
/// objective value and the total width.
struct KnapsackPick {
  std::vector<std::size_t> items;
  double value = 0.0;
  std::uint32_t width = 0;
};

/// The best non-empty subset S of items whose widths sum to at most
/// `budget`, under exactly the strict total order the enumerating search
/// ranks combinations by:
///
///   1. higher value, where value(S) is the left-to-right floating-point
///      sum 0.0 + v[i1] + v[i2] + ... over S in ascending index order (the
///      very doubles InfoGainEngine::info_gain returns for the sorted
///      combination);
///   2. then the smaller total width;
///   3. then the lexicographically smaller ascending index vector.
///
/// Rounding is respected, not approximated: value ties that only exist
/// after rounding, and sums that absorb a tiny or zero item, are resolved
/// the same way as by scoring every subset. Values may be any finite
/// doubles (zero and negative included); every width must be >= 1. Returns
/// nullopt when no item fits. O(items x budget) time; one flat table of
/// (items + 1) x (width of the optimum + 1) doubles.
std::optional<KnapsackPick> solve_knapsack(
    std::span<const double> values, std::span<const std::uint32_t> widths,
    std::uint32_t budget);

}  // namespace tracesel::selection
