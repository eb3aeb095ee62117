// solve_knapsack against a brute-force oracle that scores every subset
// with the enumerating search's comparator: value (ascending-index
// floating-point sum) descending, then width ascending, then the
// lexicographically smaller index vector.

#include "selection/knapsack.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace tracesel::selection {
namespace {

/// Scores all 2^n - 1 non-empty subsets; nullopt when none fits.
std::optional<KnapsackPick> oracle(const std::vector<double>& values,
                                   const std::vector<std::uint32_t>& widths,
                                   std::uint32_t budget) {
  std::optional<KnapsackPick> best;
  const std::size_t n = values.size();
  for (std::uint64_t mask = 1; mask < (std::uint64_t{1} << n); ++mask) {
    KnapsackPick c;
    for (std::size_t i = 0; i < n; ++i) {
      if (!(mask >> i & 1)) continue;
      c.items.push_back(i);
      c.value += values[i];
      c.width += widths[i];
    }
    if (c.width > budget) continue;
    const bool better =
        !best || c.value > best->value ||
        (c.value == best->value &&
         (c.width < best->width ||
          (c.width == best->width && c.items < best->items)));
    if (better) best = std::move(c);
  }
  return best;
}

void expect_same(const std::optional<KnapsackPick>& got,
                 const std::optional<KnapsackPick>& want,
                 const std::string& where) {
  ASSERT_EQ(got.has_value(), want.has_value()) << where;
  if (!want) return;
  EXPECT_EQ(got->items, want->items) << where;
  EXPECT_EQ(got->value, want->value) << where;  // bit-identical, not near
  EXPECT_EQ(got->width, want->width) << where;
}

TEST(Knapsack, MatchesOracleOnRandomDyadicTables) {
  // Values are multiples of 1/8 (zero included), so sums are exact and
  // equal-value, equal-width ties really occur; some tables carry
  // negative values too.
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    util::Rng rng(seed);
    const std::size_t n = 1 + rng.index(12);
    const bool signed_values = seed % 5 == 0;
    std::vector<double> values(n);
    std::vector<std::uint32_t> widths(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double eighths = static_cast<double>(rng.index(17));
      values[i] = (signed_values ? eighths - 4.0 : eighths) / 8.0;
      widths[i] = static_cast<std::uint32_t>(1 + rng.index(6));
    }
    const auto budget = static_cast<std::uint32_t>(rng.index(3 * n + 4));
    expect_same(solve_knapsack(values, widths, budget),
                oracle(values, widths, budget),
                "seed " + std::to_string(seed));
  }
}

TEST(Knapsack, MatchesOracleOnRandomRealTables) {
  // Contribution-like doubles: sums round, so the DP must follow the same
  // roundings as the enumeration's ascending-order sum.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    util::Rng rng(seed ^ 0xBEEF);
    const std::size_t n = 1 + rng.index(12);
    std::vector<double> values(n);
    std::vector<std::uint32_t> widths(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double scale = std::pow(10.0, -static_cast<double>(rng.index(4)));
      values[i] = rng.unit() * scale;
      widths[i] = static_cast<std::uint32_t>(1 + rng.index(8));
    }
    const auto budget = static_cast<std::uint32_t>(rng.index(4 * n + 4));
    expect_same(solve_knapsack(values, widths, budget),
                oracle(values, widths, budget),
                "seed " + std::to_string(seed));
  }
}

TEST(Knapsack, RoundingTieGoesToTheLexicographicallySmallerSet) {
  // 1 + 0.75 ulp and 1 + 1 ulp both round to 1 + ulp: {0,2} and {1,2}
  // tie on value and width, though {0}'s running sum is the smaller one.
  const double ulp = std::ldexp(1.0, -52);
  const std::vector<double> values{0.75 * ulp, ulp, 1.0};
  const std::vector<std::uint32_t> widths{1, 1, 1};
  const auto pick = solve_knapsack(values, widths, 2);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->items, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(pick->value, 1.0 + ulp);
  expect_same(pick, oracle(values, widths, 2), "rounding tie");
}

TEST(Knapsack, AbsorbedAndZeroItemsAreLeftOut) {
  // Adding 2^-60 to 1.0 (or adding 0.0) leaves the sum unchanged, so the
  // narrower set wins, exactly as when every subset is scored.
  const std::vector<double> values{1.0, std::ldexp(1.0, -60), 0.0};
  const std::vector<std::uint32_t> widths{2, 1, 1};
  const auto pick = solve_knapsack(values, widths, 4);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->items, (std::vector<std::size_t>{0}));
  EXPECT_EQ(pick->width, 2u);
}

TEST(Knapsack, AllZeroValuesPickTheNarrowestLowestItem) {
  const std::vector<double> values{0.0, 0.0, 0.0};
  const std::vector<std::uint32_t> widths{3, 2, 2};
  const auto pick = solve_knapsack(values, widths, 8);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->items, (std::vector<std::size_t>{1}));
  EXPECT_EQ(pick->width, 2u);
}

TEST(Knapsack, NothingFits) {
  const std::vector<double> values{1.0, 2.0};
  const std::vector<std::uint32_t> widths{5, 6};
  EXPECT_FALSE(solve_knapsack(values, widths, 4).has_value());
  EXPECT_FALSE(solve_knapsack({}, {}, 16).has_value());
}

}  // namespace
}  // namespace tracesel::selection
