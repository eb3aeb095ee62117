#include "selection/knapsack.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace tracesel::selection {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Order-preserving map from non-NaN doubles to unsigned integers: a < b
/// implies key(a) < key(b), and adjacent keys are adjacent doubles.
std::uint64_t key_of(double x) {
  const auto u = std::bit_cast<std::uint64_t>(x);
  return (u >> 63) ? ~u : (u | (std::uint64_t{1} << 63));
}

double double_of(std::uint64_t k) {
  return std::bit_cast<double>((k >> 63) ? (k & ~(std::uint64_t{1} << 63))
                                         : ~k);
}

/// The smallest double p with fl(p + v) >= t, for finite v and t.
/// x -> fl(x + v) is nondecreasing (rounding is monotone), so the passing
/// p form an up-set of the doubles; gallop from the estimate t - v to a
/// failing/passing key pair, then bisect between them.
double min_start(double v, double t) {
  const auto passes = [&](std::uint64_t k) { return double_of(k) + v >= t; };
  const std::uint64_t lowest = key_of(-kInf);  // never passes
  const std::uint64_t highest = key_of(kInf);  // always passes
  std::uint64_t lo = 0, hi = 0;                // !passes(lo), passes(hi)
  const std::uint64_t k = key_of(t - v);
  std::uint64_t step = 1;
  if (passes(k)) {
    hi = k;
    for (;;) {
      lo = hi - std::min(step, hi - lowest);
      if (!passes(lo)) break;
      hi = lo;
      step *= 2;
    }
  } else {
    lo = k;
    for (;;) {
      hi = lo + std::min(step, highest - lo);
      if (passes(hi)) break;
      lo = hi;
      step *= 2;
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (passes(mid) ? hi : lo) = mid;
  }
  return double_of(hi);
}

}  // namespace

// Why this is exactly the enumerating search's answer (DESIGN.md §17):
//
// Rounding is monotone: a <= b implies fl(a + v) <= fl(b + v). So the
// forward pass, best[c] = max(best[c], fl(best[c - w] + v)), holds the
// true maximum value over all subsets of the items seen so far whose
// widths sum to exactly c — any such subset's value is fl(prefix + v) for
// a prefix no better than the cell it extends. That yields the optimal
// value and, as the least width reaching it, the optimal width.
//
// Many subsets may reach that (value, width), not all through optimal
// prefixes (a smaller prefix can round to the same sum). The lexicographic
// tie-break decides the smallest index first, so the reconstruction walks
// forward and takes item i whenever some completion over items > i still
// reaches the optimum. "Some completion from running sum p reaches it" is
// monotone in p, so it is a threshold need[i][r] on p, computed backward:
// need[n][0] = best value, need[i][r] = min(need[i+1][r],
// min_start(v_i, need[i+1][r - w_i])).
std::optional<KnapsackPick> solve_knapsack(
    std::span<const double> values, std::span<const std::uint32_t> widths,
    std::uint32_t budget) {
  const std::size_t n = values.size();

  // Forward: best[c] = max value over subsets of width exactly c.
  std::vector<double> best(std::size_t{budget} + 1, -kInf);
  best[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = values[i];
    for (std::uint32_t c = budget; c >= widths[i]; --c)
      best[c] = std::max(best[c], best[c - widths[i]] + v);
  }
  double target = -kInf;
  std::uint32_t width = 0;
  for (std::uint32_t c = 1; c <= budget; ++c) {
    if (best[c] > target) {
      target = best[c];
      width = c;
    }
  }
  if (width == 0) return std::nullopt;  // no item fits

  // Backward: need[i * stride + r] is the least running sum from which
  // items i.. can add exactly r more width and still reach `target`.
  const std::size_t stride = std::size_t{width} + 1;
  std::vector<double> need((n + 1) * stride, kInf);
  need[n * stride] = target;
  for (std::size_t i = n; i-- > 0;) {
    const double* next = &need[(i + 1) * stride];
    double* row = &need[i * stride];
    for (std::uint32_t r = 0; r <= width; ++r) {
      row[r] = next[r];
      if (widths[i] <= r && next[r - widths[i]] != kInf)
        row[r] = std::min(row[r], min_start(values[i], next[r - widths[i]]));
    }
  }

  // Forward again: take each item whenever the optimum stays reachable.
  KnapsackPick pick;
  double sum = 0.0;
  std::uint32_t left = width;
  for (std::size_t i = 0; i < n && left > 0; ++i) {
    if (widths[i] > left) continue;
    const double with = sum + values[i];
    if (with >= need[(i + 1) * stride + (left - widths[i])]) {
      pick.items.push_back(i);
      sum = with;
      left -= widths[i];
    }
  }
  pick.value = sum;
  pick.width = width;
  return pick;
}

}  // namespace tracesel::selection
