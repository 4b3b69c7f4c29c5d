// Order statistics and span self-time arithmetic for the benchmark report.
// Header-only so stats_test.cpp exercises exactly what perfbench.cpp uses.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace perfbench::stats {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty input.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples: the smallest rank r with r >= p/100 * n.
inline std::size_t nearest_rank(double p, std::size_t n) {
  if (n == 0 || !(p > 0.0) || p > 100.0)
    throw std::invalid_argument("percentile rank needs n > 0 and 0 < p <= 100");
  // The epsilon keeps p/100 * n that is an integer in exact arithmetic
  // (99.0 / 100 * 200) from rounding up to the next rank.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
inline std::size_t samples_beyond(double p, std::size_t n) {
  return n - nearest_rank(p, n);
}

/// Nearest-rank percentile of `sorted` (ascending).
inline double percentile(const std::vector<double>& sorted, double p) {
  return sorted[nearest_rank(p, sorted.size()) - 1];
}

/// The highest of `candidates` (ascending order not required) whose
/// nearest-rank percentile over `n` samples has at least `min_beyond`
/// samples above it; 0 when none has.
inline double highest_percentile_with_tail(
    std::size_t n, const std::vector<double>& candidates,
    std::size_t min_beyond = 10) {
  double best = 0.0;
  for (const double p : candidates)
    if (n > 0 && samples_beyond(p, n) >= min_beyond) best = std::max(best, p);
  return best;
}

/// First, second and third quartile with the same interpolation as
/// Python's statistics.quantiles(values, n=4) (its default "exclusive"
/// method), so the benchmark's spreads read the same as the ones computed
/// over its results. Needs at least two values.
inline std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.size() < 2)
    throw std::invalid_argument("quartiles need at least two samples");
  std::sort(values.begin(), values.end());
  const long ld = static_cast<long>(values.size());
  const long m = ld + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

/// A closed-open time interval [begin, end) in any one unit.
struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Self time of a span: its duration minus the part of it that its
/// children cover. Children may nest, overlap one another (concurrent
/// children) or stick out of the parent; only their union inside the
/// parent is subtracted, so the result is never negative.
inline double self_time(Interval parent, std::vector<Interval> children) {
  const double duration = std::max(0.0, parent.end - parent.begin);
  for (Interval& c : children) {
    c.begin = std::max(c.begin, parent.begin);
    c.end = std::min(c.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double covered = 0.0;
  double reach = parent.begin;  // end of the union swept so far
  for (const Interval& c : children) {
    if (c.end <= c.begin || c.end <= reach) continue;
    covered += c.end - std::max(c.begin, reach);
    reach = c.end;
  }
  return duration - covered;
}

}  // namespace perfbench::stats
