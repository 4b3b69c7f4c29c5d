// Tests for the benchmark's statistics helpers (stats.hpp). Run with
// `ctest` in the benchmark's build directory, or directly.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::abs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

using namespace perfbench::stats;

void percentile_selection() {
  // Nearest rank: p90 of 100 samples is the 90th value, 10 beyond it.
  expect_near(nearest_rank(90, 100), 90, "p90 rank of 100");
  expect_near(samples_beyond(90, 100), 10, "p90 beyond of 100");
  expect_near(samples_beyond(99, 100), 1, "p99 beyond of 100");
  expect_near(samples_beyond(99, 1000), 10, "p99 beyond of 1000");
  expect_near(nearest_rank(99, 200), 198, "p99 rank of 200 (exact product)");
  expect_near(nearest_rank(50, 1), 1, "p50 rank of 1");
  // The highest candidate percentile with at least ten samples beyond.
  expect_near(highest_percentile_with_tail(100, {50, 90, 99}), 90,
              "tail percentile of 100");
  expect_near(highest_percentile_with_tail(99, {50, 90, 99}), 50,
              "tail percentile of 99 (p90 leaves 9 beyond)");
  expect_near(highest_percentile_with_tail(1000, {50, 90, 99}), 99,
              "tail percentile of 1000");
  expect_near(highest_percentile_with_tail(5, {50, 90, 99}), 0,
              "no tail percentile of 5");
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  expect_near(percentile(sorted, 50), 50, "p50 of 1..100");
  expect_near(percentile(sorted, 90), 90, "p90 of 1..100");
  expect_near(percentile(sorted, 99), 99, "p99 of 1..100");
  expect_near(median({3, 1, 2}), 2, "odd median");
  expect_near(median({4, 1, 3, 2}), 2.5, "even median");
}

void quartile_interpolation() {
  // Reference values from Python: statistics.quantiles(data, n=4).
  const auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  expect_near(q[0], 2.75, "q1 of 1..10");
  expect_near(q[1], 5.5, "q2 of 1..10");
  expect_near(q[2], 8.25, "q3 of 1..10");
  const auto r = quartiles({10, 1, 7, 3});  // unsorted input
  expect_near(r[0], 1.5, "q1 of {1,3,7,10}");
  expect_near(r[1], 5.0, "q2 of {1,3,7,10}");
  expect_near(r[2], 9.25, "q3 of {1,3,7,10}");
  const auto t = quartiles({2, 4});  // the two-sample edge clamps j
  expect_near(t[0], 1.5, "q1 of {2,4}");
  expect_near(t[1], 3.0, "q2 of {2,4}");
  expect_near(t[2], 4.5, "q3 of {2,4}");
}

void self_time_subtraction() {
  expect_near(self_time({0, 10}, {}), 10, "leaf span");
  expect_near(self_time({0, 10}, {{2, 4}, {6, 9}}), 5,
              "disjoint nested children");
  expect_near(self_time({0, 10}, {{2, 6}, {4, 8}}), 4,
              "overlapping children count once");
  expect_near(self_time({0, 10}, {{2, 8}, {3, 5}}), 4,
              "child inside a sibling");
  expect_near(self_time({0, 10}, {{-5, 3}, {8, 20}}), 5,
              "children sticking out are clipped");
  expect_near(self_time({0, 10}, {{0, 10}, {1, 2}}), 0,
              "fully covered span");
  expect_near(self_time({0, 10}, {{12, 15}}), 10, "child outside the span");
}

}  // namespace

int main() {
  percentile_selection();
  quartile_interpolation();
  self_time_subtraction();
  if (failures == 0) std::printf("all stats tests passed\n");
  return failures == 0 ? 0 : 1;
}
