// Prepare scaling bench: how much faster does the serial front-end of the
// Fig. 7 DSE loop — steps 1–4, initial mapping + base scheduling,
// parameter enumeration, estimation and Pareto filtering — get with the
// parallel runtime?
//
// The workload is the paper's nine-kernel domain under the default
// explorer configuration. `rounds` repeated prepares of the same domain
// model a serving scenario (many dse/map requests touching the same
// kernels per process). Modes:
//
//   serial       dse::Explorer::prepare, measured directly
//   pool         runtime::prepare_parallel, no memoization
//   pool+cache   prepare_parallel plus the MappingCache memo table
//
// Expected shape: steps 2–3 profile each kernel once (in step 1) and then
// cost O(distinct cycle patterns) per point, so step-1 mapping and base
// scheduling dominate every mode. pool spreads that step over at most one
// task per kernel; pool+cache additionally collapses the repeated rounds'
// step 1 to shared_ptr copies, which is where the >1.5x win comes from
// even on small machines. The ratio is smaller than before profiling
// because the serial baseline lost most of its estimation work too.
#include <chrono>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "dse/explorer.hpp"
#include "kernels/registry.hpp"
#include "runtime/mapping_cache.hpp"
#include "runtime/parallel_explorer.hpp"
#include "runtime/thread_pool.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace rsp;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

int main() {
  const std::vector<kernels::Workload> domain = kernels::paper_suite();
  const dse::Explorer explorer((arch::ArraySpec()));
  const std::size_t grid_points = explorer.enumerate_points().size();

  constexpr int kRounds = 3;
  bench::print_header("Prepare scaling: DSE steps 1-4, paper domain");
  std::cout << domain.size() << " kernels x " << grid_points
            << " grid points, " << kRounds << " rounds (repeated domains)\n";

  util::Table table(
      {"Mode", "Threads", "Time(ms)", "Speedup", "Hit rate(%)"});
  util::CsvWriter csv(
      {"mode", "threads", "time_ms", "speedup", "hit_rate_percent"});
  util::Json json_rows = util::Json::array();
  const auto add_json_row = [&json_rows](const std::string& mode, int threads,
                                         double time_ms, double speedup,
                                         double hit_rate) {
    util::Json row = util::Json::object();
    row.set("mode", mode)
        .set("threads", threads)
        .set("time_ms", time_ms)
        .set("speedup", speedup)
        .set("hit_rate_percent", hit_rate);
    json_rows.push(std::move(row));
  };

  const Clock::time_point serial_start = Clock::now();
  for (int r = 0; r < kRounds; ++r) explorer.prepare(domain);
  const double serial_ms = ms_since(serial_start);
  table.add_row({"serial", "1", util::format_trimmed(serial_ms, 2), "1.00",
                 "-"});
  csv.add_row({"serial", "1", util::format_trimmed(serial_ms, 3), "1.00",
               "0"});
  add_json_row("serial", 1, serial_ms, 1.0, 0.0);

  double speedup_4_threads = 0.0;
  double hit_rate_4_threads = 0.0;
  for (const bool with_cache : {false, true}) {
    for (const int threads : {1, 2, 4}) {
      runtime::ThreadPool pool(threads);
      runtime::MappingCache cache;
      const Clock::time_point start = Clock::now();
      for (int r = 0; r < kRounds; ++r)
        runtime::prepare_parallel(explorer, domain, pool,
                                  with_cache ? &cache : nullptr);
      const double elapsed_ms = ms_since(start);
      const double speedup = serial_ms / elapsed_ms;
      const double hit_rate = 100.0 * cache.stats().hit_rate();
      const std::string mode = with_cache ? "pool+cache" : "pool";
      table.add_row({mode, std::to_string(threads),
                     util::format_trimmed(elapsed_ms, 2),
                     util::format_trimmed(speedup, 2),
                     with_cache ? util::format_trimmed(hit_rate, 1) : "-"});
      csv.add_row({mode, std::to_string(threads),
                   util::format_trimmed(elapsed_ms, 3),
                   util::format_trimmed(speedup, 3),
                   util::format_trimmed(hit_rate, 2)});
      add_json_row(mode, threads, elapsed_ms, speedup,
                   with_cache ? hit_rate : 0.0);
      if (with_cache && threads == 4) {
        speedup_4_threads = speedup;
        hit_rate_4_threads = hit_rate;
      }
    }
  }

  std::cout << table.render();
  bench::maybe_write_csv(csv, "bench_prepare_scaling");

  // BENCH_prepare_scaling.json: the regression-tracking document CI
  // archives alongside BENCH_runtime_scaling.json.
  util::Json json_doc = util::Json::object();
  json_doc.set("bench", "prepare_scaling")
      .set("kernels", static_cast<std::int64_t>(domain.size()))
      .set("grid_points", static_cast<std::int64_t>(grid_points))
      .set("rounds", kRounds)
      .set("rows", std::move(json_rows));
  util::Json summary = util::Json::object();
  summary.set("speedup_4_threads_cached", speedup_4_threads)
      .set("mapping_hit_rate_percent", hit_rate_4_threads)
      .set("speedup_target", 1.5)
      .set("hit_rate_target_percent", 50.0);
  json_doc.set("summary", std::move(summary));
  bench::maybe_write_json(json_doc, "prepare_scaling");

  // The acceptance bar for the parallel front-end: repeated domains must
  // be prepared >1.5x faster at 4 threads with the mapping cache serving
  // more than half of the step-1 requests.
  std::cout << "\n4-thread pool+cache speedup: "
            << util::format_trimmed(speedup_4_threads, 2)
            << "x (target >1.5x), mapping hit rate "
            << util::format_trimmed(hit_rate_4_threads, 1)
            << "% (target >50%)\n";
  return speedup_4_threads > 1.5 && hit_rate_4_threads > 50.0 ? 0 : 1;
}
