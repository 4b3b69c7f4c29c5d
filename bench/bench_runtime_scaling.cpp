// Runtime scaling bench: how much faster does the exact-evaluation stage
// of the Fig. 7 DSE loop get with the parallel runtime?
//
// The workload is the paper's nine-kernel domain under the default
// explorer configuration. `rounds` repeated evaluations of the same Pareto
// survivors model a serving scenario (many exploration requests touching
// the same design points per process). Modes:
//
//   serial       the dse::Explorer step-5 loop, measured directly
//   pool         fan-out over a ThreadPool, no memoization
//   pool+cache   fan-out plus the EvalCache memo table
//
// Expected shape: pool scales with physical cores on cold evaluations;
// pool+cache collapses repeated rounds to lookups, which is where the
// >1.5x win comes from even on small machines.
//
// Exit status: 1 when a pool or pool+cache round's exact results differ
// from the serial round's in any field (a wrong result), 2 when only the
// 4-thread speedup or hit-rate target misses, 0 otherwise.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dse/explorer.hpp"
#include "kernels/registry.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/parallel_explorer.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/report.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace rsp;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Setup {
  dse::PreparedExploration prep;
  std::vector<std::size_t> survivors;
  /// Survivor candidates only, so the per-round copies in the pool and
  /// serial paths move the same amount of data.
  dse::ExplorationResult pareto_only;
};

// One serial pass over the Pareto survivors — the exact step-5 loop of
// dse::Explorer::explore. Returns the evaluated survivors in candidate
// order.
std::vector<dse::Candidate> run_serial_round(const Setup& setup) {
  const sched::ContextScheduler scheduler;
  std::vector<dse::Candidate> out;
  for (const std::size_t index : setup.survivors) {
    dse::Candidate cand = setup.prep.result.candidates[index];
    dse::evaluate_exact(cand, setup.prep.programs.size(),
                        [&](std::size_t k, const arch::Architecture& a) {
                          return sched::measure(scheduler,
                                                *setup.prep.programs[k], a);
                        });
    out.push_back(std::move(cand));
  }
  return out;
}

// One pooled pass: the production step-5 driver (a task per (survivor,
// kernel), optionally memoized) on a fresh copy of the survivor set.
std::vector<dse::Candidate> run_pool_round(const Setup& setup,
                                           runtime::ThreadPool& pool,
                                           runtime::EvalCache* cache) {
  dse::ExplorationResult result = setup.pareto_only;
  runtime::evaluate_pareto_exact(setup.prep.programs,
                                 setup.prep.kernel_names, result, pool,
                                 cache);
  return std::move(result.candidates);
}

// Whether `got` carries the serial round's exact results field for field.
bool same_exact_results(const std::vector<dse::Candidate>& expected,
                        const std::vector<dse::Candidate>& got) {
  if (expected.size() != got.size()) return false;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const dse::Candidate& e = expected[i];
    const dse::Candidate& g = got[i];
    if (e.point.label() != g.point.label() || e.evaluated != g.evaluated ||
        e.exact_cycles != g.exact_cycles ||
        e.total_stalls != g.total_stalls ||
        e.exact_time_ns != g.exact_time_ns)
      return false;
  }
  return true;
}

}  // namespace

int main() {
  const std::vector<kernels::Workload> domain = kernels::paper_suite();
  const dse::Explorer explorer((arch::ArraySpec()));

  Setup setup;
  setup.prep = explorer.prepare(domain);
  for (std::size_t i = 0; i < setup.prep.result.candidates.size(); ++i)
    if (setup.prep.result.candidates[i].pareto) {
      setup.survivors.push_back(i);
      setup.pareto_only.candidates.push_back(
          setup.prep.result.candidates[i]);
    }

  constexpr int kRounds = 3;
  bench::print_header("Runtime scaling: exact evaluation, paper domain");
  std::cout << setup.survivors.size() << " Pareto survivors x "
            << setup.prep.programs.size() << " kernels, " << kRounds
            << " rounds (repeated design points)\n";

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

  std::vector<dse::Candidate> serial_results;
  const Clock::time_point serial_start = Clock::now();
  for (int r = 0; r < kRounds; ++r) serial_results = run_serial_round(setup);
  const double serial_ms = ms_since(serial_start);
  table.add_row({"serial", "1", util::format_trimmed(serial_ms, 2), "1.00",
                 "-"});
  csv.add_row({"serial", "1", util::format_trimmed(serial_ms, 3), "1.00",
               "0"});
  add_json_row("serial", 1, serial_ms, 1.0, 0.0);

  double speedup_4_threads = 0.0;
  double hit_rate_4_threads = 0.0;
  std::vector<std::string> wrong_modes;
  for (const bool with_cache : {false, true}) {
    for (const int threads : {1, 2, 4}) {
      runtime::ThreadPool pool(threads);
      runtime::EvalCache cache;
      bool correct = true;
      const Clock::time_point start = Clock::now();
      for (int r = 0; r < kRounds; ++r)
        correct &= same_exact_results(
            serial_results,
            run_pool_round(setup, pool, with_cache ? &cache : nullptr));
      const double elapsed_ms = ms_since(start);
      const double speedup = serial_ms / elapsed_ms;
      const double hit_rate = 100.0 * cache.stats().hit_rate();
      const std::string mode = with_cache ? "pool+cache" : "pool";
      if (!correct)
        wrong_modes.push_back(mode + " at " + std::to_string(threads) +
                              " threads");
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
  bench::maybe_write_csv(csv, "bench_runtime_scaling");

  // BENCH_runtime_scaling.json: the regression-tracking document CI
  // archives (speedup vs thread count, hit rate) alongside the paper-table
  // benches' CSVs.
  util::Json json_doc = util::Json::object();
  json_doc.set("bench", "runtime_scaling")
      .set("pareto_survivors",
           static_cast<std::int64_t>(setup.survivors.size()))
      .set("kernels", static_cast<std::int64_t>(setup.prep.programs.size()))
      .set("rounds", kRounds)
      .set("rows", std::move(json_rows));
  util::Json summary = util::Json::object();
  summary.set("speedup_4_threads_cached", speedup_4_threads)
      .set("hit_rate_percent", hit_rate_4_threads)
      .set("speedup_target", 1.5);
  json_doc.set("summary", std::move(summary));
  bench::maybe_write_json(json_doc, "runtime_scaling");

  // The acceptance bar for the runtime subsystem: every fanned-out round
  // reproduces the serial results, and repeated design points are served
  // >1.5x faster at 4 threads with a warm memo cache.
  for (const std::string& mode : wrong_modes)
    std::cout << "\nWRONG RESULT: " << mode
              << " differs from the serial step-5 loop\n";
  std::cout << "\n4-thread pool+cache speedup: "
            << util::format_trimmed(speedup_4_threads, 2) << "x (target >1.5x), "
            << "cache hit rate " << util::format_trimmed(hit_rate_4_threads, 1)
            << "% (target >0%)\n";
  if (!wrong_modes.empty()) return 1;
  return speedup_4_threads > 1.5 && hit_rate_4_threads > 0.0 ? 0 : 2;
}
