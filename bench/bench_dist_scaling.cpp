// Distributed-DSE scaling: the coordinator/worker split must never change
// a single number (the hard gate, checked at every fleet size), and a
// 4-worker fleet must beat a 1-worker fleet by >= 1.3x wall clock (the
// speedup gate, enforced only when the host actually has >= 4 hardware
// threads to run the fleet on — the ratio is recorded either way).
//
// Exit status: 0 when both gates pass, 1 when a distributed run diverged
// from single-process dse, 2 when only the enforced speedup gate missed —
// so CI can fail on 1 and merely warn on 2.
//
// Workers are real api::SocketServer instances behind loopback TCP, one
// Service each, cold caches per measurement, driven by the same
// dist::DseCoordinator `rsp_cli dse --workers` uses.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "api/socket_server.hpp"
#include "bench_common.hpp"
#include "dist/coordinator.hpp"
#include "dse/explorer.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace rsp;

constexpr double kSpeedupThreshold = 1.3;

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Field-exact agreement with the single-process answer; any divergence is
/// a correctness failure no speedup can excuse.
bool identical(const api::DseResponse& got, const api::DseResponse& expect) {
  if (got.kernels != expect.kernels) return false;
  const dse::ExplorationResult& g = got.result;
  const dse::ExplorationResult& e = expect.result;
  if (g.base_area != e.base_area || g.base_cycles != e.base_cycles ||
      g.base_time_ns != e.base_time_ns || g.selected != e.selected ||
      g.candidates.size() != e.candidates.size())
    return false;
  for (std::size_t i = 0; i < e.candidates.size(); ++i) {
    const dse::Candidate& a = g.candidates[i];
    const dse::Candidate& b = e.candidates[i];
    if (a.point.label() != b.point.label() ||
        a.area_estimate != b.area_estimate ||
        a.area_synthesized != b.area_synthesized ||
        a.clock_ns != b.clock_ns ||
        a.estimated_cycles != b.estimated_cycles ||
        a.estimated_time_ns != b.estimated_time_ns ||
        a.rejected != b.rejected || a.reject_reason != b.reject_reason ||
        a.pareto != b.pareto || a.evaluated != b.evaluated ||
        a.exact_cycles != b.exact_cycles ||
        a.exact_time_ns != b.exact_time_ns ||
        a.total_stalls != b.total_stalls)
      return false;
  }
  return true;
}

/// One in-process worker: its own Service (cold caches), its own socket
/// server on an ephemeral loopback port, its own accept thread.
struct Worker {
  explicit Worker(int threads) {
    api::ServiceOptions options;
    options.threads = threads;
    options.max_inflight = 2;
    service = std::make_unique<api::Service>(options);
    server = std::make_unique<api::SocketServer>(
        *service, std::vector<api::ListenAddress>{
                      api::parse_listen_address("127.0.0.1:0")});
    thread = std::thread([this] { server->run(); });
  }
  ~Worker() {
    server->shutdown();
    thread.join();
  }
  std::unique_ptr<api::Service> service;
  std::unique_ptr<api::SocketServer> server;
  std::thread thread;
};

struct FleetRun {
  int workers = 0;
  double ms = 0.0;
  bool identical_to_serial = false;
};

FleetRun run_fleet(int worker_count, const api::DseRequest& request,
                   const api::DseResponse& expect) {
  std::vector<std::unique_ptr<Worker>> fleet;
  std::vector<api::ListenAddress> addresses;
  for (int i = 0; i < worker_count; ++i) {
    fleet.push_back(std::make_unique<Worker>(/*threads=*/2));
    addresses.push_back(fleet.back()->server->addresses()[0]);
  }
  dist::CoordinatorOptions options;
  options.shard_points = 8;
  dist::DseCoordinator coordinator(std::move(addresses), options);

  FleetRun run;
  run.workers = worker_count;
  const double start = now_ms();
  const api::DseResponse got = coordinator.dse(request);
  run.ms = now_ms() - start;
  run.identical_to_serial = identical(got, expect);
  return run;
}

}  // namespace

int main() {
  bench::print_header(
      "Distributed DSE scaling (paper domain, 1/2/4 local workers)");

  const api::DseRequest request;  // full paper suite, default config

  // Serial reference: a fresh single-process Service, cold caches.
  double serial_ms = 0.0;
  api::DseResponse expect;
  {
    api::ServiceOptions options;
    options.threads = 2;
    options.max_inflight = 2;
    const api::Service service(options);
    const double start = now_ms();
    expect = service.dse(request);
    serial_ms = now_ms() - start;
  }
  std::cout << "single-process dse: " << util::format_trimmed(serial_ms, 1)
            << " ms, " << expect.result.candidates.size()
            << " candidates, selected "
            << (expect.result.selected >= 0
                    ? expect.result.best().point.label()
                    : std::string("none"))
            << "\n";

  util::Table table({"Workers", "Wall (ms)", "vs 1 worker", "Identical"});
  std::vector<FleetRun> runs;
  for (const int workers : {1, 2, 4})
    runs.push_back(run_fleet(workers, request, expect));

  bool all_identical = true;
  for (const FleetRun& run : runs) {
    all_identical = all_identical && run.identical_to_serial;
    table.add_row({std::to_string(run.workers),
                   util::format_trimmed(run.ms, 1),
                   util::format_trimmed(runs[0].ms / run.ms, 2) + "x",
                   run.identical_to_serial ? "yes" : "NO"});
  }
  std::cout << table.render();

  const double speedup = runs[0].ms / runs[2].ms;
  const unsigned cores = std::thread::hardware_concurrency();
  // A 4-worker fleet can only outrun a 1-worker fleet when the host can
  // actually run the workers in parallel; on fewer cores the ratio is
  // reported but the gate is informational.
  const bool enforce_speedup = cores >= 4;
  const bool speedup_ok = speedup >= kSpeedupThreshold;

  util::Json doc = util::Json::object();
  doc.set("serial_ms", serial_ms);
  doc.set("hardware_concurrency", static_cast<std::int64_t>(cores));
  util::Json fleet_rows = util::Json::array();
  for (const FleetRun& run : runs) {
    util::Json row = util::Json::object();
    row.set("workers", run.workers)
        .set("ms", run.ms)
        .set("identical", run.identical_to_serial);
    fleet_rows.push(std::move(row));
  }
  doc.set("fleets", std::move(fleet_rows));
  util::Json gate = util::Json::object();
  gate.set("speedup_4v1", speedup)
      .set("threshold", kSpeedupThreshold)
      .set("enforced", enforce_speedup)
      .set("pass", speedup_ok)
      .set("identical", all_identical);
  doc.set("gate", std::move(gate));
  bench::maybe_write_json(doc, "dist_scaling");

  if (!all_identical) {
    std::cout << "FAIL: a distributed run diverged from single-process dse\n";
    return 1;
  }
  std::cout << "speedup 4 workers vs 1: " << util::format_trimmed(speedup, 2)
            << "x (threshold " << util::format_trimmed(kSpeedupThreshold, 1)
            << "x, " << (enforce_speedup ? "enforced" : "informational on ")
            << (enforce_speedup ? "" : std::to_string(cores) + " cores")
            << ")\n";
  if (enforce_speedup && !speedup_ok) {
    std::cout << "FAIL: 4-worker fleet below the speedup threshold\n";
    return 2;
  }
  std::cout << "distributed results identical at every fleet size\n";
  return 0;
}
