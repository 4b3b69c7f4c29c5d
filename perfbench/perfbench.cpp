// perfbench — the repository benchmark (README.md beside this file).
//
// Every workload sends protocol-v2 NDJSON requests over one unix-socket
// connection, from one client thread, to an api::SocketServer running in
// this process, and checks every response. An untraced run (--trace 0)
// reports the end-to-end metrics; a traced run (--trace 1) additionally
// executes each request in-process through the public api functions and
// replays the layer calls the op implies, recording spans around them
// from this file only, and reports the per-layer metrics.
//
//   perfbench --workload serve_cold|serve_warm|dse_local|dse_fleet
//             --seed N --seconds S --trace 0|1
//
// The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/verifier.hpp"
#include "api/protocol.hpp"
#include "api/service.hpp"
#include "api/socket_server.hpp"
#include "arch/presets.hpp"
#include "client.hpp"
#include "core/estimate.hpp"
#include "dist/coordinator.hpp"
#include "dse/explorer.hpp"
#include "gen/generator.hpp"
#include "kernels/registry.hpp"
#include "sched/legality.hpp"
#include "sched/pretty.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "sim/program.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace {

using namespace rsp;
using perfbench::Clock;
using perfbench::LineClient;
using perfbench::Tracer;
namespace stats = perfbench::stats;

enum class Kind { kServeCold, kServeWarm, kDseLocal, kDseFleet };

bool is_dse(Kind kind) {
  return kind == Kind::kDseLocal || kind == Kind::kDseFleet;
}

/// peak_rss_mb is read when this many requests have completed: a fifth to
/// a third of what a 15-second window completes at the time of writing, so
/// a several-fold slow-down still reaches it.
long rss_request_count(Kind kind) {
  switch (kind) {
    case Kind::kServeCold: return 4000;
    case Kind::kServeWarm: return 20000;
    case Kind::kDseLocal: return 150;
    case Kind::kDseFleet: return 100;
  }
  return 0;
}

/// setup_s is the median over this many full set-ups in one run.
constexpr int kSetupRepeats = 41;
/// dse_* Service pools, as a 4-core host runs `serve --threads 4`: one
/// exploration at a time spreads over every core.
constexpr int kServiceThreads = 4;
/// serve_*: requests in flight, and the Service's dispatch and evaluation
/// pools. With the server's IO thread and the client thread that is one
/// busy thread per core of a 4-core host. More in flight makes a fast
/// request queue for a core behind the map and simulate requests, so its
/// latency swings with the host's speed about twice as far as throughput.
constexpr int kServeWindow = 2;
constexpr int kServeThreads = 2;

/// Closed-loop window: requests kept in flight on the one connection. The
/// traced run sends one request at a time, so a span never competes with
/// the server's other in-flight requests and api.roundtrip never includes
/// time the response waited while the client replayed another request.
int window_for(Kind kind, bool traced) {
  return traced || is_dse(kind) ? 1 : kServeWindow;
}

/// dse_fleet: in-process loopback workers, each with its own eval pool.
constexpr int kFleetWorkers = 2;
constexpr int kWorkerThreads = 2;
constexpr int kDomainKernels = 6;
/// A read that waits longer than this counts the in-flight requests as
/// missing instead of hanging the run.
constexpr int kResponseTimeoutS = 60;
/// serve_* timing figures are medians over slices of this length.
constexpr double kSliceS = 1.0;

const std::vector<std::string> kArchs = {"Base",  "RS#1",  "RS#2",
                                         "RS#3",  "RS#4",  "RSP#1",
                                         "RSP#2", "RSP#3", "RSP#4"};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string clip(const std::string& s, std::size_t n = 240) {
  return s.size() <= n ? s : s.substr(0, n) + "...";
}

// ------------------------------------------------------------- inputs
//
// Inputs are a pure function of (--seed, stream, index). Streams keep the
// kernel seeds, the op mix and the pair draw independent of one another.

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index) {
  return util::mix64(util::mix64(seed ^ util::mix64(stream)) + index);
}

enum Stream : std::uint64_t {
  kColdKernels = 1,
  kColdMix = 2,
  kWarmPairs = 3,
  kWarmMix = 4,
  kDseKernels = 5,
};

/// One generated request: its op and names, and the wire fields that
/// follow the envelope.
struct Request {
  std::string op;
  std::string kernel;
  std::string arch;
  std::string engine;                ///< simulate; empty = the default
  std::vector<std::string> kernels;  ///< dse domain
  std::string payload;
};

std::string quote(const std::string& s) { return util::Json(s).dump(); }

Request serve_request(const std::string& op, const std::string& kernel,
                      const std::string& arch = "",
                      const std::string& engine = "") {
  Request r;
  r.op = op;
  r.kernel = kernel;
  r.arch = arch;
  r.engine = engine;
  r.payload = "\"op\":" + quote(op) + ",\"kernel\":" + quote(kernel);
  if (!arch.empty()) r.payload += ",\"arch\":" + quote(arch);
  if (!engine.empty()) r.payload += ",\"engine\":" + quote(engine);
  return r;
}

Request dse_request(std::vector<std::string> kernels) {
  Request r;
  r.op = "dse";
  r.payload = "\"op\":\"dse\",\"kernels\":[";
  for (std::size_t i = 0; i < kernels.size(); ++i)
    r.payload += (i ? "," : "") + quote(kernels[i]);
  r.payload +=
      "],\"config\":{\"max_units_per_row\":8,\"max_units_per_col\":8,"
      "\"max_stages\":4}";
  r.kernels = std::move(kernels);
  return r;
}

std::string wire_line(std::int64_t id, const Request& r) {
  return "{\"protocol_version\":2,\"id\":" + std::to_string(id) + "," +
         r.payload + "}";
}

/// serve_cold: kernel k is gen:<derive(seed, k)>, paired in turn with each
/// of the nine standard architectures, so every request names a (kernel,
/// arch) pair the process has never seen. Op mix: simulate event 50%,
/// simulate dense 10%, map 20%, lint 20%.
class ColdSource {
 public:
  explicit ColdSource(std::uint64_t seed) : seed_(seed) {}
  Request next() {
    const std::uint64_t i = index_++;
    const std::string kernel =
        gen::gen_name(derive(seed_, kColdKernels, i / kArchs.size()));
    const std::string& arch = kArchs[i % kArchs.size()];
    const std::uint64_t u = derive(seed_, kColdMix, i) % 100;
    if (u < 50) return serve_request("simulate", kernel, arch, "event");
    if (u < 60) return serve_request("simulate", kernel, arch, "dense");
    if (u < 80) return serve_request("map", kernel, arch);
    return serve_request("lint", kernel, arch);
  }

 private:
  std::uint64_t seed_;
  std::uint64_t index_ = 0;
};

/// serve_warm: uniform draws from the 14 catalogue kernels x 9
/// architectures (126 pairs), all primed during set-up. Op mix: simulate
/// 70%, eval 15%, map 15%.
class WarmSource {
 public:
  WarmSource(std::uint64_t seed, std::vector<std::string> kernels)
      : seed_(seed), kernels_(std::move(kernels)) {}
  Request next() {
    const std::uint64_t i = index_++;
    const std::uint64_t pair =
        derive(seed_, kWarmPairs, i) % (kernels_.size() * kArchs.size());
    const std::string& kernel = kernels_[pair / kArchs.size()];
    const std::string& arch = kArchs[pair % kArchs.size()];
    const std::uint64_t u = derive(seed_, kWarmMix, i) % 100;
    if (u < 70) return serve_request("simulate", kernel, arch);
    if (u < 85) return serve_request("eval", kernel);
    return serve_request("map", kernel, arch);
  }
  /// Every distinct request next() can produce.
  std::vector<Request> working_set() const {
    std::vector<Request> out;
    for (const std::string& kernel : kernels_) {
      out.push_back(serve_request("eval", kernel));
      for (const std::string& arch : kArchs) {
        out.push_back(serve_request("simulate", kernel, arch));
        out.push_back(serve_request("map", kernel, arch));
      }
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  std::vector<std::string> kernels_;
  std::uint64_t index_ = 0;
};

/// dse_*: fresh gen:<derive(seed, j)> kernels, grouped by array geometry
/// (the explorer needs one geometry per domain); a domain is emitted as
/// soon as one geometry holds six kernels. The generator runs here only
/// to learn each kernel's geometry — the server receives the names.
class DseSource {
 public:
  explicit DseSource(std::uint64_t seed) : seed_(seed) {}
  Request next() {
    for (;;) {
      gen::GeneratorConfig config;
      config.seed = derive(seed_, kDseKernels, index_++);
      const kernels::Workload w = gen::generate_workload(config);
      std::vector<std::string>& bucket =
          buckets_[{w.array.rows, w.array.cols}];
      bucket.push_back(w.name);
      if (static_cast<int>(bucket.size()) == kDomainKernels)
        return dse_request(std::exchange(bucket, {}));
    }
  }

 private:
  std::uint64_t seed_;
  std::uint64_t index_ = 0;
  std::map<std::pair<int, int>, std::vector<std::string>> buckets_;
};

/// Every field of a dse answer, doubles in exact hex form, hashed: the
/// fields bench_dist_scaling's identical() compares. Equal digests mean a
/// field-exact match, and an answer can be kept for the post-window check
/// without keeping its candidates.
std::uint64_t field_digest(const api::DseResponse& response) {
  std::string s;
  char buf[64];
  const auto real = [&](double v) {
    std::snprintf(buf, sizeof buf, "%a,", v);
    s += buf;
  };
  const auto integer = [&](long v) { s += std::to_string(v) + ","; };
  for (const std::string& name : response.kernels) s += name + ",";
  const dse::ExplorationResult& r = response.result;
  real(r.base_area);
  integer(r.base_cycles);
  real(r.base_time_ns);
  integer(r.selected);
  for (const dse::Candidate& c : r.candidates) {
    s += ";" + c.point.label() + ",";
    real(c.area_estimate);
    real(c.area_synthesized);
    real(c.clock_ns);
    integer(c.estimated_cycles);
    real(c.estimated_time_ns);
    integer(c.rejected);
    s += c.reject_reason + ",";
    integer(c.pareto);
    integer(c.evaluated);
    integer(c.exact_cycles);
    real(c.exact_time_ns);
    integer(c.total_stalls);
  }
  return util::fnv1a(s);
}

std::string domain_key(const std::vector<std::string>& kernels) {
  std::string key;
  for (const std::string& k : kernels) key += k + "\n";
  return key;
}

// ------------------------------------------------------- system under test

/// One in-process fleet worker: its own Service behind a loopback TCP
/// SocketServer, as `rsp_cli worker 127.0.0.1:0` would run it.
struct Worker {
  Worker() {
    api::ServiceOptions options;
    options.threads = kWorkerThreads;
    options.max_inflight = kWorkerThreads;
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
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  std::unique_ptr<api::Service> service;
  std::unique_ptr<api::SocketServer> server;
  std::thread thread;
};

api::ServiceOptions service_options(Kind kind) {
  api::ServiceOptions options;
  options.threads = is_dse(kind) ? kServiceThreads : kServeThreads;
  options.max_inflight = options.threads;
  return options;
}

/// The server under test, wired the way `rsp_cli serve --listen` (and,
/// for dse_fleet, `serve --workers`) wires it.
class Stack {
 public:
  Stack(Kind kind, const std::string& socket_path) : kind_(kind) {
    if (kind == Kind::kDseFleet) {
      std::vector<api::ListenAddress> addresses;
      for (int i = 0; i < kFleetWorkers; ++i) {
        fleet_.push_back(std::make_unique<Worker>());
        addresses.push_back(fleet_.back()->server->addresses()[0]);
      }
      coordinator_ = std::make_unique<dist::DseCoordinator>(
          std::move(addresses), dist::CoordinatorOptions{});
    }
    service_ = make_service();
    server_ = std::make_unique<api::SocketServer>(
        *service_, std::vector<api::ListenAddress>{
                       api::parse_listen_address(socket_path)});
    service_->set_stats_extension([this] { return server_->stats_json(); });
    thread_ = std::thread([this] { server_->run(); });
  }
  ~Stack() {
    server_->shutdown();
    thread_.join();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// A Service configured exactly like the served one (same options, same
  /// dse delegate), for the traced run's in-process api calls.
  std::unique_ptr<api::Service> make_service() {
    auto service = std::make_unique<api::Service>(service_options(kind_));
    if (dist::DseCoordinator* c = coordinator_.get()) {
      // As `serve --workers` delegates, plus a digest of each answer for
      // the post-window check (served_digest). Domains are fresh, so the
      // first answer per domain is the served one; the traced run's second
      // answer does not replace it.
      service->set_dse_delegate([this, c](const api::DseRequest& request) {
        api::DseResponse response = c->dse(request);
        const std::uint64_t digest = field_digest(response);
        const std::lock_guard<std::mutex> lock(digests_mu_);
        digests_.try_emplace(domain_key(request.kernels), digest);
        return response;
      });
      service->set_dist_extension([c] { return c->stats_json(); });
    }
    return service;
  }

  /// The digest of the full answer the coordinator gave for `kernels`;
  /// nullopt without a fleet, where the answer never leaves the Service.
  std::optional<std::uint64_t> served_digest(
      const std::vector<std::string>& kernels) {
    const std::lock_guard<std::mutex> lock(digests_mu_);
    const auto it = digests_.find(domain_key(kernels));
    if (it == digests_.end()) return std::nullopt;
    return it->second;
  }

  api::Service& service() { return *service_; }
  dist::DseCoordinator* coordinator() { return coordinator_.get(); }
  const api::ListenAddress& address() const { return server_->addresses()[0]; }

 private:
  // Destroyed bottom-up: the server drains before the Service it serves,
  // the Service before the coordinator and digests its delegate uses, the
  // coordinator before the workers it connects to.
  Kind kind_;
  std::mutex digests_mu_;
  std::map<std::string, std::uint64_t> digests_;
  std::vector<std::unique_ptr<Worker>> fleet_;
  std::unique_ptr<dist::DseCoordinator> coordinator_;
  std::unique_ptr<api::Service> service_;
  std::unique_ptr<api::SocketServer> server_;
  std::thread thread_;
};

// ------------------------------------------------------------ checking

/// Every failed check, printed with its request; none is dropped.
struct Failures {
  long count = 0;
  std::vector<std::string> messages;
  void add(const std::string& request_line, const std::string& why,
           const std::string& response = "") {
    ++count;
    messages.push_back("FAIL " + why + "\n  request:  " + request_line +
                       (response.empty() ? "" : "\n  response: " + clip(response)));
  }
};

/// Strips the echoed id, so a response compares with another run's.
std::string strip_id(const std::string& line, std::int64_t id) {
  const std::string prefix =
      "{\"protocol_version\":2,\"id\":" + std::to_string(id) + ",";
  if (line.compare(0, prefix.size(), prefix) != 0) return line;
  return "{\"protocol_version\":2," + line.substr(prefix.size());
}

/// The in-band result checks: ok:true, and per op simulate matches_golden,
/// lint clean, map a rendered schedule. Returns the failure reason, or ""
/// when the response passes.
std::string body_problem(const Request& r, const std::string& line) {
  util::Json doc;
  try {
    doc = util::Json::parse(line);
  } catch (const std::exception& e) {
    return std::string("response is not JSON: ") + e.what();
  }
  const auto flag = [&doc](const char* key) {
    return doc.contains(key) && doc.at(key).is_bool() && doc.at(key).as_bool();
  };
  if (!flag("ok")) return "in-band error";
  if (r.op == "simulate" && !flag("matches_golden"))
    return "simulate does not match golden";
  if (r.op == "lint" && !flag("clean")) return "lint is not clean";
  if (r.op == "map" &&
      !(doc.contains("schedule") && doc.at("schedule").is_string() &&
        !doc.at("schedule").as_string().empty()))
    return "map rendered no schedule";
  if (r.op == "dse" && !(doc.contains("candidates") &&
                         doc.at("candidates").is_number()))
    return "dse reported no candidates";
  return "";
}

/// A served dse response, kept for the post-window check against the
/// serial explorer.
struct DseRecord {
  std::int64_t id = 0;
  std::string line;      ///< request line as sent
  std::string response;  ///< response line as received
  std::optional<std::uint64_t> replayed;  ///< traced run: replay's digest
};

/// After the timed window, for every served dse request: the serial
/// dse::Explorer::explore on the same domain and config must (a) encode to
/// the served response byte for byte, (b) match the served answer in every
/// field and (c), in the traced run, match the replayed Explorer stages in
/// every field. dse_fleet's served answers are digested in the delegate,
/// which is the embedding program's code (rsp_cli's, here the
/// benchmark's); a dse_local answer never leaves the Service, so the
/// served Service answers the request again in-process for (b).
void verify_dse(Stack& stack, const std::vector<DseRecord>& records,
                Failures& failures) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  const auto verify_one = [&](const DseRecord& record) {
    const api::DseRequest request = std::get<api::DseRequest>(
        api::decode_v2_request(util::Json::parse(record.line)));
    std::vector<kernels::Workload> domain;
    for (const std::string& name : request.kernels)
      domain.push_back(kernels::find_in_catalogue(name));
    api::DseResponse expect;
    expect.kernels = request.kernels;
    expect.result = dse::Explorer(domain.front().array, request.config)
                        .explore(domain);
    const std::uint64_t digest = field_digest(expect);
    std::vector<std::string> problems;
    const std::string wire =
        api::encode_v2_response(util::Json(record.id), api::to_body(expect))
            .dump();
    if (wire != record.response)
      problems.push_back("served dse response differs from serial explore");
    const std::optional<std::uint64_t> served =
        stack.served_digest(request.kernels);
    if ((served ? *served : field_digest(stack.service().dse(request))) !=
        digest)
      problems.push_back("served dse answer is not field-exact against "
                         "serial explore");
    if (record.replayed && *record.replayed != digest)
      problems.push_back("replayed Explorer stages differ from serial explore");
    const std::lock_guard<std::mutex> lock(mu);
    for (const std::string& why : problems)
      failures.add(record.line, why, record.response);
  };
  const auto work = [&] {
    for (std::size_t i; (i = next++) < records.size();) {
      try {
        verify_one(records[i]);
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(mu);
        failures.add(records[i].line,
                     std::string("dse verification threw: ") + e.what());
      }
    }
  };
  // The server is idle after the window: one verifier per service thread.
  std::vector<std::thread> threads;
  for (int t = 0; t < kServiceThreads; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
}

// ----------------------------------------------------- closed-loop client

struct InFlight {
  Request request;
  std::string line;
  Clock::time_point sent;
  int lane = 0;
};

struct PassResult {
  long attempted = 0;
  long completed = 0;
  std::vector<double> latency_ms;
  std::vector<double> done_s;  ///< completion instants, from the pass start
  double wall_s = 0.0;
};

std::optional<std::int64_t> response_id(const std::string& line) {
  static const std::string kPrefix = "{\"protocol_version\":2,\"id\":";
  if (line.compare(0, kPrefix.size(), kPrefix) != 0) return std::nullopt;
  char* end = nullptr;
  const long long id = std::strtoll(line.c_str() + kPrefix.size(), &end, 10);
  if (end == line.c_str() + kPrefix.size()) return std::nullopt;
  return id;
}

/// Handles one response: checks it (recording failures) and returns
/// whether it passed.
using ResponseFn = std::function<bool(const InFlight&, std::int64_t id,
                                      const std::string& response,
                                      Clock::time_point received)>;

/// Closed loop over one connection: keeps `window` requests in flight and
/// sends the next one only when a response arrives, until `seconds` have
/// passed or `next` runs dry; then drains. A request never answered counts
/// as failed.
PassResult run_pass(LineClient& client, int window, double seconds,
                    const std::function<std::optional<Request>()>& next,
                    std::int64_t& next_id, const ResponseFn& on_response,
                    Failures& failures) {
  PassResult result;
  std::unordered_map<std::int64_t, InFlight> inflight;
  const Clock::time_point start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point last = start;
  const auto send_next = [&](int lane) {
    std::optional<Request> request = next();
    if (!request) return;
    const std::int64_t id = next_id++;
    InFlight f{std::move(*request), "", {}, lane};
    f.line = wire_line(id, f.request);
    f.sent = Clock::now();
    client.send(f.line);
    ++result.attempted;
    inflight.emplace(id, std::move(f));
  };
  for (int lane = 0; lane < window; ++lane) send_next(lane);
  std::string line;
  while (!inflight.empty()) {
    if (!client.read_line(line)) {
      for (const auto& [id, f] : inflight)
        failures.add(f.line, "missing response");
      break;
    }
    const Clock::time_point received = Clock::now();
    const std::optional<std::int64_t> id = response_id(line);
    const auto it = id ? inflight.find(*id) : inflight.end();
    if (it == inflight.end()) {
      failures.add("(unknown)", "response matches no request in flight", line);
      continue;
    }
    last = received;
    ++result.completed;
    result.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(received - it->second.sent)
            .count());
    result.done_s.push_back(seconds_between(start, received));
    on_response(it->second, *id, line, received);
    const int lane = it->second.lane;
    inflight.erase(it);
    if (Clock::now() < deadline) send_next(lane);
  }
  result.wall_s = seconds_between(start, last);
  return result;
}

/// Throughput and latency percentiles of one pass.
struct Timing {
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t slices = 0;  ///< 0: computed over the whole window
};

/// serve_* windows are cut into one-second slices and each figure is the
/// median over the full slices, so a transient stall on a shared host
/// moves one slice rather than the result. A dse_* second holds too few
/// requests for a p90 with ten samples beyond it, so those figures are
/// taken over the whole window (slice_s = 0).
/// `sorted` holds the pass's latencies in ascending order.
Timing timing(const PassResult& pass, const std::vector<double>& sorted,
              double slice_s) {
  Timing t;
  t.throughput_rps = ratio(static_cast<double>(sorted.size()), pass.wall_s);
  t.p50_ms = stats::percentile(sorted, 50);
  t.p90_ms = stats::percentile(sorted, 90);
  const auto full = slice_s > 0 ? static_cast<std::size_t>(pass.wall_s / slice_s)
                                : std::size_t{0};
  if (full < 2) return t;
  std::vector<std::vector<double>> slices(full);
  for (std::size_t i = 0; i < pass.done_s.size(); ++i) {
    const auto k = static_cast<std::size_t>(pass.done_s[i] / slice_s);
    if (k < full) slices[k].push_back(pass.latency_ms[i]);
  }
  std::vector<double> rates, p50, p90;
  for (std::vector<double>& slice : slices) {
    if (slice.empty()) {
      rates.push_back(0.0);
      continue;
    }
    std::sort(slice.begin(), slice.end());
    rates.push_back(static_cast<double>(slice.size()) / slice_s);
    p50.push_back(stats::percentile(slice, 50));
    p90.push_back(stats::percentile(slice, 90));
  }
  t.slices = full;
  t.throughput_rps = stats::median(rates);
  if (!p50.empty()) {
    t.p50_ms = stats::median(p50);
    t.p90_ms = stats::median(p90);
  }
  return t;
}

// ----------------------------------------------------------- the replay

/// The traced run's layer replay: for each request, the layer calls the op
/// implies, on memo state that mirrors the served Service's (a kernel is
/// mapped once, a (kernel, arch, engine) simulation runs once), each call
/// wrapped in a span named <module>.<function>.
class Replay {
 public:
  Replay(Tracer& tracer, Failures& failures)
      : tracer_(tracer), failures_(failures),
        catalogue_(kernels::full_catalogue()) {}

  /// Replays `r`; a dse request returns the replayed exploration.
  std::optional<dse::ExplorationResult> run(const Request& r,
                                            const std::string& line) {
    try {
      if (r.op == "dse") return explore(r, line);
      serve_op(r, line);
    } catch (const std::exception& e) {
      failures_.add(line, std::string("layer replay threw: ") + e.what());
    }
    return std::nullopt;
  }

  // Ratio bases, printed beside the ratios.
  long dense_contexts = 0;
  double dense_us = 0.0;
  double event_us = 0.0;  ///< compile + run on the same contexts
  long points = 0;
  long survivors = 0;

 private:
  using Scope = Tracer::Scope;

  const kernels::Workload& find(const std::string& name) {
    const kernels::Workload* w = nullptr;
    {
      Scope s(tracer_, "kernels.find");
      w = &kernels::find_in_catalogue(catalogue_, name);
    }
    // The served lookup materialised a gen:<seed> kernel on first use;
    // replay that generator call once per kernel.
    if (const auto seed = gen::parse_gen_name(name);
        seed && generated_.insert(*seed).second) {
      Scope s(tracer_, "gen.generate");
      gen::GeneratorConfig config;
      config.seed = *seed;
      (void)gen::generate_workload(config);
    }
    return *w;
  }

  const dse::KernelPrep& prep(const kernels::Workload& w) {
    auto it = preps_.find(w.name);
    if (it == preps_.end()) {
      Scope s(tracer_, "sched.prepare_kernel");
      it = preps_.emplace(w.name, dse::prepare_kernel(w)).first;
    }
    return it->second;
  }

  sched::ConfigurationContext schedule(const kernels::Workload& w,
                                       const arch::Architecture& a) {
    const dse::KernelPrep& p = prep(w);
    sched::ConfigurationContext ctx = [&] {
      Scope s(tracer_, "sched.schedule");
      return sched::ContextScheduler().schedule(p.program, a);
    }();
    {
      Scope s(tracer_, "sched.require_legal");
      sched::require_legal(ctx);
    }
    return ctx;
  }

  void serve_op(const Request& r, const std::string& line) {
    const kernels::Workload& w = find(r.kernel);
    if (r.op == "eval") {
      // Memoized per kernel by the Service; the working set is primed, so
      // there is nothing to replay beyond the lookup and step 1.
      prep(w);
      return;
    }
    arch::Architecture a;
    for (arch::Architecture& candidate :
         arch::standard_suite(w.array.rows, w.array.cols))
      if (candidate.name == r.arch) a = std::move(candidate);
    if (r.op == "simulate") {
      const bool dense = r.engine == "dense";
      if (!simulated_.insert(r.kernel + '\n' + r.arch + (dense ? "\nd" : "\ne"))
               .second)
        return;  // the Service's simulation memo answers this one
      const sched::ConfigurationContext ctx = schedule(w, a);
      ir::Memory memory, golden;
      {
        Scope s(tracer_, "kernels.setup");
        w.setup(memory);
        w.setup(golden);
      }
      if (dense) {
        ir::Memory probe;
        w.setup(probe);
        const Clock::time_point t0 = Clock::now();
        {
          Scope s(tracer_, "sim.dense_run");
          sim::Machine(ir::DatapathMode::kExact, sim::SimEngine::kDense)
              .run(ctx, memory);
        }
        const Clock::time_point t1 = Clock::now();
        // The ratio's base: the event engine on the same context, outside
        // any span (the Service ran only the dense engine here).
        sim::SimProgram::compile(ctx).run(probe);
        const Clock::time_point t2 = Clock::now();
        dense_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
        event_us += std::chrono::duration<double, std::micro>(t2 - t1).count();
        ++dense_contexts;
        if (!(probe == memory))
          failures_.add(line, "dense and event engines disagree in replay");
      } else {
        const sim::SimProgram program = [&] {
          Scope s(tracer_, "sim.compile");
          return sim::SimProgram::compile(ctx);
        }();
        Scope s(tracer_, "sim.event_run");
        program.run(memory);
      }
      {
        Scope s(tracer_, "ir.golden");
        w.golden(golden);
      }
      if (!(memory == golden))
        failures_.add(line, "replayed simulation does not match golden");
    } else if (r.op == "map") {
      const sched::ConfigurationContext ctx = schedule(w, a);
      Scope s(tracer_, "sched.render");
      (void)sched::render_schedule(ctx);
    } else if (r.op == "lint") {
      const sched::ConfigurationContext ctx = schedule(w, a);
      Scope s(tracer_, "analysis.lint");
      if (analysis::lint_context(ctx).error_count() != 0)
        failures_.add(line, "replayed lint is not clean");
    }
  }

  /// The Fig. 7 flow as dse::Explorer::explore runs it, stage by stage,
  /// with the EstimateFn and MeasureFn hooks wrapped in spans.
  dse::ExplorationResult explore(const Request& r, const std::string& line) {
    std::vector<const kernels::Workload*> domain;
    for (const std::string& name : r.kernels) domain.push_back(&find(name));
    const dse::Explorer explorer(
        domain.front()->array,
        std::get<api::DseRequest>(
            api::decode_v2_request(util::Json::parse(line)))
            .config);
    const arch::Architecture base = explorer.base_architecture();

    dse::ExplorationResult result;
    std::vector<sched::PlacedProgram> programs;
    std::vector<sched::ConfigurationContext> contexts;
    for (const kernels::Workload* w : domain) {
      Scope s(tracer_, "sched.prepare_kernel");
      dse::KernelPrep p = dse::prepare_kernel(*w);
      programs.push_back(std::move(p.program));
      contexts.push_back(std::move(p.base_context));
      result.base_cycles += contexts.back().length();
    }
    result.base_area = explorer.synthesis().area(base);
    result.base_time_ns = static_cast<double>(result.base_cycles) *
                          explorer.synthesis().clock_ns(base);

    const dse::EstimateFn estimate = [&](std::size_t k,
                                         const arch::Architecture& target) {
      Scope s(tracer_, "core.estimate");
      return core::estimate_performance(contexts[k], target);
    };
    const double area_raw = explorer.base_area_raw();
    for (const dse::DesignPoint& point : explorer.enumerate_points()) {
      Scope s(tracer_, "dse.estimate_candidate");
      result.candidates.push_back(explorer.estimate_candidate(
          point, base, contexts.size(), estimate, area_raw,
          result.base_time_ns));
    }
    {
      Scope s(tracer_, "dse.pareto_filter");
      explorer.pareto_filter(result);
    }
    const sched::ContextScheduler scheduler;
    const dse::MeasureFn measure = [&](std::size_t k,
                                       const arch::Architecture& a) {
      Scope s(tracer_, "sched.measure");
      return sched::measure(scheduler, programs[k], a);
    };
    for (dse::Candidate& cand : result.candidates)
      if (cand.pareto) dse::evaluate_exact(cand, programs.size(), measure);
    {
      Scope s(tracer_, "dse.select_optimum");
      explorer.select_optimum(result);
    }
    points += static_cast<long>(result.candidates.size());
    survivors += static_cast<long>(result.pareto_points().size());
    return result;
  }

  Tracer& tracer_;
  Failures& failures_;
  std::vector<kernels::Workload> catalogue_;
  std::unordered_map<std::string, dse::KernelPrep> preps_;
  std::set<std::string> simulated_;
  std::set<std::uint64_t> generated_;
};

// ------------------------------------------------------------- reporting

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string format_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    out += (i ? ", " : "") + quote(metrics[i].name) + ": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": " +
           quote(metrics[i].unit) + "}";
  out += "}}";
  std::cout << out << std::endl;
}

/// Peak resident set of this process so far, in MB.
double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Span names the traced run reports, in report order.
const std::vector<std::string> kSpanNames = {
    "api.roundtrip",       "api.decode",
    "api.handle.simulate", "api.handle.map",
    "api.handle.lint",     "api.handle.eval",
    "api.handle.dse",      "api.encode",
    "kernels.find",        "kernels.setup",
    "gen.generate",        "sched.prepare_kernel",
    "sched.schedule",      "sched.require_legal",
    "sched.render",        "sched.measure",
    "analysis.lint",       "sim.compile",
    "sim.event_run",       "sim.dense_run",
    "ir.golden",           "core.estimate",
    "dse.estimate_candidate", "dse.pareto_filter",
    "dse.select_optimum",
};

struct CounterSnapshot {
  api::CacheStatsResponse cache;
  util::Json dist;  ///< DseCoordinator::stats_json, null without a fleet
};

CounterSnapshot snapshot(Stack& stack) {
  CounterSnapshot s;
  s.cache = stack.service().cache_stats({});
  if (stack.coordinator()) s.dist = stack.coordinator()->stats_json();
  return s;
}

long dist_counter(const util::Json& doc, const char* key) {
  return doc.is_null() ? 0 : static_cast<long>(doc.at(key).as_number());
}

long dist_busy_ms(const util::Json& doc) {
  if (doc.is_null()) return 0;
  long busy = 0;
  const util::Json& workers = doc.at("workers");
  for (std::size_t i = 0; i < workers.size(); ++i)
    busy += static_cast<long>(workers.at(i).at("busy_ms").as_number());
  return busy;
}

/// The counter-derived per-layer metrics (runtime memo tables, dist fleet)
/// over one untraced pass, each ratio printed with its base.
void counter_metrics(const CounterSnapshot& before, const CounterSnapshot& after,
                     double wall_s, std::vector<Metric>& metrics) {
  const auto table = [&](const char* name, const runtime::CacheStats& b,
                         const runtime::CacheStats& a) {
    const double hits = static_cast<double>(a.hits - b.hits);
    const double misses = static_cast<double>(a.misses - b.misses);
    std::printf("  runtime.%s_hit_ratio %.4f (hits %.0f, misses %.0f)\n", name,
                ratio(hits, hits + misses), hits, misses);
    metrics.push_back({std::string("runtime.") + name + "_hit_ratio",
                       ratio(hits, hits + misses), "ratio"});
    return static_cast<double>(a.evictions - b.evictions);
  };
  double evictions = 0;
  evictions += table("sim", before.cache.sim_stats, after.cache.sim_stats);
  evictions += table("eval", before.cache.stats, after.cache.stats);
  evictions +=
      table("mapping", before.cache.mapping_stats, after.cache.mapping_stats);
  evictions +=
      table("estimate", before.cache.estimate_stats, after.cache.estimate_stats);
  std::printf("  runtime.evictions %.0f (all four tables)\n", evictions);
  metrics.push_back({"runtime.evictions", evictions, "count"});

  const auto delta = [&](const char* key) {
    return static_cast<double>(dist_counter(after.dist, key) -
                               dist_counter(before.dist, key));
  };
  const double runs = delta("runs");
  const double shards = delta("shards");
  const double busy_ms =
      static_cast<double>(dist_busy_ms(after.dist) - dist_busy_ms(before.dist));
  const double workers = after.dist.is_null() ? 0.0 : kFleetWorkers;
  const double worker_wall_ms = workers * wall_s * 1e3;
  std::printf("  dist.shards_per_request %.4f (shards %.0f, dse runs %.0f)\n",
              ratio(shards, runs), shards, runs);
  std::printf("  dist.shard_rtt_ms %.4f (busy %.0f ms over %.0f shards)\n",
              ratio(busy_ms, shards), busy_ms, shards);
  std::printf("  dist.worker_busy_ratio %.4f (busy %.0f ms, workers x wall "
              "%.0f ms)\n",
              ratio(busy_ms, worker_wall_ms), busy_ms, worker_wall_ms);
  std::printf("  dist.redispatched %.0f, dist.local_fallback_shards %.0f "
              "(0 on a healthy run)\n",
              delta("redispatched"), delta("local_fallback_shards"));
  metrics.push_back({"dist.shards_per_request", ratio(shards, runs), "count"});
  metrics.push_back({"dist.shard_rtt_ms", ratio(busy_ms, shards), "ms"});
  metrics.push_back(
      {"dist.worker_busy_ratio", ratio(busy_ms, worker_wall_ms), "ratio"});
  metrics.push_back({"dist.redispatched", delta("redispatched"), "count"});
  metrics.push_back(
      {"dist.local_fallback_shards", delta("local_fallback_shards"), "count"});
}

// ------------------------------------------------------------------ main

struct Options {
  std::string workload;
  Kind kind = Kind::kServeCold;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

Options parse_options(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || args.size() != 4 || !args.count("--workload") ||
      !args.count("--seed") || !args.count("--seconds") ||
      !args.count("--trace"))
    throw std::invalid_argument(
        "usage: perfbench --workload serve_cold|serve_warm|dse_local|"
        "dse_fleet --seed N --seconds S --trace 0|1");
  Options o;
  o.workload = args["--workload"];
  static const std::map<std::string, Kind> kinds = {
      {"serve_cold", Kind::kServeCold},
      {"serve_warm", Kind::kServeWarm},
      {"dse_local", Kind::kDseLocal},
      {"dse_fleet", Kind::kDseFleet}};
  if (!kinds.count(o.workload))
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  o.kind = kinds.at(o.workload);
  o.seed = std::stoull(args["--seed"]);
  o.seconds = std::stod(args["--seconds"]);
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  const std::string trace = args["--trace"];
  if (trace != "0" && trace != "1")
    throw std::invalid_argument("--trace must be 0 or 1");
  o.trace = trace == "1";
  return o;
}

int run(const Options& o) {
  Failures failures;
  std::vector<std::string> catalogue_names;
  for (const kernels::Workload& w : kernels::full_catalogue())
    catalogue_names.push_back(w.name);
  WarmSource warm(o.seed, catalogue_names);
  ColdSource cold(o.seed);
  DseSource dse_source(o.seed);
  const std::function<std::optional<Request>()> next =
      [&]() -> std::optional<Request> {
    switch (o.kind) {
      case Kind::kServeCold: return cold.next();
      case Kind::kServeWarm: return warm.next();
      default: return dse_source.next();
    }
  };

  // Set-up: server (and fleet) construction, the client connection and,
  // for serve_warm, the priming pass. The first set-up serves the run; the
  // repetitions that setup_s is the median of follow the timed window, so
  // the memory they churn never reaches peak_rss_mb.
  std::unique_ptr<Stack> stack;
  std::unique_ptr<LineClient> client;
  std::map<std::string, std::string> primed;  // payload -> stripped response
  std::vector<double> setup_s;
  std::int64_t next_id = 1;
  const auto set_up = [&](int rep) {
    client.reset();
    stack.reset();
    const std::string socket =
        "perfbench-" + std::to_string(::getpid()) + "-" + std::to_string(rep) +
        ".sock";
    const Clock::time_point t0 = Clock::now();
    stack = std::make_unique<Stack>(o.kind, socket);
    client = std::make_unique<LineClient>(stack->address(), kResponseTimeoutS);
    if (o.kind == Kind::kServeWarm) {
      const std::vector<Request> set = warm.working_set();
      std::size_t i = 0;
      Failures prime_failures;
      run_pass(
          *client, window_for(o.kind, o.trace), 1e9,
          [&]() -> std::optional<Request> {
            if (i == set.size()) return std::nullopt;
            return set[i++];
          },
          next_id,
          [&](const InFlight& f, std::int64_t id, const std::string& line,
              Clock::time_point) {
            const std::string problem = body_problem(f.request, line);
            if (!problem.empty())
              prime_failures.add(f.line, "priming: " + problem, line);
            primed[f.request.payload] = problem.empty() ? strip_id(line, id) : "";
            return problem.empty();
          },
          prime_failures);
      for (const std::string& m : prime_failures.messages)
        failures.messages.push_back(m);
    }
    setup_s.push_back(seconds_between(t0, Clock::now()));
  };
  set_up(0);

  std::vector<DseRecord> dse_records;
  long dse_points = 0;
  const ResponseFn check = [&](const InFlight& f, std::int64_t id,
                               const std::string& line, Clock::time_point) {
    std::string problem;
    if (o.kind == Kind::kServeWarm) {
      const auto it = primed.find(f.request.payload);
      if (it == primed.end() || it->second.empty())
        problem = "request was not primed successfully";
      else if (it->second != strip_id(line, id))
        problem = "response differs from its primed response";
    } else {
      problem = body_problem(f.request, line);
    }
    if (problem.empty() && is_dse(o.kind)) {
      dse_points += static_cast<long>(
          util::Json::parse(line).at("candidates").as_number());
      dse_records.push_back({id, f.line, line, std::nullopt});
    }
    if (!problem.empty()) failures.add(f.line, problem, line);
    return problem.empty();
  };

  const int window = window_for(o.kind, o.trace);
  std::vector<Metric> metrics;
  long attempted = 0;
  std::printf("workload %s, seed %llu, %.0f s window, %d in flight, %s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, window, o.trace ? "traced" : "untraced");

  if (!o.trace) {
    // Memory is read at a fixed request count, not at the end of the
    // window: the memo tables grow per request, so an end-of-window
    // reading would grow with throughput and count a speed-up against
    // memory.
    const long rss_requests = rss_request_count(o.kind);
    std::optional<double> rss;
    long completed = 0;
    const PassResult pass = run_pass(
        *client, window, o.seconds, next, next_id,
        [&](const InFlight& f, std::int64_t id, const std::string& line,
            Clock::time_point received) {
          const bool ok = check(f, id, line, received);
          if (++completed == rss_requests) rss = peak_rss_mb();
          return ok;
        },
        failures);
    const double rss_end = peak_rss_mb();
    if (is_dse(o.kind)) verify_dse(*stack, dse_records, failures);
    attempted = pass.attempted;
    for (int rep = 1; rep < kSetupRepeats; ++rep) set_up(rep);

    std::vector<double> sorted = pass.latency_ms;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    if (n == 0) throw std::runtime_error("no response completed");
    const Timing t = timing(pass, sorted, is_dse(o.kind) ? 0.0 : kSliceS);
    const double setup = stats::median(setup_s);
    const std::string basis =
        t.slices ? "median of " + std::to_string(t.slices) + " 1-s slices"
                 : "whole window";
    std::printf("  %zu responses in %.3f s (%.3f/s over the whole window)\n",
                n, pass.wall_s, ratio(static_cast<double>(n), pass.wall_s));
    std::printf("  throughput_rps %.3f 1/s (%s)\n", t.throughput_rps,
                basis.c_str());
    std::printf("  latency_p50_ms %.4f ms (%s; window p50 %.4f ms, n=%zu, "
                "%zu beyond)\n",
                t.p50_ms, basis.c_str(), stats::percentile(sorted, 50), n,
                stats::samples_beyond(50, n));
    std::printf("  latency_p90_ms %.4f ms (%s; window p90 %.4f ms, n=%zu, "
                "%zu beyond)\n",
                t.p90_ms, basis.c_str(), stats::percentile(sorted, 90), n,
                stats::samples_beyond(90, n));
    if (!is_dse(o.kind))
      std::printf("  latency_p99_ms %.4f ms (window, n=%zu, %zu beyond)\n",
                  stats::percentile(sorted, 99), n,
                  stats::samples_beyond(99, n));
    std::printf("  highest percentile with >=10 samples beyond: p%g\n",
                stats::highest_percentile_with_tail(n, {50, 90, 99, 99.9}));
    if (is_dse(o.kind))
      std::printf("  points_per_s %.3f 1/s (%ld points, %.1f per request)\n",
                  ratio(static_cast<double>(dse_points), pass.wall_s),
                  dse_points,
                  ratio(static_cast<double>(dse_points), static_cast<double>(n)));
    const auto q = stats::quartiles(setup_s);
    std::printf("  setup_s %.6f s (median of %zu; quartiles %.6f %.6f %.6f)\n",
                setup, setup_s.size(), q[0], q[1], q[2]);
    if (!rss)
      std::printf("  note: only %ld of the %ld requests peak_rss_mb is read "
                  "at completed; read at the window end instead\n",
                  completed, rss_requests);
    std::printf("  peak_rss_mb %.2f MB (after %ld requests; %.2f MB at the "
                "window end)\n",
                rss.value_or(rss_end), std::min(completed, rss_requests),
                rss_end);
    metrics = {
        {"throughput_rps", t.throughput_rps, "1/s"},
        {"latency_p50_ms", t.p50_ms, "ms"},
        {"latency_p90_ms", t.p90_ms, "ms"},
        {"peak_rss_mb", rss.value_or(rss_end), "MB"},
        {"setup_s", setup, "s"},
    };
  } else {
    // Two passes share the window: an untraced one, the tracing baseline
    // and the source of the counter deltas, then a traced one.
    const CounterSnapshot before = snapshot(*stack);
    const PassResult plain =
        run_pass(*client, window, o.seconds / 2, next, next_id, check, failures);
    const CounterSnapshot after = snapshot(*stack);

    // Traced pass over the continuing request stream: each response also
    // runs the request through the public api functions on a Service
    // configured like the served one, then replays its layer calls.
    Tracer tracer(false);  // enabled once the shadow state is primed
    Replay replay(tracer, failures);
    const std::unique_ptr<api::Service> shadow = stack->make_service();
    if (o.kind == Kind::kServeWarm)
      for (const Request& r : warm.working_set()) {
        const std::string line = wire_line(0, r);
        shadow->handle(api::decode_v2_request(util::Json::parse(line)));
        replay.run(r, line);
      }
    tracer.set_enabled(true);
    const std::size_t untraced_records = dse_records.size();
    const ResponseFn traced = [&](const InFlight& f, std::int64_t id,
                                  const std::string& line,
                                  Clock::time_point received) {
      const bool ok = check(f, id, line, received);
      tracer.set_request(id, f.lane);
      tracer.open("request", f.sent);
      tracer.add("api.roundtrip", f.sent, received);
      try {
        util::Json doc;
        api::Request request;
        {
          Tracer::Scope s(tracer, "api.decode");
          doc = util::Json::parse(f.line);
          request = api::decode_v2_request(doc);
        }
        util::Json body;
        {
          Tracer::Scope s(tracer, "api.handle." + f.request.op);
          body = shadow->handle(request);
        }
        std::string encoded;
        {
          Tracer::Scope s(tracer, "api.encode");
          encoded = api::encode_v2_response(doc.at("id"), std::move(body)).dump();
        }
        if (encoded != line)
          failures.add(f.line, "in-process api answer differs from the served one",
                       encoded);
        const std::optional<dse::ExplorationResult> replayed =
            replay.run(f.request, f.line);
        if (replayed && ok)
          dse_records.back().replayed =
              field_digest({f.request.kernels, *replayed});
      } catch (const std::exception& e) {
        failures.add(f.line, std::string("traced api call threw: ") + e.what());
      }
      tracer.close();
      return ok;
    };
    const PassResult traced_pass =
        run_pass(*client, window, o.seconds / 2, next, next_id, traced, failures);
    if (is_dse(o.kind)) verify_dse(*stack, dse_records, failures);
    attempted = plain.attempted + traced_pass.attempted;

    const double per_request_plain =
        ratio(plain.wall_s, static_cast<double>(plain.completed));
    const double per_request_traced =
        ratio(traced_pass.wall_s, static_cast<double>(traced_pass.completed));
    const double traced_requests = static_cast<double>(traced_pass.completed);

    std::printf("untraced pass: %ld requests in %.3f s; traced pass: %ld "
                "requests in %.3f s (%zu spans, %zu dse results checked)\n",
                plain.completed, plain.wall_s, traced_pass.completed,
                traced_pass.wall_s, tracer.spans().size(),
                dse_records.size() - untraced_records);
    const std::map<std::string, Tracer::Summary> layers = tracer.summarize();
    // Self-time shares are of all recorded self time, request roots
    // included, so they sum to 1 over every span name.
    double all_self_us = 0.0;
    for (const auto& [name, sum] : layers) all_self_us += sum.self_us;
    std::printf("  %-24s %9s %10s %12s %10s\n", "span", "calls", "us/call",
                "self us/call", "self share");
    for (const std::string& name : kSpanNames) {
      const auto it = layers.find(name);
      const Tracer::Summary sum =
          it == layers.end() ? Tracer::Summary{} : it->second;
      const double us = ratio(sum.total_us, static_cast<double>(sum.calls));
      const double share = ratio(sum.self_us, all_self_us);
      std::printf("  %-24s %9ld %10.3f %12.3f %10.4f\n", name.c_str(),
                  sum.calls, us,
                  ratio(sum.self_us, static_cast<double>(sum.calls)), share);
      metrics.push_back({name + "_us", us, "us"});
      metrics.push_back({name + "_self_us",
                         ratio(sum.self_us, static_cast<double>(sum.calls)),
                         "us"});
      metrics.push_back({name + "_calls_per_req",
                         ratio(static_cast<double>(sum.calls), traced_requests),
                         "1/req"});
      metrics.push_back({name + "_self_share", share, "ratio"});
    }
    std::printf("  sim.dense_over_event %.4f (dense %.1f us vs event compile+"
                "run %.1f us on the same %ld contexts)\n",
                ratio(replay.dense_us, replay.event_us), replay.dense_us,
                replay.event_us, replay.dense_contexts);
    std::printf("  dse.pareto_survivor_ratio %.4f (%ld survivors of %ld "
                "points)\n",
                ratio(static_cast<double>(replay.survivors),
                      static_cast<double>(replay.points)),
                replay.survivors, replay.points);
    metrics.push_back({"sim.dense_over_event",
                       ratio(replay.dense_us, replay.event_us), "ratio"});
    metrics.push_back({"dse.pareto_survivor_ratio",
                       ratio(static_cast<double>(replay.survivors),
                             static_cast<double>(replay.points)),
                       "ratio"});
    std::printf("counters over the untraced pass:\n");
    counter_metrics(before, after, plain.wall_s, metrics);

    const std::string trace_file =
        "trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
    char cwd[4096] = "";
    if (!::getcwd(cwd, sizeof cwd)) cwd[0] = '\0';
    if (!tracer.write_chrome_trace(trace_file))
      throw std::runtime_error("cannot write " + trace_file);
    const double overhead = ratio(per_request_traced, per_request_plain);
    std::printf("  trace.overhead_ratio %.4f (traced %.3f ms/request vs "
                "untraced %.3f ms/request)\n",
                overhead, per_request_traced * 1e3, per_request_plain * 1e3);
    std::printf("trace file: %s/%s\n", cwd, trace_file.c_str());
    metrics.push_back({"trace.overhead_ratio", overhead, "ratio"});
  }

  for (const std::string& m : failures.messages) std::printf("%s\n", m.c_str());
  std::printf("  error_rate %.6f (%ld failed of %ld attempted)\n",
              ratio(static_cast<double>(failures.count),
                    static_cast<double>(attempted)),
              failures.count, attempted);
  std::fflush(stdout);
  print_result(failures.count == 0 && failures.messages.empty(), attempted,
               failures.count, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
