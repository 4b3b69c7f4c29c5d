#include "dist/coordinator.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <istream>
#include <memory>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>

#include "api/protocol.hpp"
#include "kernels/registry.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace rsp::dist {

// ------------------------------------------------------------ run plumbing

/// One per-run worker connection, closed while its worker is away. Only
/// the link's own phase thread touches it while a phase runs; the run
/// reads it between phases and after the joins.
struct DseCoordinator::WorkerLink {
  std::size_t index = 0;  ///< into addresses_ / worker_stats_
  int fd = -1;
  std::unique_ptr<api::SocketStreamBuf> buf;
  std::unique_ptr<std::istream> in;
  std::unique_ptr<std::ostream> out;
  long next_id = 0;
  std::string last_error;
  /// Failed shards and failed reconnects since the last completed shard;
  /// at redispatch.attempts the link stays down for the rest of the run.
  int failures = 0;
  // Run-local counters, folded into worker_stats_ once per run.
  long shards = 0;
  long retries = 0;
  long busy_ms = 0;

  WorkerLink() = default;
  WorkerLink(const WorkerLink&) = delete;
  WorkerLink& operator=(const WorkerLink&) = delete;
  ~WorkerLink() { close(); }

  void close() {
    in.reset();
    out.reset();
    buf.reset();
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

struct DseCoordinator::Shard {
  std::size_t begin = 0;
  std::size_t end = 0;
  int attempts = 0;  ///< transport failures so far
};

/// The pull queue one phase's link threads drain. Threads pop shards when
/// ready (work stealing by construction: a slow worker simply pulls
/// less), push failed shards back for any link, and wait on the condition
/// while peers still have shards in flight — an in-flight shard may yet be
/// re-queued.
struct DseCoordinator::PhaseState {
  util::Mutex mu;
  std::condition_variable_any cv;
  std::deque<Shard> queue RSP_GUARDED_BY(mu);
  /// Shards out of remote attempts (and, once every link is down, those
  /// still queued), destined for the in-process fallback after the joins.
  std::deque<Shard> local_queue RSP_GUARDED_BY(mu);
  /// Shards queued or in flight *remotely*.
  std::size_t pending RSP_GUARDED_BY(mu) = 0;
  bool failed RSP_GUARDED_BY(mu) = false;
  std::string error RSP_GUARDED_BY(mu);
  long redispatched RSP_GUARDED_BY(mu) = 0;
  /// op/kernels/config/mode — identical for every shard of the phase;
  /// begin/end and the envelope are stamped per request.
  util::Json request_template;
  // The same shard parameters, typed — what drain_locally feeds
  // Service::dse_shard so the fallback path runs the identical request.
  std::vector<std::string> kernels;
  dse::ExplorerConfig config;
  bool exact = false;
  /// Merges one ok response into the run's slots; called under `mu`, in
  /// completion order (slot writes make order irrelevant). Throws
  /// rsp::Error on malformed or inconsistent payloads — fatal.
  std::function<void(const Shard&, const util::Json&)> apply;
};

namespace {

/// The error of an in-band {"ok": false} response; nullopt when ok.
std::optional<std::string> rejection(const util::Json& response) {
  if (response.contains("ok") && response.at("ok").is_bool() &&
      response.at("ok").as_bool())
    return std::nullopt;
  return response.contains("error") && response.at("error").is_string()
             ? response.at("error").as_string()
             : response.dump();
}

}  // namespace

DseCoordinator::DseCoordinator(std::vector<api::ListenAddress> workers,
                               CoordinatorOptions options)
    : addresses_(std::move(workers)),
      options_(options),
      worker_stats_(addresses_.size()) {
  if (addresses_.empty())
    throw InvalidArgumentError("coordinator requires at least one worker");
  if (options_.shard_points < 1)
    throw InvalidArgumentError("'shard_points' must be positive");
  if (options_.request_timeout_ms < 0)
    throw InvalidArgumentError("'request_timeout_ms' must be non-negative");
  options_.redispatch.validate("'redispatch'");
  options_.connect.validate("'connect'");
}

DseCoordinator::~DseCoordinator() = default;

bool DseCoordinator::open_link(WorkerLink& link,
                               const api::ConnectOptions& policy) {
  const api::ListenAddress& address = addresses_[link.index];
  try {
    link.fd = api::connect_socket(address, policy);
  } catch (const std::exception& e) {
    link.last_error = e.what();
    return false;
  }
  if (options_.request_timeout_ms > 0) {
    // Per-request timeout: a stalled worker surfaces as a failed
    // recv/send, which the transport-failure path turns into a
    // closed link + redispatch.
    timeval tv{};
    tv.tv_sec = options_.request_timeout_ms / 1000;
    tv.tv_usec =
        static_cast<suseconds_t>(options_.request_timeout_ms % 1000) * 1000;
    ::setsockopt(link.fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(link.fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  link.buf = std::make_unique<api::SocketStreamBuf>(link.fd);
  link.in = std::make_unique<std::istream>(link.buf.get());
  link.out = std::make_unique<std::ostream>(link.buf.get());

  // Handshake: proves the peer speaks v2 *and* the worker ops before any
  // shard is entrusted to it. A pre-dist server answers with its
  // unknown-op error, which is exactly the message to surface.
  util::Json probe = util::Json::object();
  probe.set("op", "worker_info");
  util::Json info;
  if (!round_trip(link, std::move(probe), info)) {
    link.last_error =
        "worker '" + address.spec() + "' handshake failed: " + link.last_error;
    link.close();
    return false;
  }
  if (const std::optional<std::string> why = rejection(info))
    // Deterministic misconfiguration (wrong binary, a pre-dist server):
    // every reconnect and every run would be refused identically.
    throw Error("worker '" + address.spec() +
                "' refused the worker_info handshake: " + *why);
  long pid = 0;
  if (info.contains("pid") && info.at("pid").is_number())
    pid = static_cast<long>(info.at("pid").as_number());
  const util::MutexLock lk(mu_);
  WorkerStats& stats = worker_stats_[link.index];
  if (pid != 0 && stats.last_pid != 0 && stats.last_pid != pid)
    RSP_LOG(kInfo) << "worker '" << address.spec() << "' restarted (pid "
                   << stats.last_pid << " -> " << pid << ")";
  if (pid != 0) stats.last_pid = pid;
  stats.alive = true;
  return true;
}

std::vector<DseCoordinator::WorkerLink> DseCoordinator::connect_workers() {
  std::vector<WorkerLink> links(addresses_.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    links[i].index = i;
    if (open_link(links[i], options_.connect)) continue;
    // Unreachable is a fleet-health event, not a run-fatal one: the link
    // starts closed with one failure charged, its thread retries on the
    // next pull, and the other links (or the local fallback) carry the
    // shards meanwhile.
    RSP_LOG(kWarning) << "worker '" << addresses_[i].spec()
                      << "' unreachable at run start: "
                      << links[i].last_error;
    take_down(links[i]);
  }
  return links;
}

bool DseCoordinator::round_trip(WorkerLink& link, util::Json request,
                                util::Json& response) {
  const std::string id = "shard-" + std::to_string(++link.next_id);
  util::Json envelope = util::Json::object();
  envelope.set("protocol_version", api::kProtocolVersion);
  envelope.set("id", id);
  envelope.merge(std::move(request));

  const auto start = std::chrono::steady_clock::now();
  *link.out << envelope.dump() << "\n" << std::flush;
  if (!*link.out) {
    link.last_error = "send failed";
    return false;
  }
  std::string line;
  if (!std::getline(*link.in, line)) {
    link.last_error = link.buf->read_failed()
                          ? "connection reset or request timed out"
                          : "connection closed by worker";
    return false;
  }
  link.busy_ms += std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  try {
    response = util::Json::parse(line);
  } catch (const std::exception& e) {
    link.last_error = std::string("malformed response: ") + e.what();
    return false;
  }
  // Strict pairing: exactly one outstanding request per link, so anything
  // but our own id echoed back means the conversation is corrupt.
  if (!response.is_object() || !response.contains("id") ||
      !response.at("id").is_string() ||
      response.at("id").as_string() != id) {
    link.last_error = "response id mismatch";
    return false;
  }
  return true;
}

void DseCoordinator::charge(WorkerLink& link) {
  if (++link.failures < options_.redispatch.attempts) return;
  RSP_LOG(kWarning) << options_.redispatch.give_up(
                           "link to worker '" +
                               addresses_[link.index].spec() + "'",
                           link.last_error)
                    << " (down for the rest of the run)";
}

void DseCoordinator::take_down(WorkerLink& link) {
  link.close();
  charge(link);
  const util::MutexLock lk(mu_);
  WorkerStats& stats = worker_stats_[link.index];
  ++stats.quarantined;
  stats.alive = false;
}

bool DseCoordinator::reconnect(WorkerLink& link) {
  options_.redispatch.sleep_before_retry(link.failures);
  {
    const util::MutexLock lk(mu_);
    ++worker_stats_[link.index].probes;
  }
  const std::string spec = addresses_[link.index].spec();
  if (!open_link(link, api::ConnectOptions{1, 0})) {
    RSP_LOG(kWarning) << "worker '" << spec
                      << "' reconnect failed: " << link.last_error;
    charge(link);
    return false;
  }
  {
    const util::MutexLock lk(mu_);
    ++worker_stats_[link.index].readmitted;
  }
  // kWarning like the loss that preceded it: the pair of lines is the
  // operator's (and chaos_smoke.sh's) record of the outage.
  RSP_LOG(kWarning) << "worker '" << spec << "' re-admitted to the run";
  return true;
}

void DseCoordinator::worker_loop(WorkerLink& link, PhaseState& state) {
  const std::string spec = addresses_[link.index].spec();
  try {
    while (link.failures < options_.redispatch.attempts) {
      Shard shard;
      {
        util::MutexLock lk(state.mu);
        lk.wait(state.cv, [&]() RSP_REQUIRES(state.mu) {
          return state.failed || !state.queue.empty() || state.pending == 0;
        });
        // Queue empty with nothing in flight = phase done; an in-flight
        // shard elsewhere may still be re-queued, so keep waiting for it.
        if (state.failed || state.queue.empty()) return;
        shard = state.queue.front();
        state.queue.pop_front();
      }
      if (link.fd < 0 && !reconnect(link)) {
        // The worker is still away: the shard goes back where it was,
        // uncharged — the failure was the link's, not the shard's.
        const util::MutexLock lk(state.mu);
        state.queue.push_front(shard);
        state.cv.notify_all();
        continue;
      }
      if (shard.attempts > 0)
        options_.redispatch.sleep_before_retry(shard.attempts);

      util::Json request = state.request_template;
      request.set("begin", static_cast<std::int64_t>(shard.begin));
      request.set("end", static_cast<std::int64_t>(shard.end));

      util::Json response;
      if (round_trip(link, std::move(request), response)) {
        const util::MutexLock lk(state.mu);
        if (state.failed) return;
        // An in-band rejection is fatal, not retryable: shard requests are
        // deterministic, so every worker would reject them identically.
        if (const std::optional<std::string> why = rejection(response))
          throw Error("worker " + spec + " rejected shard: " + *why);
        state.apply(shard, response);
        link.failures = 0;
        ++link.shards;
        --state.pending;
        state.cv.notify_all();
        continue;
      }

      // Transport failure: the shard goes back for any link, under the
      // bounded redispatch policy, and the link goes down (its next pull
      // reconnects).
      const std::string shard_name = "shard [" + std::to_string(shard.begin) +
                                     ", " + std::to_string(shard.end) + ")";
      {
        const util::MutexLock lk(state.mu);
        ++shard.attempts;
        if (options_.redispatch.should_retry(shard.attempts)) {
          state.queue.push_back(shard);
          ++state.redispatched;
          RSP_LOG(kWarning) << "worker " << spec << " lost, re-dispatching "
                            << shard_name << ": " << link.last_error;
        } else if (options_.local_fallback) {
          state.local_queue.push_back(shard);
          --state.pending;
          RSP_LOG(kWarning) << shard_name << " out of remote attempts, "
                            << "queued for local evaluation (last: "
                            << link.last_error << ")";
        } else {
          state.failed = true;
          state.error =
              options_.redispatch.give_up(shard_name, link.last_error);
        }
        state.cv.notify_all();
      }
      ++link.retries;
      take_down(link);
    }
  } catch (const std::exception& e) {
    // A refused handshake, a rejected shard or a malformed payload: fatal
    // for the whole phase.
    const util::MutexLock lk(state.mu);
    if (!state.failed) {
      state.failed = true;
      state.error = e.what();
    }
    state.cv.notify_all();
  }
}

void DseCoordinator::run_phase(std::vector<WorkerLink>& links,
                               PhaseState& state, const char* phase) {
  // The locks below this point are uncontended until the link threads
  // start (and again after the joins) — they exist so every access to the
  // phase's guarded state is under state.mu, which is what the
  // thread-safety analysis checks.
  {
    const util::MutexLock lk(state.mu);
    if (state.queue.empty()) return;
    state.pending = state.queue.size();
  }
  std::vector<std::thread> threads;
  threads.reserve(links.size());
  for (WorkerLink& link : links)
    threads.emplace_back([this, &link, &state] { worker_loop(link, state); });
  for (std::thread& t : threads) t.join();

  {
    const util::MutexLock lk(state.mu);
    {
      const util::MutexLock stats_lk(mu_);
      redispatched_ += state.redispatched;
    }
    // Every thread has returned, so shards still queued mean every link
    // is down: finish them locally, or abort.
    if (!state.failed && !state.queue.empty()) {
      if (options_.local_fallback) {
        state.local_queue.insert(state.local_queue.end(), state.queue.begin(),
                                 state.queue.end());
        state.queue.clear();
      } else {
        state.failed = true;
        state.error = "all workers lost with shards pending (last: " +
                      links.back().last_error + ")";
      }
    }
    if (state.failed)
      throw Error(std::string("distributed ") + phase +
                  " phase failed: " + state.error);
  }
  drain_locally(state, phase);
}

api::Service& DseCoordinator::local_service() {
  // run_mu_ is held for the whole run, so lazy creation is serialized.
  if (!local_service_) local_service_ = std::make_unique<api::Service>();
  return *local_service_;
}

void DseCoordinator::drain_locally(PhaseState& state, const char* phase) {
  // Single-threaded by the time this runs (run_phase joined everything);
  // the lock satisfies the guarded-access contract at zero contention.
  const util::MutexLock lk(state.mu);
  if (state.local_queue.empty()) return;
  RSP_LOG(kWarning) << "computing " << state.local_queue.size() << " "
                    << phase << " shard(s) locally (fleet unavailable)";
  api::Service& service = local_service();
  for (const Shard& shard : state.local_queue) {
    api::DseShardRequest request;
    request.kernels = state.kernels;
    request.config = state.config;
    request.begin = static_cast<long>(shard.begin);
    request.end = static_cast<long>(shard.end);
    request.exact = state.exact;
    // Through to_body and the phase's own apply: the fallback merges by
    // the exact path a remote response would take, validation included —
    // bit-identity is inherited, not re-proven.
    state.apply(shard, api::to_body(service.dse_shard(request)));
    const util::MutexLock stats_lk(mu_);
    ++local_fallback_shards_;
  }
}

void DseCoordinator::fold_stats(const std::vector<WorkerLink>& links) {
  const util::MutexLock lk(mu_);
  ++runs_;
  for (const WorkerLink& link : links) {
    WorkerStats& stats = worker_stats_[link.index];
    stats.shards += link.shards;
    stats.retries += link.retries;
    stats.busy_ms += link.busy_ms;
    shards_ += link.shards;
    // A link down at the end was lost to *this* run; the next run's
    // connect gives its worker a fresh chance.
    if (link.fd < 0) ++workers_lost_;
  }
}

// ------------------------------------------------------------------- runs

namespace {

util::Json shard_request_template(const std::vector<std::string>& kernels,
                                  const dse::ExplorerConfig& config,
                                  bool exact) {
  util::Json doc = util::Json::object();
  doc.set("op", "dse_shard");
  util::Json names = util::Json::array();
  for (const std::string& name : kernels) names.push(name);
  doc.set("kernels", std::move(names));
  doc.set("config", api::encode_dse_config(config));
  doc.set("mode", exact ? "exact" : "estimate");
  return doc;
}

long integer_field(const util::Json& doc, std::size_t index,
                   const char* what) {
  const util::Json& value = doc.at(index);
  if (!value.is_number())
    throw Error(std::string("worker returned a non-numeric ") + what);
  return static_cast<long>(value.as_number());
}

}  // namespace

api::DseResponse DseCoordinator::dse(const api::DseRequest& request) {
  const util::MutexLock run_lock(run_mu_);

  // Resolve the domain exactly as Service::dse does (empty = the paper
  // suite), so coordinator and workers agree on the run by construction —
  // the resolved names are pinned into every shard request.
  std::vector<kernels::Workload> domain;
  if (request.kernels.empty()) {
    domain = kernels::paper_suite();
  } else {
    const std::vector<kernels::Workload> catalogue =
        kernels::full_catalogue();
    for (const std::string& name : request.kernels)
      domain.push_back(kernels::find_in_catalogue(catalogue, name));
  }
  api::DseResponse resp;
  for (const kernels::Workload& w : domain) resp.kernels.push_back(w.name);

  const dse::Explorer explorer(domain.front().array, request.config);
  const std::vector<dse::DesignPoint> points = explorer.enumerate_points();
  const arch::Architecture base = explorer.base_architecture();
  const std::size_t num_kernels = domain.size();

  std::vector<WorkerLink> links = connect_workers();
  try {
    // Phase 1: estimate shards over the whole grid. Workers return
    // integer cycle sums only; slot i always receives enumeration index
    // i's sum, so completion order is irrelevant.
    std::vector<long> estimated(points.size(), 0);
    std::optional<long> base_cycles;
    {
      PhaseState state;
      state.request_template =
          shard_request_template(resp.kernels, request.config, false);
      state.kernels = resp.kernels;
      state.config = request.config;
      state.exact = false;
      const auto shard_points =
          static_cast<std::size_t>(options_.shard_points);
      {
        const util::MutexLock lk(state.mu);
        for (std::size_t lo = 0; lo < points.size(); lo += shard_points)
          state.queue.push_back(
              {lo, std::min(lo + shard_points, points.size()), 0});
      }
      state.apply = [&](const Shard& shard, const util::Json& body) {
        const util::Json& est = body.at("estimated_cycles");
        if (!est.is_array() || est.size() != shard.end - shard.begin)
          throw Error("worker returned a malformed estimate shard");
        if (!body.at("base_cycles").is_number())
          throw Error("worker returned a non-numeric base_cycles");
        const long bc = static_cast<long>(body.at("base_cycles").as_number());
        // Every shard reports the whole-domain base schedule; any
        // disagreement means the fleet is not running the same code or
        // domain, and no merge of its numbers can be trusted.
        if (!base_cycles) base_cycles = bc;
        else if (*base_cycles != bc)
          throw Error("workers disagree on base cycles (" +
                      std::to_string(*base_cycles) + " vs " +
                      std::to_string(bc) + ")");
        for (std::size_t i = 0; i < est.size(); ++i)
          estimated[shard.begin + i] =
              integer_field(est, i, "estimated cycle count");
      };
      run_phase(links, state, "estimate");
    }

    // Local merge, in serial enumeration order, through the same
    // make_candidate / pareto_filter the single-process path runs: every
    // derived double and every reject/pareto decision is recomputed here,
    // never parsed off the wire.
    dse::ExplorationResult& result = resp.result;
    result.base_cycles = base_cycles.value_or(0);
    result.base_area = explorer.synthesis().area(base);
    result.base_time_ns = static_cast<double>(result.base_cycles) *
                          explorer.synthesis().clock_ns(base);
    const double base_area_raw = explorer.base_area_raw();
    result.candidates.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
      result.candidates.push_back(explorer.make_candidate(
          points[i], explorer.point_architecture(points[i], base),
          estimated[i], base_area_raw, result.base_time_ns));
    explorer.pareto_filter(result);

    // Phase 2: one exact shard per Pareto survivor (single-point shards —
    // exact evaluation dominates the run, so the finest granularity is
    // the best steal unit).
    std::vector<std::vector<long>> exact_cycles(points.size());
    std::vector<std::vector<long>> exact_stalls(points.size());
    {
      PhaseState state;
      state.request_template =
          shard_request_template(resp.kernels, request.config, true);
      state.kernels = resp.kernels;
      state.config = request.config;
      state.exact = true;
      {
        const util::MutexLock lk(state.mu);
        for (std::size_t i = 0; i < result.candidates.size(); ++i)
          if (result.candidates[i].pareto)
            state.queue.push_back({i, i + 1, 0});
      }
      state.apply = [&](const Shard& shard, const util::Json& body) {
        const util::Json& cycles = body.at("cycles");
        const util::Json& stalls = body.at("stalls");
        if (!cycles.is_array() || cycles.size() != 1 ||
            !stalls.is_array() || stalls.size() != 1 ||
            !cycles.at(0).is_array() ||
            cycles.at(0).size() != num_kernels ||
            !stalls.at(0).is_array() ||
            stalls.at(0).size() != num_kernels)
          throw Error("worker returned a malformed exact shard");
        std::vector<long>& c = exact_cycles[shard.begin];
        std::vector<long>& s = exact_stalls[shard.begin];
        c.resize(num_kernels);
        s.resize(num_kernels);
        for (std::size_t k = 0; k < num_kernels; ++k) {
          c[k] = integer_field(cycles.at(0), k, "cycle count");
          s[k] = integer_field(stalls.at(0), k, "stall count");
        }
      };
      run_phase(links, state, "exact");
    }

    // Steps 5–6 reductions, in candidate order and domain order — the
    // exact serial loop structure.
    for (std::size_t i = 0; i < result.candidates.size(); ++i) {
      dse::Candidate& cand = result.candidates[i];
      if (!cand.pareto) continue;
      dse::evaluate_exact(
          cand, num_kernels,
          [&](std::size_t k, const arch::Architecture&) {
            return sched::PerfPoint{
                static_cast<int>(exact_cycles[i][k]),
                static_cast<int>(exact_stalls[i][k]), 0};
          });
      RSP_LOG(kInfo) << "pareto point " << cand.point.label() << ": area "
                     << cand.area_synthesized << " slices, time "
                     << cand.exact_time_ns << " ns";
    }
    explorer.select_optimum(result);
  } catch (...) {
    fold_stats(links);
    throw;
  }
  fold_stats(links);
  return resp;
}

util::Json DseCoordinator::stats_json() const {
  const util::MutexLock lk(mu_);
  util::Json workers = util::Json::array();
  for (std::size_t i = 0; i < addresses_.size(); ++i) {
    const WorkerStats& stats = worker_stats_[i];
    util::Json entry = util::Json::object();
    entry.set("address", addresses_[i].spec())
        .set("shards", static_cast<std::int64_t>(stats.shards))
        .set("retries", static_cast<std::int64_t>(stats.retries))
        .set("busy_ms", static_cast<std::int64_t>(stats.busy_ms))
        .set("quarantined", static_cast<std::int64_t>(stats.quarantined))
        .set("readmitted", static_cast<std::int64_t>(stats.readmitted))
        .set("probes", static_cast<std::int64_t>(stats.probes))
        .set("alive", stats.alive);
    workers.push(std::move(entry));
  }
  util::Json doc = util::Json::object();
  doc.set("workers", std::move(workers))
      .set("runs", static_cast<std::int64_t>(runs_))
      .set("shards", static_cast<std::int64_t>(shards_))
      .set("redispatched", static_cast<std::int64_t>(redispatched_))
      .set("workers_lost", static_cast<std::int64_t>(workers_lost_))
      .set("local_fallback_shards",
           static_cast<std::int64_t>(local_fallback_shards_));
  return doc;
}

}  // namespace rsp::dist
