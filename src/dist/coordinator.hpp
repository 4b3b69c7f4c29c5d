// Distributed DSE: coordinator/worker sharding of the exploration grid
// over the v2 socket protocol (docs/DISTRIBUTED.md).
//
// The DseCoordinator answers an api::DseRequest exactly like
// Service::dse, but farms the expensive per-point work out to N
// `rsp_cli worker` processes over the existing socket transport:
//
//   phase 1 — the enumeration grid [0, points) is cut into many small
//     shards (`shard_points` each) and pulled by workers over `dse_shard`
//     estimate requests; the coordinator rebuilds every Candidate locally
//     from the returned integer cycle sums via dse::Explorer::
//     make_candidate and runs the Pareto filter itself;
//   phase 2 — one exact `dse_shard` per Pareto survivor; the returned
//     per-kernel cycle/stall integers feed dse::evaluate_exact and
//     select_optimum locally.
//
// Because only integers cross the wire and every derived double, reject
// check, Pareto decision and reduction is recomputed by the same
// dse::Explorer code the single-process path runs — in serial enumeration
// order, after all shards join — the merged ExplorationResult is
// bit-identical to Service::dse by construction, regardless of worker
// count, shard size, completion order, retries, worker death, re-admission
// or local fallback.
//
// Failure model: one pull loop per worker link. Each run opens one
// connection (a WorkerLink) per address, with bounded connect retries
// (`connect`) and a `worker_info` handshake; per-request
// SO_RCVTIMEO/SO_SNDTIMEO timeouts bound every round trip. Each phase
// runs exactly one thread per link, and nothing else:
//   * the thread pulls a shard; if its link is closed it first
//     reconnects — one connect attempt plus the handshake, after
//     `redispatch.delay_ms(failures)`. A successful reconnect re-admits
//     the worker (a restarted process, new pid in the handshake, rejoins
//     transparently); a failed one returns the shard, uncharged, to the
//     front of the queue;
//   * a transport failure (reset, EOF, timeout, malformed or mismatched
//     response) closes the link, counts one failure against it, and
//     re-queues the shard for any link under the per-shard `redispatch`
//     budget; a shard out of attempts is evaluated locally (or aborts the
//     run, see `local_fallback`);
//   * a completed shard resets its link's failure count. A link that
//     reaches `redispatch.attempts` consecutive failures (failed shards
//     and failed reconnects alike; an address unreachable at run start
//     begins at one) stays down for the rest of the run, so a flapping
//     worker cannot consume the run in reconnect/die loops. The next
//     run's connect tries it again from scratch;
//   * an in-band {"ok": false} rejection — of the handshake or of a shard
//     — is fatal: requests are deterministic, so every worker would
//     reject them identically; no retry;
//   * when the phase's threads have all returned and shards are still
//     queued (every link is down), the coordinator *finishes the run
//     itself*: those shards, and any out of attempts, are computed
//     in-process through the same Service::dse_shard code the workers
//     run, so the result is still bit-identical. `local_fallback = false`
//     opts out: the run aborts with "all workers lost with shards
//     pending".
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "api/socket_server.hpp"
#include "util/json.hpp"
#include "util/mutex.hpp"
#include "util/retry.hpp"

namespace rsp::dist {

struct CoordinatorOptions {
  /// Points per phase-1 shard. Small shards are the work-stealing knob:
  /// workers pull the next shard when ready, so a slow worker holds at
  /// most one shard's worth of the grid, never a static 1/N slice.
  int shard_points = 8;
  /// Per-request send/receive timeout; a worker that stalls longer is
  /// treated as dead and its shard re-dispatched.
  int request_timeout_ms = 30000;
  /// The failure budget of one shard and of one worker link. A shard may
  /// fail transport `attempts` times in total (with the policy's backoff
  /// before each re-send) before it stops being re-dispatched — it bounds
  /// the damage of a shard that kills every worker it visits; an exhausted
  /// shard falls back to local evaluation (or aborts the run, see
  /// `local_fallback`). A link that fails `attempts` times in a row stays
  /// down for the rest of the run; its reconnects wait the same backoff.
  util::RetryPolicy redispatch{3, 10};
  /// Connect policy for the per-run worker connections. Retries are on by
  /// default here (unlike `rsp_cli connect`): coordinators routinely race
  /// freshly spawned workers to the bind.
  api::ConnectOptions connect{40, 25};
  /// When every worker is lost with shards pending, compute the remaining
  /// shards in-process instead of aborting (see header comment).
  bool local_fallback = true;
};

class DseCoordinator {
 public:
  /// `workers` are the `--listen` specs of running `rsp_cli worker` (or
  /// `serve --listen`) processes. Throws InvalidArgumentError when empty.
  explicit DseCoordinator(std::vector<api::ListenAddress> workers,
                          CoordinatorOptions options = {});
  ~DseCoordinator();

  DseCoordinator(const DseCoordinator&) = delete;
  DseCoordinator& operator=(const DseCoordinator&) = delete;

  /// The distributed Fig. 7 flow; bit-identical to api::Service::dse on
  /// the same request. Thread-safe (concurrent calls serialize); throws
  /// rsp::Error when the run cannot complete (all workers lost with
  /// local_fallback off, a worker rejecting a request in-band,
  /// disagreeing base cycles).
  api::DseResponse dse(const api::DseRequest& request);

  /// The "dist" section folded into cache_stats (Service::
  /// set_dist_extension): {"workers": [{"address", "shards", "retries",
  /// "busy_ms", "quarantined", "readmitted", "probes", "alive"}...],
  /// "runs", "shards", "redispatched", "workers_lost",
  /// "local_fallback_shards"}. Counters aggregate across runs; per worker,
  /// "quarantined" counts the times its link went down, "probes" its
  /// reconnect attempts and "readmitted" the successful ones, and the
  /// run-level "workers_lost" counts links that were down when a run
  /// ended.
  util::Json stats_json() const;

  const std::vector<api::ListenAddress>& workers() const {
    return addresses_;
  }

 private:
  struct WorkerLink;   // one per-run connection (dist/coordinator.cpp)
  struct Shard;        // one [begin, end) work item
  struct PhaseState;   // the pull queue one phase's workers drain

  /// Connects addresses_[link.index] under `policy` and runs the
  /// worker_info handshake. Returns false, with link.last_error set and
  /// the link closed, on a transport failure; throws rsp::Error when the
  /// worker refuses the handshake in-band.
  bool open_link(WorkerLink& link, const api::ConnectOptions& policy);
  std::vector<WorkerLink> connect_workers();
  void run_phase(std::vector<WorkerLink>& links, PhaseState& state,
                 const char* phase) RSP_REQUIRES(run_mu_);
  void worker_loop(WorkerLink& link, PhaseState& state);
  /// Reconnects a closed link (one connect attempt plus the handshake,
  /// after the link's backoff); false when the worker is still away.
  bool reconnect(WorkerLink& link);
  /// Closes `link` and charges it one failure: the link went down.
  void take_down(WorkerLink& link);
  /// Counts one failure against `link`; logs when that exhausts its budget.
  void charge(WorkerLink& link);
  bool round_trip(WorkerLink& link, util::Json request,
                  util::Json& response);
  /// Computes state.local_queue in-process through Service::dse_shard and
  /// the phase's own apply — the byte-identical fallback path.
  void drain_locally(PhaseState& state, const char* phase)
      RSP_REQUIRES(run_mu_);
  api::Service& local_service() RSP_REQUIRES(run_mu_);
  void fold_stats(const std::vector<WorkerLink>& links);

  const std::vector<api::ListenAddress> addresses_;
  const CoordinatorOptions options_;

  /// Serializes runs: one grid-wide pull queue at a time keeps the
  /// failure/redispatch accounting legible.
  util::Mutex run_mu_;
  /// Lazily created on first local fallback.
  std::unique_ptr<api::Service> local_service_ RSP_GUARDED_BY(run_mu_);

  /// Cross-run aggregates for stats_json(). Guarded by mu_, which nests
  /// *inside* PhaseState::mu — never take state.mu while holding mu_.
  struct WorkerStats {
    long shards = 0;       ///< shards completed, all runs
    long retries = 0;      ///< shard transport failures on this worker
    long busy_ms = 0;      ///< summed round-trip latency
    long quarantined = 0;  ///< times this worker's link went down
    long readmitted = 0;   ///< successful reconnects
    long probes = 0;       ///< reconnect attempts
    long last_pid = 0;     ///< last handshake pid (restart detection)
    bool alive = true;     ///< connected and serving right now
  };
  mutable util::Mutex mu_;
  std::vector<WorkerStats> worker_stats_ RSP_GUARDED_BY(mu_);
  long runs_ RSP_GUARDED_BY(mu_) = 0;
  long shards_ RSP_GUARDED_BY(mu_) = 0;
  long redispatched_ RSP_GUARDED_BY(mu_) = 0;
  long workers_lost_ RSP_GUARDED_BY(mu_) = 0;
  long local_fallback_shards_ RSP_GUARDED_BY(mu_) = 0;
};

}  // namespace rsp::dist
