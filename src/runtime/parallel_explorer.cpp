#include "runtime/parallel_explorer.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/logging.hpp"

namespace rsp::runtime {

namespace {

// Waits for every task before propagating the first failure, so no task is
// left running with references to stack frames that are being unwound.
void join_all(std::vector<std::future<void>>& futures) {
  std::exception_ptr first_error;
  for (std::future<void>& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

// Runs `submit_loop` and guarantees every future it managed to submit is
// waited on before an exception (from submit itself — allocation failure,
// pool shutdown) propagates; queued tasks reference stack-local state that
// must outlive them.
template <typename F>
void submit_then_join(std::vector<std::future<void>>& futures,
                      const F& submit_loop) {
  try {
    submit_loop();
  } catch (...) {
    for (std::future<void>& f : futures)
      if (f.valid()) f.wait();
    throw;
  }
  join_all(futures);
}

// Deterministic Fisher–Yates over task descriptors: spreads neighbouring
// (and therefore same-shard-prone) tasks apart in the submission order.
template <typename T>
void shuffle_tasks(std::vector<T>& tasks) {
  util::Rng rng = task_rng(tasks.size());
  for (std::size_t i = tasks.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(i) - 1));
    std::swap(tasks[i - 1], tasks[j]);
  }
}

// Resolves the pool to run on: the external one from RuntimeOptions, or a
// private pool owned for the duration of one call.
class PoolLease {
 public:
  explicit PoolLease(const RuntimeOptions& options)
      : owned_(options.pool ? nullptr
                            : std::make_unique<ThreadPool>(options.threads)),
        pool_(options.pool ? options.pool : owned_.get()) {}

  ThreadPool& pool() { return *pool_; }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
};

EvalRecord measure_record(const sched::ContextScheduler& scheduler,
                          const sched::PlacedProgram& program,
                          const arch::Architecture& architecture) {
  const core::MeasuredPerf m =
      core::measure_perf(scheduler, program, architecture);
  EvalRecord r;
  r.cycles = m.perf.cycles;
  r.stalls = m.perf.stalls;
  r.nostall_cycles = m.perf.nostall_cycles;
  r.max_critical_issues = m.max_critical_issues;
  return r;
}

}  // namespace

// The memoization protocol, shared by the DSE, suite-eval and distributed
// shard fan-outs so the paths cannot drift: consult the cache under `key`
// when one is configured, measure otherwise.
EvalRecord cached_measure(EvalCache* cache, const std::string& key,
                          const sched::ContextScheduler& scheduler,
                          const sched::PlacedProgram& program,
                          const arch::Architecture& architecture) {
  if (cache == nullptr) return measure_record(scheduler, program, architecture);
  return cache->get_or_compute(
      key, [&] { return measure_record(scheduler, program, architecture); });
}

PreparedKernels prepare_kernels_parallel(
    const dse::Explorer& explorer,
    const std::vector<kernels::Workload>& domain, ThreadPool& pool,
    MappingCache* mapping_cache) {
  if (domain.empty())
    throw InvalidArgumentError("exploration requires at least one kernel");
  for (const kernels::Workload& w : domain)
    if (w.array != explorer.array())
      throw InvalidArgumentError("workload '" + w.name +
                                 "' targets a different array geometry");

  // One task per kernel, memoized. Records land in fixed slots and futures
  // are joined in domain order, so both the reduction and the
  // first-error-wins semantics match the serial loop. Mapping keys are
  // O(kernel) to hash — computed once per kernel and reused by the
  // estimate lookups the callers run next.
  PreparedKernels prep;
  prep.mapping_keys.resize(domain.size());
  if (mapping_cache != nullptr)
    for (std::size_t k = 0; k < domain.size(); ++k)
      prep.mapping_keys[k] = MappingCache::key(domain[k]);
  prep.records.resize(domain.size());
  std::vector<std::future<void>> futures;
  futures.reserve(domain.size());
  submit_then_join(futures, [&] {
    for (std::size_t k = 0; k < domain.size(); ++k) {
      futures.push_back(pool.submit([&, k] {
        const kernels::Workload& w = domain[k];
        prep.records[k] =
            mapping_cache != nullptr
                ? mapping_cache->get_or_map(prep.mapping_keys[k], w)
                : std::make_shared<const dse::KernelPrep>(
                      dse::prepare_kernel(w));
      }));
    }
  });
  return prep;
}

dse::PreparedExploration prepare_parallel(
    const dse::Explorer& explorer,
    const std::vector<kernels::Workload>& domain, ThreadPool& pool,
    MappingCache* mapping_cache) {
  const arch::Architecture base = explorer.base_architecture();

  // Step 1 (see prepare_kernels_parallel).
  PreparedKernels kernels =
      prepare_kernels_parallel(explorer, domain, pool, mapping_cache);
  std::vector<std::string>& mapping_keys = kernels.mapping_keys;
  std::vector<std::shared_ptr<const dse::KernelPrep>>& records =
      kernels.records;

  dse::PreparedExploration prep;
  dse::ExplorationResult& result = prep.result;
  for (std::size_t k = 0; k < domain.size(); ++k) {
    prep.kernel_names.push_back(domain[k].name);
    // Aliasing pointer: shares the record's ownership, no program copy.
    prep.programs.emplace_back(records[k], &records[k]->program);
    result.base_cycles += records[k]->base_context.length();
  }
  result.base_area = explorer.synthesis().area(base);
  result.base_time_ns = static_cast<double>(result.base_cycles) *
                        explorer.synthesis().clock_ns(base);
  const double base_area_raw = explorer.base_area_raw();
  const double base_time_ns = result.base_time_ns;

  // Steps 2–3: the enumerated grid in chunks. Each slot i holds exactly
  // the candidate the serial loop would push i-th, so the post-join
  // assembly preserves the serial candidate order bit for bit. Estimates
  // are memoized per (mapping key, architecture fingerprint) — repeated
  // domains skip the whole sweep, not just the remapping.
  const dse::EstimateFn estimate =
      [&](std::size_t k, const arch::Architecture& target) {
        const core::EstimateProfile& profile = records[k]->profile;
        if (mapping_cache == nullptr)
          return core::estimate_performance(profile, target);
        return mapping_cache->get_or_estimate(mapping_keys[k], profile,
                                              target);
      };
  const std::vector<dse::DesignPoint> points = explorer.enumerate_points();
  std::vector<dse::Candidate> slots(points.size());
  const std::size_t chunk = std::max<std::size_t>(
      1, points.size() /
             (static_cast<std::size_t>(pool.thread_count()) * 4));
  {
    std::vector<std::future<void>> futures;
    futures.reserve(points.size() / chunk + 1);
    submit_then_join(futures, [&] {
      for (std::size_t lo = 0; lo < points.size(); lo += chunk) {
        const std::size_t hi = std::min(lo + chunk, points.size());
        futures.push_back(pool.submit([&, lo, hi] {
          for (std::size_t i = lo; i < hi; ++i)
            slots[i] = explorer.estimate_candidate(
                points[i], base, records.size(), estimate,
                base_area_raw, base_time_ns);
        }));
      }
    });
  }
  result.candidates.reserve(slots.size());
  for (dse::Candidate& cand : slots)
    result.candidates.push_back(std::move(cand));

  // Step 4: the serial Pareto reduction over the joined estimates.
  explorer.pareto_filter(result);
  return prep;
}

void evaluate_pareto_exact(
    const std::vector<std::shared_ptr<const sched::PlacedProgram>>& programs,
    const std::vector<std::string>& kernel_names,
    dse::ExplorationResult& result, ThreadPool& pool, EvalCache* cache) {
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < result.candidates.size(); ++i)
    if (result.candidates[i].pareto) survivors.push_back(i);
  const std::size_t num_kernels = programs.size();

  // One task per (survivor, kernel): measurements land in a fixed matrix
  // slot, so worker interleaving cannot affect the later reduction.
  struct Task {
    std::size_t survivor;
    std::size_t kernel;
  };
  std::vector<Task> tasks;
  tasks.reserve(survivors.size() * num_kernels);
  for (std::size_t s = 0; s < survivors.size(); ++s)
    for (std::size_t k = 0; k < num_kernels; ++k) tasks.push_back({s, k});
  shuffle_tasks(tasks);

  std::vector<std::vector<sched::PerfPoint>> points(
      survivors.size(), std::vector<sched::PerfPoint>(num_kernels));
  const sched::ContextScheduler scheduler;

  // Program tags are cached on the programs; look them up once per kernel.
  std::vector<std::string> tags(num_kernels);
  if (cache != nullptr)
    for (std::size_t k = 0; k < num_kernels; ++k)
      tags[k] = EvalCache::program_tag(*programs[k]);

  std::vector<std::future<void>> futures;
  futures.reserve(tasks.size());
  submit_then_join(futures, [&] {
    for (const Task& t : tasks) {
      futures.push_back(pool.submit([&, t] {
        const arch::Architecture& a =
            result.candidates[survivors[t.survivor]].architecture;
        const EvalRecord rec = cached_measure(
            cache,
            cache != nullptr
                ? EvalCache::key(kernel_names[t.kernel], tags[t.kernel], a)
                : std::string(),
            scheduler, *programs[t.kernel], a);
        points[t.survivor][t.kernel] =
            sched::PerfPoint{rec.cycles, rec.stalls, rec.nostall_cycles};
      }));
    }
  });

  // Deterministic reduction: survivors in candidate order, kernels in
  // domain order — the exact loop structure of the serial path.
  for (std::size_t s = 0; s < survivors.size(); ++s) {
    dse::Candidate& cand = result.candidates[survivors[s]];
    dse::evaluate_exact(cand, num_kernels,
                        [&](std::size_t k, const arch::Architecture&) {
                          return points[s][k];
                        });
    RSP_LOG(kInfo) << "pareto point " << cand.point.label() << ": area "
                   << cand.area_synthesized << " slices, time "
                   << cand.exact_time_ns << " ns";
  }
}

ParallelExplorer::ParallelExplorer(arch::ArraySpec array,
                                   dse::ExplorerConfig config,
                                   synth::SynthesisModel synth,
                                   RuntimeOptions options)
    : explorer_(array, config, std::move(synth)),
      options_(std::move(options)) {
  // A private mapping cache is always worth having (memoization is
  // bit-identical by construction): repeated explore()/prepare() calls on
  // one instance skip remapping even when the caller wired nothing up.
  if (!options_.mapping_cache)
    options_.mapping_cache =
        std::make_shared<MappingCache>(16, options_.max_entries);
}

dse::PreparedExploration ParallelExplorer::prepare(
    const std::vector<kernels::Workload>& domain) const {
  PoolLease lease(options_);
  return prepare_parallel(explorer_, domain, lease.pool(),
                          options_.mapping_cache.get());
}

dse::ExplorationResult ParallelExplorer::explore(
    const std::vector<kernels::Workload>& domain) const {
  PoolLease lease(options_);
  dse::PreparedExploration prep = prepare_parallel(
      explorer_, domain, lease.pool(), options_.mapping_cache.get());
  dse::ExplorationResult result = std::move(prep.result);

  evaluate_pareto_exact(prep.programs, prep.kernel_names, result,
                        lease.pool(), options_.cache.get());

  explorer_.select_optimum(result);
  return result;
}

std::vector<core::EvalResult> ParallelExplorer::evaluate_suite(
    const std::string& kernel_id, const sched::PlacedProgram& program,
    const std::vector<arch::Architecture>& suite) const {
  if (suite.empty())
    throw InvalidArgumentError("evaluate_suite requires architectures");

  std::vector<core::EvalResult> rows(suite.size());
  std::vector<std::size_t> order(suite.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle_tasks(order);

  const sched::ContextScheduler scheduler;
  EvalCache* cache = options_.cache.get();
  const std::string tag =
      cache != nullptr ? EvalCache::program_tag(program) : std::string();

  {
    PoolLease lease(options_);
    std::vector<std::future<void>> futures;
    futures.reserve(order.size());
    submit_then_join(futures, [&] {
      for (const std::size_t i : order) {
        futures.push_back(lease.pool().submit([&, i] {
          const arch::Architecture& a = suite[i];
          const EvalRecord rec = cached_measure(
              cache,
              cache != nullptr ? EvalCache::key(kernel_id, tag, a)
                               : std::string(),
              scheduler, program, a);
          core::MeasuredPerf measured;
          measured.perf =
              sched::PerfPoint{rec.cycles, rec.stalls, rec.nostall_cycles};
          measured.max_critical_issues = rec.max_critical_issues;
          rows[i] = core::make_eval_result(
              a, measured, explorer_.synthesis().clock_ns(a));
        }));
      }
    });
  }

  core::RspEvaluator::apply_delay_reductions(rows);
  return rows;
}

}  // namespace rsp::runtime
