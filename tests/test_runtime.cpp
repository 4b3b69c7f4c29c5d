// The parallel evaluation runtime: thread pool semantics, memo-cache
// correctness (including invalidation), bit-identical parallel/serial
// agreement on the paper workload, the batch request API, and thread-safe
// logging under concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "api/protocol.hpp"
#include "api/service.hpp"
#include "arch/presets.hpp"
#include "core/evaluator.hpp"
#include "dse/explorer.hpp"
#include "kernels/registry.hpp"
#include "runtime/eval_cache.hpp"
#include "runtime/mapping_cache.hpp"
#include "runtime/parallel_explorer.hpp"
#include "runtime/sim_batch.hpp"
#include "runtime/striped_cache.hpp"
#include "runtime/thread_pool.hpp"
#include "sched/mapper.hpp"
#include "sched/scheduler.hpp"
#include "sim/machine.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace rsp::runtime {
namespace {

// ------------------------------------------------------------- thread pool
TEST(ThreadPool, DrainsAllTasksOnDestruction) {
  std::atomic<int> completed{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i)
      pool.submit([&completed] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        completed.fetch_add(1);
      });
    // Destruction must wait for every queued task, not just running ones.
  }
  EXPECT_EQ(completed.load(), 64);
}

TEST(ThreadPool, FuturesDeliverValues) {
  ThreadPool pool(4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 16; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, FuturesPropagateExceptions) {
  ThreadPool pool(1);
  std::future<void> f =
      pool.submit([] { throw InvalidArgumentError("task failed"); });
  EXPECT_THROW(f.get(), InvalidArgumentError);
}

TEST(ThreadPool, RejectsNegativeThreadCount) {
  EXPECT_THROW(ThreadPool(-1), InvalidArgumentError);
}

TEST(ThreadPool, ZeroPicksHardwareDefault) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), ThreadPool::default_thread_count());
  EXPECT_GE(pool.thread_count(), 1);
}

TEST(ThreadPool, TaskRngStreamsAreDeterministicPerIndex) {
  util::Rng a = task_rng(7), b = task_rng(7), c = task_rng(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

// ------------------------------------------------------------- eval cache
TEST(EvalCache, MissThenHitWithStats) {
  EvalCache cache(4);
  const std::string key = "SAD|rsp2";
  EXPECT_FALSE(cache.lookup(key).has_value());

  int computed = 0;
  const auto compute = [&computed] {
    ++computed;
    EvalRecord r;
    r.cycles = 42;
    r.stalls = 3;
    return r;
  };
  const EvalRecord first = cache.get_or_compute(key, compute);
  const EvalRecord again = cache.get_or_compute(key, compute);
  EXPECT_EQ(computed, 1);  // second call served from the cache
  EXPECT_EQ(first, again);
  EXPECT_EQ(again.cycles, 42);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);  // explicit lookup + get_or_compute miss
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.hit_rate(), 0.0);
}

// A minimal placed program for key-composition checks.
sched::PlacedProgram tiny_program(std::int64_t priority) {
  sched::PlacedProgram program((arch::ArraySpec()));
  sched::ProgramOp op;
  op.kind = ir::OpKind::kNop;
  op.priority = priority;
  program.add(op);
  return program;
}

TEST(EvalCache, KeyIgnoresCosmeticNameButNotParameters) {
  const arch::Architecture rsp2 = arch::rsp_architecture(2);
  arch::Architecture renamed = rsp2;
  renamed.name = "same-params-different-name";
  const std::string tag = EvalCache::program_tag(tiny_program(0));
  EXPECT_EQ(EvalCache::key("SAD", tag, rsp2),
            EvalCache::key("SAD", tag, renamed));
  EXPECT_NE(EvalCache::key("SAD", tag, rsp2),
            EvalCache::key("SAD", tag, arch::rs_architecture(2)));
  EXPECT_NE(EvalCache::key("SAD", tag, rsp2),
            EvalCache::key("MVM", tag, rsp2));
  // Same kernel id, different mapping: must not alias one cache entry.
  EXPECT_NE(EvalCache::key("SAD", tag, rsp2),
            EvalCache::key("SAD", EvalCache::program_tag(tiny_program(1)),
                           rsp2));
}

TEST(EvalCache, InvalidationNeverServesStaleEntries) {
  EvalCache cache;
  const std::string key = "SAD|base";
  EvalRecord stale;
  stale.cycles = 1;
  cache.insert(key, stale);
  ASSERT_TRUE(cache.lookup(key).has_value());

  EXPECT_TRUE(cache.invalidate(key));
  EXPECT_FALSE(cache.invalidate(key));  // already gone
  EXPECT_FALSE(cache.lookup(key).has_value());

  EvalRecord fresh;
  fresh.cycles = 2;
  const EvalRecord served =
      cache.get_or_compute(key, [&fresh] { return fresh; });
  EXPECT_EQ(served.cycles, 2);  // recomputed, not the stale value
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(EvalCache, InvalidationDuringComputeIsNotResurrected) {
  EvalCache cache;
  const std::string key = "SAD|base";
  EvalRecord computed;
  computed.cycles = 7;
  // The compute callback races an invalidation: the result may be
  // *returned* but must not be *published* over the invalidation.
  const EvalRecord served = cache.get_or_compute(key, [&] {
    cache.invalidate(key);  // cancels this in-flight compute's publish
    return computed;
  });
  EXPECT_EQ(served.cycles, 7);
  EXPECT_FALSE(cache.lookup(key).has_value());
}

TEST(EvalCache, InvalidatingAnotherKeyDoesNotSuppressPublish) {
  EvalCache cache(1);  // one shard, so both keys share it
  const std::string key = "SAD|base";
  const std::string other = "MVM|base";
  EvalRecord computed;
  computed.cycles = 5;
  cache.get_or_compute(key, [&] {
    cache.invalidate(other);  // unrelated key: must not cancel this publish
    return computed;
  });
  EXPECT_TRUE(cache.lookup(key).has_value());
}

TEST(EvalCache, ClearEmptiesEveryShard) {
  EvalCache cache(8);
  for (int v = 1; v <= 4; ++v) {
    EvalRecord r;
    r.cycles = v;
    cache.insert("k" + std::to_string(v), r);
  }
  EXPECT_EQ(cache.stats().entries, 4u);
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(EvalCache, SerializeDeserializeRoundTrip) {
  EvalCache cache(4);
  for (int v = 1; v <= 5; ++v) {
    EvalRecord r;
    r.cycles = v;
    r.stalls = v + 1;
    r.nostall_cycles = v + 2;
    r.max_critical_issues = v % 3;
    cache.insert("k" + std::to_string(v), r);
  }
  const util::Json doc = cache.serialize();
  EXPECT_EQ(doc.at("format").as_string(), "rsp-eval-cache");
  EXPECT_EQ(doc.at("version").as_number(), EvalCache::kSerialFormatVersion);
  EXPECT_EQ(doc.at("entries").size(), 5u);

  // Restore into a differently-sharded cache: shard count is a layout
  // detail, not part of the format.
  EvalCache restored(2);
  EXPECT_EQ(restored.deserialize(doc), 5u);
  EXPECT_EQ(restored.stats().entries, 5u);
  for (int v = 1; v <= 5; ++v) {
    const auto record = restored.lookup("k" + std::to_string(v));
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->cycles, v);
    EXPECT_EQ(record->stalls, v + 1);
    EXPECT_EQ(record->nostall_cycles, v + 2);
    EXPECT_EQ(record->max_critical_issues, v % 3);
  }
}

TEST(EvalCache, DeserializeRejectsVersionMismatchWithoutHalfLoading) {
  EvalCache cache;
  EvalRecord r;
  r.cycles = 9;
  cache.insert("k", r);
  util::Json doc = cache.serialize();
  doc.set("version", EvalCache::kSerialFormatVersion + 1);

  EvalCache restored;
  try {
    restored.deserialize(doc);
    FAIL() << "expected a version-mismatch rejection";
  } catch (const InvalidArgumentError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  EXPECT_EQ(restored.stats().entries, 0u);

  // Foreign and malformed documents are rejected whole as well.
  EXPECT_THROW(restored.deserialize(util::Json::parse("{\"x\": 1}")),
               InvalidArgumentError);
  util::Json tampered = util::Json::parse(
      "{\"format\": \"rsp-eval-cache\", \"version\": 1, "
      "\"entries\": [{\"key\": \"k\", \"cycles\": 1.5, \"stalls\": 0, "
      "\"nostall_cycles\": 0, \"max_critical_issues\": 0}]}");
  EXPECT_THROW(restored.deserialize(tampered), InvalidArgumentError);
  EXPECT_EQ(restored.stats().entries, 0u);
}

TEST(EvalCache, ConcurrentGetOrComputeYieldsOneConsistentValue) {
  EvalCache cache(2);  // few shards → real contention
  ThreadPool pool(4);
  std::vector<std::future<EvalRecord>> futures;
  for (int i = 0; i < 64; ++i)
    futures.push_back(pool.submit([&cache, i] {
      const std::string key = "k" + std::to_string(i % 8);
      return cache.get_or_compute(key, [i] {
        EvalRecord r;
        r.cycles = (i % 8) + 1;  // deterministic per key
        return r;
      });
    }));
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get().cycles, (i % 8) + 1);
  EXPECT_EQ(cache.stats().entries, 8u);
}

// ------------------------------------------------------ bounded eviction
TEST(EvalCache, EvictsLeastRecentlyUsedWhenBounded) {
  EvalCache cache(1, 4);  // one shard so capacity is exact
  for (int v = 0; v < 4; ++v) {
    EvalRecord r;
    r.cycles = v;
    cache.insert("k" + std::to_string(v), r);
  }
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().max_entries, 4u);

  // A fifth insert evicts the least-recently-used probation key (k0).
  EvalRecord r;
  r.cycles = 4;
  cache.insert("k4", r);
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(cache.lookup("k0").has_value());
  EXPECT_TRUE(cache.lookup("k1").has_value());
}

TEST(EvalCache, SegmentedLruProtectsRepeatedlyHitKeysFromScans) {
  EvalCache cache(1, 4);
  EvalRecord hot;
  hot.cycles = 99;
  cache.insert("hot", hot);
  ASSERT_TRUE(cache.lookup("hot").has_value());  // promoted to protected

  // A scan of one-shot keys three times the capacity churns through the
  // probation segment but must not flush the protected entry.
  for (int v = 0; v < 12; ++v) {
    EvalRecord r;
    r.cycles = v;
    cache.insert("scan" + std::to_string(v), r);
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  const auto served = cache.lookup("hot");
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->cycles, 99);
}

TEST(EvalCache, NewKeysAreNeverTheirOwnEvictionVictim) {
  // Degenerate small shards: with capacity 1 and the sole resident entry
  // promoted to the protected segment, an insert must evict the protected
  // entry — not the key just admitted, which would pin the old entry
  // forever and make the cache reject every new key.
  EvalCache cache(1, 1);
  EvalRecord a;
  a.cycles = 1;
  cache.insert("a", a);
  ASSERT_TRUE(cache.lookup("a").has_value());  // promote to protected

  EvalRecord b;
  b.cycles = 2;
  cache.insert("b", b);
  EXPECT_FALSE(cache.lookup("a").has_value());
  const auto served = cache.lookup("b");
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(served->cycles, 2);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(EvalCache, UnboundedByDefault) {
  EvalCache cache(2);
  for (int v = 0; v < 256; ++v) {
    EvalRecord r;
    r.cycles = v;
    cache.insert("k" + std::to_string(v), r);
  }
  EXPECT_EQ(cache.stats().entries, 256u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().max_entries, 0u);
}

TEST(EvalCache, EvictingCacheSnapshotRoundTrips) {
  EvalCache cache(2, 8);
  for (int v = 0; v < 32; ++v) {
    EvalRecord r;
    r.cycles = v;
    cache.insert("k" + std::to_string(v), r);
  }
  const CacheStats before = cache.stats();
  EXPECT_GT(before.evictions, 0u);
  const util::Json doc = cache.serialize();
  EXPECT_EQ(doc.at("entries").size(), before.entries);

  // Restoring into an equally-bounded cache keeps every snapshotted entry
  // (resident count <= capacity), and each survives with its exact value.
  EvalCache restored(2, 8);
  EXPECT_EQ(restored.deserialize(doc), before.entries);
  EXPECT_EQ(restored.stats().entries, before.entries);
  for (std::size_t i = 0; i < doc.at("entries").size(); ++i) {
    const util::Json& entry = doc.at("entries").at(i);
    const auto record = restored.lookup(entry.at("key").as_string());
    ASSERT_TRUE(record.has_value());
    EXPECT_EQ(record->cycles, entry.at("cycles").as_number());
  }
}

TEST(EvalCache, EvictionUnderConcurrencyStaysConsistent) {
  // Hammer a small bounded cache from many threads: every get_or_compute
  // must return the right value for its key regardless of eviction churn,
  // and the table must end within its (per-shard) bound.
  EvalCache cache(2, 8);
  ThreadPool pool(4);
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 256; ++i)
    futures.push_back(pool.submit([&cache, i] {
      const int key = i % 32;
      const EvalRecord served =
          cache.get_or_compute("k" + std::to_string(key), [key] {
            EvalRecord r;
            r.cycles = key;
            return r;
          });
      ASSERT_EQ(served.cycles, key);
      if (i % 7 == 0) cache.invalidate("k" + std::to_string((key + 1) % 32));
    }));
  for (std::future<void>& f : futures) f.get();
  const CacheStats stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  // Per-shard bound: 2 shards x ceil(8/2) entries.
  EXPECT_LE(stats.entries, 8u);
}

// ------------------------------------------------------------ mapping cache
TEST(MappingCache, KeySeparatesHintsReductionAndGeometry) {
  const kernels::Workload base = kernels::find_workload("SAD");
  EXPECT_EQ(MappingCache::key(base), MappingCache::key(base));

  kernels::Workload changed_hints = base;
  changed_hints.hints.stagger += 1;
  EXPECT_NE(MappingCache::key(base), MappingCache::key(changed_hints));

  kernels::Workload changed_reduction = base;
  changed_reduction.reduction.index0 += 1;
  EXPECT_NE(MappingCache::key(base), MappingCache::key(changed_reduction));

  kernels::Workload changed_array = base;
  changed_array.array.read_buses_per_row += 1;
  EXPECT_NE(MappingCache::key(base), MappingCache::key(changed_array));

  // Distinct kernels never share an entry even under an equal layout.
  EXPECT_NE(MappingCache::key(base),
            MappingCache::key(kernels::find_workload("MVM")));
}

TEST(MappingCache, GetOrMapHitsAndMatchesDirectPreparation) {
  const kernels::Workload w = kernels::find_workload("SAD");
  MappingCache cache;
  const auto first = cache.get_or_map(w);
  const auto second = cache.get_or_map(w);
  EXPECT_EQ(first.get(), second.get());  // one shared record, no remap
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);

  const dse::KernelPrep direct = dse::prepare_kernel(w);
  EXPECT_EQ(EvalCache::program_tag(first->program),
            EvalCache::program_tag(direct.program));
  EXPECT_EQ(first->base_context.length(), direct.base_context.length());
}

TEST(MappingCache, InvalidationForcesRemapAndDropsDerivedEstimates) {
  const kernels::Workload w = kernels::find_workload("SAD");
  const std::string key = MappingCache::key(w);
  MappingCache cache;
  const auto record = cache.get_or_map(w);
  const core::PerfEstimate est = cache.get_or_estimate(
      key, record->profile, arch::rsp_architecture(2));
  EXPECT_GT(est.estimated_cycles(), 0);
  EXPECT_EQ(cache.estimate_stats().entries, 1u);

  EXPECT_TRUE(cache.invalidate(key));
  EXPECT_FALSE(cache.invalidate(key));  // already gone
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.estimate_stats().entries, 0u);  // derived entries dropped

  // The remap recomputes an identical record (mapping is deterministic).
  const auto fresh = cache.get_or_map(w);
  EXPECT_NE(fresh.get(), record.get());
  EXPECT_EQ(EvalCache::program_tag(fresh->program),
            EvalCache::program_tag(record->program));
}

TEST(MappingCache, EstimatesMatchDirectComputation) {
  const kernels::Workload w = kernels::find_workload("MVM");
  const std::string key = MappingCache::key(w);
  MappingCache cache;
  const auto record = cache.get_or_map(w);
  for (const arch::Architecture& a :
       arch::standard_suite(w.array.rows, w.array.cols)) {
    if (a.shares_multiplier()) {
      const core::PerfEstimate direct =
          core::estimate_performance(record->base_context, a);
      const core::PerfEstimate cached =
          cache.get_or_estimate(key, record->profile, a);
      const core::PerfEstimate warm =
          cache.get_or_estimate(key, record->profile, a);
      EXPECT_EQ(cached.estimated_cycles(), direct.estimated_cycles());
      EXPECT_EQ(warm.estimated_cycles(), direct.estimated_cycles());
      EXPECT_EQ(warm.base_cycles, direct.base_cycles);
      EXPECT_EQ(warm.rs_stall_bound, direct.rs_stall_bound);
      EXPECT_EQ(warm.rp_overhead, direct.rp_overhead);
    }
  }
  EXPECT_GT(cache.estimate_stats().hits, 0u);
}

// ------------------------------------------------- parallel vs serial DSE
void expect_bit_identical(const dse::ExplorationResult& serial,
                          const dse::ExplorationResult& parallel) {
  EXPECT_EQ(serial.selected, parallel.selected);
  EXPECT_EQ(serial.base_cycles, parallel.base_cycles);
  EXPECT_EQ(serial.base_area, parallel.base_area);
  EXPECT_EQ(serial.base_time_ns, parallel.base_time_ns);
  ASSERT_EQ(serial.candidates.size(), parallel.candidates.size());
  for (std::size_t i = 0; i < serial.candidates.size(); ++i) {
    const dse::Candidate& s = serial.candidates[i];
    const dse::Candidate& p = parallel.candidates[i];
    EXPECT_EQ(s.point.label(), p.point.label());
    EXPECT_EQ(s.rejected, p.rejected);
    EXPECT_EQ(s.pareto, p.pareto);
    EXPECT_EQ(s.evaluated, p.evaluated);
    EXPECT_EQ(s.exact_cycles, p.exact_cycles) << s.point.label();
    EXPECT_EQ(s.total_stalls, p.total_stalls) << s.point.label();
    // Bitwise double equality is intended: the parallel reduction must
    // replay the serial accumulation order exactly.
    EXPECT_EQ(s.exact_time_ns, p.exact_time_ns) << s.point.label();
    EXPECT_EQ(s.estimated_time_ns, p.estimated_time_ns) << s.point.label();
    EXPECT_EQ(s.area_estimate, p.area_estimate) << s.point.label();
  }
}

TEST(ParallelExplorer, BitIdenticalToSerialOnPaperWorkload) {
  // The acceptance gate: serial Fig. 7 and the 4-thread runtime must agree
  // on every candidate and select the same optimum design point.
  const std::vector<kernels::Workload> domain = kernels::paper_suite();
  const dse::ExplorerConfig config;  // full default enumeration

  const dse::Explorer serial(arch::ArraySpec{}, config);
  const dse::ExplorationResult serial_result = serial.explore(domain);

  RuntimeOptions options;
  options.threads = 4;
  options.cache = std::make_shared<EvalCache>();
  const ParallelExplorer parallel(arch::ArraySpec{}, config,
                                  synth::SynthesisModel(), options);
  const dse::ExplorationResult parallel_result = parallel.explore(domain);

  expect_bit_identical(serial_result, parallel_result);
  ASSERT_GE(parallel_result.selected, 0);
  EXPECT_EQ(serial_result.best().point.label(),
            parallel_result.best().point.label());
}

TEST(ParallelExplorer, RepeatedExplorationServedFromCache) {
  const std::vector<kernels::Workload> domain = kernels::dsp_suite();
  dse::ExplorerConfig config;
  config.max_units_per_row = 2;
  config.max_units_per_col = 1;
  config.max_stages = 2;

  RuntimeOptions options;
  options.threads = 2;
  options.cache = std::make_shared<EvalCache>();
  const ParallelExplorer explorer(arch::ArraySpec{}, config,
                                  synth::SynthesisModel(), options);

  const dse::ExplorationResult first = explorer.explore(domain);
  const CacheStats after_first = options.cache->stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_GT(after_first.entries, 0u);

  const dse::ExplorationResult second = explorer.explore(domain);
  const CacheStats after_second = options.cache->stats();
  EXPECT_EQ(after_second.hits, after_first.entries);  // every pair reused
  EXPECT_EQ(after_second.entries, after_first.entries);
  expect_bit_identical(first, second);
}

// ------------------------------------------ parallel vs serial prepare
void expect_prepared_identical(const dse::PreparedExploration& serial,
                               const dse::PreparedExploration& parallel) {
  ASSERT_EQ(serial.kernel_names.size(), parallel.kernel_names.size());
  for (std::size_t k = 0; k < serial.kernel_names.size(); ++k) {
    EXPECT_EQ(serial.kernel_names[k], parallel.kernel_names[k]);
    EXPECT_EQ(EvalCache::program_tag(*serial.programs[k]),
              EvalCache::program_tag(*parallel.programs[k]));
  }
  const dse::ExplorationResult& s = serial.result;
  const dse::ExplorationResult& p = parallel.result;
  EXPECT_EQ(s.base_cycles, p.base_cycles);
  EXPECT_EQ(s.base_area, p.base_area);
  EXPECT_EQ(s.base_time_ns, p.base_time_ns);
  ASSERT_EQ(s.candidates.size(), p.candidates.size());
  for (std::size_t i = 0; i < s.candidates.size(); ++i) {
    const dse::Candidate& sc = s.candidates[i];
    const dse::Candidate& pc = p.candidates[i];
    EXPECT_EQ(sc.point.label(), pc.point.label());
    EXPECT_EQ(sc.architecture.name, pc.architecture.name);
    EXPECT_EQ(sc.rejected, pc.rejected) << sc.point.label();
    EXPECT_EQ(sc.reject_reason, pc.reject_reason) << sc.point.label();
    EXPECT_EQ(sc.pareto, pc.pareto) << sc.point.label();
    EXPECT_EQ(sc.estimated_cycles, pc.estimated_cycles) << sc.point.label();
    // Bitwise double equality is intended: the parallel path must replay
    // the serial computation exactly.
    EXPECT_EQ(sc.area_estimate, pc.area_estimate) << sc.point.label();
    EXPECT_EQ(sc.area_synthesized, pc.area_synthesized) << sc.point.label();
    EXPECT_EQ(sc.clock_ns, pc.clock_ns) << sc.point.label();
    EXPECT_EQ(sc.estimated_time_ns, pc.estimated_time_ns)
        << sc.point.label();
    EXPECT_FALSE(pc.evaluated);  // prepare stops before step 5
  }
  EXPECT_EQ(p.selected, -1);
}

TEST(ParallelExplorer, PrepareBitIdenticalToSerialOnPaperDomain) {
  // The prepare acceptance gate: serial steps 1-4 and the 4-thread fanned
  // version (with the mapping memo-cache interposed) must agree on every
  // candidate vector, reject reason and Pareto flag of the full paper
  // domain under the full default grid — and stay identical when served
  // warm from the cache.
  const std::vector<kernels::Workload> domain = kernels::paper_suite();
  const dse::ExplorerConfig config;  // full default enumeration

  const dse::Explorer serial(arch::ArraySpec{}, config);
  const dse::PreparedExploration serial_prep = serial.prepare(domain);

  RuntimeOptions options;
  options.threads = 4;
  options.mapping_cache = std::make_shared<MappingCache>();
  const ParallelExplorer parallel(arch::ArraySpec{}, config,
                                  synth::SynthesisModel(), options);
  const dse::PreparedExploration cold = parallel.prepare(domain);
  expect_prepared_identical(serial_prep, cold);
  EXPECT_EQ(options.mapping_cache->stats().entries, domain.size());

  const dse::PreparedExploration warm = parallel.prepare(domain);
  expect_prepared_identical(serial_prep, warm);
  EXPECT_EQ(options.mapping_cache->stats().hits, domain.size());
  EXPECT_GT(options.mapping_cache->estimate_stats().hits, 0u);
  // Warm rounds share the cached records' programs instead of copying
  // them, so each program's cached priority order carries across rounds.
  for (std::size_t k = 0; k < domain.size(); ++k)
    EXPECT_EQ(cold.programs[k].get(), warm.programs[k].get()) << k;
}

TEST(ParallelExplorer, PrepareWorksWithoutMappingCache) {
  const std::vector<kernels::Workload> domain = kernels::dsp_suite();
  dse::ExplorerConfig config;
  config.max_units_per_row = 2;
  config.max_units_per_col = 1;
  config.max_stages = 2;
  const dse::Explorer serial(arch::ArraySpec{}, config);
  ThreadPool pool(2);
  const dse::PreparedExploration parallel_prep =
      prepare_parallel(serial, domain, pool, nullptr);
  expect_prepared_identical(serial.prepare(domain), parallel_prep);
}

TEST(ParallelExplorer, PrepareRejectsBadDomains) {
  const dse::Explorer explorer((arch::ArraySpec()));
  ThreadPool pool(2);
  EXPECT_THROW(prepare_parallel(explorer, {}, pool, nullptr),
               InvalidArgumentError);
  kernels::Workload wrong_geometry = kernels::find_workload("SAD");
  wrong_geometry.array.rows = 4;
  EXPECT_THROW(
      prepare_parallel(explorer, {wrong_geometry}, pool, nullptr),
      InvalidArgumentError);
}

TEST(ParallelExplorer, WorksWithoutCacheAndWithExternalPool) {
  const std::vector<kernels::Workload> domain = {
      kernels::find_workload("SAD")};
  dse::ExplorerConfig config;
  config.max_units_per_row = 1;
  config.max_units_per_col = 0;
  config.max_stages = 2;

  ThreadPool pool(2);
  RuntimeOptions options;
  options.pool = &pool;  // no cache
  const ParallelExplorer parallel(arch::ArraySpec{}, config,
                                  synth::SynthesisModel(), options);
  const dse::Explorer serial(arch::ArraySpec{}, config);
  expect_bit_identical(serial.explore(domain), parallel.explore(domain));
}

// ------------------------------------------------------ parallel suite eval
TEST(ParallelExplorer, EvaluateSuiteMatchesSerialEvaluator) {
  const kernels::Workload w = kernels::find_workload("SAD");
  const sched::LoopPipeliner mapper(w.array);
  const sched::PlacedProgram program =
      mapper.map(w.kernel, w.hints, w.reduction);
  const std::vector<arch::Architecture> suite =
      arch::standard_suite(w.array.rows, w.array.cols);

  const core::RspEvaluator serial;
  const std::vector<core::EvalResult> expected =
      serial.evaluate_suite(program, suite);

  RuntimeOptions options;
  options.threads = 4;
  options.cache = std::make_shared<EvalCache>();
  const ParallelExplorer runtime(w.array, {}, synth::SynthesisModel(),
                                 options);
  // Twice: the second pass is served from the cache and must not drift.
  for (int round = 0; round < 2; ++round) {
    const std::vector<core::EvalResult> actual =
        runtime.evaluate_suite(w.name, program, suite);
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].arch_name, expected[i].arch_name);
      EXPECT_EQ(actual[i].cycles, expected[i].cycles);
      EXPECT_EQ(actual[i].stalls, expected[i].stalls);
      EXPECT_EQ(actual[i].clock_ns, expected[i].clock_ns);
      EXPECT_EQ(actual[i].execution_time_ns, expected[i].execution_time_ns);
      EXPECT_EQ(actual[i].delay_reduction_percent,
                expected[i].delay_reduction_percent);
      EXPECT_EQ(actual[i].max_mults_per_cycle,
                expected[i].max_mults_per_cycle);
    }
  }
  EXPECT_GT(options.cache->stats().hits, 0u);
}

TEST(ParallelExplorer, EvaluateSuiteRejectsEmptySuite) {
  const kernels::Workload w = kernels::find_workload("SAD");
  const sched::LoopPipeliner mapper(w.array);
  const ParallelExplorer runtime(w.array);
  EXPECT_THROW(runtime.evaluate_suite(
                   w.name, mapper.map(w.kernel, w.hints, w.reduction), {}),
               InvalidArgumentError);
}

// -------------------------------------------------------------- batch API
/// A v1 batch document over a one-shot api::Service. `threads` bounds both
/// the evaluation pool and request dispatch (max_inflight), so threads=1
/// cannot fan out across requests; 0 = hardware count for both.
util::Json run_batch(const util::Json& requests, int threads = 0,
                     std::shared_ptr<EvalCache> cache = nullptr) {
  api::ServiceOptions options;
  options.threads = threads;
  options.max_inflight = threads;
  options.cache = std::move(cache);
  api::Service service(std::move(options));
  return api::run_v1_batch(requests, service);
}

TEST(Batch, TwoRequestFileRoundTripsThroughJson) {
  util::Json requests = util::Json::array();
  util::Json eval = util::Json::object();
  eval.set("op", "eval").set("kernel", "SAD");
  requests.push(std::move(eval));
  util::Json dse_req = util::Json::object();
  util::Json names = util::Json::array();
  names.push("SAD").push("MVM");
  util::Json config = util::Json::object();
  config.set("max_units_per_row", 2)
      .set("max_units_per_col", 1)
      .set("max_stages", 2);
  dse_req.set("op", "dse").set("kernels", std::move(names));
  dse_req.set("config", std::move(config));
  requests.push(std::move(dse_req));

  const util::Json response = run_batch(requests, /*threads=*/2);

  // Valid JSON that survives a parse → dump round trip.
  const util::Json reparsed = util::Json::parse(response.dump());
  EXPECT_EQ(reparsed.dump(), response.dump());

  const util::Json& results = response.at("results");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results.at(0).at("ok").as_bool());
  EXPECT_EQ(results.at(0).at("op").as_string(), "eval");
  EXPECT_EQ(results.at(0).at("report").at("kernel").as_string(), "SAD");
  EXPECT_TRUE(results.at(1).at("ok").as_bool());
  EXPECT_EQ(results.at(1).at("op").as_string(), "dse");
  EXPECT_TRUE(results.at(1).at("selected").is_object());
  EXPECT_EQ(results.at(1).at("request").as_number(), 1);

  const util::Json& runtime = response.at("runtime");
  EXPECT_EQ(runtime.at("requests").as_number(), 2);
  EXPECT_EQ(runtime.at("threads").as_number(), 2);
  // Requests overlap on the shared pool since PR 3, so how many of SAD's
  // measurements request 1's DSE reuses is scheduling-dependent — assert
  // the shared table was populated, not an exact hit split.
  EXPECT_GT(runtime.at("cache_entries_total").as_number(), 0);
  EXPECT_GE(runtime.at("cache_hits").as_number(), 0);
}

TEST(Batch, BadRequestIsReportedInBandNotFatal) {
  util::Json requests = util::Json::array();
  util::Json bad = util::Json::object();
  bad.set("op", "eval").set("kernel", "no-such-kernel");
  requests.push(std::move(bad));
  util::Json good = util::Json::object();
  good.set("op", "eval").set("kernel", "MVM");
  requests.push(std::move(good));

  const util::Json response = run_batch(requests);
  const util::Json& results = response.at("results");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results.at(0).at("ok").as_bool());
  EXPECT_FALSE(results.at(0).at("error").as_string().empty());
  EXPECT_TRUE(results.at(1).at("ok").as_bool());
}

TEST(Batch, SharedCacheStatsAreScopedToTheBatch) {
  util::Json requests = util::Json::array();
  util::Json eval = util::Json::object();
  eval.set("op", "eval").set("kernel", "MVM");
  requests.push(std::move(eval));

  const auto cache = std::make_shared<EvalCache>();  // warm across batches
  const util::Json first = run_batch(requests, /*threads=*/1, cache);
  const util::Json second = run_batch(requests, /*threads=*/1, cache);

  // First batch populates the shared cache (no hits); the second is served
  // entirely warm, and its report must cover only its own activity — not
  // the first batch's counter totals.
  EXPECT_EQ(first.at("runtime").at("cache_hits").as_number(), 0);
  EXPECT_GT(first.at("runtime").at("cache_misses").as_number(), 0);
  EXPECT_EQ(second.at("runtime").at("cache_misses").as_number(), 0);
  EXPECT_GT(second.at("runtime").at("cache_hits").as_number(), 0);
  EXPECT_EQ(second.at("runtime").at("cache_hit_rate").as_number(), 1.0);
}

TEST(Batch, UnknownDseConfigKeyIsReportedInBand) {
  util::Json requests = util::Json::array();
  util::Json dse_req = util::Json::object();
  util::Json names = util::Json::array();
  names.push("SAD");
  util::Json config = util::Json::object();
  config.set("objetive", "min_area");  // typo'd "objective"
  dse_req.set("op", "dse").set("kernels", std::move(names));
  dse_req.set("config", std::move(config));
  requests.push(std::move(dse_req));

  const util::Json response = run_batch(requests);
  const util::Json& result = response.at("results").at(0);
  EXPECT_FALSE(result.at("ok").as_bool());
  EXPECT_NE(result.at("error").as_string().find("objetive"),
            std::string::npos);
}

TEST(Batch, NonIntegralDseConfigValueIsRejected) {
  util::Json requests = util::Json::array();
  util::Json dse_req = util::Json::object();
  util::Json names = util::Json::array();
  names.push("SAD");
  util::Json config = util::Json::object();
  config.set("max_stages", 3.7);
  dse_req.set("op", "dse").set("kernels", std::move(names));
  dse_req.set("config", std::move(config));
  requests.push(std::move(dse_req));

  const util::Json response = run_batch(requests);
  const util::Json& result = response.at("results").at(0);
  EXPECT_FALSE(result.at("ok").as_bool());
  EXPECT_NE(result.at("error").as_string().find("max_stages"),
            std::string::npos);
}

TEST(Batch, RejectsNonArrayInput) {
  EXPECT_THROW(run_batch(util::Json::object()), InvalidArgumentError);
  EXPECT_THROW(run_batch(util::Json("eval")), InvalidArgumentError);
}

// -------------------------------------------------- thread-safe logging
// --------------------------------------------------------- batched sim
sched::ConfigurationContext schedule_workload(const kernels::Workload& w,
                                              const arch::Architecture& a) {
  const sched::LoopPipeliner mapper(w.array);
  return sched::ContextScheduler().schedule(
      mapper.map(w.kernel, w.hints, w.reduction), a);
}

TEST(SimBatch, BatchIsBitIdenticalToSerialRunsAndPositional) {
  const kernels::Workload w = kernels::find_workload("SAD");
  const sched::ConfigurationContext ctx =
      schedule_workload(w, arch::rsp_architecture(4));

  // Six memories, each perturbed at a distinct address so a shuffled result
  // order could not pass.
  std::vector<ir::Memory> memories(6);
  for (int i = 0; i < 6; ++i) {
    w.setup(memories[static_cast<std::size_t>(i)]);
    memories[static_cast<std::size_t>(i)].write("cur", i, 100 + i);
  }

  const std::vector<SimBatchResult> batch =
      simulate_batch(ctx, memories, SimBatchOptions{.threads = 4});
  ASSERT_EQ(batch.size(), memories.size());

  const sim::Machine dense;  // serial reference on the dense engine
  for (std::size_t i = 0; i < memories.size(); ++i) {
    ir::Memory serial = memories[i];
    const sim::SimResult expected = dense.run(ctx, serial);
    EXPECT_TRUE(batch[i].result == expected) << "job " << i;
    EXPECT_TRUE(batch[i].memory == serial) << "job " << i;
  }
}

TEST(SimBatch, DenseAndEventEngineBatchesAgree) {
  const kernels::Workload w = kernels::find_workload("Inner product");
  const sched::ConfigurationContext ctx =
      schedule_workload(w, arch::rs_architecture(2));
  std::vector<ir::Memory> memories(3);
  for (auto& m : memories) w.setup(m);

  const auto event = simulate_batch(
      ctx, memories,
      SimBatchOptions{.threads = 2, .engine = sim::SimEngine::kEvent});
  const auto dense = simulate_batch(
      ctx, memories,
      SimBatchOptions{.threads = 2, .engine = sim::SimEngine::kDense});
  ASSERT_EQ(event.size(), dense.size());
  for (std::size_t i = 0; i < event.size(); ++i) {
    EXPECT_TRUE(event[i].result == dense[i].result) << "job " << i;
    EXPECT_TRUE(event[i].memory == dense[i].memory) << "job " << i;
  }
}

TEST(SimBatch, EmptyAndSingleJobShortcuts) {
  const kernels::Workload w = kernels::find_workload("SAD");
  const sched::ConfigurationContext ctx =
      schedule_workload(w, arch::base_architecture());
  EXPECT_TRUE(simulate_batch(ctx, {}).empty());

  std::vector<ir::Memory> one(1);
  w.setup(one[0]);
  ir::Memory serial = one[0];
  const auto batch = simulate_batch(ctx, std::move(one));
  ASSERT_EQ(batch.size(), 1u);
  const sim::SimResult expected = sim::Machine().run(ctx, serial);
  EXPECT_TRUE(batch[0].result == expected);
  EXPECT_TRUE(batch[0].memory == serial);
}

TEST(SimBatch, RunsOnExternalPool) {
  const kernels::Workload w = kernels::find_workload("MVM");
  const sched::ConfigurationContext ctx =
      schedule_workload(w, arch::rsp_architecture(1));
  std::vector<ir::Memory> memories(4);
  for (auto& m : memories) w.setup(m);

  ThreadPool pool(2);
  SimBatchOptions options;
  options.pool = &pool;
  const auto batch = simulate_batch(ctx, memories, options);
  ASSERT_EQ(batch.size(), 4u);
  ir::Memory golden;
  w.setup(golden);
  w.golden(golden);
  for (const auto& out : batch) EXPECT_TRUE(out.memory == golden);
}

TEST(SimBatch, SimulateManyIsPositionalAcrossContexts) {
  const kernels::Workload sad = kernels::find_workload("SAD");
  const kernels::Workload mvm = kernels::find_workload("MVM");
  const sched::ConfigurationContext sad_ctx =
      schedule_workload(sad, arch::rsp_architecture(4));
  const sched::ConfigurationContext mvm_ctx =
      schedule_workload(mvm, arch::base_architecture());

  std::vector<ir::Memory> memories(2);
  sad.setup(memories[0]);
  mvm.setup(memories[1]);
  const auto outcomes = simulate_many({&sad_ctx, &mvm_ctx}, memories,
                                      SimBatchOptions{.threads = 2});
  ASSERT_EQ(outcomes.size(), 2u);

  ir::Memory sad_golden, mvm_golden;
  sad.setup(sad_golden);
  sad.golden(sad_golden);
  mvm.setup(mvm_golden);
  mvm.golden(mvm_golden);
  EXPECT_TRUE(outcomes[0].memory == sad_golden);
  EXPECT_TRUE(outcomes[1].memory == mvm_golden);
}

TEST(SimBatch, SimulateManyValidatesShapes) {
  const kernels::Workload w = kernels::find_workload("SAD");
  const sched::ConfigurationContext ctx =
      schedule_workload(w, arch::base_architecture());
  std::vector<ir::Memory> two(2);
  w.setup(two[0]);
  w.setup(two[1]);
  EXPECT_THROW(simulate_many({&ctx}, two), InvalidArgumentError);
  std::vector<ir::Memory> one(1);
  w.setup(one[0]);
  EXPECT_THROW(simulate_many({nullptr}, one), InvalidArgumentError);
}

TEST(SimBatch, PropagatesSimulationErrorsFromWorkers) {
  // Two kConst ops double-book PE (0,0): every job must fail, and the
  // batch call surfaces the first failure by position.
  std::vector<sched::ScheduledOp> ops(2);
  ops[0].kind = ir::OpKind::kConst;
  ops[1].kind = ir::OpKind::kConst;
  const sched::ConfigurationContext ctx(arch::base_architecture(), ops);
  std::vector<ir::Memory> memories(3);
  for (const sim::SimEngine engine :
       {sim::SimEngine::kDense, sim::SimEngine::kEvent}) {
    SimBatchOptions options;
    options.threads = 2;
    options.engine = engine;
    EXPECT_THROW(simulate_batch(ctx, memories, options), Error)
        << sim::engine_name(engine);
  }
}

TEST(LoggingThreads, ConcurrentEmissionIsSerializedAndLossless) {
  std::mutex sink_mutex;
  std::vector<std::string> lines;
  const util::LogLevel previous_threshold = util::log_threshold();
  util::set_log_threshold(util::LogLevel::kDebug);
  util::LogSink previous = util::set_log_sink(
      [&](util::LogLevel, const std::string& message) {
        const std::lock_guard<std::mutex> lock(sink_mutex);
        lines.push_back(message);
      });

  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t)
      pool.submit([t] {
        for (int i = 0; i < kPerThread; ++i)
          RSP_LOG(kDebug) << "thread " << t << " message " << i;
      });
  }

  util::set_log_sink(std::move(previous));
  util::set_log_threshold(previous_threshold);

  ASSERT_EQ(lines.size(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // Records must arrive whole: every line matches the emitted shape, with
  // no interleaving of the two stream insertions.
  for (const std::string& line : lines) {
    EXPECT_EQ(line.rfind("thread ", 0), 0u) << line;
    EXPECT_NE(line.find(" message "), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace rsp::runtime
