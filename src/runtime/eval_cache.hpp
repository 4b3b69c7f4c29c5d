// Sharded memo table for (kernel, architecture) evaluation results.
//
// Re-mapping and re-scheduling the same kernel on the same architecture is
// the dominant cost of exact evaluation, and both the DSE loop and batch
// serving repeat identical pairs constantly. The cache keys entries by a
// canonical fingerprint string: architecture parameters are spelled out in
// full, the program dimension is a 64-bit content hash — distinct mappings
// collide only with ~2^-64 probability, not never (a persisted
// cross-process cache would need the full program content in the key). The
// full key string is stored and compared, so the shard-picking hash adds
// no further collision risk.
//
// The concurrency machinery — shard striping, the per-key publish ticket
// that keeps an entry invalidated mid-compute from being resurrected, and
// the bounded-capacity segmented-LRU eviction — lives in
// runtime/striped_cache.hpp and is shared with the MappingCache; this
// class adds the key/fingerprint composition and the persistence format.
// It holds no locks of its own, so the thread-safety annotations
// (util/thread_annotations.hpp) live entirely in the shared core.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "arch/presets.hpp"
#include "runtime/striped_cache.hpp"
#include "sched/program.hpp"
#include "util/json.hpp"

namespace rsp::runtime {

/// Everything the runtime memoizes per (kernel, architecture) pair. All
/// fields come from the same single schedule (core::measure_perf), so an
/// entry written by the DSE path serves the suite-evaluation path and
/// vice versa.
struct EvalRecord {
  int cycles = 0;
  int stalls = 0;
  int nostall_cycles = 0;
  int max_critical_issues = 0;

  bool operator==(const EvalRecord&) const = default;
};

/// Canonical, human-readable fingerprint of the architecture parameters
/// that influence scheduling and estimation. Cosmetic fields (the name)
/// are excluded so a preset ("RSP#2") and an identically-parameterised
/// custom design share one fingerprint. Shared by the EvalCache and
/// MappingCache key compositions.
std::string arch_fingerprint(const arch::Architecture& architecture);

class EvalCache {
 public:
  /// `max_entries` bounds the table (segmented-LRU eviction, enforced per
  /// shard as ceil(max_entries / shards)); 0 keeps it unbounded.
  explicit EvalCache(std::size_t shards = 16, std::size_t max_entries = 0)
      : cache_(shards, max_entries) {}

  EvalCache(const EvalCache&) = delete;
  EvalCache& operator=(const EvalCache&) = delete;

  /// Fingerprint of a placed program's scheduling-relevant content. It
  /// closes the alias trap where one kernel id is paired with two
  /// different mappings (e.g. changed hints) against a warm shared cache.
  /// The hash is PlacedProgram::fingerprint(), computed once per program
  /// and cached on it; like it, this throws what PlacedProgram::validate
  /// throws.
  static std::string program_tag(const sched::PlacedProgram& program);

  /// Canonical cache key: kernel identifier + `program_tag` + the
  /// architecture parameters that influence scheduling. Architecture
  /// *names* are excluded so a preset ("RSP#2") and an
  /// identically-parameterised custom design share one entry.
  static std::string key(const std::string& kernel_id,
                         const std::string& program_tag,
                         const arch::Architecture& architecture);

  std::optional<EvalRecord> lookup(const std::string& key) const {
    return cache_.lookup(key);
  }
  void insert(const std::string& key, const EvalRecord& record) {
    cache_.insert(key, record);
  }

  /// lookup, or run `compute` and insert its result. `compute` runs outside
  /// any shard lock (it reschedules kernels — far too slow to serialize),
  /// and the result is published only if this key was not invalidated
  /// meanwhile — an entry invalidated mid-compute stays invalidated, and
  /// invalidations of *other* keys do not block the publish.
  EvalRecord get_or_compute(const std::string& key,
                            const std::function<EvalRecord()>& compute) {
    return cache_.get_or_compute(key, compute);
  }

  /// Removes one entry; returns whether it existed. A subsequent lookup
  /// misses and recomputes — stale values are never served.
  bool invalidate(const std::string& key) { return cache_.invalidate(key); }
  void clear() { cache_.clear(); }

  /// Serialization format version; bumped whenever the entry schema or the
  /// key fingerprint composition changes incompatibly.
  static constexpr int kSerialFormatVersion = 1;

  /// Snapshot of every entry as a JSON document:
  ///   {"format": "rsp-eval-cache", "version": 1,
  ///    "entries": [{"key": ..., "cycles": ..., "stalls": ...,
  ///                 "nostall_cycles": ..., "max_critical_issues": ...}]}
  /// Shards are locked one at a time, so the snapshot is consistent per
  /// entry but not across concurrent writers — callers wanting an exact
  /// image quiesce the pool first. Keys embed a byte-view program hash, so
  /// a persisted table is only meaningful to the same build on the same
  /// platform; a mismatched key is simply never looked up (a cold miss),
  /// never a wrong hit. An *evicting* cache snapshots whatever is resident
  /// at that moment; restoring into a bounded table re-enters through the
  /// normal insert path (and may evict again if the bound is smaller).
  util::Json serialize() const;

  /// Merges every entry of `doc` (a `serialize()` document) into the table,
  /// last writer wins; returns the number of entries loaded. Throws
  /// InvalidArgumentError on a wrong format marker, a version mismatch, or
  /// malformed entries — a table from an incompatible build must be
  /// rejected loudly, not half-loaded.
  std::size_t deserialize(const util::Json& doc);

  CacheStats stats() const { return cache_.stats(); }
  std::size_t shard_count() const { return cache_.shard_count(); }
  std::size_t max_entries() const { return cache_.max_entries(); }

 private:
  StripedMemoCache<EvalRecord> cache_;
};

}  // namespace rsp::runtime
