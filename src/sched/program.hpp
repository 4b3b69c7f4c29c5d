// Placed program: the output of the loop-pipelining mapper and the input of
// the context scheduler.
//
// A `PlacedProgram` fixes *where* every operation runs (its PE) and in which
// *order* operations compete for resources (the priority, which encodes the
// paper's "in the order of loop iteration" rule), but not *when* — cycles
// are assigned by the `ContextScheduler` for a concrete architecture. The
// same placed program scheduled on Base / RS#k / RSP#k yields the paper's
// base context and its RS/RSP rearrangements.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/array.hpp"
#include "arch/sharing.hpp"
#include "ir/unroll.hpp"

namespace rsp::sched {

/// Index into PlacedProgram::ops.
using ProgIndex = std::int64_t;
inline constexpr ProgIndex kNoProducer = -1;

/// Operand of a placed op: a producer inside the program or an immediate.
struct ProgOperand {
  ProgIndex producer = kNoProducer;
  std::int64_t imm = 0;
  bool is_imm() const { return producer == kNoProducer; }
};

/// One placed operation.
struct ProgramOp {
  ir::OpKind kind = ir::OpKind::kNop;
  arch::PeCoord pe;
  /// Resource-competition order; strictly increasing along every dependence
  /// chain. Lower priority = earlier loop iteration = wins contended units.
  std::int64_t priority = 0;
  /// Originating iteration; -1 for mapper-inserted epilogue (reduction) ops.
  std::int64_t iter = -1;
  /// Originating op in the unrolled graph; ir::kInvalidOp for epilogue ops.
  ir::OpId source = ir::kInvalidOp;
  std::vector<ProgOperand> operands;
  std::int64_t imm = 0;      ///< const value / shift amount
  std::string array;         ///< memory ops
  std::int64_t address = 0;  ///< memory ops
  /// Ordering-only predecessors (memory RAW/WAR/WAW). They carry no value
  /// and need no route — the dependence flows through data memory.
  std::vector<ProgIndex> order_deps;
  /// Earliest issue cycle. The mapper pins every loop op to its nominal
  /// lockstep slot (wave start + body slot) so the configuration context
  /// follows the Fig. 2 staggered-wave discipline; the scheduler may only
  /// move ops *later* (stalls), never earlier.
  int not_before = 0;
};

/// The full placed computation for one kernel on one array geometry.
class PlacedProgram {
 public:
  explicit PlacedProgram(arch::ArraySpec array) : array_(array) {
    array_.validate();
  }

  const arch::ArraySpec& array() const { return array_; }

  /// Appends an op; operands must reference earlier ops. Returns its index.
  ProgIndex add(ProgramOp op);

  const std::vector<ProgramOp>& ops() const { return ops_; }
  const ProgramOp& op(ProgIndex i) const;
  std::int64_t size() const { return static_cast<std::int64_t>(ops_.size()); }

  /// Index of the program op realising unrolled op `source`
  /// (kNoProducer if the mapper dropped/replaced it).
  ProgIndex index_of_source(ir::OpId source) const;

  /// Structural checks: operand ordering, PE bounds, single-hop routability
  /// of every producer→consumer edge, priorities monotone along edges.
  void validate() const;

  /// What the scheduler derives from the program alone is computed once per
  /// program, on first use, and cached: the first call to any of the three
  /// accessors below runs validate() — throwing what it throws, and caching
  /// nothing — so a program scheduled on many architectures is validated,
  /// sorted and hashed once. Copies share the cache; add() clears it. Safe
  /// to call from many threads at once.

  /// The order the scheduler places ops in: ascending priority, ties by
  /// index.
  const std::vector<ProgIndex>& priority_order() const;

  /// Hash of every op field the scheduler reads (runtime::EvalCache's
  /// program tag). Byte-view hashing is endianness-dependent, which is fine
  /// for in-memory memo keys: they only need to be stable within a process.
  std::uint64_t fingerprint() const;

  /// The program's memo of its free-run length at multiplier latency
  /// `latency` (1..arch::kMaxPipelineStages): its schedule length on
  /// sched::unlimited_units(a) for every valid `a` of that latency, -1
  /// until sched::measure first fills it (see unlimited_units for why the
  /// latency is the only key).
  std::atomic<int>& free_run_memo(int latency) const;

  /// Number of mult ops (for quick sanity checks).
  std::int64_t count(ir::OpKind kind) const;

 private:
  arch::ArraySpec array_;
  std::vector<ProgramOp> ops_;
  std::vector<ProgIndex> source_index_;  // unrolled OpId -> program index

  struct Derived {
    Derived();
    std::vector<ProgIndex> order;
    std::uint64_t fingerprint = 0;
    /// Free-run lengths by multiplier latency - 1; -1 = not yet measured.
    mutable std::array<std::atomic<int>, arch::kMaxPipelineStages> free_runs;
  };
  const Derived& derived() const;

  /// An atomic slot that copies share (a move takes it along): once filled
  /// it holds the same Derived until add() empties it.
  class DerivedSlot {
   public:
    DerivedSlot() = default;
    DerivedSlot(const DerivedSlot& other) : slot(other.slot.load()) {}
    DerivedSlot(DerivedSlot&& other) noexcept
        : slot(other.slot.exchange(nullptr)) {}
    DerivedSlot& operator=(const DerivedSlot& other) {
      slot.store(other.slot.load());
      return *this;
    }
    DerivedSlot& operator=(DerivedSlot&& other) noexcept {
      slot.store(other.slot.exchange(nullptr));
      return *this;
    }
    std::atomic<std::shared_ptr<const Derived>> slot;
  };
  mutable DerivedSlot derived_;
};

}  // namespace rsp::sched
