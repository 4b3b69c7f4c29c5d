#include "sched/program.hpp"

#include <algorithm>
#include <numeric>
#include <string_view>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace rsp::sched {

ProgIndex PlacedProgram::add(ProgramOp op) {
  const ProgIndex idx = size();
  if (!array_.contains(op.pe))
    throw InvalidArgumentError("placed op PE out of range");
  const int arity = ir::op_arity(op.kind);
  if (static_cast<int>(op.operands.size()) != arity)
    throw InvalidArgumentError(std::string("placed op of kind ") +
                               ir::op_name(op.kind) + " expects " +
                               std::to_string(arity) + " operands");
  for (const ProgOperand& o : op.operands) {
    if (o.is_imm()) continue;
    if (o.producer < 0 || o.producer >= idx)
      throw InvalidArgumentError(
          "placed op operands must reference earlier ops");
  }
  if (ir::is_memory_op(op.kind) && op.array.empty())
    throw InvalidArgumentError("memory op requires an array name");
  for (ProgIndex d : op.order_deps)
    if (d < 0 || d >= idx)
      throw InvalidArgumentError(
          "order dependences must reference earlier ops");
  if (op.source != ir::kInvalidOp) {
    if (op.source >= static_cast<ir::OpId>(source_index_.size()))
      source_index_.resize(static_cast<std::size_t>(op.source) + 1,
                           kNoProducer);
    source_index_[static_cast<std::size_t>(op.source)] = idx;
  }
  ops_.push_back(std::move(op));
  derived_.slot.store(nullptr);
  return idx;
}

const ProgramOp& PlacedProgram::op(ProgIndex i) const {
  if (i < 0 || i >= size()) throw NotFoundError("program index out of range");
  return ops_[static_cast<std::size_t>(i)];
}

ProgIndex PlacedProgram::index_of_source(ir::OpId source) const {
  if (source < 0 ||
      source >= static_cast<ir::OpId>(source_index_.size()))
    return kNoProducer;
  return source_index_[static_cast<std::size_t>(source)];
}

void PlacedProgram::validate() const {
  for (ProgIndex i = 0; i < size(); ++i) {
    const ProgramOp& op = ops_[static_cast<std::size_t>(i)];
    RSP_ASSERT(array_.contains(op.pe));
    for (const ProgOperand& o : op.operands) {
      if (o.is_imm()) continue;
      RSP_ASSERT_MSG(o.producer >= 0 && o.producer < i,
                     "operands must reference earlier ops");
      const ProgramOp& prod = ops_[static_cast<std::size_t>(o.producer)];
      if (array_.route(prod.pe, op.pe) == arch::RouteKind::kNone)
        throw InvalidArgumentError(
            "producer→consumer edge is not routable in one hop between " +
            std::to_string(prod.pe.row) + "," + std::to_string(prod.pe.col) +
            " and " + std::to_string(op.pe.row) + "," +
            std::to_string(op.pe.col));
      if (prod.priority >= op.priority)
        throw InvalidArgumentError(
            "priorities must strictly increase along dependence edges");
    }
    for (ProgIndex d : op.order_deps) {
      const ProgramOp& prod = ops_[static_cast<std::size_t>(d)];
      if (prod.priority >= op.priority)
        throw InvalidArgumentError(
            "priorities must strictly increase along order dependences");
    }
  }
}

PlacedProgram::Derived::Derived() {
  for (std::atomic<int>& length : free_runs) length.store(-1);
}

const PlacedProgram::Derived& PlacedProgram::derived() const {
  std::shared_ptr<const Derived> cached = derived_.slot.load();
  if (cached) return *cached;
  validate();
  auto fresh = std::make_shared<Derived>();
  fresh->order.resize(ops_.size());
  std::iota(fresh->order.begin(), fresh->order.end(), 0);
  std::stable_sort(fresh->order.begin(), fresh->order.end(),
                   [this](ProgIndex a, ProgIndex b) {
                     return ops_[static_cast<std::size_t>(a)].priority <
                            ops_[static_cast<std::size_t>(b)].priority;
                   });
  std::uint64_t h = util::kFnvOffsetBasis;
  const auto mix = [&h](std::int64_t v) {
    h = util::fnv1a(
        std::string_view(reinterpret_cast<const char*>(&v), sizeof v), h);
  };
  for (const ProgramOp& op : ops_) {
    mix(static_cast<std::int64_t>(op.kind));
    mix(op.pe.row);
    mix(op.pe.col);
    mix(op.priority);
    mix(op.imm);
    mix(op.address);
    mix(op.not_before);
    // Variable-length sections are length-prefixed so, e.g., an operand
    // list {5, 0} and an order_deps list [5, 0] cannot alias.
    mix(static_cast<std::int64_t>(op.array.size()));
    h = util::fnv1a(op.array, h);
    mix(static_cast<std::int64_t>(op.operands.size()));
    for (const ProgOperand& operand : op.operands) {
      mix(operand.producer);
      mix(operand.imm);
    }
    mix(static_cast<std::int64_t>(op.order_deps.size()));
    for (const ProgIndex dep : op.order_deps) mix(dep);
  }
  fresh->fingerprint = h;
  // A racing first call may have filled the slot meanwhile: keep the
  // winner, so a filled slot never changes and the reference returned
  // below stays valid until the program is next mutated.
  cached = std::move(fresh);
  std::shared_ptr<const Derived> expected;
  if (!derived_.slot.compare_exchange_strong(expected, cached))
    cached = std::move(expected);
  return *cached;
}

const std::vector<ProgIndex>& PlacedProgram::priority_order() const {
  return derived().order;
}

std::uint64_t PlacedProgram::fingerprint() const {
  return derived().fingerprint;
}

std::atomic<int>& PlacedProgram::free_run_memo(int latency) const {
  return derived().free_runs.at(static_cast<std::size_t>(latency - 1));
}

std::int64_t PlacedProgram::count(ir::OpKind kind) const {
  return static_cast<std::int64_t>(
      std::count_if(ops_.begin(), ops_.end(),
                    [&](const ProgramOp& o) { return o.kind == kind; }));
}

}  // namespace rsp::sched
