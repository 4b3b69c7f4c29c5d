#include "arch/sharing.hpp"

#include <sstream>

#include "util/error.hpp"

namespace rsp::arch {

std::string to_string(const SharedUnitId& id) {
  std::ostringstream os;
  os << (id.pool == SharedUnitId::Pool::kRow ? "row" : "col") << id.line
     << ".u" << id.index;
  return os.str();
}

int SharingPlan::total_units(const ArraySpec& array) const {
  return array.rows * units_per_row + array.cols * units_per_col;
}

std::vector<SharedUnitId> SharingPlan::reachable_units(const ArraySpec& array,
                                                       PeCoord pe) const {
  RSP_ASSERT(array.contains(pe));
  std::vector<SharedUnitId> out;
  out.reserve(static_cast<std::size_t>(units_reachable_per_pe()));
  for (int u = 0; u < units_per_row; ++u)
    out.push_back(SharedUnitId{SharedUnitId::Pool::kRow, pe.row, u});
  for (int u = 0; u < units_per_col; ++u)
    out.push_back(SharedUnitId{SharedUnitId::Pool::kColumn, pe.col, u});
  return out;
}

void SharingPlan::validate(const ArraySpec& array) const {
  array.validate();
  if (!is_sharable(resource) && shares())
    throw InvalidArgumentError(std::string(resource_name(resource)) +
                               " is not a sharable resource");
  if (units_per_row < 0 || units_per_col < 0)
    throw InvalidArgumentError("shared unit counts must be non-negative");
  if (pipeline_stages < 1)
    throw InvalidArgumentError("pipeline stages must be >= 1");
  if (pipeline_stages > 1 && !is_pipelinable(resource))
    throw InvalidArgumentError(std::string(resource_name(resource)) +
                               " is not a pipelinable resource");
  if (pipeline_stages > kMaxPipelineStages)
    throw InvalidArgumentError(
        "more than " + std::to_string(kMaxPipelineStages) +
        " pipeline stages is outside the template's design space");
}

}  // namespace rsp::arch
