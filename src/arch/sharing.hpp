// The RSP template parameters (paper §4):
//   - which resource types are shared / pipelined,
//   - the number of pipeline stages,
//   - the number of shared-resource rows (shr: units attached per row) and
//     columns (shc: units attached per column).
//
// Shared units sit in line with the rows/columns of the array (Fig. 8); a PE
// reaches every unit of its own row pool and its own column pool through its
// bus switch (Fig. 4).
#pragma once

#include <string>
#include <vector>

#include "arch/array.hpp"
#include "arch/resources.hpp"

namespace rsp::arch {

/// Deepest multiplier pipeline the template's design space admits; a
/// multiplication's latency is 1..kMaxPipelineStages cycles.
inline constexpr int kMaxPipelineStages = 8;

/// Identifier of one physical shared unit.
struct SharedUnitId {
  /// Pool the unit belongs to: row pool r serves all PEs with row == r,
  /// column pool c serves all PEs with col == c.
  enum class Pool { kRow, kColumn } pool = Pool::kRow;
  int line = 0;   ///< row index (kRow) or column index (kColumn)
  int index = 0;  ///< which unit within the line's pool

  bool operator==(const SharedUnitId&) const = default;
  auto operator<=>(const SharedUnitId&) const = default;
};

std::string to_string(const SharedUnitId& id);

/// Placement plan of shared units for one resource type.
struct SharingPlan {
  Resource resource = Resource::kArrayMultiplier;
  int units_per_row = 0;     ///< paper's shr
  int units_per_col = 0;     ///< paper's shc
  int pipeline_stages = 1;   ///< 1 = not pipelined (pure RS); >=2 = RSP

  bool shares() const { return units_per_row > 0 || units_per_col > 0; }
  bool pipelines() const { return pipeline_stages > 1; }

  /// Total physical units on a rows×cols array:
  /// rows·units_per_row + cols·units_per_col (paper eq. (2) term).
  int total_units(const ArraySpec& array) const;

  /// All unit ids available to a PE at `pe` (its row pool then column pool).
  std::vector<SharedUnitId> reachable_units(const ArraySpec& array,
                                            PeCoord pe) const;

  /// Units a single PE can reach (= units_per_row + units_per_col);
  /// drives the bus-switch complexity model.
  int units_reachable_per_pe() const {
    return units_per_row + units_per_col;
  }

  void validate(const ArraySpec& array) const;

  bool operator==(const SharingPlan&) const = default;
};

}  // namespace rsp::arch
