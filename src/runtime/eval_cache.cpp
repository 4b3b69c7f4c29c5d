#include "runtime/eval_cache.hpp"

#include <utility>
#include <vector>

#include "util/error.hpp"

namespace rsp::runtime {

std::string EvalCache::program_tag(const sched::PlacedProgram& program) {
  return std::to_string(program.fingerprint());
}

std::string arch_fingerprint(const arch::Architecture& a) {
  // Every field the scheduler, estimator or clock model reads is included;
  // cosmetic fields (the name) are not.
  std::string k;
  k += std::to_string(a.array.rows) + 'x' + std::to_string(a.array.cols);
  k += ";rb" + std::to_string(a.array.read_buses_per_row);
  k += ";wb" + std::to_string(a.array.write_buses_per_row);
  k += ";dw" + std::to_string(a.array.data_width_bits);
  k += ";pe";
  k += a.pe.has_multiplier ? 'm' : '-';
  k += a.pe.has_bus_switch ? 's' : '-';
  k += a.pe.has_pipeline_regs ? 'p' : '-';
  k += ";res" + std::to_string(static_cast<int>(a.sharing.resource));
  k += ";shr" + std::to_string(a.sharing.units_per_row);
  k += ";shc" + std::to_string(a.sharing.units_per_col);
  k += ";st" + std::to_string(a.sharing.pipeline_stages);
  return k;
}

std::string EvalCache::key(const std::string& kernel_id,
                           const std::string& program_tag,
                           const arch::Architecture& a) {
  std::string k = kernel_id;
  k += '#';
  k += program_tag;
  k += '|';
  k += arch_fingerprint(a);
  return k;
}

util::Json EvalCache::serialize() const {
  util::Json entries = util::Json::array();
  for (const auto& [key, record] : cache_.snapshot()) {
    util::Json entry = util::Json::object();
    entry.set("key", key)
        .set("cycles", record.cycles)
        .set("stalls", record.stalls)
        .set("nostall_cycles", record.nostall_cycles)
        .set("max_critical_issues", record.max_critical_issues);
    entries.push(std::move(entry));
  }
  util::Json doc = util::Json::object();
  doc.set("format", "rsp-eval-cache")
      .set("version", kSerialFormatVersion)
      .set("entries", std::move(entries));
  return doc;
}

namespace {

int record_int_field(const util::Json& entry, const char* field) {
  return entry.at(field).as_int("cache entry field '" + std::string(field) +
                                "'");
}

}  // namespace

std::size_t EvalCache::deserialize(const util::Json& doc) {
  if (!doc.is_object() || !doc.contains("format") ||
      !doc.at("format").is_string() ||
      doc.at("format").as_string() != "rsp-eval-cache")
    throw InvalidArgumentError(
        "not an rsp-eval-cache document (missing format marker)");
  const double version = doc.at("version").as_number();
  if (version != static_cast<double>(kSerialFormatVersion))
    throw InvalidArgumentError(
        "unsupported cache format version " + util::Json(version).dump() +
        " (this build reads version " +
        std::to_string(kSerialFormatVersion) + ")");
  const util::Json& entries = doc.at("entries");
  if (!entries.is_array())
    throw InvalidArgumentError("'entries' must be a JSON array");

  // Validate every entry before touching the table: a malformed document
  // is rejected whole, not half-merged.
  std::vector<std::pair<std::string, EvalRecord>> loaded;
  loaded.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const util::Json& entry = entries.at(i);
    if (!entry.is_object())
      throw InvalidArgumentError("cache entry " + std::to_string(i) +
                                 " must be a JSON object");
    EvalRecord record;
    record.cycles = record_int_field(entry, "cycles");
    record.stalls = record_int_field(entry, "stalls");
    record.nostall_cycles = record_int_field(entry, "nostall_cycles");
    record.max_critical_issues = record_int_field(entry, "max_critical_issues");
    loaded.emplace_back(entry.at("key").as_string(), record);
  }
  for (const auto& [key, record] : loaded) insert(key, record);
  return loaded.size();
}

}  // namespace rsp::runtime
