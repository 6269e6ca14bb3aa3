// Job requests for the qmc_server example: a spec_path to a
// qmcxx-spec-v1 system file (or a paper workload's name, which names
// one of the committed spec files), an engine variant, and DriverConfig
// knobs, parsed from a small JSON object.
//
//   { "workload": "Graphite", "variant": "current", "dmc": false,
//     "driver": { "steps": 64, "num_walkers": 16, "seed": 42,
//                 "checkpoint_every": 8 },
//     "mem_budget_mb": 512 }
//
// The parser is a minimal recursive-descent JSON reader (objects,
// arrays, strings, numbers, booleans) -- deliberately no external
// dependency. Unknown keys are rejected with an error naming the key,
// so a typo'd knob fails the job instead of silently running defaults;
// an integer outside the int range is an error too, never a wrapped
// value.
//
// The same reader parses system ingestion files ("qmcxx-spec-v1",
// workloads/system_spec.h):
//
//   { "schema": "qmcxx-spec-v1", "name": "Graphite",
//     "num_electrons": 256,
//     "lattice": [[9.3,0,0], [-4.65,8.05...,0], [0,0,50.68]],
//     "orbitals": { "kind": "bspline-synthetic",
//                   "grid": [16,16,40], "count": 128 },
//     "jastrow": { "knots": 10 }, "delay_rank": 1,
//     "pseudopotential": true,
//     "species": [ { "name": "C", "charge": 4, "count": 64,
//                    "j1_depth": -0.35, "j1_width": 1.3, "r_core": 0.8,
//                    "nl_amplitude": 0.6, "nl_width": 0.8,
//                    "nl_rcut": 1.7 } ],
//     "ion_positions": [[0,0,0], ...] }
//
// Doubles are written with 17 significant digits, so
// parse_system_spec(serialize_system_spec(s)) == s bitwise.
#ifndef QMCXX_IO_JOB_SPEC_H
#define QMCXX_IO_JOB_SPEC_H

#include <string>
#include <vector>

#include "config/config.h"
#include "drivers/qmc_drivers.h"
#include "workloads/system_spec.h"
#include "workloads/workloads.h"

namespace qmcxx::io
{

struct JobSpec
{
  std::string name;        ///< job id (spool file stem or "stdin-N")
  Workload workload = Workload::Graphite;
  /// Path to a qmcxx-spec-v1 system file; when set it replaces the
  /// workload's committed spec ("workload" and "spec_path" are
  /// mutually exclusive).
  std::string spec_path;
  EngineVariant variant = EngineVariant::Current;
  bool dmc = false;
  /// Attach the default estimator set (g(r), S(k)) and stream its bins
  /// in the per-generation records. Chains are bitwise-identical with
  /// estimators on or off.
  bool estimators = false;
  /// Soft per-job memory budget; 0 = unlimited. The server reports a
  /// budget violation (tracked peak > budget) in the completion record.
  double mem_budget_mb = 0.0;
  DriverConfig driver;
};

/// The paper workload whose committed spec has `s` as its "name" or its
/// file stem, case-insensitive ("NiO-32" or "nio32"). Throws on anything
/// else.
[[nodiscard]] Workload workload_from_name(const std::string& s);

/// "ref" / "refmp" / "current" / "currentdp" (case-insensitive, also
/// accepts the display names "Ref+MP" etc). Throws on anything else.
[[nodiscard]] EngineVariant variant_from_name(const std::string& s);

/// "single" / "double" (case-insensitive), the job-spec "precision"
/// values. Throws on anything else.
[[nodiscard]] Precision precision_from_name(const std::string& s);

/// Parse one job-request JSON object. Throws std::runtime_error with a
/// position/key-naming message on malformed input or unknown keys.
[[nodiscard]] JobSpec parse_job_spec(const std::string& json_text, const std::string& job_name);

/// Sorted *.json paths in a directory: a server spool (skips
/// .done/.failed/...; sorted so submission order is deterministic) or
/// specs/. Throws if the directory cannot be read.
[[nodiscard]] std::vector<std::string> list_json_files(const std::string& dir);

/// Whole-file slurp. Throws std::runtime_error if unreadable.
[[nodiscard]] std::string read_text_file(const std::string& path);

/// Atomic text write (temp file + rename, the snapshot discipline): an
/// interrupt mid-write never leaves a torn file at `path`. Throws
/// std::runtime_error on I/O failure.
void write_text_file(const std::string& path, const std::string& text);

/// Parse one qmcxx-spec-v1 system file. `origin` names the source in
/// error messages (file path or job id). Throws std::runtime_error on
/// malformed input, unknown keys, or inconsistent counts (species
/// counts vs ion positions, orbitals vs electrons).
[[nodiscard]] SystemSpec parse_system_spec(const std::string& json_text,
                                           const std::string& origin);

/// Serialize to the qmcxx-spec-v1 JSON form, doubles at 17 significant
/// digits: parse_system_spec(serialize_system_spec(s), ...) == s.
[[nodiscard]] std::string serialize_system_spec(const SystemSpec& spec);

} // namespace qmcxx::io

#endif
