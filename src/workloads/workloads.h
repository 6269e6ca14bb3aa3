// The four benchmark workloads of the paper (Table 1), as names for
// committed spec files.
//
// Each Workload names one specs/*.json file (specs/README.md gives the
// crystal structure behind each); that file is the whole description of
// the system qmcxx builds. Beside it, paper_workloads keeps the Table 1
// columns that describe only the paper's own DFT-orbital runs. The
// orbitals and the Jastrow/pseudopotential parameters are synthetic
// stand-ins with the paper's counts, cutoffs and code paths; spline
// grids are scaled so the tables keep the paper's size ordering while
// fitting in laptop memory.
#ifndef QMCXX_WORKLOADS_WORKLOADS_H
#define QMCXX_WORKLOADS_WORKLOADS_H

#include <array>
#include <cstddef>
#include <string>

#include "workloads/system_spec.h"

namespace qmcxx
{

enum class Workload
{
  Graphite,
  Be64,
  NiO32,
  NiO64
};

/// One row of the paper's Table 1: the workload's spec file and the
/// columns no spec holds.
struct PaperWorkload
{
  Workload id;
  const char* spec_file;  ///< file name in QMCXX_SPECS_DIR
  int ions_per_unit_cell;
  int num_unit_cells;
  const char* ion_types;  ///< e.g. "Ni(18), O(6)"
  int unique_spos;
  const char* fft_grid;
  double spline_gb;
};

/// Table 1, in Workload order.
inline constexpr std::array<PaperWorkload, 4> paper_workloads = {{
    {Workload::Graphite, "graphite.json", 4, 16, "C(4)", 80, "28x28x80", 0.1},
    {Workload::Be64, "be64.json", 2, 32, "Be(4)", 81, "84x84x144", 1.4},
    {Workload::NiO32, "nio32.json", 4, 8, "Ni(18), O(6)", 144, "80x80x80", 1.3},
    {Workload::NiO64, "nio64.json", 4, 16, "Ni(18), O(6)", 240, "80x80x80", 2.1},
}};

inline const PaperWorkload& paper_workload(Workload w)
{
  return paper_workloads[static_cast<std::size_t>(w)];
}

/// QMCXX_SPECS_DIR/<spec_file> of the workload.
[[nodiscard]] std::string workload_spec_path(Workload w);

/// The workload's committed spec, parsed. Throws std::runtime_error if
/// the file is missing or malformed.
[[nodiscard]] SystemSpec workload_spec(Workload w);

} // namespace qmcxx

#endif
