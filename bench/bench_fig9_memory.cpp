// Figure 9: "Memory usage on KNL processor" -- the O(N^2) memory savings
// of the Current implementation across all four benchmarks.
//
// The Ref footprint grows as gamma (Nth + Nw) N^2 from the
// store-over-compute per-walker state (5 N^2 J2 scalars + determinant
// state, held by each crowd slot and by each parked walker's buffer)
// plus the packed-triangle tables; Current eliminates
// the J2 matrices (compute-on-the-fly), halves precision, and keeps an
// O(N) electron-electron table (three rows; the others are computed on
// demand), so its dist-tables column is mostly the N x ions table.
// No MC steps are needed: the footprint is measured right after
// population setup.
#include "bench/bench_common.h"

using namespace qmcxx;

int main()
{
  bench::header("Figure 9: memory usage across the four benchmarks, Ref vs Current",
                "Mathuriya et al. SC'17, Fig. 9");

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"workload", "config", "footprint", "population", "state/walker",
                  "dist-tables", "spline", "reduction"});
  for (const PaperWorkload& row : paper_workloads)
  {
    const Workload w = row.id;
    EngineRunSpec spec;
    spec.workload = w;
    spec.driver = bench::default_config(w);
    spec.driver.steps = 0; // setup only: footprint measurement
    EngineReport rep[2];
    const EngineVariant variants[2] = {EngineVariant::Ref, EngineVariant::Current};
    for (int c = 0; c < 2; ++c)
    {
      spec.variant = variants[c];
      rep[c] = run_engine(spec);
    }
    for (int c = 0; c < 2; ++c)
    {
      const double reduction = static_cast<double>(rep[0].footprint_bytes) /
          static_cast<double>(rep[c].footprint_bytes);
      rows.push_back({workload_spec(w).name, to_string(variants[c]),
                      format_bytes(rep[c].footprint_bytes), format_bytes(rep[c].walker_bytes),
                      format_bytes(rep[c].walker_state_bytes),
                      format_bytes(rep[c].dist_table_bytes), format_bytes(rep[c].spline_bytes),
                      c == 0 ? "1.00x" : fmt(reduction, 2) + "x"});
    }
  }
  print_table(rows);

  std::printf("\npaper shape check: the absolute savings grow with N^2 (largest\n"
              "for NiO-64, paper: 36 GB); the per-walker state (state/walker)\n"
              "dominates the Ref footprint with its 5N^2 J2 matrices and is\n"
              "O(N) for the Jastrows in Current. The population column is\n"
              "what the walkers hold: positions only while they are resident\n"
              "in their crowd slots, the state as buffers once parked.\n");
  return 0;
}
