// Figure 8: "Speedup and memory-usage reduction of NiO benchmarks" for
// Ref, Ref+MP and Current.
//
// The paper normalizes throughput by Ref-on-BDW and reports both the
// staged speedups (Ref+MP gains more on the bandwidth-bound NiO-64;
// Current more than doubles again on top) and the memory footprints
// (down 36 GB for NiO-64, fitting KNL's 16 GB MCDRAM in flat mode).
// qmcxx runs all three engine configurations on the host and reports
// the same normalized bars plus the tracked footprints.
#include "bench/bench_common.h"

using namespace qmcxx;

int main()
{
  bench::header("Figure 8: speedup and memory usage, NiO-32 / NiO-64, three configurations",
                "Mathuriya et al. SC'17, Fig. 8");

  const EngineVariant variants[3] = {EngineVariant::Ref, EngineVariant::RefMP,
                                     EngineVariant::Current};

  for (Workload w : {Workload::NiO32, Workload::NiO64})
  {
    EngineReport reports[3];
    for (int c = 0; c < 3; ++c)
      reports[c] = bench::run(w, variants[c]);
    const double base = reports[0].result.throughput;

    std::printf("\n%s (normalized to Ref):\n", workload_spec(w).name.c_str());
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"config", "throughput", "speedup", "footprint", "peak", "population",
                    "state/walker", "dist-tables", "spline"});
    for (int c = 0; c < 3; ++c)
    {
      const auto& r = reports[c];
      rows.push_back({to_string(variants[c]), fmt(r.result.throughput, 2) + "/s",
                      fmt(r.result.throughput / base, 2) + "x",
                      format_bytes(r.footprint_bytes), format_bytes(r.peak_bytes),
                      format_bytes(r.walker_bytes), format_bytes(r.walker_state_bytes),
                      format_bytes(r.dist_table_bytes),
                      format_bytes(r.spline_bytes)});
    }
    print_table(rows);

    const double mem_reduction = static_cast<double>(reports[0].footprint_bytes) /
        static_cast<double>(reports[2].footprint_bytes);
    std::printf("  memory reduction Ref -> Current: %.2fx (paper: up to 3.8x)\n", mem_reduction);
  }

  std::printf("\npaper shape check: Ref+MP speeds up the larger, more\n"
              "bandwidth-bound NiO-64 more than NiO-32; Current more than\n"
              "doubles throughput again and collapses the footprint.\n");
  return 0;
}
