// Mixed precision as a runtime policy (Sec. 7.2): single- vs
// double-precision walltime on the same layout, same chain length.
//
// The paper's Ref+MP stage keeps the hot path in 32-bit while guarding
// the cofactor inverse with full-precision drift checks and periodic
// refreshes. This bench drives that policy through the runtime switch
// (driver.precision, no rebuild of the binary) on two workloads and
// reports the float-vs-double walltime ratio with the drift guard on,
// plus the guard's own telemetry (max residual, refresh count) so the
// table shows the accuracy safeguard was active during the timing.
#include "bench/bench_common.h"

using namespace qmcxx;

namespace
{

EngineReport run_with_precision(Workload w, Precision p)
{
  EngineRunSpec spec;
  spec.workload = w;
  // Soa layout for both runs; the policy supplies the word size, so the
  // measured delta is purely sizeof(TR) (Current vs CurrentDP).
  spec.variant = EngineVariant::Current;
  spec.dmc = true;
  spec.driver = bench::default_config(w);
  spec.driver.precision.precision = p;
  spec.driver.precision.drift_tolerance = 1e-3;
  spec.driver.precision.drift_sample_rows = 2;
  return run_engine(spec);
}

} // namespace

int main()
{
  bench::header("Mixed precision: single vs double walltime, drift guard on",
                "Mathuriya et al. SC'17, Sec. 7.2");

  for (Workload w : {Workload::Graphite, Workload::NiO32})
  {
    const std::string name = workload_spec(w).name;
    EngineReport reports[2];
    const Precision precisions[2] = {Precision::Single, Precision::Double};
    for (int c = 0; c < 2; ++c)
      reports[c] = run_with_precision(w, precisions[c]);
    const double speedup = reports[1].result.seconds / reports[0].result.seconds;

    std::printf("\n%s (Soa layout, drift guard on):\n", name.c_str());
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"precision", "walltime", "throughput", "footprint", "max drift residual",
                    "rows sampled", "refreshes"});
    for (int c = 0; c < 2; ++c)
    {
      const auto& r = reports[c];
      rows.push_back({to_string(precisions[c]), fmt(r.result.seconds, 3) + " s",
                      fmt(r.result.throughput, 2) + "/s", format_bytes(r.footprint_bytes),
                      fmt(r.result.max_drift_residual, 10),
                      std::to_string(r.result.total_drift_rows_sampled),
                      std::to_string(r.result.total_drift_refreshes)});
    }
    print_table(rows);
    std::printf("  single/double walltime speedup: %.2fx (paper: up to 1.5x from the\n"
                "  MP stage alone, more where the working set leaves cache)\n",
                speedup);
  }
  return 0;
}
