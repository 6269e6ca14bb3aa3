// Figure 2: normalized hot-spot profiles of the NiO benchmarks,
// Ref vs Current.
//
// The paper's VTune profiles show DistTable + J2 + Bspline consuming
// ~50% of the Ref run, and the Current profile (scaled by the speedup so
// bars are comparable) collapsing those kernels while DetUpdate's share
// grows (Sec. 8.4: 7% -> 10% for NiO-64). qmcxx reproduces the same
// decomposition from its built-in kernel timers.
#include "bench/bench_common.h"

using namespace qmcxx;

int main()
{
  bench::header("Figure 2: normalized hot-spot profiles (NiO-32, NiO-64)",
                "Mathuriya et al. SC'17, Fig. 2");

  for (Workload w : {Workload::NiO32, Workload::NiO64})
  {
    const EngineReport ref = bench::run(w, EngineVariant::Ref);
    const EngineReport cur = bench::run(w, EngineVariant::Current);
    const double speedup = ref.result.seconds / cur.result.seconds *
        (static_cast<double>(cur.result.total_samples) / ref.result.total_samples);
    std::printf("\n%s (Current speedup %.2fx):\n", workload_spec(w).name.c_str(), speedup);
    print_profile("Ref", ref.profile);
    // Scale the Current profile by 1/speedup, as in the paper's figure
    // ("Current version profiles accommodate the speedup").
    print_profile("Current (scaled by 1/speedup)", cur.profile, 1.0 / speedup);

    // DetUpdate share comparison (paper Sec. 8.4).
    const double det_ref = ref.profile.seconds[static_cast<int>(Kernel::DetUpdate)] /
        ref.profile.total();
    const double det_cur = cur.profile.seconds[static_cast<int>(Kernel::DetUpdate)] /
        cur.profile.total();
    std::printf("  DetUpdate share: Ref %.1f%% -> Current %.1f%% (paper NiO-64: 7%% -> 10%%)\n",
                100 * det_ref, 100 * det_cur);
  }

  // Crowd-size sweep of the batched SPO kernels: same NiO-32 Current
  // engine at growing crowd sizes. The chains are bitwise identical, so
  // the profile delta is pure kernel efficiency (BsplineVGH/BsplineV).
  std::printf("\nBatched SPO kernels, NiO-32 Current, crowd-size sweep:\n");
  std::printf("  %-6s %12s %14s %14s\n", "crowd", "run sec", "Bspline sec", "throughput");
  for (int crowd : {1, 4, 8})
  {
    EngineRunSpec spec;
    spec.workload = Workload::NiO32;
    spec.variant = EngineVariant::Current;
    spec.driver = bench::default_config(Workload::NiO32);
    spec.driver.crowd_size = crowd;
    const EngineReport rep = run_engine(spec);
    const double bspline_sec = rep.profile.seconds[static_cast<int>(Kernel::BsplineVGH)] +
        rep.profile.seconds[static_cast<int>(Kernel::BsplineV)];
    std::printf("  %-6d %12.3f %14.3f %14.1f\n", crowd, rep.result.seconds, bspline_sec,
                rep.result.throughput);
  }

  std::printf("\npaper shape check: DistTable/J2/Bspline dominate Ref; Current\n"
              "shrinks them so the relative share of DetUpdate and Other grows.\n");
  return 0;
}
