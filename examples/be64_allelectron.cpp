// Be-64 all-electron run: the paper's pseudopotential-free benchmark,
// chosen "because it has a similar number of electrons as the graphite
// benchmark, but as it is a lighter element, it can be performed without
// the use of pseudopotentials" (Sec. 4.1).
//
//   ./be64_allelectron [--steps N]
//
// Demonstrates that the same engine runs with the non-local channel
// absent: the profile shows no Bspline-v-dominated NLPP ratio phase, in
// contrast to the NiO workloads.
#include <cstdio>
#include <cstring>

#include "drivers/qmc_system.h"
#include "instrument/report.h"

using namespace qmcxx;

int main(int argc, char** argv)
{
  int steps = 3;
  for (int a = 1; a + 1 < argc; a += 2)
    if (!std::strcmp(argv[a], "--steps"))
      steps = std::atoi(argv[a + 1]);

  std::printf("Be-64 all-electron (N = %d, no pseudopotential)\n",
              workload_spec(Workload::Be64).num_electrons);

  for (EngineVariant v : {EngineVariant::Ref, EngineVariant::Current})
  {
    EngineRunSpec spec;
    spec.workload = Workload::Be64;
    spec.variant = v;
    spec.dmc = true;
    spec.driver.steps = steps;
    spec.driver.num_walkers = 3;
    spec.driver.num_threads = 1;
    const EngineReport rep = run_engine(spec);
    std::printf("\n%s: E = %.3f Ha, %.2f samples/s, footprint %s\n", to_string(v),
                rep.result.mean_energy, rep.result.throughput,
                format_bytes(rep.footprint_bytes).c_str());
    print_profile(to_string(v), rep.profile);
  }

  std::printf("\nNote the absent/low Bspline-v share compared to NiO: without a\n"
              "non-local pseudopotential there are no quadrature ratio\n"
              "evaluations (paper Sec. 4.1).\n");
  return 0;
}
