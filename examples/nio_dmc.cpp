// NiO-32 diffusion Monte Carlo: the paper's flagship strongly-correlated
// workload (Sec. 4.1), runnable under any engine configuration.
//
//   ./nio_dmc [--variant ref|refmp|current|currentdp] [--precision single|double]
//             [--steps N] [--walkers N] [--tau T] [--threads N] [--nio64]
//             [--checkpoint PATH [--checkpoint-every N]] [--resume PATH]
//
// Prints per-generation DMC statistics (trial energy feedback,
// population), the kernel profile, and the memory footprint -- a small
// production-style run of Alg. 1. With --checkpoint, SIGINT saves a
// qmcxx-snap-v1 snapshot at the next generation barrier (exit code 3);
// --resume continues the saved chain bitwise-exactly, branching
// history included. --precision overrides the variant's compute
// precision (the variant then contributes only its layout).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>

#include "drivers/qmc_system.h"
#include "instrument/report.h"
#include "io/job_spec.h"

using namespace qmcxx;

namespace
{
std::atomic<bool> g_stop{false};
void on_signal(int) { g_stop.store(true); }
} // namespace

int main(int argc, char** argv)
try
{
  EngineRunSpec spec;
  spec.workload = Workload::NiO32;
  spec.variant = EngineVariant::Current;
  spec.dmc = true;
  spec.driver.tau = 0.02;
  spec.driver.steps = 5;
  spec.driver.num_walkers = 4;
  spec.driver.num_threads = 1;

  for (int a = 1; a < argc; ++a)
  {
    if (!std::strcmp(argv[a], "--nio64"))
      spec.workload = Workload::NiO64;
    else if (a + 1 < argc && !std::strcmp(argv[a], "--variant"))
      spec.variant = io::variant_from_name(argv[++a]);
    else if (a + 1 < argc && !std::strcmp(argv[a], "--precision"))
      spec.driver.precision.precision = io::precision_from_name(argv[++a]);
    else if (a + 1 < argc && !std::strcmp(argv[a], "--steps"))
      spec.driver.steps = std::atoi(argv[++a]);
    else if (a + 1 < argc && !std::strcmp(argv[a], "--walkers"))
      spec.driver.num_walkers = std::atoi(argv[++a]);
    else if (a + 1 < argc && !std::strcmp(argv[a], "--tau"))
      spec.driver.tau = std::atof(argv[++a]);
    else if (a + 1 < argc && !std::strcmp(argv[a], "--threads"))
      spec.driver.num_threads = std::atoi(argv[++a]);
    else if (a + 1 < argc && !std::strcmp(argv[a], "--checkpoint"))
      spec.driver.checkpoint_path = argv[++a];
    else if (a + 1 < argc && !std::strcmp(argv[a], "--checkpoint-every"))
      spec.driver.checkpoint_every = std::atoi(argv[++a]);
    else if (a + 1 < argc && !std::strcmp(argv[a], "--resume"))
      spec.resume_path = argv[++a];
  }
  spec.driver.stop_flag = &g_stop;
  std::signal(SIGINT, on_signal);

  const SystemSpec sys = workload_spec(spec.workload);
  std::printf("%s DMC, %s engine: %d electrons, %zu ions, tau = %.3f\n", sys.name.c_str(),
              to_string(spec.variant), sys.num_electrons, sys.ion_positions.size(),
              spec.driver.tau);

  const EngineReport rep = run_engine(spec);

  std::printf("\n gen   E_L (Ha)      E_T (Ha)      walkers  accept\n");
  for (std::size_t g = 0; g < rep.result.generations.size(); ++g)
  {
    const auto& s = rep.result.generations[g];
    std::printf("  %2zu  %12.4f  %12.4f  %5d    %5.1f%%\n",
                g + static_cast<std::size_t>(rep.result.start_generation), s.energy,
                s.trial_energy, s.num_walkers, 100 * s.acceptance);
  }
  if (rep.result.interrupted)
  {
    std::printf("\ninterrupted: chain checkpointed to %s at generation %d\n",
                spec.driver.checkpoint_path.c_str(),
                rep.result.start_generation + static_cast<int>(rep.result.generations.size()));
    return 3;
  }
  std::printf("\nthroughput: %.2f samples/s   footprint: %s (peak %s)\n",
              rep.result.throughput, format_bytes(rep.footprint_bytes).c_str(),
              format_bytes(rep.peak_bytes).c_str());
  print_profile("kernel profile", rep.profile);
  return 0;
}
catch (const std::exception& e)
{
  std::fprintf(stderr, "nio_dmc: %s\n", e.what());
  return 1;
}
