// Graphite throughput benchmark: the paper's first workload is "a
// classic throughput based benchmark which was included in the
// assessment criteria for the CORAL machines" (Sec. 4.1).
//
//   ./graphite_throughput [--seconds S] [--delay R]
//                         [--precision single|double]
//                         [--checkpoint PATH [--checkpoint-every N]]
//                         [--resume PATH]
//
// Runs VMC sampling of the 64-atom graphite supercell under Ref and
// Current engines for a fixed wall-time budget and reports the CORAL
// figure of merit: MC samples generated per second. --delay R > 1
// switches both engines to delayed (Woodbury) determinant updates with
// a rank-R window (Sec. 8.4). --precision forces both engines to the
// given compute precision (overriding the variants' single/double
// defaults), so the ratio compares layouts at equal word size. The
// checkpoint flags apply to the measured Current run: SIGINT
// checkpoints it at the next generation barrier, and --resume
// continues a saved chain bitwise-exactly.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <string>

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
  double budget_s = 3.0;
  int delay_rank = 1;
  int checkpoint_every = 0;
  std::string checkpoint_path, resume_path;
  std::optional<Precision> precision;
  for (int a = 1; a + 1 < argc; a += 2)
  {
    if (!std::strcmp(argv[a], "--seconds"))
      budget_s = std::atof(argv[a + 1]);
    if (!std::strcmp(argv[a], "--delay"))
      delay_rank = std::atoi(argv[a + 1]);
    if (!std::strcmp(argv[a], "--precision"))
      precision = io::precision_from_name(argv[a + 1]);
    if (!std::strcmp(argv[a], "--checkpoint"))
      checkpoint_path = argv[a + 1];
    if (!std::strcmp(argv[a], "--checkpoint-every"))
      checkpoint_every = std::atoi(argv[a + 1]);
    if (!std::strcmp(argv[a], "--resume"))
      resume_path = argv[a + 1];
  }
  std::signal(SIGINT, on_signal);

  std::printf("Graphite (256 electrons, 64 C ions) throughput benchmark\n");
  std::printf("time budget per engine: %.1f s, determinant update rank: %d\n\n", budget_s,
              delay_rank);

  double thpt[2] = {0, 0};
  const EngineVariant variants[2] = {EngineVariant::Ref, EngineVariant::Current};
  for (int c = 0; c < 2; ++c)
  {
    // Calibrate: one short run to estimate step cost, then fill the
    // budget.
    EngineRunSpec spec;
    spec.workload = Workload::Graphite;
    spec.variant = variants[c];
    spec.dmc = false;
    spec.driver.num_walkers = 2;
    spec.driver.steps = 1;
    spec.driver.num_threads = 1;
    spec.driver.delay_rank = delay_rank;
    spec.driver.precision.precision = precision;
    EngineReport probe = run_engine(spec);
    const double step_cost = probe.result.seconds;
    spec.driver.steps = std::max(1, static_cast<int>(budget_s / std::max(1e-3, step_cost)));
    if (variants[c] == EngineVariant::Current)
    {
      // The measured Current run is the one worth checkpointing.
      spec.driver.checkpoint_every = checkpoint_every;
      spec.driver.checkpoint_path = checkpoint_path;
      spec.driver.stop_flag = &g_stop;
      spec.resume_path = resume_path;
    }
    const EngineReport rep = run_engine(spec);
    thpt[c] = rep.result.throughput;
    std::printf("%-8s  %4d steps in %6.2f s  ->  %8.2f samples/s   E = %10.3f Ha\n",
                to_string(variants[c]), spec.driver.steps, rep.result.seconds,
                rep.result.throughput, rep.result.mean_energy);
    if (rep.result.interrupted)
    {
      std::printf("interrupted: chain checkpointed to %s at generation %d\n",
                  spec.driver.checkpoint_path.c_str(),
                  rep.result.start_generation +
                      static_cast<int>(rep.result.generations.size()));
      return 3;
    }
  }
  std::printf("\nCurrent / Ref throughput ratio: %.2fx (paper, graphite: 2.9x BDW, 2.2x KNL,\n"
              "1.6x BG/Q; this host's vector width and cache sit between those machines)\n",
              thpt[1] / thpt[0]);
  return 0;
}
catch (const std::exception& e)
{
  std::fprintf(stderr, "graphite_throughput: %s\n", e.what());
  return 1;
}
