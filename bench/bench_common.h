// Shared helpers for the figure/table reproduction binaries.
//
// Every bench runs a short but representative DMC (or VMC) segment of
// the paper's workloads on this host and prints its table; the repo
// benchmark (benchmark/) is the repeated, paired measurement.
#ifndef QMCXX_BENCH_BENCH_COMMON_H
#define QMCXX_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <string>

#include "drivers/qmc_system.h"
#include "instrument/report.h"

namespace qmcxx::bench
{

/// Standard short-run driver settings per workload: big systems get
/// fewer walkers/steps so every bench binary finishes in seconds.
inline DriverConfig default_config(Workload w)
{
  DriverConfig cfg;
  cfg.tau = 0.02;
  cfg.seed = 20170708;
  cfg.num_threads = 1;
  cfg.recompute_period = 8;
  const bool big = (w == Workload::NiO64);
  cfg.num_walkers = big ? 2 : 3;
  cfg.steps = big ? 2 : 3;
  cfg.warmup_steps = 0;
  return cfg;
}

inline EngineReport run(Workload w, EngineVariant v, bool dmc = true)
{
  EngineRunSpec spec;
  spec.workload = w;
  spec.variant = v;
  spec.dmc = dmc;
  spec.driver = default_config(w);
  return run_engine(spec);
}

inline void header(const std::string& title, const std::string& paper_ref)
{
  std::printf("================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

} // namespace qmcxx::bench

#endif
