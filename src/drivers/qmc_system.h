// Type-erased engine runner: one call runs a benchmark workload under a
// named engine configuration (Ref / Ref+MP / Current) and returns the
// figures of merit the paper reports -- throughput, hot-spot profile,
// memory footprint -- alongside the physics statistics.
#ifndef QMCXX_DRIVERS_QMC_SYSTEM_H
#define QMCXX_DRIVERS_QMC_SYSTEM_H

#include <cstddef>
#include <string>

#include "config/config.h"
#include "drivers/qmc_drivers.h"
#include "instrument/timer.h"
#include "workloads/workloads.h"

namespace qmcxx
{

struct EngineReport
{
  RunResult result;
  KernelTotals profile;          ///< hot-spot decomposition of the run
  std::size_t footprint_bytes = 0; ///< tracked allocations after setup
  std::size_t peak_bytes = 0;      ///< high-water mark during the run
  std::size_t spline_bytes = 0;    ///< read-only orbital table
  /// What the set-up population holds: every walker's record,
  /// positions and buffer. A resident walker has no buffer.
  std::size_t walker_bytes = 0;
  /// Per-walker wavefunction state: the buffer layout the
  /// wavefunction registers, which a parked walker or a snapshot
  /// carries (the per-walker memory of paper Fig. 4).
  std::size_t walker_state_bytes = 0;
  std::size_t dist_table_bytes = 0;
  double build_seconds = 0.0;
};

struct EngineRunSpec
{
  /// Paper workload whose committed spec file (workloads.h) is the
  /// system, unless spec_path is set.
  Workload workload = Workload::NiO32;
  /// Path to a qmcxx-spec-v1 system file; when non-empty it replaces
  /// the workload's committed spec as the system source.
  std::string spec_path;
  /// Engine configuration alias. Since precision became a runtime
  /// policy, the variant contributes its layout half unconditionally
  /// and its precision half only as the default: an explicit
  /// driver.precision.precision overrides it.
  EngineVariant variant = EngineVariant::Current;
  DriverConfig driver;
  bool dmc = true; ///< DMC (Alg. 1) vs VMC sampling
  /// Attach the default estimator set (g(r) + S(k), src/estimators/).
  /// Estimator accumulation never touches the Markov chain; off by
  /// default so benchmark timings stay estimator-free.
  bool estimators = false;
  /// Resume from a qmcxx-snap-v1 file instead of initializing a fresh
  /// population. The snapshot must match this spec's workload, variant,
  /// delay_rank and spec contents (fingerprint), seed, tau, and
  /// precision; the run then continues at the snapshot's generation
  /// counter.
  std::string resume_path;
};

/// Build the system for the requested variant, run it, and collect the
/// report. Timer and memory-tracker state is reset around the run.
EngineReport run_engine(const EngineRunSpec& spec);

} // namespace qmcxx

#endif
