// Analytic roofline counters (paper Fig. 7).
//
// The paper's roofline analysis was done with Intel Advisor; qmcxx
// substitutes analytic per-call flop/byte models for each profiled
// kernel, driven by the measured call counts and wall times from the
// TimerRegistry. Arithmetic intensity (AI = flops/bytes) and attained
// GFLOP/s then plot each kernel against the machine's rooflines exactly
// as in Fig. 7; what matters for the reproduction is the *shift* of
// every kernel up and to the right going Ref -> Current.
#ifndef QMCXX_INSTRUMENT_ROOFLINE_H
#define QMCXX_INSTRUMENT_ROOFLINE_H

#include <string>
#include <vector>

#include "config/config.h"
#include "instrument/timer.h"
#include "workloads/system_spec.h"

namespace qmcxx
{

struct KernelRoofline
{
  Kernel kernel;
  double flops = 0;          ///< total floating-point operations
  double bytes = 0;          ///< total memory traffic (model)
  double seconds = 0;        ///< measured wall time
  double arithmetic_intensity() const { return bytes > 0 ? flops / bytes : 0; }
  double gflops() const { return seconds > 0 ? flops / seconds * 1e-9 : 0; }
};

struct MachineRoofs
{
  double peak_gflops_sp;     ///< single-precision vector peak
  double peak_gflops_dp;
  double dram_gbs;           ///< stream-like bandwidth
  double cache_gbs;          ///< last-level-cache bandwidth
};

/// Estimate the host's rooflines from quick in-situ microbenchmarks
/// (fused-multiply-add loop and a streaming triad).
MachineRoofs measure_machine_roofs();

/// Per-kernel analytic flop/byte totals for a run of `totals` on the
/// given system at the given compute precision.
std::vector<KernelRoofline> build_roofline(const KernelTotals& totals, const SystemSpec& spec,
                                           Precision precision);

} // namespace qmcxx

#endif
