#include "instrument/roofline.h"

#include <chrono>
#include <cmath>

#include "containers/aligned_allocator.h"

namespace qmcxx
{
namespace
{

double seconds_since(std::chrono::steady_clock::time_point t0)
{
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

} // namespace

MachineRoofs measure_machine_roofs()
{
  MachineRoofs roofs{};

  // FMA peak: dependent-chain-free multiply-add sweep over a small array.
  {
    constexpr int n = 4096;
    aligned_vector<float> a(n, 1.0001f), b(n, 0.9999f), c(n, 0.5f);
    const int reps = 2000;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r)
    {
      float* __restrict pa = a.data();
      const float* __restrict pb = b.data();
      const float* __restrict pc = c.data();
#pragma omp simd
      for (int i = 0; i < n; ++i)
        pa[i] = pa[i] * pb[i] + pc[i];
    }
    const double secs = seconds_since(t0);
    roofs.peak_gflops_sp = 2.0 * n * reps / secs * 1e-9;
    roofs.peak_gflops_dp = roofs.peak_gflops_sp / 2.0; // half vector width
  }

  // DRAM bandwidth: triad over an array far larger than LLC.
  {
    const std::size_t n = 8u << 20; // 32 MB per float array
    aligned_vector<float> a(n, 1.0f), b(n, 2.0f), c(n, 3.0f);
    const auto t0 = std::chrono::steady_clock::now();
    const int reps = 3;
    for (int r = 0; r < reps; ++r)
    {
      float* __restrict pa = a.data();
      const float* __restrict pb = b.data();
      const float* __restrict pc = c.data();
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i)
        pa[i] = pb[i] + 1.5f * pc[i];
    }
    const double secs = seconds_since(t0);
    roofs.dram_gbs = 3.0 * n * sizeof(float) * reps / secs * 1e-9;
  }

  // Cache bandwidth: same triad within a 256 KB working set.
  {
    const std::size_t n = 16u << 10; // 64 KB per float array
    aligned_vector<float> a(n, 1.0f), b(n, 2.0f), c(n, 3.0f);
    const auto t0 = std::chrono::steady_clock::now();
    const int reps = 20000;
    for (int r = 0; r < reps; ++r)
    {
      float* __restrict pa = a.data();
      const float* __restrict pb = b.data();
      const float* __restrict pc = c.data();
#pragma omp simd
      for (std::size_t i = 0; i < n; ++i)
        pa[i] = pb[i] + 1.5f * pc[i];
    }
    const double secs = seconds_since(t0);
    roofs.cache_gbs = 3.0 * n * sizeof(float) * reps / secs * 1e-9;
  }
  return roofs;
}

std::vector<KernelRoofline> build_roofline(const KernelTotals& totals, const SystemSpec& spec,
                                           Precision precision)
{
  const double n = spec.num_electrons;
  const double nion = static_cast<double>(spec.ion_positions.size());
  const double norb = spec.num_orbitals;
  const double sz = precision_bytes(precision);

  // Per-call analytic models. A "call" is one timer scope: a distance
  // row, one functor row, one spline evaluation, one inverse update.
  struct Model
  {
    Kernel k;
    double flops_per_call;
    double bytes_per_call;
  };
  const std::vector<Model> models = {
      // wrap + square + sqrt per source, 3 reads + 4 writes per source
      {Kernel::DistTable, 11.0 * n, 7.0 * n * sz},
      {Kernel::J1, 22.0 * nion, 8.0 * nion * sz},
      {Kernel::J2, 22.0 * n, 8.0 * n * sz},
      // 64-point stencil, 1 fma per coefficient (v) or 10 (vgh)
      {Kernel::BsplineV, 2.0 * 64.0 * norb, 64.0 * norb * sz + norb * sz},
      {Kernel::BsplineVGH, 20.0 * 64.0 * norb, 64.0 * norb * sz + 10.0 * norb * sz},
      {Kernel::SPOvgl, 30.0 * norb, 14.0 * norb * sz},
      {Kernel::DetRatio, 8.0 * norb, 4.0 * norb * sz},
      // gemv + ger (Sherman-Morrison)
      {Kernel::DetUpdate, 4.0 * norb * norb, 3.0 * norb * norb * sz},
  };

  std::vector<KernelRoofline> out;
  for (const auto& m : models)
  {
    const int idx = static_cast<int>(m.k);
    KernelRoofline kr;
    kr.kernel = m.k;
    kr.seconds = totals.seconds[idx];
    kr.flops = m.flops_per_call * static_cast<double>(totals.calls[idx]);
    kr.bytes = m.bytes_per_call * static_cast<double>(totals.calls[idx]);
    out.push_back(kr);
  }
  return out;
}

} // namespace qmcxx
