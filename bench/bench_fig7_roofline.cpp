// Figure 7: hot-spot profile + roofline analysis of NiO-32, Ref vs
// Current, on the BDW-class host.
//
// The paper's Advisor rooflines show every major kernel jumping up and
// to the right (higher arithmetic intensity from single precision and
// SoA layouts, higher GFLOP/s from vectorization) after the
// transformation, with all four kernels above the L3 roofline on BDW.
// qmcxx combines measured kernel times/call counts with analytic
// flop/byte models and in-situ machine roof measurements.
#include <cstring>
#include <string>

#include "bench/bench_common.h"
#include "instrument/roofline.h"
#include "instrument/stopwatch.h"
#include "wavefunction/spo_set.h"

using namespace qmcxx;

namespace
{

/// --quick: CI smoke for the crowd-batched spline kernels. Verifies
/// bitwise parity of evaluate_vgh_multi / evaluate_v_multi against the
/// per-walker scalar loop on a small grid (exit 1 on any mismatch) and
/// prints a batched-vs-scalar timing sweep over crowd sizes.
template<typename TR>
int quick_parity_and_timing(const char* label)
{
  const int grid = 12, norb = 48;
  MultiBspline3D<TR> spline;
  fill_synthetic_orbitals<TR>(spline, grid, grid, grid, norb, /*seed=*/7);

  const std::size_t stride = getAlignedSize<TR>(norb);
  const int pool = 512;
  aligned_vector<TR> ubuf(static_cast<std::size_t>(3 * pool));
  RandomGenerator rng(11);
  for (std::size_t i = 0; i < ubuf.size(); ++i)
    ubuf[i] = static_cast<TR>(rng.uniform());
  const auto* u = reinterpret_cast<const TR(*)[3]>(ubuf.data());

  std::printf("%s: batched vs scalar spline kernels (grid %d^3, %d orbitals)\n", label, grid,
              norb);
  int failures = 0;
  for (int nw : {1, 4, 8})
  {
    const std::size_t comp = static_cast<std::size_t>(nw) * stride;
    aligned_vector<TR> mb(10 * comp, TR(0)), sc(10 * comp, TR(0));
    aligned_vector<TR> vb(comp, TR(0)), vs(comp, TR(0));
    const SplineVGHMultiResult<TR> out{mb.data(),
                                       {&mb[comp], &mb[2 * comp], &mb[3 * comp]},
                                       {&mb[4 * comp], &mb[5 * comp], &mb[6 * comp],
                                        &mb[7 * comp], &mb[8 * comp], &mb[9 * comp]},
                                       stride};
    const int chunks = pool / nw;
    const Stopwatch tb;
    for (int c = 0; c < chunks; ++c)
    {
      spline.evaluate_vgh_multi(u + c * nw, nw, out);
      spline.evaluate_v_multi(u + c * nw, nw, vb.data(), stride);
    }
    const FullPrecReal batched_sec = tb.seconds();
    const Stopwatch ts;
    for (int c = 0; c < chunks; ++c)
      for (int ip = 0; ip < nw; ++ip)
      {
        const std::size_t off = static_cast<std::size_t>(ip) * stride;
        const SplineVGHResult<TR> view{&sc[off],
                                       {&sc[comp + off], &sc[2 * comp + off], &sc[3 * comp + off]},
                                       {&sc[4 * comp + off], &sc[5 * comp + off],
                                        &sc[6 * comp + off], &sc[7 * comp + off],
                                        &sc[8 * comp + off], &sc[9 * comp + off]}};
        spline.evaluate_vgh(u[c * nw + ip], view);
        spline.evaluate_v(u[c * nw + ip], vs.data() + off);
      }
    const FullPrecReal scalar_sec = ts.seconds();
    // The last chunk is still staged in both buffers: bitwise compare.
    const bool vgh_ok = std::memcmp(mb.data(), sc.data(), mb.size() * sizeof(TR)) == 0;
    const bool v_ok = std::memcmp(vb.data(), vs.data(), vb.size() * sizeof(TR)) == 0;
    if (!vgh_ok || !v_ok)
      ++failures;
    std::printf("  crowd %-3d batched %7.3f ms, scalar %7.3f ms (%.2fx)  parity: vgh %s, v %s\n",
                nw, 1e3 * batched_sec, 1e3 * scalar_sec, scalar_sec / batched_sec,
                vgh_ok ? "OK" : "MISMATCH", v_ok ? "OK" : "MISMATCH");
  }
  return failures;
}

int quick_mode()
{
  bench::header("Figure 7 --quick: batched SPO kernel parity + timing smoke",
                "CI gate for the crowd-vectorized B-spline path");
  const int failures =
      quick_parity_and_timing<float>("float") + quick_parity_and_timing<double>("double");
  std::printf("%s\n", failures ? "FAILED: batched/scalar mismatch" : "all parity checks passed");
  return failures ? 1 : 0;
}

} // namespace

int main(int argc, char** argv)
{
  if (argc > 1 && std::string(argv[1]) == "--quick")
    return quick_mode();
  bench::header("Figure 7: NiO-32 hot-spot profile and roofline, Ref vs Current",
                "Mathuriya et al. SC'17, Fig. 7");

  const MachineRoofs roofs = measure_machine_roofs();
  std::printf("host rooflines (measured in-situ):\n");
  std::printf("  SP vector peak: %.1f GFLOP/s, DP: %.1f GFLOP/s\n", roofs.peak_gflops_sp,
              roofs.peak_gflops_dp);
  std::printf("  DRAM: %.1f GB/s, cache: %.1f GB/s\n\n", roofs.dram_gbs, roofs.cache_gbs);

  const SystemSpec nio32 = workload_spec(Workload::NiO32);
  EngineReport reports[2] = {bench::run(Workload::NiO32, EngineVariant::Ref),
                             bench::run(Workload::NiO32, EngineVariant::Current)};
  const EngineVariant variants[2] = {EngineVariant::Ref, EngineVariant::Current};

  const double speedup = reports[0].result.seconds / reports[1].result.seconds *
      (static_cast<double>(reports[1].result.total_samples) / reports[0].result.total_samples);

  for (int c = 0; c < 2; ++c)
  {
    std::printf("%s profile:\n", to_string(variants[c]));
    print_profile(to_string(variants[c]), reports[c].profile,
                  c == 1 ? 1.0 / speedup : 1.0);
    const auto kernels = build_roofline(reports[c].profile, nio32, precision_of(variants[c]));
    std::vector<std::vector<std::string>> rows;
    rows.push_back({"kernel", "AI (flop/byte)", "GFLOP/s", "% of roof"});
    for (const auto& k : kernels)
    {
      if (k.seconds <= 0)
        continue;
      const double ai = k.arithmetic_intensity();
      const double roof = std::min(
          variants[c] == EngineVariant::Ref ? roofs.peak_gflops_dp : roofs.peak_gflops_sp,
          ai * roofs.dram_gbs);
      rows.push_back({kernel_name(k.kernel), fmt(ai, 2), fmt(k.gflops(), 2),
                      fmt(100 * k.gflops() / roof, 1) + "%"});
    }
    print_table(rows);
    std::printf("\n");
  }

  // Shape checks mirrored from the figure: AI and GFLOPS increase for
  // the profiled kernels going Ref -> Current.
  const auto ref_k = build_roofline(reports[0].profile, nio32, Precision::Double);
  const auto cur_k = build_roofline(reports[1].profile, nio32, Precision::Single);
  std::printf("Ref -> Current movement (paper: 'large jump in both AI and FLOPS'):\n");
  for (std::size_t i = 0; i < ref_k.size(); ++i)
  {
    if (ref_k[i].seconds <= 0 || cur_k[i].seconds <= 0)
      continue;
    std::printf("  %-11s AI %5.2f -> %5.2f   GFLOP/s %6.2f -> %6.2f\n",
                kernel_name(ref_k[i].kernel), ref_k[i].arithmetic_intensity(),
                cur_k[i].arithmetic_intensity(), ref_k[i].gflops(), cur_k[i].gflops());
  }
  return 0;
}
