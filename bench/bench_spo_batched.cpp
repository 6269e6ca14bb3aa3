// Batched multi-walker B-spline kernel A/B (PR 8): crowd-vectorized
// evaluate_vgh_multi / evaluate_v_multi against the per-walker scalar
// loop they replace, on the NiO-32-sized orbital set (192 orbitals,
// 28x28x16 grid) over crowd sizes 1..16.
//
// The batched vgh kernel touches the 10 output accumulator slices once
// per (i,j) coefficient line (16 read-modify-write passes) instead of
// once per (i,j,k) stencil point (64 passes), prefetches the next line,
// and blocks the padded spline dimension; the arithmetic is bitwise
// identical (tests/test_bspline3d.cpp, tests/test_spo_set.cpp).
#include <algorithm>

#include "bench/bench_common.h"
#include "instrument/stopwatch.h"
#include "wavefunction/spo_set.h"

using namespace qmcxx;

namespace
{

constexpr int kNorb = 192; // NiO-32 per-spin orbital count
constexpr int kPool = 4096; // positions per measurement
constexpr int kReps = 3;    // best-of repetitions

template<typename TR>
struct VghBuffers
{
  explicit VghBuffers(std::size_t comp)
      : store(10 * comp), out{store.data(),
                              {&store[comp], &store[2 * comp], &store[3 * comp]},
                              {&store[4 * comp], &store[5 * comp], &store[6 * comp],
                               &store[7 * comp], &store[8 * comp], &store[9 * comp]},
                              getAlignedSize<TR>(kNorb)}
  {
  }
  aligned_vector<TR> store;
  SplineVGHMultiResult<TR> out;

  /// Per-position scalar view at position ip within the same staging.
  [[nodiscard]] SplineVGHResult<TR> at(int ip) const
  {
    const std::size_t off = static_cast<std::size_t>(ip) * out.pos_stride;
    return {out.v + off,
            {out.g[0] + off, out.g[1] + off, out.g[2] + off},
            {out.h[0] + off, out.h[1] + off, out.h[2] + off, out.h[3] + off, out.h[4] + off,
             out.h[5] + off}};
  }
};

/// Best-of-kReps wall time for fn() sweeping the whole position pool.
template<typename Fn>
double best_seconds(Fn&& fn)
{
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep)
  {
    const Stopwatch sw;
    fn();
    best = std::min(best, sw.seconds());
  }
  return best;
}

template<typename TR>
void run_precision(const char* variant)
{
  const SystemSpec info = workload_spec(Workload::NiO32);
  MultiBspline3D<TR> spline;
  fill_synthetic_orbitals<TR>(spline, info.grid[0], info.grid[1], info.grid[2], kNorb,
                              /*seed=*/3);

  aligned_vector<TR> ubuf(static_cast<std::size_t>(3 * kPool));
  RandomGenerator rng(5);
  for (std::size_t i = 0; i < ubuf.size(); ++i)
    ubuf[i] = static_cast<TR>(rng.uniform());
  const auto* u = reinterpret_cast<const TR(*)[3]>(ubuf.data());

  const std::size_t stride = getAlignedSize<TR>(kNorb);
  std::printf("%s (%d orbitals, grid %dx%dx%d, %d positions/measurement):\n", variant, kNorb,
              info.grid[0], info.grid[1], info.grid[2], kPool);
  std::printf("  %-6s %14s %14s %9s %14s %14s %9s\n", "crowd", "vgh batch us", "vgh loop us",
              "speedup", "v batch us", "v loop us", "speedup");

  for (int nw : {1, 2, 4, 8, 16})
  {
    VghBuffers<TR> bufs(static_cast<std::size_t>(nw) * stride);
    aligned_vector<TR> vals(static_cast<std::size_t>(nw) * stride);
    const int chunks = kPool / nw;

    const FullPrecReal vgh_batched = best_seconds([&] {
      for (int c = 0; c < chunks; ++c)
        spline.evaluate_vgh_multi(u + c * nw, nw, bufs.out);
    });
    const FullPrecReal vgh_scalar = best_seconds([&] {
      for (int c = 0; c < chunks; ++c)
        for (int ip = 0; ip < nw; ++ip)
        {
          const SplineVGHResult<TR> view = bufs.at(ip);
          spline.evaluate_vgh(u[c * nw + ip], view);
        }
    });
    const FullPrecReal v_batched = best_seconds([&] {
      for (int c = 0; c < chunks; ++c)
        spline.evaluate_v_multi(u + c * nw, nw, vals.data(), stride);
    });
    const FullPrecReal v_scalar = best_seconds([&] {
      for (int c = 0; c < chunks; ++c)
        for (int ip = 0; ip < nw; ++ip)
          spline.evaluate_v(u[c * nw + ip], vals.data() + ip * stride);
    });

    const int npos = chunks * nw;
    const FullPrecReal us = 1e6 / npos;
    std::printf("  %-6d %14.3f %14.3f %8.2fx %14.3f %14.3f %8.2fx\n", nw, vgh_batched * us,
                vgh_scalar * us, vgh_scalar / vgh_batched, v_batched * us, v_scalar * us,
                v_scalar / v_batched);
  }
  std::printf("\n");
}

} // namespace

int main()
{
  bench::header("Batched SPO kernels: crowd-vectorized B-spline vgh/v vs per-walker loop",
                "Mathuriya et al. SC'17, Sec. 5.2 (threading over walkers) extension");
  run_precision<float>("Current");
  run_precision<double>("CurrentDP");
  return 0;
}
