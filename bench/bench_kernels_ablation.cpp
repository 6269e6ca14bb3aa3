// Kernel-level ablation benchmarks (google-benchmark): isolates each
// design choice the paper stacks up -- AoS vs SoA layout, double vs
// single precision, packed-triangle vs full-row update policies, rank-1
// vs delayed inverse updates -- on the NiO-32-sized kernels.
//
// These are the "miniapp" style measurements of Sec. 7.1 that predicted
// the full-application gains.
#include <benchmark/benchmark.h>

#include "drivers/crowd.h"
#include "numerics/linalg.h"
#include "numerics/rng.h"
#include "numerics/spline_builder.h"
#include "particle/distance_table_aos.h"
#include "particle/distance_table_soa.h"
#include "wavefunction/delayed_update.h"
#include "wavefunction/jastrow_two_body.h"
#include "wavefunction/spo_set.h"
#include "workloads/system_builder.h"
#include "workloads/workloads.h"

using namespace qmcxx;

namespace
{

constexpr int kN = 384;    // NiO-32 electron count
constexpr int kNorb = 192; // per-spin orbitals
constexpr int kGrid = 16;

template<typename TR>
std::unique_ptr<ParticleSet<TR>> make_elec(bool soa, DTUpdateMode mode = DTUpdateMode::OnTheFly)
{
  auto p = std::make_unique<ParticleSet<TR>>("e", Lattice::cubic(15.78));
  p->add_species("u", -1.0);
  p->add_species("d", -1.0);
  p->create({kN / 2, kN / 2});
  RandomGenerator rng(11);
  for (int i = 0; i < kN; ++i)
    p->set_pos(i, p->lattice().to_cart({rng.uniform(), rng.uniform(), rng.uniform()}));
  if (soa)
    p->add_table(std::make_unique<SoaDistanceTableAA<TR>>(p->lattice(), kN, mode));
  else
    p->add_table(std::make_unique<AosDistanceTableAA<TR>>(p->lattice(), kN));
  p->update();
  return p;
}

template<typename TR, bool SOA>
void bm_disttable_move(benchmark::State& state)
{
  auto p = make_elec<TR>(SOA);
  int k = 0;
  for (auto _ : state)
  {
    p->prepare_move(k);
    p->make_move(k, p->pos(k) + TinyVector<double, 3>{0.1, -0.1, 0.05});
    p->reject_move(k);
    k = (k + 1) % kN;
  }
  state.SetItemsProcessed(state.iterations() * kN);
}

template<typename TR, bool SOA>
void bm_j2_ratio_grad(benchmark::State& state)
{
  auto p = make_elec<TR>(SOA);
  auto functor = std::make_shared<CubicBsplineFunctor<TR>>(
      build_bspline_functor<TR>(ee_jastrow_shape(-0.5, 7.8), -0.5, 7.8, 10));
  std::unique_ptr<TwoBodyJastrowBase<TR>> j2;
  if constexpr (SOA)
    j2 = std::make_unique<TwoBodyJastrowCurrent<TR>>(kN, 2, 0);
  else
    j2 = std::make_unique<TwoBodyJastrowRef<TR>>(kN, 2, 0);
  j2->add_functor(0, 0, functor);
  j2->add_functor(1, 1, functor);
  j2->add_functor(0, 1, functor);
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  j2->evaluate_log(*p, g, l);
  int k = 0;
  for (auto _ : state)
  {
    p->prepare_move(k);
    p->make_move(k, p->pos(k) + TinyVector<double, 3>{0.1, -0.1, 0.05});
    TinyVector<double, 3> grad{};
    benchmark::DoNotOptimize(j2->ratio_grad(*p, k, grad));
    j2->reject_move(k);
    p->reject_move(k);
    k = (k + 1) % kN;
  }
  state.SetItemsProcessed(state.iterations() * kN);
}

template<typename TR, bool SOA>
void bm_bspline_vgh(benchmark::State& state)
{
  const Lattice lat = Lattice::cubic(15.78);
  std::shared_ptr<SPOSet<TR>> spos;
  if constexpr (SOA)
  {
    auto backend = std::make_shared<MultiBspline3D<TR>>();
    fill_synthetic_orbitals<TR>(*backend, kGrid, kGrid, kGrid, kNorb, 3);
    spos = std::make_shared<BsplineSPOSetSoA<TR>>(lat, backend);
  }
  else
  {
    auto backend = std::make_shared<BsplineSetAoS<TR>>();
    fill_synthetic_orbitals<TR>(*backend, kGrid, kGrid, kGrid, kNorb, 3);
    spos = std::make_shared<BsplineSPOSetAoS<TR>>(lat, backend);
  }
  const std::size_t np = getAlignedSize<TR>(kNorb);
  aligned_vector<TR> psi(np), d2psi(np);
  VectorSoaContainer<TR, 3> dpsi(kNorb);
  RandomGenerator rng(5);
  for (auto _ : state)
  {
    const TinyVector<double, 3> r{rng.uniform(0, 15.78), rng.uniform(0, 15.78),
                                  rng.uniform(0, 15.78)};
    spos->evaluate_vgl(r, psi.data(), dpsi, d2psi.data());
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetItemsProcessed(state.iterations() * kNorb);
}

template<typename TR, bool SOA>
void bm_bspline_v(benchmark::State& state)
{
  const Lattice lat = Lattice::cubic(15.78);
  std::shared_ptr<SPOSet<TR>> spos;
  if constexpr (SOA)
  {
    auto backend = std::make_shared<MultiBspline3D<TR>>();
    fill_synthetic_orbitals<TR>(*backend, kGrid, kGrid, kGrid, kNorb, 3);
    spos = std::make_shared<BsplineSPOSetSoA<TR>>(lat, backend);
  }
  else
  {
    auto backend = std::make_shared<BsplineSetAoS<TR>>();
    fill_synthetic_orbitals<TR>(*backend, kGrid, kGrid, kGrid, kNorb, 3);
    spos = std::make_shared<BsplineSPOSetAoS<TR>>(lat, backend);
  }
  aligned_vector<TR> psi(getAlignedSize<TR>(kNorb));
  RandomGenerator rng(5);
  for (auto _ : state)
  {
    const TinyVector<double, 3> r{rng.uniform(0, 15.78), rng.uniform(0, 15.78),
                                  rng.uniform(0, 15.78)};
    spos->evaluate_v(r, psi.data());
    benchmark::DoNotOptimize(psi.data());
  }
  state.SetItemsProcessed(state.iterations() * kNorb);
}

template<typename TR>
void bm_bspline_vgh_tiled(benchmark::State& state)
{
  // AoSoA tiling (paper Sec. 8.4 extension): tile width from the arg.
  const int tile = static_cast<int>(state.range(0));
  MultiBsplineTiled<TR> tiled;
  tiled.resize(kGrid, kGrid, kGrid, kNorb, tile);
  {
    MultiBspline3D<TR> tmp; // reuse the synthetic generator, then copy
    fill_synthetic_orbitals<TR>(tmp, kGrid, kGrid, kGrid, kNorb, 3);
    for (int s = 0; s < kNorb; ++s)
      for (int ix = 0; ix < kGrid; ++ix)
        for (int iy = 0; iy < kGrid; ++iy)
          for (int iz = 0; iz < kGrid; ++iz)
            tiled.set_coef(s, ix, iy, iz, tmp.get_coef(s, ix, iy, iz));
  }
  const std::size_t np = getAlignedSize<TR>(kNorb);
  aligned_vector<TR> v(np), g(3 * np), h(6 * np);
  SplineVGHResult<TR> out{v.data(),
                          {&g[0], &g[np], &g[2 * np]},
                          {&h[0], &h[np], &h[2 * np], &h[3 * np], &h[4 * np], &h[5 * np]}};
  RandomGenerator rng(5);
  for (auto _ : state)
  {
    const TR u[3] = {static_cast<TR>(rng.uniform()), static_cast<TR>(rng.uniform()),
                     static_cast<TR>(rng.uniform())};
    tiled.evaluate_vgh(u, out);
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * kNorb);
}

template<typename TR>
void bm_sherman_morrison(benchmark::State& state)
{
  const int n = static_cast<int>(state.range(0));
  RandomGenerator rng(7);
  Matrix<TR> m(n, n, true);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      m(i, j) = static_cast<TR>(rng.uniform(-1, 1));
  aligned_vector<TR> v(getAlignedSize<TR>(n)), work(getAlignedSize<TR>(n)),
      rcopy(getAlignedSize<TR>(n));
  for (int j = 0; j < n; ++j)
    v[j] = static_cast<TR>(rng.uniform(-1, 1));
  int k = 0;
  for (auto _ : state)
  {
    // gemv + ger pair, as in DiracDeterminant::sherman_morrison_row_update
    for (int j = 0; j < n; ++j)
      work[j] = linalg::dot_n(m.row(j), v.data(), static_cast<std::size_t>(n));
    const TR c = TR(1) / (work[k] + TR(2));
    for (int j = 0; j < n; ++j)
      rcopy[j] = m.row(k)[j];
    for (int j = 0; j < n; ++j)
    {
      const TR coef = work[j] * c;
      TR* __restrict mj = m.row(j);
#pragma omp simd
      for (int l = 0; l < n; ++l)
        mj[l] -= coef * rcopy[l];
    }
    benchmark::DoNotOptimize(m.data());
    k = (k + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}

/// Crowd-size ablation on the Graphite workload: one full-wavefunction
/// ratio_grad per walker per iteration, either through the batched
/// mw_ratio_grad path (shared SPO batch, single dispatch per component)
/// or the scalar per-walker loop it replaces. Compare items/sec at the
/// same crowd size; crowd 1 measures the batched path's overhead floor.
template<bool BATCHED>
void bm_crowd_ratio_grad(benchmark::State& state)
{
  const int nw = static_cast<int>(state.range(0));
  BuildOptions opt;
  opt.with_hamiltonian = false;
  auto sys = build_system<float>(workload_spec(Workload::Graphite), opt);

  Crowd<float> crowd(*sys.elec, *sys.twf, nullptr, nw);
  std::vector<std::unique_ptr<Walker>> walkers;
  std::vector<RandomGenerator> rngs;
  RandomGenerator init_rng(13);
  for (int iw = 0; iw < nw; ++iw)
  {
    auto w = std::make_unique<Walker>(sys.elec->size());
    for (int i = 0; i < sys.elec->size(); ++i)
      w->R[i] = sys.elec->pos(i) +
          TinyVector<double, 3>{0.1 * init_rng.gaussian(), 0.1 * init_rng.gaussian(),
                                0.1 * init_rng.gaussian()};
    walkers.push_back(std::move(w));
    rngs.emplace_back(500 + iw);
  }
  crowd.acquire(walkers.data(), rngs.data(), nw, /*recompute=*/true);

  const int nel = sys.elec->size();
  std::vector<TinyVector<double, 3>> rnew(nw);
  std::vector<char> reject_all(nw, 0);
  int k = 0;
  for (auto _ : state)
  {
    ParticleSet<float>::mw_prepare_move(crowd.p_refs(), k);
    for (int iw = 0; iw < nw; ++iw)
      rnew[iw] = crowd.elec(iw).pos(k) + TinyVector<double, 3>{0.1, -0.1, 0.05};
    ParticleSet<float>::mw_make_move(crowd.p_refs(), k, rnew);
    if constexpr (BATCHED)
    {
      TrialWaveFunction<float>::mw_ratio_grad(crowd.twf_refs(), crowd.p_refs(), k, crowd.ratios,
                                              crowd.grads, crowd.resources());
      benchmark::DoNotOptimize(crowd.ratios.data());
      TrialWaveFunction<float>::mw_accept_reject(crowd.twf_refs(), crowd.p_refs(), k, reject_all,
                                                 crowd.resources());
    }
    else
    {
      for (int iw = 0; iw < nw; ++iw)
      {
        TinyVector<double, 3> grad{};
        benchmark::DoNotOptimize(crowd.twf(iw).calc_ratio_grad(crowd.elec(iw), k, grad));
        crowd.twf(iw).reject_move(crowd.elec(iw), k);
      }
    }
    k = (k + 1) % nel;
  }
  state.SetItemsProcessed(state.iterations() * nw);
}

void bm_forward_vs_onthefly(benchmark::State& state)
{
  const auto mode = state.range(0) == 0 ? DTUpdateMode::ForwardUpdate : DTUpdateMode::OnTheFly;
  auto p = make_elec<float>(true, mode);
  int k = 0;
  for (auto _ : state)
  {
    p->prepare_move(k);
    p->make_move(k, p->pos(k) + TinyVector<double, 3>{0.05, -0.05, 0.02});
    p->accept_move(k);
    k = (k + 1) % kN;
  }
  state.SetItemsProcessed(state.iterations());
}

} // namespace

BENCHMARK_TEMPLATE(bm_disttable_move, double, false)->Name("DistTable/move/AoS-double");
BENCHMARK_TEMPLATE(bm_disttable_move, float, false)->Name("DistTable/move/AoS-float");
BENCHMARK_TEMPLATE(bm_disttable_move, double, true)->Name("DistTable/move/SoA-double");
BENCHMARK_TEMPLATE(bm_disttable_move, float, true)->Name("DistTable/move/SoA-float");
BENCHMARK_TEMPLATE(bm_j2_ratio_grad, double, false)->Name("J2/ratio_grad/AoS-double");
BENCHMARK_TEMPLATE(bm_j2_ratio_grad, float, true)->Name("J2/ratio_grad/SoA-float");
BENCHMARK_TEMPLATE(bm_bspline_v, double, false)->Name("Bspline-v/AoS-double");
BENCHMARK_TEMPLATE(bm_bspline_v, float, true)->Name("Bspline-v/SoA-float");
BENCHMARK_TEMPLATE(bm_bspline_vgh, double, false)->Name("Bspline-vgh/AoS-double");
BENCHMARK_TEMPLATE(bm_bspline_vgh, float, false)->Name("Bspline-vgh/AoS-float");
BENCHMARK_TEMPLATE(bm_bspline_vgh, double, true)->Name("Bspline-vgh/SoA-double");
BENCHMARK_TEMPLATE(bm_bspline_vgh, float, true)->Name("Bspline-vgh/SoA-float");
BENCHMARK_TEMPLATE(bm_bspline_vgh_tiled, float)
    ->Name("Bspline-vgh/AoSoA-tiled-float")
    ->Arg(16)
    ->Arg(32)
    ->Arg(64);
BENCHMARK_TEMPLATE(bm_sherman_morrison, double)->Name("DetUpdate/SM-double")->Arg(192);
BENCHMARK_TEMPLATE(bm_sherman_morrison, float)->Name("DetUpdate/SM-float")->Arg(192);
BENCHMARK(bm_forward_vs_onthefly)
    ->Name("DistTable/accept/forward-vs-onthefly")
    ->Arg(0)
    ->Arg(1);
BENCHMARK_TEMPLATE(bm_crowd_ratio_grad, false)
    ->Name("Crowd/ratio_grad/scalar-loop")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8);
BENCHMARK_TEMPLATE(bm_crowd_ratio_grad, true)
    ->Name("Crowd/ratio_grad/mw-batched")
    ->Arg(1)
    ->Arg(4)
    ->Arg(8);

BENCHMARK_MAIN();
