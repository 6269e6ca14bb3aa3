// Unit tests: periodic 3D multi-B-splines -- interpolation accuracy,
// SoA/AoS layout equivalence, derivative correctness and the periodic
// prefilter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "numerics/bspline3d.h"

using namespace qmcxx;

namespace
{

/// Sample f(u) = cos(2 pi (k . u)) on the grid for the given k.
std::vector<double> plane_wave_samples(int nx, int ny, int nz, int kx, int ky, int kz)
{
  std::vector<double> f(static_cast<std::size_t>(nx) * ny * nz);
  std::size_t idx = 0;
  for (int ix = 0; ix < nx; ++ix)
    for (int iy = 0; iy < ny; ++iy)
      for (int iz = 0; iz < nz; ++iz)
        f[idx++] = std::cos(2 * M_PI *
                            (kx * static_cast<double>(ix) / nx + ky * static_cast<double>(iy) / ny +
                             kz * static_cast<double>(iz) / nz));
  return f;
}

} // namespace

TEST(PeriodicPrefilter, ReproducesSamplesAtGridPoints)
{
  // 1D check: after prefiltering, (c[i-1] + 4 c[i] + c[i+1])/6 == f[i].
  const int n = 16;
  std::vector<double> f(n), c(n);
  for (int i = 0; i < n; ++i)
    f[i] = std::sin(2 * M_PI * i / n) + 0.3 * std::cos(4 * M_PI * i / n);
  c = f;
  solve_periodic_spline(c.data(), n, 1);
  for (int i = 0; i < n; ++i)
  {
    const double v = (c[(i + n - 1) % n] + 4 * c[i] + c[(i + 1) % n]) / 6.0;
    EXPECT_NEAR(v, f[i], 1e-12) << i;
  }
}

TEST(PeriodicPrefilter, SmallSizesThrow)
{
  std::vector<double> d(2, 1.0);
  EXPECT_THROW(solve_periodic_spline(d.data(), 2, 1), std::invalid_argument);
}

TEST(MultiBspline3D, InterpolatesPlaneWaveAtGridPoints)
{
  const int n = 12;
  MultiBspline3D<double> spline;
  spline.resize(n, n, n, 1);
  std::vector<std::vector<double>> samples{plane_wave_samples(n, n, n, 1, 2, 0)};
  fit_splines_periodic<double>(spline, n, n, n, samples);

  aligned_vector<double> v(getAlignedSize<double>(1));
  for (int ix = 0; ix < n; ix += 3)
    for (int iy = 0; iy < n; iy += 3)
    {
      const double u[3] = {static_cast<double>(ix) / n, static_cast<double>(iy) / n, 0.25};
      spline.evaluate_v(u, v.data());
      const double expect = std::cos(2 * M_PI * (1.0 * ix / n + 2.0 * iy / n));
      EXPECT_NEAR(v[0], expect, 5e-3);
    }
}

TEST(MultiBspline3D, AccuracyImprovesWithResolution)
{
  auto max_err = [](int n) {
    MultiBspline3D<double> spline;
    spline.resize(n, n, n, 1);
    std::vector<std::vector<double>> samples{plane_wave_samples(n, n, n, 1, 1, 1)};
    fit_splines_periodic<double>(spline, n, n, n, samples);
    double err = 0;
    aligned_vector<double> v(getAlignedSize<double>(1));
    for (double x : {0.13, 0.41, 0.77})
      for (double y : {0.29, 0.63})
      {
        const double u[3] = {x, y, 0.555};
        spline.evaluate_v(u, v.data());
        err = std::max(err, std::abs(v[0] - std::cos(2 * M_PI * (x + y + 0.555))));
      }
    return err;
  };
  const double e8 = max_err(8);
  const double e16 = max_err(16);
  // Cubic interpolation: error should fall by roughly 2^4.
  EXPECT_LT(e16, e8 / 8.0);
}

TEST(MultiBspline3D, SoAandAoSLayoutsAgree)
{
  const int n = 10;
  const int ns = 7;
  std::vector<std::vector<double>> samples;
  for (int s = 0; s < ns; ++s)
    samples.push_back(plane_wave_samples(n, n, n, 1 + s % 2, s % 3, 1));

  MultiBspline3D<double> soa;
  soa.resize(n, n, n, ns);
  fit_splines_periodic<double>(soa, n, n, n, samples);
  BsplineSetAoS<double> aos;
  aos.resize(n, n, n, ns);
  fit_splines_periodic<double>(aos, n, n, n, samples);

  aligned_vector<double> v_soa(getAlignedSize<double>(ns)), v_aos(ns);
  const double u[3] = {0.321, 0.654, 0.987};
  soa.evaluate_v(u, v_soa.data());
  aos.evaluate_v(u, v_aos.data());
  for (int s = 0; s < ns; ++s)
    EXPECT_NEAR(v_soa[s], v_aos[s], 1e-13) << s;

  // vgh agreement
  const std::size_t np = getAlignedSize<double>(ns);
  aligned_vector<double> vs(np), g0(np), g1(np), g2(np), h0(np), h1(np), h2(np), h3(np), h4(np),
      h5(np);
  aligned_vector<double> vs2(np), g0b(np), g1b(np), g2b(np), h0b(np), h1b(np), h2b(np), h3b(np),
      h4b(np), h5b(np);
  SplineVGHResult<double> ra{vs.data(),
                             {g0.data(), g1.data(), g2.data()},
                             {h0.data(), h1.data(), h2.data(), h3.data(), h4.data(), h5.data()}};
  SplineVGHResult<double> rb{
      vs2.data(),
      {g0b.data(), g1b.data(), g2b.data()},
      {h0b.data(), h1b.data(), h2b.data(), h3b.data(), h4b.data(), h5b.data()}};
  soa.evaluate_vgh(u, ra);
  aos.evaluate_vgh(u, rb);
  for (int s = 0; s < ns; ++s)
  {
    EXPECT_NEAR(vs[s], vs2[s], 1e-13);
    EXPECT_NEAR(g0[s], g0b[s], 1e-12);
    EXPECT_NEAR(h5[s], h5b[s], 1e-11);
  }
}

TEST(MultiBspline3D, GradientMatchesFiniteDifference)
{
  const int n = 14;
  MultiBspline3D<double> spline;
  spline.resize(n, n, n, 2);
  std::vector<std::vector<double>> samples{plane_wave_samples(n, n, n, 1, 0, 1),
                                           plane_wave_samples(n, n, n, 0, 2, 1)};
  fit_splines_periodic<double>(spline, n, n, n, samples);

  const std::size_t np = getAlignedSize<double>(2);
  aligned_vector<double> v(np), g0(np), g1(np), g2(np), h(6 * np);
  SplineVGHResult<double> out{v.data(),
                              {g0.data(), g1.data(), g2.data()},
                              {&h[0], &h[np], &h[2 * np], &h[3 * np], &h[4 * np], &h[5 * np]}};
  const double u[3] = {0.37, 0.52, 0.11};
  spline.evaluate_vgh(u, out);

  const double eps = 1e-5;
  for (int d = 0; d < 3; ++d)
  {
    double up[3] = {u[0], u[1], u[2]};
    double dn[3] = {u[0], u[1], u[2]};
    up[d] += eps;
    dn[d] -= eps;
    aligned_vector<double> vp(np), vm(np);
    spline.evaluate_v(up, vp.data());
    spline.evaluate_v(dn, vm.data());
    const double* g[3] = {g0.data(), g1.data(), g2.data()};
    for (int s = 0; s < 2; ++s)
      EXPECT_NEAR(g[d][s], (vp[s] - vm[s]) / (2 * eps), 1e-5) << "d=" << d << " s=" << s;
  }
}

TEST(MultiBspline3D, HessianDiagonalMatchesFiniteDifference)
{
  const int n = 14;
  MultiBspline3D<double> spline;
  spline.resize(n, n, n, 1);
  std::vector<std::vector<double>> samples{plane_wave_samples(n, n, n, 1, 1, 0)};
  fit_splines_periodic<double>(spline, n, n, n, samples);

  const std::size_t np = getAlignedSize<double>(1);
  aligned_vector<double> v(np), g(3 * np), h(6 * np);
  SplineVGHResult<double> out{v.data(),
                              {&g[0], &g[np], &g[2 * np]},
                              {&h[0], &h[np], &h[2 * np], &h[3 * np], &h[4 * np], &h[5 * np]}};
  const double u[3] = {0.42, 0.17, 0.88};
  spline.evaluate_vgh(u, out);

  const double eps = 1e-4;
  // d2/dx2 via central differences (hessian components 0, 3, 5 diag).
  const int diag_idx[3] = {0, 3, 5};
  for (int d = 0; d < 3; ++d)
  {
    double up[3] = {u[0], u[1], u[2]};
    double dn[3] = {u[0], u[1], u[2]};
    up[d] += eps;
    dn[d] -= eps;
    aligned_vector<double> vp(np), vm(np), v0(np);
    spline.evaluate_v(up, vp.data());
    spline.evaluate_v(dn, vm.data());
    spline.evaluate_v(u, v0.data());
    const double fd = (vp[0] - 2 * v0[0] + vm[0]) / (eps * eps);
    EXPECT_NEAR(h[static_cast<std::size_t>(diag_idx[d]) * np], fd, 1e-3) << d;
  }
}

TEST(MultiBspline3D, PeriodicWrapAtBoundaries)
{
  const int n = 12;
  MultiBspline3D<double> spline;
  spline.resize(n, n, n, 1);
  std::vector<std::vector<double>> samples{plane_wave_samples(n, n, n, 2, 1, 1)};
  fit_splines_periodic<double>(spline, n, n, n, samples);
  aligned_vector<double> va(getAlignedSize<double>(1)), vb(getAlignedSize<double>(1));
  const double ua[3] = {0.999999, 0.5, 0.5};
  const double ub[3] = {0.000001, 0.5, 0.5};
  spline.evaluate_v(ua, va.data());
  spline.evaluate_v(ub, vb.data());
  EXPECT_NEAR(va[0], vb[0], 1e-4);
}

TEST(MultiBspline3D, FloatStorageTracksDouble)
{
  const int n = 10;
  std::vector<std::vector<double>> samples{plane_wave_samples(n, n, n, 1, 1, 0)};
  MultiBspline3D<double> sd;
  sd.resize(n, n, n, 1);
  fit_splines_periodic<double>(sd, n, n, n, samples);
  MultiBspline3D<float> sf;
  sf.resize(n, n, n, 1);
  fit_splines_periodic<float>(sf, n, n, n, samples);

  const double u[3] = {0.3, 0.6, 0.9};
  const float uf[3] = {0.3f, 0.6f, 0.9f};
  aligned_vector<double> vd(getAlignedSize<double>(1));
  aligned_vector<float> vf(getAlignedSize<float>(1));
  sd.evaluate_v(u, vd.data());
  sf.evaluate_v(uf, vf.data());
  EXPECT_NEAR(vd[0], static_cast<double>(vf[0]), 1e-5);
}

TEST(MultiBspline3D, CoefficientBytesReflectPadding)
{
  MultiBspline3D<float> s(8, 8, 8, 5);
  // padded to 16 splines of float
  EXPECT_EQ(s.padded_splines() % 16, 0);
  EXPECT_EQ(s.coefficient_bytes(),
            static_cast<std::size_t>(11) * 11 * 11 * s.padded_splines() * sizeof(float));
}

// ---------------------------------------------------------------------
// Crowd-batched kernels (PR 8): bitwise parity with the scalar paths
// ---------------------------------------------------------------------

namespace
{

/// Drive evaluate_v_multi / evaluate_vgh_multi against per-position
/// scalar calls and require bit-for-bit identical output buffers
/// (including the padding lanes, which both paths leave at +0.0).
template<typename T, typename Backend>
void expect_batched_bitwise(Backend& set, int ns, int npos)
{
  const std::size_t stride = getAlignedSize<T>(static_cast<std::size_t>(ns));
  std::vector<T> ubuf(static_cast<std::size_t>(3 * npos));
  for (int ip = 0; ip < npos; ++ip)
  {
    ubuf[static_cast<std::size_t>(3 * ip) + 0] = static_cast<T>(std::fmod(0.137 + 0.318 * ip, 1.0));
    ubuf[static_cast<std::size_t>(3 * ip) + 1] = static_cast<T>(std::fmod(0.522 + 0.271 * ip, 1.0));
    ubuf[static_cast<std::size_t>(3 * ip) + 2] = static_cast<T>(std::fmod(0.911 + 0.143 * ip, 1.0));
  }
  const auto* u = reinterpret_cast<const T(*)[3]>(ubuf.data());

  // Value kernel.
  aligned_vector<T> vm(static_cast<std::size_t>(npos) * stride, T(0));
  aligned_vector<T> vs(static_cast<std::size_t>(npos) * stride, T(0));
  set.evaluate_v_multi(u, npos, vm.data(), stride);
  for (int ip = 0; ip < npos; ++ip)
    set.evaluate_v(u[ip], vs.data() + static_cast<std::size_t>(ip) * stride);
  ASSERT_EQ(0, std::memcmp(vm.data(), vs.data(), vm.size() * sizeof(T)))
      << "evaluate_v_multi differs from scalar (ns=" << ns << " npos=" << npos << ")";

  // vgh kernel: component-major staging, pos_stride = padded stride.
  const std::size_t comp = static_cast<std::size_t>(npos) * stride;
  aligned_vector<T> m(10 * comp, T(0)), s(10 * comp, T(0));
  const SplineVGHMultiResult<T> rm{m.data(),
                                   {&m[comp], &m[2 * comp], &m[3 * comp]},
                                   {&m[4 * comp], &m[5 * comp], &m[6 * comp], &m[7 * comp],
                                    &m[8 * comp], &m[9 * comp]},
                                   stride};
  set.evaluate_vgh_multi(u, npos, rm);
  for (int ip = 0; ip < npos; ++ip)
  {
    const std::size_t off = static_cast<std::size_t>(ip) * stride;
    const SplineVGHResult<T> rs{&s[off],
                                {&s[comp + off], &s[2 * comp + off], &s[3 * comp + off]},
                                {&s[4 * comp + off], &s[5 * comp + off], &s[6 * comp + off],
                                 &s[7 * comp + off], &s[8 * comp + off], &s[9 * comp + off]}};
    set.evaluate_vgh(u[ip], rs);
  }
  ASSERT_EQ(0, std::memcmp(m.data(), s.data(), m.size() * sizeof(T)))
      << "evaluate_vgh_multi differs from scalar (ns=" << ns << " npos=" << npos << ")";
}

/// Both backends x np in {1, 3, 8} on two orbital counts: ns = 7 pads
/// its rows to the SIMD width, ns = 48 fills whole 64-byte rows in both
/// precisions, so no row is padded.
template<typename T>
void run_multi_parity_all_backends()
{
  const int n = 10;
  for (int ns : {7, 48})
  {
    std::vector<std::vector<double>> samples;
    for (int s = 0; s < ns; ++s)
      samples.push_back(plane_wave_samples(n, n, n, 1 + s % 2, s % 3, 1 + (s / 7) % 3));

    MultiBspline3D<T> soa;
    soa.resize(n, n, n, ns);
    fit_splines_periodic<T>(soa, n, n, n, samples);
    BsplineSetAoS<T> aos;
    aos.resize(n, n, n, ns);
    fit_splines_periodic<T>(aos, n, n, n, samples);

    for (int npos : {1, 3, 8})
    {
      expect_batched_bitwise<T>(soa, ns, npos);
      expect_batched_bitwise<T>(aos, ns, npos);
    }
  }
}

} // namespace

TEST(BatchedSplineKernels, MultiMatchesScalarBitwiseDouble)
{
  run_multi_parity_all_backends<double>();
}

TEST(BatchedSplineKernels, MultiMatchesScalarBitwiseFloat)
{
  run_multi_parity_all_backends<float>();
}

TEST(BatchedSplineKernels, SplineBlockingIsBitwiseNeutral)
{
  // An orbital count several times the kernel's spline-block width
  // (1024 bytes per accumulator slice) so the blocked sweep executes
  // multiple blocks, including a partial last one.
  const int n = 8;
  const int ns = 300;
  std::vector<std::vector<double>> samples;
  for (int s = 0; s < ns; ++s)
    samples.push_back(plane_wave_samples(n, n, n, 1 + s % 3, s % 2, (s / 2) % 2));

  MultiBspline3D<double> sd;
  sd.resize(n, n, n, ns);
  fit_splines_periodic<double>(sd, n, n, n, samples);
  expect_batched_bitwise<double>(sd, ns, 3);

  MultiBspline3D<float> sf;
  sf.resize(n, n, n, ns);
  fit_splines_periodic<float>(sf, n, n, n, samples);
  expect_batched_bitwise<float>(sf, ns, 3);
}
