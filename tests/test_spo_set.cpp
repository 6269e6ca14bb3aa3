// Unit tests: SPO sets -- the Cartesian transform (SPO-vgl kernel),
// layout/precision agreement, crowd-vs-scalar parity of the mw_* calls,
// and synthetic orbital generation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "numerics/linalg.h"
#include "numerics/rng.h"
#include "wavefunction/spo_set.h"

using namespace qmcxx;

namespace
{

template<typename TR, typename Backend>
std::shared_ptr<SPOSet<TR>> make_set(const Lattice& lat, int grid, int norb, std::uint64_t seed)
{
  auto backend = std::make_shared<Backend>();
  fill_synthetic_orbitals<TR>(*backend, grid, grid, grid, norb, seed);
  return std::make_shared<BsplineSPOSet<TR, Backend>>(lat, backend);
}

/// The crowd calls (one batched backend kernel, one transform sweep over
/// all walkers) must reproduce the per-position scalar calls bit for bit
/// on every real orbital lane, at every crowd size.
template<typename TR, typename Backend>
void expect_crowd_matches_scalar_bitwise(const Lattice& lat)
{
  const int norb = 7; // pads to the SIMD width in both precisions
  auto spos = make_set<TR, Backend>(lat, 10, norb, 5);
  const std::size_t bytes = static_cast<std::size_t>(norb) * sizeof(TR);
  RandomGenerator rng(31);
  for (int nw : {1, 3, 8})
  {
    // Positions inside and outside the cell exercise the folding.
    std::vector<TinyVector<double, 3>> r(static_cast<std::size_t>(nw));
    for (auto& ri : r)
      ri = lat.to_cart(TinyVector<double, 3>{rng.uniform(-1, 2), rng.uniform(-1, 2),
                                             rng.uniform(-1, 2)});
    SPOVGLBatch<TR> batch;
    spos->mw_evaluate_vgl(r.data(), nw, batch);
    const std::size_t stride = getAlignedSize<TR>(norb);
    aligned_vector<TR> vmulti(static_cast<std::size_t>(nw) * stride);
    spos->mw_evaluate_v(r.data(), nw, vmulti.data(), stride);

    aligned_vector<TR> psi(stride), d2psi(stride), v(stride);
    VectorSoaContainer<TR, 3> dpsi(norb);
    for (int iw = 0; iw < nw; ++iw)
    {
      SCOPED_TRACE(::testing::Message() << "nw=" << nw << " iw=" << iw);
      spos->evaluate_vgl(r[iw], psi.data(), dpsi, d2psi.data());
      EXPECT_EQ(0, std::memcmp(batch.psi.row(iw), psi.data(), bytes));
      EXPECT_EQ(0, std::memcmp(batch.gx.row(iw), dpsi.data(0), bytes));
      EXPECT_EQ(0, std::memcmp(batch.gy.row(iw), dpsi.data(1), bytes));
      EXPECT_EQ(0, std::memcmp(batch.gz.row(iw), dpsi.data(2), bytes));
      EXPECT_EQ(0, std::memcmp(batch.d2.row(iw), d2psi.data(), bytes));
      spos->evaluate_v(r[iw], v.data());
      EXPECT_EQ(0, std::memcmp(vmulti.data() + static_cast<std::size_t>(iw) * stride, v.data(),
                               bytes));
    }
  }
}

} // namespace

TEST(SPOSet, CrowdEvaluationMatchesScalarBitwise)
{
  // Hexagonal cell: a non-diagonal reduced->Cartesian jacobian, so every
  // gradient and laplacian term of the transform is live.
  const Lattice lat = Lattice::hexagonal(5.0, 8.0);
  expect_crowd_matches_scalar_bitwise<double, MultiBspline3D<double>>(lat);
  expect_crowd_matches_scalar_bitwise<float, MultiBspline3D<float>>(lat);
  expect_crowd_matches_scalar_bitwise<double, BsplineSetAoS<double>>(lat);
  expect_crowd_matches_scalar_bitwise<float, BsplineSetAoS<float>>(lat);
}

TEST(SPOSet, CartesianGradientMatchesFiniteDifference)
{
  const Lattice lat = Lattice::cubic(6.0);
  auto spos = make_set<double, MultiBspline3D<double>>(lat, 14, 6, 99);
  const int norb = spos->num_orbitals();
  const std::size_t np = getAlignedSize<double>(norb);
  aligned_vector<double> psi(np), d2psi(np), psi_p(np), psi_m(np);
  VectorSoaContainer<double, 3> dpsi(norb);

  const TinyVector<double, 3> r{1.234, 4.2, 2.78};
  spos->evaluate_vgl(r, psi.data(), dpsi, d2psi.data());
  const double h = 1e-5;
  for (unsigned d = 0; d < 3; ++d)
  {
    auto rp = r, rm = r;
    rp[d] += h;
    rm[d] -= h;
    spos->evaluate_v(rp, psi_p.data());
    spos->evaluate_v(rm, psi_m.data());
    for (int s = 0; s < norb; ++s)
      EXPECT_NEAR(dpsi(d, s), (psi_p[s] - psi_m[s]) / (2 * h), 1e-5) << "d=" << d << " s=" << s;
  }
}

TEST(SPOSet, CartesianLaplacianMatchesFiniteDifference)
{
  const Lattice lat = Lattice::cubic(6.0);
  auto spos = make_set<double, MultiBspline3D<double>>(lat, 16, 4, 7);
  const int norb = spos->num_orbitals();
  const std::size_t np = getAlignedSize<double>(norb);
  aligned_vector<double> psi(np), d2psi(np), psi_p(np), psi_m(np), psi_0(np);
  VectorSoaContainer<double, 3> dpsi(norb);

  const TinyVector<double, 3> r{2.1, 0.9, 5.3};
  spos->evaluate_vgl(r, psi.data(), dpsi, d2psi.data());
  spos->evaluate_v(r, psi_0.data());
  const double h = 2e-4;
  std::vector<double> lap_fd(norb, 0.0);
  for (unsigned d = 0; d < 3; ++d)
  {
    auto rp = r, rm = r;
    rp[d] += h;
    rm[d] -= h;
    spos->evaluate_v(rp, psi_p.data());
    spos->evaluate_v(rm, psi_m.data());
    for (int s = 0; s < norb; ++s)
      lap_fd[s] += (psi_p[s] - 2 * psi_0[s] + psi_m[s]) / (h * h);
  }
  for (int s = 0; s < norb; ++s)
    EXPECT_NEAR(d2psi[s], lap_fd[s], 5e-3 * std::max(1.0, std::abs(lap_fd[s]))) << s;
}

TEST(SPOSet, HexagonalCellTransformCorrect)
{
  // The reduced->Cartesian jacobian is non-diagonal for hexagonal cells;
  // finite differences in Cartesian space validate it.
  const Lattice lat = Lattice::hexagonal(5.0, 8.0);
  auto spos = make_set<double, MultiBspline3D<double>>(lat, 14, 4, 3);
  const int norb = spos->num_orbitals();
  const std::size_t np = getAlignedSize<double>(norb);
  aligned_vector<double> psi(np), d2psi(np), psi_p(np), psi_m(np);
  VectorSoaContainer<double, 3> dpsi(norb);

  const TinyVector<double, 3> r{0.8, 1.7, 3.1};
  spos->evaluate_vgl(r, psi.data(), dpsi, d2psi.data());
  const double h = 1e-5;
  for (unsigned d = 0; d < 3; ++d)
  {
    auto rp = r, rm = r;
    rp[d] += h;
    rm[d] -= h;
    spos->evaluate_v(rp, psi_p.data());
    spos->evaluate_v(rm, psi_m.data());
    for (int s = 0; s < norb; ++s)
      EXPECT_NEAR(dpsi(d, s), (psi_p[s] - psi_m[s]) / (2 * h), 1e-5);
  }
}

TEST(SPOSet, AoSandSoABackendsAgree)
{
  const Lattice lat = Lattice::cubic(7.3);
  auto soa = make_set<double, MultiBspline3D<double>>(lat, 12, 10, 11);
  auto aos = make_set<double, BsplineSetAoS<double>>(lat, 12, 10, 11);
  const int norb = 10;
  const std::size_t np = getAlignedSize<double>(norb);
  aligned_vector<double> v1(np), v2(np), l1(np), l2(np);
  VectorSoaContainer<double, 3> g1(norb), g2(norb);
  RandomGenerator rng(5);
  for (int t = 0; t < 20; ++t)
  {
    const TinyVector<double, 3> r{rng.uniform(0, 7.3), rng.uniform(0, 7.3), rng.uniform(0, 7.3)};
    soa->evaluate_vgl(r, v1.data(), g1, l1.data());
    aos->evaluate_vgl(r, v2.data(), g2, l2.data());
    for (int s = 0; s < norb; ++s)
    {
      EXPECT_NEAR(v1[s], v2[s], 1e-12);
      for (unsigned d = 0; d < 3; ++d)
        EXPECT_NEAR(g1(d, s), g2(d, s), 1e-11);
      EXPECT_NEAR(l1[s], l2[s], 1e-10);
    }
  }
}

TEST(SPOSet, FloatTracksDouble)
{
  const Lattice lat = Lattice::cubic(7.3);
  auto sd = make_set<double, MultiBspline3D<double>>(lat, 12, 8, 21);
  auto sf = make_set<float, MultiBspline3D<float>>(lat, 12, 8, 21);
  aligned_vector<double> vd(getAlignedSize<double>(8));
  aligned_vector<float> vf(getAlignedSize<float>(8));
  RandomGenerator rng(9);
  for (int t = 0; t < 10; ++t)
  {
    const TinyVector<double, 3> r{rng.uniform(0, 7.3), rng.uniform(0, 7.3), rng.uniform(0, 7.3)};
    sd->evaluate_v(r, vd.data());
    sf->evaluate_v(r, vf.data());
    for (int s = 0; s < 8; ++s)
      EXPECT_NEAR(vd[s], static_cast<double>(vf[s]), 2e-5);
  }
}

TEST(SyntheticOrbitals, LinearlyIndependent)
{
  // The Slater matrix on random positions must be far from singular.
  const Lattice lat = Lattice::cubic(6.0);
  const int norb = 16;
  auto spos = make_set<double, MultiBspline3D<double>>(lat, 12, norb, 777);
  RandomGenerator rng(8);
  Matrix<double> a(norb, norb);
  const std::size_t np = getAlignedSize<double>(norb);
  aligned_vector<double> psi(np);
  for (int i = 0; i < norb; ++i)
  {
    const TinyVector<double, 3> r{rng.uniform(0, 6), rng.uniform(0, 6), rng.uniform(0, 6)};
    spos->evaluate_v(r, psi.data());
    for (int j = 0; j < norb; ++j)
      a(i, j) = psi[j];
  }
  Matrix<double> inv;
  double logdet, sign;
  EXPECT_NO_THROW(linalg::invert_matrix(a, inv, logdet, sign));
  EXPECT_TRUE(std::isfinite(logdet));
}

TEST(SyntheticOrbitals, DeterministicForSeed)
{
  const Lattice lat = Lattice::cubic(5.0);
  auto s1 = make_set<double, MultiBspline3D<double>>(lat, 10, 4, 42);
  auto s2 = make_set<double, MultiBspline3D<double>>(lat, 10, 4, 42);
  aligned_vector<double> v1(getAlignedSize<double>(4)), v2(getAlignedSize<double>(4));
  const TinyVector<double, 3> r{1.2, 3.4, 0.5};
  s1->evaluate_v(r, v1.data());
  s2->evaluate_v(r, v2.data());
  for (int s = 0; s < 4; ++s)
    EXPECT_EQ(v1[s], v2[s]);
}

TEST(SyntheticOrbitals, PeriodicAcrossCellBoundary)
{
  const Lattice lat = Lattice::cubic(5.0);
  auto spos = make_set<double, MultiBspline3D<double>>(lat, 12, 4, 13);
  aligned_vector<double> v1(getAlignedSize<double>(4)), v2(getAlignedSize<double>(4));
  const TinyVector<double, 3> r{1.2, 3.4, 0.5};
  const TinyVector<double, 3> r_shift = r + TinyVector<double, 3>{5.0, -5.0, 10.0};
  spos->evaluate_v(r, v1.data());
  spos->evaluate_v(r_shift, v2.data());
  for (int s = 0; s < 4; ++s)
    EXPECT_NEAR(v1[s], v2[s], 1e-10);
}

TEST(SPOSet, TableBytesMatchBackend)
{
  const Lattice lat = Lattice::cubic(5.0);
  auto backend = std::make_shared<MultiBspline3D<float>>();
  fill_synthetic_orbitals<float>(*backend, 10, 10, 10, 6, 1);
  BsplineSPOSetSoA<float> spos(lat, backend);
  EXPECT_EQ(spos.table_bytes(), backend->coefficient_bytes());
  EXPECT_EQ(spos.num_orbitals(), 6);
}
