// Unit + property tests for the distance tables: AoS packed-triangle vs
// SoA layouts (stored N x M rows for AB, O(N) computed rows for AA), the
// PbyP move protocol (paper Fig. 6), and the layout-parity guarantees:
// Reference (AoS) and canonical (SoA) tables serve bitwise-identical
// rows through the unified DTRowView interface. The vectorized row
// kernels are pinned bitwise to their nearbyint-based originals, and
// virtual (NLPP fan) rows to the move protocol's temp row.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <vector>

#include "drivers/qmc_driver_impl.h"
#include "estimators/pair_correlation.h"
#include "hamiltonian/coulomb.h"
#include "instrument/memory_tracker.h"
#include "workloads/system_builder.h"
#include "workloads/workloads.h"

#include "test_utils.h"

using namespace qmcxx;
using namespace qmcxx::testing;

namespace
{

/// Reference distances via direct double-precision minimum image.
double exact_dist(const Lattice& lat, const TinyVector<double, 3>& a,
                  const TinyVector<double, 3>& b)
{
  return norm(lat.min_image(b - a));
}

} // namespace

class DistanceTableAA : public ::testing::TestWithParam<bool> // soa?
{
protected:
  static constexpr int kN = 24;

  std::unique_ptr<ParticleSet<double>> make_system(int& table_idx)
  {
    auto p = make_electrons<double>(kN / 2, kN / 2, 6.0);
    if (GetParam())
      table_idx = p->add_table(std::make_unique<SoaDistanceTableAA<double>>(p->lattice(), kN));
    else
      table_idx = p->add_table(std::make_unique<AosDistanceTableAA<double>>(p->lattice(), kN));
    p->update();
    return p;
  }
};

TEST_P(DistanceTableAA, EvaluateMatchesExactDistances)
{
  int ti;
  auto p = make_system(ti);
  auto& dt = p->table(ti);
  for (int i = 0; i < kN; ++i)
  {
    const DTRowView<double> row = dt.row(*p, i);
    for (int j = 0; j < kN; ++j)
    {
      if (i == j)
        continue;
      EXPECT_NEAR(row.d[j], exact_dist(p->lattice(), p->pos(i), p->pos(j)), 1e-12)
          << i << "," << j;
    }
  }
}

TEST_P(DistanceTableAA, DisplacementConventionIsTowardsSource)
{
  int ti;
  auto p = make_system(ti);
  auto& dt = p->table(ti);
  // dr(i,j) = min_image(r_j - r_i); norm must equal the distance.
  for (int i = 0; i < kN; i += 5)
  {
    const DTRowView<double> row = dt.row(*p, i);
    for (int j = 0; j < kN; j += 3)
    {
      if (i == j)
        continue;
      const TinyVector<double, 3> d{row.dx[j], row.dy[j], row.dz[j]};
      const auto expect = p->lattice().min_image(p->pos(j) - p->pos(i));
      for (unsigned dd = 0; dd < 3; ++dd)
        EXPECT_NEAR(d[dd], expect[dd], 1e-12);
      EXPECT_NEAR(norm(d), row.d[j], 1e-12);
    }
  }
}

TEST_P(DistanceTableAA, MoveFillsTempRow)
{
  int ti;
  auto p = make_system(ti);
  auto& dt = p->table(ti);
  const int k = 7;
  const TinyVector<double, 3> rnew = p->pos(k) + TinyVector<double, 3>{0.3, -0.2, 0.5};
  p->prepare_move(k);
  p->make_move(k, rnew);
  const double* tr = dt.temp_r();
  for (int j = 0; j < kN; ++j)
  {
    if (j == k)
      continue;
    EXPECT_NEAR(tr[j], exact_dist(p->lattice(), rnew, p->pos(j)), 1e-12) << j;
  }
  p->reject_move(k);
}

TEST_P(DistanceTableAA, SweepWithAcceptsKeepsRowsConsistent)
{
  int ti;
  auto p = make_system(ti);
  auto& dt = p->table(ti);
  RandomGenerator rng(99);
  // Ordered sweep accepting every other move, like the PbyP update.
  for (int k = 0; k < kN; ++k)
  {
    p->prepare_move(k);
    const TinyVector<double, 3> rnew =
        p->pos(k) + TinyVector<double, 3>{rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                                        rng.uniform(-0.4, 0.4)};
    p->make_move(k, rnew);
    if (k % 2 == 0)
      p->accept_move(k);
    else
      p->reject_move(k);

    // After each accept, the row the next move reads must be
    // consistent: verify by preparing the next particle and checking it.
    if (k + 1 < kN)
    {
      p->prepare_move(k + 1);
      const DTRowView<double> row = p->table(ti).row(*p, k + 1);
      for (int j = 0; j < kN; ++j)
      {
        if (j == k + 1)
          continue;
        const double expect = exact_dist(p->lattice(), p->pos(k + 1), p->pos(j));
        EXPECT_NEAR(row.d[j], expect, 1e-12) << "k=" << k << " j=" << j;
      }
    }
  }
  (void)dt;
  // Measurement-time rows reproduce exact distances everywhere.
  p->update();
  for (int i = 0; i < kN; ++i)
  {
    const DTRowView<double> row = p->table(ti).row(*p, i);
    for (int j = i + 1; j < kN; ++j)
      EXPECT_NEAR(row.d[j], exact_dist(p->lattice(), p->pos(i), p->pos(j)), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, DistanceTableAA, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? std::string("SoaOnTheFly")
                                              : std::string("AosPackedTriangle");
                         });

TEST(DistanceTableAASoA, SelfDistanceIsSentinel)
{
  const int n = 8;
  auto p = make_electrons<double>(n / 2, n / 2, 5.0);
  const int ti = p->add_table(std::make_unique<SoaDistanceTableAA<double>>(p->lattice(), n));
  p->update();
  auto& dt = p->table(ti);
  for (int i = 0; i < n; ++i)
    EXPECT_GT(dt.row(*p, i).d[i], 1e9);
}

namespace
{

/// storage_bytes() of an n-electron SoA AA table, and the bytes its
/// construction allocates.
template<typename TR>
std::pair<std::size_t, std::size_t> aa_table_bytes(const Lattice& lat, int n)
{
  const std::size_t m0 = MemoryTracker::instance().current();
  const SoaDistanceTableAA<TR> dt(lat, n);
  return {dt.storage_bytes(), MemoryTracker::instance().current() - m0};
}

} // namespace

TEST(DistanceTableAASoA, StorageIsLinearInN)
{
  // Three padded rows of d, dx, dy, dz: doubling N at most doubles the
  // bytes, plus one alignment block, in what the table reports and in
  // what it allocates.
  const Lattice lat = Lattice::cubic(6.0);
  for (int n : {5, 16, 24, 100, 384, 768})
  {
    for (const auto& [one, two] :
         {std::pair{aa_table_bytes<double>(lat, n), aa_table_bytes<double>(lat, 2 * n)},
          std::pair{aa_table_bytes<float>(lat, n), aa_table_bytes<float>(lat, 2 * n)}})
    {
      EXPECT_LE(two.first, 2 * one.first + QMC_SIMD_ALIGNMENT) << "n=" << n;
      EXPECT_LE(two.second, 2 * one.second + QMC_SIMD_ALIGNMENT) << "n=" << n;
      EXPECT_GE(one.second, one.first) << "n=" << n;
    }
  }
}

TEST(DistanceTableAASoA, PaddedTailIsHarmless)
{
  // Row stride exceeds N; kernels may read the padding, which must be 0.
  const int n = 5;
  auto p = make_electrons<double>(2, 3, 5.0);
  const int ti = p->add_table(std::make_unique<SoaDistanceTableAA<double>>(p->lattice(), n));
  p->update();
  const std::size_t stride = getAlignedSize<double>(n);
  EXPECT_GT(stride, static_cast<std::size_t>(n));
  const DTRowView<double> row = p->table(ti).row(*p, 0);
  for (std::size_t j = n; j < stride; ++j)
    EXPECT_EQ(row.d[j], 0.0);
}

// ---------------------------------------------------------------------
// AB tables
// ---------------------------------------------------------------------

class DistanceTableAB : public ::testing::TestWithParam<bool> // soa?
{
protected:
  static constexpr int kNel = 12;
  static constexpr int kNion = 6;

  void build()
  {
    ions_ = make_ions<double>(3, 3, 6.0);
    elec_ = make_electrons<double>(kNel / 2, kNel / 2, 6.0);
    if (GetParam())
      ti_ = elec_->add_table(
          std::make_unique<SoaDistanceTableAB<double>>(elec_->lattice(), *ions_, kNel));
    else
      ti_ = elec_->add_table(
          std::make_unique<AosDistanceTableAB<double>>(elec_->lattice(), *ions_, kNel));
    elec_->update();
  }

  std::unique_ptr<ParticleSet<double>> ions_, elec_;
  int ti_ = -1;
};

TEST_P(DistanceTableAB, EvaluateMatchesExact)
{
  build();
  auto& dt = elec_->table(ti_);
  for (int i = 0; i < kNel; ++i)
  {
    const DTRowView<double> row = dt.row(*elec_, i);
    for (int j = 0; j < kNion; ++j)
      EXPECT_NEAR(row.d[j], exact_dist(elec_->lattice(), elec_->pos(i), ions_->pos(j)), 1e-12);
  }
}

TEST_P(DistanceTableAB, MoveAndUpdateCommitRow)
{
  build();
  auto& dt = elec_->table(ti_);
  const int k = 4;
  const TinyVector<double, 3> rnew = elec_->pos(k) + TinyVector<double, 3>{-0.5, 0.9, 0.2};
  elec_->prepare_move(k);
  elec_->make_move(k, rnew);
  for (int j = 0; j < kNion; ++j)
    EXPECT_NEAR(dt.temp_r()[j], exact_dist(elec_->lattice(), rnew, ions_->pos(j)), 1e-12);
  elec_->accept_move(k);
  for (int j = 0; j < kNion; ++j)
    EXPECT_NEAR(dt.row(*elec_, k).d[j], exact_dist(elec_->lattice(), rnew, ions_->pos(j)), 1e-12);
  // Other rows untouched.
  for (int j = 0; j < kNion; ++j)
    EXPECT_NEAR(dt.row(*elec_, 0).d[j],
                exact_dist(elec_->lattice(), elec_->pos(0), ions_->pos(j)), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Layouts, DistanceTableAB, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& pinfo) {
                           return pinfo.param ? std::string("Soa") : std::string("Aos");
                         });

TEST(DistanceTableMixedPrecision, FloatTablesTrackDouble)
{
  const int n = 20;
  auto pd = make_electrons<double>(n / 2, n / 2, 6.0, /*seed=*/3);
  auto pf = make_electrons<float>(n / 2, n / 2, 6.0, /*seed=*/3);
  const int td = pd->add_table(std::make_unique<SoaDistanceTableAA<double>>(pd->lattice(), n));
  const int tf = pf->add_table(std::make_unique<SoaDistanceTableAA<float>>(pf->lattice(), n));
  pd->update();
  pf->update();
  for (int i = 0; i < n; ++i)
  {
    const DTRowView<double> rd = pd->table(td).row(*pd, i);
    const DTRowView<float> rf = pf->table(tf).row(*pf, i);
    for (int j = 0; j < n; ++j)
    {
      if (i == j)
        continue;
      EXPECT_NEAR(rd.d[j], static_cast<double>(rf.d[j]), 2e-6);
    }
  }
}

// ---------------------------------------------------------------------
// Layout parity: Reference (AoS) vs canonical (SoA) through the unified
// row interface, on a skewed (hexagonal graphite) lattice.
// ---------------------------------------------------------------------

namespace
{

/// Bitwise comparison of two row views over n entries, skipping `skip`
/// (the self index, where only the distance sentinel is specified).
void expect_rows_identical(const DTRowView<double>& a, const DTRowView<double>& b, int n,
                           int skip, const char* what)
{
  for (int j = 0; j < n; ++j)
  {
    if (j == skip)
    {
      EXPECT_EQ(a.d[j], b.d[j]) << what << " sentinel j=" << j;
      continue;
    }
    EXPECT_EQ(a.d[j], b.d[j]) << what << " d j=" << j;
    EXPECT_EQ(a.dx[j], b.dx[j]) << what << " dx j=" << j;
    EXPECT_EQ(a.dy[j], b.dy[j]) << what << " dy j=" << j;
    EXPECT_EQ(a.dz[j], b.dz[j]) << what << " dz j=" << j;
  }
}

} // namespace

TEST(LayoutParity, HexagonalAARowsBitwiseIdentical)
{
  // Graphite's cell shape: hexagonal, exercising the general-cell
  // min-image kernel shared by both layouts.
  const int n = 20;
  Lattice lat = Lattice::hexagonal(4.65, 12.68);
  ParticleSet<double> p("e", lat);
  p.add_species("u", -1.0);
  p.add_species("d", -1.0);
  p.create({n / 2, n / 2});
  RandomGenerator rng(21);
  randomize_positions(p, rng);
  const int ta = p.add_table(std::make_unique<AosDistanceTableAA<double>>(lat, n));
  const int ts = p.add_table(std::make_unique<SoaDistanceTableAA<double>>(lat, n));
  p.update();
  for (int i = 0; i < n; ++i)
    expect_rows_identical(p.table(ta).row(p, i), p.table(ts).row(p, i), n, i, "evaluate row");

  // Drive both tables through a PbyP sweep with accepts: temp rows and
  // committed rows must stay bitwise-identical under both update
  // policies (AoS triangle copy vs SoA on-the-fly recompute).
  for (int k = 0; k < n; ++k)
  {
    p.prepare_move(k);
    // Row k is the data the PbyP consumers read at this point: fresh in
    // both layouts (the prepared row vs the always-fresh triangle).
    expect_rows_identical(p.table(ta).row(p, k), p.table(ts).row(p, k), n, k, "prepared row");
    const TinyVector<double, 3> rnew =
        p.pos(k) + TinyVector<double, 3>{rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                                         rng.uniform(-0.4, 0.4)};
    p.make_move(k, rnew);
    expect_rows_identical(p.table(ta).temp_row(), p.table(ts).temp_row(), n, k, "temp row");
    if (k % 2 == 0)
      p.accept_move(k);
    else
      p.reject_move(k);
    expect_rows_identical(p.table(ta).row(p, k), p.table(ts).row(p, k), n, k, "committed row");
  }
  // Measurement-time rows: every committed row identical (the SoA table
  // computes them from the positions the triangle was updated to).
  p.update();
  for (int i = 0; i < n; ++i)
    expect_rows_identical(p.table(ta).row(p, i), p.table(ts).row(p, i), n, i, "post-sweep row");
}

TEST(LayoutParity, HexagonalABRowsBitwiseIdentical)
{
  const int nel = 14, nion = 6;
  Lattice lat = Lattice::hexagonal(4.65, 12.68);
  ParticleSet<double> ions("ion", lat);
  ions.add_species("C", 4.0);
  ions.create({nion});
  RandomGenerator irng(5);
  randomize_positions(ions, irng);
  ParticleSet<double> elec("e", lat);
  elec.add_species("u", -1.0);
  elec.add_species("d", -1.0);
  elec.create({nel / 2, nel / 2});
  RandomGenerator rng(23);
  randomize_positions(elec, rng);
  const int ta = elec.add_table(std::make_unique<AosDistanceTableAB<double>>(lat, ions, nel));
  const int ts = elec.add_table(std::make_unique<SoaDistanceTableAB<double>>(lat, ions, nel));
  elec.update();
  for (int i = 0; i < nel; ++i)
    expect_rows_identical(elec.table(ta).row(elec, i), elec.table(ts).row(elec, i), nion, -1,
                          "evaluate row");

  for (int k = 0; k < nel; ++k)
  {
    elec.prepare_move(k);
    const TinyVector<double, 3> rnew =
        elec.pos(k) + TinyVector<double, 3>{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                            rng.uniform(-0.5, 0.5)};
    elec.make_move(k, rnew);
    expect_rows_identical(elec.table(ta).temp_row(), elec.table(ts).temp_row(), nion, -1,
                          "temp row");
    if (k % 3 != 0)
      elec.accept_move(k);
    else
      elec.reject_move(k);
  }
  for (int i = 0; i < nel; ++i)
    expect_rows_identical(elec.table(ta).row(elec, i), elec.table(ts).row(elec, i), nion, -1,
                          "post-sweep row");
}

namespace
{

/// CoulombEE and g(r) from an SoA and an AoS electron set with the same
/// positions, after a PbyP sweep with accepts and rejects and the
/// update() the driver makes before measuring: the SoA table computes
/// each row from the positions, the AoS table gathers it from the
/// triangle its updates maintained, and the measurements agree bitwise.
template<typename TR>
void check_measurements_match_aos(const Lattice& lat, const std::string& what)
{
  const int n = 32;
  ParticleSet<TR> soa("e", lat), aos("e", lat);
  for (ParticleSet<TR>* p : {&soa, &aos})
  {
    p->add_species("u", -1.0);
    p->add_species("d", -1.0);
    p->create({n / 2, n / 2});
  }
  RandomGenerator rng(47);
  randomize_positions(soa, rng);
  aos.set_positions(soa.positions());
  const int ts = soa.add_table(std::make_unique<SoaDistanceTableAA<TR>>(lat, n));
  const int ta = aos.add_table(std::make_unique<AosDistanceTableAA<TR>>(lat, n));
  soa.update();
  aos.update();
  for (int k = 0; k < n; ++k)
  {
    soa.prepare_move(k);
    aos.prepare_move(k);
    const TinyVector<double, 3> rnew =
        soa.pos(k) + TinyVector<double, 3>{rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6),
                                           rng.uniform(-0.6, 0.6)};
    soa.make_move(k, rnew);
    aos.make_move(k, rnew);
    if (k % 3 != 2) // the last move is accepted
    {
      soa.accept_move(k);
      aos.accept_move(k);
    }
    else
    {
      soa.reject_move(k);
      aos.reject_move(k);
    }
  }
  soa.update();
  aos.update();
  const std::size_t pos_bytes = 3 * soa.Rsoa().capacity() * sizeof(TR);
  ASSERT_EQ(std::memcmp(soa.Rsoa().data(0), aos.Rsoa().data(0), pos_bytes), 0) << what;

  TrialWaveFunction<TR> twf(n);
  CoulombEE<TR> ee_soa(lat, ts), ee_aos(lat, ta);
  const FullPrecReal e_soa = ee_soa.evaluate(soa, twf);
  const FullPrecReal e_aos = ee_aos.evaluate(aos, twf);
  EXPECT_EQ(std::memcmp(&e_soa, &e_aos, sizeof(FullPrecReal)), 0)
      << what << ": " << e_soa << " vs " << e_aos;

  const int nbins = 24;
  const FullPrecReal rmax = lat.wigner_seitz_radius();
  PairCorrelationEstimator<TR> gr_soa(lat, ts, n, nbins, rmax), gr_aos(lat, ta, n, nbins, rmax);
  std::vector<FullPrecReal> b_soa(nbins), b_aos(nbins);
  gr_soa.evaluate(soa, b_soa.data());
  gr_aos.evaluate(aos, b_aos.data());
  EXPECT_EQ(std::memcmp(b_soa.data(), b_aos.data(), nbins * sizeof(FullPrecReal)), 0) << what;
  EXPECT_GT(std::accumulate(b_soa.begin(), b_soa.end(), 0.0), 0.0) << what << ": no pair binned";
}

} // namespace

TEST(LayoutParity, MeasurementsFromComputedRowsMatchAosBitwise)
{
  const Lattice graphite = workload_spec(Workload::Graphite).lattice;
  const Lattice nio = workload_spec(Workload::NiO32).lattice;
  ASSERT_FALSE(graphite.orthorhombic());
  ASSERT_TRUE(nio.orthorhombic());
  check_measurements_match_aos<float>(graphite, "Graphite float");
  check_measurements_match_aos<double>(graphite, "Graphite double");
  check_measurements_match_aos<float>(nio, "NiO float");
  check_measurements_match_aos<double>(nio, "NiO double");
}

TEST(DistanceTableSkewedCell, SoaFallbackMatchesAos)
{
  // Hexagonal cell exercises the scalar exact-min-image fallback.
  const int n = 14;
  Lattice lat = Lattice::hexagonal(5.0, 8.0);
  ParticleSet<double> p("e", lat);
  p.add_species("u", -1.0);
  p.add_species("d", -1.0);
  p.create({n / 2, n / 2});
  RandomGenerator rng(13);
  randomize_positions(p, rng);
  const int ta = p.add_table(std::make_unique<AosDistanceTableAA<double>>(lat, n));
  const int ts = p.add_table(std::make_unique<SoaDistanceTableAA<double>>(lat, n));
  p.update();
  for (int i = 0; i < n; ++i)
  {
    const DTRowView<double> ra = p.table(ta).row(p, i);
    const DTRowView<double> rs = p.table(ts).row(p, i);
    for (int j = 0; j < n; ++j)
    {
      if (i == j)
        continue;
      EXPECT_NEAR(ra.d[j], rs.d[j], 1e-12);
    }
  }
}

// ---------------------------------------------------------------------
// Row-kernel exactness: round_half_even and the vectorized min-image
// rows against std::nearbyint and the nearbyint-based kernels they
// replaced (kept here, verbatim in arithmetic, as the reference).
// ---------------------------------------------------------------------

namespace
{

template<typename T>
bool same_bits(T a, T b)
{
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

template<typename T>
void expect_rounds_like_nearbyint(T f)
{
  const T want = std::nearbyint(f);
  const T got = round_half_even(f);
  EXPECT_TRUE(same_bits(got, want)) << "f=" << f << " got " << got << " want " << want;
}

/// p_c: log2 of 1/epsilon (23 for float, 52 for double).
template<typename T>
void check_round_half_even(int p_c)
{
  const T inf = std::numeric_limits<T>::infinity();
  for (T f : {T(0), T(0.5), T(1.5), T(2.5), T(1e30), inf})
  {
    expect_rounds_like_nearbyint(f);
    expect_rounds_like_nearbyint(-f);
  }
  // Neighbours of 2^(p-1) and 2^p = 1/epsilon, where fractions vanish,
  // plus the odd-mantissa band [2^(2p+1), 2^(2p+2)) in which an
  // add-back of |f| - min(|f|, C) would be one ulp off.
  for (int e : {p_c - 1, p_c, 2 * p_c + 1})
  {
    const T x = std::ldexp(T(1), e);
    for (T v : {std::nextafter(x, T(0)), x, std::nextafter(x, inf),
                std::nextafter(std::nextafter(x, inf), inf)})
    {
      expect_rounds_like_nearbyint(v);
      expect_rounds_like_nearbyint(-v);
    }
  }
  RandomGenerator rng(2017);
  for (int i = 0; i < 100000; ++i)
  {
    // Magnitudes 2^-5 .. 2^(p_c+3) of both signs, every 8th an exact tie.
    const double scale = std::ldexp(1.0, static_cast<int>(rng.uniform() * (p_c + 8)) - 4);
    const double f = (i % 8 == 0) ? std::floor(scale * rng.uniform()) + 0.5
                                   : (rng.uniform() - 0.5) * scale;
    expect_rounds_like_nearbyint(static_cast<T>(i % 2 ? f : -f));
  }
}

/// The nearbyint general-cell kernel the vectorized one replaced.
template<typename TR>
void reference_general_row(const MinImageKernel<TR>& mik, const TR* xs, const TR* ys,
                           const TR* zs, TR x0, TR y0, TR z0, int n, TR* d, TR* dx, TR* dy,
                           TR* dz)
{
  const auto& ai = mik.ainv;
  const auto& a = mik.cell;
  for (int j = 0; j < n; ++j)
  {
    const TR rx = xs[j] - x0, ry = ys[j] - y0, rz = zs[j] - z0;
    TR f0 = ai[0][0] * rx + ai[0][1] * ry + ai[0][2] * rz;
    TR f1 = ai[1][0] * rx + ai[1][1] * ry + ai[1][2] * rz;
    TR f2 = ai[2][0] * rx + ai[2][1] * ry + ai[2][2] * rz;
    f0 -= std::nearbyint(f0);
    f1 -= std::nearbyint(f1);
    f2 -= std::nearbyint(f2);
    const TR bx = f0 * a[0][0] + f1 * a[1][0] + f2 * a[2][0];
    const TR by = f0 * a[0][1] + f1 * a[1][1] + f2 * a[2][1];
    const TR bz = f0 * a[0][2] + f1 * a[1][2] + f2 * a[2][2];
    TR best2 = bx * bx + by * by + bz * bz;
    TR ox = bx, oy = by, oz = bz;
    const TR s[3] = {-std::copysign(TR(1), f0), -std::copysign(TR(1), f1),
                     -std::copysign(TR(1), f2)};
    TR c[3][3];
    for (int v = 0; v < 3; ++v)
      for (int k = 0; k < 3; ++k)
        c[v][k] = s[v] * a[v][k];
    for (int m = 1; m < 8; ++m)
    {
      const TR sx = bx + (m & 1 ? c[0][0] : TR(0)) + (m & 2 ? c[1][0] : TR(0)) +
          (m & 4 ? c[2][0] : TR(0));
      const TR sy = by + (m & 1 ? c[0][1] : TR(0)) + (m & 2 ? c[1][1] : TR(0)) +
          (m & 4 ? c[2][1] : TR(0));
      const TR sz = bz + (m & 1 ? c[0][2] : TR(0)) + (m & 2 ? c[1][2] : TR(0)) +
          (m & 4 ? c[2][2] : TR(0));
      const TR r2 = sx * sx + sy * sy + sz * sz;
      if (r2 < best2)
      {
        best2 = r2;
        ox = sx;
        oy = sy;
        oz = sz;
      }
    }
    d[j] = std::sqrt(best2);
    dx[j] = ox;
    dy[j] = oy;
    dz[j] = oz;
  }
}

/// The nearbyint orthorhombic kernel the vectorized one replaced.
template<typename TR>
void reference_ortho_row(const MinImageKernel<TR>& mik, const TR* xs, const TR* ys, const TR* zs,
                         TR x0, TR y0, TR z0, int n, TR* d, TR* dx, TR* dy, TR* dz)
{
  for (int j = 0; j < n; ++j)
  {
    TR ddx = xs[j] - x0, ddy = ys[j] - y0, ddz = zs[j] - z0;
    ddx -= mik.L[0] * std::nearbyint(ddx * mik.Linv[0]);
    ddy -= mik.L[1] * std::nearbyint(ddy * mik.Linv[1]);
    ddz -= mik.L[2] * std::nearbyint(ddz * mik.Linv[2]);
    d[j] = std::sqrt(ddx * ddx + ddy * ddy + ddz * ddz);
    dx[j] = ddx;
    dy[j] = ddy;
    dz[j] = ddz;
  }
}

/// memcmp-equality of the production row kernel and the reference, for
/// every source as the row origin plus far-outside origins (several
/// cells away, so the wraps cross more than one image).
template<typename TR>
void check_row_kernel(const Lattice& lat, const std::string& name, int n)
{
  const MinImageKernel<TR> mik(lat);
  RandomGenerator rng(static_cast<std::uint64_t>(31 + n));
  std::vector<TR> xs(n), ys(n), zs(n);
  for (int j = 0; j < n; ++j)
  {
    const auto r = lat.to_cart({rng.uniform(), rng.uniform(), rng.uniform()});
    xs[j] = static_cast<TR>(r[0]);
    ys[j] = static_cast<TR>(r[1]);
    zs[j] = static_cast<TR>(r[2]);
  }
  std::vector<TinyVector<double, 3>> origins;
  for (int j = 0; j < n; ++j)
    origins.push_back({static_cast<double>(xs[j]), static_cast<double>(ys[j]),
                       static_cast<double>(zs[j])});
  for (int t = 0; t < 8; ++t)
    origins.push_back(lat.to_cart({4 * rng.uniform() - 2, 4 * rng.uniform() - 2,
                                   4 * rng.uniform() - 2}));
  std::vector<TR> got(4 * n), want(4 * n);
  for (const auto& o : origins)
  {
    const TR x0 = static_cast<TR>(o[0]), y0 = static_cast<TR>(o[1]), z0 = static_cast<TR>(o[2]);
    TR* g = got.data();
    TR* r = want.data();
    if (lat.orthorhombic())
    {
      ortho_cell_row(mik, xs.data(), ys.data(), zs.data(), x0, y0, z0, n, g, g + n, g + 2 * n,
                     g + 3 * n);
      reference_ortho_row(mik, xs.data(), ys.data(), zs.data(), x0, y0, z0, n, r, r + n,
                          r + 2 * n, r + 3 * n);
    }
    else
    {
      general_cell_row(mik, xs.data(), ys.data(), zs.data(), x0, y0, z0, n, g, g + n, g + 2 * n,
                       g + 3 * n);
      reference_general_row(mik, xs.data(), ys.data(), zs.data(), x0, y0, z0, n, r, r + n,
                            r + 2 * n, r + 3 * n);
    }
    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(TR)), 0)
        << name << " n=" << n << " origin " << o[0] << " " << o[1] << " " << o[2];
  }
}

} // namespace

TEST(MinImageKernel, RoundHalfEvenMatchesNearbyintFloat) { check_round_half_even<float>(23); }

TEST(MinImageKernel, RoundHalfEvenMatchesNearbyintDouble) { check_round_half_even<double>(52); }

TEST(MinImageKernel, RowsMatchNearbyintKernelsBitwise)
{
  const Lattice graphite = workload_spec(Workload::Graphite).lattice;
  const Lattice nio = workload_spec(Workload::NiO32).lattice;
  ASSERT_FALSE(graphite.orthorhombic());
  ASSERT_TRUE(nio.orthorhombic());
  // A triclinic cell, every lattice component nonzero: every corner sum
  // of the general kernel rounds in all three components.
  const Lattice triclinic(std::array<TinyVector<double, 3>, 3>{
      TinyVector<double, 3>{5.1, 0.7, 0.3}, TinyVector<double, 3>{-1.9, 4.6, -0.4},
      TinyVector<double, 3>{0.5, -0.9, 6.2}});
  for (int n : {1, 7, 64, 257})
  {
    check_row_kernel<float>(graphite, "Graphite", n);
    check_row_kernel<double>(graphite, "Graphite", n);
    check_row_kernel<float>(nio, "NiO-32", n);
    check_row_kernel<double>(nio, "NiO-32", n);
    check_row_kernel<float>(triclinic, "triclinic", n);
    check_row_kernel<double>(triclinic, "triclinic", n);
  }
}

TEST(VirtualMoves, RowsMatchTempRowOfEachMove)
{
  // Virtual row q is the temp row make_move(k, vpos[q]) leaves, for
  // every table kind, and filling it disturbs neither the temp row nor
  // the committed rows.
  const int n = 18;
  for (const Lattice& lat : {Lattice::cubic(6.0), Lattice::hexagonal(4.65, 12.68)})
  {
    auto ions = make_ions<float>(3, 2, 6.0);
    ParticleSet<float> p("e", lat);
    p.add_species("u", -1.0);
    p.add_species("d", -1.0);
    p.create({n / 2, n / 2});
    RandomGenerator rng(41);
    randomize_positions(p, rng);
    p.add_table(std::make_unique<SoaDistanceTableAA<float>>(lat, n));
    p.add_table(std::make_unique<AosDistanceTableAA<float>>(lat, n));
    p.add_table(std::make_unique<SoaDistanceTableAB<float>>(lat, *ions, n));
    p.add_table(std::make_unique<AosDistanceTableAB<float>>(lat, *ions, n));
    p.update();
    const int k = 7;
    std::vector<TinyVector<double, 3>> vpos;
    for (int q = 0; q < 5; ++q)
      vpos.push_back(p.pos(k) + TinyVector<double, 3>{0.3 * q - 0.6, 0.7 - 0.2 * q, 0.1 * q});
    p.make_move(k, p.pos(k) + TinyVector<double, 3>{0.05, 0.05, 0.05});
    std::vector<std::vector<float>> temp_before, row_before;
    for (int t = 0; t < p.num_tables(); ++t)
    {
      const auto& dt = p.table(t);
      temp_before.emplace_back(dt.temp_r(), dt.temp_r() + dt.num_sources());
      const float* d = dt.row(p, 2).d;
      row_before.emplace_back(d, d + dt.num_sources());
    }
    p.make_virtual_moves(k, vpos.data(), static_cast<int>(vpos.size()));
    for (int t = 0; t < p.num_tables(); ++t)
    {
      const auto& dt = p.table(t);
      const std::size_t bytes = dt.num_sources() * sizeof(float);
      EXPECT_EQ(std::memcmp(dt.temp_r(), temp_before[t].data(), bytes), 0) << "table " << t;
      EXPECT_EQ(std::memcmp(dt.row(p, 2).d, row_before[t].data(), bytes), 0) << "table " << t;
    }
    std::vector<std::vector<float>> virt(p.num_tables() * vpos.size());
    for (int t = 0; t < p.num_tables(); ++t)
      for (std::size_t q = 0; q < vpos.size(); ++q)
      {
        const float* v = p.table(t).virtual_distances(static_cast<int>(q));
        virt[t * vpos.size() + q].assign(v, v + p.table(t).num_sources());
      }
    p.reject_move(k);
    for (std::size_t q = 0; q < vpos.size(); ++q)
    {
      p.make_move(k, vpos[q]);
      for (int t = 0; t < p.num_tables(); ++t)
      {
        const auto& dt = p.table(t);
        EXPECT_EQ(std::memcmp(dt.temp_r(), virt[t * vpos.size() + q].data(),
                              dt.num_sources() * sizeof(float)),
                  0)
            << "table " << t << " point " << q;
      }
      p.reject_move(k);
    }
  }
}
