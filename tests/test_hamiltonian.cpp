// Unit tests: Ewald summation (Madelung constants, consistency
// identities), Coulomb components and the non-local pseudopotential
// quadrature, plus the measurement's once-only pair work: the NLPP fan's
// virtual rows and the shared electron structure factor, each pinned
// bitwise to the path it replaced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "hamiltonian/coulomb.h"
#include "hamiltonian/ewald.h"
#include "hamiltonian/pseudopotential.h"
#include "test_utils.h"
#include "wavefunction/trial_wavefunction.h"
#include "workloads/system_builder.h"
#include "workloads/workloads.h"

using namespace qmcxx;
using namespace qmcxx::testing;

namespace
{
using Pos = TinyVector<double, 3>;
}

TEST(Ewald, NaClMadelungConstant)
{
  // Rocksalt with nearest-neighbor distance 1: energy per ion pair is
  // -M_NaCl = -1.747564594...
  const double a0 = 2.0; // conventional cell; nn distance = 1
  const Lattice lat = Lattice::cubic(a0);
  std::vector<Pos> r = {{0, 0, 0},     {1, 1, 0},     {1, 0, 1},     {0, 1, 1},   // +
                        {1, 0, 0},     {0, 1, 0},     {0, 0, 1},     {1, 1, 1}};  // -
  std::vector<double> q = {1, 1, 1, 1, -1, -1, -1, -1};
  EwaldSum ewald(lat, 1e-10);
  const double e = ewald.energy(r, q);
  const double madelung = -e / 4.0; // 4 ion pairs, r_nn = 1
  EXPECT_NEAR(madelung, 1.7475645946, 1e-6);
}

TEST(Ewald, CsClMadelungConstant)
{
  // CsCl structure: simple cubic of +, body center -; Madelung constant
  // referred to the nearest-neighbor distance sqrt(3)/2 a: 1.76267...
  const Lattice lat = Lattice::cubic(1.0);
  std::vector<Pos> r = {{0, 0, 0}, {0.5, 0.5, 0.5}};
  std::vector<double> q = {1, -1};
  EwaldSum ewald(lat, 1e-10);
  const double e = ewald.energy(r, q);
  const double r_nn = std::sqrt(3.0) / 2.0;
  EXPECT_NEAR(-e * r_nn, 1.76267477, 1e-6);
}

TEST(Ewald, ToleranceConvergence)
{
  const Lattice lat = Lattice::cubic(3.7);
  RandomGenerator rng(3);
  std::vector<Pos> r;
  std::vector<double> q;
  for (int i = 0; i < 10; ++i)
  {
    r.push_back(Pos{rng.uniform(0, 3.7), rng.uniform(0, 3.7), rng.uniform(0, 3.7)});
    q.push_back(i % 2 == 0 ? 1.0 : -1.0);
  }
  const double e6 = EwaldSum(lat, 1e-6).energy(r, q);
  const double e10 = EwaldSum(lat, 1e-10).energy(r, q);
  EXPECT_NEAR(e6, e10, 1e-4 * std::abs(e10) + 1e-5);
}

TEST(Ewald, TranslationInvariance)
{
  const Lattice lat = Lattice::cubic(4.2);
  RandomGenerator rng(9);
  std::vector<Pos> r;
  std::vector<double> q;
  for (int i = 0; i < 8; ++i)
  {
    r.push_back(Pos{rng.uniform(0, 4.2), rng.uniform(0, 4.2), rng.uniform(0, 4.2)});
    q.push_back(i % 2 == 0 ? 1.0 : -1.0);
  }
  EwaldSum ewald(lat, 1e-8);
  const double e0 = ewald.energy(r, q);
  const Pos shift{1.234, -0.77, 2.5};
  for (auto& ri : r)
    ri += shift;
  EXPECT_NEAR(ewald.energy(r, q), e0, 1e-8 * std::abs(e0) + 1e-9);
}

TEST(Ewald, InteractionDecomposition)
{
  // E(A u B) = E(A) + E(B) + E_int(A,B).
  const Lattice lat = Lattice::cubic(5.0);
  RandomGenerator rng(17);
  std::vector<Pos> ra, rb, rall;
  std::vector<double> qa, qb, qall;
  for (int i = 0; i < 6; ++i)
  {
    ra.push_back(Pos{rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)});
    qa.push_back(-1.0);
  }
  for (int i = 0; i < 3; ++i)
  {
    rb.push_back(Pos{rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)});
    qb.push_back(2.0);
  }
  rall = ra;
  rall.insert(rall.end(), rb.begin(), rb.end());
  qall = qa;
  qall.insert(qall.end(), qb.begin(), qb.end());
  EwaldSum ewald(lat, 1e-9);
  const double e_all = ewald.energy(rall, qall);
  const double e_parts =
      ewald.energy(ra, qa) + ewald.energy(rb, qb) + ewald.interaction_energy(ra, qa, rb, qb);
  EXPECT_NEAR(e_all, e_parts, 1e-7 * std::abs(e_all) + 1e-8);
}

TEST(NonLocalPP, VanishesForConstantWavefunction)
{
  // With no wavefunction components every ratio is 1, and the l = 1
  // angular quadrature integrates P_1 exactly to zero.
  auto ions = make_ions<double>(2, 2, 6.0);
  auto elec = make_electrons<double>(6, 6, 6.0);
  const int ti =
      elec->add_table(std::make_unique<SoaDistanceTableAB<double>>(elec->lattice(), *ions, 12));
  elec->update();
  TrialWaveFunction<double> twf(12);

  std::vector<NLChannel> channels = {NLChannel{1, 2.0, 1.0, 5.0}, NLChannel{1, 1.0, 0.8, 5.0}};
  NonLocalPP<double> nlpp(*ions, channels, ti);
  const double e = nlpp.evaluate(*elec, twf);
  EXPECT_NEAR(e, 0.0, 1e-10);
}

TEST(NonLocalPP, RespectsCutoff)
{
  // Zero when all electrons are farther than rcut from every ion.
  Lattice lat = Lattice::cubic(20.0);
  ParticleSet<double> ions("ion", lat);
  ions.add_species("A", 4.0);
  ions.create({1});
  ions.set_pos(0, {0, 0, 0});
  ParticleSet<double> elec("e", lat);
  elec.add_species("u", -1.0);
  elec.create({2});
  elec.set_pos(0, {8, 8, 8});
  elec.set_pos(1, {9, 2, 9});
  const int ti = elec.add_table(std::make_unique<SoaDistanceTableAB<double>>(lat, ions, 2));
  elec.update();
  TrialWaveFunction<double> twf(2);
  NonLocalPP<double> nlpp(ions, {NLChannel{1, 3.0, 1.0, 1.5}}, ti);
  EXPECT_EQ(nlpp.evaluate(elec, twf), 0.0);
}

TEST(CoulombII, ConstantAndNegativeForNeutralCrystal)
{
  // Rocksalt-like ion lattice: the Madelung energy is negative.
  Lattice lat = Lattice::cubic(4.0);
  ParticleSet<double> ions("ion", lat);
  ions.add_species("A", 1.0);
  ions.add_species("B", -1.0);
  ions.create({4, 4});
  const std::vector<TinyVector<double, 3>> pos = {{0, 0, 0}, {2, 2, 0}, {2, 0, 2}, {0, 2, 2},
                                                  {2, 0, 0}, {0, 2, 0}, {0, 0, 2}, {2, 2, 2}};
  ions.set_positions(pos);
  CoulombII<double> cii(ions);
  ParticleSet<double> dummy_e("e", lat);
  TrialWaveFunction<double> twf(0);
  const double e1 = cii.evaluate(dummy_e, twf);
  const double e2 = cii.evaluate(dummy_e, twf);
  EXPECT_LT(e1, 0.0);
  EXPECT_EQ(e1, e2);
}

TEST(CoulombEI, CoreRegularizationReducesSingularity)
{
  // With the erf-regularized core, the e-i energy near an ion stays
  // finite and above the bare -Z/r value.
  Lattice lat = Lattice::cubic(8.0);
  ParticleSet<double> ions("ion", lat);
  ions.add_species("A", 6.0);
  ions.create({1});
  ions.set_pos(0, {4, 4, 4});
  ParticleSet<double> elec("e", lat);
  elec.add_species("u", -1.0);
  elec.create({1});
  elec.set_pos(0, {4.001, 4, 4}); // nearly on top of the ion
  const int table_ei = elec.add_table(std::make_unique<SoaDistanceTableAB<double>>(lat, ions, 1));
  elec.update();
  TrialWaveFunction<double> twf(1);

  CoulombEI<double> bare(ions, {0.0}, table_ei);
  CoulombEI<double> soft(ions, {0.8}, table_ei);
  const double e_bare = bare.evaluate(elec, twf);
  const double e_soft = soft.evaluate(elec, twf);
  EXPECT_LT(e_bare, -1000.0); // -Z/r with r = 1e-3
  EXPECT_GT(e_soft, -100.0);  // erf regularized
}

// ---------------------------------------------------------------------
// NLPP fan: one table row per quadrature point, bitwise the scalar sweep
// ---------------------------------------------------------------------

namespace
{

bool same_bits(double a, double b)
{
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

template<typename TR>
QMCSystem<TR> measured_system(Workload w, bool soa)
{
  BuildOptions opt;
  opt.soa_layout = soa;
  QMCSystem<TR> sys = build_system<TR>(workload_spec(w), opt);
  sys.elec->update();
  sys.twf->evaluate_log(*sys.elec);
  return sys;
}

/// The quadrature fan NonLocalPP stages for electron i about ion a
/// (radius r = |r_ia|, directions quad.points), or empty when the pair
/// is outside the ion's channel.
template<typename TR>
std::vector<Pos> nlpp_fan(const QMCSystem<TR>& sys, const SystemSpec& spec, int i, int a,
                          const SphericalQuadrature& quad)
{
  const DTRowView<TR> row = sys.elec->table(sys.table_ei).row(*sys.elec, i);
  const auto& sp = spec.species[sys.ions->group_id(a)];
  const FullPrecReal r = static_cast<double>(row.d[a]);
  if (sp.nl_amplitude == 0.0 || r >= sp.nl_rcut)
    return {};
  const Pos to_ion{static_cast<double>(row.dx[a]), static_cast<double>(row.dy[a]),
                   static_cast<double>(row.dz[a])};
  std::vector<Pos> fan;
  for (const Pos& n : quad.points)
    fan.push_back(sys.elec->pos(i) + to_ion + r * n);
  return fan;
}

template<typename TR>
void check_fan_matches_scalar_sweep(Workload w, bool soa)
{
  QMCSystem<TR> sys = measured_system<TR>(w, soa);
  const SystemSpec spec = workload_spec(w);
  ParticleSet<TR>& p = *sys.elec;
  TrialWaveFunction<TR>& twf = *sys.twf;
  const SphericalQuadrature quad = make_spherical_quadrature(12);
  int fans = 0;
  for (int i = 0; i < p.size(); ++i)
    for (int a = 0; a < sys.ions->size(); ++a)
    {
      const std::vector<Pos> fan = nlpp_fan(sys, spec, i, a, quad);
      if (fan.empty())
        continue;
      ++fans;
      const int nq = static_cast<int>(fan.size());
      std::vector<double> batched(nq);
      twf.calc_ratios(p, i, fan.data(), nq, batched.data());
      for (int q = 0; q < nq; ++q)
      {
        p.make_move(i, fan[q]);
        const FullPrecReal scalar = twf.calc_ratio(p, i);
        twf.reject_move(p, i);
        ASSERT_TRUE(same_bits(batched[q], scalar))
            << spec.name << " elec " << i << " ion " << a << " q " << q << ": " << batched[q]
            << " vs " << scalar;
      }
    }
  EXPECT_GT(fans, 0) << spec.name << ": no electron inside any nl_rcut";
}

} // namespace

TEST(NonLocalPP, FanRatiosMatchScalarSweepBitwise)
{
  for (Workload w : {Workload::Graphite, Workload::NiO32})
  {
    check_fan_matches_scalar_sweep<float>(w, true);
    check_fan_matches_scalar_sweep<double>(w, true);
    // The AoS engine: store-over-compute J1/J2 on AoS tables.
    check_fan_matches_scalar_sweep<float>(w, false);
    check_fan_matches_scalar_sweep<double>(w, false);
  }
}

TEST(NonLocalPP, FanComputesOneRowPerTablePerPoint)
{
  // Each quadrature point costs one ee and one ei row (one DistTable
  // scope each), shared by J1 and J2; the per-component make_move sweep
  // it replaced paid four.
  QMCSystem<float> sys = measured_system<float>(Workload::Graphite, true);
  const SystemSpec graphite = workload_spec(Workload::Graphite);
  const SphericalQuadrature quad = make_spherical_quadrature(12);
  std::uint64_t points = 0;
  for (int i = 0; i < sys.elec->size(); ++i)
    for (int a = 0; a < sys.ions->size(); ++a)
      points += nlpp_fan(sys, graphite, i, a, quad).size();
  ASSERT_GT(points, 0u);
  std::vector<NLChannel> channels;
  for (const auto& sp : graphite.species)
    channels.push_back(NLChannel{1, sp.nl_amplitude, sp.nl_width, sp.nl_rcut});
  NonLocalPP<float> nlpp(*sys.ions, channels, sys.table_ei, quad.size());

  TimerRegistry& timers = TimerRegistry::instance();
  const bool was_enabled = timers.enabled();
  timers.set_enabled(true);
  timers.reset();
  (void)nlpp.evaluate(*sys.elec, *sys.twf);
  const KernelTotals totals = timers.snapshot();
  timers.reset();
  timers.set_enabled(was_enabled);
  ASSERT_EQ(sys.elec->num_tables(), 2);
  EXPECT_EQ(totals.calls[static_cast<int>(Kernel::DistTable)], 2 * points);
}

// ---------------------------------------------------------------------
// Shared electron structure factor rho_e(k)
// ---------------------------------------------------------------------

namespace
{

template<typename TR>
void check_shared_rho_matches_vector_overloads(Workload w)
{
  QMCSystem<TR> sys = measured_system<TR>(w, true);
  ParticleSet<TR>& p = *sys.elec;
  const EwaldSum ew(p.lattice());
  const std::vector<double> q_e(p.size(), -1.0);
  std::vector<double> q_ion;
  for (int a = 0; a < sys.ions->size(); ++a)
    q_ion.push_back(sys.ions->species(sys.ions->group_id(a)).charge);
  const EwaldSum::FixedSetFactors ions = ew.precompute_fixed_set(sys.ions->positions(), q_ion);

  const auto& rho = electron_rho(ew, p);
  const FullPrecReal ee = ew.kspace_energy(rho.re.data(), rho.im.data());
  const FullPrecReal ei = ew.interaction_kspace(rho.re.data(), rho.im.data(), -p.size(), ions);
  const FullPrecReal ee_ref = ew.kspace_energy(p.positions(), q_e);
  const FullPrecReal ei_ref = ew.interaction_kspace_cached(p.positions(), q_e, ions);
  const std::string name = workload_spec(w).name + (sizeof(TR) == 4 ? " float" : " double");
  EXPECT_TRUE(same_bits(ee, ee_ref)) << name << ": " << ee << " vs " << ee_ref;
  EXPECT_TRUE(same_bits(ei, ei_ref)) << name << ": " << ei << " vs " << ei_ref;
}

/// CoulombEE + CoulombEI of `p`, each term on its own, in the order
/// the Hamiltonian evaluates them.
template<typename TR>
std::pair<double, double> coulomb_pair(const QMCSystem<TR>& sys, const SystemSpec& spec,
                                       ParticleSet<TR>& p)
{
  std::vector<double> r_core;
  for (const auto& sp : spec.species)
    r_core.push_back(sp.r_core);
  CoulombEE<TR> ee(p.lattice(), sys.table_ee);
  CoulombEI<TR> ei(*sys.ions, r_core, sys.table_ei);
  TrialWaveFunction<TR> none(p.size());
  const FullPrecReal e_ee = ee.evaluate(p, none);
  return {e_ee, ei.evaluate(p, none)};
}

} // namespace

TEST(CoulombKSpace, SharedRhoMatchesVectorOverloadsBitwise)
{
  for (Workload w : {Workload::Graphite, Workload::NiO32})
  {
    check_shared_rho_matches_vector_overloads<float>(w);
    check_shared_rho_matches_vector_overloads<double>(w);
  }
}

TEST(CoulombKSpace, CachedRhoIsNeverStale)
{
  // After every kind of position write the next Coulomb evaluation must
  // equal, bitwise, that of a freshly built set at the same positions.
  const SystemSpec graphite = workload_spec(Workload::Graphite);
  QMCSystem<float> sys = measured_system<float>(Workload::Graphite, true);
  QMCSystem<float> fresh = measured_system<float>(Workload::Graphite, true);
  ParticleSet<float>& p = *sys.elec;
  const auto expect_fresh = [&](ParticleSet<float>& set, const char* after) {
    fresh.elec->set_positions(set.positions());
    fresh.elec->update();
    const auto got = coulomb_pair(sys, graphite, set);
    const auto want = coulomb_pair(fresh, graphite, *fresh.elec);
    EXPECT_TRUE(same_bits(got.first, want.first)) << "CoulombEE after " << after;
    EXPECT_TRUE(same_bits(got.second, want.second)) << "CoulombEI after " << after;
  };
  expect_fresh(p, "build"); // fills p's cache

  p.prepare_move(3);
  p.make_move(3, p.pos(3) + Pos{0.3, -0.2, 0.1});
  p.accept_move(3);
  p.update(); // measurement state; leaves version() alone
  expect_fresh(p, "accept_move");

  p.set_pos(5, p.pos(5) + Pos{-0.25, 0.15, 0.2});
  p.update();
  expect_fresh(p, "set_pos");

  Walker w(p.size());
  p.store_walker(w);
  for (auto& r : w.R)
    r = r + Pos{0.05, 0.1, -0.05};
  p.load_walker(w);
  p.update();
  expect_fresh(p, "load_walker");

  // p's cache is current here; a clone must start its own.
  auto c = p.clone();
  c->update();
  expect_fresh(*c, "clone");
  c->set_pos(0, c->pos(0) + Pos{0.1, 0.1, 0.1});
  c->update();
  expect_fresh(*c, "set_pos on a clone");
  expect_fresh(p, "evaluating a clone");
}
