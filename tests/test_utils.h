// Shared fixtures: small synthetic particle systems for unit tests, the
// 16-electron test system, the Slater-determinant system, the short-chain
// driver harness, and the bitwise chain and snapshot comparators.
#ifndef QMCXX_TESTS_TEST_UTILS_H
#define QMCXX_TESTS_TEST_UTILS_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "drivers/qmc_drivers.h"
#include "io/job_spec.h"
#include "numerics/linalg.h"
#include "numerics/rng.h"
#include "numerics/spline_builder.h"
#include "particle/distance_table_aos.h"
#include "particle/distance_table_soa.h"
#include "particle/lattice.h"
#include "particle/particle_set.h"
#include "wavefunction/delayed_update.h"
#include "wavefunction/dirac_determinant.h"
#include "wavefunction/spo_set.h"
#include "workloads/system_builder.h"
#include "workloads/system_spec.h"

namespace qmcxx::testing
{

/// Scatter n particles uniformly in the cell (deterministic).
template<typename TR>
void randomize_positions(ParticleSet<TR>& p, RandomGenerator& rng)
{
  for (int i = 0; i < p.size(); ++i)
  {
    const TinyVector<double, 3> u{rng.uniform(), rng.uniform(), rng.uniform()};
    p.set_pos(i, p.lattice().to_cart(u));
  }
}

/// Two-species electron set (up/down) in a cubic cell.
template<typename TR>
std::unique_ptr<ParticleSet<TR>> make_electrons(int nup, int ndown, double box,
                                                std::uint64_t seed = 7)
{
  auto p = std::make_unique<ParticleSet<TR>>("e", Lattice::cubic(box));
  p->add_species("u", -1.0);
  p->add_species("d", -1.0);
  p->create({nup, ndown});
  RandomGenerator rng(seed);
  randomize_positions(*p, rng);
  return p;
}

/// Two-species ion set in the same cell.
template<typename TR>
std::unique_ptr<ParticleSet<TR>> make_ions(int na, int nb, double box, std::uint64_t seed = 11)
{
  auto p = std::make_unique<ParticleSet<TR>>("ion", Lattice::cubic(box));
  p->add_species("A", 4.0);
  p->add_species("B", 6.0);
  p->create({na, nb});
  RandomGenerator rng(seed);
  randomize_positions(*p, rng);
  return p;
}

/// A short-ranged test functor: smooth well with cusp, cutoff rc.
template<typename TR>
std::shared_ptr<CubicBsplineFunctor<TR>> make_test_functor(double rc, double cusp = -0.5,
                                                           int knots = 10)
{
  return std::make_shared<CubicBsplineFunctor<TR>>(
      build_bspline_functor<TR>(ee_jastrow_shape(cusp, rc), cusp, rc, knots));
}

/// The 16-electron test system: four Z* = 4 ions in a 7 bohr cubic
/// cell, synthetic orbitals on a 10^3 grid, NLPP on.
inline SystemSpec tiny_spec()
{
  SystemSpec s;
  s.name = "Tiny";
  s.num_electrons = 16;
  s.grid = {10, 10, 10};
  s.num_orbitals = 8;
  s.has_pseudopotential = true;
  s.species = {{"X", 4.0, -0.4, 1.1, 0.6, 0.8, 0.9, 1.6}};
  s.ion_counts = {4};
  s.lattice = Lattice::cubic(7.0);
  s.ion_positions = {{1.75, 1.75, 1.75}, {5.25, 5.25, 1.75}, {5.25, 1.75, 5.25},
                     {1.75, 5.25, 5.25}};
  return s;
}

/// Sorted paths of every committed specs/*.json file.
inline std::vector<std::string> committed_spec_paths()
{
  return io::list_json_files(QMCXX_SPECS_DIR);
}

/// Driver settings of the short chains the driver-level tests compare:
/// tau 0.02, one thread, a from-scratch recompute every third
/// generation.
inline DriverConfig short_chain_config(std::uint64_t seed, int steps = 4, int walkers = 4,
                                       int crowd_size = DriverConfig{}.crowd_size,
                                       int delay_rank = 1)
{
  DriverConfig cfg;
  cfg.tau = 0.02;
  cfg.steps = steps;
  cfg.num_walkers = walkers;
  cfg.seed = seed;
  cfg.recompute_period = 3;
  cfg.num_threads = 1;
  cfg.crowd_size = crowd_size;
  cfg.delay_rank = delay_rank;
  return cfg;
}

/// Build `spec` with `opt` at cfg's delay rank, initialize a population
/// and run one VMC or DMC chain.
template<typename TR>
RunResult build_and_run(const SystemSpec& spec, const DriverConfig& cfg, bool dmc,
                        BuildOptions opt = {})
{
  opt.delay_rank = cfg.delay_rank;
  auto sys = build_system<TR>(spec, opt);
  QMCDriver<TR> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();
  return dmc ? driver.run_dmc() : driver.run_vmc();
}

/// The determinant tests' system: kNel same-spin electrons in a cube of
/// side kBox, with synthetic orbitals on a kGrid^3 grid.
namespace det_fixture
{

inline constexpr int kNel = 10;
inline constexpr double kBox = 5.5;
inline constexpr int kGrid = 10;

template<typename TR>
std::shared_ptr<SPOSet<TR>> make_spos(const Lattice& lat)
{
  auto backend = std::make_shared<MultiBspline3D<TR>>();
  fill_synthetic_orbitals<TR>(*backend, kGrid, kGrid, kGrid, kNel, /*seed=*/2026);
  return std::make_shared<BsplineSPOSetSoA<TR>>(lat, backend);
}

template<typename TR>
struct DetSystem
{
  std::unique_ptr<ParticleSet<TR>> p;
  std::shared_ptr<SPOSet<TR>> spos;
  std::unique_ptr<DiracDeterminant<TR>> det;
};

/// Positions scattered from `seed`, and a determinant over all kNel
/// electrons: rank-1 updates, or a Woodbury window when delay > 1.
template<typename TR = double>
DetSystem<TR> make_det_system(std::uint64_t seed = 31, int delay = 1)
{
  DetSystem<TR> s;
  s.p = std::make_unique<ParticleSet<TR>>("e", Lattice::cubic(kBox));
  s.p->add_species("u", -1.0);
  s.p->create({kNel});
  RandomGenerator rng(seed);
  randomize_positions(*s.p, rng);
  s.p->update();
  s.spos = make_spos<TR>(s.p->lattice());
  if (delay > 1)
    s.det = std::make_unique<DiracDeterminantDelayed<TR>>(s.spos, 0, kNel, delay);
  else
    s.det = std::make_unique<DiracDeterminant<TR>>(s.spos, 0, kNel);
  return s;
}

/// Log|det| and sign of the first nel electrons' Slater matrix, from
/// scratch by double LU.
inline void brute_logdet(SPOSet<double>& spos, const ParticleSet<double>& p, int nel,
                         double& logdet, double& sign)
{
  aligned_vector<double> psi(getAlignedSize<double>(nel));
  Matrix<double> a(nel, nel);
  for (int i = 0; i < nel; ++i)
  {
    spos.evaluate_v(p.pos(i), psi.data());
    for (int j = 0; j < nel; ++j)
      a(i, j) = psi[j];
  }
  Matrix<double> inv;
  linalg::invert_matrix(a, inv, logdet, sign);
}

/// Max |A A^-1 - I| of a determinant's transposed-inverse storage
/// against the current orbital matrix A(i,j) = phi_j(r_i).
template<typename TR>
double inverse_residual(SPOSet<TR>& spos, const ParticleSet<TR>& p,
                        const DiracDeterminant<TR>& det)
{
  const int n = det.size();
  aligned_vector<TR> psi(getAlignedSize<TR>(n));
  Matrix<double> a(n, n);
  for (int i = 0; i < n; ++i)
  {
    spos.evaluate_v(p.pos(det.first() + i), psi.data());
    for (int j = 0; j < n; ++j)
      a(i, j) = static_cast<double>(psi[j]);
  }
  const auto& minv = det.inverse_transposed();
  FullPrecReal maxerr = 0;
  // (A * A^-1)(i,j) = sum_k A(i,k) minv(j,k).
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
    {
      FullPrecReal sum = 0;
      for (int k = 0; k < n; ++k)
        sum += a(i, k) * static_cast<double>(minv(j, k));
      maxerr = std::max(maxerr, std::abs(sum - (i == j ? 1.0 : 0.0)));
    }
  return maxerr;
}

} // namespace det_fixture

inline ::testing::AssertionResult differs(const std::string& field, double x, double y)
{
  return ::testing::AssertionFailure() << field << " differs: " << ::testing::PrintToString(x)
                                       << " vs " << ::testing::PrintToString(y);
}

/// Bitwise identity of two generation sequences: energy, variance,
/// weight, walkers, acceptance, trial energy and the component energies
/// of every generation, compared with exact ==. The failure message
/// names the first field that differs.
inline ::testing::AssertionResult chains_bitwise(const std::vector<GenerationStats>& a,
                                                 const std::vector<GenerationStats>& b)
{
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << a.size() << " vs " << b.size() << " generations";
  for (std::size_t g = 0; g < a.size(); ++g)
  {
    const GenerationStats& x = a[g];
    const GenerationStats& y = b[g];
    const std::string gen = "generation " + std::to_string(g) + " ";
    if (x.energy != y.energy)
      return differs(gen + "energy", x.energy, y.energy);
    if (x.variance != y.variance)
      return differs(gen + "variance", x.variance, y.variance);
    if (x.weight != y.weight)
      return differs(gen + "weight", x.weight, y.weight);
    if (x.num_walkers != y.num_walkers)
      return differs(gen + "num_walkers", x.num_walkers, y.num_walkers);
    if (x.acceptance != y.acceptance)
      return differs(gen + "acceptance", x.acceptance, y.acceptance);
    if (x.trial_energy != y.trial_energy)
      return differs(gen + "trial_energy", x.trial_energy, y.trial_energy);
    if (x.component_energies != y.component_energies)
      return ::testing::AssertionFailure()
          << gen << "component_energies differ: "
          << ::testing::PrintToString(x.component_energies) << " vs "
          << ::testing::PrintToString(y.component_energies);
  }
  return ::testing::AssertionSuccess();
}

/// Bitwise identity of two runs: every generation and the run means.
inline ::testing::AssertionResult chains_bitwise(const RunResult& a, const RunResult& b)
{
  if (::testing::AssertionResult gens = chains_bitwise(a.generations, b.generations); !gens)
    return gens;
  if (a.mean_energy != b.mean_energy)
    return differs("mean_energy", a.mean_energy, b.mean_energy);
  if (a.mean_variance != b.mean_variance)
    return differs("mean_variance", a.mean_variance, b.mean_variance);
  return ::testing::AssertionSuccess();
}

inline void expect_chains_bitwise(const RunResult& a, const RunResult& b)
{
  EXPECT_TRUE(chains_bitwise(a, b));
}

/// Field-for-field, byte-for-byte identity of two snapshots.
inline void expect_snapshots_identical(const io::PopulationSnapshot& a,
                                       const io::PopulationSnapshot& b)
{
  EXPECT_EQ(a.precision_bytes, b.precision_bytes);
  EXPECT_EQ(a.workload_fingerprint, b.workload_fingerprint);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.master_seed, b.master_seed);
  EXPECT_EQ(a.tau, b.tau);
  EXPECT_EQ(a.trial_energy, b.trial_energy);
  EXPECT_EQ(std::memcmp(&a.branch_rng, &b.branch_rng, sizeof(a.branch_rng)), 0);
  EXPECT_EQ(a.num_particles, b.num_particles);
  ASSERT_EQ(a.walkers.size(), b.walkers.size());
  for (std::size_t i = 0; i < a.walkers.size(); ++i)
  {
    const io::WalkerSnapshot& wa = a.walkers[i];
    const io::WalkerSnapshot& wb = b.walkers[i];
    EXPECT_EQ(wa.id, wb.id);
    EXPECT_EQ(wa.parent_id, wb.parent_id);
    EXPECT_EQ(wa.weight, wb.weight);
    EXPECT_EQ(wa.multiplicity, wb.multiplicity);
    EXPECT_EQ(wa.local_energy, wb.local_energy);
    EXPECT_EQ(wa.old_local_energy, wb.old_local_energy);
    EXPECT_EQ(wa.log_psi, wb.log_psi);
    EXPECT_EQ(wa.age, wb.age);
    EXPECT_EQ(std::memcmp(&wa.rng, &wb.rng, sizeof(wa.rng)), 0);
    ASSERT_EQ(wa.R.size(), wb.R.size());
    EXPECT_EQ(std::memcmp(wa.R.data(), wb.R.data(), wa.R.size() * sizeof(Walker::Pos)), 0);
    EXPECT_EQ(wa.buffer, wb.buffer);
  }
}

/// Expect `fn()` to throw an `E` whose message contains `needle`.
template<typename E = std::runtime_error, typename Fn>
void expect_throw_with(Fn&& fn, const std::string& needle)
{
  try
  {
    fn();
    ADD_FAILURE() << "expected an exception mentioning '" << needle << "'";
  }
  catch (const E& e)
  {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
  }
}

} // namespace qmcxx::testing

#endif
