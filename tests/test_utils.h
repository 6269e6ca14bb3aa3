// Shared fixtures: small synthetic particle systems for unit tests, the
// 16-electron test system, and the bitwise chain comparator.
#ifndef QMCXX_TESTS_TEST_UTILS_H
#define QMCXX_TESTS_TEST_UTILS_H

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "drivers/qmc_drivers.h"
#include "io/job_spec.h"
#include "numerics/rng.h"
#include "numerics/spline_builder.h"
#include "particle/distance_table_aos.h"
#include "particle/distance_table_soa.h"
#include "particle/lattice.h"
#include "particle/particle_set.h"
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

} // namespace qmcxx::testing

#endif
