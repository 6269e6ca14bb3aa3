// Unit tests: every committed spec file (specs/*.json, hand-edited
// source) must describe a physically sane geometry, and the paper's
// Table 1 columns beside the four paper specs must match them.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>

#include "config/config.h"
#include "io/job_spec.h"
#include "test_utils.h"
#include "workloads/workloads.h"

using namespace qmcxx;
using namespace qmcxx::testing;

namespace
{

SystemSpec load(const std::string& path)
{
  return io::parse_system_spec(io::read_text_file(path), path);
}

std::string stem(const std::string& path)
{
  return std::filesystem::path(path).stem().string();
}

} // namespace

class SpecGeometry : public ::testing::TestWithParam<std::string> // spec file path
{};

TEST_P(SpecGeometry, ElectronCountMatchesIonCharges)
{
  const SystemSpec s = load(GetParam());
  double total_charge = 0;
  for (std::size_t k = 0; k < s.species.size(); ++k)
    total_charge += s.species[k].charge * s.ion_counts[k];
  EXPECT_EQ(s.num_electrons, static_cast<int>(total_charge)) << s.name;
}

TEST_P(SpecGeometry, IonCountsConsistent)
{
  const SystemSpec s = load(GetParam());
  ASSERT_EQ(s.ion_counts.size(), s.species.size());
  int total = 0;
  for (int c : s.ion_counts)
  {
    EXPECT_GT(c, 0) << s.name;
    total += c;
  }
  EXPECT_EQ(static_cast<std::size_t>(total), s.ion_positions.size()) << s.name;
}

TEST_P(SpecGeometry, OrbitalsFillTheLargerSpinDeterminant)
{
  const SystemSpec s = load(GetParam());
  EXPECT_GE(s.num_orbitals, (s.num_electrons + 1) / 2) << s.name;
}

TEST_P(SpecGeometry, IonsInsideCellAndSeparated)
{
  const SystemSpec s = load(GetParam());
  // All ions fold into the unit cube.
  for (const auto& r : s.ion_positions)
  {
    const auto u = s.lattice.to_unit_folded(r);
    for (unsigned d = 0; d < 3; ++d)
    {
      EXPECT_GE(u[d], 0.0);
      EXPECT_LT(u[d], 1.0);
    }
  }
  // No two ions closer than 1.5 bohr (minimum image).
  double min_dist = 1e9;
  for (std::size_t i = 0; i < s.ion_positions.size(); ++i)
    for (std::size_t j = i + 1; j < s.ion_positions.size(); ++j)
      min_dist = std::min(min_dist,
                          norm(s.lattice.min_image(s.ion_positions[j] - s.ion_positions[i])));
  EXPECT_GT(min_dist, 1.5) << s.name;
}

TEST_P(SpecGeometry, CutoffsInsideWignerSeitzRadius)
{
  const SystemSpec s = load(GetParam());
  EXPECT_GT(s.lattice.wigner_seitz_radius(), 1.5);
  for (const auto& sp : s.species)
  {
    EXPECT_GT(sp.j1_width, 0);
    if (sp.nl_amplitude != 0)
    {
      EXPECT_LT(sp.nl_rcut, s.lattice.wigner_seitz_radius()) << s.name << " " << sp.name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CommittedSpecs, SpecGeometry,
                         ::testing::ValuesIn(committed_spec_paths()),
                         [](const ::testing::TestParamInfo<std::string>& pinfo) {
                           std::string name = stem(pinfo.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST(Workloads, PaperTable1Values)
{
  // Pin Table 1: the paper-only columns of the table beside the enum,
  // and the columns the committed specs give. The two sources must
  // agree: cells times ions per cell is the ion count, and the ion
  // types are the species with their valence charges.
  struct Row
  {
    Workload w;
    const char* name;
    int electrons;
    std::size_t ions;
    int ions_per_cell;
    int cells;
    const char* ion_types;
    int unique_spos;
    const char* fft_grid;
    double spline_gb;
    bool pseudopotential;
  };
  const Row rows[] = {
      {Workload::Graphite, "Graphite", 256, 64, 4, 16, "C(4)", 80, "28x28x80", 0.1, true},
      {Workload::Be64, "Be-64", 256, 64, 2, 32, "Be(4)", 81, "84x84x144", 1.4, false},
      {Workload::NiO32, "NiO-32", 384, 32, 4, 8, "Ni(18), O(6)", 144, "80x80x80", 1.3, true},
      {Workload::NiO64, "NiO-64", 768, 64, 4, 16, "Ni(18), O(6)", 240, "80x80x80", 2.1, true},
  };
  for (const Row& r : rows)
  {
    const PaperWorkload& p = paper_workload(r.w);
    const SystemSpec s = workload_spec(r.w);
    EXPECT_EQ(s.name, r.name);
    EXPECT_EQ(s.num_electrons, r.electrons) << r.name;
    EXPECT_EQ(s.ion_positions.size(), r.ions) << r.name;
    EXPECT_EQ(s.has_pseudopotential, r.pseudopotential) << r.name;
    EXPECT_EQ(p.ions_per_unit_cell, r.ions_per_cell) << r.name;
    EXPECT_EQ(p.num_unit_cells, r.cells) << r.name;
    EXPECT_STREQ(p.ion_types, r.ion_types) << r.name;
    EXPECT_EQ(p.unique_spos, r.unique_spos) << r.name;
    EXPECT_STREQ(p.fft_grid, r.fft_grid) << r.name;
    EXPECT_EQ(p.spline_gb, r.spline_gb) << r.name;
    EXPECT_EQ(s.ion_positions.size(),
              static_cast<std::size_t>(p.ions_per_unit_cell * p.num_unit_cells))
        << r.name;
    std::string types;
    for (const IonSpecies& sp : s.species)
      types += (types.empty() ? "" : ", ") + sp.name + "(" +
          std::to_string(static_cast<int>(sp.charge)) + ")";
    EXPECT_EQ(types, p.ion_types) << r.name;
  }
}

TEST(Workloads, NiOIsRocksalt)
{
  // Every Ni must have O as nearest neighbours at a0/2.
  const SystemSpec s = workload_spec(Workload::NiO32);
  const int n_ni = s.ion_counts[0];
  const double a_half = 7.89 / 2.0;
  for (int i = 0; i < n_ni; ++i)
  {
    double nearest_o = 1e9;
    for (std::size_t j = n_ni; j < s.ion_positions.size(); ++j)
      nearest_o = std::min(nearest_o,
                           norm(s.lattice.min_image(s.ion_positions[j] - s.ion_positions[i])));
    EXPECT_NEAR(nearest_o, a_half, 1e-9) << i;
  }
}

TEST(Workloads, HexagonalCellsForGraphiteAndBe)
{
  EXPECT_FALSE(workload_spec(Workload::Graphite).lattice.orthorhombic());
  EXPECT_FALSE(workload_spec(Workload::Be64).lattice.orthorhombic());
  EXPECT_TRUE(workload_spec(Workload::NiO32).lattice.orthorhombic());
  EXPECT_TRUE(workload_spec(Workload::NiO64).lattice.orthorhombic());
}

TEST(Workloads, SplineTableOrderingMatchesPaper)
{
  // The paper's spline tables order Graphite < NiO-32 ~ Be-64 < NiO-64;
  // the scaled qmcxx grids preserve Graphite smallest / NiO-64 largest.
  auto bytes = [](Workload w) {
    const SystemSpec s = workload_spec(w);
    return static_cast<std::size_t>(s.grid[0] + 3) * (s.grid[1] + 3) * (s.grid[2] + 3) *
        getAlignedSize<float>(s.num_orbitals);
  };
  EXPECT_LT(bytes(Workload::Graphite), bytes(Workload::Be64));
  EXPECT_LT(bytes(Workload::Graphite), bytes(Workload::NiO32));
  EXPECT_LT(bytes(Workload::NiO32), bytes(Workload::NiO64));
  EXPECT_LT(bytes(Workload::Be64), bytes(Workload::NiO64));
}
