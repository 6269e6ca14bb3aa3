// Quickstart: build a small periodic system, assemble a Slater-Jastrow
// trial wavefunction, and run VMC then DMC with the Current (SoA, mixed
// precision) engine.
//
//   ./quickstart [--steps N] [--walkers N]
//
// Walks through the full public API surface: system description
// (SystemSpec, the in-code form of a specs/*.json file) -> system
// builder -> driver -> statistics.
#include <cstdio>
#include <cstring>
#include <string>

#include "drivers/qmc_driver_impl.h"
#include "workloads/system_builder.h"

using namespace qmcxx;

int main(int argc, char** argv)
{
  int steps = 10;
  int walkers = 8;
  for (int a = 1; a + 1 < argc; a += 2)
  {
    if (!std::strcmp(argv[a], "--steps"))
      steps = std::atoi(argv[a + 1]);
    else if (!std::strcmp(argv[a], "--walkers"))
      walkers = std::atoi(argv[a + 1]);
  }

  // 1. Describe a small periodic system: 4 ions (Z* = 4) in a 7 bohr
  //    cubic cell, 16 electrons, synthetic orbitals on a 10^3 grid.
  SystemSpec w;
  w.name = "quickstart";
  w.num_electrons = 16;
  w.has_pseudopotential = true;
  w.grid = {10, 10, 10};
  w.num_orbitals = 8;
  w.species = {{"X", 4.0, -0.4, 1.1, 0.6, 0.8, 0.9, 1.6}};
  w.ion_counts = {4};
  w.lattice = Lattice::cubic(7.0);
  w.ion_positions = {{1.75, 1.75, 1.75}, {5.25, 5.25, 1.75}, {5.25, 1.75, 5.25},
                     {1.75, 5.25, 5.25}};

  // 2. Build the system: SoA layout + float tables = the paper's
  //    "Current" configuration (BuildOptions{.soa_layout=false} gives
  //    the AoS "Ref" path; layout = LayoutMode::Reference keeps the SoA
  //    engine but swaps in the Fig. 6a AoS distance tables, which the
  //    parity tests use to prove the layouts chain-identical).
  BuildOptions opt;
  auto sys = build_system<float>(w, opt);
  std::printf("system: %d electrons, %d ions, %d orbitals/spin, cell V = %.1f bohr^3\n",
              sys.elec->size(), sys.ions->size(), sys.spos->num_orbitals(),
              w.lattice.volume());

  // 3. Run VMC to equilibrate, then DMC (paper Alg. 1).
  DriverConfig cfg;
  cfg.tau = 0.02;
  cfg.num_walkers = walkers;
  cfg.steps = steps;
  cfg.warmup_steps = steps / 4;
  cfg.seed = 42;
  QMCDriver<float> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();

  const RunResult vmc = driver.run_vmc();
  std::printf("\nVMC:  E = %10.4f Ha  sigma^2 = %8.3f  acceptance = %.1f%%  (%.1f samples/s)\n",
              vmc.mean_energy, vmc.mean_variance, 100 * vmc.mean_acceptance, vmc.throughput);

  const RunResult dmc = driver.run_dmc();
  std::printf("DMC:  E = %10.4f Ha  sigma^2 = %8.3f  acceptance = %.1f%%  (%.1f samples/s)\n",
              dmc.mean_energy, dmc.mean_variance, 100 * dmc.mean_acceptance, dmc.throughput);
  std::printf("      population trace:");
  for (std::size_t g = 0; g < dmc.generations.size(); g += std::max<std::size_t>(1, steps / 8))
    std::printf(" %d", dmc.generations[g].num_walkers);
  std::printf("\n\nDMC lowers the energy relative to VMC (fixed-node projection).\n");
  return 0;
}
