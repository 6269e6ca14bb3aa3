// Assembles a complete QMC system (particles, trial wavefunction,
// Hamiltonian) from a SystemSpec under a given engine layout.
//
// This is the single place where the paper's three configurations are
// wired: layout (AoS vs SoA classes) and precision (the TR parameter)
// are chosen here, everything downstream is agnostic.
#ifndef QMCXX_WORKLOADS_SYSTEM_BUILDER_H
#define QMCXX_WORKLOADS_SYSTEM_BUILDER_H

#include <memory>

#include "config/config.h"
#include "hamiltonian/coulomb.h"
#include "hamiltonian/hamiltonian.h"
#include "hamiltonian/pseudopotential.h"
#include "instrument/memory_tracker.h"
#include "numerics/spline_builder.h"
#include "particle/distance_table_aos.h"
#include "particle/distance_table_soa.h"
#include "wavefunction/delayed_update.h"
#include "wavefunction/dirac_determinant.h"
#include "wavefunction/jastrow_one_body.h"
#include "wavefunction/jastrow_two_body.h"
#include "wavefunction/spo_set.h"
#include "wavefunction/trial_wavefunction.h"
#include "workloads/system_spec.h"

namespace qmcxx
{

template<typename TR>
struct QMCSystem
{
  std::unique_ptr<ParticleSet<TR>> ions;
  std::unique_ptr<ParticleSet<TR>> elec;
  std::shared_ptr<SPOSet<TR>> spos;
  std::unique_ptr<TrialWaveFunction<TR>> twf;
  std::unique_ptr<Hamiltonian<TR>> ham;
  int table_ee = -1;
  int table_ei = -1;
};

struct BuildOptions
{
  bool soa_layout = true;   ///< SoA engine (Jastrows/multi-spline) vs AoS Ref engine
  /// Distance-table layout for the SoA engine: Canonical (SoA rows) or
  /// Reference (Fig. 6a AoS tables consumed through the unified row
  /// interface -- parity tests and baseline benches only). The AoS Ref
  /// engine (soa_layout = false) always uses Reference tables.
  LayoutMode layout = LayoutMode::Canonical;
  bool with_hamiltonian = true;
  std::uint64_t seed = 20170708;
  DTUpdateMode dt_mode = DTUpdateMode::OnTheFly; ///< SoA AA policy
  /// Delayed (Woodbury) determinant updates (Sec. 8.4): accepted rows
  /// bind into a rank-`delay_rank` window applied as BLAS3 gemms.
  /// 1 selects the plain rank-1 Sherman-Morrison DiracDeterminant (the
  /// bitwise-identical legacy path); values > 1 build
  /// DiracDeterminantDelayed for both spin blocks.
  int delay_rank = 1;
};

template<typename TR>
QMCSystem<TR> build_system(const SystemSpec& spec, const BuildOptions& opt)
{
  QMCSystem<TR> sys;

  // ---- ions ------------------------------------------------------------
  sys.ions = std::make_unique<ParticleSet<TR>>("ion", spec.lattice);
  for (const auto& sp : spec.species)
    sys.ions->add_species(sp.name, sp.charge);
  sys.ions->create(spec.ion_counts);
  sys.ions->set_positions(spec.ion_positions);

  // ---- electrons: ion-centered gaussian clouds, spin-alternating -------
  const int n = spec.num_electrons;
  const int nhalf = n / 2;
  sys.elec = std::make_unique<ParticleSet<TR>>("e", spec.lattice);
  sys.elec->add_species("u", -1.0);
  sys.elec->add_species("d", -1.0);
  sys.elec->create({nhalf, n - nhalf});
  {
    // Uniform initial configuration: delocalized synthetic orbitals are
    // best-conditioned on spread-out electrons; ion-centered clusters
    // make the Slater matrix nearly singular for the heavy NiO cells.
    RandomGenerator rng(opt.seed ^ 0xe1ec7206u);
    for (int e = 0; e < n; ++e)
      sys.elec->set_pos(
          e, spec.lattice.to_cart(TinyVector<double, 3>{rng.uniform(), rng.uniform(), rng.uniform()}));
  }

  // ---- distance tables ---------------------------------------------------
  {
    MemoryScope scope("dist-tables");
    const bool canonical_tables = opt.soa_layout && opt.layout == LayoutMode::Canonical;
    if (canonical_tables)
    {
      sys.table_ee = sys.elec->add_table(
          std::make_unique<SoaDistanceTableAA<TR>>(spec.lattice, n, opt.dt_mode));
      sys.table_ei = sys.elec->add_table(
          std::make_unique<SoaDistanceTableAB<TR>>(spec.lattice, *sys.ions, n));
    }
    else
    {
      sys.table_ee = sys.elec->add_table(std::make_unique<AosDistanceTableAA<TR>>(spec.lattice, n));
      sys.table_ei = sys.elec->add_table(
          std::make_unique<AosDistanceTableAB<TR>>(spec.lattice, *sys.ions, n));
    }
    sys.elec->update();
  }

  // ---- single-particle orbitals -------------------------------------------
  {
    MemoryScope scope("spline-table");
    const auto [gx, gy, gz] = spec.grid;
    if (opt.soa_layout)
    {
      auto backend = std::make_shared<MultiBspline3D<TR>>();
      fill_synthetic_orbitals<TR>(*backend, gx, gy, gz, spec.num_orbitals, opt.seed);
      sys.spos = std::make_shared<BsplineSPOSetSoA<TR>>(spec.lattice, backend);
    }
    else
    {
      auto backend = std::make_shared<BsplineSetAoS<TR>>();
      fill_synthetic_orbitals<TR>(*backend, gx, gy, gz, spec.num_orbitals, opt.seed);
      sys.spos = std::make_shared<BsplineSPOSetAoS<TR>>(spec.lattice, backend);
    }
  }

  // ---- trial wavefunction ---------------------------------------------------
  {
    MemoryScope scope("wf-state");
    sys.twf = std::make_unique<TrialWaveFunction<TR>>(n);
    const FullPrecReal rw = spec.lattice.wigner_seitz_radius();
    const FullPrecReal rc_j2 = 0.99 * rw;
    auto f_uu = std::make_shared<CubicBsplineFunctor<TR>>(build_bspline_functor<TR>(
        ee_jastrow_shape(-0.25, rc_j2), -0.25, rc_j2, spec.jastrow_knots));
    auto f_ud = std::make_shared<CubicBsplineFunctor<TR>>(build_bspline_functor<TR>(
        ee_jastrow_shape(-0.5, rc_j2), -0.5, rc_j2, spec.jastrow_knots));
    if (opt.soa_layout)
    {
      auto j2 = std::make_unique<TwoBodyJastrowCurrent<TR>>(n, 2, sys.table_ee);
      j2->add_functor(0, 0, f_uu);
      j2->add_functor(1, 1, f_uu);
      j2->add_functor(0, 1, f_ud);
      sys.twf->add_component(std::move(j2));
      auto j1 = std::make_unique<OneBodyJastrowCurrent<TR>>(*sys.ions, n, sys.table_ei);
      for (std::size_t s = 0; s < spec.species.size(); ++s)
      {
        const auto& sp = spec.species[s];
        const FullPrecReal rc = std::min(rw * 0.99, 4.5);
        j1->add_functor(static_cast<int>(s),
                        std::make_shared<CubicBsplineFunctor<TR>>(build_bspline_functor<TR>(
                            ei_jastrow_shape(sp.j1_depth, sp.j1_width, rc), 0.0, rc,
                            spec.jastrow_knots)));
      }
      sys.twf->add_component(std::move(j1));
    }
    else
    {
      auto j2 = std::make_unique<TwoBodyJastrowRef<TR>>(n, 2, sys.table_ee);
      j2->add_functor(0, 0, f_uu);
      j2->add_functor(1, 1, f_uu);
      j2->add_functor(0, 1, f_ud);
      sys.twf->add_component(std::move(j2));
      auto j1 = std::make_unique<OneBodyJastrowRef<TR>>(*sys.ions, n, sys.table_ei);
      for (std::size_t s = 0; s < spec.species.size(); ++s)
      {
        const auto& sp = spec.species[s];
        const FullPrecReal rc = std::min(rw * 0.99, 4.5);
        j1->add_functor(static_cast<int>(s),
                        std::make_shared<CubicBsplineFunctor<TR>>(build_bspline_functor<TR>(
                            ei_jastrow_shape(sp.j1_depth, sp.j1_width, rc), 0.0, rc,
                            spec.jastrow_knots)));
      }
      sys.twf->add_component(std::move(j1));
    }
    auto make_determinant = [&](int first, int nel) -> std::unique_ptr<WaveFunctionComponent<TR>> {
      if (opt.delay_rank > 1)
        return std::make_unique<DiracDeterminantDelayed<TR>>(sys.spos, first, nel,
                                                             opt.delay_rank);
      return std::make_unique<DiracDeterminant<TR>>(sys.spos, first, nel);
    };
    sys.twf->add_component(make_determinant(0, nhalf));
    sys.twf->add_component(make_determinant(nhalf, n - nhalf));
  }

  // ---- Hamiltonian -----------------------------------------------------------
  if (opt.with_hamiltonian)
  {
    sys.ham = std::make_unique<Hamiltonian<TR>>();
    sys.ham->add_component(std::make_unique<KineticEnergy<TR>>());
    sys.ham->add_component(std::make_unique<CoulombEE<TR>>(spec.lattice, sys.table_ee));
    std::vector<double> r_core;
    for (const auto& sp : spec.species)
      r_core.push_back(sp.r_core);
    sys.ham->add_component(std::make_unique<CoulombEI<TR>>(*sys.ions, r_core, sys.table_ei));
    sys.ham->add_component(std::make_unique<CoulombII<TR>>(*sys.ions));
    if (spec.has_pseudopotential)
    {
      std::vector<NLChannel> channels;
      for (const auto& sp : spec.species)
        channels.push_back(NLChannel{1, sp.nl_amplitude, sp.nl_width, sp.nl_rcut});
      sys.ham->add_component(
          std::make_unique<NonLocalPP<TR>>(*sys.ions, channels, sys.table_ei));
    }
  }
  return sys;
}

} // namespace qmcxx

#endif
