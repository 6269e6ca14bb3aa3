// Periodic Coulomb components of the local energy (paper Eq. 7).
//
//   CoulombEE  -- electron-electron Ewald energy (charge -1 each)
//   CoulombII  -- ion-ion Ewald energy (Z* charges); a constant for
//                 fixed ions, computed once
//   CoulombEI  -- electron-ion point-charge Ewald plus the short-range
//                 pseudopotential core correction that regularizes
//                 -Z*/r into -Z* erf(r/r_core)/r near each ion
//                 (substitution for the workloads' norm-conserving
//                 pseudopotential local channels, see DESIGN.md)
//
// CoulombEE and CoulombEI take the index of their distance table in the
// electron set: the real-space pair sums consume unit-stride committed
// rows -- the same minimum-image distances the rest of the engine uses --
// so the erfc loops vectorize and no AoS position vector is rebuilt per
// measurement. CoulombEE reads only the j < i part of each row, each
// pair once, which the O(N) SoA table computes on demand. The reciprocal-space parts share
// one electron structure factor rho_e(k) per configuration
// (electron_rho), summed from the canonical SoA rows by the vectorized
// EwaldSum::structure_factor and cached in the electron set.
#ifndef QMCXX_HAMILTONIAN_COULOMB_H
#define QMCXX_HAMILTONIAN_COULOMB_H

#include <cmath>
#include <memory>

#include "hamiltonian/ewald.h"
#include "hamiltonian/hamiltonian.h"
#include "instrument/timer.h"

namespace qmcxx
{

/// The electron structure factor rho_e(k) = sum_i (-1) e^{ik.r_i} of
/// p's current configuration over ew's k-vectors. It is summed once per
/// position version into p's cache slot, so CoulombEE and CoulombEI
/// share it, and it equals bitwise the rho the std::vector<Pos> Ewald
/// entry points build with unit negative charges.
template<typename TR>
const typename ParticleSet<TR>::StructureFactor& electron_rho(const EwaldSum& ew,
                                                              ParticleSet<TR>& p)
{
  auto& sk = p.structure_factor();
  if (sk.version != p.version() || sk.kset != ew.kset_key())
  {
    sk.re.resize(ew.num_kvectors());
    sk.im.resize(ew.num_kvectors());
    const auto& rs = p.Rsoa();
    ew.structure_factor(rs.data(0), rs.data(1), rs.data(2), static_cast<std::size_t>(p.size()),
                        -1.0, sk.re.data(), sk.im.data());
    sk.version = p.version();
    sk.kset = ew.kset_key();
  }
  return sk;
}

template<typename TR>
class CoulombEE : public HamiltonianComponent<TR>
{
public:
  /// table_ee: index of the electron-electron AA table in the electron
  /// set.
  explicit CoulombEE(const Lattice& lattice, int table_ee)
      : ewald_(std::make_shared<EwaldSum>(lattice)), table_ee_(table_ee)
  {}

  std::string name() const override { return "CoulombEE"; }

  double evaluate(ParticleSet<TR>& p, TrialWaveFunction<TR>& twf) override
  {
    (void)twf;
    const int n = p.size();
    if (charges_.size() != static_cast<std::size_t>(n))
      charges_.assign(n, -1.0);
    // Real-space pair sum over the committed AA rows, j < i: every
    // electron pair carries q_i q_j = 1, each row is unit-stride
    // (Sec. 7.4). The row itself is DistTable time, the sum Other.
    const auto& dt = p.table(table_ee_);
    const EwaldSum& ew = *ewald_;
    FullPrecReal e_real = 0.0;
    for (int i = 1; i < n; ++i)
    {
      const TR* __restrict d = dt.row_distances(p, i);
      ScopedTimer timer(Kernel::Other);
      FullPrecReal acc = 0.0;
#pragma omp simd reduction(+ : acc)
      for (int j = 0; j < i; ++j)
        acc += ew.real_space_term(static_cast<double>(d[j]));
      e_real += acc;
    }
    ScopedTimer timer(Kernel::Other);
    const auto& rho = electron_rho(ew, p);
    return e_real + ew.kspace_energy(rho.re.data(), rho.im.data()) + ew.self_background(charges_);
  }

  std::unique_ptr<HamiltonianComponent<TR>> clone() const override
  {
    auto c = std::make_unique<CoulombEE<TR>>(*this);
    return c;
  }

private:
  std::shared_ptr<EwaldSum> ewald_; // shared: read-only tables
  int table_ee_;
  std::vector<double> charges_;
};

template<typename TR>
class CoulombII : public HamiltonianComponent<TR>
{
public:
  /// Computes the (constant) ion-ion energy up front.
  explicit CoulombII(const ParticleSet<TR>& ions)
  {
    EwaldSum ewald(ions.lattice());
    std::vector<double> q(ions.size());
    for (int i = 0; i < ions.size(); ++i)
      q[i] = ions.species(ions.group_id(i)).charge;
    // Construction-time one-shot over the fixed ions: not a hot path.
    // qmcxx-lint: allow(aos-in-hot-path)
    energy_ = ewald.energy(ions.positions(), q);
  }

  std::string name() const override { return "CoulombII"; }
  double evaluate(ParticleSet<TR>&, TrialWaveFunction<TR>&) override { return energy_; }
  std::unique_ptr<HamiltonianComponent<TR>> clone() const override
  {
    return std::make_unique<CoulombII<TR>>(*this);
  }

private:
  FullPrecReal energy_;
};

template<typename TR>
class CoulombEI : public HamiltonianComponent<TR>
{
public:
  /// r_core per ion species (0 disables the core regularization, giving
  /// the bare -Z/r of an all-electron calculation like Be-64).
  /// table_ei: index of the electron-ion AB table in the electron set.
  CoulombEI(const ParticleSet<TR>& ions, const std::vector<double>& r_core, int table_ei)
      : ewald_(std::make_shared<EwaldSum>(ions.lattice())), table_ei_(table_ei)
  {
    ion_charge_.resize(ions.size());
    ion_rc_.resize(ions.size());
    for (int i = 0; i < ions.size(); ++i)
    {
      ion_charge_[i] = ions.species(ions.group_id(i)).charge;
      ion_rc_[i] = r_core[ions.group_id(i)];
    }
    // Ions never move: their k-space structure factor is a constant,
    // computed once at construction (not a hot path).
    ion_factors_ = std::make_shared<EwaldSum::FixedSetFactors>(
        // qmcxx-lint: allow(aos-in-hot-path)
        ewald_->precompute_fixed_set(ions.positions(), ion_charge_));
  }

  std::string name() const override { return "CoulombEI"; }

  double evaluate(ParticleSet<TR>& p, TrialWaveFunction<TR>& twf) override
  {
    (void)twf;
    ScopedTimer timer(Kernel::Other);
    const int n = p.size();
    // Real-space Ewald cross term and core correction from the
    // committed electron-ion rows (unit-stride per electron).
    const auto& dt = p.table(table_ei_);
    const EwaldSum& ew = *ewald_;
    const int m = static_cast<int>(ion_charge_.size());
    const double* __restrict zq = ion_charge_.data();
    const double* __restrict rc = ion_rc_.data();
    FullPrecReal e_real = 0.0, e_core = 0.0;
    for (int i = 0; i < n; ++i)
    {
      const TR* __restrict d = dt.row_distances(p, i);
      FullPrecReal acc_real = 0.0, acc_core = 0.0;
#pragma omp simd reduction(+ : acc_real, acc_core)
      for (int a = 0; a < m; ++a)
      {
        const FullPrecReal r = static_cast<double>(d[a]);
        // q_e q_I = -Z_a for the point-charge Ewald part; the core
        // correction adds +Z_a erfc(r/rc)/r near each regularized ion.
        acc_real += -zq[a] * ew.real_space_term(r);
        acc_core += (rc[a] > 0.0 && r < 6.0 * rc[a]) ? zq[a] * std::erfc(r / rc[a]) / r : 0.0;
      }
      e_real += acc_real;
      e_core += acc_core;
    }
    // Unit negative charges, as in electron_rho: their sum is exactly -n.
    const auto& rho = electron_rho(ew, p);
    const FullPrecReal q_sum = -static_cast<double>(n);
    return e_real + ew.interaction_kspace(rho.re.data(), rho.im.data(), q_sum, *ion_factors_) +
        e_core;
  }

  std::unique_ptr<HamiltonianComponent<TR>> clone() const override
  {
    return std::make_unique<CoulombEI<TR>>(*this);
  }

private:
  std::shared_ptr<EwaldSum> ewald_;
  std::shared_ptr<EwaldSum::FixedSetFactors> ion_factors_; // shared read-only
  int table_ei_;
  std::vector<double> ion_charge_;
  std::vector<double> ion_rc_; ///< per-ion core radius (gathered once)
};

} // namespace qmcxx

#endif
