// Non-local pseudopotential via angular quadrature (paper Sec. 3):
//
//   V_NL Psi / Psi = sum_I sum_{i: r_iI < rcut} v_l(r_iI) (2l+1)
//                    sum_q w_q P_l(cos theta_q) Psi(..r_i -> r'_q..)/Psi
//
// Each quadrature point is a *virtual* particle move: the ratio
// evaluations are value-only (Eq. 4) and drive the Bspline-v hot spot of
// the paper's profiles. The synthetic radial channel v_l(r) =
// a exp(-(r/w)^2) substitutes for the workloads' tabulated
// norm-conserving channels (DESIGN.md).
#ifndef QMCXX_HAMILTONIAN_PSEUDOPOTENTIAL_H
#define QMCXX_HAMILTONIAN_PSEUDOPOTENTIAL_H

#include <cmath>
#include <memory>

#include "hamiltonian/hamiltonian.h"
#include "numerics/quadrature.h"
#include "particle/distance_table.h"

namespace qmcxx
{

/// One non-local channel for one ion species.
struct NLChannel
{
  int l = 1;          ///< angular momentum of the projector
  double amplitude = 0; ///< v_l(0) in hartree; 0 disables the channel
  double width = 1.0;   ///< gaussian radial width (bohr)
  double rcut = 1.0;    ///< interaction cutoff (bohr)

  double radial(double r) const { return amplitude * std::exp(-(r * r) / (width * width)); }
};

template<typename TR>
class NonLocalPP : public HamiltonianComponent<TR>
{
public:
  using Pos = TinyVector<double, 3>;

  /// channels: one per ion species; table_index: the electron-ion AB
  /// distance table inside the electron set.
  NonLocalPP(const ParticleSet<TR>& ions, std::vector<NLChannel> channels, int table_index,
             int quadrature_points = 12)
      : channels_(std::move(channels)), table_index_(table_index),
        quad_(make_spherical_quadrature(quadrature_points))
  {
    ion_species_.resize(ions.size());
    for (int i = 0; i < ions.size(); ++i)
      ion_species_[i] = ions.group_id(i);
  }

  std::string name() const override { return "NonLocalECP"; }

  double evaluate(ParticleSet<TR>& p, TrialWaveFunction<TR>& twf) override
  {
    const auto& dt = p.table(table_index_);
    const int nel = p.size();
    const int nion = static_cast<int>(ion_species_.size());
    // Member scratch for the electron's row snapshot: the AoS layout
    // serves row views from shared gather scratch, which the
    // virtual-move ratio calls below must not be allowed to invalidate
    // mid-quadrature.
    if (static_cast<int>(rd_.size()) < nion)
    {
      rd_.resize(nion);
      rdx_.resize(nion);
      rdy_.resize(nion);
      rdz_.resize(nion);
    }
    TR* __restrict rd = rd_.data();
    TR* __restrict rdx = rdx_.data();
    TR* __restrict rdy = rdy_.data();
    TR* __restrict rdz = rdz_.data();
    // Canonical SoA component rows of the electron positions, read
    // directly (one widen per electron, identical to the pos() gather).
    const TR* __restrict ex = p.Rsoa().data(0);
    const TR* __restrict ey = p.Rsoa().data(1);
    const TR* __restrict ez = p.Rsoa().data(2);
    FullPrecReal e_nl = 0.0;
    for (int i = 0; i < nel; ++i)
    {
      // One unit-stride row serves every ion's distance and quadrature
      // displacement for this electron (no per-pair virtual dispatch).
      const DTRowView<TR> row = dt.row(p, i);
      for (int a = 0; a < nion; ++a)
      {
        rd[a] = row.d[a];
        rdx[a] = row.dx[a];
        rdy[a] = row.dy[a];
        rdz[a] = row.dz[a];
      }
      const Pos r_i{static_cast<double>(ex[i]), static_cast<double>(ey[i]),
                    static_cast<double>(ez[i])};
      for (int a = 0; a < nion; ++a)
      {
        const NLChannel& ch = channels_[ion_species_[a]];
        if (ch.amplitude == 0.0)
          continue;
        const FullPrecReal r = static_cast<double>(rd[a]);
        if (r >= ch.rcut)
          continue;
        // Displacement from electron towards the (nearest image) ion.
        const Pos to_ion{static_cast<double>(rdx[a]), static_cast<double>(rdy[a]),
                         static_cast<double>(rdz[a])};
        const Pos e_hat = (-1.0 / r) * to_ion; // unit vector ion -> electron
        const FullPrecReal v_r = ch.radial(r);
        // Stage the whole angular fan (same radius r, new direction n_q
        // about the ion) and hand it to the wavefunction in one call:
        // each point's ee and ei rows are computed once for J1 and J2,
        // and the determinants batch the fan through
        // SPOSet::mw_evaluate_v (crowd-vectorized Bspline-v), with ratios
        // bitwise identical to the per-point
        // make_move/calc_ratio/reject_move sequence.
        const int nq = quad_.size();
        if (static_cast<int>(vpos_.size()) < nq)
        {
          vpos_.resize(nq);
          qratios_.resize(nq);
        }
        for (int q = 0; q < nq; ++q)
          vpos_[q] = r_i + to_ion + r * quad_.points[q];
        twf.calc_ratios(p, i, vpos_.data(), nq, qratios_.data());
        FullPrecReal angular = 0.0;
        for (int q = 0; q < nq; ++q)
        {
          const FullPrecReal cos_theta = dot(e_hat, quad_.points[q]);
          angular += quad_.weights[q] * legendre_p(ch.l, cos_theta) * qratios_[q];
        }
        e_nl += v_r * (2 * ch.l + 1) * angular;
      }
    }
    return e_nl;
  }

  std::unique_ptr<HamiltonianComponent<TR>> clone() const override
  {
    return std::make_unique<NonLocalPP<TR>>(*this);
  }

private:
  std::vector<NLChannel> channels_;
  int table_index_;
  SphericalQuadrature quad_;
  std::vector<int> ion_species_;
  std::vector<TR> rd_, rdx_, rdy_, rdz_; ///< per-evaluate row snapshot
  std::vector<Pos> vpos_;                ///< staged quadrature fan positions
  std::vector<double> qratios_;          ///< batched per-point ratios
};

} // namespace qmcxx

#endif
