// Ewald summation for periodic point-charge Coulomb interactions.
//
// The electron-electron and ion-ion Coulomb terms of the local energy
// (paper Eq. 7) are conditionally convergent sums in periodic boundary
// conditions; Ewald splits them into a short-range real-space part
// (erfc-screened, minimum image) and a smooth reciprocal-space part,
// plus self-interaction and neutralizing-background corrections.
#ifndef QMCXX_HAMILTONIAN_EWALD_H
#define QMCXX_HAMILTONIAN_EWALD_H

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "containers/tiny_vector.h"
#include "particle/lattice.h"

namespace qmcxx
{

class EwaldSum
{
public:
  using Pos = TinyVector<double, 3>;

  /// tolerance controls the truncation of both sums; the real-space
  /// cutoff is the Wigner-Seitz radius so that only the nearest image
  /// enters the erfc sum.
  explicit EwaldSum(const Lattice& lattice, double tolerance = 1e-5);

  double alpha() const { return alpha_; }
  double rcut() const { return rcut_; }
  int num_kvectors() const { return static_cast<int>(kindex_.size()); }
  /// Content key of the k-vector set (reciprocal rows, ranges, indices):
  /// equal keys give bitwise-equal structure factors, so Coulomb terms
  /// holding separate EwaldSums of one cell share a cached rho(k).
  std::uint64_t kset_key() const { return kset_key_; }

  /// Total Coulomb energy of charges q at positions r (same length).
  double energy(const std::vector<Pos>& r, const std::vector<double>& q) const;

  /// Screened real-space pair potential erfc(alpha r)/r for a
  /// minimum-image distance r already in hand (e.g. a distance-table
  /// row entry); zero beyond the real-space cutoff. Summing this over
  /// i < j pairs with q_i q_j weights reproduces the real-space part of
  /// energy() exactly.
  double real_space_term(double r) const
  {
    return r < rcut_ ? std::erfc(alpha_ * r) / r : 0.0;
  }

  /// Reciprocal-space part of energy() alone.
  double kspace_energy(const std::vector<Pos>& r, const std::vector<double>& q) const;

  /// Structure factor rho[k] = sum_i q e^{i k . r_i} of n particles of
  /// charge q, from SoA position rows, into rho_re/rho_im (one slot per
  /// k-vector). The particle loop is outermost and the k loop runs over
  /// contiguous n2 runs in plain real arithmetic, so it vectorizes while
  /// every rho[k] still sums in particle order: bitwise the rho the
  /// std::vector<Pos> entry points build with all charges q.
  template<typename TR>
  void structure_factor(const TR* xs, const TR* ys, const TR* zs, std::size_t n, double q,
                        double* rho_re, double* rho_im) const;

  /// kspace_energy from a structure factor in hand.
  double kspace_energy(const double* rho_re, const double* rho_im) const;

  /// Self-interaction and neutralizing-background corrections of
  /// energy() (positions-independent): -e_self + e_background.
  double self_background(const std::vector<double>& q) const;

  /// Cross-term energy between two charge sets (used for the
  /// electron-ion interaction): E = sum_{i in A, j in B} q_i q_j v(r_ij)
  /// with the same Ewald decomposition.
  double interaction_energy(const std::vector<Pos>& ra, const std::vector<double>& qa,
                            const std::vector<Pos>& rb, const std::vector<double>& qb) const;

  /// Precomputed k-space structure factor of a *fixed* charge set (the
  /// ions): rho_b[k] = sum_j q_j exp(i k . r_j), plus the total charge.
  struct FixedSetFactors
  {
    std::vector<double> rho_re, rho_im;
    double q_sum = 0.0;
  };
  FixedSetFactors precompute_fixed_set(const std::vector<Pos>& rb,
                                       const std::vector<double>& qb) const;

  /// Reciprocal + background cross terms of interaction_energy with the
  /// B-set structure factor cached; callers supply the real-space pair
  /// sum from distance-table rows via real_space_term().
  double interaction_kspace_cached(const std::vector<Pos>& ra, const std::vector<double>& qa,
                                   const FixedSetFactors& fixed) const;

  /// interaction_kspace_cached from the A-set structure factor in hand;
  /// qa_sum is the A set's total charge.
  double interaction_kspace(const double* rho_re, const double* rho_im, double qa_sum,
                            const FixedSetFactors& fixed) const;

private:
  double real_space_pair(const Pos& a, const Pos& b) const;

  Lattice lattice_;
  double alpha_ = 1.0;
  double rcut_ = 1.0;
  int mmax_[3] = {0, 0, 0};                 ///< per-axis integer k range
  std::vector<std::array<int, 3>> kindex_;  ///< integer k-vector indices
  std::vector<double> kfac_; ///< 2 pi/V * exp(-k^2/4a^2)/k^2 per k-vector
  /// kindex_ as runs of consecutive n2 at fixed (n0, n1), in order.
  struct KRun
  {
    int n0, n1, n2, len;
  };
  std::vector<KRun> kruns_;
  std::uint64_t kset_key_ = 0;
};

} // namespace qmcxx

#endif
