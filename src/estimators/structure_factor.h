// Static structure factor S(k) on the smallest reciprocal-lattice
// shells, from the electron density's Fourier components:
//
//   rho_k = sum_i exp(i k . r_i),   S(k) = |rho_k|^2 / N
//
// |rho_k|^2 = N + 2 sum_{i<j} cos(k . r_ij), so this is the pair sum
// 1 + (2/N) sum_{i<j} cos(k . dr_ij) in N n_k sin/cos pairs instead of
// N(N-1)/2 n_k cosines. Because every k is an exact reciprocal-lattice
// vector (integer combos of lattice.reciprocal_rows(), 2*pi included),
// exp(i k . L) = 1: any periodic image of a position gives the same
// rho_k, so the canonical positions are used as stored, unwrapped.
//
// The k-set is deterministic: candidates are enumerated on an integer
// cube, +/-k duplicates are collapsed (S(k) = S(-k)) keeping the
// lexicographically-positive triple, sorted by (|k|^2, n1, n2, n3), and
// the first num_kvecs kept. Ties in |k|^2 break on the integer triple,
// so the ordering is platform-independent. The cube is sized from
// num_kvecs plus one ring of margin; for strongly anisotropic cells a
// still-shorter k outside the cube could in principle be missed, which
// changes which shells are *watched*, not any reported value.
#ifndef QMCXX_ESTIMATORS_STRUCTURE_FACTOR_H
#define QMCXX_ESTIMATORS_STRUCTURE_FACTOR_H

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "containers/tiny_vector.h"
#include "estimators/estimator.h"
#include "particle/lattice.h"

namespace qmcxx
{

template<typename TR>
class StructureFactorEstimator : public Estimator<TR>
{
public:
  StructureFactorEstimator(const Lattice& lattice, int num_electrons, int num_kvecs)
      : n_(num_electrons)
  {
    // Smallest cube holding num_kvecs +/- collapsed candidates
    // (((2m+1)^3 - 1) / 2 of them), plus one ring of margin so shell
    // ordering near the cube surface is honest.
    int m = 1;
    while (((2 * m + 1) * (2 * m + 1) * (2 * m + 1) - 1) / 2 < num_kvecs)
      ++m;
    ++m;
    struct Candidate
    {
      FullPrecReal k2;
      int n1, n2, n3;
      TinyVector<FullPrecReal, 3> k;
    };
    const auto& b = lattice.reciprocal_rows();
    std::vector<Candidate> cands;
    for (int n1 = -m; n1 <= m; ++n1)
      for (int n2 = -m; n2 <= m; ++n2)
        for (int n3 = -m; n3 <= m; ++n3)
        {
          // Keep one of each +/-k pair: first nonzero index positive.
          const bool positive = n1 > 0 || (n1 == 0 && (n2 > 0 || (n2 == 0 && n3 > 0)));
          if (!positive)
            continue;
          TinyVector<FullPrecReal, 3> k;
          for (unsigned d = 0; d < 3; ++d)
            k[d] = static_cast<FullPrecReal>(n1) * b[0][d] +
                static_cast<FullPrecReal>(n2) * b[1][d] +
                static_cast<FullPrecReal>(n3) * b[2][d];
          cands.push_back(
              Candidate{k[0] * k[0] + k[1] * k[1] + k[2] * k[2], n1, n2, n3, k});
        }
    std::sort(cands.begin(), cands.end(), [](const Candidate& a, const Candidate& c) {
      return std::tie(a.k2, a.n1, a.n2, a.n3) < std::tie(c.k2, c.n1, c.n2, c.n3);
    });
    if (static_cast<int>(cands.size()) > num_kvecs)
      cands.resize(static_cast<std::size_t>(num_kvecs));
    for (const auto& c : cands)
      kvecs_.push_back(c.k);
  }

  std::string name() const override { return "sofk"; }
  int num_bins() const override { return static_cast<int>(kvecs_.size()); }
  const std::vector<TinyVector<FullPrecReal, 3>>& kvecs() const { return kvecs_; }

  void evaluate(const ParticleSet<TR>& elec, FullPrecReal* out) const override
  {
    const TR* x = elec.Rsoa().data(0);
    const TR* y = elec.Rsoa().data(1);
    const TR* z = elec.Rsoa().data(2);
    for (std::size_t ik = 0; ik < kvecs_.size(); ++ik)
    {
      const TinyVector<FullPrecReal, 3>& k = kvecs_[ik];
      FullPrecReal re = 0.0, im = 0.0;
      for (int i = 0; i < n_; ++i)
      {
        const FullPrecReal phase = k[0] * static_cast<FullPrecReal>(x[i]) +
            k[1] * static_cast<FullPrecReal>(y[i]) + k[2] * static_cast<FullPrecReal>(z[i]);
        re += std::cos(phase);
        im += std::sin(phase);
      }
      out[ik] = (re * re + im * im) / static_cast<FullPrecReal>(n_);
    }
  }

private:
  int n_;
  std::vector<TinyVector<FullPrecReal, 3>> kvecs_;
};

} // namespace qmcxx

#endif
