// Pair-correlation function g(r): a radial histogram over the
// electron-electron distance table's committed rows, j < i only (the
// same unit-stride lower-triangle sweep CoulombEE does, paper Sec. 7.4),
// computed into the crowd slot's table scratch by the O(N) SoA table.
//
// Each walker sample is already normalized,
//   g_b = 2 V / (N (N-1) vol(shell_b)) * count_b,
// with the per-bin factor precomputed in the constructor, so the
// driver's weighted average over walkers and generations is directly
// the mean g(r) and bins stay O(1) regardless of system size.
#ifndef QMCXX_ESTIMATORS_PAIR_CORRELATION_H
#define QMCXX_ESTIMATORS_PAIR_CORRELATION_H

#include <algorithm>
#include <string>
#include <vector>

#include "estimators/estimator.h"
#include "particle/distance_table.h"
#include "particle/lattice.h"

namespace qmcxx
{

template<typename TR>
class PairCorrelationEstimator : public Estimator<TR>
{
public:
  PairCorrelationEstimator(const Lattice& lattice, int table_ee, int num_electrons,
                           int nbins, FullPrecReal rmax)
      : table_ee_(table_ee), n_(num_electrons), nbins_(nbins), rmax_(rmax),
        inv_dr_(static_cast<FullPrecReal>(nbins) / rmax)
  {
    constexpr FullPrecReal pi = 3.14159265358979323846;
    const FullPrecReal dr = rmax_ / static_cast<FullPrecReal>(nbins_);
    const FullPrecReal npairs =
        static_cast<FullPrecReal>(n_) * static_cast<FullPrecReal>(n_ - 1);
    norm_.resize(static_cast<std::size_t>(nbins_));
    for (int b = 0; b < nbins_; ++b)
    {
      const FullPrecReal r0 = static_cast<FullPrecReal>(b) * dr;
      const FullPrecReal r1 = r0 + dr;
      const FullPrecReal shell = 4.0 / 3.0 * pi * (r1 * r1 * r1 - r0 * r0 * r0);
      norm_[static_cast<std::size_t>(b)] = 2.0 * lattice.volume() / (npairs * shell);
    }
  }

  std::string name() const override { return "gofr"; }
  int num_bins() const override { return nbins_; }
  FullPrecReal rmax() const { return rmax_; }

  void evaluate(const ParticleSet<TR>& elec, FullPrecReal* out) const override
  {
    std::fill(out, out + nbins_, FullPrecReal(0));
    const auto& dt = elec.table(table_ee_);
    for (int i = 1; i < n_; ++i)
    {
      const TR* __restrict d = dt.row_distances(elec, i);
      for (int j = 0; j < i; ++j)
      {
        const FullPrecReal r = static_cast<FullPrecReal>(d[j]);
        if (r < rmax_)
        {
          // min() absorbs the r ~ rmax rounding edge where
          // r * inv_dr_ lands exactly on nbins.
          const int b = std::min(static_cast<int>(r * inv_dr_), nbins_ - 1);
          out[b] += norm_[static_cast<std::size_t>(b)];
        }
      }
    }
  }

private:
  int table_ee_;
  int n_;
  int nbins_;
  FullPrecReal rmax_;
  FullPrecReal inv_dr_;
  std::vector<FullPrecReal> norm_; ///< per-bin 2V/(N(N-1) shell_vol)
};

} // namespace qmcxx

#endif
