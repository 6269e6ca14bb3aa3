// Convenience aggregator for the estimator layer plus the default set
// the engine attaches when a job asks for estimators: g(r) on 32 bins
// up to the Wigner-Seitz radius and S(k) on the 6 smallest
// reciprocal-lattice stars.
#ifndef QMCXX_ESTIMATORS_ESTIMATORS_H
#define QMCXX_ESTIMATORS_ESTIMATORS_H

#include <memory>

#include "estimators/pair_correlation.h"
#include "estimators/structure_factor.h"

namespace qmcxx
{

template<typename TR>
std::shared_ptr<const EstimatorSet<TR>> make_default_estimators(const Lattice& lattice,
                                                                int table_ee,
                                                                int num_electrons)
{
  auto set = std::make_shared<EstimatorSet<TR>>();
  set->add(std::make_unique<PairCorrelationEstimator<TR>>(
      lattice, table_ee, num_electrons, 32, lattice.wigner_seitz_radius()));
  set->add(std::make_unique<StructureFactorEstimator<TR>>(lattice, num_electrons, 6));
  return set;
}

} // namespace qmcxx

#endif
