// Estimator layer: named observables sampled per walker at the
// measurement point and reduced at the generation barrier.
//
// Contract (mirrors the TimerRegistry discipline from PR 4):
//   - evaluate() is const and reads only the committed configuration
//     (positions and distance-table rows, which may be computed into
//     the crowd slot's table scratch). It holds no mutable state, so ONE
//     shared instance serves every crowd thread concurrently. Estimators
//     never perturb the Markov chain: chains are bitwise-identical with
//     estimators attached or not.
//   - Per-walker samples land in FullPrecReal rows of a flat
//     [num_walkers x total_bins] buffer (disjoint slices per crowd =
//     data-race-free), and the driver reduces them serially in fixed
//     global walker order at the barrier. The reduction is therefore
//     bitwise-invariant across crowd_size x num_threads decompositions.
#ifndef QMCXX_ESTIMATORS_ESTIMATOR_H
#define QMCXX_ESTIMATORS_ESTIMATOR_H

#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "config/config.h"
#include "particle/particle_set.h"

namespace qmcxx
{

template<typename TR>
class Estimator
{
public:
  virtual ~Estimator() = default;

  /// Stable observable name surfaced in GenerationStats labels and the
  /// qmc_server JSONL stream ("gofr", "sofk", ...).
  virtual std::string name() const = 0;

  virtual int num_bins() const = 0;

  /// Sample one walker into out[0 .. num_bins): called at the
  /// measurement point, when the electron set's positions and committed
  /// table rows reflect the walker's accepted configuration. Must
  /// overwrite (not accumulate) and must not touch the particle set.
  virtual void evaluate(const ParticleSet<TR>& elec, FullPrecReal* out) const = 0;
};

/// Ordered collection with a flat bin layout: estimator i owns
/// out[offset(i) .. offset(i)+bins). The driver shares one const set
/// across all crowds.
template<typename TR>
class EstimatorSet
{
public:
  void add(std::unique_ptr<Estimator<TR>> est)
  {
    offsets_.push_back(total_bins_);
    total_bins_ += est->num_bins();
    estimators_.push_back(std::move(est));
  }

  int size() const { return static_cast<int>(estimators_.size()); }
  int total_bins() const { return total_bins_; }
  int offset(int i) const { return offsets_[static_cast<std::size_t>(i)]; }
  const Estimator<TR>& at(int i) const { return *estimators_[static_cast<std::size_t>(i)]; }

  std::vector<std::string> names() const
  {
    std::vector<std::string> out;
    for (const auto& e : estimators_)
      out.push_back(e->name());
    return out;
  }

  std::vector<int> bin_counts() const
  {
    std::vector<int> out;
    for (const auto& e : estimators_)
      out.push_back(e->num_bins());
    return out;
  }

  /// One walker sample across every estimator, into a total_bins() row.
  void evaluate_all(const ParticleSet<TR>& elec, FullPrecReal* out) const
  {
    assert(out != nullptr || total_bins_ == 0);
    for (std::size_t i = 0; i < estimators_.size(); ++i)
      estimators_[i]->evaluate(elec, out + offsets_[i]);
  }

private:
  std::vector<std::unique_ptr<Estimator<TR>>> estimators_;
  std::vector<int> offsets_;
  int total_bins_ = 0;
};

} // namespace qmcxx

#endif
