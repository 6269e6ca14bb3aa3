// Crowd: a batch of walkers sharing one set of compute resources.
//
// The scalar driver loop (one walker through one ParticleSet /
// TrialWaveFunction / Hamiltonian clone at a time) never gives a kernel
// more than one walker's worth of work. A Crowd owns `capacity` clones
// of the compute objects -- one slot per walker -- plus the per-crowd
// MWResourceSet, and drives them in lockstep through the batched mw_*
// API: all walkers propose the move of electron k together, the shared
// SPO set evaluates every proposed position in one batched call, and
// accept/reject commits the whole crowd before moving to electron k+1.
//
// Walker state moves through the crowd with an acquire/release
// handshake: acquire() loads a population slice into the slots (buffers
// are read once), the whole sweep runs against slot-resident state, and
// release() streams the final state back into the walkers (buffers are
// written once). The crowd is the drivers' only unit of staging (a
// crowd of one included), and the seam where device-resident crowds
// (GPU offload, async population sharding) attach later.
//
// Threading contract (crowd-per-thread execution): crowds of one
// generation run concurrently, so everything a crowd touches during a
// sweep must be crowd-private -- the cloned ParticleSet/TWF/Hamiltonian
// slots, the MWResourceSet scratch, the per-sweep workspace vectors
// below, and the RNG streams of its population slice (one stream per
// walker, derived from the master seed at a SplitMix64 jump offset;
// see concurrency/rng_streams.h). The only state legitimately shared
// across crowds is immutable after setup: the B-spline orbital tables
// behind the cloned SPOSets, lattice/species data, and the driver
// config. Never share mw scratch or a walker/RNG slot across crowds.
#ifndef QMCXX_DRIVERS_CROWD_H
#define QMCXX_DRIVERS_CROWD_H

#include <cassert>
#include <memory>
#include <vector>

#include "containers/mw_types.h"
#include "hamiltonian/hamiltonian.h"
#include "numerics/rng.h"
#include "particle/particle_set.h"
#include "particle/walker.h"
#include "wavefunction/trial_wavefunction.h"

namespace qmcxx
{

template<typename TR>
class Crowd
{
public:
  using Pos = TinyVector<double, 3>;
  using Grad = TinyVector<double, 3>;

  /// Clone `capacity` slots from the prototypes. The Hamiltonian is
  /// optional (wavefunction-only crowds are useful in benches/tests).
  Crowd(const ParticleSet<TR>& elec_proto, const TrialWaveFunction<TR>& twf_proto,
        const Hamiltonian<TR>* ham_proto, int capacity)
      : capacity_(capacity > 0 ? capacity : 1)
  {
    for (int i = 0; i < capacity_; ++i)
    {
      elec_.push_back(elec_proto.clone());
      twf_.push_back(twf_proto.clone());
      if (ham_proto)
        ham_.push_back(ham_proto->clone());
    }
    resources_ = twf_[0]->make_mw_resources(capacity_);
    walkers_.resize(capacity_, nullptr);
    rngs_.resize(capacity_, nullptr);
    drift.resize(capacity_);
    chi.resize(capacity_);
    rnew.resize(capacity_);
    ratios.resize(capacity_);
    grads.resize(capacity_);
    accept.resize(capacity_);
    naccept.resize(capacity_);
    energies.resize(capacity_);
  }

  int capacity() const { return capacity_; }
  int size() const { return active_; }

  ParticleSet<TR>& elec(int i) { return *elec_[i]; }
  TrialWaveFunction<TR>& twf(int i) { return *twf_[i]; }
  Hamiltonian<TR>& ham(int i) { return *ham_[i]; }
  Walker& walker(int i) { return *walkers_[i]; }
  RandomGenerator& rng(int i) { return *rngs_[i]; }
  MWResourceSet& resources() { return resources_; }

  /// Parallel lists over the active slots, rebuilt by acquire().
  const RefVector<ParticleSet<TR>>& p_refs() const { return p_refs_; }
  const RefVector<TrialWaveFunction<TR>>& twf_refs() const { return twf_refs_; }
  const RefVector<Hamiltonian<TR>>& ham_refs() const { return ham_refs_; }

  /// Stage a population slice into the slots: positions in, tables
  /// refreshed, wavefunction state restored from the walker buffers (or
  /// rebuilt from scratch on recompute generations, the mixed-precision
  /// repair of Sec. 7.2).
  void acquire(std::unique_ptr<Walker>* walkers, RandomGenerator* rngs, int n, bool recompute)
  {
    assert(n > 0 && n <= capacity_);
    active_ = n;
    p_refs_.clear();
    twf_refs_.clear();
    ham_refs_.clear();
    for (int i = 0; i < n; ++i)
    {
      walkers_[i] = walkers[i].get();
      rngs_[i] = &rngs[i];
      p_refs_.push_back(*elec_[i]);
      twf_refs_.push_back(*twf_[i]);
      if (!ham_.empty())
        ham_refs_.push_back(*ham_[i]);
      elec_[i]->load_walker(*walkers_[i]);
    }
    ParticleSet<TR>::mw_update(p_refs_);
    if (recompute)
      TrialWaveFunction<TR>::mw_evaluate_log(twf_refs_, p_refs_, resources_);
    else
      for (int i = 0; i < n; ++i)
        twf_[i]->copy_from_buffer(*elec_[i], *walkers_[i]);
  }

  /// Stream slot state back into the walkers (buffers written once per
  /// sweep). The slots stay bound until the next acquire().
  void release()
  {
    for (int i = 0; i < active_; ++i)
    {
      twf_[i]->update_buffer(*walkers_[i]);
      elec_[i]->store_walker(*walkers_[i]);
    }
  }

  std::size_t byte_size() const
  {
    std::size_t b = 0;
    for (const auto& e : elec_)
      b += e->size() * sizeof(Pos);
    return b;
  }

  // ---- per-sweep workspace (sized to capacity, reused every move) ------
  std::vector<Grad> drift;
  std::vector<Pos> chi;
  std::vector<Pos> rnew;
  std::vector<double> ratios;
  std::vector<Grad> grads;
  std::vector<char> accept;
  std::vector<int> naccept; ///< per-walker accepted-move count of the sweep
  std::vector<double> energies;

private:
  int capacity_;
  int active_ = 0;
  std::vector<std::unique_ptr<ParticleSet<TR>>> elec_;
  std::vector<std::unique_ptr<TrialWaveFunction<TR>>> twf_;
  std::vector<std::unique_ptr<Hamiltonian<TR>>> ham_;
  std::vector<Walker*> walkers_;
  std::vector<RandomGenerator*> rngs_;
  RefVector<ParticleSet<TR>> p_refs_;
  RefVector<TrialWaveFunction<TR>> twf_refs_;
  RefVector<Hamiltonian<TR>> ham_refs_;
  MWResourceSet resources_;
};

} // namespace qmcxx

#endif
