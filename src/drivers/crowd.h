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
// handshake. A parked slice is loaded by acquire() (positions in,
// tables rebuilt, wavefunction state read from the walker buffers) and
// written back by release() (buffers written once per sweep). A
// resident slice -- the one this crowd held last generation, or built
// in place -- skips all of that: its slots already hold the state, so
// acquire() only binds the walkers and release() writes back positions
// and log psi alone, dropping any buffer the walker still carries. The
// driver decides which applies (qmc_drivers.h). The crowd is the
// drivers' only unit of staging (a crowd of one included), and the
// seam where device-resident crowds (GPU offload, async population
// sharding) attach later.
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
// A crowd is not bound to a thread: a resident crowd is swept by
// whichever thread claims its task, and the generation barrier orders
// one generation's sweep before the next.
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

  /// Bind a population slice to the slots and make their state current:
  /// a parked slice is loaded (positions in, tables refreshed,
  /// wavefunction state read from the walker buffers); a `resident`
  /// slice is already in the slots. Recompute generations rebuild the
  /// wavefunction from scratch either way (the mixed-precision repair
  /// of Sec. 7.2).
  void acquire(std::unique_ptr<Walker>* walkers, RandomGenerator* rngs, int n, bool recompute,
               bool resident = false)
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
      if (!resident)
        elec_[i]->load_walker(*walkers_[i]);
    }
    // A resident slot's tables are the ones the last sweep's measurement
    // built from these positions.
    if (!resident)
      ParticleSet<TR>::mw_update(p_refs_);
    if (recompute)
      TrialWaveFunction<TR>::mw_evaluate_log(twf_refs_, p_refs_, resources_);
    else if (!resident)
      for (int i = 0; i < n; ++i)
        twf_[i]->copy_from_buffer(*elec_[i], *walkers_[i]);
  }

  /// Write the sweep's result back into the walkers. The slots stay
  /// bound until the next acquire(). Parked (the default), each walker's
  /// buffer receives the slot state; `resident`, the state stays in the
  /// slot, and only the positions and log psi are written (after the
  /// measurement, log_value() is the value a buffer write records) while
  /// a stale buffer is freed.
  void release(bool resident = false)
  {
    for (int i = 0; i < active_; ++i)
    {
      Walker& w = *walkers_[i];
      if (resident)
      {
        w.log_psi = twf_[i]->log_value();
        w.buffer.clear();
      }
      else
        write_buffer(i, w);
      elec_[i]->store_walker(w);
    }
  }

  /// Serialize slot i's wavefunction state into w's buffer (and log psi
  /// into w), first registering the layout if w has no buffer yet.
  void write_buffer(int i, Walker& w)
  {
    if (w.buffer.size() == 0)
      twf_[i]->register_data(w.buffer);
    twf_[i]->update_buffer(w);
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
