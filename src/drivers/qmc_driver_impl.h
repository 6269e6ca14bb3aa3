// Implementation of the templated QMC drivers (included by the explicit
// instantiation units vmc.cpp / dmc.cpp).
//
// Generations iterate crowds, not single walkers: the population is cut
// into slices of crowd_size, each slice is staged into a Crowd
// (acquire), all walkers in the crowd move every electron in lockstep
// through the batched mw_* API, and the slice is written back
// (release). Every crowd size, 1 included, takes this one sweep, and
// the chains are bit-identical across sizes because each walker's RNG
// stream is private to it. VMC and DMC share one generation loop
// (run_chain); DMC adds only the reweight, branch and trial-energy
// feedback steps at the barrier.
//
// Residency: when the slices fit the crowds, crowd ic always holds
// slice ic, and a VMC walker's state stays in its slot from one
// generation to the next -- no reload, no table rebuild, no buffer. A
// resident slot holds exactly what release() would have written and
// the next acquire() read back, so resident and parked chains are
// bitwise the same. Buffers are written only when something reads
// them: DMC branching, capture_snapshot, the mutable population().
//
// Crowds of one generation execute concurrently on the ParallelCrowdRunner
// (crowd-per-thread). Determinism across thread counts rests on three
// invariants: (1) every random draw of the chain comes from a stream
// owned by exactly one walker (derived from the master seed at a
// SplitMix64 jump offset, never shared across crowds), (2) per-crowd
// results are keyed by crowd index, never by thread index, and (3) the
// population reduction (energy/weight statistics) runs serially at the
// generation barrier in fixed walker order using Welford accumulation.
// DMC branching stays a serial barrier step on its own stream.
#ifndef QMCXX_DRIVERS_QMC_DRIVER_IMPL_H
#define QMCXX_DRIVERS_QMC_DRIVER_IMPL_H

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "concurrency/rng_streams.h"
#include "drivers/qmc_drivers.h"
#include "estimators/estimator.h"
#include "instrument/stopwatch.h"

namespace qmcxx
{

namespace detail
{

/// Umrigar drift limiting: keeps the drift step bounded near nodes.
/// A non-finite |grad|^2 (a NaN or overflowing gradient) gives zero
/// drift, so the proposal stays a finite gaussian step.
inline TinyVector<double, 3> limited_drift(const TinyVector<double, 3>& grad, double tau)
{
  const double v2 = dot(grad, grad);
  if (v2 < 1e-300 || !std::isfinite(v2))
    return TinyVector<double, 3>{};
  const double tau_eff = (-1.0 + std::sqrt(1.0 + 2.0 * tau * v2)) / v2;
  return tau_eff * grad;
}

inline void validate_config(const DriverConfig& c)
{
  validate::positive("DriverConfig", "tau", c.tau);
  validate::at_least("DriverConfig", "num_walkers", c.num_walkers, 1);
  validate::at_least("DriverConfig", "steps", c.steps, 0);
  validate::at_least("DriverConfig", "crowd_size", c.crowd_size, 1);
  validate::at_least("DriverConfig", "num_threads", c.num_threads, 0, "0 = hardware");
  validate::at_least("DriverConfig", "delay_rank", c.delay_rank, 1, "1 = rank-1 updates");
  validate::at_least("DriverConfig", "checkpoint_every", c.checkpoint_every, 0, "0 = disabled");
  if (c.checkpoint_every > 0 && c.checkpoint_path.empty())
    throw std::invalid_argument(
        "DriverConfig: checkpoint_every > 0 requires a checkpoint_path");
  validate::at_least("DriverConfig", "precision.refresh_interval", c.precision.refresh_interval,
                     0, "0 = never forced");
  validate::at_least("DriverConfig", "precision.drift_sample_rows", c.precision.drift_sample_rows,
                     0, "0 = monitor off");
  // Written as !(x >= 0) so NaN is rejected too; 0 disables the
  // residual trigger without disabling forced refreshes.
  if (!(c.precision.drift_tolerance >= 0.0))
    throw std::invalid_argument(
        "DriverConfig: precision.drift_tolerance must be >= 0 (0 = residual trigger off), got " +
        std::to_string(c.precision.drift_tolerance));
}

/// Barrier-side reduction of the per-crowd drift-guard tallies into the
/// generation record and the run totals (order-independent: sums and a
/// max).
inline void reduce_drift(const InverseDriftReport& drift, GenerationStats& stats,
                         RunResult& result)
{
  stats.max_drift_residual = drift.max_residual;
  stats.drift_rows_sampled = drift.rows_sampled;
  stats.drift_refreshes = drift.refreshes;
  if (drift.max_residual > result.max_drift_residual)
    result.max_drift_residual = drift.max_residual;
  result.total_drift_rows_sampled += drift.rows_sampled;
  result.total_drift_refreshes += drift.refreshes;
}

/// Weighted Welford/West accumulator for the population statistics.
/// The naive e2_sum/w_sum - mean^2 form cancels catastrophically for
/// tightly clustered energies (|E| >> spread) and can return a negative
/// variance; here every update term w*delta*(x - new_mean) is
/// provably >= 0 ((x - old_mean) and (x - new_mean) share a sign), so
/// m2 -- and the variance -- never goes negative even in floating point.
struct WeightedWelford
{
  double w_sum = 0.0;
  double mean = 0.0;
  double m2 = 0.0;

  void add(double w, double x)
  {
    // Zero-weight samples contribute nothing; skipping them (instead of
    // dividing by a still-zero w_sum when they lead) keeps the mean
    // finite when e.g. a DMC branch weight underflows to exactly 0.
    if (!(w > 0.0))
      return;
    w_sum += w;
    const double delta = x - mean;
    mean += delta * (w / w_sum);
    m2 += w * delta * (x - mean);
  }

  /// Population (biased) variance, matching the paper's per-generation
  /// sigma^2 bookkeeping.
  double variance() const { return w_sum > 0.0 ? m2 / w_sum : 0.0; }
};

/// Post-warmup averages (unweighted over generations [first_kept, end)):
/// the scalar triple plus the named observable vectors.
inline void finalize_run_means(RunResult& result, int first_kept)
{
  FullPrecReal e = 0, v = 0, a = 0;
  int count = 0;
  for (int g = first_kept; g < static_cast<int>(result.generations.size()); ++g)
  {
    const GenerationStats& s = result.generations[static_cast<std::size_t>(g)];
    e += s.energy;
    v += s.variance;
    a += s.acceptance;
    if (count == 0)
    {
      result.mean_component_energies.assign(s.component_energies.size(), 0.0);
      result.mean_estimator_bins.assign(s.estimator_bins.size(), 0.0);
    }
    for (std::size_t c = 0; c < s.component_energies.size(); ++c)
      result.mean_component_energies[c] += s.component_energies[c];
    for (std::size_t b = 0; b < s.estimator_bins.size(); ++b)
      result.mean_estimator_bins[b] += s.estimator_bins[b];
    ++count;
  }
  if (count > 0)
  {
    result.mean_energy = e / count;
    result.mean_variance = v / count;
    result.mean_acceptance = a / count;
    for (auto& c : result.mean_component_energies)
      c /= count;
    for (auto& b : result.mean_estimator_bins)
      b /= count;
  }
}

} // namespace detail

template<typename TR>
QMCDriver<TR>::QMCDriver(ParticleSet<TR>& elec, TrialWaveFunction<TR>& twf, Hamiltonian<TR>& ham,
                         DriverConfig config)
    : elec_proto_(elec), twf_proto_(twf), ham_proto_(ham), config_(config),
      branch_rng_(make_stream(config.seed, StreamKind::Branch, 0))
{
  detail::validate_config(config_);
  runner_ = std::make_unique<ParallelCrowdRunner>(config_.num_threads);
  for (int t = 0; t < runner_->num_threads(); ++t)
    crowds_.push_back(
        std::make_unique<Crowd<TR>>(elec_proto_, twf_proto_, &ham_proto_, config_.crowd_size));
  set_estimators(nullptr); // publishes the component labels
}

template<typename TR>
QMCDriver<TR>::~QMCDriver() = default;

template<typename TR>
void QMCDriver<TR>::set_estimators(std::shared_ptr<const EstimatorSet<TR>> estimators)
{
  estimators_ = std::move(estimators);
  auto labels = std::make_shared<ObservableLabels>();
  labels->components = ham_proto_.component_names();
  if (estimators_)
  {
    labels->estimators = estimators_->names();
    labels->estimator_bins = estimators_->bin_counts();
  }
  labels_ = std::move(labels);
}

template<typename TR>
void QMCDriver<TR>::record_samples(Crowd<TR>& crowd, int slot, int iw)
{
  Hamiltonian<TR>& ham = crowd.ham(slot);
  const int ncomp = ham.num_components();
  FullPrecReal* crow = comp_samples_.data() + static_cast<std::size_t>(iw) * ncomp;
  for (int c = 0; c < ncomp; ++c)
    crow[c] = ham.last_value(c);
  if (estimators_ && estimators_->total_bins() > 0)
    estimators_->evaluate_all(
        crowd.elec(slot),
        est_samples_.data() + static_cast<std::size_t>(iw) * estimators_->total_bins());
}

template<typename TR>
void QMCDriver<TR>::reduce_observables(GenerationStats& stats, bool weighted) const
{
  // Fixed global walker order, FullPrecReal accumulation: bitwise
  // invariant across crowd_size x num_threads decompositions (per-crowd
  // partial sums would not be -- FP addition does not reassociate).
  const int ncomp = ham_proto_.num_components();
  const int nbins = estimators_ ? estimators_->total_bins() : 0;
  stats.labels = labels_;
  stats.component_energies.assign(static_cast<std::size_t>(ncomp), 0.0);
  stats.estimator_bins.assign(static_cast<std::size_t>(nbins), 0.0);
  FullPrecReal wsum = 0.0;
  for (int iw = 0; iw < pop_.size(); ++iw)
  {
    const FullPrecReal w = weighted ? pop_.walkers[static_cast<std::size_t>(iw)]->weight : 1.0;
    if (!(w > 0.0)) // mirrors WeightedWelford's zero-weight skip
      continue;
    wsum += w;
    const FullPrecReal* crow = comp_samples_.data() + static_cast<std::size_t>(iw) * ncomp;
    for (int c = 0; c < ncomp; ++c)
      stats.component_energies[static_cast<std::size_t>(c)] += w * crow[c];
    const FullPrecReal* erow = est_samples_.data() + static_cast<std::size_t>(iw) * nbins;
    for (int b = 0; b < nbins; ++b)
      stats.estimator_bins[static_cast<std::size_t>(b)] += w * erow[b];
  }
  if (wsum > 0.0)
  {
    for (auto& c : stats.component_energies)
      c /= wsum;
    for (auto& b : stats.estimator_bins)
      b /= wsum;
  }
}

template<typename TR>
void QMCDriver<TR>::init_walker(Crowd<TR>& crowd, int slot, int iw, bool park)
{
  auto w = std::make_unique<Walker>(elec_proto_.size());
  // Ids start at 1: parent_id == 0 is the founder sentinel, so no
  // walker may actually own id 0.
  w->id = static_cast<std::uint64_t>(iw) + 1;
  // One private stream per walker slot, derived from the master seed
  // at a SplitMix64 jump offset (concurrency/rng_streams.h). A crowd
  // owns the streams of its population slice and nothing else, so no
  // stream is ever touched by two threads.
  RandomGenerator rng =
      make_stream(config_.seed, StreamKind::Walker, static_cast<std::uint64_t>(iw));
  // Jittered copy of the prototype configuration.
  for (int i = 0; i < elec_proto_.size(); ++i)
    w->R[i] = elec_proto_.pos(i) +
        TinyVector<double, 3>{0.1 * rng.gaussian(), 0.1 * rng.gaussian(), 0.1 * rng.gaussian()};
  ParticleSet<TR>& elec = crowd.elec(slot);
  TrialWaveFunction<TR>& twf = crowd.twf(slot);
  elec.load_walker(*w);
  elec.update();
  w->log_psi = twf.evaluate_log(elec);
  // Register and fill the anonymous buffer (paper Fig. 4).
  if (park)
    crowd.write_buffer(slot, *w);
  w->local_energy = crowd.ham(slot).evaluate(elec, twf);
  w->old_local_energy = w->local_energy;
  pop_.walkers[static_cast<std::size_t>(iw)] = std::move(w);
  pop_.rngs[static_cast<std::size_t>(iw)] = rng;
}

template<typename TR>
void QMCDriver<TR>::initialize_population()
{
  // A fresh chain: nothing of a restored snapshot's carries over.
  start_generation_ = 0;
  resumed_ = false;
  resumed_kind_ = io::ChainKind::VMC;
  trial_energy_ = 0.0;
  branch_rng_ = make_stream(config_.seed, StreamKind::Branch, 0);
  resident_ = false;

  const int nw = config_.num_walkers;
  const int cs = config_.crowd_size;
  pop_.walkers.clear();
  pop_.rngs.clear();
  pop_.walkers.resize(static_cast<std::size_t>(nw));
  pop_.rngs.resize(static_cast<std::size_t>(nw));
  const bool resident = fits_crowds(nw);
  try
  {
    if (resident)
      runner_->run_generation(num_slices(nw), [&](int ic, int) {
        for (int iw = ic * cs; iw < std::min(nw, (ic + 1) * cs); ++iw)
          init_walker(*crowds_[static_cast<std::size_t>(ic)], iw - ic * cs, iw, false);
      });
    else
      for (int iw = 0; iw < nw; ++iw)
        init_walker(*crowds_.front(), 0, iw, true);
  }
  catch (...)
  {
    pop_.walkers.clear(); // no half-built population survives
    pop_.rngs.clear();
    throw;
  }
  resident_ = resident;
}

template<typename TR>
WalkerPopulation& QMCDriver<TR>::population()
{
  if (resident_)
  {
    for (std::size_t iw = 0; iw < pop_.walkers.size(); ++iw)
      write_slot_state(iw, *pop_.walkers[iw]);
    resident_ = false;
  }
  return pop_;
}

template<typename TR>
io::PopulationSnapshot QMCDriver<TR>::capture_snapshot(int next_generation,
                                                       io::ChainKind kind) const
{
  io::PopulationSnapshot snap;
  snap.precision_bytes = sizeof(TR);
  snap.workload_fingerprint = config_.checkpoint_fingerprint;
  snap.kind = kind;
  snap.generation = static_cast<std::uint64_t>(next_generation);
  snap.master_seed = config_.seed;
  snap.tau = config_.tau;
  snap.trial_energy = trial_energy_;
  snap.branch_rng = branch_rng_.save_state();
  snap.num_particles = static_cast<std::uint64_t>(elec_proto_.size());
  snap.walkers.reserve(pop_.walkers.size());
  Walker slot_state; // a resident walker's buffer, written from its slot
  for (std::size_t iw = 0; iw < pop_.walkers.size(); ++iw)
  {
    const Walker& w = *pop_.walkers[iw];
    io::WalkerSnapshot ws;
    ws.id = w.id;
    ws.parent_id = w.parent_id;
    ws.weight = w.weight;
    ws.multiplicity = w.multiplicity;
    ws.local_energy = w.local_energy;
    ws.old_local_energy = w.old_local_energy;
    ws.log_psi = w.log_psi;
    ws.age = w.age;
    ws.rng = pop_.rngs[iw].save_state();
    ws.R = w.R;
    const PooledBuffer* buf = &w.buffer;
    if (resident_)
    {
      write_slot_state(iw, slot_state);
      buf = &slot_state.buffer;
    }
    ws.buffer.assign(buf->data(), buf->data() + buf->size());
    snap.walkers.push_back(std::move(ws));
  }
  return snap;
}

template<typename TR>
void QMCDriver<TR>::restore_snapshot(const io::PopulationSnapshot& snap)
{
  io::SnapshotExpectation expect;
  expect.precision_bytes = sizeof(TR);
  expect.fingerprint = config_.checkpoint_fingerprint;
  expect.master_seed = config_.seed;
  expect.tau = config_.tau;
  expect.num_particles = static_cast<std::uint64_t>(elec_proto_.size());
  io::validate_compatible(snap, expect);
  // Each buffer must hold exactly the layout the wavefunction registers:
  // copy_from_buffer and update_buffer stream that layout unchecked in
  // Release builds, and a fingerprint of 0 matches any file.
  PooledBuffer probe;
  twf_proto_.register_data(probe);
  for (std::size_t iw = 0; iw < snap.walkers.size(); ++iw)
    if (snap.walkers[iw].buffer.size() != probe.size())
      throw std::runtime_error("snapshot walker " + std::to_string(iw) + " has a " +
                               std::to_string(snap.walkers[iw].buffer.size()) +
                               "-byte buffer; the wavefunction registers " +
                               std::to_string(probe.size()) + " bytes");

  // Build the full replacement population before touching pop_: any
  // throw below this point must leave the driver exactly as it was
  // (strong guarantee), so a failed load can be retried or reported
  // without a half-restored chain.
  std::vector<std::unique_ptr<Walker>> walkers;
  std::vector<RandomGenerator> rngs;
  walkers.reserve(snap.walkers.size());
  rngs.reserve(snap.walkers.size());
  for (const io::WalkerSnapshot& ws : snap.walkers)
  {
    auto w = std::make_unique<Walker>(elec_proto_.size());
    w->R = ws.R;
    w->weight = ws.weight;
    w->multiplicity = ws.multiplicity;
    w->age = static_cast<int>(ws.age);
    w->local_energy = ws.local_energy;
    w->old_local_energy = ws.old_local_energy;
    w->log_psi = ws.log_psi;
    w->id = ws.id;
    w->parent_id = ws.parent_id;
    w->buffer.assign(ws.buffer.data(), ws.buffer.size());
    RandomGenerator rng;
    rng.restore_state(ws.rng);
    walkers.push_back(std::move(w));
    rngs.push_back(rng);
  }
  pop_.walkers = std::move(walkers);
  pop_.rngs = std::move(rngs);
  trial_energy_ = snap.trial_energy;
  branch_rng_.restore_state(snap.branch_rng);
  start_generation_ = static_cast<int>(snap.generation);
  resumed_ = true;
  resumed_kind_ = snap.kind;
  resident_ = false;
}

template<typename TR>
bool QMCDriver<TR>::checkpoint_barrier(int gen, io::ChainKind kind)
{
  const bool stop =
      config_.stop_flag != nullptr && config_.stop_flag->load(std::memory_order_relaxed);
  const bool periodic =
      config_.checkpoint_every > 0 && (gen + 1) % config_.checkpoint_every == 0;
  if (!config_.checkpoint_path.empty() && (periodic || stop))
    io::write_snapshot_file(config_.checkpoint_path, capture_snapshot(gen + 1, kind));
  return stop;
}

template<typename TR>
typename QMCDriver<TR>::SweepOutcome QMCDriver<TR>::sweep_crowd(Crowd<TR>& crowd, int first,
                                                                int n, bool recompute, int gen,
                                                                bool resident_in,
                                                                bool resident_out)
{
  crowd.acquire(&pop_.walkers[first], &pop_.rngs[first], n, recompute, resident_in);
  const FullPrecReal tau = config_.tau;
  const FullPrecReal sqrt_tau = std::sqrt(tau);
  const int nel = crowd.elec(0).size();

  SweepOutcome out;
  for (int iw = 0; iw < n; ++iw)
    crowd.naccept[iw] = 0;
  for (int k = 0; k < nel; ++k)
  {
    ParticleSet<TR>::mw_prepare_move(crowd.p_refs(), k);
    if (config_.use_drift)
    {
      TrialWaveFunction<TR>::mw_eval_grad(crowd.twf_refs(), crowd.p_refs(), k,
                                          crowd.grads.data());
      for (int iw = 0; iw < n; ++iw)
        crowd.drift[iw] = detail::limited_drift(crowd.grads[iw], tau);
    }
    else
    {
      for (int iw = 0; iw < n; ++iw)
        crowd.drift[iw] = TinyVector<double, 3>{};
    }
    for (int iw = 0; iw < n; ++iw)
    {
      // Draws come only from the walker's own stream, in a fixed
      // per-move order, so the chains are identical at every crowd size.
      RandomGenerator& rng = crowd.rng(iw);
      const FullPrecReal g0 = rng.gaussian(), g1 = rng.gaussian(), g2 = rng.gaussian();
      crowd.chi[iw] = TinyVector<double, 3>{sqrt_tau * g0, sqrt_tau * g1, sqrt_tau * g2};
      crowd.rnew[iw] = crowd.elec(iw).pos(k) + crowd.drift[iw] + crowd.chi[iw];
    }
    ParticleSet<TR>::mw_make_move(crowd.p_refs(), k, crowd.rnew);
    TrialWaveFunction<TR>::mw_ratio_grad(crowd.twf_refs(), crowd.p_refs(), k, crowd.ratios,
                                         crowd.grads, crowd.resources());
    for (int iw = 0; iw < n; ++iw)
    {
      const FullPrecReal ratio = crowd.ratios[iw];
      ++out.proposed;
      bool accept = false;
      if (std::isfinite(ratio) && ratio > 0.0) // fixed-node: reject node crossings
      {
        FullPrecReal log_gf = 0.0;
        if (config_.use_drift)
        {
          // Green-function ratio G(R'->R)/G(R->R') for drift-diffusion.
          const TinyVector<double, 3> drift_new = detail::limited_drift(crowd.grads[iw], tau);
          const TinyVector<double, 3> back =
              crowd.elec(iw).pos(k) - crowd.rnew[iw] - drift_new; // R - R' - D(R')
          const TinyVector<double, 3> fwd = crowd.chi[iw];      // R' - R - D(R)
          log_gf = -(dot(back, back) - dot(fwd, fwd)) / (2.0 * tau);
        }
        const FullPrecReal prob = ratio * ratio * std::exp(log_gf);
        accept = crowd.rng(iw).uniform() < prob;
      }
      crowd.accept[iw] = accept ? 1 : 0;
      if (accept)
      {
        ++out.accepted;
        ++crowd.naccept[iw];
      }
    }
    TrialWaveFunction<TR>::mw_accept_reject(crowd.twf_refs(), crowd.p_refs(), k, crowd.accept,
                                            crowd.resources());
  }

  // Measurement (Alg. 1 L11): refresh tables, then batched E_L.
  ParticleSet<TR>::mw_update(crowd.p_refs());
  Hamiltonian<TR>::mw_evaluate(crowd.ham_refs(), crowd.twf_refs(), crowd.p_refs(),
                               crowd.resources(), crowd.energies.data());
  // Observable samples while each slot's measurement state is intact;
  // rows [first, first + n) belong to this crowd alone.
  for (int iw = 0; iw < n; ++iw)
    record_samples(crowd, iw, first + iw);
  // Drift guard at the measurement barrier (Sec. 7.2), slot by slot in
  // walker order before release() serializes the buffers. Row selection
  // depends only on `gen`, so every decomposition samples identically.
  for (int iw = 0; iw < n; ++iw)
    crowd.twf(iw).monitor_inverse_drift(crowd.elec(iw), config_.precision, gen, out.drift);
  crowd.release(resident_out);
  for (int iw = 0; iw < n; ++iw)
  {
    Walker& w = crowd.walker(iw);
    w.old_local_energy = w.local_energy;
    w.local_energy = crowd.energies[iw];
    w.age = crowd.naccept[iw] > 0 ? 0 : w.age + 1;
  }
  return out;
}

template<typename TR>
typename QMCDriver<TR>::SweepOutcome QMCDriver<TR>::run_generation_crowds(bool recompute, int gen,
                                                                          bool dmc)
{
  const int nw = pop_.size();
  const int cs = config_.crowd_size;
  const int ncrowds = num_slices(nw);
  const bool fixed_map = fits_crowds(nw);
  assert(!resident_ || fixed_map); // residency is only ever set on the fixed map
  const bool resident_in = resident_;
  const bool resident_out = fixed_map && !dmc;
  // Per-walker sample rows for this generation: disjoint slices per
  // crowd, reduced serially at the barrier (reduce_observables).
  comp_samples_.assign(static_cast<std::size_t>(nw) * ham_proto_.num_components(), 0.0);
  est_samples_.assign(
      static_cast<std::size_t>(nw) * (estimators_ ? estimators_->total_bins() : 0), 0.0);
  std::vector<SweepOutcome> outcomes(ncrowds);
  // Crowd task ic always sweeps the same slice no matter which thread
  // claims it, and writes only slice-owned state plus its own outcomes
  // slot: the claim order cannot affect any result.
  runner_->run_generation(ncrowds, [&](int ic, int thread_index) {
    const int lo = ic * cs;
    const int count = nw - lo < cs ? nw - lo : cs;
    Crowd<TR>& crowd = *crowds_[static_cast<std::size_t>(fixed_map ? ic : thread_index)];
    outcomes[ic] = sweep_crowd(crowd, lo, count, recompute, gen, resident_in, resident_out);
  });
  resident_ = resident_out;
  SweepOutcome total;
  for (const SweepOutcome& out : outcomes)
  {
    total.accepted += out.accepted;
    total.proposed += out.proposed;
    total.drift.rows_sampled += out.drift.rows_sampled;
    total.drift.refreshes += out.drift.refreshes;
    if (out.drift.max_residual > total.drift.max_residual)
      total.drift.max_residual = out.drift.max_residual;
  }
  return total;
}

template<typename TR>
RunResult QMCDriver<TR>::run_vmc()
{
  if (resumed_ && resumed_kind_ != io::ChainKind::VMC)
    throw std::runtime_error("run_vmc: the restored snapshot holds a DMC chain; resuming it "
                             "through VMC would silently corrupt the Markov chain");
  return run_chain(io::ChainKind::VMC);
}

template<typename TR>
RunResult QMCDriver<TR>::run_dmc()
{
  if (resumed_ && resumed_kind_ != io::ChainKind::DMC)
    throw std::runtime_error("run_dmc: the restored snapshot holds a VMC chain; resuming it "
                             "through DMC would silently corrupt the Markov chain");
  if (!resumed_)
  {
    // Initialize the trial energy from the current population. A
    // resumed run keeps the snapshot's trial energy: re-deriving it
    // from the restored walkers would fork the feedback history.
    FullPrecReal e0 = 0.0;
    for (const auto& w : pop_.walkers)
      e0 += w->local_energy;
    trial_energy_ = e0 / pop_.size();
  }
  return run_chain(io::ChainKind::DMC);
}

template<typename TR>
RunResult QMCDriver<TR>::run_chain(io::ChainKind kind)
{
  const bool dmc = kind == io::ChainKind::DMC;
  RunResult result;
  result.start_generation = start_generation_;
  const FullPrecReal tau = config_.tau;
  const Stopwatch stopwatch;
  for (int gen = start_generation_; gen < config_.steps; ++gen)
  {
    const bool recompute =
        config_.recompute_period > 0 && gen > 0 && gen % config_.recompute_period == 0;
    const int nw = pop_.size();
    const SweepOutcome out = run_generation_crowds(recompute, gen, dmc);

    // Serial barrier-side steps, all in fixed walker order so the
    // statistics are bitwise-identical for every thread count: DMC
    // reweighting (Alg. 1 L13, symmetric local-energy average), Welford
    // statistics (unit weights under VMC), then DMC branching below.
    detail::WeightedWelford acc;
    for (const auto& wp : pop_.walkers)
    {
      Walker& w = *wp;
      if (dmc)
      {
        const FullPrecReal e_mid = 0.5 * (w.local_energy + w.old_local_energy);
        FullPrecReal branch_weight = std::exp(-tau * (e_mid - trial_energy_));
        branch_weight = std::min(branch_weight, 2.5); // population-explosion guard
        w.weight *= branch_weight;
      }
      acc.add(dmc ? w.weight : 1.0, w.local_energy);
    }

    GenerationStats stats;
    stats.num_walkers = nw;
    stats.weight = acc.w_sum;
    stats.energy = acc.mean;
    stats.variance = acc.variance();
    stats.acceptance = out.proposed > 0 ? static_cast<double>(out.accepted) / out.proposed : 0.0;
    detail::reduce_drift(out.drift, stats, result);
    // DMC observables reduce with the post-reweight weights, before
    // branching rearranges the population (sample rows are keyed by
    // pre-branch walker order).
    reduce_observables(stats, /*weighted=*/dmc);
    result.total_samples += nw;

    if (dmc)
    {
      // Branch + trial-energy feedback (Alg. 1 L13-L14).
      branch_walkers(pop_, config_.num_walkers, branch_rng_);
      trial_energy_ = stats.energy -
          config_.feedback / tau *
              std::log(static_cast<double>(pop_.size()) / config_.num_walkers);
      stats.trial_energy = trial_energy_;
    }
    result.generations.push_back(stats);
    if (config_.on_generation)
      config_.on_generation(gen, stats);
    // The barrier state (post-branch population, fed-back trial energy)
    // is exactly what a checkpoint must capture, so this sits after
    // branching and feedback.
    if (checkpoint_barrier(gen, kind))
    {
      result.interrupted = true;
      break;
    }
  }
  result.seconds = stopwatch.seconds();
  result.throughput = result.total_samples / result.seconds;
  result.labels = labels_;
  // Post-warmup averages; generations[] holds this run's slice, so the
  // warmup cut is relative to start_generation_ (a resumed run past its
  // warmup discards nothing).
  detail::finalize_run_means(result, std::max(0, config_.warmup_steps - start_generation_));
  return result;
}

} // namespace qmcxx

#endif
