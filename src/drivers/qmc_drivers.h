// VMC and DMC drivers implementing the paper's Alg. 1.
//
// Thread-level structure mirrors Fig. 4: ParticleSet /
// TrialWaveFunction / Hamiltonian clones, one crowd of them per pool
// thread, process the walkers on a dedicated ThreadPool
// (crowd-per-thread, Sec. 5). A walker's wavefunction state lives in a
// crowd slot while it sweeps; the anonymous buffer is its parked and
// serialized form. When the population fits the crowds, a VMC walker
// stays resident in its slot between generations and needs no buffer
// at all; DMC branching clones parents from their buffers, so DMC
// generations park the population. Each generation ends at a barrier
// where the population statistics reduce in fixed walker order, so
// chains are bitwise-identical for every thread count and crowd size,
// resident or parked. VMC and DMC share one generation loop; DMC adds
// only the reweighting, serial birth/death branching and trial-energy
// feedback (Alg. 1 L13-L14).
#ifndef QMCXX_DRIVERS_QMC_DRIVERS_H
#define QMCXX_DRIVERS_QMC_DRIVERS_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "concurrency/parallel_crowd_runner.h"
#include "config/config.h"
#include "drivers/crowd.h"
#include "hamiltonian/hamiltonian.h"
#include "io/snapshot.h"
#include "numerics/rng.h"
#include "particle/particle_set.h"
#include "particle/walker.h"
#include "wavefunction/trial_wavefunction.h"

namespace qmcxx
{

struct GenerationStats;

template<typename TR>
class EstimatorSet;

/// Names for the per-generation observable columns: Hamiltonian
/// component names plus (when an EstimatorSet is attached) estimator
/// names and their bin counts. One immutable instance is shared by
/// every GenerationStats / RunResult a driver emits.
struct ObservableLabels
{
  std::vector<std::string> components;  ///< Hamiltonian component names
  std::vector<std::string> estimators;  ///< estimator names ("gofr", ...)
  std::vector<int> estimator_bins;      ///< bins per estimator, same order
};

struct DriverConfig
{
  double tau = 0.02;           ///< time step (hartree^-1)
  int num_walkers = 8;         ///< target population (per "rank")
  int steps = 10;              ///< MC generations to run
  int warmup_steps = 0;        ///< generations discarded from statistics
  std::uint64_t seed = 20170708;
  int recompute_period = 10;   ///< from-scratch rebuild cadence (Sec. 7.2)
  double feedback = 0.1;       ///< trial-energy population feedback
  /// Crowd-execution threads: each crowd of a generation runs on one
  /// pool thread. 0 = hardware thread count, 1 = serial on the calling
  /// thread (no pool threads). Chains are bitwise-identical for every
  /// value at fixed crowd_size / population. Negative values are
  /// rejected at construction.
  int num_threads = 0;
  bool use_drift = true;       ///< importance-sampled proposals
  /// Walkers evaluated together through the batched mw_* sweep, which
  /// every size (1 included) takes. Identical seeds give identical
  /// chains at every crowd size (walker RNG streams are private).
  int crowd_size = 4;
  /// Delayed (Woodbury) determinant updates: accepted rows bind into a
  /// rank-`delay_rank` window and apply as BLAS3 gemms (Sec. 8.4). 1 =
  /// the plain rank-1 Sherman-Morrison determinant (bitwise-identical
  /// chains to earlier builds); values < 1 are rejected at construction.
  int delay_rank = 1;
  /// Write a qmcxx-snap-v1 snapshot to checkpoint_path every N
  /// generations (at the generation barrier, after branching). 0
  /// disables periodic checkpoints; negative values are rejected.
  int checkpoint_every = 0;
  /// Snapshot destination; required whenever checkpoint_every > 0 or a
  /// stop_flag is set with the intent to checkpoint on interrupt.
  std::string checkpoint_path;
  /// Workload identity stamped into snapshots and verified on restore
  /// (io::workload_fingerprint). 0 leaves snapshots unstamped and skips
  /// the check -- driver-level tests that build systems by hand use 0.
  std::uint64_t checkpoint_fingerprint = 0;
  /// Cooperative interrupt: when non-null and set, the run checkpoints
  /// (if checkpoint_path is set) and returns at the next generation
  /// barrier with RunResult::interrupted = true. Signal-handler safe:
  /// the driver only loads it.
  std::atomic<bool>* stop_flag = nullptr;
  /// Streaming observer, called after each generation's stats are
  /// reduced (absolute generation index). Used by qmc_server to stream
  /// incremental scalar observables; must not throw.
  std::function<void(int, const GenerationStats&)> on_generation;
  /// Runtime precision policy (paper Sec. 7.2): compute precision plus
  /// the inverse-drift guard knobs. The `precision` field is resolved by
  /// run_engine before the driver is built; the guard knobs are read
  /// each generation at the measurement barrier.
  PrecisionPolicy precision;
};

/// Per-generation record (Alg. 1 bookkeeping).
struct GenerationStats
{
  double energy = 0.0;      ///< weighted population average of E_L
  double variance = 0.0;
  double weight = 0.0;      ///< total population weight
  int num_walkers = 0;
  double acceptance = 0.0;  ///< PbyP acceptance ratio
  double trial_energy = 0.0;
  /// Weighted population averages of each Hamiltonian component, in
  /// labels->components order: the named decomposition of `energy`.
  /// Reduced serially in fixed global walker order at the barrier, so
  /// values are bitwise-invariant across crowd_size x num_threads.
  std::vector<FullPrecReal> component_energies;
  /// Flat estimator bins (labels->estimators / estimator_bins layout);
  /// empty unless an EstimatorSet is attached. Same reduction contract
  /// as component_energies.
  std::vector<FullPrecReal> estimator_bins;
  /// Inverse-drift guard tallies (paper Sec. 7.2), reduced over all
  /// walkers at the barrier: worst sampled residual
  /// ||psi_row . A^-1 - e_k||_inf, rows sampled, refreshes fired.
  FullPrecReal max_drift_residual = 0.0;
  std::uint64_t drift_rows_sampled = 0;
  std::uint64_t drift_refreshes = 0;
  std::shared_ptr<const ObservableLabels> labels;
};

struct RunResult
{
  std::vector<GenerationStats> generations;
  double mean_energy = 0.0;    ///< post-warmup average
  double mean_variance = 0.0;
  double mean_acceptance = 0.0;
  double seconds = 0.0;
  std::uint64_t total_samples = 0; ///< walker-generations processed
  double throughput = 0.0;         ///< samples per second (paper Sec. 6.2)
  int start_generation = 0;        ///< first generation index of this run (resume offset)
  bool interrupted = false;        ///< stop_flag fired; state was checkpointed if configured
  /// Run-level drift-guard tallies: worst residual over the whole run
  /// and totals of the per-generation counters.
  FullPrecReal max_drift_residual = 0.0;
  std::uint64_t total_drift_rows_sampled = 0;
  std::uint64_t total_drift_refreshes = 0;
  /// Post-warmup averages of the named observables (unweighted over
  /// generations, matching mean_energy).
  std::vector<FullPrecReal> mean_component_energies;
  std::vector<FullPrecReal> mean_estimator_bins;
  std::shared_ptr<const ObservableLabels> labels;
};

/// The walking ensemble plus its RNG streams.
class WalkerPopulation
{
public:
  std::vector<std::unique_ptr<Walker>> walkers;
  std::vector<RandomGenerator> rngs; ///< one stream per walker slot

  int size() const { return static_cast<int>(walkers.size()); }
  std::size_t byte_size() const
  {
    std::size_t b = 0;
    for (const auto& w : walkers)
      b += w->byte_size();
    return b;
  }
};

template<typename TR>
class QMCDriver
{
public:
  /// The prototype objects are cloned per thread; the prototype electron
  /// set provides the initial configuration. Throws std::invalid_argument
  /// on nonsensical configs (tau <= 0, num_walkers <= 0, steps < 0,
  /// crowd_size <= 0, num_threads < 0).
  QMCDriver(ParticleSet<TR>& elec, TrialWaveFunction<TR>& twf, Hamiltonian<TR>& ham,
            DriverConfig config);
  ~QMCDriver();

  /// Start a fresh chain (generation 0, the seed's branch stream, no
  /// resume) on a new target population: jittered copies of the
  /// prototype configuration, each evaluated from scratch. When the
  /// population fits the crowds (ceil(num_walkers / crowd_size) <= pool
  /// threads), crowd ic builds slice ic in place, the crowds in parallel,
  /// and the walkers stay resident with no buffer; otherwise crowd 0
  /// builds every walker serially and parks it in a registered, filled
  /// buffer.
  void initialize_population();

  /// The population as it stands: a resident walker carries positions,
  /// bookkeeping and log psi, but its buffer is empty (or stale).
  const WalkerPopulation& population() const { return pop_; }

  /// The population for a caller that may read buffers or move walkers:
  /// resident state is first written into (registered) buffers, and
  /// the walkers are parked from then on.
  WalkerPopulation& population();

  /// Attach an estimator set (nullptr detaches). The set is shared and
  /// read-only: samples land in per-walker rows and reduce at the
  /// barrier, so attaching estimators never perturbs the chain. Call
  /// before run_vmc/run_dmc.
  void set_estimators(std::shared_ptr<const EstimatorSet<TR>> estimators);

  /// Variational Monte Carlo: sample |Psi_T|^2 (used for warmup and the
  /// throughput benchmarks).
  RunResult run_vmc();

  /// Diffusion Monte Carlo (paper Alg. 1).
  RunResult run_dmc();

  /// Serialize the complete chain state at a generation barrier:
  /// population (positions, bookkeeping, lineage, buffers), per-walker
  /// RNG streams, branch stream, trial energy, and the absolute index
  /// of the next generation to run. A resident walker's slot state is
  /// written straight into its snapshot buffer; the walker stays
  /// resident and bufferless.
  [[nodiscard]] io::PopulationSnapshot capture_snapshot(int next_generation,
                                                        io::ChainKind kind) const;

  /// Replace the population with a snapshot's (instead of
  /// initialize_population). Validates compatibility first and offers
  /// the strong guarantee: on any throw the driver is untouched.
  /// Subsequent run_vmc/run_dmc continues the chain at the snapshot's
  /// generation counter, bitwise-exact. The restored walkers are
  /// parked: the first generation loads them from their buffers.
  void restore_snapshot(const io::PopulationSnapshot& snap);

private:
  /// Acceptance and drift-guard tallies of one crowd's sweep, or of a
  /// whole generation once reduced over crowds.
  struct SweepOutcome
  {
    std::int64_t accepted = 0;
    std::int64_t proposed = 0;
    InverseDriftReport drift;
  };

  /// The generation loop both entry points share (Alg. 1): crowd sweeps,
  /// then the serial barrier steps -- statistics, observables, callback,
  /// checkpoint. DMC adds the reweight, branch and trial-energy feedback
  /// steps; `kind` also tags the checkpoints.
  RunResult run_chain(io::ChainKind kind);

  /// Record the measurement-point observables of crowd slot `slot`
  /// (Hamiltonian last_value components, estimator bins) into global
  /// walker row `iw` of the per-generation sample buffers. Rows are
  /// disjoint across walkers, so concurrent crowds never contend.
  void record_samples(Crowd<TR>& crowd, int slot, int iw);

  /// Serial barrier reduction of the sample rows in fixed global
  /// walker order: weighted averages into stats.component_energies /
  /// stats.estimator_bins. `weighted` selects walker weights (DMC,
  /// after reweighting) vs unit weights (VMC).
  void reduce_observables(GenerationStats& stats, bool weighted) const;

  /// The sweep: acquire the population slice [first, first + n) into
  /// the crowd, move every electron for all walkers in lockstep through
  /// the mw_* API, measure (Alg. 1 L4-L11), release. Walker
  /// energies/ages are updated in place. `gen` is the absolute
  /// generation index (drives the drift guard's rotating row selection).
  /// `resident_in`: the slice's state is already in the crowd's slots;
  /// `resident_out`: it stays there after the sweep.
  SweepOutcome sweep_crowd(Crowd<TR>& crowd, int first, int n, bool recompute, int gen,
                           bool resident_in, bool resident_out);

  /// Run one generation's crowds on the pool: crowd task ic sweeps the
  /// population slice [ic*crowd_size, ...) on whichever thread claims
  /// it, with all per-crowd results keyed by ic. When the slices fit the
  /// crowds, task ic always uses crowd ic (the fixed map residency
  /// needs); otherwise each thread uses its own crowd. A VMC generation
  /// on the fixed map leaves the population resident; any other parks
  /// it. Returns the outcomes reduced in crowd order (the fixed
  /// reduction order). `gen` is the absolute generation index (resume
  /// offset included).
  SweepOutcome run_generation_crowds(bool recompute, int gen, bool dmc);

  /// Number of crowd slices of a population of nw walkers, and whether
  /// they fit the crowds (one slice per crowd, the fixed map).
  int num_slices(int nw) const { return (nw + config_.crowd_size - 1) / config_.crowd_size; }
  bool fits_crowds(int nw) const { return num_slices(nw) <= static_cast<int>(crowds_.size()); }

  /// Build walker iw from scratch in crowd slot `slot` (pop_ is sized);
  /// `park` registers and fills its buffer.
  void init_walker(Crowd<TR>& crowd, int slot, int iw, bool park);

  /// Write resident walker iw's slot state into `into`'s buffer.
  void write_slot_state(std::size_t iw, Walker& into) const
  {
    const std::size_t cs = static_cast<std::size_t>(config_.crowd_size);
    crowds_[iw / cs]->write_buffer(static_cast<int>(iw % cs), into);
  }

  /// Generation-barrier checkpoint/interrupt point: writes a snapshot
  /// when due (periodic cadence or pending stop) and reports whether
  /// the run should break out. `gen` is the generation just finished.
  bool checkpoint_barrier(int gen, io::ChainKind kind);

  ParticleSet<TR>& elec_proto_;
  TrialWaveFunction<TR>& twf_proto_;
  Hamiltonian<TR>& ham_proto_;
  DriverConfig config_;
  /// One crowd of `crowd_size` slots per pool thread (the paper's Fig. 4
  /// E_th/Psi_th clones, widened to a batch) with its mw_* scratch. Not
  /// bound to a thread: while the population is resident, walker iw's
  /// state lives in slot iw % crowd_size of crowd iw / crowd_size.
  std::vector<std::unique_ptr<Crowd<TR>>> crowds_;
  WalkerPopulation pop_;
  /// Every walker's state is in its fixed-map slot, and its buffer is
  /// empty or stale. Set by a resident init or a VMC generation on the
  /// fixed map; cleared by a parked init, restore_snapshot, any DMC
  /// generation and the mutable population().
  bool resident_ = false;
  std::shared_ptr<const EstimatorSet<TR>> estimators_;
  std::shared_ptr<const ObservableLabels> labels_;
  /// Per-generation sample buffers, row iw = global walker index:
  /// [num_walkers x num_components] and [num_walkers x total_bins].
  std::vector<FullPrecReal> comp_samples_;
  std::vector<FullPrecReal> est_samples_;
  FullPrecReal trial_energy_ = 0.0;
  RandomGenerator branch_rng_;
  std::unique_ptr<ParallelCrowdRunner> runner_;
  int start_generation_ = 0; ///< nonzero after restore_snapshot
  bool resumed_ = false;
  io::ChainKind resumed_kind_ = io::ChainKind::VMC;
};

/// Branching / population control (Alg. 1 L13: reweight and branch).
/// Computes integer multiplicities from weights, replicates/kills
/// walkers, and clamps the population into [target/2, 2*target].
void branch_walkers(WalkerPopulation& pop, int target_population, RandomGenerator& rng);

} // namespace qmcxx

#endif
