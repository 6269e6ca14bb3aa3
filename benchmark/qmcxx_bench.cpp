// qmcxx_bench: the measurement program behind benchmark/run.py.
//
// One process runs one workload described by a job file (the
// io::parse_job_spec format) and writes raw measurements as one JSON
// object; run.py turns them into metrics and checks them. Two chains:
//
//   untraced  run_engine(EngineRunSpec) with the kernel timers off: set-up
//             seconds and peak RSS, per-generation timestamps and stats.
//   traced    (--trace) the same chain driven from outside through each
//             layer's public calls (Crowd, mw_*, branch_walkers, snapshot
//             io), with a span around every call and the kernel timers on.
//             It runs the generations the untraced chain ran, so run.py
//             can require the two chains to agree bitwise.
//
// Every clock read goes through one process-wide Stopwatch, the span
// epoch.
//
//   qmcxx_bench --job FILE --out FILE [--seconds S] [--warmup W]
//               [--setup-reps K] [--resume SNAP] [--checkpoint PATH]
//               [--trace]
//
// The run stops S seconds after the W warm-up generations (S = 0 runs
// the job's "steps" to the end). K set-ups are timed: K - 1 set-up-only
// runs, whose peak RSS is recorded, then the measured run's own.
// --resume restores a snapshot in place of a fresh population;
// --checkpoint is where the job's periodic checkpoints go.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "concurrency/parallel_crowd_runner.h"
#include "concurrency/rng_streams.h"
#include "drivers/crowd.h"
#include "drivers/qmc_driver_impl.h"
#include "drivers/qmc_system.h"
#include "estimators/estimators.h"
#include "instrument/memory_tracker.h"
#include "instrument/stopwatch.h"
#include "instrument/timer.h"
#include "io/job_spec.h"
#include "io/snapshot.h"
#include "workloads/system_builder.h"

namespace
{

using namespace qmcxx;

const Stopwatch& epoch()
{
  static const Stopwatch watch;
  return watch;
}

struct Args
{
  std::string job, out, resume, checkpoint;
  double seconds = 0.0;
  int warmup = 2;
  int setup_reps = 1;
  bool trace = false;
};

// ---- JSON output --------------------------------------------------------

/// %.17g round-trips doubles exactly; non-finite values use the tokens
/// Python's json module reads, so the finiteness checks see them.
std::string num(double v)
{
  if (std::isnan(v))
    return "NaN";
  if (std::isinf(v))
    return v > 0 ? "Infinity" : "-Infinity";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(std::uint64_t v) { return std::to_string(v); }
std::string num(int v) { return std::to_string(v); }
std::string str(const std::string& s) { return "\"" + s + "\""; }

template<typename T, typename F>
std::string array(const std::vector<T>& items, F&& fmt)
{
  std::string s = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    s += (i ? "," : "") + fmt(items[i]);
  return s + "]";
}

// ---- untraced chain ------------------------------------------------------

struct GenRecord
{
  int gen = 0;
  double t = 0.0; ///< epoch seconds when the generation's stats were reduced
  GenerationStats stats;
};

std::string gen_json(const GenRecord& r)
{
  const GenerationStats& s = r.stats;
  return "{\"gen\":" + num(r.gen) + ",\"t\":" + num(r.t) + ",\"energy\":" + num(s.energy) +
      ",\"variance\":" + num(s.variance) + ",\"weight\":" + num(s.weight) +
      ",\"walkers\":" + num(s.num_walkers) + ",\"acceptance\":" + num(s.acceptance) + "}";
}

EngineRunSpec run_spec(const io::JobSpec& job, const Args& a)
{
  EngineRunSpec spec;
  spec.workload = job.workload;
  spec.spec_path = job.spec_path;
  spec.variant = job.variant;
  spec.dmc = job.dmc;
  spec.estimators = job.estimators;
  spec.driver = job.driver;
  spec.driver.checkpoint_path = a.checkpoint;
  spec.resume_path = a.resume;
  return spec;
}

struct Untraced
{
  std::vector<double> setup_s;
  std::vector<GenRecord> gens;
  /// Peak RSS over the set-up-only runs: system, tables and the target
  /// population. The whole-run peak also depends on how far the DMC
  /// population wanders and on malloc arena reuse across threads.
  double setup_maxrss_mib = 0.0;
};

Untraced run_untraced(const io::JobSpec& job, const Args& a)
{
  TimerRegistry::instance().set_enabled(false);
  Untraced u;
  // Set-up only: steps = 0 builds the system and population, runs nothing.
  for (int r = 1; r < a.setup_reps; ++r)
  {
    EngineRunSpec spec = run_spec(job, a);
    spec.driver.steps = 0;
    u.setup_s.push_back(run_engine(spec).build_seconds);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  u.setup_maxrss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux

  std::atomic<bool> stop{false};
  EngineRunSpec spec = run_spec(job, a);
  spec.driver.stop_flag = &stop;
  spec.driver.on_generation = [&](int gen, const GenerationStats& s) {
    u.gens.push_back(GenRecord{gen, epoch().seconds(), s});
    const std::size_t warm = static_cast<std::size_t>(a.warmup);
    if (a.seconds > 0.0 && u.gens.size() > warm &&
        u.gens.back().t - u.gens[warm - 1].t >= a.seconds)
      stop.store(true);
  };
  u.setup_s.push_back(run_engine(spec).build_seconds);
  return u;
}

// ---- spans ---------------------------------------------------------------

struct SpanRef
{
  int thread = -1;
  int index = -1;
};

/// Spans held in memory per thread (each thread appends only to its own
/// log) and written when the run ends. Per-electron calls are too many
/// to keep one by one; they are tallied per (crowd span, name).
class Tracer
{
public:
  struct Span
  {
    const char* name;
    int thread;
    double start, end;
    SpanRef parent;
    int gen;
  };
  struct Leaf
  {
    const char* name;
    SpanRef crowd;
    int gen;
    std::uint64_t count;
    double seconds;
  };

  explicit Tracer(int threads) : spans_(threads), leaves_(threads)
  {
    for (auto& s : spans_)
      s.reserve(1 << 14);
  }

  SpanRef open(int thread, const char* name, SpanRef parent, int gen)
  {
    auto& log = spans_[thread];
    log.push_back(Span{name, thread, epoch().seconds(), 0.0, parent, gen});
    return SpanRef{thread, static_cast<int>(log.size()) - 1};
  }
  void close(SpanRef s) { spans_[s.thread][s.index].end = epoch().seconds(); }
  void leaf(int thread, const Leaf& l) { leaves_[thread].push_back(l); }

  std::string json() const
  {
    std::string s = "\"spans\":[";
    bool first = true;
    for (const auto& log : spans_)
      for (const Span& sp : log)
      {
        s += std::string(first ? "" : ",") + "[" + str(sp.name) + "," + num(sp.thread) + "," +
            num(sp.start) + "," + num(sp.end) + "," + num(sp.parent.thread) + "," +
            num(sp.parent.index) + "," + num(sp.gen) + "]";
        first = false;
      }
    s += "],\"leaves\":[";
    first = true;
    for (const auto& log : leaves_)
      for (const Leaf& l : log)
      {
        s += std::string(first ? "" : ",") + "[" + str(l.name) + "," + num(l.crowd.thread) + "," +
            num(l.crowd.index) + "," + num(l.gen) + "," + num(l.count) + "," + num(l.seconds) +
            "]";
        first = false;
      }
    return s + "]";
  }

private:
  std::vector<std::vector<Span>> spans_;
  std::vector<std::vector<Leaf>> leaves_;
};

class Scope
{
public:
  Scope(Tracer& t, int thread, const char* name, SpanRef parent, int gen)
      : tracer_(t), ref_(t.open(thread, name, parent, gen))
  {}
  ~Scope() { tracer_.close(ref_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  SpanRef ref() const { return ref_; }

private:
  Tracer& tracer_;
  SpanRef ref_;
};

struct LeafTally
{
  const char* name;
  std::uint64_t count = 0;
  double seconds = 0.0;

  template<typename F>
  void time(F&& f)
  {
    const double t0 = epoch().seconds();
    f();
    seconds += epoch().seconds() - t0;
    ++count;
  }
};

// ---- traced chain --------------------------------------------------------

struct SweepOutcome
{
  std::int64_t accepted = 0, proposed = 0;
  InverseDriftReport drift;
};

struct TracedGen
{
  int gen = 0;
  GenerationStats stats;
  int births = 0, deaths = 0;
  std::size_t checkpoint_bytes = 0;
};

/// QMCDriver::sweep_crowd, step for step, with spans around the calls
/// into the particle, wavefunction, hamiltonian and estimator layers.
template<typename TR>
SweepOutcome traced_sweep(Crowd<TR>& crowd, WalkerPopulation& pop, int first, int n,
                          bool recompute, int gen, const DriverConfig& cfg,
                          const EstimatorSet<TR>* est, std::vector<FullPrecReal>& est_rows,
                          Tracer& tr, int thread, SpanRef task)
{
  {
    Scope s(tr, thread, "drivers.crowd_acquire", task, gen);
    crowd.acquire(&pop.walkers[first], &pop.rngs[first], n, recompute);
  }
  const FullPrecReal tau = cfg.tau;
  const FullPrecReal sqrt_tau = std::sqrt(tau);
  const int nel = crowd.elec(0).size();
  std::array<LeafTally, 5> leaves{LeafTally{"particle.mw_prepare_move"},
                                  LeafTally{"wavefunction.mw_eval_grad"},
                                  LeafTally{"particle.mw_make_move"},
                                  LeafTally{"wavefunction.mw_ratio_grad"},
                                  LeafTally{"wavefunction.mw_accept_reject"}};
  auto& [prepare, eval_grad, make_move, ratio_grad, accept_reject] = leaves;

  SweepOutcome out;
  for (int iw = 0; iw < n; ++iw)
    crowd.naccept[iw] = 0;
  for (int k = 0; k < nel; ++k)
  {
    prepare.time([&] { ParticleSet<TR>::mw_prepare_move(crowd.p_refs(), k); });
    if (cfg.use_drift)
    {
      eval_grad.time([&] {
        TrialWaveFunction<TR>::mw_eval_grad(crowd.twf_refs(), crowd.p_refs(), k,
                                            crowd.grads.data());
      });
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
      RandomGenerator& rng = crowd.rng(iw);
      const FullPrecReal g0 = rng.gaussian(), g1 = rng.gaussian(), g2 = rng.gaussian();
      crowd.chi[iw] = TinyVector<double, 3>{sqrt_tau * g0, sqrt_tau * g1, sqrt_tau * g2};
      crowd.rnew[iw] = crowd.elec(iw).pos(k) + crowd.drift[iw] + crowd.chi[iw];
    }
    make_move.time([&] { ParticleSet<TR>::mw_make_move(crowd.p_refs(), k, crowd.rnew); });
    ratio_grad.time([&] {
      TrialWaveFunction<TR>::mw_ratio_grad(crowd.twf_refs(), crowd.p_refs(), k, crowd.ratios,
                                           crowd.grads, crowd.resources());
    });
    for (int iw = 0; iw < n; ++iw)
    {
      const FullPrecReal ratio = crowd.ratios[iw];
      ++out.proposed;
      bool accept = false;
      if (std::isfinite(ratio) && ratio > 0.0)
      {
        FullPrecReal log_gf = 0.0;
        if (cfg.use_drift)
        {
          const TinyVector<double, 3> drift_new = detail::limited_drift(crowd.grads[iw], tau);
          const TinyVector<double, 3> back = crowd.elec(iw).pos(k) - crowd.rnew[iw] - drift_new;
          const TinyVector<double, 3> fwd = crowd.chi[iw];
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
    accept_reject.time([&] {
      TrialWaveFunction<TR>::mw_accept_reject(crowd.twf_refs(), crowd.p_refs(), k, crowd.accept,
                                              crowd.resources());
    });
  }
  for (const LeafTally& l : leaves)
    tr.leaf(thread, Tracer::Leaf{l.name, task, gen, l.count, l.seconds});

  {
    Scope s(tr, thread, "particle.mw_update", task, gen);
    ParticleSet<TR>::mw_update(crowd.p_refs());
  }
  {
    Scope s(tr, thread, "hamiltonian.mw_evaluate", task, gen);
    Hamiltonian<TR>::mw_evaluate(crowd.ham_refs(), crowd.twf_refs(), crowd.p_refs(),
                                 crowd.resources(), crowd.energies.data());
  }
  {
    Scope s(tr, thread, "estimators.evaluate_all", task, gen);
    if (est)
      for (int iw = 0; iw < n; ++iw)
        est->evaluate_all(crowd.elec(iw), est_rows.data() + static_cast<std::size_t>(first + iw) *
                                                                est->total_bins());
  }
  {
    Scope s(tr, thread, "wavefunction.monitor_inverse_drift", task, gen);
    for (int iw = 0; iw < n; ++iw)
      crowd.twf(iw).monitor_inverse_drift(crowd.elec(iw), cfg.precision, gen, out.drift);
  }
  {
    Scope s(tr, thread, "drivers.crowd_release", task, gen);
    crowd.release();
  }
  for (int iw = 0; iw < n; ++iw)
  {
    Walker& w = crowd.walker(iw);
    w.old_local_energy = w.local_energy;
    w.local_energy = crowd.energies[iw];
    w.age = crowd.naccept[iw] > 0 ? 0 : w.age + 1;
  }
  return out;
}

struct TraceSizes
{
  std::size_t dist_table = 0, spline = 0, walkers = 0, footprint = 0, peak = 0, snapshot_read = 0;
};

/// The run_engine chain rebuilt from the public API (QMCDriver is used
/// only to initialize or restore the population). Runs generations
/// [start, end_gen) and returns the per-generation stats.
template<typename TR>
std::vector<TracedGen> run_traced(const io::JobSpec& job, const SystemSpec& sysspec,
                                  const Args& a, int end_gen, Tracer& tr, TraceSizes& sizes,
                                  KernelTotals& kernels)
{
  const DriverConfig& cfg = job.driver;
  if (cfg.crowd_size < 2)
    throw std::invalid_argument("--trace follows the crowd sweep: crowd_size must be >= 2");
  auto& mt = MemoryTracker::instance();
  auto& timers = TimerRegistry::instance();
  timers.set_enabled(true);
  const std::size_t mem0 = mt.current();

  BuildOptions opt; // as run_engine builds it
  opt.soa_layout = layout_of(job.variant) == EngineLayout::Soa;
  opt.seed = cfg.seed;
  opt.delay_rank = cfg.delay_rank > 1 ? cfg.delay_rank : sysspec.delay_rank;
  std::unique_ptr<QMCSystem<TR>> sys;
  {
    Scope s(tr, 0, "workloads.build_system", {}, -1);
    sys = std::make_unique<QMCSystem<TR>>(build_system<TR>(sysspec, opt));
  }

  DriverConfig init_cfg = cfg; // population set-up only: one slot, no pool
  init_cfg.delay_rank = opt.delay_rank;
  init_cfg.num_threads = 1;
  init_cfg.crowd_size = 1;
  init_cfg.checkpoint_every = 0;
  QMCDriver<TR> driver(*sys->elec, *sys->twf, *sys->ham, init_cfg);
  io::PopulationSnapshot snap;
  const bool resumed = !a.resume.empty();
  {
    Scope s(tr, 0, "io.read_snapshot", {}, -1);
    if (resumed)
      snap = io::read_snapshot_file(a.resume);
  }
  {
    Scope s(tr, 0, "drivers.initialize_population", {}, -1);
    if (resumed)
      driver.restore_snapshot(snap);
    else
      driver.initialize_population();
  }
  WalkerPopulation& pop = driver.population();

  std::shared_ptr<const EstimatorSet<TR>> est;
  if (job.estimators)
    est = make_default_estimators<TR>(sysspec.lattice, sys->table_ee, sysspec.num_electrons);

  ParallelCrowdRunner runner(cfg.num_threads);
  std::vector<std::unique_ptr<Crowd<TR>>> crowds;
  for (int t = 0; t < runner.num_threads(); ++t)
    crowds.push_back(
        std::make_unique<Crowd<TR>>(*sys->elec, *sys->twf, sys->ham.get(), cfg.crowd_size));

  sizes.spline = sys->spos->table_bytes();
  for (auto& c : crowds)
    for (int i = 0; i < c->capacity(); ++i)
      for (int t = 0; t < c->elec(i).num_tables(); ++t)
        sizes.dist_table += c->elec(i).table(t).storage_bytes();
  sizes.snapshot_read = resumed ? io::snapshot_payload_bytes(snap) : 0;
  sizes.footprint = mt.current() - mem0;

  const int start = resumed ? static_cast<int>(snap.generation) : 0;
  const io::ChainKind kind = job.dmc ? io::ChainKind::DMC : io::ChainKind::VMC;
  FullPrecReal trial_energy = 0.0;
  RandomGenerator branch_rng = make_stream(cfg.seed, StreamKind::Branch, 0);
  if (resumed)
  {
    trial_energy = snap.trial_energy;
    branch_rng.restore_state(snap.branch_rng);
  }
  else if (job.dmc)
  {
    for (const auto& w : pop.walkers)
      trial_energy += w->local_energy;
    trial_energy /= pop.size();
  }

  std::vector<TracedGen> out;
  std::vector<FullPrecReal> est_rows;
  for (int gen = start; gen < end_gen; ++gen)
  {
    if (gen == start + a.warmup)
    {
      // Kernel buckets and the tracked peak cover the timed generations.
      timers.reset();
      mt.resetPeak();
    }
    const Scope gen_span(tr, 0, "generation", {}, gen);
    const bool recompute =
        cfg.recompute_period > 0 && gen > 0 && gen % cfg.recompute_period == 0;
    const int nw = pop.size();
    const int cs = cfg.crowd_size;
    const int ncrowds = (nw + cs - 1) / cs;
    std::vector<SweepOutcome> outcomes(static_cast<std::size_t>(ncrowds));
    {
      Scope s(tr, 0, "drivers.barrier", gen_span.ref(), gen);
      est_rows.assign(static_cast<std::size_t>(nw) * (est ? est->total_bins() : 0), 0.0);
    }
    runner.run_generation(ncrowds, [&](int ic, int thread) {
      const Scope task(tr, thread, "drivers.sweep", gen_span.ref(), gen);
      const int lo = ic * cs;
      outcomes[static_cast<std::size_t>(ic)] =
          traced_sweep(*crowds[static_cast<std::size_t>(thread)], pop, lo, std::min(cs, nw - lo),
                       recompute, gen, cfg, est.get(), est_rows, tr, thread, task.ref());
    });

    TracedGen g;
    g.gen = gen;
    GenerationStats& stats = g.stats;
    {
      // Reweight and reduce in fixed walker order, as run_vmc/run_dmc do.
      Scope s(tr, 0, "drivers.barrier", gen_span.ref(), gen);
      std::int64_t accepted = 0, proposed = 0;
      for (const SweepOutcome& o : outcomes)
      {
        accepted += o.accepted;
        proposed += o.proposed;
        stats.drift_rows_sampled += o.drift.rows_sampled;
        stats.drift_refreshes += o.drift.refreshes;
      }
      detail::WeightedWelford acc;
      for (const auto& wp : pop.walkers)
      {
        Walker& w = *wp;
        if (job.dmc)
        {
          const FullPrecReal e_mid = 0.5 * (w.local_energy + w.old_local_energy);
          FullPrecReal branch_weight = std::exp(-cfg.tau * (e_mid - trial_energy));
          branch_weight = std::min(branch_weight, 2.5);
          w.weight *= branch_weight;
          acc.add(w.weight, w.local_energy);
        }
        else
        {
          acc.add(1.0, w.local_energy);
        }
      }
      stats.num_walkers = nw;
      stats.weight = job.dmc ? acc.w_sum : nw;
      stats.energy = acc.mean;
      stats.variance = acc.variance();
      stats.acceptance = proposed > 0 ? static_cast<double>(accepted) / proposed : 0.0;
    }
    {
      Scope s(tr, 0, "drivers.branch_walkers", gen_span.ref(), gen);
      if (job.dmc)
      {
        std::unordered_set<const Walker*> before;
        for (const auto& w : pop.walkers)
          before.insert(w.get());
        branch_walkers(pop, cfg.num_walkers, branch_rng);
        int survivors = 0;
        for (const auto& w : pop.walkers)
          survivors += before.count(w.get()) ? 1 : 0;
        g.deaths = nw - survivors;
        g.births = pop.size() - survivors;
        trial_energy = stats.energy -
            cfg.feedback / cfg.tau * std::log(static_cast<double>(pop.size()) / cfg.num_walkers);
        stats.trial_energy = trial_energy;
      }
    }
    const bool checkpoint = !a.checkpoint.empty() && cfg.checkpoint_every > 0 &&
        (gen + 1) % cfg.checkpoint_every == 0;
    io::PopulationSnapshot ck;
    {
      Scope s(tr, 0, "io.capture_snapshot", gen_span.ref(), gen);
      if (checkpoint)
        ck = driver.capture_snapshot(gen + 1, kind);
    }
    {
      Scope s(tr, 0, "io.write_snapshot", gen_span.ref(), gen);
      if (checkpoint)
        g.checkpoint_bytes = io::write_snapshot_file(a.checkpoint, ck);
    }
    out.push_back(std::move(g));
  }
  kernels = timers.snapshot();
  sizes.walkers = pop.byte_size();
  sizes.peak = mt.peak() - (mem0 < mt.peak() ? mem0 : 0);
  return out;
}

std::string traced_json(const io::JobSpec& job, const Args& a, int end_gen)
{
  const SystemSpec sysspec =
      io::parse_system_spec(io::read_text_file(job.spec_path), job.spec_path);
  if (!job.driver.precision.precision)
    throw std::invalid_argument("--trace needs an explicit \"precision\" in the job file");
  const int threads = ParallelCrowdRunner::resolve_num_threads(job.driver.num_threads);
  Tracer tr(threads);
  TraceSizes sizes;
  KernelTotals kernels;
  const std::vector<TracedGen> gens =
      *job.driver.precision.precision == Precision::Double
      ? run_traced<double>(job, sysspec, a, end_gen, tr, sizes, kernels)
      : run_traced<float>(job, sysspec, a, end_gen, tr, sizes, kernels);

  std::string k = "{";
  for (int i = 0; i < static_cast<int>(Kernel::kCount); ++i)
    k += std::string(i ? "," : "") + str(kernel_name(static_cast<Kernel>(i))) + ":" +
        num(kernels.seconds[i]);
  k += "}";
  const std::string g = array(gens, [](const TracedGen& t) {
    const GenerationStats& s = t.stats;
    return "{\"gen\":" + num(t.gen) + ",\"energy\":" + num(s.energy) +
        ",\"weight\":" + num(s.weight) + ",\"walkers\":" + num(s.num_walkers) +
        ",\"acceptance\":" + num(s.acceptance) + ",\"drift_rows_sampled\":" +
        num(s.drift_rows_sampled) + ",\"drift_refreshes\":" + num(s.drift_refreshes) +
        ",\"births\":" + num(t.births) + ",\"deaths\":" + num(t.deaths) +
        ",\"checkpoint_bytes\":" + num(static_cast<std::uint64_t>(t.checkpoint_bytes)) + "}";
  });
  auto b = [](std::size_t v) { return num(static_cast<std::uint64_t>(v)); };
  return "{\"threads\":" + num(threads) + ",\"generations\":" + g + ",\"kernels\":" + k +
      ",\"bytes\":{\"dist_table\":" + b(sizes.dist_table) + ",\"spline\":" + b(sizes.spline) +
      ",\"walkers\":" + b(sizes.walkers) + ",\"tracked_footprint\":" + b(sizes.footprint) +
      ",\"tracked_peak\":" + b(sizes.peak) + ",\"snapshot_read\":" + b(sizes.snapshot_read) +
      "}," + tr.json() + "}";
}

Args parse_args(int argc, char** argv)
{
  Args a;
  for (int i = 1; i < argc; ++i)
  {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc)
        throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--job")
      a.job = value();
    else if (k == "--out")
      a.out = value();
    else if (k == "--seconds")
      a.seconds = std::stod(value());
    else if (k == "--warmup")
      a.warmup = std::stoi(value());
    else if (k == "--setup-reps")
      a.setup_reps = std::stoi(value());
    else if (k == "--resume")
      a.resume = value();
    else if (k == "--checkpoint")
      a.checkpoint = value();
    else if (k == "--trace")
      a.trace = true;
    else
      throw std::invalid_argument("unknown argument " + k);
  }
  if (a.job.empty() || a.out.empty())
    throw std::invalid_argument("--job and --out are required");
  if (a.warmup < 1 || a.setup_reps < 1 || !(a.seconds >= 0.0))
    throw std::invalid_argument("--warmup and --setup-reps must be >= 1, --seconds >= 0");
  return a;
}

} // namespace

int main(int argc, char** argv)
{
  try
  {
    (void)epoch();
    const Args a = parse_args(argc, argv);
    const io::JobSpec job = io::parse_job_spec(io::read_text_file(a.job), a.job);
    const Untraced u = run_untraced(job, a);
    if (u.gens.size() <= static_cast<std::size_t>(a.warmup))
      throw std::runtime_error("the run ended inside its warm-up generations");

    std::string json = "{\"schema\":\"qmcxx-benchmark-run-v1\",\"compiler\":" +
        str(QMCXX_BENCH_COMPILER) + ",\"flags\":" + str(QMCXX_BENCH_FLAGS) +
        ",\"build_type\":" + str(QMCXX_BENCH_BUILD_TYPE) + ",\"threads\":" +
        num(ParallelCrowdRunner::resolve_num_threads(job.driver.num_threads)) +
        ",\"warmup\":" + num(a.warmup) + ",\"setup_s\":" +
        array(u.setup_s, [](double v) { return num(v); }) + ",\"setup_maxrss_mib\":" +
        num(u.setup_maxrss_mib) + ",\"generations\":" + array(u.gens, gen_json);
    if (a.trace)
      json += ",\"trace\":" + traced_json(job, a, u.gens.back().gen + 1);
    json += "}\n";
    std::ofstream f(a.out);
    f << json;
    if (!f.flush())
      throw std::runtime_error("cannot write " + a.out);
    return 0;
  }
  catch (const std::exception& e)
  {
    std::fprintf(stderr, "qmcxx_bench: %s\n", e.what());
    return 1;
  }
}
