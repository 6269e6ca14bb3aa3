// Crowd (multi-walker) API tests: bitwise chain parity of the VMC and
// DMC drivers across crowd sizes on the Graphite workload, bit-exact
// walker-buffer round-trips inside a crowd, batched-vs-scalar agreement
// of the mw_ratio_grad kernel path, the crowd workspace sizing, and
// resident populations against parked ones.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "drivers/crowd.h"
#include "drivers/qmc_drivers.h"
#include "test_utils.h"
#include "workloads/system_builder.h"
#include "workloads/workloads.h"

using namespace qmcxx;
using namespace qmcxx::testing;

namespace
{

constexpr std::uint64_t kSeed = 20170708;

/// Jittered, buffer-registered walkers cloned from the system prototype
/// (what QMCDriver::initialize_population does, exposed for API tests).
template<typename TR>
std::vector<std::unique_ptr<Walker>> make_registered_walkers(QMCSystem<TR>& sys, int n,
                                                             std::uint64_t seed)
{
  std::vector<std::unique_ptr<Walker>> walkers;
  for (int iw = 0; iw < n; ++iw)
  {
    auto w = std::make_unique<Walker>(sys.elec->size());
    w->id = static_cast<std::uint64_t>(iw);
    RandomGenerator rng(seed + 31ull * static_cast<std::uint64_t>(iw));
    for (int i = 0; i < sys.elec->size(); ++i)
      w->R[i] = sys.elec->pos(i) +
          TinyVector<double, 3>{0.1 * rng.gaussian(), 0.1 * rng.gaussian(), 0.1 * rng.gaussian()};
    sys.elec->load_walker(*w);
    sys.elec->update();
    sys.twf->evaluate_log(*sys.elec);
    sys.twf->register_data(w->buffer);
    sys.twf->update_buffer(*w);
    walkers.push_back(std::move(w));
  }
  return walkers;
}

void expect_nonnegative_variance(const RunResult& r)
{
  for (std::size_t g = 0; g < r.generations.size(); ++g)
    EXPECT_GE(r.generations[g].variance, 0.0) << "generation " << g;
}

} // namespace

TEST(CrowdParity, TinyVmcIdenticalAcrossCrowdSizes)
{
  // Per-walker RNG streams are private, so every crowd size must replay
  // exactly the same Markov chain.
  const SystemSpec spec = tiny_spec();
  const RunResult crowd1 =
      build_and_run<double>(spec, short_chain_config(kSeed, 4, 4, 1), /*dmc=*/false);
  const RunResult crowd2 =
      build_and_run<double>(spec, short_chain_config(kSeed, 4, 4, 2), /*dmc=*/false);
  const RunResult crowd4 =
      build_and_run<double>(spec, short_chain_config(kSeed, 4, 4, 4), /*dmc=*/false);
  expect_chains_bitwise(crowd1, crowd2);
  expect_chains_bitwise(crowd1, crowd4);
}

TEST(CrowdParity, GraphiteVmcBitwiseAcrossCrowdSizes)
{
  const SystemSpec spec = workload_spec(Workload::Graphite);
  const RunResult crowd1 =
      build_and_run<double>(spec, short_chain_config(kSeed, /*steps=*/2, 4, 1), false);
  const RunResult crowd4 =
      build_and_run<double>(spec, short_chain_config(kSeed, /*steps=*/2, 4, 4), false);
  expect_chains_bitwise(crowd1, crowd4);
}

TEST(CrowdParity, GraphiteDmcBitwiseAcrossCrowdSizes)
{
  const SystemSpec spec = workload_spec(Workload::Graphite);
  const RunResult crowd1 =
      build_and_run<double>(spec, short_chain_config(kSeed, /*steps=*/2, 4, 1), true);
  const RunResult crowd4 =
      build_and_run<double>(spec, short_chain_config(kSeed, /*steps=*/2, 4, 4), true);
  expect_chains_bitwise(crowd1, crowd4);
}

TEST(CrowdParity, PartialCrowdsAndOddPopulations)
{
  // crowd_size that does not divide the population exercises the
  // partial-slice acquire.
  const SystemSpec spec = tiny_spec();
  const RunResult crowd1 = build_and_run<double>(spec, short_chain_config(kSeed, 3, 5, 1), false);
  const RunResult crowd3 = build_and_run<double>(spec, short_chain_config(kSeed, 3, 5, 3), false);
  expect_chains_bitwise(crowd1, crowd3);
}

TEST(CrowdBuffer, RoundTripBitExactInsideCrowd)
{
  // register_data -> update_buffer -> copy_from_buffer -> update_buffer
  // must reproduce the identical byte stream for every walker of a
  // crowd: the buffer protocol may not lose or reorder component state.
  const SystemSpec spec = tiny_spec();
  BuildOptions opt;
  auto sys = build_system<double>(spec, opt);
  const int nw = 4;
  auto walkers = make_registered_walkers(sys, nw, 99);
  std::vector<RandomGenerator> rngs;
  for (int iw = 0; iw < nw; ++iw)
    rngs.emplace_back(1000 + iw);

  Crowd<double> crowd(*sys.elec, *sys.twf, sys.ham.get(), nw);
  crowd.acquire(walkers.data(), rngs.data(), nw, /*recompute=*/false);
  crowd.release();
  for (int iw = 0; iw < nw; ++iw)
  {
    Walker& w = *walkers[iw];
    ASSERT_GT(w.buffer.size(), 0u);
    const std::vector<char> snapshot(w.buffer.data(), w.buffer.data() + w.buffer.size());
    crowd.twf(iw).copy_from_buffer(crowd.elec(iw), w);
    crowd.twf(iw).update_buffer(w);
    ASSERT_EQ(w.buffer.size(), snapshot.size());
    EXPECT_EQ(0, std::memcmp(w.buffer.data(), snapshot.data(), snapshot.size()))
        << "walker " << iw << " buffer round-trip not bit-exact";
  }
}

TEST(CrowdKernels, BatchedRatioGradMatchesScalar)
{
  // The genuinely batched determinant/SPO path must agree with the
  // scalar per-walker loop it replaces, walker by walker.
  const SystemSpec spec = tiny_spec();
  BuildOptions opt;
  auto sys_a = build_system<double>(spec, opt);
  auto sys_b = build_system<double>(spec, opt);
  const int nw = 3;
  auto walkers_a = make_registered_walkers(sys_a, nw, 7);
  auto walkers_b = make_registered_walkers(sys_b, nw, 7);
  std::vector<RandomGenerator> rngs_a, rngs_b;
  for (int iw = 0; iw < nw; ++iw)
  {
    rngs_a.emplace_back(55 + iw);
    rngs_b.emplace_back(55 + iw);
  }
  Crowd<double> batched(*sys_a.elec, *sys_a.twf, nullptr, nw);
  Crowd<double> scalar(*sys_b.elec, *sys_b.twf, nullptr, nw);
  batched.acquire(walkers_a.data(), rngs_a.data(), nw, /*recompute=*/false);
  scalar.acquire(walkers_b.data(), rngs_b.data(), nw, /*recompute=*/false);

  RandomGenerator move_rng(17);
  for (int k : {0, 3, 9, 15})
  {
    std::vector<TinyVector<double, 3>> rnew(nw);
    for (int iw = 0; iw < nw; ++iw)
      rnew[iw] = batched.elec(iw).pos(k) +
          TinyVector<double, 3>{0.2 * move_rng.gaussian(), 0.2 * move_rng.gaussian(),
                                0.2 * move_rng.gaussian()};

    // Batched path.
    ParticleSet<double>::mw_prepare_move(batched.p_refs(), k);
    ParticleSet<double>::mw_make_move(batched.p_refs(), k, rnew);
    TrialWaveFunction<double>::mw_ratio_grad(batched.twf_refs(), batched.p_refs(), k,
                                             batched.ratios, batched.grads, batched.resources());
    // Scalar reference path.
    for (int iw = 0; iw < nw; ++iw)
    {
      ParticleSet<double>& p = scalar.elec(iw);
      p.prepare_move(k);
      p.make_move(k, rnew[iw]);
      TinyVector<double, 3> grad{};
      const double ratio = scalar.twf(iw).calc_ratio_grad(p, k, grad);
      EXPECT_NEAR(batched.ratios[iw], ratio, 1e-12 * std::abs(ratio) + 1e-14)
          << "walker " << iw << " electron " << k;
      for (unsigned d = 0; d < 3; ++d)
        EXPECT_NEAR(batched.grads[iw][d], grad[d], 1e-10 * std::abs(grad[d]) + 1e-12)
            << "walker " << iw << " electron " << k << " dim " << d;
    }
    // Reject everywhere so both crowds stay on the same configuration.
    std::vector<char> reject_all(nw, 0);
    TrialWaveFunction<double>::mw_accept_reject(batched.twf_refs(), batched.p_refs(), k,
                                                reject_all, batched.resources());
    for (int iw = 0; iw < nw; ++iw)
      scalar.twf(iw).reject_move(scalar.elec(iw), k);
  }
}

TEST(CrowdKernels, RatioGradKeepsWorkspaceSizedToCapacity)
{
  // The crowd's ratios/grads are capacity-sized workspace: a partial
  // slice must not shrink them, or a later, fuller slice (DMC population
  // growth) indexes grads[iw] past size().
  const SystemSpec spec = tiny_spec();
  BuildOptions opt;
  auto sys = build_system<double>(spec, opt);
  auto walkers = make_registered_walkers(sys, 2, 11);
  std::vector<RandomGenerator> rngs{RandomGenerator(1), RandomGenerator(2)};
  Crowd<double> crowd(*sys.elec, *sys.twf, nullptr, /*capacity=*/4);
  crowd.acquire(walkers.data(), rngs.data(), 2, /*recompute=*/false);
  const int k = 5;
  for (int iw = 0; iw < 2; ++iw)
    crowd.rnew[iw] = crowd.elec(iw).pos(k) + TinyVector<double, 3>{0.1, -0.05, 0.02};
  ParticleSet<double>::mw_prepare_move(crowd.p_refs(), k);
  ParticleSet<double>::mw_make_move(crowd.p_refs(), k, crowd.rnew);
  TrialWaveFunction<double>::mw_ratio_grad(crowd.twf_refs(), crowd.p_refs(), k, crowd.ratios,
                                           crowd.grads, crowd.resources());
  EXPECT_EQ(crowd.ratios.size(), 4u);
  EXPECT_EQ(crowd.grads.size(), 4u);
  for (int iw = 0; iw < 2; ++iw)
    EXPECT_TRUE(std::isfinite(crowd.ratios[iw])) << "walker " << iw;
}

TEST(CrowdResources, PerComponentResourcesAreAllocated)
{
  const SystemSpec spec = tiny_spec();
  BuildOptions opt;
  auto sys = build_system<double>(spec, opt);
  MWResourceSet res = sys.twf->make_mw_resources(4);
  ASSERT_EQ(static_cast<int>(res.per_component.size()), sys.twf->num_components());
  EXPECT_EQ(res.num_walkers(), 4);
  // Determinants batch (slots hold DiracDetMWResource); Jastrows use the
  // flat fallback (null slots).
  int batched = 0;
  for (const auto& r : res.per_component)
    if (r)
      ++batched;
  EXPECT_EQ(batched, 2) << "expected exactly the two determinants to allocate crowd resources";
}

// ---------------------------------------------------------------------
// Threaded crowd execution: chains must be bitwise-identical for every
// thread count at a fixed crowd decomposition (per-walker RNG streams
// are derived from the master seed, never shared across crowds, and the
// population reduction runs serially in fixed walker order).
// ---------------------------------------------------------------------

TEST(ThreadParity, TinyVmcBitwiseIdenticalAcrossThreadCounts)
{
  const SystemSpec spec = tiny_spec();
  DriverConfig cfg = short_chain_config(kSeed, /*steps=*/4, /*walkers=*/5, /*crowd_size=*/2);
  const RunResult serial = build_and_run<double>(spec, cfg, /*dmc=*/false);
  expect_nonnegative_variance(serial);
  for (int nthreads : {2, 4})
  {
    cfg.num_threads = nthreads;
    const RunResult threaded = build_and_run<double>(spec, cfg, /*dmc=*/false);
    expect_chains_bitwise(serial, threaded);
  }
}

TEST(ThreadParity, GraphiteVmcBitwiseIdenticalAcrossThreadCounts)
{
  const SystemSpec spec = workload_spec(Workload::Graphite);
  DriverConfig cfg = short_chain_config(kSeed, /*steps=*/2, /*walkers=*/6, /*crowd_size=*/2);
  const RunResult serial = build_and_run<double>(spec, cfg, /*dmc=*/false);
  expect_nonnegative_variance(serial);
  for (int nthreads : {2, 4})
  {
    cfg.num_threads = nthreads;
    const RunResult threaded = build_and_run<double>(spec, cfg, /*dmc=*/false);
    expect_chains_bitwise(serial, threaded);
  }
}

TEST(ThreadParity, GraphiteDmcBitwiseIdenticalAcrossThreadCounts)
{
  // DMC adds the serial branching barrier and trial-energy feedback:
  // a nondeterministic population reduction would change trial_energy
  // and fork the whole subsequent chain, so this is the sharpest
  // thread-count parity check in the suite.
  const SystemSpec spec = workload_spec(Workload::Graphite);
  DriverConfig cfg = short_chain_config(kSeed, /*steps=*/2, /*walkers=*/6, /*crowd_size=*/2);
  const RunResult serial = build_and_run<double>(spec, cfg, /*dmc=*/true);
  expect_nonnegative_variance(serial);
  for (int nthreads : {2, 4})
  {
    cfg.num_threads = nthreads;
    const RunResult threaded = build_and_run<double>(spec, cfg, /*dmc=*/true);
    expect_chains_bitwise(serial, threaded);
  }
}

TEST(ThreadParity, ThreadsComposeWithSingleWalkerCrowds)
{
  // crowd_size == 1 threads over walkers one crowd each; it must agree
  // bitwise with its own serial run too.
  const SystemSpec spec = tiny_spec();
  DriverConfig cfg = short_chain_config(kSeed, /*steps=*/3, /*walkers=*/4, /*crowd_size=*/1);
  const RunResult serial = build_and_run<double>(spec, cfg, /*dmc=*/true);
  cfg.num_threads = 4;
  const RunResult threaded = build_and_run<double>(spec, cfg, /*dmc=*/true);
  expect_chains_bitwise(serial, threaded);
}

// ---------------------------------------------------------------------
// Residency: when a VMC population fits the crowds, each walker's state
// stays in its crowd slot between generations, and walker buffers are
// written only for what reads them (DMC branching, snapshots, the
// mutable population()). Crowd 3 on 2 threads fits a population of 5
// (two slices, the second partial) and runs resident; crowd 1 on 1
// thread parks every walker. The two must agree bitwise -- chains,
// buffers and snapshots.
// ---------------------------------------------------------------------

namespace
{

constexpr int kResidentWalkers = 5;

DriverConfig residency_config(int crowd, int threads, int steps)
{
  DriverConfig cfg = short_chain_config(kSeed, steps, kResidentWalkers, crowd);
  cfg.num_threads = threads;
  cfg.recompute_period = 2; // generation 2 rebuilds from scratch
  return cfg;
}

/// What a bufferless walker holds: the record and its positions.
std::size_t positions_only_bytes(const WalkerPopulation& pop)
{
  std::size_t b = 0;
  for (const auto& w : pop.walkers)
    b += sizeof(Walker) + w->R.capacity() * sizeof(Walker::Pos);
  return b;
}

std::size_t registered_layout_bytes(TrialWaveFunction<double>& twf)
{
  PooledBuffer probe = PooledBuffer::layout_only();
  twf.register_data(probe);
  return probe.size();
}

} // namespace

TEST(Residency, ResidentInitHoldsPositionsOnly)
{
  auto sys = build_system<double>(tiny_spec(), BuildOptions{});
  QMCDriver<double> resident(*sys.elec, *sys.twf, *sys.ham, residency_config(3, 2, 1));
  resident.initialize_population();
  const WalkerPopulation& pop = std::as_const(resident).population();
  ASSERT_EQ(pop.size(), kResidentWalkers);
  for (const auto& w : pop.walkers)
    EXPECT_EQ(w->buffer.size(), 0u) << "walker " << w->id;
  EXPECT_EQ(pop.byte_size(), positions_only_bytes(pop));

  // Parked, every walker carries the registered layout.
  QMCDriver<double> parked(*sys.elec, *sys.twf, *sys.ham, residency_config(1, 1, 1));
  parked.initialize_population();
  const std::size_t layout = registered_layout_bytes(*sys.twf);
  for (const auto& w : std::as_const(parked).population().walkers)
    EXPECT_EQ(w->buffer.size(), layout) << "walker " << w->id;
}

TEST(Residency, ResidentCaptureEqualsParkedOnFourThreads)
{
  // Four single-walker crowds on four threads: the population is built
  // in place in parallel and sweeps resident; the snapshot writes each
  // slot's state directly. Three generations, the last a recompute.
  auto sys = build_system<double>(tiny_spec(), BuildOptions{});
  DriverConfig cfg = residency_config(1, 4, 3);
  cfg.num_walkers = 4;
  QMCDriver<double> resident(*sys.elec, *sys.twf, *sys.ham, cfg);
  resident.initialize_population();
  const RunResult r = resident.run_vmc();
  cfg.num_threads = 1;
  QMCDriver<double> parked(*sys.elec, *sys.twf, *sys.ham, cfg);
  parked.initialize_population();
  const RunResult p = parked.run_vmc();
  expect_chains_bitwise(p, r);
  expect_snapshots_identical(parked.capture_snapshot(3, io::ChainKind::VMC),
                             resident.capture_snapshot(3, io::ChainKind::VMC));
  // Capturing read the slots; it brought no buffer back.
  for (const auto& w : std::as_const(resident).population().walkers)
    EXPECT_EQ(w->buffer.size(), 0u) << "walker " << w->id;
}

TEST(Residency, RestoreAfterResidentRunContinuesReferenceChain)
{
  // A driver whose slots hold its own generation-4 state restores a
  // generation-2 snapshot of the reference chain: the restored walkers
  // must be loaded from their buffers, not taken from the slots.
  auto sys = build_system<double>(tiny_spec(), BuildOptions{});
  QMCDriver<double> ref(*sys.elec, *sys.twf, *sys.ham, residency_config(1, 1, 4));
  ref.initialize_population();
  const RunResult full = ref.run_vmc();

  QMCDriver<double> head(*sys.elec, *sys.twf, *sys.ham, residency_config(3, 2, 2));
  head.initialize_population();
  (void)head.run_vmc();
  const io::PopulationSnapshot at2 = head.capture_snapshot(2, io::ChainKind::VMC);

  QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, residency_config(3, 2, 4));
  driver.initialize_population();
  (void)driver.run_vmc();
  driver.restore_snapshot(at2);
  const RunResult tail = driver.run_vmc();
  ASSERT_EQ(tail.start_generation, 2);
  const std::vector<GenerationStats> ref_tail(full.generations.begin() + 2,
                                              full.generations.end());
  EXPECT_TRUE(chains_bitwise(ref_tail, tail.generations));
  expect_snapshots_identical(ref.capture_snapshot(4, io::ChainKind::VMC),
                             driver.capture_snapshot(4, io::ChainKind::VMC));
}

TEST(Residency, ResidentInitThenDmcRegistersEveryBuffer)
{
  // No resident walker has a registered buffer; DMC branching clones
  // from buffers, so its first generation registers and writes them all.
  auto sys = build_system<double>(tiny_spec(), BuildOptions{});
  QMCDriver<double> resident(*sys.elec, *sys.twf, *sys.ham, residency_config(3, 2, 2));
  resident.initialize_population();
  const RunResult r = resident.run_dmc();
  QMCDriver<double> parked(*sys.elec, *sys.twf, *sys.ham, residency_config(1, 1, 2));
  parked.initialize_population();
  const RunResult p = parked.run_dmc();
  expect_chains_bitwise(p, r);
  const std::size_t layout = registered_layout_bytes(*sys.twf);
  for (const auto& w : std::as_const(resident).population().walkers)
    EXPECT_EQ(w->buffer.size(), layout) << "walker " << w->id;
  expect_snapshots_identical(parked.capture_snapshot(2, io::ChainKind::DMC),
                             resident.capture_snapshot(2, io::ChainKind::DMC));
}

TEST(Residency, MutablePopulationWritesBuffersBack)
{
  auto sys = build_system<double>(tiny_spec(), BuildOptions{});
  QMCDriver<double> resident(*sys.elec, *sys.twf, *sys.ham, residency_config(3, 2, 2));
  QMCDriver<double> parked(*sys.elec, *sys.twf, *sys.ham, residency_config(1, 1, 2));
  for (QMCDriver<double>* d : {&resident, &parked})
  {
    d->initialize_population();
    (void)d->run_vmc();
  }
  const WalkerPopulation& a = resident.population();
  const WalkerPopulation& b = parked.population();
  ASSERT_EQ(a.size(), b.size());
  for (int iw = 0; iw < a.size(); ++iw)
  {
    const Walker& wa = *a.walkers[static_cast<std::size_t>(iw)];
    const Walker& wb = *b.walkers[static_cast<std::size_t>(iw)];
    ASSERT_EQ(wa.buffer.size(), wb.buffer.size()) << "walker " << iw;
    EXPECT_EQ(std::memcmp(wa.buffer.data(), wb.buffer.data(), wa.buffer.size()), 0)
        << "walker " << iw;
    EXPECT_EQ(wa.log_psi, wb.log_psi) << "walker " << iw;
    EXPECT_EQ(std::memcmp(wa.R.data(), wb.R.data(), wa.R.size() * sizeof(Walker::Pos)), 0)
        << "walker " << iw;
  }
  // The handed-out population is parked: the next chain loads it from
  // the buffers just written.
  expect_chains_bitwise(parked.run_vmc(), resident.run_vmc());
}
