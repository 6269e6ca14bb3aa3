// Crowd (multi-walker) API tests: bitwise chain parity of the VMC and
// DMC drivers across crowd sizes on the Graphite workload, bit-exact
// walker-buffer round-trips inside a crowd, batched-vs-scalar agreement
// of the mw_ratio_grad kernel path, and the crowd workspace sizing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "drivers/crowd.h"
#include "drivers/qmc_drivers.h"
#include "test_utils.h"
#include "workloads/system_builder.h"
#include "workloads/workloads.h"

using namespace qmcxx;
using namespace qmcxx::testing;

namespace
{

DriverConfig crowd_config(int crowd_size, int steps = 4, int walkers = 4)
{
  DriverConfig cfg;
  cfg.tau = 0.02;
  cfg.steps = steps;
  cfg.num_walkers = walkers;
  cfg.seed = 20170708;
  cfg.recompute_period = 3;
  cfg.num_threads = 1;
  cfg.crowd_size = crowd_size;
  return cfg;
}

template<typename TR>
RunResult run_workload(const SystemSpec& spec, const DriverConfig& cfg, bool dmc)
{
  BuildOptions opt;
  auto sys = build_system<TR>(spec, opt);
  QMCDriver<TR> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();
  return dmc ? driver.run_dmc() : driver.run_vmc();
}

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
  const RunResult crowd1 = run_workload<double>(spec, crowd_config(1), /*dmc=*/false);
  const RunResult crowd2 = run_workload<double>(spec, crowd_config(2), /*dmc=*/false);
  const RunResult crowd4 = run_workload<double>(spec, crowd_config(4), /*dmc=*/false);
  expect_chains_bitwise(crowd1, crowd2);
  expect_chains_bitwise(crowd1, crowd4);
}

TEST(CrowdParity, GraphiteVmcBitwiseAcrossCrowdSizes)
{
  const SystemSpec spec = workload_spec(Workload::Graphite);
  const RunResult crowd1 = run_workload<double>(spec, crowd_config(1, /*steps=*/2), false);
  const RunResult crowd4 = run_workload<double>(spec, crowd_config(4, /*steps=*/2), false);
  expect_chains_bitwise(crowd1, crowd4);
}

TEST(CrowdParity, GraphiteDmcBitwiseAcrossCrowdSizes)
{
  const SystemSpec spec = workload_spec(Workload::Graphite);
  const RunResult crowd1 = run_workload<double>(spec, crowd_config(1, /*steps=*/2), true);
  const RunResult crowd4 = run_workload<double>(spec, crowd_config(4, /*steps=*/2), true);
  expect_chains_bitwise(crowd1, crowd4);
}

TEST(CrowdParity, PartialCrowdsAndOddPopulations)
{
  // crowd_size that does not divide the population exercises the
  // partial-slice acquire.
  const SystemSpec spec = tiny_spec();
  const RunResult crowd1 = run_workload<double>(spec, crowd_config(1, 3, 5), false);
  const RunResult crowd3 = run_workload<double>(spec, crowd_config(3, 3, 5), false);
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
  DriverConfig cfg = crowd_config(/*crowd_size=*/2, /*steps=*/4, /*walkers=*/5);
  const RunResult serial = run_workload<double>(spec, cfg, /*dmc=*/false);
  expect_nonnegative_variance(serial);
  for (int nthreads : {2, 4})
  {
    cfg.num_threads = nthreads;
    const RunResult threaded = run_workload<double>(spec, cfg, /*dmc=*/false);
    expect_chains_bitwise(serial, threaded);
  }
}

TEST(ThreadParity, GraphiteVmcBitwiseIdenticalAcrossThreadCounts)
{
  const SystemSpec spec = workload_spec(Workload::Graphite);
  DriverConfig cfg = crowd_config(/*crowd_size=*/2, /*steps=*/2, /*walkers=*/6);
  const RunResult serial = run_workload<double>(spec, cfg, /*dmc=*/false);
  expect_nonnegative_variance(serial);
  for (int nthreads : {2, 4})
  {
    cfg.num_threads = nthreads;
    const RunResult threaded = run_workload<double>(spec, cfg, /*dmc=*/false);
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
  DriverConfig cfg = crowd_config(/*crowd_size=*/2, /*steps=*/2, /*walkers=*/6);
  const RunResult serial = run_workload<double>(spec, cfg, /*dmc=*/true);
  expect_nonnegative_variance(serial);
  for (int nthreads : {2, 4})
  {
    cfg.num_threads = nthreads;
    const RunResult threaded = run_workload<double>(spec, cfg, /*dmc=*/true);
    expect_chains_bitwise(serial, threaded);
  }
}

TEST(ThreadParity, ThreadsComposeWithSingleWalkerCrowds)
{
  // crowd_size == 1 threads over walkers one crowd each; it must agree
  // bitwise with its own serial run too.
  const SystemSpec spec = tiny_spec();
  DriverConfig cfg = crowd_config(/*crowd_size=*/1, /*steps=*/3, /*walkers=*/4);
  const RunResult serial = run_workload<double>(spec, cfg, /*dmc=*/true);
  cfg.num_threads = 4;
  const RunResult threaded = run_workload<double>(spec, cfg, /*dmc=*/true);
  expect_chains_bitwise(serial, threaded);
}
