// Integration tests: system builder, VMC/DMC drivers (Alg. 1),
// branching/population control, engine-variant equivalence, and the
// plane-wave kinetic-energy cross-check of the whole wavefunction stack.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "drivers/qmc_driver_impl.h"
#include "drivers/qmc_system.h"
#include "test_utils.h"
#include "workloads/system_builder.h"

using namespace qmcxx;
using namespace qmcxx::testing;

namespace
{

constexpr std::uint64_t kSeed = 77;

} // namespace

TEST(SystemBuilder, BuildsAllLayoutsAndPrecisions)
{
  BuildOptions aos, soa;
  aos.soa_layout = false;
  soa.soa_layout = true;
  auto s1 = build_system<double>(tiny_spec(), aos);
  auto s2 = build_system<float>(tiny_spec(), soa);
  EXPECT_EQ(s1.elec->size(), 16);
  EXPECT_EQ(s1.ions->size(), 4);
  EXPECT_EQ(s1.twf->num_components(), 4); // J2, J1, 2 determinants
  EXPECT_EQ(s2.twf->num_components(), 4);
  EXPECT_EQ(s1.ham->num_components(), 5); // kin, ee, ei, ii, nlpp
  // Log psi evaluates finite in both.
  s1.elec->update();
  const double l1 = s1.twf->evaluate_log(*s1.elec);
  s2.elec->update();
  const double l2 = s2.twf->evaluate_log(*s2.elec);
  EXPECT_TRUE(std::isfinite(l1));
  EXPECT_TRUE(std::isfinite(l2));
}

TEST(SystemBuilder, RefAndCurrentLogPsiAgree)
{
  BuildOptions aos, soa;
  aos.soa_layout = false;
  soa.soa_layout = true;
  auto s1 = build_system<double>(tiny_spec(), aos);
  auto s2 = build_system<double>(tiny_spec(), soa);
  // Same seed -> same electron start configuration.
  for (int i = 0; i < 16; ++i)
    for (unsigned d = 0; d < 3; ++d)
      ASSERT_EQ(s1.elec->pos(i)[d], s2.elec->pos(i)[d]);
  s1.elec->update();
  s2.elec->update();
  const double l1 = s1.twf->evaluate_log(*s1.elec);
  const double l2 = s2.twf->evaluate_log(*s2.elec);
  EXPECT_NEAR(l1, l2, 1e-8 * std::abs(l1) + 1e-8);
}

TEST(SystemBuilder, LocalEnergyAgreesAcrossLayouts)
{
  BuildOptions aos, soa;
  aos.soa_layout = false;
  soa.soa_layout = true;
  auto s1 = build_system<double>(tiny_spec(), aos);
  auto s2 = build_system<double>(tiny_spec(), soa);
  s1.elec->update();
  s1.twf->evaluate_log(*s1.elec);
  s2.elec->update();
  s2.twf->evaluate_log(*s2.elec);
  const double e1 = s1.ham->evaluate(*s1.elec, *s1.twf);
  const double e2 = s2.ham->evaluate(*s2.elec, *s2.twf);
  EXPECT_NEAR(e1, e2, 1e-6 * std::abs(e1) + 1e-6);
}

TEST(PlaneWaveDeterminant, KineticEnergyMatchesBandSum)
{
  // Pure plane-wave orbitals: the determinant kinetic energy is
  // sum_j k_j^2 / 2 independent of the configuration. This exercises
  // spline fit, vgh evaluation, the SPO-vgl transform, the determinant
  // G/L accumulation and the kinetic component together.
  const double box = 6.0;
  const Lattice lat = Lattice::cubic(box);
  const int nel = 8;
  const int grid = 20;

  // Orbitals: 1, cos(b.r), sin(b.r) for the 3 shortest b, cos(b4.r) with
  // b4 the (1,1,0) vector.
  struct Mode
  {
    TinyVector<int, 3> k;
    bool sine;
  };
  const std::vector<Mode> modes = {{{0, 0, 0}, false}, {{1, 0, 0}, false}, {{1, 0, 0}, true},
                                   {{0, 1, 0}, false}, {{0, 1, 0}, true},  {{0, 0, 1}, false},
                                   {{0, 0, 1}, true},  {{1, 1, 0}, false}};
  auto backend = std::make_shared<MultiBspline3D<double>>();
  backend->resize(grid, grid, grid, nel);
  std::vector<std::vector<double>> samples(nel,
                                           std::vector<double>(grid * grid * grid));
  for (int s = 0; s < nel; ++s)
  {
    std::size_t idx = 0;
    for (int ix = 0; ix < grid; ++ix)
      for (int iy = 0; iy < grid; ++iy)
        for (int iz = 0; iz < grid; ++iz)
        {
          const double phase = 2 * M_PI *
              (modes[s].k[0] * static_cast<double>(ix) / grid +
               modes[s].k[1] * static_cast<double>(iy) / grid +
               modes[s].k[2] * static_cast<double>(iz) / grid);
          samples[s][idx++] = modes[s].sine ? std::sin(phase) : std::cos(phase);
        }
  }
  fit_splines_periodic<double>(*backend, grid, grid, grid, samples);
  auto spos = std::make_shared<BsplineSPOSetSoA<double>>(lat, backend);

  ParticleSet<double> p("e", lat);
  p.add_species("u", -1.0);
  p.create({nel});
  RandomGenerator rng(5);
  for (int i = 0; i < nel; ++i)
    p.set_pos(i, lat.to_cart({rng.uniform(), rng.uniform(), rng.uniform()}));
  p.update();

  TrialWaveFunction<double> twf(nel);
  twf.add_component(std::make_unique<DiracDeterminant<double>>(spos, 0, nel));
  twf.evaluate_log(p);
  const double ke = twf.kinetic_energy();

  const double b = 2 * M_PI / box;
  double expect = 0;
  for (const auto& m : modes)
    expect += 0.5 * b * b *
        static_cast<double>(m.k[0] * m.k[0] + m.k[1] * m.k[1] + m.k[2] * m.k[2]);
  EXPECT_NEAR(ke, expect, 0.02 * expect + 1e-8);
}

TEST(VmcDriver, RunsAndProducesFiniteStatistics)
{
  BuildOptions opt;
  auto sys = build_system<double>(tiny_spec(), opt);
  QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, short_chain_config(kSeed, 6, 4));
  driver.initialize_population();
  const RunResult res = driver.run_vmc();
  ASSERT_EQ(res.generations.size(), 6u);
  EXPECT_TRUE(std::isfinite(res.mean_energy));
  EXPECT_GT(res.mean_acceptance, 0.3);
  EXPECT_LE(res.mean_acceptance, 1.0);
  EXPECT_EQ(res.total_samples, 24u);
  EXPECT_GT(res.throughput, 0.0);
  // Welford accumulation: the per-generation variance can never go
  // negative, even for tightly clustered energies.
  for (const auto& g : res.generations)
    EXPECT_GE(g.variance, 0.0);
}

TEST(VmcDriver, ZeroWidthJastrowRunsWithDrift)
{
  // j1_width 0 (which the spec parser rejects) makes every J1 value NaN.
  // The NaN gradient must not become a NaN drift and so a NaN proposal:
  // the generation completes and every position stays finite.
  SystemSpec spec = tiny_spec();
  spec.species[0].j1_width = 0.0;
  auto sys = build_system<double>(spec, BuildOptions{});
  const DriverConfig cfg = short_chain_config(kSeed, 1, 2);
  ASSERT_TRUE(cfg.use_drift);
  QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();
  EXPECT_EQ(driver.run_vmc().generations.size(), 1u);
  for (const auto& w : driver.population().walkers)
    for (const auto& r : w->R)
      EXPECT_TRUE(std::isfinite(r[0]) && std::isfinite(r[1]) && std::isfinite(r[2]));
}

TEST(LimitedDrift, NonFiniteGradientGivesZeroDrift)
{
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const TinyVector<double, 3>& grad :
       {TinyVector<double, 3>{nan, 0.5, 0.0}, TinyVector<double, 3>{0.0, -inf, 1.0}})
  {
    const TinyVector<double, 3> d = detail::limited_drift(grad, 0.02);
    EXPECT_EQ(d[0], 0.0);
    EXPECT_EQ(d[1], 0.0);
    EXPECT_EQ(d[2], 0.0);
  }
}

TEST(VmcDriver, DeterministicForSeed)
{
  BuildOptions opt;
  auto s1 = build_system<double>(tiny_spec(), opt);
  auto s2 = build_system<double>(tiny_spec(), opt);
  QMCDriver<double> d1(*s1.elec, *s1.twf, *s1.ham, short_chain_config(kSeed));
  QMCDriver<double> d2(*s2.elec, *s2.twf, *s2.ham, short_chain_config(kSeed));
  d1.initialize_population();
  d2.initialize_population();
  expect_chains_bitwise(d1.run_vmc(), d2.run_vmc());
}

TEST(VmcDriver, RefAndCurrentEnergiesTrackEachOther)
{
  // Same seeds, same Markov chain proposals: Ref (double AoS) and
  // Current (double SoA) must produce nearly identical energy traces;
  // float Current should track loosely.
  BuildOptions aos, soa;
  aos.soa_layout = false;
  soa.soa_layout = true;
  auto s1 = build_system<double>(tiny_spec(), aos);
  auto s2 = build_system<double>(tiny_spec(), soa);
  QMCDriver<double> d1(*s1.elec, *s1.twf, *s1.ham, short_chain_config(kSeed, 4, 3));
  QMCDriver<double> d2(*s2.elec, *s2.twf, *s2.ham, short_chain_config(kSeed, 4, 3));
  d1.initialize_population();
  d2.initialize_population();
  const RunResult r1 = d1.run_vmc();
  const RunResult r2 = d2.run_vmc();
  for (std::size_t g = 0; g < r1.generations.size(); ++g)
    EXPECT_NEAR(r1.generations[g].energy, r2.generations[g].energy,
                1e-5 * std::abs(r1.generations[g].energy) + 1e-5)
        << g;
}

TEST(DmcDriver, PopulationStaysBoundedAndEnergiesFinite)
{
  BuildOptions opt;
  auto sys = build_system<double>(tiny_spec(), opt);
  DriverConfig cfg = short_chain_config(kSeed, 10, 6);
  QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();
  const RunResult res = driver.run_dmc();
  ASSERT_EQ(res.generations.size(), 10u);
  for (const auto& g : res.generations)
  {
    EXPECT_TRUE(std::isfinite(g.energy));
    EXPECT_TRUE(std::isfinite(g.trial_energy));
    EXPECT_GE(g.num_walkers, 3);  // >= target/2
    EXPECT_LE(g.num_walkers, 12); // <= 2*target
    EXPECT_GT(g.weight, 0.0);
    EXPECT_GE(g.variance, 0.0); // weighted Welford: provably nonnegative
  }
}

TEST(DmcDriver, MultiThreadedRunMatchesWalkerCount)
{
  BuildOptions opt;
  auto sys = build_system<float>(tiny_spec(), opt);
  DriverConfig cfg = short_chain_config(kSeed, 5, 8);
  cfg.num_threads = 2; // oversubscribed on 1 core, still must be correct
  QMCDriver<float> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();
  const RunResult res = driver.run_dmc();
  EXPECT_EQ(res.generations.size(), 5u);
  for (const auto& g : res.generations)
    EXPECT_TRUE(std::isfinite(g.energy));
}

TEST(DriverConfig, InvalidValuesAreRejectedAtConstruction)
{
  BuildOptions opt;
  auto sys = build_system<double>(tiny_spec(), opt);
  auto make = [&](DriverConfig cfg) {
    QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  };
  DriverConfig bad_tau = short_chain_config(kSeed);
  bad_tau.tau = 0.0;
  EXPECT_THROW(make(bad_tau), std::invalid_argument);
  bad_tau.tau = -0.01;
  EXPECT_THROW(make(bad_tau), std::invalid_argument);
  DriverConfig bad_walkers = short_chain_config(kSeed);
  bad_walkers.num_walkers = 0;
  EXPECT_THROW(make(bad_walkers), std::invalid_argument);
  DriverConfig bad_steps = short_chain_config(kSeed);
  bad_steps.steps = -1;
  EXPECT_THROW(make(bad_steps), std::invalid_argument);
  DriverConfig bad_crowd = short_chain_config(kSeed);
  bad_crowd.crowd_size = 0;
  EXPECT_THROW(make(bad_crowd), std::invalid_argument);
  DriverConfig bad_threads = short_chain_config(kSeed);
  bad_threads.num_threads = -1;
  EXPECT_THROW(make(bad_threads), std::invalid_argument);
  DriverConfig hw_threads = short_chain_config(kSeed);
  hw_threads.num_threads = 0; // 0 = hardware default, valid
  EXPECT_NO_THROW(make(hw_threads));
  DriverConfig bad_delay = short_chain_config(kSeed);
  bad_delay.delay_rank = 0;
  EXPECT_THROW(make(bad_delay), std::invalid_argument);
  bad_delay.delay_rank = -2;
  EXPECT_THROW(make(bad_delay), std::invalid_argument);
  DriverConfig delayed = short_chain_config(kSeed);
  delayed.delay_rank = 4; // Woodbury window, valid
  EXPECT_NO_THROW(make(delayed));
  EXPECT_NO_THROW(make(short_chain_config(kSeed)));
}

TEST(Statistics, WelfordVarianceSurvivesCatastrophicCancellation)
{
  // Energies clustered within 1e-9 of a large mean: the old
  // e2_sum/n - mean^2 bookkeeping loses every significant digit of the
  // spread and can return a negative variance; Welford must stay exact
  // to the spread's own precision and nonnegative by construction.
  const double center = -1.2345678901234e4;
  const double spread = 1e-9;
  detail::WeightedWelford acc;
  double e_sum = 0, e2_sum = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i)
  {
    const double x = center + spread * std::sin(0.1 * i);
    acc.add(1.0, x);
    e_sum += x;
    e2_sum += x * x;
  }
  const double naive = e2_sum / n - (e_sum / n) * (e_sum / n);
  const double welford = acc.variance();
  // The reference: sigma^2 of spread*sin() ~ spread^2/2.
  EXPECT_GE(welford, 0.0);
  EXPECT_NEAR(welford, 0.5 * spread * spread, 0.1 * spread * spread);
  // Sanity that the scenario actually defeats the naive form (its
  // absolute error dwarfs the true variance).
  EXPECT_GT(std::abs(naive - welford), 10 * welford);
  EXPECT_NEAR(acc.mean, center, 1e-9);
  EXPECT_DOUBLE_EQ(acc.w_sum, n);

  // Weighted path: zero spread must give exactly zero variance.
  detail::WeightedWelford flat;
  for (int i = 0; i < 100; ++i)
    flat.add(0.5 + 0.01 * i, center);
  EXPECT_EQ(flat.variance(), 0.0);
}

TEST(BranchWalkers, MultiplicityRules)
{
  WalkerPopulation pop;
  RandomGenerator rng(1);
  for (int i = 0; i < 4; ++i)
  {
    auto w = std::make_unique<Walker>(2);
    w->id = i;
    pop.walkers.push_back(std::move(w));
    pop.rngs.emplace_back(100 + i);
  }
  pop.walkers[0]->weight = 0.0;  // killed (multiplicity 0 w.p. 1)
  pop.walkers[1]->weight = 3.0;  // at least 3 copies
  pop.walkers[2]->weight = 1.0;
  pop.walkers[3]->weight = 1.0;
  branch_walkers(pop, 4, rng);
  EXPECT_GE(pop.size(), 2);
  EXPECT_LE(pop.size(), 8); // 2 * target
  for (const auto& w : pop.walkers)
    EXPECT_EQ(w->weight, 1.0);
  EXPECT_EQ(pop.walkers.size(), pop.rngs.size());
}

TEST(BranchWalkers, ClampsExplosion)
{
  WalkerPopulation pop;
  RandomGenerator rng(2);
  for (int i = 0; i < 4; ++i)
  {
    auto w = std::make_unique<Walker>(2);
    w->weight = 10.0;
    pop.walkers.push_back(std::move(w));
    pop.rngs.emplace_back(i);
  }
  branch_walkers(pop, 4, rng);
  EXPECT_LE(pop.size(), 8);
}

TEST(BranchWalkers, RevivesDyingPopulation)
{
  WalkerPopulation pop;
  RandomGenerator rng(3);
  for (int i = 0; i < 4; ++i)
  {
    auto w = std::make_unique<Walker>(2);
    w->weight = (i == 0) ? 1.0 : 0.0;
    pop.walkers.push_back(std::move(w));
    pop.rngs.emplace_back(i);
  }
  branch_walkers(pop, 4, rng);
  EXPECT_GE(pop.size(), 2); // >= target/2
}

TEST(BranchWalkers, SurvivesTotalExtinction)
{
  WalkerPopulation pop;
  RandomGenerator rng(4);
  for (int i = 0; i < 4; ++i)
  {
    auto w = std::make_unique<Walker>(2);
    w->weight = 0.0; // every multiplicity rounds to zero
    pop.walkers.push_back(std::move(w));
    pop.rngs.emplace_back(i);
  }
  branch_walkers(pop, 4, rng);
  EXPECT_GE(pop.size(), 2); // >= target/2
  EXPECT_LE(pop.size(), 8);
  for (const auto& w : pop.walkers)
    EXPECT_EQ(w->weight, 1.0);
}

TEST(BranchWalkers, NonFiniteWeightsGetNoCopies)
{
  // A non-finite local energy makes the DMC weight NaN; such walkers
  // must die (no copies) instead of reaching an undefined int cast.
  WalkerPopulation pop;
  RandomGenerator rng(5);
  const double weights[] = {1.0, std::nan(""), 2.0, std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(), 1.5};
  for (int i = 0; i < 6; ++i)
  {
    auto w = std::make_unique<Walker>(2);
    w->id = 100 + i;
    w->weight = weights[i];
    pop.walkers.push_back(std::move(w));
    pop.rngs.emplace_back(200 + i);
  }
  branch_walkers(pop, 6, rng);
  EXPECT_GE(pop.size(), 3);
  for (const auto& w : pop.walkers)
  {
    EXPECT_EQ(w->weight, 1.0);
    for (std::uint64_t dead : {101u, 103u, 104u})
    {
      EXPECT_NE(w->id, dead);
      EXPECT_NE(w->parent_id, dead);
    }
  }
}

TEST(BranchWalkers, PreservesStreamPairingAndDecorrelatesClones)
{
  WalkerPopulation pop;
  RandomGenerator rng(5);
  for (int i = 0; i < 4; ++i)
  {
    auto w = std::make_unique<Walker>(2);
    w->id = 100 + i;
    pop.walkers.push_back(std::move(w));
    pop.rngs.emplace_back(200 + i);
  }
  pop.walkers[0]->weight = 0.0; // killed
  pop.walkers[1]->weight = 3.2; // replicated (at least 3 copies)
  pop.walkers[2]->weight = 1.0;
  pop.walkers[3]->weight = 1.0;
  // Snapshot the streams as they were paired before branching.
  std::vector<RandomGenerator> before = pop.rngs;

  branch_walkers(pop, 4, rng);

  ASSERT_EQ(pop.walkers.size(), pop.rngs.size());
  std::vector<std::uint64_t> seen_ids;
  for (int iw = 0; iw < pop.size(); ++iw)
  {
    const Walker& w = *pop.walkers[iw];
    if (w.parent_id == 0 && w.id >= 100 && w.id < 104)
    {
      // Survivor: must still carry its original stream (same next draw).
      RandomGenerator expect = before[w.id - 100];
      RandomGenerator got = pop.rngs[iw];
      EXPECT_EQ(expect.next(), got.next()) << "survivor " << w.id << " lost its RNG stream";
    }
    else
    {
      // Clone: fresh stream, decorrelated from the parent's.
      ASSERT_GE(w.parent_id, 100u);
      RandomGenerator parent_stream = before[w.parent_id - 100];
      RandomGenerator got = pop.rngs[iw];
      EXPECT_NE(parent_stream.next(), got.next())
          << "clone of " << w.parent_id << " shares the parent stream";
    }
    seen_ids.push_back(w.id);
  }
  // All identities unique (clones get fresh ids, not the parent's).
  std::sort(seen_ids.begin(), seen_ids.end());
  EXPECT_EQ(std::adjacent_find(seen_ids.begin(), seen_ids.end()), seen_ids.end())
      << "duplicate walker ids after branching";
  // Clone streams must also differ from each other.
  for (int a = 0; a < pop.size(); ++a)
    for (int b = a + 1; b < pop.size(); ++b)
    {
      RandomGenerator ra = pop.rngs[a];
      RandomGenerator rb = pop.rngs[b];
      EXPECT_NE(ra.next(), rb.next()) << "walkers " << a << " and " << b << " share a stream";
    }
}

TEST(RunEngine, AllVariantsProduceReports)
{
  // Smallest real workload at minimal settings: smoke-test the
  // type-erased runner for every engine variant.
  for (EngineVariant v : {EngineVariant::Ref, EngineVariant::RefMP, EngineVariant::Current,
                          EngineVariant::CurrentDP})
  {
    EngineRunSpec spec;
    spec.workload = Workload::Graphite;
    spec.variant = v;
    spec.dmc = false;
    spec.driver.steps = 1;
    spec.driver.num_walkers = 1;
    spec.driver.num_threads = 1;
    spec.driver.seed = 3;
    const EngineReport rep = run_engine(spec);
    EXPECT_TRUE(std::isfinite(rep.result.mean_energy)) << to_string(v);
    EXPECT_GT(rep.footprint_bytes, 0u) << to_string(v);
    EXPECT_GT(rep.spline_bytes, 0u) << to_string(v);
    EXPECT_GT(rep.profile.total(), 0.0) << to_string(v);
  }
}

TEST(RunEngine, ResidentSetupReportsPositionsOnly)
{
  // NiO-32 VMC set-up, 4 walkers in one crowd of 4: the population is
  // built resident, so the report's walker bytes hold no buffer; the
  // per-walker state size still reports the registered layout.
  EngineRunSpec spec;
  spec.workload = Workload::NiO32;
  spec.variant = EngineVariant::Current;
  spec.dmc = false;
  spec.driver.steps = 0;
  spec.driver.num_walkers = 4;
  spec.driver.crowd_size = 4;
  spec.driver.num_threads = 1;
  const EngineReport resident = run_engine(spec);
  const std::size_t nel = static_cast<std::size_t>(workload_spec(Workload::NiO32).num_electrons);
  EXPECT_EQ(resident.walker_bytes, 4 * (sizeof(Walker) + nel * sizeof(Walker::Pos)));
  EXPECT_GT(resident.walker_state_bytes, nel * sizeof(Walker::Pos));

  spec.driver.crowd_size = 1; // four slices, one crowd: parked
  const EngineReport parked = run_engine(spec);
  EXPECT_EQ(parked.walker_state_bytes, resident.walker_state_bytes);
  EXPECT_GE(parked.walker_bytes, resident.walker_bytes + 4 * parked.walker_state_bytes);
}
