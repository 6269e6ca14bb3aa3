// Precision-as-a-runtime-policy tests (paper Sec. 7.2): the inverse
// drift guard must fire on an injected perturbation and repair it, stay
// bitwise-silent on double chains, keep float and double energies in
// agreement at engine level, and the {layout} x {precision} dispatch
// must make a variant alias indistinguishable from its explicit-policy
// equivalent. Also covers the "precision" job-spec key and the
// DriverConfig drift-knob validation.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "drivers/qmc_driver_impl.h"
#include "drivers/qmc_system.h"
#include "io/job_spec.h"
#include "test_utils.h"
#include "wavefunction/delayed_update.h"
#include "wavefunction/dirac_determinant.h"
#include "wavefunction/spo_set.h"
#include "workloads/system_builder.h"

using namespace qmcxx;
using namespace qmcxx::testing;
using namespace qmcxx::testing::det_fixture;

namespace
{

template<typename TR>
void evaluate_fresh(DetSystem<TR>& s)
{
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  s.det->evaluate_log(*s.p, g, l);
}

PrecisionPolicy guard_policy()
{
  PrecisionPolicy pol;
  pol.drift_tolerance = 1e-3;
  pol.drift_sample_rows = 2;
  pol.refresh_interval = 0;
  return pol;
}

EngineRunSpec graphite_spec(EngineVariant variant, bool dmc, int crowd_size, int num_threads)
{
  EngineRunSpec spec;
  spec.workload = Workload::Graphite;
  spec.variant = variant;
  spec.dmc = dmc;
  spec.driver.tau = 0.02;
  spec.driver.steps = 2;
  spec.driver.num_walkers = 6;
  spec.driver.seed = 20170708;
  spec.driver.recompute_period = 3;
  spec.driver.crowd_size = crowd_size;
  spec.driver.num_threads = num_threads;
  return spec;
}

} // namespace

// ---------------------------------------------------------------------------
// Drift-guard unit tests (component level)
// ---------------------------------------------------------------------------

TEST(DriftGuard, InjectedPerturbationTriggersRefreshAndRepair)
{
  auto s = make_det_system<float>();
  evaluate_fresh(s);
  const PrecisionPolicy pol = guard_policy();

  // A clean, freshly-rebuilt inverse passes the guard.
  InverseDriftReport clean;
  s.det->monitor_inverse_drift(*s.p, pol, /*gen=*/1, clean);
  EXPECT_EQ(clean.refreshes, 0u);
  EXPECT_EQ(clean.rows_sampled, 2u);
  EXPECT_LT(clean.max_residual, pol.drift_tolerance);

  // Inject drift: scale the stored inverse so psi_row . A^-1 walks off
  // the identity. The guard must see it and rebuild from scratch.
  Matrix<float>& minv = s.det->inverse_transposed();
  for (std::size_t i = 0; i < minv.rows(); ++i)
    for (std::size_t j = 0; j < static_cast<std::size_t>(kNel); ++j)
      minv.row(i)[j] *= 1.1f;
  InverseDriftReport fired;
  s.det->monitor_inverse_drift(*s.p, pol, /*gen=*/1, fired);
  EXPECT_EQ(fired.refreshes, 1u);
  EXPECT_GT(fired.max_residual, pol.drift_tolerance);

  // The refresh repaired the inverse: the next generation's sample is
  // clean again (different gen, so different rotating rows).
  InverseDriftReport after;
  s.det->monitor_inverse_drift(*s.p, pol, /*gen=*/2, after);
  EXPECT_EQ(after.refreshes, 0u);
  EXPECT_LT(after.max_residual, pol.drift_tolerance);
}

TEST(DriftGuard, DoubleInverseResidualIsNearMachineEpsilon)
{
  // The double path's residual sits ~1e-12, far under the default
  // tolerance -- which is why the guard is bitwise-neutral on double
  // chains: it observes but never fires.
  auto s = make_det_system<double>();
  evaluate_fresh(s);
  InverseDriftReport rep;
  s.det->monitor_inverse_drift(*s.p, guard_policy(), /*gen=*/1, rep);
  EXPECT_EQ(rep.refreshes, 0u);
  EXPECT_LT(rep.max_residual, 1e-10);
}

TEST(DriftGuard, ForcedRefreshIntervalFiresWithoutSampling)
{
  auto s = make_det_system<double>();
  evaluate_fresh(s);
  PrecisionPolicy pol = guard_policy();
  pol.refresh_interval = 3;

  InverseDriftReport rep;
  s.det->monitor_inverse_drift(*s.p, pol, /*gen=*/3, rep);
  EXPECT_EQ(rep.refreshes, 1u);
  EXPECT_EQ(rep.rows_sampled, 0u); // forced path skips the residual probe

  InverseDriftReport off_cycle;
  s.det->monitor_inverse_drift(*s.p, pol, /*gen=*/4, off_cycle);
  EXPECT_EQ(off_cycle.refreshes, 0u);
  EXPECT_EQ(off_cycle.rows_sampled, 2u);
}

TEST(DriftGuard, DisabledKnobsAreNoOps)
{
  auto s = make_det_system<float>();
  evaluate_fresh(s);

  PrecisionPolicy no_rows = guard_policy();
  no_rows.drift_sample_rows = 0;
  InverseDriftReport rep;
  s.det->monitor_inverse_drift(*s.p, no_rows, /*gen=*/1, rep);
  EXPECT_EQ(rep.rows_sampled, 0u);
  EXPECT_EQ(rep.refreshes, 0u);

  PrecisionPolicy no_tol = guard_policy();
  no_tol.drift_tolerance = 0.0; // residual trigger off
  InverseDriftReport rep2;
  s.det->monitor_inverse_drift(*s.p, no_tol, /*gen=*/1, rep2);
  EXPECT_EQ(rep2.rows_sampled, 0u);
  EXPECT_EQ(rep2.refreshes, 0u);
}

TEST(DriftGuard, DelayedEngineFlushesWindowBeforeProbe)
{
  auto s = make_det_system<double>(/*seed=*/123, /*delay=*/4);
  auto* det = static_cast<DiracDeterminantDelayed<double>*>(s.det.get());
  evaluate_fresh(s);

  // Accept a couple of moves without a measurement barrier so the
  // Woodbury window holds pending rank-1 updates.
  RandomGenerator rng(55);
  for (int k = 0; k < 3; ++k)
  {
    const TinyVector<double, 3> dr{rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05),
                                   rng.uniform(-0.05, 0.05)};
    s.p->make_move(k, s.p->pos(k) + dr);
    (void)s.det->ratio(*s.p, k);
    s.det->accept_move(*s.p, k);
    s.p->accept_move(k);
  }
  ASSERT_GT(det->pending_updates(), 0);

  // The monitor is a measurement barrier: it must flush the window
  // first so the probe reads the committed inverse, and the committed
  // inverse must then pass the guard.
  InverseDriftReport rep;
  s.det->monitor_inverse_drift(*s.p, guard_policy(), /*gen=*/1, rep);
  EXPECT_EQ(det->pending_updates(), 0);
  EXPECT_EQ(rep.rows_sampled, 2u);
  EXPECT_EQ(rep.refreshes, 0u);
  EXPECT_LT(rep.max_residual, 1e-9);
}

// ---------------------------------------------------------------------------
// Engine-level properties
// ---------------------------------------------------------------------------

TEST(PrecisionPolicy, DoubleChainsBitwiseNeutralUnderGuard)
{
  // Acceptance criterion: with the guard on at defaults, the double
  // chains are bit-for-bit what they were without any monitoring, at
  // every crowd x thread decomposition, VMC and DMC. Chains do not
  // depend on the decomposition, so one unguarded chain per mode is the
  // reference for all four guarded ones.
  for (const bool dmc : {false, true})
  {
    EngineRunSpec off = graphite_spec(EngineVariant::CurrentDP, dmc, 1, 1);
    off.driver.precision.drift_sample_rows = 0; // monitor disabled
    const EngineReport b = run_engine(off);
    EXPECT_EQ(b.result.total_drift_rows_sampled, 0u) << "dmc=" << dmc;
    for (const int crowd : {1, 4})
      for (const int threads : {1, 4})
      {
        SCOPED_TRACE(::testing::Message() << "dmc=" << dmc << " crowd=" << crowd
                                          << " threads=" << threads);
        const EngineReport a =
            run_engine(graphite_spec(EngineVariant::CurrentDP, dmc, crowd, threads));
        expect_chains_bitwise(a.result, b.result);
        EXPECT_GT(a.result.total_drift_rows_sampled, 0u);
        EXPECT_EQ(a.result.total_drift_refreshes, 0u);
        EXPECT_LT(a.result.max_drift_residual, 1e-8);
      }
  }
}

TEST(PrecisionPolicy, VariantAliasEqualsExplicitPolicy)
{
  // Orthogonal dispatch: a legacy alias and its {layout} + explicit
  // precision spelling are the same engine, bit for bit.
  struct Case
  {
    EngineVariant alias;    // the legacy 4-way name
    EngineVariant layout;   // variant supplying only the layout half
    Precision prec;         // explicit runtime policy
  };
  const Case cases[] = {
      {EngineVariant::RefMP, EngineVariant::Ref, Precision::Single},
      {EngineVariant::CurrentDP, EngineVariant::Current, Precision::Double},
      {EngineVariant::Ref, EngineVariant::RefMP, Precision::Double},
      {EngineVariant::Current, EngineVariant::CurrentDP, Precision::Single},
  };
  for (const Case& c : cases)
  {
    SCOPED_TRACE(::testing::Message() << "alias=" << to_string(c.alias));
    const EngineReport aliased = run_engine(graphite_spec(c.alias, false, 1, 1));
    EngineRunSpec overridden = graphite_spec(c.layout, false, 1, 1);
    overridden.driver.precision.precision = c.prec;
    const EngineReport explicit_run = run_engine(overridden);
    expect_chains_bitwise(aliased.result, explicit_run.result);
  }
}

TEST(PrecisionPolicy, FloatTracksDoubleWithGuardOnGraphite)
{
  EngineRunSpec spec = graphite_spec(EngineVariant::Current, false, 1, 1);
  spec.driver.num_walkers = 3;
  const EngineReport single = run_engine(spec);
  spec.variant = EngineVariant::CurrentDP;
  const EngineReport dp = run_engine(spec);
  EXPECT_GT(single.result.total_drift_rows_sampled, 0u);
  EXPECT_GT(dp.result.total_drift_rows_sampled, 0u);
  // Single-precision residuals are visible but bounded under the guard.
  EXPECT_GT(single.result.max_drift_residual, dp.result.max_drift_residual);
  EXPECT_NEAR(single.result.mean_energy, dp.result.mean_energy,
              1e-2 * std::abs(dp.result.mean_energy) + 0.5);
}

TEST(PrecisionPolicy, FloatTracksDoubleWithGuardOnNiO32)
{
  EngineRunSpec spec;
  spec.workload = Workload::NiO32;
  spec.variant = EngineVariant::Current;
  spec.dmc = false;
  spec.driver.tau = 0.02;
  spec.driver.steps = 2;
  spec.driver.num_walkers = 2;
  spec.driver.seed = 20170708;
  spec.driver.num_threads = 1;
  const EngineReport single = run_engine(spec);
  spec.driver.precision.precision = Precision::Double; // same layout, policy switch
  const EngineReport dp = run_engine(spec);
  EXPECT_GT(single.result.total_drift_rows_sampled, 0u);
  EXPECT_NEAR(single.result.mean_energy, dp.result.mean_energy,
              1e-2 * std::abs(dp.result.mean_energy) + 0.5);
}

TEST(PrecisionPolicy, ForcedRefreshCountsSurfaceInRunResult)
{
  EngineRunSpec spec = graphite_spec(EngineVariant::CurrentDP, false, 1, 1);
  spec.driver.steps = 3;
  spec.driver.precision.refresh_interval = 1;
  const EngineReport rep = run_engine(spec);
  EXPECT_GT(rep.result.total_drift_refreshes, 0u);
  EXPECT_TRUE(std::isfinite(rep.result.mean_energy));
  for (const GenerationStats& s : rep.result.generations)
    EXPECT_TRUE(std::isfinite(s.energy));
}

// ---------------------------------------------------------------------------
// Spec plumbing and validation
// ---------------------------------------------------------------------------

TEST(PrecisionSpec, PrecisionFromNameParsesAndRejects)
{
  EXPECT_EQ(io::precision_from_name("single"), Precision::Single);
  EXPECT_EQ(io::precision_from_name("double"), Precision::Double);
  EXPECT_EQ(io::precision_from_name("Single"), Precision::Single); // case-insensitive
  EXPECT_EQ(io::precision_from_name("DOUBLE"), Precision::Double);
  expect_throw_with([] { (void)io::precision_from_name("half"); }, "half");
}

TEST(PrecisionSpec, JobSpecCarriesPolicy)
{
  const io::JobSpec job = io::parse_job_spec(
      R"({ "workload": "Graphite", "variant": "ref", "precision": "single",
           "driver": { "steps": 4, "drift_tolerance": 1e-4,
                       "refresh_interval": 5, "drift_sample_rows": 3 } })",
      "test-job");
  ASSERT_TRUE(job.driver.precision.precision.has_value());
  EXPECT_EQ(*job.driver.precision.precision, Precision::Single);
  EXPECT_EQ(job.driver.precision.drift_tolerance, 1e-4);
  EXPECT_EQ(job.driver.precision.refresh_interval, 5);
  EXPECT_EQ(job.driver.precision.drift_sample_rows, 3);

  // Without the key, the policy stays unset (variant alias decides).
  const io::JobSpec plain =
      io::parse_job_spec(R"({ "workload": "Graphite", "variant": "refmp" })", "plain");
  EXPECT_FALSE(plain.driver.precision.precision.has_value());

  EXPECT_THROW((void)io::parse_job_spec(
                   R"({ "workload": "Graphite", "precision": "quad" })", "bad"),
               std::runtime_error);
}

TEST(PrecisionSpec, ValidateConfigRejectsBadDriftKnobs)
{
  BuildOptions opt;
  auto sys = build_system<double>(tiny_spec(), opt);
  const auto expect_rejected = [&](const DriverConfig& cfg, const char* needle) {
    expect_throw_with<std::invalid_argument>(
        [&] { QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, cfg); }, needle);
  };
  DriverConfig cfg;
  cfg.precision.refresh_interval = -1;
  expect_rejected(cfg, "refresh_interval");
  cfg = DriverConfig{};
  cfg.precision.drift_sample_rows = -2;
  expect_rejected(cfg, "drift_sample_rows");
  cfg = DriverConfig{};
  cfg.precision.drift_tolerance = -1.0;
  expect_rejected(cfg, "drift_tolerance");
  cfg = DriverConfig{};
  cfg.precision.drift_tolerance = std::nan("");
  expect_rejected(cfg, "drift_tolerance");
}
