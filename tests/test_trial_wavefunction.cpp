// Unit + property tests: TrialWaveFunction composition (Slater-Jastrow
// product, Eq. 2/4), the PbyP accept/reject protocol, walker-buffer
// round trips through the full component stack, and clone independence.
#include <gtest/gtest.h>

#include <cmath>

#include "drivers/qmc_driver_impl.h"
#include "workloads/system_builder.h"

using namespace qmcxx;

namespace
{

SystemSpec small_workload()
{
  SystemSpec w;
  w.name = "small";
  w.num_electrons = 12;
  w.has_pseudopotential = true;
  w.grid = {10, 10, 10};
  w.num_orbitals = 6;
  w.species = {{"X", 6.0, -0.5, 1.0, 0.6, 1.0, 0.9, 1.5}};
  w.ion_counts = {2};
  w.lattice = Lattice::cubic(6.5);
  w.ion_positions = {{1.6, 1.6, 1.6}, {4.9, 4.9, 4.9}};
  return w;
}

template<typename TR>
QMCSystem<TR> make(bool soa, std::uint64_t seed = 5)
{
  BuildOptions opt;
  opt.soa_layout = soa;
  opt.seed = seed;
  auto sys = build_system<TR>(small_workload(), opt);
  sys.elec->update();
  return sys;
}

} // namespace

TEST(TrialWaveFunction, LogIsSumOfComponents)
{
  auto sys = make<double>(true);
  const double total = sys.twf->evaluate_log(*sys.elec);
  double sum = 0;
  for (int c = 0; c < sys.twf->num_components(); ++c)
    sum += sys.twf->component(c).log_value();
  EXPECT_NEAR(total, sum, 1e-12 * std::abs(total));
}

TEST(TrialWaveFunction, RatioIsProductOfComponentRatios)
{
  auto sys = make<double>(true);
  sys.twf->evaluate_log(*sys.elec);
  const int k = 3;
  sys.elec->prepare_move(k);
  sys.elec->make_move(k, sys.elec->pos(k) + TinyVector<double, 3>{0.2, -0.1, 0.3});
  double product = 1.0;
  for (int c = 0; c < sys.twf->num_components(); ++c)
    product *= sys.twf->component(c).ratio(*sys.elec, k);
  const double combined = sys.twf->calc_ratio(*sys.elec, k);
  EXPECT_NEAR(combined, product, 1e-10 * std::abs(product));
  sys.elec->reject_move(k);
}

TEST(TrialWaveFunction, RatioMatchesLogDifference)
{
  auto sys = make<double>(true);
  const double log0 = sys.twf->evaluate_log(*sys.elec);
  const int k = 7;
  const auto rnew = sys.elec->pos(k) + TinyVector<double, 3>{0.15, 0.25, -0.2};

  sys.elec->prepare_move(k);
  sys.elec->make_move(k, rnew);
  TinyVector<double, 3> grad{};
  const double ratio = sys.twf->calc_ratio_grad(*sys.elec, k, grad);
  sys.twf->accept_move(*sys.elec, k);

  sys.elec->update();
  auto sys2 = make<double>(true);
  sys2.elec->set_positions(sys.elec->positions());
  sys2.elec->update();
  const double log1 = sys2.twf->evaluate_log(*sys2.elec);
  EXPECT_NEAR(std::abs(ratio), std::exp(log1 - log0), 1e-7 * std::exp(log1 - log0));
}

TEST(TrialWaveFunction, RejectLeavesStateUntouched)
{
  auto sys = make<double>(true);
  const double log0 = sys.twf->evaluate_log(*sys.elec);
  const auto g0 = sys.twf->eval_grad(*sys.elec, 2);
  for (int k = 0; k < sys.elec->size(); ++k)
  {
    sys.elec->prepare_move(k);
    sys.elec->make_move(k, sys.elec->pos(k) + TinyVector<double, 3>{0.3, 0.3, 0.3});
    TinyVector<double, 3> grad{};
    sys.twf->calc_ratio_grad(*sys.elec, k, grad);
    sys.twf->reject_move(*sys.elec, k);
  }
  sys.twf->evaluate_gl(*sys.elec);
  EXPECT_NEAR(sys.twf->log_value(), log0, 1e-9 * std::abs(log0));
  const auto g1 = sys.twf->eval_grad(*sys.elec, 2);
  for (unsigned d = 0; d < 3; ++d)
    EXPECT_NEAR(g0[d], g1[d], 1e-10);
}

TEST(TrialWaveFunction, EvaluateGLMatchesFreshEvaluateAfterSweep)
{
  auto sys = make<double>(true);
  sys.twf->evaluate_log(*sys.elec);
  RandomGenerator rng(31);
  for (int k = 0; k < sys.elec->size(); ++k)
  {
    sys.elec->prepare_move(k);
    sys.elec->make_move(k, sys.elec->pos(k) +
                               TinyVector<double, 3>{rng.uniform(-0.3, 0.3),
                                                     rng.uniform(-0.3, 0.3),
                                                     rng.uniform(-0.3, 0.3)});
    TinyVector<double, 3> grad{};
    const double ratio = sys.twf->calc_ratio_grad(*sys.elec, k, grad);
    if (std::abs(ratio) > 0.1)
      sys.twf->accept_move(*sys.elec, k);
    else
      sys.twf->reject_move(*sys.elec, k);
  }
  sys.elec->update();
  sys.twf->evaluate_gl(*sys.elec);
  const auto g_state = sys.twf->g();
  const auto l_state = sys.twf->l();
  const double log_state = sys.twf->log_value();

  sys.twf->evaluate_log(*sys.elec);
  EXPECT_NEAR(sys.twf->log_value(), log_state, 1e-7 * std::abs(log_state));
  for (int i = 0; i < sys.elec->size(); ++i)
  {
    for (unsigned d = 0; d < 3; ++d)
      EXPECT_NEAR(sys.twf->g()[i][d], g_state[i][d], 1e-6);
    EXPECT_NEAR(sys.twf->l()[i], l_state[i], 1e-5);
  }
}

TEST(TrialWaveFunction, BufferRoundTripThroughFullStack)
{
  auto sys = make<double>(true);
  sys.twf->evaluate_log(*sys.elec);
  Walker w(sys.elec->size());
  sys.elec->store_walker(w);
  sys.twf->register_data(w.buffer);
  sys.twf->update_buffer(w);
  const double log0 = sys.twf->log_value();

  // Scramble.
  for (int k = 0; k < 5; ++k)
  {
    sys.elec->prepare_move(k);
    sys.elec->make_move(k, sys.elec->pos(k) + TinyVector<double, 3>{0.2, 0.0, -0.2});
    TinyVector<double, 3> grad{};
    sys.twf->calc_ratio_grad(*sys.elec, k, grad);
    sys.twf->accept_move(*sys.elec, k);
  }
  EXPECT_NE(sys.twf->log_value(), log0);

  // Restore.
  sys.elec->load_walker(w);
  sys.elec->update();
  sys.twf->copy_from_buffer(*sys.elec, w);
  EXPECT_NEAR(sys.twf->log_value(), log0, 1e-12);
  // Gradients must be usable immediately after restore.
  const auto g = sys.twf->eval_grad(*sys.elec, 0);
  EXPECT_TRUE(std::isfinite(g[0]));
}

TEST(TrialWaveFunction, ClonesAreIndependent)
{
  auto sys = make<double>(true);
  sys.twf->evaluate_log(*sys.elec);
  auto twf2 = sys.twf->clone();
  auto elec2 = sys.elec->clone();
  elec2->update();
  twf2->evaluate_log(*elec2);
  EXPECT_NEAR(twf2->log_value(), sys.twf->log_value(), 1e-10);

  // Mutating the clone leaves the original untouched.
  elec2->prepare_move(0);
  elec2->make_move(0, elec2->pos(0) + TinyVector<double, 3>{0.5, 0.5, 0.5});
  TinyVector<double, 3> grad{};
  twf2->calc_ratio_grad(*elec2, 0, grad);
  twf2->accept_move(*elec2, 0);
  EXPECT_NE(twf2->log_value(), sys.twf->log_value());

  sys.twf->evaluate_gl(*sys.elec);
  EXPECT_TRUE(std::isfinite(sys.twf->log_value()));
}

TEST(TrialWaveFunction, KineticEnergyFiniteAndNegativeOfLaplacianSum)
{
  auto sys = make<double>(true);
  sys.twf->evaluate_log(*sys.elec);
  double manual = 0;
  for (int i = 0; i < sys.elec->size(); ++i)
    manual += sys.twf->l()[i] + dot(sys.twf->g()[i], sys.twf->g()[i]);
  EXPECT_NEAR(sys.twf->kinetic_energy(), -0.5 * manual, 1e-12 * std::abs(manual));
}

TEST(TrialWaveFunction, DeterminantSignsTracked)
{
  // Drive many accepted moves; phase bookkeeping must keep |ratio|
  // consistent with the log-value evolution.
  auto sys = make<double>(true);
  double logv = sys.twf->evaluate_log(*sys.elec);
  RandomGenerator rng(17);
  for (int sweep = 0; sweep < 3; ++sweep)
    for (int k = 0; k < sys.elec->size(); ++k)
    {
      sys.elec->prepare_move(k);
      sys.elec->make_move(k, sys.elec->pos(k) +
                                 TinyVector<double, 3>{rng.uniform(-0.4, 0.4),
                                                       rng.uniform(-0.4, 0.4),
                                                       rng.uniform(-0.4, 0.4)});
      TinyVector<double, 3> grad{};
      const double ratio = sys.twf->calc_ratio_grad(*sys.elec, k, grad);
      if (std::abs(ratio) > 0.05)
      {
        sys.twf->accept_move(*sys.elec, k);
        logv += std::log(std::abs(ratio));
      }
      else
      {
        sys.twf->reject_move(*sys.elec, k);
      }
    }
  sys.elec->update();
  const double fresh = sys.twf->evaluate_log(*sys.elec);
  EXPECT_NEAR(fresh, logv, 1e-6 * std::abs(fresh));
}
