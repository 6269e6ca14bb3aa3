// Hardening tests for the delayed (Woodbury) update path: engine window
// validation, repeated-row bindings inside one delay window,
// degenerate-ratio recovery (accepted zero/non-finite ratios fall back
// to a from-scratch rebuild instead of poisoning log_value_), and
// VMC/DMC chain parity of the batched delayed crowd path across delay
// ranks, crowd sizes and thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "drivers/qmc_drivers.h"
#include "drivers/qmc_system.h"
#include "numerics/linalg.h"
#include "numerics/rng.h"
#include "test_utils.h"
#include "wavefunction/delayed_update.h"
#include "workloads/system_builder.h"

using namespace qmcxx;
using namespace qmcxx::testing;
using namespace qmcxx::testing::det_fixture;

namespace
{

/// Test probes: expose the protected accepted-ratio slot so the
/// degenerate-accept guard can be exercised deterministically.
struct ProbeDet : DiracDeterminant<double>
{
  using DiracDeterminant<double>::DiracDeterminant;
  void poison_ratio(double r) { this->cur_ratio_ = r; }
};

struct ProbeDelayedDet : DiracDeterminantDelayed<double>
{
  using DiracDeterminantDelayed<double>::DiracDeterminantDelayed;
  void poison_ratio(double r) { this->cur_ratio_ = r; }
};

constexpr std::uint64_t kSeed = 20170708;

void expect_traces_match(const RunResult& a, const RunResult& b, double rel_tol)
{
  ASSERT_EQ(a.generations.size(), b.generations.size());
  for (std::size_t g = 0; g < a.generations.size(); ++g)
  {
    EXPECT_NEAR(a.generations[g].energy, b.generations[g].energy,
                rel_tol * std::abs(a.generations[g].energy) + rel_tol)
        << "generation " << g;
    EXPECT_EQ(a.generations[g].num_walkers, b.generations[g].num_walkers) << "generation " << g;
    EXPECT_NEAR(a.generations[g].acceptance, b.generations[g].acceptance, 1e-9)
        << "generation " << g;
  }
  EXPECT_NEAR(a.mean_energy, b.mean_energy, rel_tol * std::abs(a.mean_energy) + rel_tol);
}

} // namespace

// ---------------------------------------------------------------------
// Engine validation (delay window)
// ---------------------------------------------------------------------

TEST(DelayedUpdateEngine, RejectsNonPositiveDelay)
{
  // delay == 0 would make accept() write row 0 of a zero-row binding
  // matrix (OOB) and the window could never auto-flush.
  EXPECT_THROW(DelayedUpdateEngine<double>(8, 0), std::invalid_argument);
  EXPECT_THROW(DelayedUpdateEngine<double>(8, -1), std::invalid_argument);
  EXPECT_THROW(DelayedUpdateEngine<float>(8, 0), std::invalid_argument);
  EXPECT_THROW(DelayedUpdateEngine<double>(0, 4), std::invalid_argument);
  EXPECT_NO_THROW(DelayedUpdateEngine<double>(8, 1));
  EXPECT_NO_THROW(DelayedUpdateEngine<double>(8, 8));
  // A window wider than the matrix order could never fill (pending rows
  // are distinct) and is clamped instead of allocating delay x n waste.
  EXPECT_EQ(DelayedUpdateEngine<double>(4, 16).delay(), 4);
}

// ---------------------------------------------------------------------
// Repeated-row bindings inside one delay window
// ---------------------------------------------------------------------

TEST(DelayedUpdateEngine, RepeatedRowWindowMatchesDirectInverse)
{
  // Bind the same row twice (plus others) without flushing: ratios must
  // track the exact determinant quotients of the sequentially replaced
  // matrix, and the flushed inverse must match a direct inversion of
  // the final matrix. A window wider than the accepted-move count per
  // sweep makes this the common case whenever an electron moves twice.
  const int n = 12;
  RandomGenerator rng(2029);
  Matrix<double> a(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      a(i, j) = rng.uniform(-1, 1) + (i == j ? 4.0 : 0.0);
  Matrix<double> m(n, n, /*pad_rows=*/true);
  {
    Matrix<double> inv;
    double logdet, sign;
    linalg::invert_matrix(a, inv, logdet, sign);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        m(i, j) = inv(j, i);
  }
  DelayedUpdateEngine<double> engine(n, /*delay=*/8);
  engine.attach(&m);

  Matrix<double> a_cur = a; // tracks the sequentially replaced matrix
  auto logdet_of = [](const Matrix<double>& mat, double& ld, double& sg) {
    Matrix<double> inv;
    linalg::invert_matrix(mat, inv, ld, sg);
  };
  aligned_vector<double> v(getAlignedSize<double>(n));
  // Rows 3, 7, 3 (again: overwrites its window slot), 5.
  const int rows[4] = {3, 7, 3, 5};
  for (int step = 0; step < 4; ++step)
  {
    const int r = rows[step];
    for (int j = 0; j < n; ++j)
      v[j] = a(r, j) + rng.uniform(-0.5, 0.5);
    double ld0, sg0, ld1, sg1;
    logdet_of(a_cur, ld0, sg0);
    Matrix<double> a_next = a_cur;
    for (int j = 0; j < n; ++j)
      a_next(r, j) = v[j];
    logdet_of(a_next, ld1, sg1);
    const double expect = sg0 * sg1 * std::exp(ld1 - ld0);
    const double got = engine.ratio(v.data(), r);
    EXPECT_NEAR(got, expect, 1e-9 * std::abs(expect)) << "step " << step;
    engine.accept(v.data(), r);
    a_cur = a_next;
  }
  // The repeated row reuses its slot: three distinct pending rows.
  EXPECT_EQ(engine.pending(), 3);
  engine.flush();
  EXPECT_EQ(engine.pending(), 0);

  Matrix<double> inv_final;
  double ld, sg;
  linalg::invert_matrix(a_cur, inv_final, ld, sg);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      EXPECT_NEAR(m(i, j), inv_final(j, i), 1e-9) << i << "," << j;
}

TEST(DelayedDeterminantComponent, RepeatedElectronWindowMatchesRank1)
{
  // The same electron accepted twice inside one delay window must match
  // the rank-1 Sherman-Morrison determinant move for move.
  auto s = make_det_system(88);
  auto p2 = s.p->clone();
  p2->update();
  DiracDeterminant<double> det_sm(s.spos, 0, kNel);
  DiracDeterminantDelayed<double> det_d(s.spos, 0, kNel, /*delay=*/8);
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  det_sm.evaluate_log(*s.p, g, l);
  det_d.evaluate_log(*p2, g, l);

  RandomGenerator rng(19);
  const int moves[5] = {2, 2, 5, 2, 7}; // electron 2 accepted three times
  for (int step = 0; step < 5; ++step)
  {
    const int k = moves[step];
    const TinyVector<double, 3> dr{rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25),
                                   rng.uniform(-0.25, 0.25)};
    s.p->make_move(k, s.p->pos(k) + dr);
    p2->make_move(k, p2->pos(k) + dr);
    TinyVector<double, 3> grad1{}, grad2{};
    const double r1 = det_sm.ratio_grad(*s.p, k, grad1);
    const double r2 = det_d.ratio_grad(*p2, k, grad2);
    EXPECT_NEAR(r2, r1, 1e-8 * std::abs(r1)) << "step " << step;
    for (unsigned d = 0; d < 3; ++d)
      EXPECT_NEAR(grad2[d], grad1[d], 1e-7) << "step " << step;
    det_sm.accept_move(*s.p, k);
    s.p->accept_move(k);
    det_d.accept_move(*p2, k);
    p2->accept_move(k);
  }
  // Electron 2 reuses one slot: three distinct pending rows, no flush.
  EXPECT_EQ(det_d.pending_updates(), 3);
  EXPECT_NEAR(det_d.log_value(), det_sm.log_value(), 1e-8);

  std::vector<TinyVector<double, 3>> ga(kNel), gb(kNel);
  std::vector<double> la(kNel, 0.0), lb(kNel, 0.0);
  det_sm.evaluate_gl(*s.p, ga, la);
  det_d.evaluate_gl(*p2, gb, lb); // flushes the window
  EXPECT_EQ(det_d.pending_updates(), 0);
  for (int i = 0; i < kNel; ++i)
  {
    for (unsigned d = 0; d < 3; ++d)
      EXPECT_NEAR(gb[i][d], ga[i][d], 1e-7);
    EXPECT_NEAR(lb[i], la[i], 1e-6);
  }
  p2->update();
  EXPECT_LT(inverse_residual(*s.spos, *p2, det_d), 1e-8);
}

// ---------------------------------------------------------------------
// Degenerate accepted ratios: guarded recovery instead of -inf poison
// ---------------------------------------------------------------------

TEST(DegenerateRatioGuard, ZeroRatioAcceptRecoversShermanMorrison)
{
  auto s = make_det_system(13);
  ProbeDet det(s.spos, 0, kNel);
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  det.evaluate_log(*s.p, g, l);

  const int k = 4;
  s.p->make_move(k, s.p->pos(k) + TinyVector<double, 3>{0.2, -0.1, 0.15});
  TinyVector<double, 3> grad{};
  det.ratio_grad(*s.p, k, grad);
  det.poison_ratio(0.0); // as if the accepted move sat exactly on a node
  det.accept_move(*s.p, k);
  s.p->accept_move(k);

  // log_value_ must not be -inf: the guard rebuilt from scratch.
  EXPECT_TRUE(std::isfinite(det.log_value()));
  double brute, sign;
  brute_logdet(*s.spos, *s.p, kNel, brute, sign);
  EXPECT_NEAR(det.log_value(), brute, 1e-9);
  EXPECT_EQ(det.phase_sign(), sign);
  EXPECT_LT(inverse_residual(*s.spos, *s.p, det), 1e-9);
  EXPECT_EQ(det.accepted_updates(), 0u); // recompute resets the counter
}

TEST(DegenerateRatioGuard, NonFiniteRatioAcceptRecovers)
{
  auto s = make_det_system(14);
  ProbeDet det(s.spos, 0, kNel);
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  det.evaluate_log(*s.p, g, l);

  const int k = 1;
  s.p->make_move(k, s.p->pos(k) + TinyVector<double, 3>{-0.1, 0.2, 0.05});
  TinyVector<double, 3> grad{};
  det.ratio_grad(*s.p, k, grad);
  det.poison_ratio(std::numeric_limits<double>::quiet_NaN());
  det.accept_move(*s.p, k);
  s.p->accept_move(k);

  EXPECT_TRUE(std::isfinite(det.log_value()));
  double brute, sign;
  brute_logdet(*s.spos, *s.p, kNel, brute, sign);
  EXPECT_NEAR(det.log_value(), brute, 1e-9);
  EXPECT_LT(inverse_residual(*s.spos, *s.p, det), 1e-9);
}

TEST(DegenerateRatioGuard, DelayedAcceptRecoversAndClearsWindow)
{
  auto s = make_det_system(15);
  ProbeDelayedDet det(s.spos, 0, kNel, /*delay=*/8);
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  det.evaluate_log(*s.p, g, l);

  // One good binding first: the degenerate accept must not lose it.
  s.p->make_move(2, s.p->pos(2) + TinyVector<double, 3>{0.15, 0.1, -0.1});
  TinyVector<double, 3> grad{};
  det.ratio_grad(*s.p, 2, grad);
  det.accept_move(*s.p, 2);
  s.p->accept_move(2);
  ASSERT_EQ(det.pending_updates(), 1);

  s.p->make_move(6, s.p->pos(6) + TinyVector<double, 3>{-0.2, 0.05, 0.1});
  det.ratio_grad(*s.p, 6, grad);
  det.poison_ratio(0.0);
  det.accept_move(*s.p, 6);
  s.p->accept_move(6);

  // The rebuild folded the pending binding (already committed in the
  // particle positions) and the degenerate move into a fresh inverse.
  EXPECT_EQ(det.pending_updates(), 0);
  EXPECT_TRUE(std::isfinite(det.log_value()));
  double brute, sign;
  brute_logdet(*s.spos, *s.p, kNel, brute, sign);
  EXPECT_NEAR(det.log_value(), brute, 1e-9);
  EXPECT_LT(inverse_residual(*s.spos, *s.p, det), 1e-9);
}

// ---------------------------------------------------------------------
// Driver-level parity: the batched delayed crowd path
// ---------------------------------------------------------------------

TEST(DelayedDriverParity, GraphiteVmcDelayRankOneBitwiseMatchesPlain)
{
  const SystemSpec graphite = workload_spec(Workload::Graphite);
  const DriverConfig cfg = short_chain_config(kSeed, /*steps=*/2, 4, /*crowd=*/2, /*delay_rank=*/1);
  BuildOptions plain; // default build: plain DiracDeterminant
  auto sys = build_system<double>(graphite, plain);
  QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();
  const RunResult base = driver.run_vmc();
  const RunResult delayed = build_and_run<double>(graphite, cfg, /*dmc=*/false);
  expect_chains_bitwise(base, delayed);
}

TEST(DelayedDriverParity, GraphiteDmcDelayRankOneBitwiseMatchesPlain)
{
  const SystemSpec graphite = workload_spec(Workload::Graphite);
  const DriverConfig cfg = short_chain_config(kSeed, /*steps=*/2, 4, /*crowd=*/2, /*delay_rank=*/1);
  BuildOptions plain;
  auto sys = build_system<double>(graphite, plain);
  QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();
  const RunResult base = driver.run_dmc();
  const RunResult delayed = build_and_run<double>(graphite, cfg, /*dmc=*/true);
  expect_chains_bitwise(base, delayed);
}

TEST(DelayedDriverParity, GraphiteVmcEnergyParityAcrossDelayRanks)
{
  // Rank-1 and Woodbury windows walk the same Markov chain up to
  // floating-point association; short chains agree to tight tolerance
  // for every delay rank (Sec. 8.4 correctness contract).
  const SystemSpec graphite = workload_spec(Workload::Graphite);
  const RunResult rank1 = build_and_run<double>(
      graphite, short_chain_config(kSeed, /*steps=*/2, 4, /*crowd=*/4, 1), /*dmc=*/false);
  for (int delay : {2, 4, 8})
  {
    const RunResult delayed = build_and_run<double>(
        graphite, short_chain_config(kSeed, /*steps=*/2, 4, /*crowd=*/4, delay), /*dmc=*/false);
    expect_traces_match(rank1, delayed, 1e-6);
  }
}

TEST(DelayedDriverParity, GraphiteDmcEnergyParityWithBranching)
{
  // DMC adds branching off the serialized walker buffers: the
  // barrier-side flush must commit every pending binding before weights
  // and clones are computed.
  const SystemSpec graphite = workload_spec(Workload::Graphite);
  const RunResult rank1 = build_and_run<double>(
      graphite, short_chain_config(kSeed, /*steps=*/2, 4, /*crowd=*/2, 1), /*dmc=*/true);
  const RunResult delayed = build_and_run<double>(
      graphite, short_chain_config(kSeed, /*steps=*/2, 4, /*crowd=*/2, 4), /*dmc=*/true);
  expect_traces_match(rank1, delayed, 1e-6);
}

TEST(DelayedDriverParity, DelayedChainInvariantAcrossCrowdSizes)
{
  // For a fixed delay rank the chain must not depend on crowd batching:
  // every crowd size runs the same mw_* sweep through the engine.
  const SystemSpec tiny = tiny_spec();
  const RunResult crowd1 =
      build_and_run<double>(tiny, short_chain_config(kSeed, 4, 4, 1, 4), /*dmc=*/false);
  const RunResult crowd2 =
      build_and_run<double>(tiny, short_chain_config(kSeed, 4, 4, 2, 4), /*dmc=*/false);
  const RunResult crowd4 =
      build_and_run<double>(tiny, short_chain_config(kSeed, 4, 4, 4, 4), /*dmc=*/false);
  expect_traces_match(crowd1, crowd2, 1e-10);
  expect_traces_match(crowd1, crowd4, 1e-10);
}

TEST(DelayedDriverParity, FlushAtBarrierBitwiseAcrossThreadCounts)
{
  // Threaded crowd execution must read committed inverses only: with
  // engine flushes forced at the generation barrier, chains are
  // bitwise-identical for num_threads in {1, 2, 4}.
  const SystemSpec tiny = tiny_spec();
  for (const bool dmc : {false, true})
  {
    DriverConfig cfg = short_chain_config(kSeed, /*steps=*/4, /*walkers=*/5, /*crowd=*/2, 4);
    const RunResult serial = build_and_run<double>(tiny, cfg, dmc);
    for (int nthreads : {2, 4})
    {
      cfg.num_threads = nthreads;
      const RunResult threaded = build_and_run<double>(tiny, cfg, dmc);
      expect_chains_bitwise(serial, threaded);
    }
  }
}

TEST(DelayedDriverParity, MixedPrecisionDelayedEngineRunsFinite)
{
  // The Current (float) engine with a Woodbury window: periodic
  // recompute generations clear the window and repair drift; the run
  // must stay finite and sane.
  EngineRunSpec spec;
  spec.workload = Workload::Graphite;
  spec.variant = EngineVariant::Current;
  spec.dmc = false;
  spec.driver.num_walkers = 2;
  spec.driver.steps = 3;
  spec.driver.num_threads = 1;
  spec.driver.recompute_period = 2;
  spec.driver.delay_rank = 4;
  const EngineReport rep = run_engine(spec);
  EXPECT_TRUE(std::isfinite(rep.result.mean_energy));
  EXPECT_GT(rep.result.mean_acceptance, 0.0);
}
