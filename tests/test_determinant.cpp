// Unit + property tests for the Slater determinant: determinant-lemma
// ratios, Sherman-Morrison accepted-move updates, gradients/laplacians,
// mixed-precision drift repair, and the delayed (Woodbury) update engine.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "particle/walker.h"
#include "test_utils.h"

using namespace qmcxx;
using namespace qmcxx::testing;
using namespace qmcxx::testing::det_fixture;

TEST(DiracDeterminant, LogValueMatchesBruteForce)
{
  auto s = make_det_system();
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  const double logval = s.det->evaluate_log(*s.p, g, l);
  double brute, sign;
  brute_logdet(*s.spos, *s.p, kNel, brute, sign);
  EXPECT_NEAR(logval, brute, 1e-10);
  EXPECT_EQ(s.det->phase_sign(), sign);
  EXPECT_LT(inverse_residual(*s.spos, *s.p, *s.det), 1e-9);
}

TEST(DiracDeterminant, RatioMatchesDeterminantQuotient)
{
  auto s = make_det_system();
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  s.det->evaluate_log(*s.p, g, l);

  RandomGenerator rng(77);
  for (int k : {0, 3, 9})
  {
    const TinyVector<double, 3> rnew =
        s.p->pos(k) + TinyVector<double, 3>{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                          rng.uniform(-0.5, 0.5)};
    double log0, sign0;
    brute_logdet(*s.spos, *s.p, kNel, log0, sign0);
    const auto saved = s.p->pos(k);
    s.p->set_pos(k, rnew);
    double log1, sign1;
    brute_logdet(*s.spos, *s.p, kNel, log1, sign1);
    s.p->set_pos(k, saved);
    const double expect = sign0 * sign1 * std::exp(log1 - log0);

    s.p->make_move(k, rnew);
    const double got = s.det->ratio(*s.p, k);
    EXPECT_NEAR(got, expect, 1e-8 * std::abs(expect)) << k;
    s.det->reject_move(k);
    s.p->reject_move(k);
  }
}

TEST(DiracDeterminant, ShermanMorrisonMatchesFreshInverse)
{
  auto s = make_det_system();
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  s.det->evaluate_log(*s.p, g, l);

  RandomGenerator rng(88);
  for (int k = 0; k < kNel; ++k)
  {
    const TinyVector<double, 3> rnew =
        s.p->pos(k) + TinyVector<double, 3>{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                                          rng.uniform(-0.3, 0.3)};
    s.p->make_move(k, rnew);
    TinyVector<double, 3> grad{};
    const double ratio = s.det->ratio_grad(*s.p, k, grad);
    if (std::abs(ratio) > 0.05) // avoid ill-conditioned updates in test
    {
      s.det->accept_move(*s.p, k);
      s.p->accept_move(k);
    }
    else
    {
      s.det->reject_move(k);
      s.p->reject_move(k);
    }
  }
  EXPECT_LT(inverse_residual(*s.spos, *s.p, *s.det), 1e-7);
  // Log value accumulated through ratios matches from-scratch.
  double brute, sign;
  brute_logdet(*s.spos, *s.p, kNel, brute, sign);
  EXPECT_NEAR(s.det->log_value(), brute, 1e-8);
}

TEST(DiracDeterminant, GradientMatchesFiniteDifference)
{
  auto s = make_det_system();
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  s.det->evaluate_log(*s.p, g, l);

  const int k = 4;
  const double h = 1e-5;
  for (unsigned d = 0; d < 3; ++d)
  {
    const auto r0 = s.p->pos(k);
    auto rp = r0, rm = r0;
    rp[d] += h;
    rm[d] -= h;
    double lp, lm, sign;
    s.p->set_pos(k, rp);
    brute_logdet(*s.spos, *s.p, kNel, lp, sign);
    s.p->set_pos(k, rm);
    brute_logdet(*s.spos, *s.p, kNel, lm, sign);
    s.p->set_pos(k, r0);
    EXPECT_NEAR(g[k][d], (lp - lm) / (2 * h), 1e-4) << d;
  }
  // eval_grad agrees with the accumulated G.
  const auto ge = s.det->eval_grad(*s.p, k);
  for (unsigned d = 0; d < 3; ++d)
    EXPECT_NEAR(ge[d], g[k][d], 1e-10);
}

TEST(DiracDeterminant, LaplacianMatchesFiniteDifference)
{
  auto s = make_det_system();
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  s.det->evaluate_log(*s.p, g, l);

  const int k = 6;
  const double h = 5e-4;
  double l0, sign;
  brute_logdet(*s.spos, *s.p, kNel, l0, sign);
  double lap_fd = 0;
  for (unsigned d = 0; d < 3; ++d)
  {
    const auto r0 = s.p->pos(k);
    auto rp = r0, rm = r0;
    rp[d] += h;
    rm[d] -= h;
    double lp, lm;
    s.p->set_pos(k, rp);
    brute_logdet(*s.spos, *s.p, kNel, lp, sign);
    s.p->set_pos(k, rm);
    brute_logdet(*s.spos, *s.p, kNel, lm, sign);
    s.p->set_pos(k, r0);
    lap_fd += (lp - 2 * l0 + lm) / (h * h);
  }
  EXPECT_NEAR(l[k], lap_fd, 5e-3 * std::max(1.0, std::abs(lap_fd)));
}

TEST(DiracDeterminant, RatioGradConsistentWithRatio)
{
  auto s = make_det_system();
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  s.det->evaluate_log(*s.p, g, l);
  const int k = 2;
  s.p->make_move(k, s.p->pos(k) + TinyVector<double, 3>{0.25, 0.1, -0.2});
  const double r1 = s.det->ratio(*s.p, k);
  TinyVector<double, 3> grad{};
  const double r2 = s.det->ratio_grad(*s.p, k, grad);
  EXPECT_NEAR(r1, r2, 1e-12 * std::abs(r1));
  s.det->reject_move(k);
  s.p->reject_move(k);
}

TEST(DiracDeterminant, BufferRoundTrip)
{
  auto s = make_det_system();
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  s.det->evaluate_log(*s.p, g, l);
  const double log0 = s.det->log_value();

  Walker w(kNel);
  s.p->store_walker(w);
  s.det->register_data(w.buffer);
  w.buffer.rewind();
  s.det->update_buffer(w.buffer);

  // Scramble with accepted moves.
  for (int k = 0; k < 3; ++k)
  {
    s.p->make_move(k, s.p->pos(k) + TinyVector<double, 3>{0.2, -0.1, 0.15});
    TinyVector<double, 3> grad{};
    s.det->ratio_grad(*s.p, k, grad);
    s.det->accept_move(*s.p, k);
    s.p->accept_move(k);
  }
  EXPECT_NE(s.det->log_value(), log0);
  s.p->load_walker(w);
  s.p->update();
  w.buffer.rewind();
  s.det->copy_from_buffer(*s.p, w.buffer);
  EXPECT_DOUBLE_EQ(s.det->log_value(), log0);
  EXPECT_LT(inverse_residual(*s.spos, *s.p, *s.det), 1e-9);
}

TEST(DiracDeterminantMixedPrecision, RecomputeRepairsDrift)
{
  // Float inverse: run many accepted updates, watch the residual grow,
  // then verify recompute() repairs it (paper Sec. 7.2).
  auto pf = std::make_unique<ParticleSet<float>>("e", Lattice::cubic(kBox));
  pf->add_species("u", -1.0);
  pf->create({kNel});
  RandomGenerator rng(31);
  randomize_positions(*pf, rng);
  pf->update();
  auto spos = make_spos<float>(pf->lattice());
  DiracDeterminant<float> det(spos, 0, kNel);
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  det.evaluate_log(*pf, g, l);

  RandomGenerator move_rng(5);
  for (int sweep = 0; sweep < 30; ++sweep)
    for (int k = 0; k < kNel; ++k)
    {
      pf->make_move(k, pf->pos(k) +
                           TinyVector<double, 3>{move_rng.uniform(-0.2, 0.2),
                                                 move_rng.uniform(-0.2, 0.2),
                                                 move_rng.uniform(-0.2, 0.2)});
      TinyVector<double, 3> grad{};
      const double ratio = det.ratio_grad(*pf, k, grad);
      if (std::abs(ratio) > 0.1)
      {
        det.accept_move(*pf, k);
        pf->accept_move(k);
      }
      else
      {
        det.reject_move(k);
        pf->reject_move(k);
      }
    }
  EXPECT_GT(det.accepted_updates(), 0u);
  const double drifted = inverse_residual(*spos, *pf, det);
  det.recompute(*pf);
  const double repaired = inverse_residual(*spos, *pf, det);
  EXPECT_LT(repaired, 1e-4);
  EXPECT_LE(repaired, drifted + 1e-12);
  // recompute() zeroes the update counter.
  EXPECT_EQ(det.accepted_updates(), 0u);
}

// ---------------------------------------------------------------------
// Delayed (Woodbury) updates
// ---------------------------------------------------------------------

TEST(DelayedUpdate, RatioMatchesShermanMorrisonPath)
{
  auto s1 = make_det_system(55);
  auto s2 = make_det_system(55);
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  s1.det->evaluate_log(*s1.p, g, l);
  s2.det->evaluate_log(*s2.p, g, l);

  DelayedUpdateEngine<double> engine(kNel, /*delay=*/4);
  engine.attach(&s2.det->inverse_transposed());

  const std::size_t np = getAlignedSize<double>(kNel);
  aligned_vector<double> psiv(np);

  RandomGenerator rng(66);
  for (int k = 0; k < kNel; ++k)
  {
    const TinyVector<double, 3> rnew =
        s1.p->pos(k) + TinyVector<double, 3>{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                                           rng.uniform(-0.3, 0.3)};
    // Path 1: rank-1 SM via the component.
    s1.p->make_move(k, rnew);
    TinyVector<double, 3> grad{};
    const double r_sm = s1.det->ratio_grad(*s1.p, k, grad);
    // Path 2: delayed engine sees the same orbital vector.
    s2.spos->evaluate_v(rnew, psiv.data());
    const double r_delayed = engine.ratio(psiv.data(), k);
    EXPECT_NEAR(r_delayed, r_sm, 1e-8 * std::abs(r_sm)) << k;

    if (std::abs(r_sm) > 0.05)
    {
      s1.det->accept_move(*s1.p, k);
      s1.p->accept_move(k);
      engine.accept(psiv.data(), k);
      s2.p->set_pos(k, rnew);
    }
    else
    {
      s1.det->reject_move(k);
      s1.p->reject_move(k);
    }
  }
  engine.flush();
  // Both inverses agree.
  const auto& m1 = s1.det->inverse_transposed();
  const auto& m2 = s2.det->inverse_transposed();
  for (int i = 0; i < kNel; ++i)
    for (int j = 0; j < kNel; ++j)
      EXPECT_NEAR(m1(i, j), m2(i, j), 1e-7) << i << "," << j;
}

TEST(DelayedUpdate, GetInvRowSeesPendingUpdates)
{
  auto s = make_det_system(77);
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  s.det->evaluate_log(*s.p, g, l);

  DelayedUpdateEngine<double> engine(kNel, /*delay=*/8);
  engine.attach(&s.det->inverse_transposed());
  const std::size_t np = getAlignedSize<double>(kNel);
  aligned_vector<double> psiv(np), row(np);

  // Bind two updates without flushing.
  RandomGenerator rng(12);
  for (int k : {1, 4})
  {
    const TinyVector<double, 3> rnew =
        s.p->pos(k) + TinyVector<double, 3>{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                                          rng.uniform(-0.3, 0.3)};
    s.spos->evaluate_v(rnew, psiv.data());
    engine.accept(psiv.data(), k);
    s.p->set_pos(k, rnew);
  }
  ASSERT_EQ(engine.pending(), 2);
  // Corrected rows must match the flushed inverse.
  std::vector<aligned_vector<double>> corrected(kNel, aligned_vector<double>(np));
  for (int i = 0; i < kNel; ++i)
    engine.get_inv_row(i, corrected[i].data());
  engine.flush();
  const auto& m = s.det->inverse_transposed();
  for (int i = 0; i < kNel; ++i)
    for (int j = 0; j < kNel; ++j)
      EXPECT_NEAR(corrected[i][j], m(i, j), 1e-9);
}

TEST(DelayedUpdate, AutoFlushAtDelayWindow)
{
  auto s = make_det_system(99);
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  s.det->evaluate_log(*s.p, g, l);
  DelayedUpdateEngine<double> engine(kNel, /*delay=*/2);
  engine.attach(&s.det->inverse_transposed());
  const std::size_t np = getAlignedSize<double>(kNel);
  aligned_vector<double> psiv(np);
  RandomGenerator rng(13);
  for (int k : {0, 1})
  {
    const TinyVector<double, 3> rnew =
        s.p->pos(k) + TinyVector<double, 3>{rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                                          rng.uniform(-0.2, 0.2)};
    s.spos->evaluate_v(rnew, psiv.data());
    engine.accept(psiv.data(), k);
    s.p->set_pos(k, rnew);
  }
  EXPECT_EQ(engine.pending(), 0); // auto-flushed at delay=2
  s.p->update();
  EXPECT_LT(inverse_residual(*s.spos, *s.p, *s.det), 1e-8);
}

// ---------------------------------------------------------------------
// Delayed-update determinant component (paper Sec. 8.4 extension)
// ---------------------------------------------------------------------

TEST(DelayedDeterminantComponent, TracksStandardDeterminantThroughSweeps)
{
  auto s1 = make_det_system(123);
  auto p2 = s1.p->clone();
  p2->update();
  DiracDeterminantDelayed<double> det_d(s1.spos, 0, kNel, /*delay=*/4);

  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  s1.det->evaluate_log(*s1.p, g, l);
  std::vector<TinyVector<double, 3>> g2(kNel);
  std::vector<double> l2(kNel);
  det_d.evaluate_log(*p2, g2, l2);
  EXPECT_NEAR(det_d.log_value(), s1.det->log_value(), 1e-10);

  RandomGenerator rng(55);
  for (int sweep = 0; sweep < 2; ++sweep)
    for (int k = 0; k < kNel; ++k)
    {
      const TinyVector<double, 3> dr{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                                     rng.uniform(-0.3, 0.3)};
      s1.p->make_move(k, s1.p->pos(k) + dr);
      p2->make_move(k, p2->pos(k) + dr);
      TinyVector<double, 3> grad1{}, grad2{};
      const double r1 = s1.det->ratio_grad(*s1.p, k, grad1);
      const double r2 = det_d.ratio_grad(*p2, k, grad2);
      EXPECT_NEAR(r2, r1, 1e-7 * std::abs(r1)) << "sweep " << sweep << " k " << k;
      for (unsigned d = 0; d < 3; ++d)
        EXPECT_NEAR(grad2[d], grad1[d], 1e-6);
      if (std::abs(r1) > 0.05)
      {
        s1.det->accept_move(*s1.p, k);
        s1.p->accept_move(k);
        det_d.accept_move(*p2, k);
        p2->accept_move(k);
      }
      else
      {
        s1.det->reject_move(k);
        s1.p->reject_move(k);
        det_d.reject_move(k);
        p2->reject_move(k);
      }
    }
  // Measurement path flushes pending updates.
  std::vector<TinyVector<double, 3>> ga(kNel), gb(kNel);
  std::vector<double> la(kNel), lb(kNel);
  for (auto& v : la)
    v = 0;
  for (auto& v : lb)
    v = 0;
  s1.det->evaluate_gl(*s1.p, ga, la);
  det_d.evaluate_gl(*p2, gb, lb);
  for (int i = 0; i < kNel; ++i)
  {
    for (unsigned d = 0; d < 3; ++d)
      EXPECT_NEAR(gb[i][d], ga[i][d], 1e-6);
    EXPECT_NEAR(lb[i], la[i], 1e-5);
  }
  EXPECT_NEAR(det_d.log_value(), s1.det->log_value(), 1e-7);
}

TEST(DelayedDeterminantComponent, EvalGradSeesPendingUpdates)
{
  auto s = make_det_system(321);
  DiracDeterminantDelayed<double> det(s.spos, 0, kNel, /*delay=*/8);
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  det.evaluate_log(*s.p, g, l);

  // Accept 2 moves (window not full), then check eval_grad for another
  // particle against a from-scratch determinant on the moved positions.
  RandomGenerator rng(77);
  for (int k : {0, 5})
  {
    s.p->make_move(k, s.p->pos(k) + TinyVector<double, 3>{0.2, -0.15, 0.1});
    TinyVector<double, 3> grad{};
    det.ratio_grad(*s.p, k, grad);
    det.accept_move(*s.p, k);
    s.p->accept_move(k);
  }
  ASSERT_EQ(det.pending_updates(), 2);
  const auto g_pending = det.eval_grad(*s.p, 7);

  DiracDeterminant<double> fresh(s.spos, 0, kNel);
  s.p->update();
  fresh.evaluate_log(*s.p, g, l);
  const auto g_fresh = fresh.eval_grad(*s.p, 7);
  for (unsigned d = 0; d < 3; ++d)
    EXPECT_NEAR(g_pending[d], g_fresh[d], 1e-7);
}

TEST(DelayedDeterminantComponent, BufferUpdateFlushesPending)
{
  auto s = make_det_system(11);
  DiracDeterminantDelayed<double> det(s.spos, 0, kNel, /*delay=*/8);
  std::vector<TinyVector<double, 3>> g(kNel);
  std::vector<double> l(kNel);
  det.evaluate_log(*s.p, g, l);
  Walker w(kNel);
  det.register_data(w.buffer);

  s.p->make_move(2, s.p->pos(2) + TinyVector<double, 3>{0.2, 0.2, 0.2});
  TinyVector<double, 3> grad{};
  det.ratio_grad(*s.p, 2, grad);
  det.accept_move(*s.p, 2);
  s.p->accept_move(2);
  ASSERT_EQ(det.pending_updates(), 1);
  w.buffer.rewind();
  det.update_buffer(w.buffer);
  EXPECT_EQ(det.pending_updates(), 0); // flushed before serialization
  EXPECT_LT(inverse_residual(*s.spos, *s.p, det), 1e-8);
}
