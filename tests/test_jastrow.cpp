// Unit + property tests for the Jastrow factors: Ref (store-over-
// compute) and Current (compute-on-the-fly) implementations must agree
// to numerical precision on log values, ratios, gradients and
// laplacians; derivatives are cross-checked by finite differences.
#include <gtest/gtest.h>

#include <memory>

#include "test_utils.h"
#include "wavefunction/jastrow_one_body.h"
#include "wavefunction/jastrow_two_body.h"

using namespace qmcxx;
using namespace qmcxx::testing;

namespace
{

constexpr int kNup = 8;
constexpr int kNdn = 8;
constexpr int kN = kNup + kNdn;
constexpr double kBox = 6.0;

struct J2System
{
  std::unique_ptr<ParticleSet<double>> p_ref, p_cur;
  std::unique_ptr<TwoBodyJastrowRef<double>> j_ref;
  std::unique_ptr<TwoBodyJastrowCurrent<double>> j_cur;
};

J2System make_j2_system(std::uint64_t seed = 7)
{
  J2System s;
  s.p_ref = make_electrons<double>(kNup, kNdn, kBox, seed);
  s.p_cur = make_electrons<double>(kNup, kNdn, kBox, seed);
  const int t_ref =
      s.p_ref->add_table(std::make_unique<AosDistanceTableAA<double>>(s.p_ref->lattice(), kN));
  const int t_cur =
      s.p_cur->add_table(std::make_unique<SoaDistanceTableAA<double>>(s.p_cur->lattice(), kN));
  s.p_ref->update();
  s.p_cur->update();

  const double rc = 2.9; // < Wigner-Seitz radius 3.0
  auto f_uu = make_test_functor<double>(rc, -0.25);
  auto f_ud = make_test_functor<double>(rc, -0.5);
  s.j_ref = std::make_unique<TwoBodyJastrowRef<double>>(kN, 2, t_ref);
  s.j_ref->add_functor(0, 0, f_uu);
  s.j_ref->add_functor(1, 1, f_uu);
  s.j_ref->add_functor(0, 1, f_ud);
  s.j_cur = std::make_unique<TwoBodyJastrowCurrent<double>>(kN, 2, t_cur);
  s.j_cur->add_functor(0, 0, f_uu);
  s.j_cur->add_functor(1, 1, f_ud); // deliberately overwritten below
  s.j_cur->add_functor(1, 1, f_uu);
  s.j_cur->add_functor(0, 1, f_ud);
  return s;
}

/// Brute-force log J2 from positions.
double brute_log_j2(const ParticleSet<double>& p, const TwoBodyJastrowBase<double>& j)
{
  double logval = 0;
  for (int i = 0; i < p.size(); ++i)
    for (int jdx = i + 1; jdx < p.size(); ++jdx)
    {
      const double r = norm(p.lattice().min_image(p.pos(jdx) - p.pos(i)));
      logval -= j.functor(p.group_id(i), p.group_id(jdx)).evaluate(r);
    }
  return logval;
}

} // namespace

TEST(TwoBodyJastrow, LogValueMatchesBruteForceBothImpls)
{
  auto s = make_j2_system();
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  const double log_ref = s.j_ref->evaluate_log(*s.p_ref, g, l);
  std::vector<TinyVector<double, 3>> g2(kN);
  std::vector<double> l2(kN);
  const double log_cur = s.j_cur->evaluate_log(*s.p_cur, g2, l2);
  const double brute = brute_log_j2(*s.p_ref, *s.j_ref);
  EXPECT_NEAR(log_ref, brute, 1e-10);
  EXPECT_NEAR(log_cur, brute, 1e-10);
}

TEST(TwoBodyJastrow, RefAndCurrentAgreeOnGL)
{
  auto s = make_j2_system();
  std::vector<TinyVector<double, 3>> g1(kN), g2(kN);
  std::vector<double> l1(kN), l2(kN);
  s.j_ref->evaluate_log(*s.p_ref, g1, l1);
  s.j_cur->evaluate_log(*s.p_cur, g2, l2);
  for (int i = 0; i < kN; ++i)
  {
    for (unsigned d = 0; d < 3; ++d)
      EXPECT_NEAR(g1[i][d], g2[i][d], 1e-9) << i;
    EXPECT_NEAR(l1[i], l2[i], 1e-8) << i;
  }
}

TEST(TwoBodyJastrow, GradientMatchesFiniteDifference)
{
  auto s = make_j2_system();
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  s.j_cur->evaluate_log(*s.p_cur, g, l);

  const double h = 1e-6;
  const int k = 5;
  for (unsigned d = 0; d < 3; ++d)
  {
    auto& p = *s.p_cur;
    const auto r0 = p.pos(k);
    auto rp = r0, rm = r0;
    rp[d] += h;
    rm[d] -= h;
    p.set_pos(k, rp);
    p.update();
    const double lp = brute_log_j2(p, *s.j_cur);
    p.set_pos(k, rm);
    p.update();
    const double lm = brute_log_j2(p, *s.j_cur);
    p.set_pos(k, r0);
    p.update();
    EXPECT_NEAR(g[k][d], (lp - lm) / (2 * h), 1e-5) << d;
  }
}

TEST(TwoBodyJastrow, LaplacianMatchesFiniteDifference)
{
  auto s = make_j2_system();
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  s.j_cur->evaluate_log(*s.p_cur, g, l);

  const double h = 1e-4;
  const int k = 3;
  auto& p = *s.p_cur;
  const auto r0 = p.pos(k);
  const double l0 = brute_log_j2(p, *s.j_cur);
  double lap_fd = 0;
  for (unsigned d = 0; d < 3; ++d)
  {
    auto rp = r0, rm = r0;
    rp[d] += h;
    rm[d] -= h;
    p.set_pos(k, rp);
    const double lp = brute_log_j2(p, *s.j_cur);
    p.set_pos(k, rm);
    const double lm = brute_log_j2(p, *s.j_cur);
    p.set_pos(k, r0);
    lap_fd += (lp - 2 * l0 + lm) / (h * h);
  }
  p.update();
  EXPECT_NEAR(l[k], lap_fd, 1e-4);
}

TEST(TwoBodyJastrow, RatioMatchesLogDifferenceBothImpls)
{
  auto s = make_j2_system();
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  s.j_ref->evaluate_log(*s.p_ref, g, l);
  s.j_cur->evaluate_log(*s.p_cur, g, l);

  RandomGenerator rng(21);
  for (int k : {0, 4, 9, 15})
  {
    const TinyVector<double, 3> dr{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                                   rng.uniform(-0.5, 0.5)};
    const auto rnew = s.p_ref->pos(k) + dr;

    const double log_before = brute_log_j2(*s.p_ref, *s.j_ref);
    auto r_saved = s.p_ref->pos(k);
    s.p_ref->set_pos(k, rnew);
    const double log_after = brute_log_j2(*s.p_ref, *s.j_ref);
    s.p_ref->set_pos(k, r_saved);
    const double expect = std::exp(log_after - log_before);

    s.p_ref->prepare_move(k);
    s.p_ref->make_move(k, rnew);
    EXPECT_NEAR(s.j_ref->ratio(*s.p_ref, k), expect, 1e-9 * std::abs(expect));
    s.p_ref->reject_move(k);
    s.j_ref->reject_move(k);

    s.p_cur->prepare_move(k);
    s.p_cur->make_move(k, rnew);
    EXPECT_NEAR(s.j_cur->ratio(*s.p_cur, k), expect, 1e-9 * std::abs(expect));
    s.p_cur->reject_move(k);
    s.j_cur->reject_move(k);
  }
}

TEST(TwoBodyJastrow, RatioGradMatchesRatioAndFreshGradient)
{
  auto s = make_j2_system();
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  s.j_cur->evaluate_log(*s.p_cur, g, l);

  const int k = 7;
  const TinyVector<double, 3> rnew = s.p_cur->pos(k) + TinyVector<double, 3>{0.2, -0.3, 0.1};
  s.p_cur->prepare_move(k);
  s.p_cur->make_move(k, rnew);
  const double r1 = s.j_cur->ratio(*s.p_cur, k);
  TinyVector<double, 3> grad{};
  const double r2 = s.j_cur->ratio_grad(*s.p_cur, k, grad);
  EXPECT_NEAR(r1, r2, 1e-12);
  // Accept and compare grad against fresh evaluate_log gradient.
  s.j_cur->accept_move(*s.p_cur, k);
  s.p_cur->accept_move(k);
  s.p_cur->update();
  std::vector<TinyVector<double, 3>> g2(kN);
  std::vector<double> l2(kN);
  s.j_cur->evaluate_log(*s.p_cur, g2, l2);
  for (unsigned d = 0; d < 3; ++d)
    EXPECT_NEAR(grad[d], g2[k][d], 1e-9);
}

TEST(TwoBodyJastrow, SweepWithAcceptsKeepsStateConsistentBothImpls)
{
  auto s = make_j2_system();
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  s.j_ref->evaluate_log(*s.p_ref, g, l);
  s.j_cur->evaluate_log(*s.p_cur, g, l);

  RandomGenerator rng(33);
  for (int k = 0; k < kN; ++k)
  {
    const TinyVector<double, 3> dr{rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3),
                                   rng.uniform(-0.3, 0.3)};
    // Same proposal stream for both implementations.
    const auto rnew_ref = s.p_ref->pos(k) + dr;
    s.p_ref->prepare_move(k);
    s.p_ref->make_move(k, rnew_ref);
    TinyVector<double, 3> gr{};
    const double ratio_ref = s.j_ref->ratio_grad(*s.p_ref, k, gr);

    s.p_cur->prepare_move(k);
    s.p_cur->make_move(k, rnew_ref);
    TinyVector<double, 3> gc{};
    const double ratio_cur = s.j_cur->ratio_grad(*s.p_cur, k, gc);

    EXPECT_NEAR(ratio_ref, ratio_cur, 1e-9 * std::abs(ratio_ref)) << k;
    for (unsigned d = 0; d < 3; ++d)
      EXPECT_NEAR(gr[d], gc[d], 1e-8);

    if (k % 3 != 2)
    {
      s.j_ref->accept_move(*s.p_ref, k);
      s.p_ref->accept_move(k);
      s.j_cur->accept_move(*s.p_cur, k);
      s.p_cur->accept_move(k);
    }
    else
    {
      s.j_ref->reject_move(k);
      s.p_ref->reject_move(k);
      s.j_cur->reject_move(k);
      s.p_cur->reject_move(k);
    }
  }
  // Log values drifted identically and match a brute-force recompute.
  EXPECT_NEAR(s.j_ref->log_value(), s.j_cur->log_value(), 1e-8);
  EXPECT_NEAR(s.j_ref->log_value(), brute_log_j2(*s.p_ref, *s.j_ref), 1e-8);

  // Internal per-particle state (Current) remains consistent: GL from
  // state matches GL from a fresh evaluation.
  s.p_cur->update();
  std::vector<TinyVector<double, 3>> g_state(kN), g_fresh(kN);
  std::vector<double> l_state(kN), l_fresh(kN);
  s.j_cur->evaluate_gl(*s.p_cur, g_state, l_state);
  s.j_cur->evaluate_log(*s.p_cur, g_fresh, l_fresh);
  for (int i = 0; i < kN; ++i)
  {
    for (unsigned d = 0; d < 3; ++d)
      EXPECT_NEAR(g_state[i][d], g_fresh[i][d], 1e-8);
    EXPECT_NEAR(l_state[i], l_fresh[i], 1e-7);
  }
}

TEST(TwoBodyJastrow, AcceptReusesPreparedRowWithoutDistTableWork)
{
  // accept_move reads the old row k as prepare_move left it in the
  // table: committing a move computes no distance row.
  auto s = make_j2_system();
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  s.j_cur->evaluate_log(*s.p_cur, g, l);
  auto& timers = TimerRegistry::instance();
  const bool was_enabled = timers.enabled();
  timers.set_enabled(true);
  constexpr int kDist = static_cast<int>(Kernel::DistTable);
  constexpr int kJ2 = static_cast<int>(Kernel::J2);
  for (int k = 0; k < kN; k += 3)
  {
    s.p_cur->prepare_move(k);
    s.p_cur->make_move(k, s.p_cur->pos(k) + TinyVector<double, 3>{0.2, -0.1, 0.15});
    TinyVector<double, 3> gr{};
    s.j_cur->ratio_grad(*s.p_cur, k, gr);
    const KernelTotals before = timers.snapshot();
    s.j_cur->accept_move(*s.p_cur, k);
    const KernelTotals after = timers.snapshot();
    EXPECT_EQ(after.calls[kDist], before.calls[kDist]) << "k=" << k;
    EXPECT_EQ(after.calls[kJ2], before.calls[kJ2] + 1) << "k=" << k; // the timers are live
    s.p_cur->accept_move(k);
  }
  timers.set_enabled(was_enabled);
  EXPECT_NEAR(s.j_cur->log_value(), brute_log_j2(*s.p_cur, *s.j_cur), 1e-8);
}

TEST(TwoBodyJastrow, BufferRoundTripRestoresState)
{
  auto s = make_j2_system();
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  s.j_cur->evaluate_log(*s.p_cur, g, l);

  Walker w(kN);
  s.p_cur->store_walker(w);
  s.j_cur->register_data(w.buffer);
  w.buffer.rewind();
  s.j_cur->update_buffer(w.buffer);

  // Scramble state with a few accepted moves, then restore.
  RandomGenerator rng(5);
  for (int k = 0; k < 4; ++k)
  {
    s.p_cur->prepare_move(k);
    s.p_cur->make_move(k, s.p_cur->pos(k) + TinyVector<double, 3>{0.2, 0.1, -0.1});
    TinyVector<double, 3> gr{};
    s.j_cur->ratio_grad(*s.p_cur, k, gr);
    s.j_cur->accept_move(*s.p_cur, k);
    s.p_cur->accept_move(k);
  }
  const double log_scrambled = s.j_cur->log_value();
  s.p_cur->load_walker(w);
  s.p_cur->update();
  w.buffer.rewind();
  s.j_cur->copy_from_buffer(*s.p_cur, w.buffer);
  EXPECT_NE(s.j_cur->log_value(), log_scrambled);
  EXPECT_NEAR(s.j_cur->log_value(), brute_log_j2(*s.p_cur, *s.j_cur), 1e-10);
}

TEST(TwoBodyJastrow, RefBufferIs5N2Scalars)
{
  auto s = make_j2_system();
  PooledBuffer buf_ref, buf_cur;
  s.j_ref->register_data(buf_ref);
  s.j_cur->register_data(buf_cur);
  // Ref: 5 N^2 values (paper Sec. 6.1); Current: 5 N (paper Sec. 7.5).
  EXPECT_GE(buf_ref.size(), 5u * kN * kN * sizeof(double));
  EXPECT_LT(buf_cur.size(), 6u * kN * sizeof(double) + 64);
}

// ---------------------------------------------------------------------
// One-body Jastrow
// ---------------------------------------------------------------------

namespace
{

struct J1System
{
  std::unique_ptr<ParticleSet<double>> ions;
  std::unique_ptr<ParticleSet<double>> p_ref, p_cur;
  std::unique_ptr<OneBodyJastrowRef<double>> j_ref;
  std::unique_ptr<OneBodyJastrowCurrent<double>> j_cur;
};

J1System make_j1_system(std::uint64_t seed = 19)
{
  J1System s;
  s.ions = make_ions<double>(4, 4, kBox, seed + 1);
  s.p_ref = make_electrons<double>(kNup, kNdn, kBox, seed);
  s.p_cur = make_electrons<double>(kNup, kNdn, kBox, seed);
  const int t_ref = s.p_ref->add_table(
      std::make_unique<AosDistanceTableAB<double>>(s.p_ref->lattice(), *s.ions, kN));
  const int t_cur = s.p_cur->add_table(
      std::make_unique<SoaDistanceTableAB<double>>(s.p_cur->lattice(), *s.ions, kN));
  s.p_ref->update();
  s.p_cur->update();

  auto f_a = std::make_shared<CubicBsplineFunctor<double>>(
      build_bspline_functor<double>(ei_jastrow_shape(-0.8, 1.0, 2.5), 0.0, 2.5, 10));
  auto f_b = std::make_shared<CubicBsplineFunctor<double>>(
      build_bspline_functor<double>(ei_jastrow_shape(-0.3, 1.4, 2.8), 0.0, 2.8, 10));
  s.j_ref = std::make_unique<OneBodyJastrowRef<double>>(*s.ions, kN, t_ref);
  s.j_ref->add_functor(0, f_a);
  s.j_ref->add_functor(1, f_b);
  s.j_cur = std::make_unique<OneBodyJastrowCurrent<double>>(*s.ions, kN, t_cur);
  s.j_cur->add_functor(0, f_a);
  s.j_cur->add_functor(1, f_b);
  return s;
}

double brute_log_j1(const ParticleSet<double>& elec, const ParticleSet<double>& ions,
                    const OneBodyJastrowBase<double>& j)
{
  double logval = 0;
  for (int i = 0; i < elec.size(); ++i)
    for (int a = 0; a < ions.size(); ++a)
    {
      const double r = norm(elec.lattice().min_image(ions.pos(a) - elec.pos(i)));
      logval -= j.functor(ions.group_id(a)).evaluate(r);
    }
  return logval;
}

} // namespace

TEST(OneBodyJastrow, LogValueMatchesBruteForceBothImpls)
{
  auto s = make_j1_system();
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  const double log_ref = s.j_ref->evaluate_log(*s.p_ref, g, l);
  const double log_cur = s.j_cur->evaluate_log(*s.p_cur, g, l);
  const double brute = brute_log_j1(*s.p_ref, *s.ions, *s.j_ref);
  EXPECT_NEAR(log_ref, brute, 1e-10);
  EXPECT_NEAR(log_cur, brute, 1e-10);
}

TEST(OneBodyJastrow, GradientMatchesFiniteDifference)
{
  auto s = make_j1_system();
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  s.j_cur->evaluate_log(*s.p_cur, g, l);
  const double h = 1e-6;
  const int k = 2;
  auto& p = *s.p_cur;
  for (unsigned d = 0; d < 3; ++d)
  {
    const auto r0 = p.pos(k);
    auto rp = r0, rm = r0;
    rp[d] += h;
    rm[d] -= h;
    p.set_pos(k, rp);
    const double lp = brute_log_j1(p, *s.ions, *s.j_cur);
    p.set_pos(k, rm);
    const double lm = brute_log_j1(p, *s.ions, *s.j_cur);
    p.set_pos(k, r0);
    EXPECT_NEAR(g[k][d], (lp - lm) / (2 * h), 1e-5);
  }
}

TEST(OneBodyJastrow, SweepAgreesAcrossImplementations)
{
  auto s = make_j1_system();
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  s.j_ref->evaluate_log(*s.p_ref, g, l);
  s.j_cur->evaluate_log(*s.p_cur, g, l);
  RandomGenerator rng(44);
  for (int k = 0; k < kN; ++k)
  {
    const TinyVector<double, 3> dr{rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4),
                                   rng.uniform(-0.4, 0.4)};
    s.p_ref->prepare_move(k);
    s.p_ref->make_move(k, s.p_ref->pos(k) + dr);
    s.p_cur->prepare_move(k);
    s.p_cur->make_move(k, s.p_cur->pos(k) + dr);
    TinyVector<double, 3> gr{}, gc{};
    const double rr = s.j_ref->ratio_grad(*s.p_ref, k, gr);
    const double rc = s.j_cur->ratio_grad(*s.p_cur, k, gc);
    EXPECT_NEAR(rr, rc, 1e-10 * std::abs(rr));
    for (unsigned d = 0; d < 3; ++d)
      EXPECT_NEAR(gr[d], gc[d], 1e-9);
    if (k % 2 == 0)
    {
      s.j_ref->accept_move(*s.p_ref, k);
      s.p_ref->accept_move(k);
      s.j_cur->accept_move(*s.p_cur, k);
      s.p_cur->accept_move(k);
    }
    else
    {
      s.j_ref->reject_move(k);
      s.p_ref->reject_move(k);
      s.j_cur->reject_move(k);
      s.p_cur->reject_move(k);
    }
  }
  EXPECT_NEAR(s.j_ref->log_value(), brute_log_j1(*s.p_ref, *s.ions, *s.j_ref), 1e-9);
  EXPECT_NEAR(s.j_cur->log_value(), s.j_ref->log_value(), 1e-9);
}

TEST(OneBodyJastrow, MixedPrecisionCloseToDouble)
{
  // Build the float Current implementation on the same configuration
  // and verify the log value agrees to single precision.
  auto s = make_j1_system();
  std::vector<TinyVector<double, 3>> g(kN);
  std::vector<double> l(kN);
  const double log_d = s.j_cur->evaluate_log(*s.p_cur, g, l);

  auto ions_f = make_ions<float>(4, 4, kBox, 20);
  auto elec_f = make_electrons<float>(kNup, kNdn, kBox, 19);
  // Copy exact double positions for apples-to-apples comparison.
  ions_f->set_positions(s.ions->positions());
  elec_f->set_positions(s.p_cur->positions());
  const int tf = elec_f->add_table(
      std::make_unique<SoaDistanceTableAB<float>>(elec_f->lattice(), *ions_f, kN));
  elec_f->update();
  auto f_a = std::make_shared<CubicBsplineFunctor<float>>(
      build_bspline_functor<float>(ei_jastrow_shape(-0.8, 1.0, 2.5), 0.0, 2.5, 10));
  auto f_b = std::make_shared<CubicBsplineFunctor<float>>(
      build_bspline_functor<float>(ei_jastrow_shape(-0.3, 1.4, 2.8), 0.0, 2.8, 10));
  OneBodyJastrowCurrent<float> jf(*ions_f, kN, tf);
  jf.add_functor(0, f_a);
  jf.add_functor(1, f_b);
  std::vector<TinyVector<double, 3>> gf(kN);
  std::vector<double> lf(kN);
  const double log_f = jf.evaluate_log(*elec_f, gf, lf);
  EXPECT_NEAR(log_f, log_d, 1e-3 * std::abs(log_d) + 1e-3);
}
