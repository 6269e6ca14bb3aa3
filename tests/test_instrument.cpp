// Unit tests: instrumentation substrates -- timers, scaling model,
// roofline counters and report formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "instrument/report.h"
#include "instrument/roofline.h"
#include "instrument/scaling_model.h"
#include "instrument/timer.h"
#include "workloads/workloads.h"

using namespace qmcxx;

TEST(Timer, AccumulatesScopes)
{
  auto& reg = TimerRegistry::instance();
  reg.reset();
  {
    ScopedTimer t(Kernel::J2);
    // The timer test needs a real delay, not a clock read: sleep_for's
    // chrono duration literal is not a timing side channel.
    // qmcxx-lint: allow(chrono-outside-instrument)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  {
    ScopedTimer t(Kernel::J2);
  }
  const KernelTotals totals = reg.snapshot();
  EXPECT_EQ(totals.calls[static_cast<int>(Kernel::J2)], 2u);
  EXPECT_GT(totals.seconds[static_cast<int>(Kernel::J2)], 1e-3);
  reg.reset();
  EXPECT_EQ(reg.snapshot().calls[static_cast<int>(Kernel::J2)], 0u);
}

TEST(Timer, DisableSkipsAccumulation)
{
  auto& reg = TimerRegistry::instance();
  reg.reset();
  reg.set_enabled(false);
  {
    ScopedTimer t(Kernel::J1);
  }
  reg.set_enabled(true);
  EXPECT_EQ(reg.snapshot().calls[static_cast<int>(Kernel::J1)], 0u);
}

TEST(Timer, KernelNamesMatchPaperTaxonomy)
{
  EXPECT_STREQ(kernel_name(Kernel::DistTable), "DistTable");
  EXPECT_STREQ(kernel_name(Kernel::BsplineV), "Bspline-v");
  EXPECT_STREQ(kernel_name(Kernel::BsplineVGH), "Bspline-vgh");
  EXPECT_STREQ(kernel_name(Kernel::SPOvgl), "SPO-vgl");
  EXPECT_STREQ(kernel_name(Kernel::DetUpdate), "DetUpdate");
}

TEST(ScalingModel, IdealWithoutOverheads)
{
  ScalingParams params;
  params.allreduce_alpha_s = 0;
  params.migration_fraction = 0;
  params.node_overhead_s = 0;
  params.imbalance_coeff = 0;
  const auto pts = project_strong_scaling(1e-3, 1 << 20, 1 << 17, {64, 128, 256}, params);
  for (const auto& pt : pts)
    EXPECT_NEAR(pt.efficiency, 1.0, 1e-12) << pt.nodes;
  EXPECT_NEAR(pts[1].throughput / pts[0].throughput, 2.0, 1e-12);
}

TEST(ScalingModel, EfficiencyDegradesWithNodeCount)
{
  ScalingParams params; // defaults include imbalance + comm terms
  const auto pts = project_strong_scaling(1e-3, 30 << 20, 1 << 17, {64, 256, 1024}, params);
  EXPECT_GT(pts[0].efficiency, pts[1].efficiency);
  EXPECT_GT(pts[1].efficiency, pts[2].efficiency);
  EXPECT_GT(pts[2].efficiency, 0.5); // still "near ideal"
}

TEST(ScalingModel, SmallerWalkersScaleBetter)
{
  // The Current engine's smaller walker messages (paper: -22.5 MB for
  // NiO-64) reduce the migration term.
  ScalingParams params;
  params.migration_fraction = 0.05;
  params.network_bw = 1e9; // slow network to expose the term
  const auto big = project_strong_scaling(1e-4, 35 << 20, 1 << 17, {1024}, params);
  const auto small = project_strong_scaling(1e-4, 12 << 20, 1 << 17, {1024}, params);
  EXPECT_GT(small[0].throughput, big[0].throughput);
}

TEST(Roofline, CountsScaleWithCalls)
{
  const WorkloadInfo& info = workload_info(Workload::NiO32);
  KernelTotals totals;
  totals.calls[static_cast<int>(Kernel::J2)] = 100;
  totals.seconds[static_cast<int>(Kernel::J2)] = 0.5;
  auto k1 = build_roofline(totals, info, EngineVariant::Current);
  totals.calls[static_cast<int>(Kernel::J2)] = 200;
  auto k2 = build_roofline(totals, info, EngineVariant::Current);
  const auto find = [](const std::vector<KernelRoofline>& v, Kernel k) {
    for (const auto& e : v)
      if (e.kernel == k)
        return e;
    return KernelRoofline{};
  };
  EXPECT_NEAR(find(k2, Kernel::J2).flops, 2 * find(k1, Kernel::J2).flops, 1e-6);
}

TEST(Roofline, SinglePrecisionDoublesIntensity)
{
  const WorkloadInfo& info = workload_info(Workload::NiO32);
  KernelTotals totals;
  totals.calls[static_cast<int>(Kernel::DistTable)] = 10;
  totals.seconds[static_cast<int>(Kernel::DistTable)] = 0.1;
  const auto dp = build_roofline(totals, info, EngineVariant::Ref);
  const auto sp = build_roofline(totals, info, EngineVariant::Current);
  EXPECT_NEAR(sp[0].arithmetic_intensity() / dp[0].arithmetic_intensity(), 2.0, 1e-9);
}

TEST(Roofline, MachineRoofsPlausible)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "machine-performance measurement is meaningless in instrumented builds";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "machine-performance measurement is meaningless in instrumented builds";
#endif
#endif
  const MachineRoofs roofs = measure_machine_roofs();
  EXPECT_GT(roofs.peak_gflops_sp, 0.5);
  EXPECT_GT(roofs.dram_gbs, 0.5);
  EXPECT_GE(roofs.cache_gbs, roofs.dram_gbs * 0.5);
  EXPECT_NEAR(roofs.peak_gflops_dp, roofs.peak_gflops_sp / 2, roofs.peak_gflops_sp / 4);
}

TEST(Report, FormatBytes)
{
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KB");
  EXPECT_EQ(format_bytes(36ull << 30), "36.00 GB");
}

TEST(Report, FmtPrecision)
{
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
}
