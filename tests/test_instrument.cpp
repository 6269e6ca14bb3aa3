// Unit tests: instrumentation substrates -- timers, roofline counters
// and report formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "instrument/report.h"
#include "instrument/roofline.h"
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

TEST(Roofline, CountsScaleWithCalls)
{
  const SystemSpec nio32 = workload_spec(Workload::NiO32);
  KernelTotals totals;
  totals.calls[static_cast<int>(Kernel::J2)] = 100;
  totals.seconds[static_cast<int>(Kernel::J2)] = 0.5;
  auto k1 = build_roofline(totals, nio32, Precision::Single);
  totals.calls[static_cast<int>(Kernel::J2)] = 200;
  auto k2 = build_roofline(totals, nio32, Precision::Single);
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
  const SystemSpec nio32 = workload_spec(Workload::NiO32);
  KernelTotals totals;
  totals.calls[static_cast<int>(Kernel::DistTable)] = 10;
  totals.seconds[static_cast<int>(Kernel::DistTable)] = 0.1;
  const auto dp = build_roofline(totals, nio32, Precision::Double);
  const auto sp = build_roofline(totals, nio32, Precision::Single);
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
