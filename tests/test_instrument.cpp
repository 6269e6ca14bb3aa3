// Unit tests: instrumentation substrates -- timers and report
// formatting.
#include <gtest/gtest.h>

#include <thread>

#include "instrument/report.h"
#include "instrument/timer.h"

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
