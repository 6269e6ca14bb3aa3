// Hot-spot timers backing the paper's profile figures.
//
// The paper's hot-spot profile (Fig. 2) decomposes runtime into the
// kernels DistTable, J1, J2, Bspline-v, Bspline-vgh, SPO-vgl, DetUpdate
// and Other. qmcxx instruments exactly those buckets with low-overhead
// scoped timers. Accumulation is strictly thread-local (no shared
// counters on the hot path, so crowd threads can never tear
// seconds[]/calls[]); each thread publishes its totals into the global
// merge only at explicit flush points -- the crowd runner flushes every
// participating thread at the generation barrier, and snapshot()
// flushes the calling thread.
#ifndef QMCXX_INSTRUMENT_TIMER_H
#define QMCXX_INSTRUMENT_TIMER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>

namespace qmcxx
{

/// The fixed kernel taxonomy of the paper's profiles.
enum class Kernel : int
{
  DistTable = 0,
  J1,
  J2,
  BsplineV,
  BsplineVGH,
  SPOvgl,
  DetRatio,
  DetUpdate,
  Other,
  kCount
};

const char* kernel_name(Kernel k);

struct KernelTotals
{
  double seconds[static_cast<int>(Kernel::kCount)] = {};
  std::uint64_t calls[static_cast<int>(Kernel::kCount)] = {};

  double total() const
  {
    double s = 0;
    for (double v : seconds)
      s += v;
    return s;
  }
};

/// Process-wide registry. add() touches only the calling thread's
/// private totals; flush_local() publishes them into the global merge
/// under the mutex. snapshot()/reset() are barrier-side operations: call
/// them only when no other thread holds unflushed totals (the crowd
/// runner guarantees this by flushing every thread at each generation
/// barrier).
class TimerRegistry
{
public:
  static TimerRegistry& instance();

  /// Enable/disable globally (disabled timers cost one branch).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Thread-local accumulation: no locks, no shared writes.
  void add(Kernel k, double seconds);

  /// Merge the calling thread's totals into the global record and zero
  /// them. Every pool thread calls this at the generation barrier.
  void flush_local();

  /// Flush the calling thread, then return the merged totals.
  KernelTotals snapshot();

  /// Clear the merged totals and the calling thread's local totals.
  void reset();

private:
  TimerRegistry() = default;
  static KernelTotals& local_totals();

  std::atomic<bool> enabled_{true};
  mutable std::mutex mutex_;
  KernelTotals merged_;
};

/// RAII scope: accumulates wall time into a kernel bucket.
class ScopedTimer
{
public:
  explicit ScopedTimer(Kernel k) : kernel_(k), active_(TimerRegistry::instance().enabled())
  {
    if (active_)
      start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer()
  {
    if (active_)
    {
      const auto end = std::chrono::steady_clock::now();
      TimerRegistry::instance().add(kernel_,
                                    std::chrono::duration<double>(end - start_).count());
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

private:
  Kernel kernel_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

} // namespace qmcxx

#endif
