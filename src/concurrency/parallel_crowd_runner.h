// ParallelCrowdRunner: the drivers' bridge onto the ThreadPool.
//
// One generation = one run_generation() call: every crowd of the
// population becomes one task, tasks execute concurrently on the pool,
// and the call returns only when all crowds have finished (the
// generation barrier at which the serial steps -- population reduction
// in fixed crowd order, DMC branching, trial-energy feedback -- run).
//
// The runner also owns the instrumentation contract for threaded runs:
// at every barrier each participating thread flushes its thread-local
// TimerRegistry totals into the global merge, so the hot path never
// touches a shared counter and snapshot() after a run sees every
// thread's time.
#ifndef QMCXX_CONCURRENCY_PARALLEL_CROWD_RUNNER_H
#define QMCXX_CONCURRENCY_PARALLEL_CROWD_RUNNER_H

#include <memory>

#include "concurrency/thread_pool.h"

namespace qmcxx
{

class ParallelCrowdRunner
{
public:
  /// `num_threads` as in DriverConfig: 0 picks the hardware thread
  /// count, 1 is the legacy serial path (no pool threads are created),
  /// negative values throw std::invalid_argument.
  explicit ParallelCrowdRunner(int num_threads);
  ~ParallelCrowdRunner();

  ParallelCrowdRunner(const ParallelCrowdRunner&) = delete;
  ParallelCrowdRunner& operator=(const ParallelCrowdRunner&) = delete;

  /// The resolved thread count (>= 1).
  int num_threads() const;

  /// Resolve a DriverConfig-style thread request against the hardware.
  static int resolve_num_threads(int requested);

  /// Run fn(crowd_index, thread_index) for every crowd, barrier, flush
  /// per-thread timer totals. thread_index selects per-thread scratch
  /// (the driver's Crowd for that thread); crowd_index keys all results.
  void run_generation(int num_crowds, const ThreadPool::TaskFn& fn);

private:
  std::unique_ptr<ThreadPool> pool_;
};

} // namespace qmcxx

#endif
