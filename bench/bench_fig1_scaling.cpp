// Figure 1: strong scaling of the NiO-64 benchmark, Ref vs Current.
//
// The paper runs 64-1024 KNL nodes on Trinity and 64-512 BDW sockets on
// Serrano with a fixed DMC population of 131072 and finds near-ideal
// scaling (90% / 98% parallel efficiency) for both code versions -- the
// single-node speedup translates directly to scale because the MPI
// pattern (one allreduce + walker migration) is unchanged.
//
// qmcxx has no multi-node runs, so it reports only what this host
// measures: the per-walker-step compute time and serialized walker size
// of each engine on NiO-64, i.e. the on-node speedup the paper's curves
// carry to scale.
//
// --real-threads additionally runs a measured on-node thread sweep:
// NiO-32 crowds execute concurrently on the drivers' ThreadPool for
// num_threads in {1, 2, 4} and prints the measured throughputs. Chains
// are bitwise-identical across the sweep, so the speedup is pure
// execution overlap.
#include <cstring>

#include "bench/bench_common.h"

using namespace qmcxx;

namespace
{

void run_real_thread_sweep()
{
  std::printf("\nmeasured on-node thread scaling (NiO-32 Current, crowd-per-thread):\n");
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"threads", "crowds", "throughput", "speedup"});
  double base = 0;
  for (int threads : {1, 2, 4})
  {
    EngineRunSpec spec;
    spec.workload = Workload::NiO32;
    spec.variant = EngineVariant::Current;
    spec.dmc = true;
    spec.driver = bench::default_config(Workload::NiO32);
    spec.driver.num_walkers = 8; // 4 crowds of 2: enough tasks for 4 threads
    spec.driver.crowd_size = 2;
    spec.driver.steps = 2;
    spec.driver.num_threads = threads;
    const EngineReport rep = run_engine(spec);
    if (threads == 1)
      base = rep.result.throughput;
    const double speedup = rep.result.throughput / base;
    rows.push_back({std::to_string(threads), "4", fmt(rep.result.throughput, 2) + "/s",
                    fmt(speedup, 2) + "x"});
  }
  print_table(rows);
  std::printf("(paper Sec. 5: walker crowds on dedicated threads; ideal slope 1.0/thread\n"
              " on dedicated cores -- oversubscribed hosts flatten the measured curve)\n");
}

} // namespace

int main(int argc, char** argv)
{
  bool real_threads = false;
  for (int a = 1; a < argc; ++a)
    if (!std::strcmp(argv[a], "--real-threads"))
      real_threads = true;

  bench::header("Figure 1: NiO-64 on-node speedup behind the strong scaling, Ref vs Current",
                "Mathuriya et al. SC'17, Fig. 1");

  // Measure on-node quantities.
  const EngineReport ref = bench::run(Workload::NiO64, EngineVariant::Ref);
  const EngineReport cur = bench::run(Workload::NiO64, EngineVariant::Current);
  const double t_ref = 1.0 / ref.result.throughput; // s per walker-step
  const double t_cur = 1.0 / cur.result.throughput;
  // The per-walker state (the registered buffer layout) is what a walker
  // message ships besides its positions; the set-up population is
  // resident in the crowd slots and holds positions only.
  std::printf("host measurements (NiO-64):\n");
  std::printf("  Ref:     %.4f s/walker-step, walker state %s, set-up population %s\n", t_ref,
              format_bytes(ref.walker_state_bytes).c_str(), format_bytes(ref.walker_bytes).c_str());
  std::printf("  Current: %.4f s/walker-step, walker state %s, set-up population %s\n", t_cur,
              format_bytes(cur.walker_state_bytes).c_str(), format_bytes(cur.walker_bytes).c_str());
  std::printf("  on-node speedup: %.2fx (paper: 2-4.5x)\n", t_ref / t_cur);

  if (real_threads)
    run_real_thread_sweep();
  return 0;
}
