// Snapshot (qmcxx-snap-v1) micro-bench: serialized bytes per walker and
// write/read bandwidth for the checkpoint path. The per-walker byte
// count is the same number the paper's Fig. 4 memory discussion tracks
// -- the anonymous buffer dominates it.
//
//   ./bench_snapshot            # Graphite + NiO-64, Current engine
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "drivers/qmc_driver_impl.h"
#include "instrument/stopwatch.h"
#include "io/snapshot.h"
#include "workloads/system_builder.h"
#include "workloads/workloads.h"

using namespace qmcxx;

namespace
{

struct SnapStats
{
  std::size_t payload_bytes = 0;
  double write_mbps = 0.0;
  double read_mbps = 0.0;
};

SnapStats measure(const io::PopulationSnapshot& snap, const std::string& path, int reps)
{
  SnapStats st;
  st.payload_bytes = io::snapshot_payload_bytes(snap);
  const double mb = static_cast<double>(st.payload_bytes) / (1024.0 * 1024.0);
  {
    const Stopwatch sw;
    for (int r = 0; r < reps; ++r)
      (void)io::write_snapshot_file(path, snap);
    st.write_mbps = mb * reps / sw.seconds();
  }
  {
    const Stopwatch sw;
    for (int r = 0; r < reps; ++r)
      (void)io::read_snapshot_file(path);
    st.read_mbps = mb * reps / sw.seconds();
  }
  std::filesystem::remove(path);
  return st;
}

} // namespace

int main()
{
  bench::header("Snapshot serialization: bytes/walker and bandwidth",
                "checkpoint/restart cost model (Fig. 4 per-walker state)");

  const std::string path =
      (std::filesystem::temp_directory_path() / "qmcxx_bench.snap").string();

  for (const Workload wl : {Workload::Graphite, Workload::NiO64})
  {
    const SystemSpec info = workload_spec(wl);
    const bool big = wl == Workload::NiO64;
    const int walkers = big ? 2 : 4;
    const int reps = 3;

    BuildOptions opt;
    opt.soa_layout = true; // the Current engine
    auto sys = build_system<float>(info, opt);
    DriverConfig cfg;
    cfg.num_walkers = walkers;
    cfg.steps = 2; // advance off the jittered start so buffers are warm
    cfg.num_threads = 1;
    QMCDriver<float> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
    driver.initialize_population();
    (void)driver.run_vmc();

    const SnapStats fs =
        measure(driver.capture_snapshot(cfg.steps, io::ChainKind::VMC), path, reps);

    const double per_walker = static_cast<double>(fs.payload_bytes) / walkers;
    std::printf("\n%-8s (%d walkers, %d electrons)\n", info.name.c_str(), walkers,
                info.num_electrons);
    std::printf("  %9zu B payload  (%8.0f B/walker)  write %7.1f MB/s  read %7.1f MB/s\n",
                fs.payload_bytes, per_walker, fs.write_mbps, fs.read_mbps);
  }
  return 0;
}
