// Snapshot (qmcxx-snap-v1) micro-bench: serialized bytes per walker and
// write/read bandwidth for the checkpoint path, with and without the
// PooledBuffer payload (the recompute flag). The per-walker byte count
// is the same number the paper's Fig. 4 memory discussion tracks -- the
// anonymous buffer dominates, which is why the recompute flag shrinks
// checkpoints by an order of magnitude at the cost of a non-bitwise
// resume.
//
//   ./bench_snapshot            # Graphite + NiO-64, Current engine
//
// Emits BENCH_snapshot.json (schema qmcxx-bench-v1).
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

  bench::BenchJsonWriter json("snapshot");
  const std::string path =
      (std::filesystem::temp_directory_path() / "qmcxx_bench.snap").string();

  for (const Workload wl : {Workload::Graphite, Workload::NiO64})
  {
    const SystemSpec info = workload_spec(wl);
    const bool big = wl == Workload::NiO64;
    const int walkers = big ? 2 : 4;
    const int reps = bench::long_mode() ? 10 : 3;

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

    const io::PopulationSnapshot full =
        driver.capture_snapshot(cfg.steps, io::ChainKind::VMC, /*store_buffers=*/true);
    const io::PopulationSnapshot slim =
        driver.capture_snapshot(cfg.steps, io::ChainKind::VMC, /*store_buffers=*/false);
    const SnapStats fs = measure(full, path, reps);
    const SnapStats ss = measure(slim, path, reps);

    const double per_walker = static_cast<double>(fs.payload_bytes) / walkers;
    const double per_walker_slim = static_cast<double>(ss.payload_bytes) / walkers;
    std::printf("\n%-8s (%d walkers, %d electrons)\n", info.name.c_str(), walkers,
                info.num_electrons);
    std::printf("  with buffers:    %9zu B payload  (%8.0f B/walker)  write %7.1f MB/s  "
                "read %7.1f MB/s\n",
                fs.payload_bytes, per_walker, fs.write_mbps, fs.read_mbps);
    std::printf("  recompute flag:  %9zu B payload  (%8.0f B/walker)  write %7.1f MB/s  "
                "(%.1fx smaller)\n",
                ss.payload_bytes, per_walker_slim, ss.write_mbps,
                static_cast<double>(fs.payload_bytes) / static_cast<double>(ss.payload_bytes));

    json.add_kernel_record(info.name, "Current");
    json.add_metric("num_walkers", walkers);
    json.add_metric("snapshot_bytes", static_cast<double>(fs.payload_bytes));
    json.add_metric("per_walker_bytes", per_walker);
    json.add_metric("write_MBps", fs.write_mbps);
    json.add_metric("read_MBps", fs.read_mbps);
    json.add_metric("snapshot_bytes_recompute", static_cast<double>(ss.payload_bytes));
    json.add_metric("per_walker_bytes_recompute", per_walker_slim);
    json.add_metric("write_MBps_recompute", ss.write_mbps);
    json.add_metric("read_MBps_recompute", ss.read_mbps);
  }

  json.write();
  return 0;
}
