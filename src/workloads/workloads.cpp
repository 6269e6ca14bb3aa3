#include "workloads/workloads.h"

#include "io/job_spec.h"

namespace qmcxx
{

std::string workload_spec_path(Workload w)
{
  return std::string(QMCXX_SPECS_DIR) + "/" + paper_workload(w).spec_file;
}

SystemSpec workload_spec(Workload w)
{
  const std::string path = workload_spec_path(w);
  return io::parse_system_spec(io::read_text_file(path), path);
}

} // namespace qmcxx
