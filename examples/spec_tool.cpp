// spec_tool: validator / describer for qmcxx-spec-v1 system files.
//
//   ./spec_tool --validate FILE...  parse + build each spec, fail loudly
//   ./spec_tool --describe FILE...  parse + print each spec's summary
//
// The committed specs/*.json files are the source of truth for every
// system qmcxx runs, the paper's four workloads included: edit a file,
// then run --validate on it (specs/README.md).
//
// --validate is the CI gate for committed specs: each file must parse,
// round-trip bitwise through serialize/parse, and build a complete
// system (SPO set, trial wavefunction, Hamiltonian).
//
// --describe parses only (no build) and prints what the engine would
// resolve from the file: sizes, species, delay rank and content hash.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "io/job_spec.h"
#include "workloads/system_builder.h"
#include "workloads/system_spec.h"

using namespace qmcxx;

namespace
{

int validate_specs(const std::vector<std::string>& paths)
{
  int failures = 0;
  for (const std::string& path : paths)
  {
    try
    {
      const SystemSpec spec = io::parse_system_spec(io::read_text_file(path), path);
      const SystemSpec round =
          io::parse_system_spec(io::serialize_system_spec(spec), path + " (round-trip)");
      if (round != spec)
        throw std::runtime_error("serialize/parse round-trip is not bitwise-exact");
      // Full build in the Current engine precision: a committed spec
      // must produce a complete runnable system, not just parse.
      BuildOptions opt;
      const QMCSystem<float> sys = build_system<float>(spec, opt);
      std::printf("spec_tool: %s OK (%s, %d electrons, %d ions, %d components, hash %llu)\n",
                  path.c_str(), spec.name.c_str(), spec.num_electrons, sys.ions->size(),
                  sys.ham->num_components(),
                  static_cast<unsigned long long>(spec_content_hash(spec)));
    }
    catch (const std::exception& e)
    {
      std::fprintf(stderr, "spec_tool: %s FAILED: %s\n", path.c_str(), e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int describe_specs(const std::vector<std::string>& paths)
{
  int failures = 0;
  for (const std::string& path : paths)
  {
    try
    {
      const SystemSpec spec = io::parse_system_spec(io::read_text_file(path), path);
      std::printf("%s:\n", path.c_str());
      std::printf("  name            %s\n", spec.name.c_str());
      std::printf("  electrons       %d (%d orbitals)\n", spec.num_electrons,
                  spec.num_orbitals);
      std::printf("  grid            %d x %d x %d\n", spec.grid[0], spec.grid[1],
                  spec.grid[2]);
      std::printf("  species         %zu kinds, %zu ions%s\n", spec.species.size(),
                  spec.ion_positions.size(),
                  spec.has_pseudopotential ? " (pseudopotential)" : "");
      std::printf("  delay_rank      %d\n", spec.delay_rank);
      std::printf("  content hash    %llu\n",
                  static_cast<unsigned long long>(spec_content_hash(spec)));
    }
    catch (const std::exception& e)
    {
      std::fprintf(stderr, "spec_tool: %s FAILED: %s\n", path.c_str(), e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv)
{
  if (argc >= 3 && !std::strcmp(argv[1], "--validate"))
    return validate_specs(std::vector<std::string>(argv + 2, argv + argc));
  if (argc >= 3 && !std::strcmp(argv[1], "--describe"))
    return describe_specs(std::vector<std::string>(argv + 2, argv + argc));
  std::fprintf(stderr,
               "usage: spec_tool --validate FILE...\n"
               "       spec_tool --describe FILE...\n");
  return 1;
}
