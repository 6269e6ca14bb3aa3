// Spec-driven workload ingestion (qmcxx-spec-v1): lossless enum ->
// SystemSpec conversion, bitwise serialize/parse round-trips, the
// committed specs/ files reproducing the enum-built systems exactly
// (including full VMC/DMC chains through the engine), content-hash
// fingerprinting, and the parser's error contract.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "drivers/qmc_system.h"
#include "io/job_spec.h"
#include "io/snapshot.h"
#include "io/stream_log.h"
#include "workloads/system_builder.h"
#include "workloads/system_spec.h"

using namespace qmcxx;

namespace
{

std::string specs_dir()
{
  return QMCXX_SPECS_DIR;
}

const std::map<Workload, std::string>& committed_spec_files()
{
  static const std::map<Workload, std::string> files = {
      {Workload::Graphite, "graphite.json"},
      {Workload::Be64, "be64.json"},
      {Workload::NiO32, "nio32.json"},
      {Workload::NiO64, "nio64.json"},
  };
  return files;
}

/// A minimal but complete spec text for parser tests (matches the
/// serializer's shape; contents are physically sensible, just tiny).
std::string tiny_spec_json()
{
  return R"({
  "schema": "qmcxx-spec-v1",
  "name": "Tiny",
  "num_electrons": 16,
  "lattice": [ [7, 0, 0], [0, 7, 0], [0, 0, 7] ],
  "orbitals": { "kind": "bspline-synthetic", "grid": [10, 10, 10], "count": 8 },
  "jastrow": { "knots": 10 },
  "delay_rank": 1,
  "pseudopotential": true,
  "species": [
    { "name": "X", "charge": 4, "count": 4,
      "j1_depth": -0.4, "j1_width": 1.1, "r_core": 0.6,
      "nl_amplitude": 0.8, "nl_width": 0.9, "nl_rcut": 1.6 }
  ],
  "ion_positions": [
    [1.75, 1.75, 1.75], [5.25, 5.25, 1.75], [5.25, 1.75, 5.25], [1.75, 5.25, 5.25]
  ]
})";
}

void expect_parse_fails(const std::string& json, const std::string& needle)
{
  try
  {
    (void)io::parse_system_spec(json, "test-spec");
    FAIL() << "expected parse failure mentioning '" << needle << "'";
  }
  catch (const std::runtime_error& e)
  {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

/// Replace the first occurrence of `from` in the tiny spec.
std::string tiny_spec_with(const std::string& from, const std::string& to)
{
  std::string s = tiny_spec_json();
  const std::size_t at = s.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  s.replace(at, from.size(), to);
  return s;
}

void expect_specs_equal(const SystemSpec& a, const SystemSpec& b)
{
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.num_electrons, b.num_electrons);
  EXPECT_EQ(a.ion_positions.size(), b.ion_positions.size());
  EXPECT_TRUE(a == b);
  EXPECT_EQ(spec_content_hash(a), spec_content_hash(b));
}

void expect_chains_identical(const RunResult& a, const RunResult& b)
{
  ASSERT_EQ(a.generations.size(), b.generations.size());
  for (std::size_t g = 0; g < a.generations.size(); ++g)
  {
    const GenerationStats& x = a.generations[g];
    const GenerationStats& y = b.generations[g];
    EXPECT_EQ(x.energy, y.energy) << "generation " << g;
    EXPECT_EQ(x.variance, y.variance) << "generation " << g;
    EXPECT_EQ(x.weight, y.weight) << "generation " << g;
    EXPECT_EQ(x.num_walkers, y.num_walkers) << "generation " << g;
    EXPECT_EQ(x.acceptance, y.acceptance) << "generation " << g;
    EXPECT_EQ(x.trial_energy, y.trial_energy) << "generation " << g;
    EXPECT_EQ(x.component_energies, y.component_energies) << "generation " << g;
  }
  EXPECT_EQ(a.mean_energy, b.mean_energy);
}

} // namespace

// ---- lossless conversion + round-trips --------------------------------

TEST(SystemSpec, EnumConversionRoundTripsBitwise)
{
  for (Workload w : all_workloads)
  {
    const SystemSpec spec = to_spec(workload_info(w));
    const SystemSpec round =
        io::parse_system_spec(io::serialize_system_spec(spec), spec.name + " (round-trip)");
    expect_specs_equal(spec, round);
  }
}

TEST(SystemSpec, CommittedSpecsMatchEnumTableBitwise)
{
  for (const auto& [w, file] : committed_spec_files())
  {
    const std::string path = specs_dir() + "/" + file;
    const SystemSpec from_file = io::parse_system_spec(io::read_text_file(path), path);
    const SystemSpec from_enum = to_spec(workload_info(w));
    expect_specs_equal(from_enum, from_file);
  }
}

TEST(SystemSpec, SpecOnlySystemsParseAndBuild)
{
  for (const std::string& file : {std::string("graphite-32.json"), std::string("nio-48.json")})
  {
    const std::string path = specs_dir() + "/" + file;
    const SystemSpec spec = io::parse_system_spec(io::read_text_file(path), path);
    BuildOptions opt;
    opt.with_hamiltonian = false;
    const QMCSystem<float> sys = build_system<float>(spec, opt);
    EXPECT_EQ(sys.elec->size(), spec.num_electrons) << file;
  }
}

// ---- engine parity: spec_path vs enum path ----------------------------

namespace
{

void check_chain_parity(Workload w, const std::string& file, bool dmc, int steps, int walkers)
{
  DriverConfig cfg;
  cfg.tau = 0.02;
  cfg.steps = steps;
  cfg.num_walkers = walkers;
  cfg.seed = 4242;
  cfg.num_threads = 1;
  cfg.crowd_size = 4;

  EngineRunSpec enum_spec;
  enum_spec.workload = w;
  enum_spec.variant = EngineVariant::Current;
  enum_spec.dmc = dmc;
  enum_spec.driver = cfg;

  EngineRunSpec file_spec = enum_spec;
  file_spec.spec_path = specs_dir() + "/" + file;

  const EngineReport from_enum = run_engine(enum_spec);
  const EngineReport from_file = run_engine(file_spec);
  expect_chains_identical(from_enum.result, from_file.result);
}

} // namespace

TEST(SpecEngineParity, GraphiteVmcAndDmc)
{
  check_chain_parity(Workload::Graphite, "graphite.json", false, 3, 3);
  check_chain_parity(Workload::Graphite, "graphite.json", true, 3, 3);
}

TEST(SpecEngineParity, Be64VmcAndDmc)
{
  check_chain_parity(Workload::Be64, "be64.json", false, 3, 3);
  check_chain_parity(Workload::Be64, "be64.json", true, 3, 3);
}

TEST(SpecEngineParity, NiO32VmcAndDmc)
{
  check_chain_parity(Workload::NiO32, "nio32.json", false, 2, 3);
  check_chain_parity(Workload::NiO32, "nio32.json", true, 2, 3);
}

TEST(SpecEngineParity, NiO64VmcAndDmc)
{
  check_chain_parity(Workload::NiO64, "nio64.json", false, 2, 2);
  check_chain_parity(Workload::NiO64, "nio64.json", true, 2, 2);
}

// ---- content-hash fingerprinting --------------------------------------

TEST(SpecFingerprint, ContentHashDistinguishesSameNamedSpecs)
{
  const SystemSpec a = to_spec(workload_info(Workload::Graphite));
  SystemSpec b = a; // same name, perturbed contents
  b.ion_positions[0][2] += 0.25;
  EXPECT_NE(spec_content_hash(a), spec_content_hash(b));

  const std::uint64_t fa =
      io::workload_fingerprint(a.name, "Current", 1, spec_content_hash(a));
  const std::uint64_t fb =
      io::workload_fingerprint(b.name, "Current", 1, spec_content_hash(b));
  EXPECT_NE(fa, fb);
}

TEST(SpecFingerprint, ZeroHashPreservesHistoricalFingerprints)
{
  // The 3-arg form (pre-spec snapshots) and an explicit zero hash must
  // agree, so old checkpoints stay restorable.
  EXPECT_EQ(io::workload_fingerprint("Graphite", "Current", 1),
            io::workload_fingerprint("Graphite", "Current", 1, 0));
}

// ---- parser error contract --------------------------------------------

TEST(SpecParser, TinySpecParsesAndBuilds)
{
  const SystemSpec spec = io::parse_system_spec(tiny_spec_json(), "test-spec");
  EXPECT_EQ(spec.name, "Tiny");
  EXPECT_EQ(spec.num_electrons, 16);
  BuildOptions opt;
  const QMCSystem<double> sys = build_system<double>(spec, opt);
  EXPECT_EQ(sys.elec->size(), 16);
}

TEST(SpecParser, RejectsUnknownKey)
{
  expect_parse_fails(tiny_spec_with("\"delay_rank\"", "\"bogus_knob\""), "unknown key");
}

TEST(SpecParser, RejectsWrongSchema)
{
  expect_parse_fails(tiny_spec_with("qmcxx-spec-v1", "qmcxx-spec-v999"),
                     "unsupported spec schema");
}

TEST(SpecParser, RejectsMissingSchema)
{
  expect_parse_fails(tiny_spec_with("\"schema\": \"qmcxx-spec-v1\",", ""), "missing \"schema\"");
}

TEST(SpecParser, RejectsIonCountMismatch)
{
  expect_parse_fails(tiny_spec_with("\"count\": 4", "\"count\": 5"), "ions");
}

TEST(SpecParser, RejectsUndersizedGrid)
{
  expect_parse_fails(tiny_spec_with("\"grid\": [10, 10, 10]", "\"grid\": [3, 10, 10]"),
                     "grid dimensions");
}

// ---- string escaping ---------------------------------------------------

TEST(JsonEscape, QuotesBackslashesAndControlBytes)
{
  EXPECT_EQ(io::json_escape("\""), "\\\"");
  EXPECT_EQ(io::json_escape("\\"), "\\\\");
  EXPECT_EQ(io::json_escape("\n"), "\\n");
  EXPECT_EQ(io::json_escape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(io::json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(io::json_escape("graphite-32 \xc3\xa9"), "graphite-32 \xc3\xa9");
}

TEST(SystemSpec, EscapedNameRoundTripsBitwise)
{
  SystemSpec spec = io::parse_system_spec(tiny_spec_json(), "test-spec");
  spec.name = std::string("say \"hi\" \\ two\nlines ") + '\x01' + " end";
  const SystemSpec round =
      io::parse_system_spec(io::serialize_system_spec(spec), "escaped-name round-trip");
  expect_specs_equal(spec, round);
}

TEST(SpecParser, DecodesShortAndUnicodeEscapes)
{
  const SystemSpec spec = io::parse_system_spec(
      tiny_spec_with("\"name\": \"Tiny\"", R"("name": "T\u0069ny \u00e9 \ud83d\ude00 \b\f")"),
      "test-spec");
  EXPECT_EQ(spec.name, "Tiny \xc3\xa9 \xf0\x9f\x98\x80 \b\f");
  expect_parse_fails(tiny_spec_with("\"name\": \"Tiny\"", R"("name": "\ud83d!")"),
                     "unpaired surrogate");
  expect_parse_fails(tiny_spec_with("\"name\": \"Tiny\"", R"("name": "\u00zz")"),
                     "four hex digits");
}

TEST(JobSpecParser, AcceptsSpecPathAndEstimators)
{
  const io::JobSpec job = io::parse_job_spec(
      R"({ "spec_path": "specs/graphite.json", "estimators": true,
           "variant": "current", "dmc": true, "driver": { "steps": 2 } })",
      "test-job");
  EXPECT_EQ(job.spec_path, "specs/graphite.json");
  EXPECT_TRUE(job.estimators);
  EXPECT_TRUE(job.dmc);
  EXPECT_EQ(job.driver.steps, 2);
}

TEST(JobSpecParser, WorkloadAndSpecPathAreMutuallyExclusive)
{
  try
  {
    (void)io::parse_job_spec(
        R"({ "workload": "Graphite", "spec_path": "specs/graphite.json" })", "test-job");
    FAIL() << "expected mutual-exclusion failure";
  }
  catch (const std::runtime_error& e)
  {
    EXPECT_NE(std::string(e.what()).find("mutually exclusive"), std::string::npos)
        << "actual message: " << e.what();
  }
}
