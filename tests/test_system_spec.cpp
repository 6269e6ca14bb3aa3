// Spec-driven system ingestion (qmcxx-spec-v1): every committed
// specs/*.json file round-trips bitwise through serialize/parse and
// builds a complete system; content-hash fingerprinting; and the
// parser's error contract for spec and job files.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "drivers/qmc_system.h"
#include "io/job_spec.h"
#include "io/json.h"
#include "io/snapshot.h"
#include "test_utils.h"
#include "workloads/system_builder.h"
#include "workloads/system_spec.h"

using namespace qmcxx;
using namespace qmcxx::testing;

namespace
{

/// Expect `parse` (parse_system_spec or parse_job_spec) to reject
/// `json` with a message that mentions `needle`.
template<typename Result = SystemSpec>
void expect_parse_fails(const std::string& json, const std::string& needle,
                        Result (*parse)(const std::string&,
                                        const std::string&) = io::parse_system_spec)
{
  try
  {
    (void)parse(json, "test");
    FAIL() << "expected parse failure mentioning '" << needle << "'";
  }
  catch (const std::runtime_error& e)
  {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

/// The tiny spec as spec-file text, with the first occurrence of `from`
/// replaced by `to`.
std::string tiny_spec_with(const std::string& from, const std::string& to)
{
  std::string s = io::serialize_system_spec(tiny_spec());
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

} // namespace

// ---- committed spec files --------------------------------------------

TEST(SystemSpec, CommittedSpecsRoundTripAndBuild)
{
  const std::vector<std::string> paths = committed_spec_paths();
  ASSERT_FALSE(paths.empty());
  for (const std::string& path : paths)
  {
    SCOPED_TRACE(path);
    const SystemSpec spec = io::parse_system_spec(io::read_text_file(path), path);
    const SystemSpec round =
        io::parse_system_spec(io::serialize_system_spec(spec), path + " (round-trip)");
    expect_specs_equal(spec, round);
    const QMCSystem<float> sys = build_system<float>(spec, BuildOptions{});
    EXPECT_EQ(sys.elec->size(), spec.num_electrons);
    EXPECT_EQ(static_cast<std::size_t>(sys.ions->size()), spec.ion_positions.size());
    EXPECT_EQ(sys.twf->num_components(), 4); // J2, J1, 2 determinants
    EXPECT_EQ(sys.ham->num_components(), spec.has_pseudopotential ? 5 : 4);
  }
}

// ---- content-hash fingerprinting --------------------------------------

TEST(SpecFingerprint, ContentHashDistinguishesSameNamedSpecs)
{
  const SystemSpec a = workload_spec(Workload::Graphite);
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
  const SystemSpec spec =
      io::parse_system_spec(io::serialize_system_spec(tiny_spec()), "test-spec");
  EXPECT_EQ(spec.name, "Tiny");
  EXPECT_EQ(spec.num_electrons, 16);
  BuildOptions opt;
  const QMCSystem<double> sys = build_system<double>(spec, opt);
  EXPECT_EQ(sys.elec->size(), 16);
}

TEST(SpecParser, RejectsUnknownKey)
{
  expect_parse_fails(tiny_spec_with("\"delay_rank\"", "\"bogus_knob\""), "unknown key");
  // Precision belongs to the job, not the system.
  expect_parse_fails(tiny_spec_with("\"delay_rank\": 1", "\"precision\": \"single\""),
                     "unknown key 'precision'");
}

TEST(SpecParser, RejectsIntegersOutsideIntRange)
{
  // 2^32 + 16 would wrap to 16 electrons through a plain int cast.
  expect_parse_fails(tiny_spec_with("\"num_electrons\": 16", "\"num_electrons\": 4294967312"),
                     "integer 4294967312 is outside the int range at byte");
  expect_parse_fails(tiny_spec_with("\"knots\": 10", "\"knots\": -2147483649"),
                     "integer -2147483649 is outside the int range");
  expect_parse_fails(tiny_spec_with("\"knots\": 10", "\"knots\": 99999999999999999999"),
                     "integer 99999999999999999999 is outside the int range");
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

TEST(SpecParser, RejectsNonPositiveWidths)
{
  SystemSpec zero_j1 = tiny_spec();
  zero_j1.species[0].j1_width = 0.0;
  expect_parse_fails(io::serialize_system_spec(zero_j1),
                     "species 'X' needs a positive \"j1_width\"");
  SystemSpec negative_nl = tiny_spec();
  negative_nl.species[0].nl_width = -0.5;
  expect_parse_fails(io::serialize_system_spec(negative_nl),
                     "species 'X' needs a positive \"nl_width\"");
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

TEST(JsonWriter, NonFiniteNumbersAreNull)
{
  // RFC 8259 has no token for NaN or infinity: a record must stay JSON.
  EXPECT_EQ(io::json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(io::json_number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(io::json_number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(io::json_number(0.1), "0.10000000000000001");
}

TEST(JsonWriter, GenerationRecordIsByteExact)
{
  // Keys are escaped like values, and a non-finite value becomes null.
  io::JsonWriter w;
  w.begin_object().field("type", "generation").field("job", "job\"1").field("gen", 3);
  w.field("energy", -10.5).field("max_drift_residual", std::numeric_limits<double>::infinity());
  w.field("acceptance", 0.1).field("drift_rows_sampled", std::uint64_t{4});
  w.key("observables").begin_object().field("Kinetic", 1.25).field("say \"hi\"\n", -2.0);
  w.end_object().key("estimators").begin_object().key("gofr").begin_array().value(0.5).value(2.0);
  w.end_array().key("sofk").begin_array().end_array().end_object().end_object();
  EXPECT_EQ(w.str(),
            R"({"type": "generation", "job": "job\"1", "gen": 3, "energy": -10.5, )"
            R"("max_drift_residual": null, "acceptance": 0.10000000000000001, )"
            R"("drift_rows_sampled": 4, "observables": {"Kinetic": 1.25, "say \"hi\"\n": -2}, )"
            R"("estimators": {"gofr": [0.5, 2], "sofk": []}})");
}

TEST(SystemSpec, EscapedNameRoundTripsBitwise)
{
  SystemSpec spec = tiny_spec();
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

TEST(JobSpecParser, RejectsIntegersOutsideIntRange)
{
  expect_parse_fails(R"({ "driver": { "num_walkers": 4294967312 } })",
                     "integer 4294967312 is outside the int range at byte", io::parse_job_spec);
}

TEST(JobSpecParser, WorkloadAndSpecPathAreMutuallyExclusive)
{
  expect_parse_fails(R"({ "workload": "Graphite", "spec_path": "specs/graphite.json" })",
                     "mutually exclusive", io::parse_job_spec);
}
