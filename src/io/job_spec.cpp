#include "io/job_spec.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "io/json.h"

namespace qmcxx::io
{

namespace
{

std::string lower(std::string s)
{
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

/// A JSON array of exactly three values, each read by `read`.
template<typename V, typename Read>
V read_three(JsonReader& r, Read read)
{
  V v{};
  const std::size_t n = r.array([&](std::size_t k) {
    if (k == 3)
      r.fail("expected an array of three values");
    v[k] = read();
  });
  if (n != 3)
    r.fail("expected an array of three values");
  return v;
}

TinyVector<double, 3> read_position(JsonReader& r)
{
  return read_three<TinyVector<double, 3>>(r, [&r] { return r.number(); });
}

void read_orbitals(JsonReader& r, SystemSpec& s)
{
  r.object([&](const std::string& key) {
    if (key == "kind")
    {
      const std::string kind = r.string();
      if (kind != "bspline-synthetic")
        r.fail("unsupported orbital kind '" + kind + "' (only \"bspline-synthetic\" exists)");
    }
    else if (key == "grid")
      s.grid = read_three<std::array<int, 3>>(r, [&r] { return r.integer(); });
    else if (key == "count")
      s.num_orbitals = r.integer();
    else
      r.fail("unknown orbitals key '" + key + "'");
  });
}

void read_species_entry(JsonReader& r, SystemSpec& s)
{
  IonSpecies sp{};
  int count = 0;
  r.object([&](const std::string& key) {
    if (key == "name")
      sp.name = r.string();
    else if (key == "charge")
      sp.charge = r.number();
    else if (key == "count")
      count = r.integer();
    else if (key == "j1_depth")
      sp.j1_depth = r.number();
    else if (key == "j1_width")
      sp.j1_width = r.number();
    else if (key == "r_core")
      sp.r_core = r.number();
    else if (key == "nl_amplitude")
      sp.nl_amplitude = r.number();
    else if (key == "nl_width")
      sp.nl_width = r.number();
    else if (key == "nl_rcut")
      sp.nl_rcut = r.number();
    else
      r.fail("unknown species key '" + key + "'");
  });
  if (sp.name.empty())
    r.fail("species entry is missing \"name\"");
  if (count < 1)
    r.fail("species '" + sp.name + "' needs a positive \"count\"");
  // Zero widths make the Gaussian J1 and NLPP shapes 0/0 at r = 0.
  if (!(sp.j1_width > 0.0))
    r.fail("species '" + sp.name + "' needs a positive \"j1_width\"");
  if (!(sp.nl_width > 0.0))
    r.fail("species '" + sp.name + "' needs a positive \"nl_width\"");
  s.species.push_back(sp);
  s.ion_counts.push_back(count);
}

void read_driver(JsonReader& r, DriverConfig& d)
{
  r.object([&](const std::string& key) {
    if (key == "tau")
      d.tau = r.number();
    else if (key == "num_walkers")
      d.num_walkers = r.integer();
    else if (key == "steps")
      d.steps = r.integer();
    else if (key == "warmup_steps")
      d.warmup_steps = r.integer();
    else if (key == "seed")
      d.seed = r.uint64();
    else if (key == "recompute_period")
      d.recompute_period = r.integer();
    else if (key == "feedback")
      d.feedback = r.number();
    else if (key == "num_threads")
      d.num_threads = r.integer();
    else if (key == "use_drift")
      d.use_drift = r.boolean();
    else if (key == "crowd_size")
      d.crowd_size = r.integer();
    else if (key == "delay_rank")
      d.delay_rank = r.integer();
    else if (key == "checkpoint_every")
      d.checkpoint_every = r.integer();
    else if (key == "drift_tolerance")
      d.precision.drift_tolerance = r.number();
    else if (key == "refresh_interval")
      d.precision.refresh_interval = r.integer();
    else if (key == "drift_sample_rows")
      d.precision.drift_sample_rows = r.integer();
    else
      r.fail("unknown driver key '" + key + "'");
  });
}

} // namespace

Workload workload_from_name(const std::string& s)
{
  const std::string n = lower(s);
  std::string known;
  for (const PaperWorkload& w : paper_workloads)
  {
    const std::string stem = std::filesystem::path(w.spec_file).stem().string();
    if (n == lower(stem))
      return w.id;
    const std::string name = workload_spec(w.id).name;
    if (n == lower(name))
      return w.id;
    known += (known.empty() ? "" : ", ") + name + " or " + stem;
  }
  throw std::runtime_error("unknown workload '" + s + "' (expected " + known + ")");
}

EngineVariant variant_from_name(const std::string& s)
{
  const std::string n = lower(s);
  if (n == "ref")
    return EngineVariant::Ref;
  if (n == "refmp" || n == "ref+mp")
    return EngineVariant::RefMP;
  if (n == "current")
    return EngineVariant::Current;
  if (n == "currentdp" || n == "current(dp)")
    return EngineVariant::CurrentDP;
  throw std::runtime_error("unknown engine variant '" + s +
                           "' (expected ref, refmp, current or currentdp)");
}

Precision precision_from_name(const std::string& s)
{
  const std::string n = lower(s);
  if (n == "single")
    return Precision::Single;
  if (n == "double")
    return Precision::Double;
  throw std::runtime_error("unknown precision '" + s + "' (expected single or double)");
}

JobSpec parse_job_spec(const std::string& json_text, const std::string& job_name)
{
  JobSpec job;
  job.name = job_name;
  job.workload = Workload::Graphite;
  job.dmc = false;
  JsonReader r(json_text, "job", job_name);
  bool saw_workload = false;
  r.object([&](const std::string& key) {
    if (key == "workload")
    {
      job.workload = workload_from_name(r.string());
      saw_workload = true;
    }
    else if (key == "spec_path")
      job.spec_path = r.string();
    else if (key == "variant")
      job.variant = variant_from_name(r.string());
    else if (key == "precision")
      job.driver.precision.precision = precision_from_name(r.string());
    else if (key == "dmc")
      job.dmc = r.boolean();
    else if (key == "estimators")
      job.estimators = r.boolean();
    else if (key == "mem_budget_mb")
      job.mem_budget_mb = r.number();
    else if (key == "driver")
      read_driver(r, job.driver);
    else
      r.fail("unknown key '" + key + "'");
  });
  if (!r.at_end())
    r.fail("trailing characters after the job object");
  if (saw_workload && !job.spec_path.empty())
    throw std::runtime_error("job '" + job_name +
                             "': \"workload\" and \"spec_path\" are mutually exclusive "
                             "(a spec file fully describes its system)");
  return job;
}

SystemSpec parse_system_spec(const std::string& json_text, const std::string& origin)
{
  SystemSpec spec;
  JsonReader r(json_text, "spec", origin);
  bool saw_schema = false, saw_lattice = false;
  std::array<TinyVector<double, 3>, 3> rows{};
  r.object([&](const std::string& key) {
    if (key == "schema")
    {
      const std::string schema = r.string();
      if (schema != "qmcxx-spec-v1")
        r.fail("unsupported spec schema '" + schema + "' (expected qmcxx-spec-v1)");
      saw_schema = true;
    }
    else if (key == "name")
      spec.name = r.string();
    else if (key == "num_electrons")
      spec.num_electrons = r.integer();
    else if (key == "lattice")
    {
      rows = read_three<std::array<TinyVector<double, 3>, 3>>(r, [&r] { return read_position(r); });
      saw_lattice = true;
    }
    else if (key == "orbitals")
      read_orbitals(r, spec);
    else if (key == "jastrow")
      r.object([&](const std::string& k) {
        if (k == "knots")
          spec.jastrow_knots = r.integer();
        else
          r.fail("unknown jastrow key '" + k + "'");
      });
    else if (key == "delay_rank")
      spec.delay_rank = r.integer();
    else if (key == "pseudopotential")
      spec.has_pseudopotential = r.boolean();
    else if (key == "species")
      r.array([&](std::size_t) { read_species_entry(r, spec); });
    else if (key == "ion_positions")
      r.array([&](std::size_t) { spec.ion_positions.push_back(read_position(r)); });
    else
      r.fail("unknown key '" + key + "'");
  });
  if (!r.at_end())
    r.fail("trailing characters after the spec object");

  const auto bad = [&origin](const std::string& what) {
    throw std::runtime_error("spec '" + origin + "': " + what);
  };
  if (!saw_schema)
    bad("missing \"schema\": \"qmcxx-spec-v1\"");
  if (spec.name.empty())
    bad("missing \"name\"");
  if (!saw_lattice)
    bad("missing \"lattice\"");
  if (spec.num_electrons < 2)
    bad("num_electrons must be >= 2 (two spin determinants)");
  for (const int g : spec.grid)
    if (g < 4)
      bad("orbital grid dimensions must be >= 4 (cubic B-spline support)");
  if (spec.num_orbitals < (spec.num_electrons + 1) / 2)
    bad("orbital count " + std::to_string(spec.num_orbitals) +
        " cannot fill the larger spin determinant of " +
        std::to_string(spec.num_electrons) + " electrons");
  if (spec.jastrow_knots < 2)
    bad("jastrow knots must be >= 2");
  if (spec.delay_rank < 1)
    bad("delay_rank must be >= 1 (1 = rank-1 Sherman-Morrison)");
  if (spec.species.empty())
    bad("at least one ion species is required");
  const int nion = std::accumulate(spec.ion_counts.begin(), spec.ion_counts.end(), 0);
  if (nion != static_cast<int>(spec.ion_positions.size()))
    bad("species counts sum to " + std::to_string(nion) + " ions but " +
        std::to_string(spec.ion_positions.size()) + " ion_positions are given");
  spec.lattice = Lattice(rows);
  return spec;
}

std::string serialize_system_spec(const SystemSpec& spec)
{
  JsonWriter w;
  const auto three = [&w](const auto& v) {
    w.begin_array().value(v[0]).value(v[1]).value(v[2]).end_array();
  };
  w.begin_object()
      .field("schema", "qmcxx-spec-v1")
      .field("name", spec.name)
      .field("num_electrons", spec.num_electrons)
      .key("lattice")
      .begin_array();
  for (const TinyVector<double, 3>& row : spec.lattice.rows())
    three(row);
  w.end_array().key("orbitals").begin_object().field("kind", "bspline-synthetic").key("grid");
  three(spec.grid);
  w.field("count", spec.num_orbitals)
      .end_object()
      .key("jastrow")
      .begin_object()
      .field("knots", spec.jastrow_knots)
      .end_object()
      .field("delay_rank", spec.delay_rank)
      .field("pseudopotential", spec.has_pseudopotential)
      .key("species")
      .begin_array();
  for (std::size_t s = 0; s < spec.species.size(); ++s)
  {
    const IonSpecies& sp = spec.species[s];
    w.begin_object()
        .field("name", sp.name)
        .field("charge", sp.charge)
        .field("count", spec.ion_counts[s])
        .field("j1_depth", sp.j1_depth)
        .field("j1_width", sp.j1_width)
        .field("r_core", sp.r_core)
        .field("nl_amplitude", sp.nl_amplitude)
        .field("nl_width", sp.nl_width)
        .field("nl_rcut", sp.nl_rcut)
        .end_object();
  }
  w.end_array().key("ion_positions").begin_array();
  for (const TinyVector<double, 3>& p : spec.ion_positions)
    three(p);
  w.end_array().end_object();
  return w.str() + "\n";
}

std::vector<std::string> list_json_files(const std::string& dir)
{
  namespace fs = std::filesystem;
  std::vector<std::string> jobs;
  for (const auto& entry : fs::directory_iterator(dir))
  {
    if (entry.is_regular_file() && entry.path().extension() == ".json")
      jobs.push_back(entry.path().string());
  }
  std::sort(jobs.begin(), jobs.end());
  return jobs;
}

std::string read_text_file(const std::string& path)
{
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_text_file(const std::string& path, const std::string& text)
{
  namespace fs = std::filesystem;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw std::runtime_error("cannot write '" + tmp + "'");
    out << text;
    out.flush();
    if (!out)
      throw std::runtime_error("short write to '" + tmp + "'");
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec)
    throw std::runtime_error("cannot rename '" + tmp + "' to '" + path +
                             "': " + ec.message());
}

} // namespace qmcxx::io
