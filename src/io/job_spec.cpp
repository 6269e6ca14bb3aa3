#include "io/job_spec.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "io/stream_log.h"

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

/// Minimal recursive-descent reader over the fixed job-spec schema.
/// Every key is known and typed, so there is no generic value tree --
/// an unknown key is an error naming it, not a skipped subtree.
class Parser
{
public:
  Parser(const std::string& text, const std::string& job) : s_(text), job_(job) {}

  [[noreturn]] void fail(const std::string& what) const
  {
    throw std::runtime_error("job '" + job_ + "': " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws()
  {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }

  char peek()
  {
    skip_ws();
    if (pos_ >= s_.size())
      fail("unexpected end of input");
    return s_[pos_];
  }

  void expect(char c)
  {
    if (peek() != c)
      fail(std::string("expected '") + c + "', found '" + s_[pos_] + "'");
    ++pos_;
  }

  bool consume_if(char c)
  {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c)
    {
      ++pos_;
      return true;
    }
    return false;
  }

  bool at_end()
  {
    skip_ws();
    return pos_ >= s_.size();
  }

  std::string parse_string()
  {
    expect('"');
    std::string out;
    while (true)
    {
      if (pos_ >= s_.size())
        fail("unterminated string");
      const char c = s_[pos_++];
      if (c == '"')
        return out;
      if (c == '\\')
      {
        if (pos_ >= s_.size())
          fail("unterminated escape");
        const char e = s_[pos_++];
        switch (e)
        {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'u': append_utf8(out, code_point()); break;
        default: fail(std::string("unsupported escape '\\") + e + "'");
        }
      }
      else
      {
        out += c;
      }
    }
  }

  /// The four hex digits of a `\u` escape.
  unsigned hex4()
  {
    unsigned v = 0;
    const char* first = s_.data() + pos_;
    const char* last = first + std::min<std::size_t>(4, s_.size() - pos_);
    const auto [end, ec] = std::from_chars(first, last, v, 16);
    if (ec != std::errc() || end != first + 4)
      fail("\\u escape needs four hex digits");
    pos_ += 4;
    return v;
  }

  /// Code point of a `\u` escape whose `\u` is consumed; a UTF-16
  /// surrogate pair takes the following `\u` escape too.
  unsigned code_point()
  {
    const unsigned hi = hex4();
    if (hi >= 0xDC00 && hi <= 0xDFFF)
      fail("unpaired surrogate in \\u escape");
    if (hi < 0xD800 || hi > 0xDBFF)
      return hi;
    if (s_.compare(pos_, 2, "\\u") != 0)
      fail("unpaired surrogate in \\u escape");
    pos_ += 2;
    const unsigned lo = hex4();
    if (lo < 0xDC00 || lo > 0xDFFF)
      fail("unpaired surrogate in \\u escape");
    return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
  }

  static void append_utf8(std::string& out, unsigned cp)
  {
    static constexpr unsigned lead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(lead[tail] | (cp >> (6 * tail)));
    for (int k = tail - 1; k >= 0; --k)
      out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F));
  }

  bool parse_bool()
  {
    skip_ws();
    if (s_.compare(pos_, 4, "true") == 0)
    {
      pos_ += 4;
      return true;
    }
    if (s_.compare(pos_, 5, "false") == 0)
    {
      pos_ += 5;
      return false;
    }
    fail("expected true or false");
  }

  std::string number_token()
  {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start)
      fail("expected a number");
    return s_.substr(start, pos_ - start);
  }

  double parse_double()
  {
    const std::string tok = number_token();
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(tok.c_str(), &end);
    if (errno != 0 || end != tok.c_str() + tok.size())
      fail("malformed number '" + tok + "'");
    return v;
  }

  int parse_int()
  {
    const std::string tok = number_token();
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(tok.c_str(), &end, 10);
    if (end != tok.c_str() + tok.size())
      fail("expected an integer, got '" + tok + "'");
    if (errno == ERANGE || v < std::numeric_limits<int>::min() ||
        v > std::numeric_limits<int>::max())
      fail("integer " + tok + " is outside the int range");
    return static_cast<int>(v);
  }

  /// Seeds are full 64-bit values; going through double would round
  /// anything above 2^53 and silently fork the RNG streams.
  std::uint64_t parse_u64()
  {
    const std::string tok = number_token();
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (errno != 0 || end != tok.c_str() + tok.size() || tok.find('-') != std::string::npos)
      fail("expected an unsigned 64-bit integer, got '" + tok + "'");
    return v;
  }

private:
  const std::string& s_;
  std::size_t pos_ = 0;
  const std::string& job_;
};

TinyVector<double, 3> parse_triple(Parser& p)
{
  p.expect('[');
  TinyVector<double, 3> v;
  v[0] = p.parse_double();
  p.expect(',');
  v[1] = p.parse_double();
  p.expect(',');
  v[2] = p.parse_double();
  p.expect(']');
  return v;
}

void parse_orbitals_object(Parser& p, SystemSpec& s)
{
  p.expect('{');
  do
  {
    const std::string key = p.parse_string();
    p.expect(':');
    if (key == "kind")
    {
      const std::string kind = p.parse_string();
      if (kind != "bspline-synthetic")
        p.fail("unsupported orbital kind '" + kind + "' (only \"bspline-synthetic\" exists)");
    }
    else if (key == "grid")
    {
      p.expect('[');
      s.grid[0] = p.parse_int();
      p.expect(',');
      s.grid[1] = p.parse_int();
      p.expect(',');
      s.grid[2] = p.parse_int();
      p.expect(']');
    }
    else if (key == "count")
      s.num_orbitals = p.parse_int();
    else
      p.fail("unknown orbitals key '" + key + "'");
  } while (p.consume_if(','));
  p.expect('}');
}

void parse_jastrow_object(Parser& p, SystemSpec& s)
{
  p.expect('{');
  do
  {
    const std::string key = p.parse_string();
    p.expect(':');
    if (key == "knots")
      s.jastrow_knots = p.parse_int();
    else
      p.fail("unknown jastrow key '" + key + "'");
  } while (p.consume_if(','));
  p.expect('}');
}

void parse_species_entry(Parser& p, SystemSpec& s)
{
  IonSpecies sp{};
  int count = 0;
  p.expect('{');
  do
  {
    const std::string key = p.parse_string();
    p.expect(':');
    if (key == "name")
      sp.name = p.parse_string();
    else if (key == "charge")
      sp.charge = p.parse_double();
    else if (key == "count")
      count = p.parse_int();
    else if (key == "j1_depth")
      sp.j1_depth = p.parse_double();
    else if (key == "j1_width")
      sp.j1_width = p.parse_double();
    else if (key == "r_core")
      sp.r_core = p.parse_double();
    else if (key == "nl_amplitude")
      sp.nl_amplitude = p.parse_double();
    else if (key == "nl_width")
      sp.nl_width = p.parse_double();
    else if (key == "nl_rcut")
      sp.nl_rcut = p.parse_double();
    else
      p.fail("unknown species key '" + key + "'");
  } while (p.consume_if(','));
  p.expect('}');
  if (sp.name.empty())
    p.fail("species entry is missing \"name\"");
  if (count < 1)
    p.fail("species '" + sp.name + "' needs a positive \"count\"");
  s.species.push_back(sp);
  s.ion_counts.push_back(count);
}

void parse_driver_object(Parser& p, DriverConfig& d)
{
  p.expect('{');
  if (p.consume_if('}'))
    return;
  do
  {
    const std::string key = p.parse_string();
    p.expect(':');
    if (key == "tau")
      d.tau = p.parse_double();
    else if (key == "num_walkers")
      d.num_walkers = p.parse_int();
    else if (key == "steps")
      d.steps = p.parse_int();
    else if (key == "warmup_steps")
      d.warmup_steps = p.parse_int();
    else if (key == "seed")
      d.seed = p.parse_u64();
    else if (key == "recompute_period")
      d.recompute_period = p.parse_int();
    else if (key == "feedback")
      d.feedback = p.parse_double();
    else if (key == "num_threads")
      d.num_threads = p.parse_int();
    else if (key == "use_drift")
      d.use_drift = p.parse_bool();
    else if (key == "crowd_size")
      d.crowd_size = p.parse_int();
    else if (key == "delay_rank")
      d.delay_rank = p.parse_int();
    else if (key == "checkpoint_every")
      d.checkpoint_every = p.parse_int();
    else if (key == "drift_tolerance")
      d.precision.drift_tolerance = p.parse_double();
    else if (key == "refresh_interval")
      d.precision.refresh_interval = p.parse_int();
    else if (key == "drift_sample_rows")
      d.precision.drift_sample_rows = p.parse_int();
    else
      p.fail("unknown driver key '" + key + "'");
  } while (p.consume_if(','));
  p.expect('}');
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
  JobSpec spec;
  spec.name = job_name;
  Parser p(json_text, job_name);
  bool saw_workload = false;
  p.expect('{');
  if (!p.consume_if('}'))
  {
    do
    {
      const std::string key = p.parse_string();
      p.expect(':');
      if (key == "workload")
      {
        spec.workload = workload_from_name(p.parse_string());
        saw_workload = true;
      }
      else if (key == "spec_path")
        spec.spec_path = p.parse_string();
      else if (key == "variant")
        spec.variant = variant_from_name(p.parse_string());
      else if (key == "precision")
        spec.driver.precision.precision = precision_from_name(p.parse_string());
      else if (key == "dmc")
        spec.dmc = p.parse_bool();
      else if (key == "estimators")
        spec.estimators = p.parse_bool();
      else if (key == "mem_budget_mb")
        spec.mem_budget_mb = p.parse_double();
      else if (key == "driver")
        parse_driver_object(p, spec.driver);
      else
        p.fail("unknown key '" + key + "'");
    } while (p.consume_if(','));
    p.expect('}');
  }
  if (!p.at_end())
    p.fail("trailing characters after the job object");
  if (saw_workload && !spec.spec_path.empty())
    throw std::runtime_error("job '" + job_name +
                             "': \"workload\" and \"spec_path\" are mutually exclusive "
                             "(a spec file fully describes its system)");
  return spec;
}

SystemSpec parse_system_spec(const std::string& json_text, const std::string& origin)
{
  SystemSpec spec;
  Parser p(json_text, origin);
  bool saw_schema = false, saw_lattice = false;
  std::array<TinyVector<double, 3>, 3> rows{};
  p.expect('{');
  if (!p.consume_if('}'))
  {
    do
    {
      const std::string key = p.parse_string();
      p.expect(':');
      if (key == "schema")
      {
        const std::string schema = p.parse_string();
        if (schema != "qmcxx-spec-v1")
          p.fail("unsupported spec schema '" + schema + "' (expected qmcxx-spec-v1)");
        saw_schema = true;
      }
      else if (key == "name")
        spec.name = p.parse_string();
      else if (key == "num_electrons")
        spec.num_electrons = p.parse_int();
      else if (key == "lattice")
      {
        p.expect('[');
        rows[0] = parse_triple(p);
        p.expect(',');
        rows[1] = parse_triple(p);
        p.expect(',');
        rows[2] = parse_triple(p);
        p.expect(']');
        saw_lattice = true;
      }
      else if (key == "orbitals")
        parse_orbitals_object(p, spec);
      else if (key == "jastrow")
        parse_jastrow_object(p, spec);
      else if (key == "delay_rank")
        spec.delay_rank = p.parse_int();
      else if (key == "pseudopotential")
        spec.has_pseudopotential = p.parse_bool();
      else if (key == "species")
      {
        p.expect('[');
        do
          parse_species_entry(p, spec);
        while (p.consume_if(','));
        p.expect(']');
      }
      else if (key == "ion_positions")
      {
        p.expect('[');
        do
          spec.ion_positions.push_back(parse_triple(p));
        while (p.consume_if(','));
        p.expect(']');
      }
      else
        p.fail("unknown key '" + key + "'");
    } while (p.consume_if(','));
    p.expect('}');
  }
  if (!p.at_end())
    p.fail("trailing characters after the spec object");

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

namespace
{

std::string triple_json(const TinyVector<double, 3>& v)
{
  std::string out = "[";
  out += json_number(v[0]);
  out += ", ";
  out += json_number(v[1]);
  out += ", ";
  out += json_number(v[2]);
  out += "]";
  return out;
}

} // namespace

std::string serialize_system_spec(const SystemSpec& spec)
{
  std::ostringstream os;
  os << "{\n";
  os << "  \"schema\": \"qmcxx-spec-v1\",\n";
  os << "  \"name\": \"" << json_escape(spec.name) << "\",\n";
  os << "  \"num_electrons\": " << spec.num_electrons << ",\n";
  os << "  \"lattice\": [\n";
  for (unsigned r = 0; r < 3; ++r)
    os << "    " << triple_json(spec.lattice.rows()[r]) << (r < 2 ? "," : "") << "\n";
  os << "  ],\n";
  os << "  \"orbitals\": { \"kind\": \"bspline-synthetic\", \"grid\": [" << spec.grid[0]
     << ", " << spec.grid[1] << ", " << spec.grid[2] << "], \"count\": " << spec.num_orbitals
     << " },\n";
  os << "  \"jastrow\": { \"knots\": " << spec.jastrow_knots << " },\n";
  os << "  \"delay_rank\": " << spec.delay_rank << ",\n";
  os << "  \"pseudopotential\": " << (spec.has_pseudopotential ? "true" : "false") << ",\n";
  os << "  \"species\": [\n";
  for (std::size_t s = 0; s < spec.species.size(); ++s)
  {
    const IonSpecies& sp = spec.species[s];
    os << "    { \"name\": \"" << json_escape(sp.name) << "\", \"charge\": "
       << json_number(sp.charge) << ", \"count\": " << spec.ion_counts[s]
       << ",\n      \"j1_depth\": " << json_number(sp.j1_depth) << ", \"j1_width\": "
       << json_number(sp.j1_width) << ", \"r_core\": " << json_number(sp.r_core)
       << ",\n      \"nl_amplitude\": " << json_number(sp.nl_amplitude) << ", \"nl_width\": "
       << json_number(sp.nl_width) << ", \"nl_rcut\": " << json_number(sp.nl_rcut) << " }"
       << (s + 1 < spec.species.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"ion_positions\": [\n";
  for (std::size_t i = 0; i < spec.ion_positions.size(); ++i)
    os << "    " << triple_json(spec.ion_positions[i])
       << (i + 1 < spec.ion_positions.size() ? "," : "") << "\n";
  os << "  ]\n}\n";
  return os.str();
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
