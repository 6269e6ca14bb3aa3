// qmc_server: a long-running QMC job service over the engine runner.
//
//   ./qmc_server --spool DIR [--once] [--threads N] [--poll-ms M]
//   ./qmc_server --stdin   [--threads N]
//
// Jobs are JSON objects (src/io/job_spec.h): workload (or a spec_path
// to a qmcxx-spec-v1 system file) + engine variant + DriverConfig
// knobs; "estimators": true additionally streams named observables
// (per-component energies, g(r)/S(k) bins) in each generation record.
// Spool mode scans DIR for *.json requests in sorted order and drives
// each through ParallelCrowdRunner; stdin mode reads one job per line
// and streams records to stdout.
//
// Spool lifecycle for job X.json:
//   X.json          pending request
//   X.json.stream   per-generation observables + completion record (JSONL)
//   X.json.snap     qmcxx-snap-v1 checkpoint (periodic and on interrupt);
//                   auto-resumed when the server next picks the job up
//   X.json.done     request, completed (streamed records stay in .stream)
//   X.json.rejected unparseable / incompatible request
//   X.json.failed   request that threw mid-run
//
// SIGINT/SIGTERM set a cooperative stop flag: the running job
// checkpoints at its next generation barrier, stays pending for the
// next server start, and the process exits with code 3. A job that
// starts cuts its .stream back to the generations its snapshot holds
// (none without one), so records streamed after the last checkpoint
// of a killed server are not repeated. Because resumed chains are
// bitwise-exact, the streamed "generation" records of an
// interrupted-then-resumed job are identical to an uninterrupted run's
// (tools/ci/server_smoke.sh holds this as a regression test, for a
// SIGTERM and for a SIGKILL).
//
// --threads N caps each job's crowd-execution threads (a per-job
// budget; jobs asking for more, or for the hardware default 0, are
// clamped). A job's "mem_budget_mb" is checked against the tracked
// allocation peak after the run and reported in the completion record.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "drivers/qmc_system.h"
#include "instrument/stopwatch.h"
#include "io/job_spec.h"
#include "io/json.h"
#include "io/snapshot.h"

using namespace qmcxx;

namespace
{

std::atomic<bool> g_stop{false};

void on_signal(int)
{
  g_stop.store(true);
}

struct ServerOptions
{
  std::string spool;
  bool use_stdin = false;
  bool once = false;
  int thread_budget = 0; ///< 0 = no cap
  int poll_ms = 200;
};

/// Clamp a job's thread request into the server's per-job budget.
int clamp_threads(int requested, int budget)
{
  if (budget <= 0)
    return requested;
  if (requested <= 0 || requested > budget)
    return budget;
  return requested;
}

std::string job_stem(const std::string& path)
{
  return std::filesystem::path(path).stem().string();
}

std::string generation_record(const std::string& job, int gen, const GenerationStats& s)
{
  // Only chain-deterministic fields: these lines must compare equal
  // between an interrupted-then-resumed run and an uninterrupted one.
  // The named observables qualify -- component energies and estimator
  // bins reduce in fixed walker order and never perturb the chain --
  // so extending this record stays a versioned additive change.
  io::JsonWriter w;
  w.begin_object()
      .field("type", "generation")
      .field("job", job)
      .field("gen", gen)
      .field("energy", s.energy)
      .field("variance", s.variance)
      .field("weight", s.weight)
      .field("num_walkers", s.num_walkers)
      .field("acceptance", s.acceptance)
      .field("trial_energy", s.trial_energy)
      // Drift-guard telemetry (Sec. 7.2): sampled rows derive purely
      // from the generation counter and walker buffers round-trip the
      // inverse bitwise, so these reduce identically across resume.
      .field("max_drift_residual", s.max_drift_residual)
      .field("drift_rows_sampled", s.drift_rows_sampled)
      .field("drift_refreshes", s.drift_refreshes);
  if (s.labels != nullptr && s.component_energies.size() == s.labels->components.size())
  {
    w.key("observables").begin_object();
    for (std::size_t c = 0; c < s.labels->components.size(); ++c)
      w.field(s.labels->components[c], s.component_energies[c]);
    w.end_object();
  }
  if (s.labels != nullptr && !s.labels->estimators.empty() && !s.estimator_bins.empty())
  {
    w.key("estimators").begin_object();
    std::size_t offset = 0;
    for (std::size_t e = 0; e < s.labels->estimators.size(); ++e)
    {
      w.key(s.labels->estimators[e]).begin_array();
      const std::size_t nb = static_cast<std::size_t>(s.labels->estimator_bins[e]);
      for (std::size_t b = 0; b < nb; ++b)
        w.value(s.estimator_bins[offset + b]);
      w.end_array();
      offset += nb;
    }
    w.end_object();
  }
  return w.end_object().str();
}

std::string completion_record(const std::string& job, const EngineReport& rep,
                              double budget_mb)
{
  const double peak_mb = static_cast<double>(rep.peak_bytes) / (1024.0 * 1024.0);
  return io::JsonWriter()
      .begin_object()
      .field("type", "job-complete")
      .field("job", job)
      .field("generations", rep.result.generations.size())
      .field("start_generation", rep.result.start_generation)
      .field("mean_energy", rep.result.mean_energy)
      .field("seconds", rep.result.seconds)
      .field("throughput", rep.result.throughput)
      .field("walker_bytes", rep.walker_bytes)
      .field("peak_bytes", rep.peak_bytes)
      .field("mem_budget_mb", budget_mb)
      .field("mem_budget_exceeded", budget_mb > 0.0 && peak_mb > budget_mb)
      .end_object()
      .str();
}

/// Cut a job's stream to its first `generations` lines. QMCDriver
/// streams generation g before it checkpoints at g + 1, so a SIGKILL
/// between checkpoints leaves records past the snapshot that the
/// resumed chain streams again.
void truncate_stream(const std::string& path, std::uint64_t generations)
{
  if (!std::filesystem::exists(path))
    return;
  const std::string text = io::read_text_file(path);
  std::size_t end = 0;
  for (std::uint64_t g = 0; g < generations; ++g)
  {
    const std::size_t newline = text.find('\n', end);
    if (newline == std::string::npos)
      break; // a torn last line is dropped
    end = newline + 1;
  }
  io::write_text_file(path, text.substr(0, end));
}

/// The run a job asks for, under the server's thread budget and stop
/// flag.
EngineRunSpec engine_spec(const io::JobSpec& job, const ServerOptions& opt)
{
  EngineRunSpec spec = job;
  spec.driver.num_threads = clamp_threads(job.driver.num_threads, opt.thread_budget);
  spec.driver.stop_flag = &g_stop;
  return spec;
}

enum class JobOutcome
{
  Completed,
  Interrupted,
  Rejected,
  Failed,
};

/// Run one spool job: parse, resume-if-checkpointed, stream, retire.
JobOutcome run_spool_job(const std::string& path, const ServerOptions& opt)
{
  const std::string name = job_stem(path);
  io::JobSpec job;
  try
  {
    job = io::parse_job_spec(io::read_text_file(path), name);
  }
  catch (const std::exception& e)
  {
    std::fprintf(stderr, "qmc_server: rejecting %s: %s\n", path.c_str(), e.what());
    std::filesystem::rename(path, path + ".rejected");
    return JobOutcome::Rejected;
  }

  EngineRunSpec spec = engine_spec(job, opt);
  spec.driver.checkpoint_path = path + ".snap";
  const bool resume = std::filesystem::exists(spec.driver.checkpoint_path);
  if (resume)
  {
    spec.resume_path = spec.driver.checkpoint_path;
    std::fprintf(stderr, "qmc_server: resuming %s from %s\n", name.c_str(),
                 spec.resume_path.c_str());
  }

  try
  {
    truncate_stream(path + ".stream",
                    resume ? io::read_snapshot_file(spec.resume_path).generation : 0);
    io::JsonlWriter stream(path + ".stream");
    spec.driver.on_generation = [&](int gen, const GenerationStats& s) {
      stream.append(generation_record(name, gen, s));
    };
    const std::string system =
        job.spec_path.empty() ? workload_spec_path(job.workload) : job.spec_path;
    std::fprintf(stderr, "qmc_server: running %s (%s %s, %s, %d steps, %d walkers)\n",
                 name.c_str(), system.c_str(), job.dmc ? "DMC" : "VMC",
                 to_string(job.variant), job.driver.steps, job.driver.num_walkers);
    const EngineReport rep = run_engine(spec);
    if (rep.result.interrupted)
    {
      std::fprintf(stderr, "qmc_server: %s checkpointed at generation %zu, left pending\n",
                   name.c_str(),
                   static_cast<std::size_t>(rep.result.start_generation) +
                       rep.result.generations.size());
      return JobOutcome::Interrupted;
    }
    stream.append(completion_record(name, rep, job.mem_budget_mb));
    std::filesystem::remove(spec.driver.checkpoint_path);
    std::filesystem::rename(path, path + ".done");
    std::fprintf(stderr, "qmc_server: %s done (%zu generations, %.2f samples/s)\n",
                 name.c_str(), rep.result.generations.size(), rep.result.throughput);
    return JobOutcome::Completed;
  }
  catch (const std::exception& e)
  {
    std::fprintf(stderr, "qmc_server: %s failed: %s\n", name.c_str(), e.what());
    std::filesystem::rename(path, path + ".failed");
    return JobOutcome::Failed;
  }
}

int serve_spool(const ServerOptions& opt)
{
  std::filesystem::create_directories(opt.spool);
  while (true)
  {
    const std::vector<std::string> jobs = io::list_json_files(opt.spool);
    for (const std::string& path : jobs)
    {
      if (g_stop.load())
        break;
      run_spool_job(path, opt);
    }
    if (g_stop.load())
    {
      std::fprintf(stderr, "qmc_server: interrupted, exiting\n");
      return 3;
    }
    if (opt.once)
      return 0;
    sleep_for_ms(opt.poll_ms);
  }
}

int serve_stdin(const ServerOptions& opt)
{
  // One JSON job per line; records go to stdout (no spool, so no
  // checkpoint file -- an interrupt abandons the in-flight job).
  std::string line;
  int job_index = 0;
  while (!g_stop.load() && std::getline(std::cin, line))
  {
    if (line.find_first_not_of(" \t\r") == std::string::npos)
      continue;
    const std::string name = "stdin-" + std::to_string(job_index++);
    try
    {
      const io::JobSpec job = io::parse_job_spec(line, name);
      EngineRunSpec spec = engine_spec(job, opt);
      spec.driver.on_generation = [&](int gen, const GenerationStats& s) {
        std::printf("%s\n", generation_record(name, gen, s).c_str());
        std::fflush(stdout);
      };
      const EngineReport rep = run_engine(spec);
      if (rep.result.interrupted)
        break;
      std::printf("%s\n", completion_record(name, rep, job.mem_budget_mb).c_str());
      std::fflush(stdout);
    }
    catch (const std::exception& e)
    {
      std::fprintf(stderr, "qmc_server: %s failed: %s\n", name.c_str(), e.what());
    }
  }
  return g_stop.load() ? 3 : 0;
}

} // namespace

int main(int argc, char** argv)
{
  ServerOptions opt;
  for (int a = 1; a < argc; ++a)
  {
    if (a + 1 < argc && !std::strcmp(argv[a], "--spool"))
      opt.spool = argv[++a];
    else if (!std::strcmp(argv[a], "--stdin"))
      opt.use_stdin = true;
    else if (!std::strcmp(argv[a], "--once"))
      opt.once = true;
    else if (a + 1 < argc && !std::strcmp(argv[a], "--threads"))
      opt.thread_budget = std::atoi(argv[++a]);
    else if (a + 1 < argc && !std::strcmp(argv[a], "--poll-ms"))
      opt.poll_ms = std::atoi(argv[++a]);
    else
    {
      std::fprintf(stderr,
                   "usage: qmc_server --spool DIR [--once] [--threads N] [--poll-ms M]\n"
                   "       qmc_server --stdin [--threads N]\n");
      return 1;
    }
  }
  if (opt.spool.empty() != opt.use_stdin) // exactly one mode must be selected
  {
    std::fprintf(stderr, "qmc_server: exactly one of --spool DIR or --stdin is required\n");
    return 1;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  return opt.use_stdin ? serve_stdin(opt) : serve_spool(opt);
}
