// qmcxx-snap-v1 checkpoint/restart tests: RNG-state round-trips, file
// format validation (magic/version/CRC/truncation), compatibility
// rejection, the no-mutation-on-failed-load guarantee, and the hard
// acceptance bar -- bitwise-exact resume of VMC and DMC chains at every
// crowd_size x num_threads decomposition, branching history included.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "drivers/qmc_driver_impl.h"
#include "drivers/qmc_system.h"
#include "io/job_spec.h"
#include "io/snapshot.h"
#include "test_utils.h"
#include "workloads/system_builder.h"

using namespace qmcxx;
using namespace qmcxx::testing;

namespace
{

std::string tmp_path(const std::string& name)
{
  return (std::filesystem::temp_directory_path() / name).string();
}

DriverConfig test_config(int steps = 4, int walkers = 4)
{
  DriverConfig cfg;
  cfg.tau = 0.02;
  cfg.steps = steps;
  cfg.num_walkers = walkers;
  cfg.seed = 77;
  cfg.recompute_period = 3;
  cfg.num_threads = 1;
  return cfg;
}

/// A synthetic, driver-free population for format-level tests.
io::PopulationSnapshot synthetic_snapshot()
{
  io::PopulationSnapshot snap;
  snap.precision_bytes = 8;
  snap.workload_fingerprint = io::workload_fingerprint("Tiny", "Ref", 1);
  snap.kind = io::ChainKind::DMC;
  snap.generation = 17;
  snap.master_seed = 99;
  snap.tau = 0.01;
  snap.trial_energy = -3.25;
  RandomGenerator branch(4242);
  (void)branch.gaussian(); // park a Box-Muller cache in the state
  snap.branch_rng = branch.save_state();
  snap.num_particles = 3;
  for (int iw = 0; iw < 2; ++iw)
  {
    io::WalkerSnapshot w;
    w.id = static_cast<std::uint64_t>(iw) + 1;
    w.parent_id = static_cast<std::uint64_t>(iw);
    w.weight = 0.75 + iw;
    w.multiplicity = 1.25;
    w.local_energy = -1.5 - iw;
    w.old_local_energy = -1.25;
    w.log_psi = 2.5;
    w.age = 3 + iw;
    RandomGenerator rng(7 + static_cast<std::uint64_t>(iw));
    (void)rng.gaussian();
    w.rng = rng.save_state();
    w.R = {{0.1, 0.2, 0.3}, {1.1, 1.2, 1.3}, {2.1, 2.2, 2.3}};
    w.buffer = {'a', 'b', 'c', 'd', static_cast<char>(iw)};
    snap.walkers.push_back(w);
  }
  return snap;
}

void expect_snapshots_identical(const io::PopulationSnapshot& a, const io::PopulationSnapshot& b)
{
  EXPECT_EQ(a.precision_bytes, b.precision_bytes);
  EXPECT_EQ(a.workload_fingerprint, b.workload_fingerprint);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.buffers_stored, b.buffers_stored);
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.master_seed, b.master_seed);
  EXPECT_EQ(a.tau, b.tau);
  EXPECT_EQ(a.trial_energy, b.trial_energy);
  EXPECT_EQ(std::memcmp(&a.branch_rng, &b.branch_rng, sizeof(a.branch_rng)), 0);
  EXPECT_EQ(a.num_particles, b.num_particles);
  ASSERT_EQ(a.walkers.size(), b.walkers.size());
  for (std::size_t i = 0; i < a.walkers.size(); ++i)
  {
    const io::WalkerSnapshot& wa = a.walkers[i];
    const io::WalkerSnapshot& wb = b.walkers[i];
    EXPECT_EQ(wa.id, wb.id);
    EXPECT_EQ(wa.parent_id, wb.parent_id);
    EXPECT_EQ(wa.weight, wb.weight);
    EXPECT_EQ(wa.multiplicity, wb.multiplicity);
    EXPECT_EQ(wa.local_energy, wb.local_energy);
    EXPECT_EQ(wa.old_local_energy, wb.old_local_energy);
    EXPECT_EQ(wa.log_psi, wb.log_psi);
    EXPECT_EQ(wa.age, wb.age);
    EXPECT_EQ(std::memcmp(&wa.rng, &wb.rng, sizeof(wa.rng)), 0);
    ASSERT_EQ(wa.R.size(), wb.R.size());
    EXPECT_EQ(std::memcmp(wa.R.data(), wb.R.data(), wa.R.size() * sizeof(Walker::Pos)), 0);
    EXPECT_EQ(wa.buffer, wb.buffer);
  }
}

/// head.generations ++ tail.generations must equal ref.generations,
/// field for field, bitwise (== on non-NaN doubles is bit equality).
/// The generations of a chain run as `head`, then resumed as `tail`.
std::vector<GenerationStats> joined(const RunResult& head, const RunResult& tail)
{
  std::vector<GenerationStats> gens = head.generations;
  gens.insert(gens.end(), tail.generations.begin(), tail.generations.end());
  return gens;
}

/// Flip one byte at `offset` in a file (CRC/tamper tests).
void corrupt_byte(const std::string& path, std::size_t offset)
{
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.is_open());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x5a);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&c, 1);
}

void truncate_file(const std::string& path, std::size_t keep)
{
  std::filesystem::resize_file(path, keep);
}

} // namespace

// ---------------------------------------------------------------------------
// RNG state round-trip
// ---------------------------------------------------------------------------

TEST(RngState, RoundTripPreservesStreamIncludingGaussianCache)
{
  RandomGenerator a(12345);
  // Odd number of gaussians leaves a parked Box-Muller value: the cache
  // is part of the stream position and must survive the round-trip.
  for (int i = 0; i < 7; ++i)
    (void)a.gaussian();
  const RandomGenerator::State st = a.save_state();
  RandomGenerator b; // different seed, different phase
  b.restore_state(st);
  for (int i = 0; i < 100; ++i)
  {
    EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(a.gaussian(), b.gaussian());
    EXPECT_EQ(a.uniform(), b.uniform());
  }
}

// ---------------------------------------------------------------------------
// File format: round-trip and failure modes
// ---------------------------------------------------------------------------

TEST(SnapshotFile, RoundTripIsBitwise)
{
  const io::PopulationSnapshot snap = synthetic_snapshot();
  const std::string path = tmp_path("qmcxx_roundtrip.snap");
  const std::size_t bytes = io::write_snapshot_file(path, snap);
  EXPECT_EQ(bytes, 40 + io::snapshot_payload_bytes(snap));
  EXPECT_EQ(std::filesystem::file_size(path), bytes);
  const io::PopulationSnapshot back = io::read_snapshot_file(path);
  expect_snapshots_identical(snap, back);
  // No stray temp file left behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(SnapshotFile, RoundTripWithoutBuffers)
{
  io::PopulationSnapshot snap = synthetic_snapshot();
  snap.buffers_stored = false;
  for (auto& w : snap.walkers)
    w.buffer.clear();
  const std::string path = tmp_path("qmcxx_nobuf.snap");
  io::write_snapshot_file(path, snap);
  const io::PopulationSnapshot back = io::read_snapshot_file(path);
  EXPECT_FALSE(back.buffers_stored);
  expect_snapshots_identical(snap, back);
  std::filesystem::remove(path);
}

TEST(SnapshotFile, RejectsBadMagic)
{
  const std::string path = tmp_path("qmcxx_badmagic.snap");
  io::write_snapshot_file(path, synthetic_snapshot());
  corrupt_byte(path, 0); // first magic byte
  EXPECT_THROW(
      {
        try
        {
          (void)io::read_snapshot_file(path);
        }
        catch (const std::runtime_error& e)
        {
          EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST(SnapshotFile, RejectsVersionMismatch)
{
  const std::string path = tmp_path("qmcxx_badversion.snap");
  io::write_snapshot_file(path, synthetic_snapshot());
  corrupt_byte(path, 8); // version field
  EXPECT_THROW(
      {
        try
        {
          (void)io::read_snapshot_file(path);
        }
        catch (const std::runtime_error& e)
        {
          EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST(SnapshotFile, RejectsTruncatedHeader)
{
  const std::string path = tmp_path("qmcxx_trunchdr.snap");
  io::write_snapshot_file(path, synthetic_snapshot());
  truncate_file(path, 20);
  EXPECT_THROW((void)io::read_snapshot_file(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(SnapshotFile, RejectsTruncatedPayload)
{
  const std::string path = tmp_path("qmcxx_truncpay.snap");
  const std::size_t bytes = io::write_snapshot_file(path, synthetic_snapshot());
  truncate_file(path, bytes - 10);
  EXPECT_THROW(
      {
        try
        {
          (void)io::read_snapshot_file(path);
        }
        catch (const std::runtime_error& e)
        {
          EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST(SnapshotFile, RejectsCorruptPayloadByCrc)
{
  const std::string path = tmp_path("qmcxx_badcrc.snap");
  const std::size_t bytes = io::write_snapshot_file(path, synthetic_snapshot());
  corrupt_byte(path, bytes - 3); // a payload byte
  EXPECT_THROW(
      {
        try
        {
          (void)io::read_snapshot_file(path);
        }
        catch (const std::runtime_error& e)
        {
          EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
          throw;
        }
      },
      std::runtime_error);
  std::filesystem::remove(path);
}

TEST(SnapshotFile, RejectsMissingFile)
{
  EXPECT_THROW((void)io::read_snapshot_file(tmp_path("qmcxx_nonexistent.snap")),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Compatibility validation
// ---------------------------------------------------------------------------

TEST(SnapshotCompat, AcceptsMatchingExpectation)
{
  const io::PopulationSnapshot snap = synthetic_snapshot();
  io::SnapshotExpectation expect;
  expect.precision_bytes = 8;
  expect.fingerprint = snap.workload_fingerprint;
  expect.master_seed = snap.master_seed;
  expect.tau = snap.tau;
  expect.num_particles = snap.num_particles;
  EXPECT_NO_THROW(io::validate_compatible(snap, expect));
  // fingerprint == 0 skips the workload check (hand-built systems).
  expect.fingerprint = 0;
  EXPECT_NO_THROW(io::validate_compatible(snap, expect));
}

TEST(SnapshotCompat, RejectsEachMismatchWithNamedError)
{
  const io::PopulationSnapshot snap = synthetic_snapshot();
  io::SnapshotExpectation good;
  good.precision_bytes = 8;
  good.fingerprint = snap.workload_fingerprint;
  good.master_seed = snap.master_seed;
  good.tau = snap.tau;
  good.num_particles = snap.num_particles;

  const auto expect_failure = [&](io::SnapshotExpectation e, const char* needle) {
    try
    {
      io::validate_compatible(snap, e);
      FAIL() << "expected rejection mentioning '" << needle << "'";
    }
    catch (const std::runtime_error& err)
    {
      EXPECT_NE(std::string(err.what()).find(needle), std::string::npos) << err.what();
    }
  };

  io::SnapshotExpectation e = good;
  e.precision_bytes = 4; // float engine reading a double snapshot
  expect_failure(e, "precision");
  e = good;
  e.fingerprint = good.fingerprint + 1;
  expect_failure(e, "fingerprint");
  e = good;
  e.master_seed = 1;
  expect_failure(e, "seed");
  e = good;
  e.tau = 0.5;
  expect_failure(e, "time step");
  e = good;
  e.num_particles = 7;
  expect_failure(e, "particle count");
}

TEST(SnapshotCompat, PrecisionMismatchNamesBothPrecisions)
{
  // The restore error must say which precision wrote the snapshot AND
  // which one this engine computes in, so the fix (the "precision"
  // policy / variant alias) is actionable from the message alone.
  const io::PopulationSnapshot snap = synthetic_snapshot(); // written by a double engine
  io::SnapshotExpectation e;
  e.precision_bytes = 4;
  e.fingerprint = snap.workload_fingerprint;
  e.master_seed = snap.master_seed;
  e.tau = snap.tau;
  e.num_particles = snap.num_particles;
  try
  {
    io::validate_compatible(snap, e);
    FAIL() << "expected a precision-mismatch rejection";
  }
  catch (const std::runtime_error& err)
  {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("precision"), std::string::npos) << msg;
    EXPECT_NE(msg.find("double"), std::string::npos) << msg; // the snapshot's side
    EXPECT_NE(msg.find("single"), std::string::npos) << msg; // this engine's side
    EXPECT_NE(msg.find("\"precision\""), std::string::npos) << msg; // the remedy
  }
}

TEST(SnapshotCompat, RejectsEmptyPopulation)
{
  io::PopulationSnapshot snap = synthetic_snapshot();
  io::SnapshotExpectation expect;
  expect.precision_bytes = 8;
  expect.fingerprint = snap.workload_fingerprint;
  expect.master_seed = snap.master_seed;
  expect.tau = snap.tau;
  expect.num_particles = snap.num_particles;
  snap.walkers.clear();
  EXPECT_THROW(io::validate_compatible(snap, expect), std::runtime_error);
}

TEST(SnapshotCompat, FingerprintSeparatesFields)
{
  // FNV-1a with separators: shifting characters across the field
  // boundary or changing delay_rank must change the hash.
  const std::uint64_t base = io::workload_fingerprint("NiO-32", "Current", 1);
  EXPECT_NE(base, io::workload_fingerprint("NiO-3", "2Current", 1));
  EXPECT_NE(base, io::workload_fingerprint("NiO-32", "Current", 2));
  EXPECT_NE(base, io::workload_fingerprint("NiO-32", "Ref", 1));
  EXPECT_EQ(base, io::workload_fingerprint("NiO-32", "Current", 1));
}

// ---------------------------------------------------------------------------
// Driver capture/restore
// ---------------------------------------------------------------------------

TEST(DriverSnapshot, CaptureRestoreRoundTripsPopulation)
{
  BuildOptions opt;
  auto sys = build_system<double>(tiny_spec(), opt);
  DriverConfig cfg = test_config(3, 3);
  QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();
  (void)driver.run_vmc();
  const io::PopulationSnapshot snap =
      driver.capture_snapshot(cfg.steps, io::ChainKind::VMC);

  QMCDriver<double> restored(*sys.elec, *sys.twf, *sys.ham, cfg);
  restored.restore_snapshot(snap);
  const io::PopulationSnapshot again =
      restored.capture_snapshot(cfg.steps, io::ChainKind::VMC);
  expect_snapshots_identical(snap, again);
}

TEST(DriverSnapshot, FailedRestoreLeavesDriverUntouched)
{
  BuildOptions opt;
  auto sys = build_system<double>(tiny_spec(), opt);
  const DriverConfig cfg = test_config(2, 2);
  QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();
  const io::PopulationSnapshot before = driver.capture_snapshot(0, io::ChainKind::VMC);

  io::PopulationSnapshot bad = before;
  bad.master_seed = cfg.seed + 1; // incompatible
  EXPECT_THROW(driver.restore_snapshot(bad), std::runtime_error);

  const io::PopulationSnapshot after = driver.capture_snapshot(0, io::ChainKind::VMC);
  expect_snapshots_identical(before, after);
  // The driver still runs normally after the failed load.
  const RunResult r = driver.run_vmc();
  EXPECT_EQ(r.generations.size(), 2u);
}

TEST(DriverSnapshot, RejectsChainKindMismatch)
{
  BuildOptions opt;
  auto sys = build_system<double>(tiny_spec(), opt);
  const DriverConfig cfg = test_config(2, 2);
  QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();
  const io::PopulationSnapshot vmc_snap = driver.capture_snapshot(1, io::ChainKind::VMC);

  QMCDriver<double> resumed(*sys.elec, *sys.twf, *sys.ham, cfg);
  resumed.restore_snapshot(vmc_snap);
  EXPECT_THROW((void)resumed.run_dmc(), std::runtime_error);
  EXPECT_NO_THROW((void)resumed.run_vmc());
}

TEST(DriverSnapshot, PrecisionTagMismatchRejected)
{
  BuildOptions opt;
  auto sys = build_system<double>(tiny_spec(), opt);
  const DriverConfig cfg = test_config(2, 2);
  QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();
  io::PopulationSnapshot snap = driver.capture_snapshot(0, io::ChainKind::VMC);
  snap.precision_bytes = 4; // claim a float engine wrote it
  EXPECT_THROW(driver.restore_snapshot(snap), std::runtime_error);
}

TEST(DriverSnapshot, ConfigValidationRejectsBadCheckpointKnobs)
{
  BuildOptions opt;
  auto sys = build_system<double>(tiny_spec(), opt);
  DriverConfig cfg = test_config(2, 2);
  cfg.checkpoint_every = -1;
  EXPECT_THROW(QMCDriver<double>(*sys.elec, *sys.twf, *sys.ham, cfg), std::invalid_argument);
  cfg.checkpoint_every = 2; // > 0 but no path
  cfg.checkpoint_path.clear();
  EXPECT_THROW(QMCDriver<double>(*sys.elec, *sys.twf, *sys.ham, cfg), std::invalid_argument);
  cfg.checkpoint_path = tmp_path("qmcxx_cfg.snap");
  EXPECT_NO_THROW(QMCDriver<double>(*sys.elec, *sys.twf, *sys.ham, cfg));
}

// ---------------------------------------------------------------------------
// Exact-resume parity (the acceptance bar)
// ---------------------------------------------------------------------------

namespace
{

/// Run `steps` generations from scratch in one driver; then run the
/// same chain as head (checkpoints at `cut`) + tail (restores, runs to
/// `steps`) under a possibly different decomposition. Everything --
/// per-generation statistics, final positions, buffers, RNG streams,
/// branching history -- must match bitwise.
void check_exact_resume(bool dmc, int crowd_head, int threads_head, int crowd_tail,
                        int threads_tail)
{
  BuildOptions opt;
  auto sys = build_system<double>(tiny_spec(), opt);
  const int steps = 5, cut = 2;
  const io::ChainKind kind = dmc ? io::ChainKind::DMC : io::ChainKind::VMC;

  DriverConfig full_cfg = test_config(steps, 4);
  full_cfg.crowd_size = crowd_head;
  full_cfg.num_threads = threads_head;
  QMCDriver<double> full(*sys.elec, *sys.twf, *sys.ham, full_cfg);
  full.initialize_population();
  const RunResult ref = dmc ? full.run_dmc() : full.run_vmc();

  const std::string path = tmp_path("qmcxx_parity.snap");
  DriverConfig head_cfg = test_config(cut, 4);
  head_cfg.crowd_size = crowd_head;
  head_cfg.num_threads = threads_head;
  head_cfg.checkpoint_every = cut;
  head_cfg.checkpoint_path = path;
  QMCDriver<double> head(*sys.elec, *sys.twf, *sys.ham, head_cfg);
  head.initialize_population();
  const RunResult head_res = dmc ? head.run_dmc() : head.run_vmc();

  DriverConfig tail_cfg = test_config(steps, 4);
  tail_cfg.crowd_size = crowd_tail;
  tail_cfg.num_threads = threads_tail;
  QMCDriver<double> tail(*sys.elec, *sys.twf, *sys.ham, tail_cfg);
  tail.restore_snapshot(io::read_snapshot_file(path));
  const RunResult tail_res = dmc ? tail.run_dmc() : tail.run_vmc();
  EXPECT_EQ(tail_res.start_generation, cut);

  EXPECT_TRUE(chains_bitwise(ref.generations, joined(head_res, tail_res)));
  // Final chain state, not just the statistics: capture both endpoints.
  expect_snapshots_identical(full.capture_snapshot(steps, kind),
                             tail.capture_snapshot(steps, kind));
  std::filesystem::remove(path);
}

} // namespace

TEST(ExactResume, VmcAllDecompositions)
{
  for (const int crowd : {1, 4})
    for (const int threads : {1, 4})
      check_exact_resume(false, crowd, threads, crowd, threads);
}

TEST(ExactResume, DmcAllDecompositions)
{
  for (const int crowd : {1, 4})
    for (const int threads : {1, 4})
      check_exact_resume(true, crowd, threads, crowd, threads);
}

TEST(ExactResume, DmcAcrossDecompositionChange)
{
  // Checkpoint under crowds of 4 on 4 threads, resume single-crowd
  // serial -- the chain must not notice.
  check_exact_resume(true, 4, 4, 1, 1);
  check_exact_resume(false, 1, 1, 4, 4);
}

TEST(ExactResume, RecomputeFlagResumesStatistically)
{
  // Dropping the buffers still restores and runs; exact energies may
  // (and generally do) differ in low bits, so only sanity is checked.
  BuildOptions opt;
  auto sys = build_system<double>(tiny_spec(), opt);
  const DriverConfig cfg = test_config(3, 3);
  QMCDriver<double> driver(*sys.elec, *sys.twf, *sys.ham, cfg);
  driver.initialize_population();
  (void)driver.run_vmc();
  const io::PopulationSnapshot slim =
      driver.capture_snapshot(3, io::ChainKind::VMC, /*store_buffers=*/false);
  EXPECT_FALSE(slim.buffers_stored);
  EXPECT_LT(io::snapshot_payload_bytes(slim),
            io::snapshot_payload_bytes(driver.capture_snapshot(3, io::ChainKind::VMC)));

  QMCDriver<double> resumed(*sys.elec, *sys.twf, *sys.ham, cfg);
  resumed.restore_snapshot(slim);
  const RunResult r = resumed.run_vmc();
  EXPECT_TRUE(r.generations.empty()); // start == steps: chain is complete
  for (const auto& w : resumed.population().walkers)
    EXPECT_GT(w->buffer.size(), 0u); // buffers were rebuilt
}

// ---------------------------------------------------------------------------
// Engine-level resume (run_engine + real workloads)
// ---------------------------------------------------------------------------

namespace
{

/// Full engine path: build workload, run, checkpoint mid-run via the
/// driver knobs, resume via EngineRunSpec::resume_path.
void check_engine_resume(Workload workload, bool dmc, int crowd, int threads)
{
  const int steps = 4, cut = 2;
  EngineRunSpec ref_spec;
  ref_spec.workload = workload;
  ref_spec.variant = EngineVariant::Current;
  ref_spec.dmc = dmc;
  ref_spec.driver = test_config(steps, 3);
  ref_spec.driver.crowd_size = 4;
  ref_spec.driver.num_threads = 1;
  const EngineReport ref = run_engine(ref_spec);

  const std::string path = tmp_path("qmcxx_engine_parity.snap");
  EngineRunSpec head_spec = ref_spec;
  head_spec.driver.steps = cut;
  head_spec.driver.crowd_size = crowd;
  head_spec.driver.num_threads = threads;
  head_spec.driver.checkpoint_every = cut;
  head_spec.driver.checkpoint_path = path;
  const EngineReport head = run_engine(head_spec);

  EngineRunSpec tail_spec = ref_spec;
  tail_spec.driver.crowd_size = crowd;
  tail_spec.driver.num_threads = threads;
  tail_spec.resume_path = path;
  const EngineReport tail = run_engine(tail_spec);
  EXPECT_EQ(tail.result.start_generation, cut);

  EXPECT_TRUE(chains_bitwise(ref.result.generations, joined(head.result, tail.result)));
  std::filesystem::remove(path);
}

} // namespace

TEST(EngineResume, GraphiteVmcAllDecompositions)
{
  for (const int crowd : {1, 4})
    for (const int threads : {1, 4})
      check_engine_resume(Workload::Graphite, false, crowd, threads);
}

TEST(EngineResume, NiO32DmcAllDecompositions)
{
  for (const int crowd : {1, 4})
    for (const int threads : {1, 4})
      check_engine_resume(Workload::NiO32, true, crowd, threads);
}

TEST(EngineResume, RejectsWorkloadFingerprintMismatch)
{
  const std::string path = tmp_path("qmcxx_fp_mismatch.snap");
  EngineRunSpec spec;
  spec.workload = Workload::Graphite;
  spec.variant = EngineVariant::Current;
  spec.dmc = false;
  spec.driver = test_config(2, 2);
  spec.driver.checkpoint_every = 2;
  spec.driver.checkpoint_path = path;
  (void)run_engine(spec);

  EngineRunSpec other = spec;
  other.driver.checkpoint_every = 0;
  other.driver.checkpoint_path.clear();
  other.resume_path = path;
  other.workload = Workload::Be64; // different workload, same precision
  EXPECT_THROW((void)run_engine(other), std::runtime_error);
  // Same workload under a different delay_rank is also a different chain.
  other.workload = Workload::Graphite;
  other.driver.delay_rank = 2;
  EXPECT_THROW((void)run_engine(other), std::runtime_error);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Job specs (the server protocol)
// ---------------------------------------------------------------------------

TEST(JobSpec, ParsesFullObject)
{
  const std::string text = R"({
    "workload": "NiO-32", "variant": "refmp", "dmc": true, "mem_budget_mb": 256.5,
    "driver": { "tau": 0.01, "num_walkers": 12, "steps": 20, "warmup_steps": 4,
                "seed": 18446744073709551615, "recompute_period": 5, "feedback": 0.2,
                "num_threads": 2, "use_drift": false, "crowd_size": 3,
                "delay_rank": 4, "checkpoint_every": 10 } })";
  const io::JobSpec spec = io::parse_job_spec(text, "j1");
  EXPECT_EQ(spec.name, "j1");
  EXPECT_EQ(spec.workload, Workload::NiO32);
  EXPECT_EQ(spec.variant, EngineVariant::RefMP);
  EXPECT_TRUE(spec.dmc);
  EXPECT_EQ(spec.mem_budget_mb, 256.5);
  EXPECT_EQ(spec.driver.tau, 0.01);
  EXPECT_EQ(spec.driver.num_walkers, 12);
  EXPECT_EQ(spec.driver.steps, 20);
  EXPECT_EQ(spec.driver.warmup_steps, 4);
  // Seeds are 64-bit exact; a double round-trip would have mangled this.
  EXPECT_EQ(spec.driver.seed, 18446744073709551615ull);
  EXPECT_EQ(spec.driver.recompute_period, 5);
  EXPECT_EQ(spec.driver.feedback, 0.2);
  EXPECT_EQ(spec.driver.num_threads, 2);
  EXPECT_FALSE(spec.driver.use_drift);
  EXPECT_EQ(spec.driver.crowd_size, 3);
  EXPECT_EQ(spec.driver.delay_rank, 4);
  EXPECT_EQ(spec.driver.checkpoint_every, 10);
}

TEST(JobSpec, DefaultsAndAliases)
{
  const io::JobSpec spec = io::parse_job_spec(R"({"workload": "graphite"})", "j");
  EXPECT_EQ(spec.workload, Workload::Graphite);
  EXPECT_EQ(spec.variant, EngineVariant::Current);
  EXPECT_FALSE(spec.dmc);
  // A workload name is its spec's "name" or file stem, in any case.
  for (const PaperWorkload& row : paper_workloads)
  {
    const std::string name = workload_spec(row.id).name;
    const std::string stem = std::filesystem::path(row.spec_file).stem().string();
    std::string shout = name;
    for (char& c : shout)
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    for (const std::string& s : {name, stem, shout})
      EXPECT_EQ(io::workload_from_name(s), row.id) << s;
  }
  EXPECT_THROW((void)io::workload_from_name("graphite-32"), std::runtime_error);
  EXPECT_EQ(io::variant_from_name("Ref+MP"), EngineVariant::RefMP);
  EXPECT_EQ(io::variant_from_name("CurrentDP"), EngineVariant::CurrentDP);
}

TEST(JobSpec, RejectsUnknownKeysAndMalformedInput)
{
  EXPECT_THROW((void)io::parse_job_spec(R"({"walkload": "Graphite"})", "j"),
               std::runtime_error);
  EXPECT_THROW((void)io::parse_job_spec(R"({"driver": {"stepz": 3}})", "j"),
               std::runtime_error);
  EXPECT_THROW((void)io::parse_job_spec(R"({"workload": "Atlantis"})", "j"),
               std::runtime_error);
  EXPECT_THROW((void)io::parse_job_spec(R"({"dmc": maybe})", "j"), std::runtime_error);
  EXPECT_THROW((void)io::parse_job_spec("{", "j"), std::runtime_error);
  EXPECT_THROW((void)io::parse_job_spec(R"({} trailing)", "j"), std::runtime_error);
  try
  {
    (void)io::parse_job_spec(R"({"driver": {"stepz": 3}})", "badjob");
    FAIL() << "unknown driver key accepted";
  }
  catch (const std::runtime_error& e)
  {
    EXPECT_NE(std::string(e.what()).find("stepz"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("badjob"), std::string::npos);
  }
}
