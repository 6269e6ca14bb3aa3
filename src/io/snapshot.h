// qmcxx-snap-v1: versioned, CRC-checked binary snapshots of a complete
// walker population -- the checkpoint/restart wire format (ROADMAP item
// 3) and the foundation cross-rank walker shipping (item 2) reuses.
//
// A snapshot captures the full Markov-chain state at a generation
// barrier: every walker's positions, DMC bookkeeping scalars, lineage
// ids (the branching history), anonymous PooledBuffer bytes, and
// private SplitMix64-derived RNG stream state, plus the serial
// branching stream, trial energy, and the generation counter.
// Restoring it into a driver built from the same workload / variant /
// seed / tau reproduces the uninterrupted chain bitwise -- at any
// crowd_size x num_threads decomposition, because chains are
// decomposition-invariant (PR 2/PR 4) and all chain-relevant state
// lives in the population, never in the crowd slots.
//
// File layout (fixed 40-byte header, then the payload; all fields are
// host-endian -- a byte-swapped file fails the version check):
//
//   magic            8 bytes  "qmcxsnp1"
//   version          u32      1
//   precision_bytes  u32      sizeof(TR) of the writing engine
//   fingerprint      u64      workload identity hash (workload_fingerprint)
//   payload_bytes    u64      serialized population size
//   payload_crc32    u32      CRC-32 (IEEE reflected) of the payload
//   reserved         u32      0
//
// Payload (packed, no alignment padding):
//
//   u64 master_seed; f64 tau; u32 chain kind (VMC/DMC); u32 buffers
//   stored flag (always 1; the reader rejects any other value, so a
//   file without walker buffers never resumes); u64 next-generation
//   counter; f64 trial energy; RandomGenerator::State branch stream;
//   u64 particles per walker; u64 walker count; then per walker: u64
//   id, u64 parent_id, f64 weight/multiplicity/local_energy/
//   old_local_energy/log_psi, i64 age, RandomGenerator::State proposal
//   stream, Pos[particles], u64 byte count + raw PooledBuffer bytes.
//
// Walker::Pos and RandomGenerator::State are shipped as raw bytes;
// static_asserts in walker.h / rng.h pin the layouts. PooledBuffer
// contents are opaque bytes meaningful only to an identically composed
// TrialWaveFunction, which is exactly what the fingerprint guards.
#ifndef QMCXX_IO_SNAPSHOT_H
#define QMCXX_IO_SNAPSHOT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "numerics/rng.h"
#include "particle/walker.h"

namespace qmcxx::io
{

inline constexpr std::uint32_t SNAPSHOT_VERSION = 1;

/// Which driver produced the chain. Resuming a DMC snapshot through
/// run_vmc (or vice versa) is rejected: the two algorithms consume the
/// streams differently, so the "resumed" chain would be silently wrong.
enum class ChainKind : std::uint32_t
{
  VMC = 0,
  DMC = 1,
};

inline const char* to_string(ChainKind k) { return k == ChainKind::DMC ? "DMC" : "VMC"; }

/// One walker's complete serialized state (paper Fig. 4: positions,
/// bookkeeping scalars, the anonymous buffer), plus the lineage ids
/// and the private RNG stream the chain's determinism rests on.
struct WalkerSnapshot
{
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;
  double weight = 1.0;
  double multiplicity = 1.0;
  double local_energy = 0.0;
  double old_local_energy = 0.0;
  double log_psi = 0.0;
  std::int64_t age = 0;
  RandomGenerator::State rng{};
  std::vector<Walker::Pos> R;
  std::vector<char> buffer;
};

/// In-memory form of one qmcxx-snap-v1 snapshot: pure data, fully
/// parsed and CRC-validated before any driver state is touched (failed
/// loads never leave a partially mutated population).
struct PopulationSnapshot
{
  std::uint32_t precision_bytes = sizeof(double); ///< sizeof(TR) of the writing engine
  std::uint64_t workload_fingerprint = 0;         ///< 0 = unstamped (driver-level tests)
  ChainKind kind = ChainKind::VMC;
  std::uint64_t generation = 0; ///< absolute index of the next generation to run
  std::uint64_t master_seed = 0;
  double tau = 0.0;
  double trial_energy = 0.0;
  RandomGenerator::State branch_rng{};
  std::uint64_t num_particles = 0;
  std::vector<WalkerSnapshot> walkers;
};

/// Workload identity hash stamped into snapshot headers: FNV-1a over
/// the workload name, engine-variant name and delay rank -- everything
/// that shapes the PooledBuffer registration layout and the chain's
/// algorithmic identity beyond (seed, tau), which the payload carries
/// explicitly. `spec_hash` (qmcxx::spec_content_hash of the resolved
/// SystemSpec) is folded in when nonzero, so two spec files sharing a
/// name but differing in contents are rejected with a distinct error;
/// 0 preserves the historical 3-field hash values.
[[nodiscard]] std::uint64_t workload_fingerprint(std::string_view workload,
                                                 std::string_view variant, int delay_rank,
                                                 std::uint64_t spec_hash = 0);

/// What a resuming run requires of a snapshot. Checked as a whole by
/// validate_compatible before any population state is replaced.
struct SnapshotExpectation
{
  std::uint32_t precision_bytes = 0;
  std::uint64_t fingerprint = 0; ///< 0 skips the fingerprint check
  std::uint64_t master_seed = 0;
  double tau = 0.0;
  std::uint64_t num_particles = 0;
};

/// Throws std::runtime_error with a field-naming message on any
/// mismatch (precision tag, workload fingerprint, master seed, tau,
/// particle count, empty population).
void validate_compatible(const PopulationSnapshot& snap, const SnapshotExpectation& expect);

/// Serialize and write atomically (temp file + rename: an interrupt
/// mid-write never leaves a torn snapshot at `path`). The payload is
/// streamed from `snap` with no staging copy: passes over the
/// population size it and checksum it for the header, and the last one
/// writes it. Returns the total file size in bytes. Throws
/// std::runtime_error on I/O failure.
std::size_t write_snapshot_file(const std::string& path, const PopulationSnapshot& snap);

/// Read and structurally validate (magic, version, declared payload
/// size against the bytes in the file before anything is allocated,
/// CRC-32, exact payload parse). Compatibility with a particular
/// run is a separate step: validate_compatible / the driver's
/// restore_snapshot. Throws std::runtime_error naming the failure.
[[nodiscard]] PopulationSnapshot read_snapshot_file(const std::string& path);

/// Serialized payload size of a snapshot (per-walker byte accounting
/// for the bench and the server's budget records). Counts the bytes the
/// writer would emit, in O(walkers), without serializing anything.
[[nodiscard]] std::size_t snapshot_payload_bytes(const PopulationSnapshot& snap);

/// The header's payload checksum: CRC-32 as in IEEE 802.3 and zlib
/// (reflected polynomial 0xEDB88320, register preset and result
/// inverted; crc32("123456789") == 0xCBF43926), computed slicing-by-8.
/// `crc` continues an earlier result: crc32(b, nb, crc32(a, na)) is the
/// CRC of a followed by b.
[[nodiscard]] std::uint32_t crc32(const char* data, std::size_t n, std::uint32_t crc = 0);

} // namespace qmcxx::io

#endif
