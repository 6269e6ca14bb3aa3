// Walker: one Monte Carlo sample of the 3N-dimensional configuration.
//
// Mirrors the paper's Fig. 4 Walker: positions in AoS layout, the DMC
// bookkeeping scalars (weight, multiplicity, age, local energies) and the
// anonymous buffer. The buffer is the walker's parked and serialized
// form: the wavefunction's internal state, so a walker can resume PbyP
// updates after being parked, cloned by branching, checkpointed or
// shipped to another rank. A walker resident in a crowd slot keeps that
// state in the slot and its buffer stays empty (drivers/qmc_drivers.h).
// The registered layout is the per-walker memory footprint the paper's
// compute-on-the-fly algorithms reduce (22.5 MB saved per NiO-64 walker).
#ifndef QMCXX_PARTICLE_WALKER_H
#define QMCXX_PARTICLE_WALKER_H

#include <cstdint>
#include <type_traits>
#include <vector>

#include "containers/pooled_buffer.h"
#include "containers/tiny_vector.h"

namespace qmcxx
{

struct Walker
{
  using Pos = TinyVector<double, 3>;

  explicit Walker(int num_particles = 0) : R(num_particles) {}

  std::vector<Pos> R;     ///< particle positions (AoS, double)
  double weight = 1.0;    ///< DMC branching weight
  double multiplicity = 1.0;
  int age = 0;            ///< generations since last accepted move
  double local_energy = 0.0;
  double old_local_energy = 0.0;
  double log_psi = 0.0;
  std::uint64_t id = 0; ///< nonzero once assigned (0 is reserved below)
  /// Id of the walker this one was branched from; 0 marks a founder,
  /// so real walker ids must never be 0. Branching must give clones
  /// fresh decorrelated RNG streams; the lineage makes the stream
  /// pairing auditable in tests.
  std::uint64_t parent_id = 0;
  PooledBuffer buffer;    ///< anonymous per-walker wavefunction state

  /// Bytes this walker holds: positions and buffer are counted at
  /// *capacity*, not size -- a buffer that shrank logically still pins
  /// its backing store, and per-job memory budgeting (qmc_server) must
  /// see what the allocator sees.
  [[nodiscard]] std::size_t byte_size() const
  {
    return sizeof(Walker) + R.capacity() * sizeof(Pos) + buffer.capacity();
  }
};

// Binary walker serialization (checkpointing, cross-rank shipping;
// ROADMAP item 3) memcpy's the position block and the bookkeeping
// scalars verbatim. These asserts pin the layout assumptions that make
// that safe; if one fires, the snapshot format must change with it.
static_assert(std::is_trivially_copyable_v<Walker::Pos>,
              "positions are shipped as raw bytes");
static_assert(sizeof(Walker::Pos) == 3 * sizeof(double),
              "Pos must pack three doubles with no padding");

} // namespace qmcxx

#endif
