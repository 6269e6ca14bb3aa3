// Distance tables: the nearest-neighbor machinery of the PbyP update.
//
// "As a particle-based method, managing the distance tables ... is
// critical for efficiency" (paper Sec. 7.4). Two relation kinds exist:
//   AA -- symmetric electron-electron relations
//   AB -- electron-ion relations (fixed sources)
// and two layouts implement each:
//   Aos*  -- the Reference implementation (Fig. 6a): packed upper
//            triangle for AA, AoS TinyVector displacement storage,
//            scalar loops. The AoS Ref engine builds these.
//   Soa*  -- the canonical implementation (Fig. 6b): padded SoA rows,
//            N x M stored for AB, O(N) for AA (the other committed rows
//            are computed on demand). The SoA engine builds these.
//
// Consumers never branch on layout: every table serves its committed
// rows and the proposed-move row through the unified DTRowView accessor
// (unit-stride pointers; the AoS layout pays an O(N) gather, which is
// exactly the Fig. 6a deficiency being measured).
//
// Protocol per particle move k (Alg. 1 L4-L10):
//   prepare_move(P, k)  -- compute-on-the-fly hook: the SoA AA table
//                          fills row k from current positions
//   move(P, rnew, k)    -- fill the temporary row vs. the proposed rnew
//   update(k)           -- commit the temporary row on acceptance
//   evaluate(P)         -- refresh stored rows after a position write
//                          outside the protocol (walker load, measurement)
// plus, for the NLPP quadrature fan (QMCPACK's VirtualParticleSet),
//   make_virtual_moves(P, k, vpos, nr) -- one distance row per virtual
//                          position, read by every ratio-only consumer
#ifndef QMCXX_PARTICLE_DISTANCE_TABLE_H
#define QMCXX_PARTICLE_DISTANCE_TABLE_H

#include <memory>
#include <string>

#include "containers/aligned_allocator.h"
#include "containers/tiny_vector.h"
#include "containers/vector_soa.h"
#include "instrument/timer.h"
#include "particle/lattice.h"
#include "particle/min_image_kernel.h"

namespace qmcxx
{

template<typename TR>
class ParticleSet;

/// Distance sentinel for the self pair: outside every cutoff.
template<typename TR>
inline constexpr TR DT_BIG_R = TR(1e10);

/// Unit-stride view of one table row: distances plus wrapped
/// displacement components. Lifetime contract: a committed-row view
/// (row()/row_distances()) is valid until the next mutating table call
/// or the next committed-row request — the AoS and SoA AA tables reuse
/// one scratch row, so at most one committed-row view may be
/// outstanding. The temp_row() view has dedicated storage in every
/// implementation and stays valid alongside a committed-row view until
/// the next move().
template<typename TR>
struct DTRowView
{
  const TR* d;  ///< distances |min_image(r_j - r_i)|
  const TR* dx; ///< displacement components, dr(i,j) = r_j - r_i wrapped
  const TR* dy;
  const TR* dz;
};

template<typename TR>
class DistanceTable
{
public:
  using Pos = TinyVector<double, 3>;

  DistanceTable(const Lattice& lattice, int num_targets, int num_sources)
      : lattice_(lattice), mik_(lattice_), num_targets_(num_targets), num_sources_(num_sources)
  {
    temp_r_.resize(getAlignedSize<TR>(num_sources), TR(0));
  }
  virtual ~DistanceTable() = default;

  int num_targets() const { return num_targets_; }
  int num_sources() const { return num_sources_; }

  virtual void evaluate(ParticleSet<TR>& p) = 0;
  virtual void prepare_move(ParticleSet<TR>&, int) {}
  virtual void move(const ParticleSet<TR>& p, const Pos& rnew, int k) = 0;
  virtual void update(int k) = 0;

  /// Committed row i of p's configuration as unit-stride arrays: stored,
  /// gathered (AoS) or computed (SoA AA) into scratch.
  virtual DTRowView<TR> row(const ParticleSet<TR>& p, int i) const = 0;
  /// Distances of committed row i alone, for consumers that never read
  /// displacements (Coulomb erfc sums, g(r)): every source of an AB
  /// table, but only j < i of an AA table, each pair once.
  virtual const TR* row_distances(const ParticleSet<TR>& p, int i) const = 0;
  /// The proposed-move row filled by move().
  virtual DTRowView<TR> temp_row() const = 0;

  /// Fresh table of the same kind/layout for a per-thread ParticleSet
  /// clone (paper Fig. 4: per-thread compute objects). State is not
  /// copied; the clone is filled by the next evaluate().
  virtual std::unique_ptr<DistanceTable<TR>> clone() const = 0;

  /// Temporary distances of the proposed position vs. all sources.
  const TR* temp_r() const { return temp_r_.data(); }

  /// Virtual moves of target k: row q of virtual_distances() receives
  /// the distances make_move(k, vpos[q]) would leave in temp_r(), for
  /// q < nr, one DistTable-timed row each. Committed rows, the temp row
  /// and the positions are untouched. The rows are allocated on first
  /// use and stay valid until the next call.
  void make_virtual_moves(const ParticleSet<TR>& p, int k, const Pos* vpos, int nr)
  {
    const std::size_t np = temp_r_.size();
    if (virtual_d_.size() < static_cast<std::size_t>(nr) * np)
      virtual_d_.resize(static_cast<std::size_t>(nr) * np, TR(0));
    if (virtual_scratch_.size() < 3 * np)
      virtual_scratch_.resize(3 * np, TR(0));
    TR* scratch = virtual_scratch_.data();
    for (int q = 0; q < nr; ++q)
    {
      ScopedTimer dt_timer(Kernel::DistTable);
      fill_row(p, vpos[q], k, virtual_d_.data() + static_cast<std::size_t>(q) * np, scratch,
               scratch + np, scratch + 2 * np);
    }
  }
  const TR* virtual_distances(int q) const
  {
    return virtual_d_.data() + static_cast<std::size_t>(q) * temp_r_.size();
  }

  /// Bytes of committed-table storage (for the memory experiments); the
  /// SoA AA table counts the three rows it keeps.
  virtual std::size_t storage_bytes() const = 0;

protected:
  /// The move kernel into caller storage: pair data from rnew to every
  /// source, the self pair of an AA table (target k) set to DT_BIG_R.
  virtual void fill_row(const ParticleSet<TR>& p, const Pos& rnew, int k, TR* d, TR* dx, TR* dy,
                        TR* dz) const = 0;

  Lattice lattice_; // by value: tables outlive any caller-owned lattice
  MinImageKernel<TR> mik_;
  int num_targets_;
  int num_sources_;
  aligned_vector<TR> temp_r_;
  aligned_vector<TR> virtual_d_;       ///< make_virtual_moves rows, stride temp_r_.size()
  aligned_vector<TR> virtual_scratch_; ///< their displacements (not kept)
};

} // namespace qmcxx

#endif
