// Reference (AoS) distance tables -- paper Fig. 6a, the Ref engine's tables.
//
// The AA table stores the upper triangle in packed storage (N(N-1)/2
// scalars) and AoS TinyVector displacements; updates copy the temporary
// row into the triangle (N copies, partly strided), and serving a row
// through the unified DTRowView interface costs an O(N) gather -- the
// scalar access pattern the paper identifies as the obstacle to compiler
// auto-vectorization. The pair arithmetic itself is shared with the
// canonical SoA layout (min_image_kernel.h) so the two layouts are
// bitwise-interchangeable: only storage, update policy and access cost
// differ, which is exactly the Fig. 6 comparison.
#ifndef QMCXX_PARTICLE_DISTANCE_TABLE_AOS_H
#define QMCXX_PARTICLE_DISTANCE_TABLE_AOS_H

#include <vector>

#include "instrument/timer.h"
#include "particle/distance_table.h"
#include "particle/min_image_kernel.h"
#include "particle/particle_set.h"

namespace qmcxx
{

/// Symmetric electron-electron table, packed-triangle storage.
template<typename TR>
class AosDistanceTableAA : public DistanceTable<TR>
{
public:
  using Base = DistanceTable<TR>;
  using Pos = typename Base::Pos;
  using DisplRow = std::vector<TinyVector<TR, 3>>;

  AosDistanceTableAA(const Lattice& lattice, int n)
      : Base(lattice, n, n),
        utri_(static_cast<std::size_t>(n) * (n - 1) / 2, TR(0)),
        utri_dr_(static_cast<std::size_t>(n) * (n - 1) / 2),
        temp_dr_(n)
  {
    const std::size_t np = getAlignedSize<TR>(n);
    for (auto* s : {&scr_d_, &scr_dx_, &scr_dy_, &scr_dz_, &tscr_dx_, &tscr_dy_, &tscr_dz_,
                    &row_d_, &row_dx_, &row_dy_, &row_dz_})
      s->assign(np, TR(0));
  }

  std::unique_ptr<DistanceTable<TR>> clone() const override
  {
    return std::make_unique<AosDistanceTableAA<TR>>(this->lattice_, this->num_targets_);
  }

  void evaluate(ParticleSet<TR>& p) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    const int n = this->num_targets_;
    const TR* xs = p.Rsoa().data(0);
    const TR* ys = p.Rsoa().data(1);
    const TR* zs = p.Rsoa().data(2);
    for (int i = 0; i < n - 1; ++i)
    {
      // Shared row kernel over the partial row j > i, then the packed
      // AoS scatter into the triangle (the Fig. 6a storage cost).
      const int count = n - i - 1;
      min_image_row(this->mik_, xs + i + 1, ys + i + 1, zs + i + 1, p.Rsoa()(0, i), p.Rsoa()(1, i),
                    p.Rsoa()(2, i), count, scr_d_.data(), scr_dx_.data(), scr_dy_.data(),
                    scr_dz_.data());
      const std::size_t base = loc(i, i + 1);
      for (int t = 0; t < count; ++t)
      {
        utri_[base + t] = scr_d_[t];
        utri_dr_[base + t] = TinyVector<TR, 3>{scr_dx_[t], scr_dy_[t], scr_dz_[t]};
      }
    }
  }

  void move(const ParticleSet<TR>& p, const Pos& rnew, int k) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    const int n = this->num_targets_;
    fill_row(p, rnew, k, this->temp_r_.data(), tscr_dx_.data(), tscr_dy_.data(), tscr_dz_.data());
    // AoS packing of the temporary displacements, one TinyVector at a
    // time (deliberately scalar, Fig. 6a).
    for (int j = 0; j < n; ++j)
      temp_dr_[j] = TinyVector<TR, 3>{tscr_dx_[j], tscr_dy_[j], tscr_dz_[j]};
  }

  void update(int k) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    // Copy the temporary row into the packed triangle: entries (i,k) for
    // i < k are strided, entries (k,j) for j > k are contiguous.
    for (int i = 0; i < k; ++i)
    {
      utri_[loc(i, k)] = this->temp_r_[i];
      utri_dr_[loc(i, k)] = -temp_dr_[i];
    }
    for (int j = k + 1; j < this->num_targets_; ++j)
    {
      utri_[loc(k, j)] = this->temp_r_[j];
      utri_dr_[loc(k, j)] = temp_dr_[j];
    }
  }

  /// Pair accessors of the store-over-compute Ref Jastrows (through
  /// table_as); bulk kernels use the row accessors instead.
  TR dist(int i, int j) const
  {
    if (i == j)
      return DT_BIG_R<TR>;
    return i < j ? utri_[loc(i, j)] : utri_[loc(j, i)];
  }

  TinyVector<TR, 3> displ(int i, int j) const
  {
    if (i == j)
      return TinyVector<TR, 3>{};
    return i < j ? utri_dr_[loc(i, j)] : -utri_dr_[loc(j, i)];
  }

  /// O(N) gather of row i out of the packed triangle into scratch. This
  /// is the access cost the SoA layout removes; the gathered values are
  /// bitwise identical to the canonical rows.
  DTRowView<TR> row(const ParticleSet<TR>&, int i) const override
  {
    const int n = this->num_targets_;
    for (int j = 0; j < i; ++j)
    {
      const std::size_t l = loc(j, i);
      row_d_[j] = utri_[l];
      row_dx_[j] = -utri_dr_[l][0];
      row_dy_[j] = -utri_dr_[l][1];
      row_dz_[j] = -utri_dr_[l][2];
    }
    row_d_[i] = DT_BIG_R<TR>;
    row_dx_[i] = TR(0);
    row_dy_[i] = TR(0);
    row_dz_[i] = TR(0);
    for (int j = i + 1; j < n; ++j)
    {
      const std::size_t l = loc(i, j);
      row_d_[j] = utri_[l];
      row_dx_[j] = utri_dr_[l][0];
      row_dy_[j] = utri_dr_[l][1];
      row_dz_[j] = utri_dr_[l][2];
    }
    return {row_d_.data(), row_dx_.data(), row_dy_.data(), row_dz_.data()};
  }

  /// Distances-only gather (skips the three displacement components).
  const TR* row_distances(const ParticleSet<TR>&, int i) const override
  {
    const int n = this->num_targets_;
    for (int j = 0; j < i; ++j)
      row_d_[j] = utri_[loc(j, i)];
    row_d_[i] = DT_BIG_R<TR>;
    for (int j = i + 1; j < n; ++j)
      row_d_[j] = utri_[loc(i, j)];
    return row_d_.data();
  }

  DTRowView<TR> temp_row() const override
  {
    return {this->temp_r_.data(), tscr_dx_.data(), tscr_dy_.data(), tscr_dz_.data()};
  }

  /// Temporary AoS displacements of the proposed move (from rnew to j).
  const DisplRow& temp_dr() const { return temp_dr_; }

  std::size_t storage_bytes() const override
  {
    return utri_.size() * sizeof(TR) + utri_dr_.size() * sizeof(TinyVector<TR, 3>);
  }

protected:
  void fill_row(const ParticleSet<TR>& p, const Pos& rnew, int k, TR* d, TR* dx, TR* dy,
                TR* dz) const override
  {
    min_image_row(this->mik_, p.Rsoa().data(0), p.Rsoa().data(1), p.Rsoa().data(2),
                  static_cast<TR>(rnew[0]), static_cast<TR>(rnew[1]), static_cast<TR>(rnew[2]),
                  this->num_targets_, d, dx, dy, dz);
    d[k] = DT_BIG_R<TR>;
  }

private:
  /// Packed location of pair (i,j) with i < j.
  std::size_t loc(int i, int j) const
  {
    const std::size_t n = this->num_targets_;
    return static_cast<std::size_t>(i) * (n - 1) - static_cast<std::size_t>(i) * (i - 1) / 2 +
        (j - i - 1);
  }

  std::vector<TR> utri_;
  std::vector<TinyVector<TR, 3>> utri_dr_;
  DisplRow temp_dr_;
  // Row-kernel staging plus the mutable row-gather scratch.
  mutable aligned_vector<TR> scr_d_, scr_dx_, scr_dy_, scr_dz_;
  mutable aligned_vector<TR> tscr_dx_, tscr_dy_, tscr_dz_;
  mutable aligned_vector<TR> row_d_, row_dx_, row_dy_, row_dz_;
};

/// Electron-ion table (fixed sources), AoS row storage. Like its SoA
/// counterpart, the source coordinates are snapshotted at construction
/// (AB sources never move): position the source set *before* building
/// the table. The source reference is retained only for clone().
template<typename TR>
class AosDistanceTableAB : public DistanceTable<TR>
{
public:
  using Base = DistanceTable<TR>;
  using Pos = typename Base::Pos;
  using DisplRow = std::vector<TinyVector<TR, 3>>;

  AosDistanceTableAB(const Lattice& lattice, const ParticleSet<TR>& source, int num_targets)
      : Base(lattice, num_targets, source.size()), source_(&source),
        d_(num_targets, std::vector<TR>(source.size(), TR(0))),
        dr_(num_targets, DisplRow(source.size())),
        temp_dr_(source.size())
  {
    const int m = source.size();
    const std::size_t mp = getAlignedSize<TR>(m);
    // Source (ion) coordinates are snapshotted once, matching
    // SoaDistanceTableAB: AB sources are fixed for the whole run, so
    // build tables only after the source set is positioned.
    sx_.assign(mp, TR(0));
    sy_.assign(mp, TR(0));
    sz_.assign(mp, TR(0));
    for (int j = 0; j < m; ++j)
    {
      sx_[j] = source.Rsoa()(0, j);
      sy_[j] = source.Rsoa()(1, j);
      sz_[j] = source.Rsoa()(2, j);
    }
    for (auto* s : {&scr_dx_, &scr_dy_, &scr_dz_, &tscr_dx_, &tscr_dy_, &tscr_dz_, &row_dx_,
                    &row_dy_, &row_dz_})
      s->assign(mp, TR(0));
  }

  std::unique_ptr<DistanceTable<TR>> clone() const override
  {
    return std::make_unique<AosDistanceTableAB<TR>>(this->lattice_, *source_, this->num_targets_);
  }

  void evaluate(ParticleSet<TR>& p) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    for (int i = 0; i < this->num_targets_; ++i)
    {
      compute_row(p.Rsoa()(0, i), p.Rsoa()(1, i), p.Rsoa()(2, i), d_[i].data(), scr_dx_.data(),
                  scr_dy_.data(), scr_dz_.data());
      pack(scr_dx_.data(), scr_dy_.data(), scr_dz_.data(), dr_[i]);
    }
  }

  void move(const ParticleSet<TR>& p, const Pos& rnew, int k) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    fill_row(p, rnew, k, this->temp_r_.data(), tscr_dx_.data(), tscr_dy_.data(), tscr_dz_.data());
    pack(tscr_dx_.data(), tscr_dy_.data(), tscr_dz_.data(), temp_dr_);
  }

  void update(int k) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    for (int j = 0; j < this->num_sources_; ++j)
    {
      d_[k][j] = this->temp_r_[j];
      dr_[k][j] = temp_dr_[j];
    }
  }

  /// Pair accessors of the store-over-compute Ref Jastrows (through
  /// table_as).
  TR dist(int i, int j) const { return d_[i][j]; }
  TinyVector<TR, 3> displ(int i, int j) const { return dr_[i][j]; }
  const DisplRow& temp_dr() const { return temp_dr_; }

  /// Distances are stored contiguously per row; the AoS displacements
  /// pay the O(M) component gather.
  DTRowView<TR> row(const ParticleSet<TR>&, int i) const override
  {
    const DisplRow& dr = dr_[i];
    for (int j = 0; j < this->num_sources_; ++j)
    {
      row_dx_[j] = dr[j][0];
      row_dy_[j] = dr[j][1];
      row_dz_[j] = dr[j][2];
    }
    return {d_[i].data(), row_dx_.data(), row_dy_.data(), row_dz_.data()};
  }

  /// Distances are already contiguous per row: no gather at all.
  const TR* row_distances(const ParticleSet<TR>&, int i) const override { return d_[i].data(); }

  DTRowView<TR> temp_row() const override
  {
    return {this->temp_r_.data(), tscr_dx_.data(), tscr_dy_.data(), tscr_dz_.data()};
  }

  std::size_t storage_bytes() const override
  {
    const std::size_t per_row =
        this->num_sources_ * (sizeof(TR) + sizeof(TinyVector<TR, 3>));
    return per_row * this->num_targets_;
  }

protected:
  void fill_row(const ParticleSet<TR>& p, const Pos& rnew, int k, TR* d, TR* dx, TR* dy,
                TR* dz) const override
  {
    (void)p;
    (void)k;
    compute_row(static_cast<TR>(rnew[0]), static_cast<TR>(rnew[1]), static_cast<TR>(rnew[2]), d,
                dx, dy, dz);
  }

private:
  void compute_row(TR x0, TR y0, TR z0, TR* d, TR* dx, TR* dy, TR* dz) const
  {
    min_image_row(this->mik_, sx_.data(), sy_.data(), sz_.data(), x0, y0, z0, this->num_sources_,
                  d, dx, dy, dz);
  }

  /// AoS packing of one row's displacements (deliberately scalar, Fig. 6a).
  void pack(const TR* dx, const TR* dy, const TR* dz, DisplRow& dr_row) const
  {
    for (int j = 0; j < this->num_sources_; ++j)
      dr_row[j] = TinyVector<TR, 3>{dx[j], dy[j], dz[j]};
  }

  const ParticleSet<TR>* source_;
  std::vector<std::vector<TR>> d_;
  std::vector<DisplRow> dr_;
  DisplRow temp_dr_;
  aligned_vector<TR> sx_, sy_, sz_;
  mutable aligned_vector<TR> scr_dx_, scr_dy_, scr_dz_;
  mutable aligned_vector<TR> tscr_dx_, tscr_dy_, tscr_dz_;
  mutable aligned_vector<TR> row_dx_, row_dy_, row_dz_;
};

} // namespace qmcxx

#endif
