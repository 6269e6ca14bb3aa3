// Canonical (SoA) distance tables -- paper Fig. 6b and Sec. 7.4-7.5.
//
// Padded rows on SoA component arrays: every row is cache-aligned and
// unit-stride, so the distance kernels vectorize to packed width. The
// electron-ion table stores its N x M rows. The electron-electron table
// stores O(N): the active particle's row, filled by prepare_move from
// the current positions (the paper's compute-on-the-fly policy), the
// proposed-move row and one scratch row; any other committed row is
// computed on demand. Sec. 7.5 kept O(N^2) storage because measurements
// reused it, but they read each pair once; QMCPACK's batched-driver
// table (Kent et al., J. Chem. Phys. 152, 174105, 2020) also keeps no
// full table per walker. The pair arithmetic lives in
// min_image_kernel.h, shared with the AoS reference layout, so a
// computed row is bitwise the stored one.
#ifndef QMCXX_PARTICLE_DISTANCE_TABLE_SOA_H
#define QMCXX_PARTICLE_DISTANCE_TABLE_SOA_H

#include <cmath>

#include "containers/matrix.h"
#include "instrument/timer.h"
#include "particle/distance_table.h"
#include "particle/min_image_kernel.h"
#include "particle/particle_set.h"

namespace qmcxx
{

/// Symmetric electron-electron table in O(N) storage. The prepared and
/// scratch rows are 4-row matrices: d, dx, dy, dz.
template<typename TR>
class SoaDistanceTableAA : public DistanceTable<TR>
{
public:
  using Base = DistanceTable<TR>;
  using Pos = typename Base::Pos;

  SoaDistanceTableAA(const Lattice& lattice, int n)
      : Base(lattice, n, n), prepared_(4, n, /*pad_rows=*/true), scratch_(4, n, true)
  {
    const std::size_t np = prepared_.stride();
    temp_dx_.assign(np, TR(0));
    temp_dy_.assign(np, TR(0));
    temp_dz_.assign(np, TR(0));
  }

  std::unique_ptr<DistanceTable<TR>> clone() const override
  {
    return std::make_unique<SoaDistanceTableAA<TR>>(this->lattice_, this->num_targets_);
  }

  /// Nothing is stored to refresh; the positions may have been written,
  /// so the prepared row is dropped.
  void evaluate(ParticleSet<TR>&) override { prepared_k_ = -1; }

  /// Compute-on-the-fly: row k from the *current* position of k, before
  /// the move is proposed (paper Sec. 7.5).
  void prepare_move(ParticleSet<TR>& p, int k) override
  {
    committed_row(p, k, this->num_targets_, prepared_);
    prepared_k_ = k;
  }

  void move(const ParticleSet<TR>& p, const Pos& rnew, int k) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    fill_row(p, rnew, k, this->temp_r_.data(), temp_dx_.data(), temp_dy_.data(), temp_dz_.data());
  }

  /// Accepting k moves row k and column k of every row; rows come from
  /// the positions, so only the prepared row goes stale.
  void update(int) override { prepared_k_ = -1; }

  DTRowView<TR> row(const ParticleSet<TR>& p, int i) const override
  {
    if (i == prepared_k_)
      return view(prepared_);
    committed_row(p, i, this->num_targets_, scratch_);
    return view(scratch_);
  }

  const TR* row_distances(const ParticleSet<TR>& p, int i) const override
  {
    if (i == prepared_k_)
      return prepared_.row(0);
    committed_row(p, i, i, scratch_);
    return scratch_.row(0);
  }

  DTRowView<TR> temp_row() const override
  {
    return {this->temp_r_.data(), temp_dx_.data(), temp_dy_.data(), temp_dz_.data()};
  }

  /// The prepared, scratch and temp rows, four components each.
  std::size_t storage_bytes() const override
  {
    return 3 * 4 * prepared_.stride() * sizeof(TR);
  }

protected:
  void fill_row(const ParticleSet<TR>& p, const Pos& rnew, int k, TR* d, TR* dx, TR* dy,
                TR* dz) const override
  {
    compute_row(p, static_cast<TR>(rnew[0]), static_cast<TR>(rnew[1]), static_cast<TR>(rnew[2]),
                this->num_targets_, d, dx, dy, dz);
    d[k] = DT_BIG_R<TR>;
  }

private:
  static DTRowView<TR> view(const Matrix<TR>& r)
  {
    return {r.row(0), r.row(1), r.row(2), r.row(3)};
  }

  /// Row i of the committed configuration against targets [0, count),
  /// into r; the self entry, when inside, is the DT_BIG_R sentinel.
  void committed_row(const ParticleSet<TR>& p, int i, int count, Matrix<TR>& r) const
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    const auto& rs = p.Rsoa();
    compute_row(p, rs(0, i), rs(1, i), rs(2, i), count, r.row(0), r.row(1), r.row(2), r.row(3));
    if (i < count)
      r(0, i) = DT_BIG_R<TR>;
  }

  void compute_row(const ParticleSet<TR>& p, TR x0, TR y0, TR z0, int count, TR* __restrict d,
                   TR* __restrict dx, TR* __restrict dy, TR* __restrict dz) const
  {
    min_image_row(this->mik_, p.Rsoa().data(0), p.Rsoa().data(1), p.Rsoa().data(2), x0, y0, z0,
                  count, d, dx, dy, dz);
  }

  Matrix<TR> prepared_;         ///< row prepared_k_ (d, dx, dy, dz)
  mutable Matrix<TR> scratch_;  ///< the on-demand committed row
  int prepared_k_ = -1;         ///< -1: no row is prepared
  aligned_vector<TR> temp_dx_, temp_dy_, temp_dz_;
};

/// Electron-ion table; ion positions are fixed for the whole run, so
/// their SoA component arrays are cached once (Sec. 7.3: "the ions' Rsoa
/// is reused throughout the calculation").
template<typename TR>
class SoaDistanceTableAB : public DistanceTable<TR>
{
public:
  using Base = DistanceTable<TR>;
  using Pos = typename Base::Pos;

  SoaDistanceTableAB(const Lattice& lattice, const ParticleSet<TR>& source, int num_targets)
      : Base(lattice, num_targets, source.size()), source_(&source)
  {
    const int m = source.size();
    d_.resize(num_targets, m, true);
    dx_.resize(num_targets, m, true);
    dy_.resize(num_targets, m, true);
    dz_.resize(num_targets, m, true);
    const std::size_t mp = d_.stride();
    sx_.assign(mp, TR(0));
    sy_.assign(mp, TR(0));
    sz_.assign(mp, TR(0));
    for (int j = 0; j < m; ++j)
    {
      sx_[j] = source.Rsoa()(0, j);
      sy_[j] = source.Rsoa()(1, j);
      sz_[j] = source.Rsoa()(2, j);
    }
    temp_dx_.assign(mp, TR(0));
    temp_dy_.assign(mp, TR(0));
    temp_dz_.assign(mp, TR(0));
  }

  std::unique_ptr<DistanceTable<TR>> clone() const override
  {
    return std::make_unique<SoaDistanceTableAB<TR>>(this->lattice_, *source_, this->num_targets_);
  }

  void evaluate(ParticleSet<TR>& p) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    for (int i = 0; i < this->num_targets_; ++i)
      compute_row(p.Rsoa()(0, i), p.Rsoa()(1, i), p.Rsoa()(2, i), d_.row(i), dx_.row(i),
                  dy_.row(i), dz_.row(i));
  }

  void move(const ParticleSet<TR>& p, const Pos& rnew, int k) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    fill_row(p, rnew, k, this->temp_r_.data(), temp_dx_.data(), temp_dy_.data(), temp_dz_.data());
  }

  void update(int k) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    const std::size_t mp = d_.stride();
    TR* __restrict dk = d_.row(k);
    TR* __restrict dxk = dx_.row(k);
    TR* __restrict dyk = dy_.row(k);
    TR* __restrict dzk = dz_.row(k);
#pragma omp simd
    for (std::size_t j = 0; j < mp; ++j)
    {
      dk[j] = this->temp_r_[j];
      dxk[j] = temp_dx_[j];
      dyk[j] = temp_dy_[j];
      dzk[j] = temp_dz_[j];
    }
  }

  DTRowView<TR> row(const ParticleSet<TR>&, int i) const override
  {
    return {d_.row(i), dx_.row(i), dy_.row(i), dz_.row(i)};
  }
  const TR* row_distances(const ParticleSet<TR>&, int i) const override { return d_.row(i); }
  DTRowView<TR> temp_row() const override
  {
    return {this->temp_r_.data(), temp_dx_.data(), temp_dy_.data(), temp_dz_.data()};
  }

  std::size_t storage_bytes() const override
  {
    return 4 * d_.rows() * d_.stride() * sizeof(TR);
  }

protected:
  void fill_row(const ParticleSet<TR>&, const Pos& rnew, int, TR* d, TR* dx, TR* dy,
                TR* dz) const override
  {
    compute_row(static_cast<TR>(rnew[0]), static_cast<TR>(rnew[1]), static_cast<TR>(rnew[2]), d,
                dx, dy, dz);
  }

private:
  void compute_row(TR x0, TR y0, TR z0, TR* __restrict d, TR* __restrict dx, TR* __restrict dy,
                   TR* __restrict dz) const
  {
    min_image_row(this->mik_, sx_.data(), sy_.data(), sz_.data(), x0, y0, z0, this->num_sources_,
                  d, dx, dy, dz);
  }

  const ParticleSet<TR>* source_;
  Matrix<TR> d_, dx_, dy_, dz_;
  aligned_vector<TR> sx_, sy_, sz_;
  aligned_vector<TR> temp_dx_, temp_dy_, temp_dz_;
};

} // namespace qmcxx

#endif
