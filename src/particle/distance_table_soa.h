// Canonical (SoA) distance tables -- paper Fig. 6b and Sec. 7.4-7.5.
//
// Full N x Np padded row storage on SoA component arrays; every row is
// cache-aligned and unit-stride, so the distance kernels vectorize to
// packed width. Two update policies:
//   ForwardUpdate -- on acceptance, copy the temp row into row k and
//                    update the k-th column only for k' > k (the data
//                    future moves will read).
//   OnTheFly      -- no column updates at all; row k is recomputed from
//                    current positions in prepare_move just before the
//                    move (the paper's final choice: "this eliminates the
//                    strided copy for the column updates").
// O(N^2) storage is retained because Hamiltonian measurements reuse the
// full table (Sec. 7.5). The pair arithmetic lives in
// min_image_kernel.h, shared with the AoS reference layout so the two
// are bitwise-interchangeable.
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

/// Symmetric electron-electron table with full padded rows.
template<typename TR>
class SoaDistanceTableAA : public DistanceTable<TR>
{
public:
  using Base = DistanceTable<TR>;
  using Pos = typename Base::Pos;

  SoaDistanceTableAA(const Lattice& lattice, int n,
                     DTUpdateMode mode = DTUpdateMode::OnTheFly)
      : Base(lattice, n, n), mode_(mode)
  {
    d_.resize(n, n, /*pad_rows=*/true);
    dx_.resize(n, n, true);
    dy_.resize(n, n, true);
    dz_.resize(n, n, true);
    const std::size_t np = d_.stride();
    temp_dx_.assign(np, TR(0));
    temp_dy_.assign(np, TR(0));
    temp_dz_.assign(np, TR(0));
  }

  std::unique_ptr<DistanceTable<TR>> clone() const override
  {
    return std::make_unique<SoaDistanceTableAA<TR>>(this->lattice_, this->num_targets_, mode_);
  }

  void evaluate(ParticleSet<TR>& p) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    const int n = this->num_targets_;
    for (int i = 0; i < n; ++i)
    {
      compute_row(p, p.Rsoa()(0, i), p.Rsoa()(1, i), p.Rsoa()(2, i), d_.row(i), dx_.row(i),
                  dy_.row(i), dz_.row(i));
      d_(i, i) = DT_BIG_R<TR>;
    }
  }

  /// Compute-on-the-fly: refresh row k from the *current* position of k
  /// before the move is proposed (paper Sec. 7.5).
  void prepare_move(ParticleSet<TR>& p, int k) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    if (mode_ != DTUpdateMode::OnTheFly)
      return;
    compute_row(p, p.Rsoa()(0, k), p.Rsoa()(1, k), p.Rsoa()(2, k), d_.row(k), dx_.row(k),
                dy_.row(k), dz_.row(k));
    d_(k, k) = DT_BIG_R<TR>;
  }

  void move(const ParticleSet<TR>& p, const Pos& rnew, int k) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    fill_row(p, rnew, k, this->temp_r_.data(), temp_dx_.data(), temp_dy_.data(), temp_dz_.data());
  }

  void update(int k) override
  {
    ScopedTimer dt_timer(Kernel::DistTable);
    const std::size_t np = d_.stride();
    TR* __restrict dk = d_.row(k);
    TR* __restrict dxk = dx_.row(k);
    TR* __restrict dyk = dy_.row(k);
    TR* __restrict dzk = dz_.row(k);
    const TR* __restrict tr = this->temp_r_.data();
#pragma omp simd
    for (std::size_t j = 0; j < np; ++j)
    {
      dk[j] = tr[j];
      dxk[j] = temp_dx_[j];
      dyk[j] = temp_dy_[j];
      dzk[j] = temp_dz_[j];
    }
    d_(k, k) = DT_BIG_R<TR>;
    if (mode_ == DTUpdateMode::ForwardUpdate)
    {
      // Strided column update, forward rows only (Fig. 6b).
      const int n = this->num_targets_;
      for (int i = k + 1; i < n; ++i)
      {
        d_(i, k) = tr[i];
        dx_(i, k) = -temp_dx_[i];
        dy_(i, k) = -temp_dy_[i];
        dz_(i, k) = -temp_dz_[i];
      }
    }
  }

  TR dist(int i, int j) const override { return d_(i, j); }
  TinyVector<TR, 3> displ(int i, int j) const override
  {
    return {dx_(i, j), dy_(i, j), dz_(i, j)};
  }

  DTRowView<TR> row(int i) const override
  {
    return {d_.row(i), dx_.row(i), dy_.row(i), dz_.row(i)};
  }
  const TR* row_distances(int i) const override { return d_.row(i); }
  DTRowView<TR> temp_row() const override
  {
    return {this->temp_r_.data(), temp_dx_.data(), temp_dy_.data(), temp_dz_.data()};
  }

  std::size_t row_stride() const { return d_.stride(); }

  std::size_t storage_bytes() const override
  {
    return 4 * d_.rows() * d_.stride() * sizeof(TR);
  }

protected:
  void fill_row(const ParticleSet<TR>& p, const Pos& rnew, int k, TR* d, TR* dx, TR* dy,
                TR* dz) const override
  {
    compute_row(p, static_cast<TR>(rnew[0]), static_cast<TR>(rnew[1]), static_cast<TR>(rnew[2]), d,
                dx, dy, dz);
    d[k] = DT_BIG_R<TR>;
  }

private:
  void compute_row(const ParticleSet<TR>& p, TR x0, TR y0, TR z0, TR* __restrict d,
                   TR* __restrict dx, TR* __restrict dy, TR* __restrict dz) const
  {
    min_image_row(this->mik_, p.Rsoa().data(0), p.Rsoa().data(1), p.Rsoa().data(2), x0, y0, z0,
                  this->num_targets_, d, dx, dy, dz);
  }

  DTUpdateMode mode_;
  Matrix<TR> d_, dx_, dy_, dz_;
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

  TR dist(int i, int j) const override { return d_(i, j); }
  TinyVector<TR, 3> displ(int i, int j) const override
  {
    return {dx_(i, j), dy_(i, j), dz_(i, j)};
  }

  DTRowView<TR> row(int i) const override
  {
    return {d_.row(i), dx_.row(i), dy_.row(i), dz_.row(i)};
  }
  const TR* row_distances(int i) const override { return d_.row(i); }
  DTRowView<TR> temp_row() const override
  {
    return {this->temp_r_.data(), temp_dx_.data(), temp_dy_.data(), temp_dz_.data()};
  }

  std::size_t storage_bytes() const override
  {
    return 4 * d_.rows() * d_.stride() * sizeof(TR);
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
