// Two-body Jastrow factor J2 = -sum_{i<j} u_{s(i)s(j)}(r_ij).
//
// Two implementations spanning the paper's optimization arc:
//
//  * TwoBodyJastrowRef (Sec. 6.1): the store-over-compute policy. Full
//    N x N matrices of pair values, gradients (AoS TinyVector) and
//    laplacian terms are precomputed, kept in the walker buffer
//    (5 N^2 sizeof(T) per walker) and retrieved during the updates.
//
//  * TwoBodyJastrowCurrent (Sec. 7.5): compute-on-the-fly. Only the
//    per-particle accumulations Uat / dUat / d2Uat (5 N scalars) are
//    retained; pair rows are recomputed from the SoA distance-table rows
//    with vectorized functor evaluations whenever needed; only a
//    from-scratch evaluate_log asks the table for every committed row.
//
// Conventions: dr(i,j) = r_j - r_i (matching the distance tables);
// log psi contribution = -sum_{i<j} u; grad_i log psi =
// +sum_j (u'/r) dr(i,j); lap_i log psi = -sum_j (u'' + 2 u'/r).
#ifndef QMCXX_WAVEFUNCTION_JASTROW_TWO_BODY_H
#define QMCXX_WAVEFUNCTION_JASTROW_TWO_BODY_H

#include <cmath>
#include <memory>
#include <vector>

#include "containers/matrix.h"
#include "instrument/timer.h"
#include "numerics/cubic_bspline_1d.h"
#include "particle/distance_table_aos.h"
#include "particle/distance_table_soa.h"
#include "wavefunction/wavefunction_component.h"

namespace qmcxx
{

/// Shared functor bookkeeping: one CubicBsplineFunctor per (group,group)
/// pair, symmetric.
template<typename TR>
class TwoBodyJastrowBase : public WaveFunctionComponent<TR>
{
public:
  using typename WaveFunctionComponent<TR>::Pos;

  TwoBodyJastrowBase(int num_elec, int num_groups, int table_index)
      : nel_(num_elec), ngroups_(num_groups), table_index_(table_index),
        functors_(num_groups * num_groups)
  {}

  void add_functor(int g1, int g2, std::shared_ptr<CubicBsplineFunctor<TR>> f)
  {
    functors_[g1 * ngroups_ + g2] = f;
    functors_[g2 * ngroups_ + g1] = std::move(f);
  }

  const CubicBsplineFunctor<TR>& functor(int g1, int g2) const
  {
    return *functors_[g1 * ngroups_ + g2];
  }

  /// NLPP fan from the AA table's virtual rows: the same reduction
  /// ratio() runs on the temp row, once per quadrature point.
  void ratios_virtual(ParticleSet<TR>& p, int k, const Pos* vpos, int nr,
                      double* ratios) override
  {
    (void)vpos;
    ScopedTimer timer(Kernel::J2);
    const auto& dt = p.table(table_index_);
    for (int q = 0; q < nr; ++q)
      ratios[q] = std::exp(log_ratio(p, dt.virtual_distances(q), k));
    this->reject_move(k);
  }

protected:
  /// log psi(r')/psi(R) for moving electron k to the position whose
  /// electron-electron distances are `dist` (a temp or virtual row, the
  /// self entry k ignored).
  virtual FullPrecReal log_ratio(const ParticleSet<TR>& p, const TR* dist, int k) const = 0;

  int nel_;
  int ngroups_;
  int table_index_;
  std::vector<std::shared_ptr<CubicBsplineFunctor<TR>>> functors_;
};

// =====================================================================
// Reference implementation (AoS, store-over-compute)
// =====================================================================
template<typename TR>
class TwoBodyJastrowRef : public TwoBodyJastrowBase<TR>
{
public:
  using Base = TwoBodyJastrowBase<TR>;
  using typename WaveFunctionComponent<TR>::Grad;
  using GradT = TinyVector<TR, 3>;

  TwoBodyJastrowRef(int num_elec, int num_groups, int table_index)
      : Base(num_elec, num_groups, table_index)
  {
    const int n = this->nel_;
    u_.resize(n, n);
    lu_.resize(n, n);
    gu_.assign(static_cast<std::size_t>(n) * n, GradT{});
    cur_u_.assign(n, TR(0));
    cur_lu_.assign(n, TR(0));
    cur_gu_.assign(n, GradT{});
  }

  std::string name() const override { return "J2(Ref)"; }

  std::unique_ptr<WaveFunctionComponent<TR>> clone() const override
  {
    auto c = std::make_unique<TwoBodyJastrowRef<TR>>(this->nel_, this->ngroups_,
                                                     this->table_index_);
    c->functors_ = this->functors_;
    return c;
  }

  double evaluate_log(ParticleSet<TR>& p, std::vector<Grad>& g, std::vector<double>& l) override
  {
    ScopedTimer timer(Kernel::J2);
    auto& dt = p.template table_as<AosDistanceTableAA<TR>>(this->table_index_);
    const int n = this->nel_;
    FullPrecReal logval = 0.0;
    for (int i = 0; i < n; ++i)
    {
      u_(i, i) = TR(0);
      lu_(i, i) = TR(0);
      gu(i, i) = GradT{};
      for (int j = i + 1; j < n; ++j)
      {
        const auto& f = this->functor(p.group_id(i), p.group_id(j));
        const TR r = dt.dist(i, j);
        TR du = 0, d2u = 0;
        const TR uij = f.evaluate(r, du, d2u);
        const TR du_r = (r < f.cutoff()) ? du / r : TR(0);
        u_(i, j) = uij;
        u_(j, i) = uij;
        const TinyVector<TR, 3> drij = dt.displ(i, j);
        gu(i, j) = du_r * drij;
        gu(j, i) = -(du_r * drij);
        const TR lterm = d2u + TR(2) * du_r;
        lu_(i, j) = lterm;
        lu_(j, i) = lterm;
        logval -= static_cast<double>(uij);
      }
    }
    accumulate_gl(g, l);
    this->log_value_ = logval;
    return logval;
  }

  double ratio(ParticleSet<TR>& p, int k) override
  {
    ScopedTimer timer(Kernel::J2);
    cur_valid_ = false;
    return std::exp(log_ratio(p, p.table(this->table_index_).temp_r(), k));
  }

  double ratio_grad(ParticleSet<TR>& p, int k, Grad& grad) override
  {
    ScopedTimer timer(Kernel::J2);
    auto& dt = p.template table_as<AosDistanceTableAA<TR>>(this->table_index_);
    const TR* tr = dt.temp_r();
    const auto& tdr = dt.temp_dr();
    FullPrecReal delta = 0.0;
    GradT gsum{};
    for (int j = 0; j < this->nel_; ++j)
    {
      if (j == k)
      {
        cur_u_[j] = TR(0);
        cur_lu_[j] = TR(0);
        cur_gu_[j] = GradT{};
        continue;
      }
      const auto& f = this->functor(p.group_id(k), p.group_id(j));
      TR du = 0, d2u = 0;
      const TR unew = f.evaluate(tr[j], du, d2u);
      const TR du_r = (tr[j] < f.cutoff()) ? du / tr[j] : TR(0);
      cur_u_[j] = unew;
      cur_gu_[j] = du_r * tdr[j];
      cur_lu_[j] = d2u + TR(2) * du_r;
      gsum += cur_gu_[j];
      delta += static_cast<double>(unew) - static_cast<double>(u_(k, j));
    }
    cur_delta_ = delta;
    cur_valid_ = true;
    grad = Grad(TinyVector<double, 3>{static_cast<double>(gsum[0]), static_cast<double>(gsum[1]),
                                      static_cast<double>(gsum[2])});
    return std::exp(-delta);
  }

  Grad eval_grad(ParticleSet<TR>& p, int k) override
  {
    (void)p;
    GradT gsum{};
    for (int j = 0; j < this->nel_; ++j)
      gsum += gu(k, j);
    return Grad{static_cast<double>(gsum[0]), static_cast<double>(gsum[1]),
                static_cast<double>(gsum[2])};
  }

  void accept_move(ParticleSet<TR>& p, int k) override
  {
    ScopedTimer timer(Kernel::J2);
    if (!cur_valid_)
    {
      // Plain ratio() was used (NLPP path never accepts, but keep the
      // protocol complete): rebuild the row with derivatives.
      Grad dummy;
      ratio_grad(p, k, dummy);
    }
    // Row + column updates of the stored AoS matrices.
    for (int j = 0; j < this->nel_; ++j)
    {
      if (j == k)
        continue;
      u_(k, j) = cur_u_[j];
      u_(j, k) = cur_u_[j];
      gu(k, j) = cur_gu_[j];
      gu(j, k) = -cur_gu_[j];
      lu_(k, j) = cur_lu_[j];
      lu_(j, k) = cur_lu_[j];
    }
    this->log_value_ -= cur_delta_;
    cur_valid_ = false;
  }

  void reject_move(int) override { cur_valid_ = false; }

  void evaluate_gl(ParticleSet<TR>& p, std::vector<Grad>& g, std::vector<double>& l) override
  {
    (void)p;
    ScopedTimer timer(Kernel::J2);
    accumulate_gl(g, l);
  }

  void register_data(PooledBuffer& buf) override
  {
    buf.template reserve<TR>(u_.rows() * u_.cols() * 2);
    buf.template reserve<TR>(gu_.size() * 3);
    buf.template reserve<double>(1);
  }

  void update_buffer(PooledBuffer& buf) override
  {
    buf.put(u_.data(), u_.rows() * u_.cols());
    buf.put(lu_.data(), lu_.rows() * lu_.cols());
    buf.put(reinterpret_cast<const TR*>(gu_.data()), gu_.size() * 3);
    buf.put(this->log_value_);
  }

  void copy_from_buffer(ParticleSet<TR>& p, PooledBuffer& buf) override
  {
    (void)p;
    buf.get(u_.data(), u_.rows() * u_.cols());
    buf.get(lu_.data(), lu_.rows() * lu_.cols());
    buf.get(reinterpret_cast<TR*>(gu_.data()), gu_.size() * 3);
    buf.get(this->log_value_);
  }

protected:
  FullPrecReal log_ratio(const ParticleSet<TR>& p, const TR* dist, int k) const override
  {
    FullPrecReal delta = 0.0; // u_new - u_old
    for (int j = 0; j < this->nel_; ++j)
    {
      if (j == k)
        continue;
      const auto& f = this->functor(p.group_id(k), p.group_id(j));
      delta += static_cast<double>(f.evaluate(dist[j])) - static_cast<double>(u_(k, j));
    }
    return -delta;
  }

private:
  GradT& gu(int i, int j) { return gu_[static_cast<std::size_t>(i) * this->nel_ + j]; }
  const GradT& gu(int i, int j) const
  {
    return gu_[static_cast<std::size_t>(i) * this->nel_ + j];
  }

  void accumulate_gl(std::vector<Grad>& g, std::vector<double>& l) const
  {
    const int n = this->nel_;
    for (int i = 0; i < n; ++i)
    {
      GradT gsum{};
      TR lsum = 0;
      for (int j = 0; j < n; ++j)
      {
        gsum += gu(i, j);
        lsum += lu_(i, j);
      }
      for (unsigned d = 0; d < 3; ++d)
        g[i][d] += static_cast<double>(gsum[d]);
      l[i] -= static_cast<double>(lsum);
    }
  }

  Matrix<TR> u_, lu_;
  std::vector<GradT> gu_;
  std::vector<TR> cur_u_, cur_lu_;
  std::vector<GradT> cur_gu_;
  FullPrecReal cur_delta_ = 0.0;
  bool cur_valid_ = false;
};

// =====================================================================
// Current implementation (SoA, compute-on-the-fly)
// =====================================================================
template<typename TR>
class TwoBodyJastrowCurrent : public TwoBodyJastrowBase<TR>
{
public:
  using Base = TwoBodyJastrowBase<TR>;
  using typename WaveFunctionComponent<TR>::Grad;

  TwoBodyJastrowCurrent(int num_elec, int num_groups, int table_index)
      : Base(num_elec, num_groups, table_index)
  {
    const std::size_t np = getAlignedSize<TR>(num_elec);
    uat_.assign(np, TR(0));
    d2uat_.assign(np, TR(0));
    duat_.resize(num_elec);
    for (auto* w : {&cur_u_, &cur_dur_, &cur_d2u_, &old_u_, &old_dur_, &old_d2u_})
      w->assign(np, TR(0));
  }

  std::string name() const override { return "J2(Current)"; }

  std::unique_ptr<WaveFunctionComponent<TR>> clone() const override
  {
    auto c = std::make_unique<TwoBodyJastrowCurrent<TR>>(this->nel_, this->ngroups_,
                                                         this->table_index_);
    c->functors_ = this->functors_;
    return c;
  }

  double evaluate_log(ParticleSet<TR>& p, std::vector<Grad>& g, std::vector<double>& l) override
  {
    const auto& dt = p.table(this->table_index_);
    const int n = this->nel_;
    FullPrecReal logval = 0.0;
    for (int i = 0; i < n; ++i)
    {
      const DTRowView<TR> row = dt.row(p, i); // DistTable time, not J2
      ScopedTimer timer(Kernel::J2);
      compute_row_vgl(p, row.d, i, cur_u_.data(), cur_dur_.data(), cur_d2u_.data());
      TR usum = 0, d2sum = 0;
      TR gx = 0, gy = 0, gz = 0;
      const TR* __restrict du = cur_dur_.data();
      const TR* __restrict dx = row.dx;
      const TR* __restrict dy = row.dy;
      const TR* __restrict dz = row.dz;
#pragma omp simd reduction(+ : usum, d2sum, gx, gy, gz)
      for (int j = 0; j < n; ++j)
      {
        usum += cur_u_[j];
        d2sum += cur_d2u_[j] + TR(2) * du[j];
        gx += du[j] * dx[j];
        gy += du[j] * dy[j];
        gz += du[j] * dz[j];
      }
      uat_[i] = usum;
      d2uat_[i] = d2sum;
      duat_.assign(i, TinyVector<TR, 3>{gx, gy, gz});
      logval -= 0.5 * static_cast<double>(usum);
    }
    ScopedTimer timer(Kernel::J2);
    accumulate_gl(g, l);
    this->log_value_ = logval;
    return logval;
  }

  double ratio(ParticleSet<TR>& p, int k) override
  {
    ScopedTimer timer(Kernel::J2);
    cur_valid_ = false;
    return std::exp(log_ratio(p, p.table(this->table_index_).temp_r(), k));
  }

  double ratio_grad(ParticleSet<TR>& p, int k, Grad& grad) override
  {
    ScopedTimer timer(Kernel::J2);
    const auto& dt = p.table(this->table_index_);
    const DTRowView<TR> trow = dt.temp_row();
    compute_row_vgl(p, trow.d, k, cur_u_.data(), cur_dur_.data(), cur_d2u_.data());
    const int n = this->nel_;
    TR usum = 0, gx = 0, gy = 0, gz = 0;
    const TR* __restrict du = cur_dur_.data();
    const TR* __restrict dx = trow.dx;
    const TR* __restrict dy = trow.dy;
    const TR* __restrict dz = trow.dz;
#pragma omp simd reduction(+ : usum, gx, gy, gz)
    for (int j = 0; j < n; ++j)
    {
      usum += cur_u_[j];
      gx += du[j] * dx[j];
      gy += du[j] * dy[j];
      gz += du[j] * dz[j];
    }
    cur_unew_ = static_cast<double>(usum);
    cur_valid_ = true;
    grad = Grad{static_cast<double>(gx), static_cast<double>(gy), static_cast<double>(gz)};
    return std::exp(static_cast<double>(uat_[k]) - cur_unew_);
  }

  Grad eval_grad(ParticleSet<TR>& p, int k) override
  {
    (void)p;
    const auto gk = duat_[k];
    return Grad{static_cast<double>(gk[0]), static_cast<double>(gk[1]),
                static_cast<double>(gk[2])};
  }

  void accept_move(ParticleSet<TR>& p, int k) override
  {
    ScopedTimer timer(Kernel::J2);
    const auto& dt = p.table(this->table_index_);
    if (!cur_valid_)
    {
      Grad dummy;
      ratio_grad(p, k, dummy);
    }
    const int n = this->nel_;
    // Old pair quantities from the committed row k: the row prepare_move
    // filled from the current positions, served without recomputing.
    const DTRowView<TR> orow = dt.row(p, k);
    const DTRowView<TR> trow = dt.temp_row();
    compute_row_vgl(p, orow.d, k, old_u_.data(), old_dur_.data(), old_d2u_.data());

    const TR* __restrict nu = cur_u_.data();
    const TR* __restrict ndu = cur_dur_.data();
    const TR* __restrict nd2 = cur_d2u_.data();
    const TR* __restrict ou = old_u_.data();
    const TR* __restrict odu = old_dur_.data();
    const TR* __restrict od2 = old_d2u_.data();
    const TR* __restrict ndx = trow.dx;
    const TR* __restrict ndy = trow.dy;
    const TR* __restrict ndz = trow.dz;
    const TR* __restrict odx = orow.dx;
    const TR* __restrict ody = orow.dy;
    const TR* __restrict odz = orow.dz;

    TR usum = 0, d2sum = 0, gx = 0, gy = 0, gz = 0;
    TR* __restrict uat = uat_.data();
    TR* __restrict d2uat = d2uat_.data();
    TR* __restrict dux = duat_.data(0);
    TR* __restrict duy = duat_.data(1);
    TR* __restrict duz = duat_.data(2);
#pragma omp simd reduction(+ : usum, d2sum, gx, gy, gz)
    for (int j = 0; j < n; ++j)
    {
      uat[j] += nu[j] - ou[j];
      d2uat[j] += (nd2[j] + TR(2) * ndu[j]) - (od2[j] + TR(2) * odu[j]);
      // Pair (j,k) gradient term: dr(j,k) = -dr(k,j).
      dux[j] += -ndu[j] * ndx[j] + odu[j] * odx[j];
      duy[j] += -ndu[j] * ndy[j] + odu[j] * ody[j];
      duz[j] += -ndu[j] * ndz[j] + odu[j] * odz[j];
      usum += nu[j];
      d2sum += nd2[j] + TR(2) * ndu[j];
      gx += ndu[j] * ndx[j];
      gy += ndu[j] * ndy[j];
      gz += ndu[j] * ndz[j];
    }
    this->log_value_ -= cur_unew_ - static_cast<double>(uat[k]);
    // The j-loop above also touched j == k with zero old/new terms
    // (cur/old arrays are zeroed at the skip index), so overwrite k last.
    uat[k] = usum;
    d2uat[k] = d2sum;
    dux[k] = gx;
    duy[k] = gy;
    duz[k] = gz;
    cur_valid_ = false;
  }

  void reject_move(int) override { cur_valid_ = false; }

  void evaluate_gl(ParticleSet<TR>& p, std::vector<Grad>& g, std::vector<double>& l) override
  {
    (void)p;
    ScopedTimer timer(Kernel::J2);
    accumulate_gl(g, l);
  }

  void register_data(PooledBuffer& buf) override
  {
    buf.template reserve<TR>(5 * this->nel_);
    buf.template reserve<double>(1);
  }

  void update_buffer(PooledBuffer& buf) override
  {
    buf.put(uat_.data(), this->nel_);
    buf.put(d2uat_.data(), this->nel_);
    for (unsigned d = 0; d < 3; ++d)
      buf.put(duat_.data(d), this->nel_);
    buf.put(this->log_value_);
  }

  void copy_from_buffer(ParticleSet<TR>& p, PooledBuffer& buf) override
  {
    (void)p;
    buf.get(uat_.data(), this->nel_);
    buf.get(d2uat_.data(), this->nel_);
    for (unsigned d = 0; d < 3; ++d)
      buf.get(duat_.data(d), this->nel_);
    buf.get(this->log_value_);
  }

protected:
  FullPrecReal log_ratio(const ParticleSet<TR>& p, const TR* dist, int k) const override
  {
    return static_cast<double>(uat_[k]) - sum_u(p, dist, k);
  }

private:
  /// Vectorized functor evaluation over a distance row, per group
  /// segment; entries at the skip index (target particle) are zeroed.
  void compute_row_vgl(const ParticleSet<TR>& p, const TR* dist, int k, TR* u, TR* du_r,
                       TR* d2u) const
  {
    const int gk = p.group_id(k);
    for (int g2 = 0; g2 < this->ngroups_; ++g2)
    {
      const int first = p.first(g2);
      const int count = p.last(g2) - first;
      const std::ptrdiff_t skip = (k >= first && k < first + count) ? k - first : -1;
      this->functor(gk, g2).evaluateVGL(dist + first, u + first, du_r + first, d2u + first, count,
                                        skip);
    }
  }

  double sum_u(const ParticleSet<TR>& p, const TR* dist, int k) const
  {
    const int gk = p.group_id(k);
    FullPrecReal s = 0.0;
    for (int g2 = 0; g2 < this->ngroups_; ++g2)
    {
      const int first = p.first(g2);
      const int count = p.last(g2) - first;
      const std::ptrdiff_t skip = (k >= first && k < first + count) ? k - first : -1;
      s += static_cast<double>(this->functor(gk, g2).evaluateV(dist + first, count, skip));
    }
    return s;
  }

  void accumulate_gl(std::vector<Grad>& g, std::vector<double>& l) const
  {
    for (int i = 0; i < this->nel_; ++i)
    {
      const auto gi = duat_[i];
      for (unsigned d = 0; d < 3; ++d)
        g[i][d] += static_cast<double>(gi[d]);
      l[i] -= static_cast<double>(d2uat_[i]);
    }
  }

  aligned_vector<TR> uat_, d2uat_;
  VectorSoaContainer<TR, 3> duat_;
  aligned_vector<TR> cur_u_, cur_dur_, cur_d2u_;
  aligned_vector<TR> old_u_, old_dur_, old_d2u_;
  FullPrecReal cur_unew_ = 0.0;
  bool cur_valid_ = false;
};

} // namespace qmcxx

#endif
