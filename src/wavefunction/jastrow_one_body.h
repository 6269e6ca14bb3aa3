// One-body Jastrow factor J1 = -sum_I sum_i U_{s(I)}(|r_I - r_i|)
// (paper Eq. 3, first term). Ion positions are fixed, so per-electron
// state only changes for the moved electron.
//
//  * OneBodyJastrowRef: stores per-(electron,ion) value/gradient/
//    laplacian matrices in the walker buffer (store-over-compute).
//  * OneBodyJastrowCurrent: keeps only per-electron accumulations
//    Vat / dVat / d2Vat and recomputes rows from the SoA AB distance
//    table with vectorized functor evaluations.
#ifndef QMCXX_WAVEFUNCTION_JASTROW_ONE_BODY_H
#define QMCXX_WAVEFUNCTION_JASTROW_ONE_BODY_H

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

template<typename TR>
class OneBodyJastrowBase : public WaveFunctionComponent<TR>
{
public:
  using typename WaveFunctionComponent<TR>::Pos;

  /// ions: the source set (for species layout); table_index: AB table in
  /// the electron set.
  OneBodyJastrowBase(const ParticleSet<TR>& ions, int num_elec, int table_index)
      : nel_(num_elec), nion_(ions.size()), table_index_(table_index),
        functors_(ions.num_species()), ion_group_(nion_)
  {
    for (int j = 0; j < nion_; ++j)
      ion_group_[j] = ions.group_id(j);
    ion_first_.resize(ions.num_species());
    ion_last_.resize(ions.num_species());
    for (int g = 0; g < ions.num_species(); ++g)
    {
      ion_first_[g] = ions.first(g);
      ion_last_[g] = ions.last(g);
    }
  }

  void add_functor(int ion_species, std::shared_ptr<CubicBsplineFunctor<TR>> f)
  {
    functors_[ion_species] = std::move(f);
  }

  const CubicBsplineFunctor<TR>& functor(int species) const { return *functors_[species]; }

  /// NLPP fan from the AB table's virtual rows: the same reduction
  /// ratio() runs on the temp row, once per quadrature point.
  void ratios_virtual(ParticleSet<TR>& p, int k, const Pos* vpos, int nr,
                      double* ratios) override
  {
    (void)vpos;
    ScopedTimer timer(Kernel::J1);
    const auto& dt = p.table(table_index_);
    for (int q = 0; q < nr; ++q)
      ratios[q] = std::exp(log_ratio(dt.virtual_distances(q), k));
    this->reject_move(k);
  }

protected:
  /// log psi(r')/psi(R) for moving electron k to the position whose
  /// electron-ion distances are `dist` (a temp or virtual row).
  virtual FullPrecReal log_ratio(const TR* dist, int k) const = 0;

  int nel_;
  int nion_;
  int table_index_;
  std::vector<std::shared_ptr<CubicBsplineFunctor<TR>>> functors_;
  std::vector<int> ion_group_;
  std::vector<int> ion_first_, ion_last_;
};

// =====================================================================
// Reference implementation (AoS, store-over-compute)
// =====================================================================
template<typename TR>
class OneBodyJastrowRef : public OneBodyJastrowBase<TR>
{
public:
  using Base = OneBodyJastrowBase<TR>;
  using typename WaveFunctionComponent<TR>::Grad;
  using GradT = TinyVector<TR, 3>;

  OneBodyJastrowRef(const ParticleSet<TR>& ions, int num_elec, int table_index)
      : Base(ions, num_elec, table_index)
  {
    u_.resize(num_elec, this->nion_);
    lu_.resize(num_elec, this->nion_);
    gu_.assign(static_cast<std::size_t>(num_elec) * this->nion_, GradT{});
    cur_u_.assign(this->nion_, TR(0));
    cur_lu_.assign(this->nion_, TR(0));
    cur_gu_.assign(this->nion_, GradT{});
  }

  std::string name() const override { return "J1(Ref)"; }

  std::unique_ptr<WaveFunctionComponent<TR>> clone() const override
  {
    auto c = std::make_unique<OneBodyJastrowRef<TR>>(*this);
    return c;
  }

  double evaluate_log(ParticleSet<TR>& p, std::vector<Grad>& g, std::vector<double>& l) override
  {
    ScopedTimer timer(Kernel::J1);
    auto& dt = p.template table_as<AosDistanceTableAB<TR>>(this->table_index_);
    FullPrecReal logval = 0.0;
    for (int i = 0; i < this->nel_; ++i)
    {
      for (int j = 0; j < this->nion_; ++j)
      {
        const auto& f = this->functor(this->ion_group_[j]);
        const TR r = dt.dist(i, j);
        TR du = 0, d2u = 0;
        const TR uij = f.evaluate(r, du, d2u);
        const TR du_r = (r < f.cutoff()) ? du / r : TR(0);
        u_(i, j) = uij;
        gu(i, j) = du_r * dt.displ(i, j);
        lu_(i, j) = d2u + TR(2) * du_r;
        logval -= static_cast<double>(uij);
      }
    }
    accumulate_gl(g, l);
    this->log_value_ = logval;
    return logval;
  }

  double ratio(ParticleSet<TR>& p, int k) override
  {
    ScopedTimer timer(Kernel::J1);
    cur_valid_ = false;
    return std::exp(log_ratio(p.table(this->table_index_).temp_r(), k));
  }

  double ratio_grad(ParticleSet<TR>& p, int k, Grad& grad) override
  {
    ScopedTimer timer(Kernel::J1);
    auto& dt = p.template table_as<AosDistanceTableAB<TR>>(this->table_index_);
    const TR* tr = dt.temp_r();
    const auto& tdr = dt.temp_dr();
    FullPrecReal delta = 0.0;
    GradT gsum{};
    for (int j = 0; j < this->nion_; ++j)
    {
      const auto& f = this->functor(this->ion_group_[j]);
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
    grad = Grad{static_cast<double>(gsum[0]), static_cast<double>(gsum[1]),
                static_cast<double>(gsum[2])};
    return std::exp(-delta);
  }

  Grad eval_grad(ParticleSet<TR>& p, int k) override
  {
    (void)p;
    GradT gsum{};
    for (int j = 0; j < this->nion_; ++j)
      gsum += gu(k, j);
    return Grad{static_cast<double>(gsum[0]), static_cast<double>(gsum[1]),
                static_cast<double>(gsum[2])};
  }

  void accept_move(ParticleSet<TR>& p, int k) override
  {
    ScopedTimer timer(Kernel::J1);
    if (!cur_valid_)
    {
      Grad dummy;
      ratio_grad(p, k, dummy);
    }
    for (int j = 0; j < this->nion_; ++j)
    {
      u_(k, j) = cur_u_[j];
      gu(k, j) = cur_gu_[j];
      lu_(k, j) = cur_lu_[j];
    }
    this->log_value_ -= cur_delta_;
    cur_valid_ = false;
  }

  void reject_move(int) override { cur_valid_ = false; }

  void evaluate_gl(ParticleSet<TR>& p, std::vector<Grad>& g, std::vector<double>& l) override
  {
    (void)p;
    ScopedTimer timer(Kernel::J1);
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
  FullPrecReal log_ratio(const TR* dist, int k) const override
  {
    FullPrecReal delta = 0.0;
    for (int j = 0; j < this->nion_; ++j)
      delta += static_cast<double>(this->functor(this->ion_group_[j]).evaluate(dist[j])) -
          static_cast<double>(u_(k, j));
    return -delta;
  }

private:
  GradT& gu(int i, int j) { return gu_[static_cast<std::size_t>(i) * this->nion_ + j]; }
  const GradT& gu(int i, int j) const
  {
    return gu_[static_cast<std::size_t>(i) * this->nion_ + j];
  }

  void accumulate_gl(std::vector<Grad>& g, std::vector<double>& l) const
  {
    for (int i = 0; i < this->nel_; ++i)
    {
      GradT gsum{};
      TR lsum = 0;
      for (int j = 0; j < this->nion_; ++j)
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
class OneBodyJastrowCurrent : public OneBodyJastrowBase<TR>
{
public:
  using Base = OneBodyJastrowBase<TR>;
  using typename WaveFunctionComponent<TR>::Grad;

  OneBodyJastrowCurrent(const ParticleSet<TR>& ions, int num_elec, int table_index)
      : Base(ions, num_elec, table_index)
  {
    const std::size_t np = getAlignedSize<TR>(num_elec);
    vat_.assign(np, TR(0));
    d2vat_.assign(np, TR(0));
    dvat_.resize(num_elec);
    const std::size_t mp = getAlignedSize<TR>(this->nion_);
    for (auto* w : {&cur_u_, &cur_dur_, &cur_d2u_})
      w->assign(mp, TR(0));
  }

  std::string name() const override { return "J1(Current)"; }

  std::unique_ptr<WaveFunctionComponent<TR>> clone() const override
  {
    auto c = std::make_unique<OneBodyJastrowCurrent<TR>>(*this);
    return c;
  }

  double evaluate_log(ParticleSet<TR>& p, std::vector<Grad>& g, std::vector<double>& l) override
  {
    ScopedTimer timer(Kernel::J1);
    const auto& dt = p.table(this->table_index_);
    FullPrecReal logval = 0.0;
    for (int i = 0; i < this->nel_; ++i)
    {
      const DTRowView<TR> row = dt.row(p, i);
      const auto sums = row_sums(row.d, row.dx, row.dy, row.dz);
      vat_[i] = sums.u;
      d2vat_[i] = sums.d2;
      dvat_.assign(i, TinyVector<TR, 3>{sums.gx, sums.gy, sums.gz});
      logval -= static_cast<double>(sums.u);
    }
    accumulate_gl(g, l);
    this->log_value_ = logval;
    return logval;
  }

  double ratio(ParticleSet<TR>& p, int k) override
  {
    ScopedTimer timer(Kernel::J1);
    cur_valid_ = false;
    return std::exp(log_ratio(p.table(this->table_index_).temp_r(), k));
  }

  double ratio_grad(ParticleSet<TR>& p, int k, Grad& grad) override
  {
    ScopedTimer timer(Kernel::J1);
    const auto& dt = p.table(this->table_index_);
    const DTRowView<TR> trow = dt.temp_row();
    const auto sums = row_sums(trow.d, trow.dx, trow.dy, trow.dz);
    cur_sums_ = sums;
    cur_valid_ = true;
    grad = Grad{static_cast<double>(sums.gx), static_cast<double>(sums.gy),
                static_cast<double>(sums.gz)};
    return std::exp(static_cast<double>(vat_[k]) - static_cast<double>(sums.u));
  }

  Grad eval_grad(ParticleSet<TR>& p, int k) override
  {
    (void)p;
    const auto gk = dvat_[k];
    return Grad{static_cast<double>(gk[0]), static_cast<double>(gk[1]),
                static_cast<double>(gk[2])};
  }

  void accept_move(ParticleSet<TR>& p, int k) override
  {
    ScopedTimer timer(Kernel::J1);
    if (!cur_valid_)
    {
      Grad dummy;
      ratio_grad(p, k, dummy);
    }
    this->log_value_ -= static_cast<double>(cur_sums_.u) - static_cast<double>(vat_[k]);
    vat_[k] = cur_sums_.u;
    d2vat_[k] = cur_sums_.d2;
    dvat_.assign(k, TinyVector<TR, 3>{cur_sums_.gx, cur_sums_.gy, cur_sums_.gz});
    cur_valid_ = false;
  }

  void reject_move(int) override { cur_valid_ = false; }

  void evaluate_gl(ParticleSet<TR>& p, std::vector<Grad>& g, std::vector<double>& l) override
  {
    (void)p;
    ScopedTimer timer(Kernel::J1);
    accumulate_gl(g, l);
  }

  void register_data(PooledBuffer& buf) override
  {
    buf.template reserve<TR>(5 * this->nel_);
    buf.template reserve<double>(1);
  }

  void update_buffer(PooledBuffer& buf) override
  {
    buf.put(vat_.data(), this->nel_);
    buf.put(d2vat_.data(), this->nel_);
    for (unsigned d = 0; d < 3; ++d)
      buf.put(dvat_.data(d), this->nel_);
    buf.put(this->log_value_);
  }

  void copy_from_buffer(ParticleSet<TR>& p, PooledBuffer& buf) override
  {
    (void)p;
    buf.get(vat_.data(), this->nel_);
    buf.get(d2vat_.data(), this->nel_);
    for (unsigned d = 0; d < 3; ++d)
      buf.get(dvat_.data(d), this->nel_);
    buf.get(this->log_value_);
  }

protected:
  FullPrecReal log_ratio(const TR* dist, int k) const override
  {
    FullPrecReal unew = 0.0;
    for (int gI = 0; gI < static_cast<int>(this->functors_.size()); ++gI)
    {
      const int first = this->ion_first_[gI];
      const int count = this->ion_last_[gI] - first;
      unew += static_cast<double>(this->functor(gI).evaluateV(dist + first, count));
    }
    return static_cast<double>(vat_[k]) - unew;
  }

private:
  struct RowSums
  {
    TR u = 0, d2 = 0, gx = 0, gy = 0, gz = 0;
  };

  RowSums row_sums(const TR* dist, const TR* dx, const TR* dy, const TR* dz)
  {
    RowSums s;
    for (int gI = 0; gI < static_cast<int>(this->functors_.size()); ++gI)
    {
      const int first = this->ion_first_[gI];
      const int count = this->ion_last_[gI] - first;
      this->functor(gI).evaluateVGL(dist + first, cur_u_.data() + first,
                                    cur_dur_.data() + first, cur_d2u_.data() + first, count);
      TR u = 0, d2 = 0, gx = 0, gy = 0, gz = 0;
      const TR* __restrict cu = cur_u_.data() + first;
      const TR* __restrict cdu = cur_dur_.data() + first;
      const TR* __restrict cd2 = cur_d2u_.data() + first;
#pragma omp simd reduction(+ : u, d2, gx, gy, gz)
      for (int j = 0; j < count; ++j)
      {
        u += cu[j];
        d2 += cd2[j] + TR(2) * cdu[j];
        gx += cdu[j] * dx[first + j];
        gy += cdu[j] * dy[first + j];
        gz += cdu[j] * dz[first + j];
      }
      s.u += u;
      s.d2 += d2;
      s.gx += gx;
      s.gy += gy;
      s.gz += gz;
    }
    return s;
  }

  void accumulate_gl(std::vector<Grad>& g, std::vector<double>& l) const
  {
    for (int i = 0; i < this->nel_; ++i)
    {
      const auto gi = dvat_[i];
      for (unsigned d = 0; d < 3; ++d)
        g[i][d] += static_cast<double>(gi[d]);
      l[i] -= static_cast<double>(d2vat_[i]);
    }
  }

  aligned_vector<TR> vat_, d2vat_;
  VectorSoaContainer<TR, 3> dvat_;
  aligned_vector<TR> cur_u_, cur_dur_, cur_d2u_;
  RowSums cur_sums_;
  bool cur_valid_ = false;
};

} // namespace qmcxx

#endif
