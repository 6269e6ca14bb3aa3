// Slater determinant component D = det|A|, A(i,j) = phi_j(r_i).
//
// Ratios use the matrix determinant lemma (paper Eq. 6): a dot product
// of the k-th row of A^-1 with the new orbital vector. Accepted moves
// update A^-1 with the Sherman-Morrison formula (the "DetUpdate" kernel,
// BLAS2: one gemv + one ger). The inverse is stored *transposed*
// (minv_(i,j) = (A^-1)(j,i)) so both the ratio and the gradient dots are
// unit-stride row traversals.
//
// Mixed precision (paper Sec. 7.2): the inverse and the stored orbital
// derivative matrices live in TR; evaluate_log / recompute rebuild the
// inverse from scratch in double so accumulated single-precision drift
// is periodically repaired.
#ifndef QMCXX_WAVEFUNCTION_DIRAC_DETERMINANT_H
#define QMCXX_WAVEFUNCTION_DIRAC_DETERMINANT_H

#include <cmath>
#include <memory>
#include <utility>

#include "containers/matrix.h"
#include "instrument/timer.h"
#include "numerics/linalg.h"
#include "wavefunction/spo_set.h"
#include "wavefunction/wavefunction_component.h"

namespace qmcxx
{

/// Per-crowd scratch of the batched determinant path: the shared SPO
/// batch (values/gradients/laplacians for every walker's proposed
/// position) plus the gathered positions. `last_k` records which
/// particle the batch was filled for, so mw_accept_reject can reuse the
/// rows instead of re-evaluating orbitals.
template<typename TR>
struct DiracDetMWResource : MWResource
{
  SPOVGLBatch<TR> vgl;
  std::vector<TinyVector<double, 3>> pos;
  int last_k = -1;
};

template<typename TR>
class DiracDeterminant : public WaveFunctionComponent<TR>
{
public:
  using typename WaveFunctionComponent<TR>::Grad;
  using Pos = TinyVector<double, 3>;

  /// Electrons [first, first+nel) of the ParticleSet belong to this
  /// determinant; the SPO set must provide at least nel orbitals.
  DiracDeterminant(std::shared_ptr<SPOSet<TR>> spos, int first, int nel)
      : spos_(std::move(spos)), first_(first), nel_(nel)
  {
    minv_.resize(nel, nel, /*pad_rows=*/true);
    dpsim_x_.resize(nel, nel, true);
    dpsim_y_.resize(nel, nel, true);
    dpsim_z_.resize(nel, nel, true);
    d2psim_.resize(nel, nel, true);
    const std::size_t np = getAlignedSize<TR>(nel);
    psiv_.assign(np, TR(0));
    d2psiv_.assign(np, TR(0));
    dpsiv_.resize(nel);
    workv_.assign(np, TR(0));
    rcopy_.assign(np, TR(0));
  }

  std::string name() const override { return "DiracDeterminant"; }

  std::unique_ptr<WaveFunctionComponent<TR>> clone() const override
  {
    // Shares the read-only SPO set (the paper's shared B-spline table);
    // private matrices are freshly allocated.
    return std::make_unique<DiracDeterminant<TR>>(spos_, first_, nel_);
  }

  int first() const { return first_; }
  int size() const { return nel_; }
  double phase_sign() const { return sign_; }
  std::uint64_t accepted_updates() const { return updates_since_recompute_; }

  double evaluate_log(ParticleSet<TR>& p, std::vector<Grad>& g, std::vector<double>& l) override
  {
    recompute(p);
    evaluate_gl(p, g, l);
    return this->log_value_;
  }

  /// Rebuild psiM / derivative matrices and invert in double precision
  /// (the mixed-precision "recompute from scratch", Sec. 7.2).
  void recompute(ParticleSet<TR>& p)
  {
    Matrix<double> a(nel_, nel_);
    for (int i = 0; i < nel_; ++i)
    {
      // Per-row gather in the from-scratch rebuild: recompute runs at
      // the Sec. 7.2 cadence, off the per-move hot path.
      // qmcxx-lint: allow(aos-in-hot-path)
      spos_->evaluate_vgl(p.pos(first_ + i), psiv_.data(), dpsiv_, d2psiv_.data());
      for (int j = 0; j < nel_; ++j)
        a(i, j) = static_cast<double>(psiv_[j]);
      copy_derivative_rows(i);
    }
    Matrix<double> ainv;
    FullPrecReal logdet = 0, sign = 1;
    linalg::invert_matrix(std::move(a), ainv, logdet, sign);
    for (int i = 0; i < nel_; ++i)
      for (int j = 0; j < nel_; ++j)
        minv_(i, j) = static_cast<TR>(ainv(j, i)); // transposed storage
    this->log_value_ = logdet;
    sign_ = sign;
    updates_since_recompute_ = 0;
  }

  /// True when particle k belongs to this determinant's spin block.
  bool owns(int k) const { return k >= first_ && k < first_ + nel_; }

  double ratio(ParticleSet<TR>& p, int k) override
  {
    if (!owns(k))
      return 1.0; // moves of the other spin leave this determinant fixed
    const int kl = k - first_;
    spos_->evaluate_v(p.active_pos(), psiv_.data());
    ScopedTimer timer(Kernel::DetRatio);
    cur_ratio_ = static_cast<double>(linalg::dot_n(psiv_.data(), inverse_row(kl),
                                                   static_cast<std::size_t>(nel_)));
    cur_vgl_valid_ = false;
    return cur_ratio_;
  }

  /// Batched NLPP fan: hand all nr quadrature positions to the SPO set
  /// in one mw_evaluate_v call (Bspline-v runs crowd-batched over the
  /// fan), then reduce every row against the same inverse row. Bitwise
  /// identical to the scalar make_move/ratio/reject_move sweep: the
  /// batched spline kernels match the scalar ones bitwise, the proposed
  /// positions reach the coordinate fold verbatim either way, and the
  /// dot reduction is the same code against the same inverse row.
  void ratios_virtual(ParticleSet<TR>& p, int k, const Pos* vpos, int nr,
                      double* ratios) override
  {
    (void)p;
    if (!owns(k))
    {
      for (int q = 0; q < nr; ++q)
        ratios[q] = 1.0; // moves of the other spin leave this determinant fixed
      return;
    }
    if (nr <= 0)
      return;
    const int kl = k - first_;
    if (vq_rows_ < nr)
    {
      vq_scratch_.resize(nr, spos_->num_orbitals(), /*pad_rows=*/true);
      vq_rows_ = nr;
    }
    spos_->mw_evaluate_v(vpos, nr, vq_scratch_.data(), vq_scratch_.stride());
    ScopedTimer timer(Kernel::DetRatio);
    // One effective-row fetch for the whole fan: inverse_row is state-
    // free (the delayed subclass recomputes the same corrected row on
    // every call), so reuse across quadrature points is exact.
    const TR* __restrict row = inverse_row(kl);
    for (int q = 0; q < nr; ++q)
      ratios[q] = static_cast<double>(
          linalg::dot_n(vq_scratch_.row(q), row, static_cast<std::size_t>(nel_)));
    // Same transient state as the scalar sweep ending on the last point.
    cur_ratio_ = ratios[nr - 1];
    cur_vgl_valid_ = false;
  }

  double ratio_grad(ParticleSet<TR>& p, int k, Grad& grad) override
  {
    if (!owns(k))
    {
      grad = Grad{};
      return 1.0;
    }
    const int kl = k - first_;
    spos_->evaluate_vgl(p.active_pos(), psiv_.data(), dpsiv_, d2psiv_.data());
    ScopedTimer timer(Kernel::DetRatio);
    reduce_ratio_grad(psiv_.data(), dpsiv_.data(0), dpsiv_.data(1), dpsiv_.data(2),
                      inverse_row(kl), cur_ratio_, grad);
    cur_vgl_valid_ = true;
    return cur_ratio_;
  }

  Grad eval_grad(ParticleSet<TR>& p, int k) override
  {
    (void)p;
    if (!owns(k))
      return Grad{};
    const int kl = k - first_;
    const TR* __restrict row = inverse_row(kl);
    TR gx = 0, gy = 0, gz = 0;
    const TR* __restrict dvx = dpsim_x_.row(kl);
    const TR* __restrict dvy = dpsim_y_.row(kl);
    const TR* __restrict dvz = dpsim_z_.row(kl);
#pragma omp simd reduction(+ : gx, gy, gz)
    for (int j = 0; j < nel_; ++j)
    {
      gx += dvx[j] * row[j];
      gy += dvy[j] * row[j];
      gz += dvz[j] * row[j];
    }
    return Grad{static_cast<double>(gx), static_cast<double>(gy), static_cast<double>(gz)};
  }

  void accept_move(ParticleSet<TR>& p, int k) override
  {
    if (!owns(k))
      return;
    const int kl = k - first_;
    if (!cur_vgl_valid_)
    {
      // ratio() path accepted: refresh derivative rows for the new
      // position before the inverse update.
      spos_->evaluate_vgl(p.active_pos(), psiv_.data(), dpsiv_, d2psiv_.data());
    }
    commit_from_rows(p, kl, psiv_.data(), dpsiv_.data(0), dpsiv_.data(1), dpsiv_.data(2),
                     d2psiv_.data());
  }

  void reject_move(int) override { cur_vgl_valid_ = false; }

  // ---- multi-walker (crowd) batched path --------------------------------
  std::unique_ptr<MWResource> make_mw_resource(int num_walkers) const override
  {
    auto r = std::make_unique<DiracDetMWResource<TR>>();
    r->vgl.resize(num_walkers, spos_->num_orbitals());
    r->pos.resize(num_walkers);
    return r;
  }

  /// Batched ratio+gradient: gather every walker's proposed position,
  /// evaluate the shared SPO set once for the whole crowd (amortizing
  /// the spline-table walk setup, timer scopes and virtual dispatch),
  /// then reduce each walker's rows against its own stored inverse.
  void mw_ratio_grad(const RefVector<WaveFunctionComponent<TR>>& wfc_list,
                     const RefVector<ParticleSet<TR>>& p_list, int k, double* ratios, Grad* grads,
                     MWResource* resource) override
  {
    const int nw = static_cast<int>(wfc_list.size());
    if (!owns(k))
    {
      for (int iw = 0; iw < nw; ++iw)
      {
        ratios[iw] = 1.0;
        grads[iw] = Grad{};
      }
      return;
    }
    auto* res = dynamic_cast<DiracDetMWResource<TR>*>(resource);
    if (!res || static_cast<int>(res->pos.size()) < nw)
    {
      WaveFunctionComponent<TR>::mw_ratio_grad(wfc_list, p_list, k, ratios, grads, resource);
      return;
    }
    for (int iw = 0; iw < nw; ++iw)
      res->pos[iw] = p_list[iw].get().active_pos();
    spos_->mw_evaluate_vgl(res->pos.data(), nw, res->vgl);
    res->last_k = k;

    const int kl = k - first_;
    ScopedTimer timer(Kernel::DetRatio);
    for (int iw = 0; iw < nw; ++iw)
    {
      auto& det = static_cast<DiracDeterminant<TR>&>(wfc_list[iw].get());
      Grad grad{};
      det.reduce_ratio_grad(res->vgl.psi.row(iw), res->vgl.gx.row(iw), res->vgl.gy.row(iw),
                            res->vgl.gz.row(iw), det.inverse_row(kl), det.cur_ratio_, grad);
      // The batch rows, not this walker's member scratch, hold the
      // proposed-position orbitals; a scalar accept_move after this call
      // must re-evaluate, a batched one reuses the rows.
      det.cur_vgl_valid_ = false;
      ratios[iw] = det.cur_ratio_;
      grads[iw] = grad;
    }
  }

  /// Batched accept/reject reusing the SPO rows mw_ratio_grad staged for
  /// this particle; falls back to the flat loop (which re-evaluates the
  /// orbitals per accepted walker) if the resource is stale or absent.
  void mw_accept_reject(const RefVector<WaveFunctionComponent<TR>>& wfc_list,
                        const RefVector<ParticleSet<TR>>& p_list, int k,
                        const std::vector<char>& is_accepted, MWResource* resource) override
  {
    if (!owns(k))
      return; // moves of the other spin leave these determinants fixed
    auto* res = dynamic_cast<DiracDetMWResource<TR>*>(resource);
    if (!res || res->last_k != k)
    {
      WaveFunctionComponent<TR>::mw_accept_reject(wfc_list, p_list, k, is_accepted, resource);
      return;
    }
    const int kl = k - first_;
    for (std::size_t iw = 0; iw < wfc_list.size(); ++iw)
    {
      auto& det = static_cast<DiracDeterminant<TR>&>(wfc_list[iw].get());
      if (is_accepted[iw])
        det.commit_from_rows(p_list[iw].get(), kl, res->vgl.psi.row(iw), res->vgl.gx.row(iw),
                             res->vgl.gy.row(iw), res->vgl.gz.row(iw), res->vgl.d2.row(iw));
      else
        det.reject_move(k);
    }
    res->last_k = -1; // rows are consumed once the inverses move on
  }

  void evaluate_gl(ParticleSet<TR>& p, std::vector<Grad>& g, std::vector<double>& l) override
  {
    (void)p;
    ScopedTimer timer(Kernel::Other);
    for (int i = 0; i < nel_; ++i)
    {
      const TR* __restrict row = minv_.row(i);
      const TR* __restrict dvx = dpsim_x_.row(i);
      const TR* __restrict dvy = dpsim_y_.row(i);
      const TR* __restrict dvz = dpsim_z_.row(i);
      const TR* __restrict d2v = d2psim_.row(i);
      TR gx = 0, gy = 0, gz = 0, lap = 0;
#pragma omp simd reduction(+ : gx, gy, gz, lap)
      for (int j = 0; j < nel_; ++j)
      {
        gx += dvx[j] * row[j];
        gy += dvy[j] * row[j];
        gz += dvz[j] * row[j];
        lap += d2v[j] * row[j];
      }
      const FullPrecReal gxd = gx, gyd = gy, gzd = gz;
      g[first_ + i] += Grad{gxd, gyd, gzd};
      l[first_ + i] += static_cast<double>(lap) - (gxd * gxd + gyd * gyd + gzd * gzd);
    }
  }

  void register_data(PooledBuffer& buf) override
  {
    buf.template reserve<TR>(5 * minv_.rows() * minv_.stride());
    buf.template reserve<double>(2);
  }

  void update_buffer(PooledBuffer& buf) override
  {
    const std::size_t count = minv_.rows() * minv_.stride();
    buf.put(minv_.data(), count);
    buf.put(dpsim_x_.data(), count);
    buf.put(dpsim_y_.data(), count);
    buf.put(dpsim_z_.data(), count);
    buf.put(d2psim_.data(), count);
    buf.put(this->log_value_);
    buf.put(sign_);
  }

  void copy_from_buffer(ParticleSet<TR>& p, PooledBuffer& buf) override
  {
    (void)p;
    const std::size_t count = minv_.rows() * minv_.stride();
    buf.get(minv_.data(), count);
    buf.get(dpsim_x_.data(), count);
    buf.get(dpsim_y_.data(), count);
    buf.get(dpsim_z_.data(), count);
    buf.get(d2psim_.data(), count);
    buf.get(this->log_value_);
    buf.get(sign_);
  }

  /// Inverse-drift guard (paper Sec. 7.2). Samples
  /// `pol.drift_sample_rows` rotating rows of the inverse -- row indices
  /// derived from the generation counter only, so every crowd/thread
  /// decomposition samples the same rows of the same walker and chains
  /// stay bitwise-identical -- and computes the FullPrecReal residual
  /// ||psi_row . A^-1 - e_k||_inf from freshly staged SPO rows. A
  /// residual above tolerance triggers recompute_with_row reusing the
  /// staged row; `pol.refresh_interval` forces a periodic full rebuild.
  /// Read-only unless a refresh fires: double-precision residuals
  /// (~1e-12) never reach the default tolerance, so double chains are
  /// untouched by the guard.
  void monitor_inverse_drift(ParticleSet<TR>& p, const PrecisionPolicy& pol, int gen,
                             InverseDriftReport& rep) override
  {
    if (pol.refresh_interval > 0 && gen > 0 && gen % pol.refresh_interval == 0)
    {
      recompute(p);
      ++rep.refreshes;
      return; // freshly rebuilt: nothing left to sample this generation
    }
    const int nsample = nel_ < pol.drift_sample_rows ? nel_ : pol.drift_sample_rows;
    if (nsample <= 0 || !(pol.drift_tolerance > 0.0))
      return;
    if (drift_rows_ < nsample)
    {
      drift_scratch_.resize(nsample, spos_->num_orbitals(), /*pad_rows=*/true);
      drift_rows_ = nsample;
    }
    pos_scratch_.resize(static_cast<std::size_t>(nsample));
    for (int i = 0; i < nsample; ++i)
    {
      // Guard sampling at the Sec. 7.2 cadence, off the per-move hot path.
      // qmcxx-lint: allow(aos-in-hot-path)
      pos_scratch_[static_cast<std::size_t>(i)] = p.pos(first_ + sampled_row(gen, pol, i));
    }
    spos_->mw_evaluate_v(pos_scratch_.data(), nsample, drift_scratch_.data(),
                         drift_scratch_.stride());
    for (int i = 0; i < nsample; ++i)
    {
      const int kl = sampled_row(gen, pol, i);
      const TR* __restrict pv = drift_scratch_.row(i);
      // Max-norm of psi_row . A^-1 - e_kl; column m of A^-1 is row m of
      // the transposed store. Dots deliberately in full precision (lint
      // rule fullprec-drift-accumulator).
      FullPrecReal residual = 0.0;
      for (int m = 0; m < nel_; ++m)
      {
        const TR* __restrict invrow = minv_.row(m);
        FullPrecReal dot = 0.0;
#pragma omp simd reduction(+ : dot)
        for (int j = 0; j < nel_; ++j)
          dot += static_cast<FullPrecReal>(pv[j]) * static_cast<FullPrecReal>(invrow[j]);
        const FullPrecReal err = std::abs(dot - (m == kl ? 1.0 : 0.0));
        if (err > residual)
          residual = err;
      }
      ++rep.rows_sampled;
      if (residual > rep.max_residual)
        rep.max_residual = residual;
      if (residual > pol.drift_tolerance)
      {
        // Tolerance exceeded: from-scratch refresh reusing the row just
        // staged; the whole inverse is rebuilt, so stop sampling.
        recompute_with_row(p, kl, pv);
        ++rep.refreshes;
        break;
      }
    }
  }

  /// Direct access for tests and the delayed-update comparison.
  const Matrix<TR>& inverse_transposed() const { return minv_; }
  Matrix<TR>& inverse_transposed() { return minv_; }

protected:
  // Every scalar and batched move path above is shared with the
  // delayed-update subclass through two seams: inverse_row (which row
  // the ratio/gradient reductions read) and commit_from_rows (how an
  // accepted move reaches the inverse). Protocol fixes -- resource
  // fallbacks, the last_k handshake, staging -- therefore exist once.

  /// Row kl of the inverse as ratios and gradients must see it. The
  /// delayed subclass returns the engine-corrected effective row.
  virtual const TR* inverse_row(int kl) { return minv_.row(kl); }

  /// i-th drift-guard row for a generation: a rotating window over the
  /// local rows, a pure function of (gen, policy) so that every
  /// crowd_size x num_threads decomposition samples identically.
  int sampled_row(int gen, const PrecisionPolicy& pol, int i) const
  {
    return static_cast<int>(
        (static_cast<long long>(gen) * pol.drift_sample_rows + i) % nel_);
  }

  /// Commit an accepted move whose orbital values/derivatives live in
  /// the given rows (member scratch on the scalar path, the shared
  /// crowd batch on the batched path). The delayed subclass binds into
  /// its window instead of applying Sherman-Morrison.
  virtual void commit_from_rows(ParticleSet<TR>& p, int kl, const TR* pv, const TR* svx,
                                const TR* svy, const TR* svz, const TR* sv2)
  {
    accept_from_rows(p, kl, pv, svx, svy, svz, sv2);
  }

  /// Fused ratio+gradient reduction of the proposed-position orbital
  /// rows against an inverse row. One code path for the scalar and
  /// batched entries keeps their chains arithmetically identical.
  void reduce_ratio_grad(const TR* __restrict pv, const TR* __restrict dvx,
                         const TR* __restrict dvy, const TR* __restrict dvz,
                         const TR* __restrict row, double& ratio_out, Grad& grad)
  {
    TR rat = 0, gx = 0, gy = 0, gz = 0;
#pragma omp simd reduction(+ : rat, gx, gy, gz)
    for (int j = 0; j < nel_; ++j)
    {
      rat += pv[j] * row[j];
      gx += dvx[j] * row[j];
      gy += dvy[j] * row[j];
      gz += dvz[j] * row[j];
    }
    ratio_out = static_cast<double>(rat);
    if (ratio_out != 0.0 && std::isfinite(ratio_out))
    {
      const FullPrecReal inv_ratio = 1.0 / ratio_out;
      grad = Grad{static_cast<double>(gx) * inv_ratio, static_cast<double>(gy) * inv_ratio,
                  static_cast<double>(gz) * inv_ratio};
    }
    else
    {
      grad = Grad{}; // node touch: the driver rejects ratio <= 0 moves
    }
  }

  /// True when an accepted ratio can drive an incremental inverse
  /// update; a zero or non-finite ratio would poison log_value_ with
  /// -inf/NaN permanently and divide the Sherman-Morrison coefficient
  /// by (near) zero.
  static bool ratio_is_updatable(double r) { return r != 0.0 && std::isfinite(r); }

  /// Commit a move whose orbital values/derivatives live in the given
  /// rows (member scratch on the scalar path, the shared crowd batch on
  /// the batched path). cur_ratio_ must already hold the accepted ratio.
  /// A degenerate accepted ratio falls back to recompute_with_row.
  void accept_from_rows(ParticleSet<TR>& p, int kl, const TR* pv, const TR* svx, const TR* svy,
                        const TR* svz, const TR* sv2)
  {
    copy_derivative_rows(kl, svx, svy, svz, sv2);
    if (!ratio_is_updatable(cur_ratio_))
    {
      recompute_with_row(p, kl, pv);
      cur_vgl_valid_ = false;
      return;
    }
    {
      ScopedTimer timer(Kernel::DetUpdate);
      sherman_morrison_row_update(kl, pv);
    }
    this->log_value_ += std::log(std::abs(cur_ratio_));
    if (cur_ratio_ < 0)
      sign_ = -sign_;
    ++updates_since_recompute_;
    cur_vgl_valid_ = false;
  }

  /// From-scratch rebuild honoring an in-flight accepted move: row kl of
  /// the Slater matrix comes from pv (the orbitals already evaluated at
  /// the accepted position, which the particle set has not committed
  /// yet), every other row from the committed positions in p. Replaces
  /// log_value_/sign_/minv_ wholesale, like recompute().
  void recompute_with_row(ParticleSet<TR>& p, int kl, const TR* pv)
  {
    Matrix<double> a(nel_, nel_);
    for (int j = 0; j < nel_; ++j)
      a(kl, j) = static_cast<double>(pv[j]); // copy first: pv may alias psiv_
    // Batched row rebuild: gather the committed positions and evaluate
    // every remaining Slater row in one mw_evaluate_v call.
    const int nrows = nel_ - 1;
    if (nrows > 0)
    {
      if (vrow_rows_ < nrows)
      {
        vrow_scratch_.resize(nrows, spos_->num_orbitals(), /*pad_rows=*/true);
        vrow_rows_ = nrows;
      }
      pos_scratch_.resize(static_cast<std::size_t>(nrows));
      int r = 0;
      for (int i = 0; i < nel_; ++i)
        if (i != kl)
        {
          // Degenerate-ratio recovery rebuild, off the per-move hot path.
          // qmcxx-lint: allow(aos-in-hot-path)
          pos_scratch_[static_cast<std::size_t>(r++)] = p.pos(first_ + i);
        }
      spos_->mw_evaluate_v(pos_scratch_.data(), nrows, vrow_scratch_.data(),
                           vrow_scratch_.stride());
      r = 0;
      for (int i = 0; i < nel_; ++i)
      {
        if (i == kl)
          continue;
        const TR* __restrict row = vrow_scratch_.row(r++);
        for (int j = 0; j < nel_; ++j)
          a(i, j) = static_cast<double>(row[j]);
      }
    }
    Matrix<double> ainv;
    FullPrecReal logdet = 0, sign = 1;
    linalg::invert_matrix(std::move(a), ainv, logdet, sign);
    for (int i = 0; i < nel_; ++i)
      for (int j = 0; j < nel_; ++j)
        minv_(i, j) = static_cast<TR>(ainv(j, i)); // transposed storage
    this->log_value_ = logdet;
    sign_ = sign;
    updates_since_recompute_ = 0;
  }

  void copy_derivative_rows(int kl)
  {
    copy_derivative_rows(kl, dpsiv_.data(0), dpsiv_.data(1), dpsiv_.data(2), d2psiv_.data());
  }

  void copy_derivative_rows(int kl, const TR* __restrict svx, const TR* __restrict svy,
                            const TR* __restrict svz, const TR* __restrict sv2)
  {
    TR* __restrict dx = dpsim_x_.row(kl);
    TR* __restrict dy = dpsim_y_.row(kl);
    TR* __restrict dz = dpsim_z_.row(kl);
    TR* __restrict d2 = d2psim_.row(kl);
#pragma omp simd
    for (int j = 0; j < nel_; ++j)
    {
      dx[j] = svx[j];
      dy[j] = svy[j];
      dz[j] = svz[j];
      d2[j] = sv2[j];
    }
  }

  /// Rank-1 inverse update after replacing row kl of A with pv.
  /// In transposed storage: minv(j,l) -= (t_j - delta_{j,kl})/rho * rcopy_l
  /// where t = minv . pv and rcopy is the old row kl of minv.
  void sherman_morrison_row_update(int kl, const TR* __restrict pv)
  {
    const TR c_ratio = TR(1) / static_cast<TR>(cur_ratio_);
    const std::size_t stride = minv_.stride();
    // t = minv . pv (gemv over rows).
    for (int j = 0; j < nel_; ++j)
      workv_[j] = linalg::dot_n(minv_.row(j), pv, static_cast<std::size_t>(nel_));
    workv_[kl] -= TR(1);
    // Save old row kl, then rank-1 update (ger).
    const TR* __restrict mk = minv_.row(kl);
#pragma omp simd
    for (int j = 0; j < nel_; ++j)
      rcopy_[j] = mk[j];
    TR* __restrict m = minv_.data();
    for (int j = 0; j < nel_; ++j)
    {
      const TR coef = workv_[j] * c_ratio;
      TR* __restrict mj = m + j * stride;
      const TR* __restrict rc = rcopy_.data();
#pragma omp simd
      for (int l = 0; l < nel_; ++l)
        mj[l] -= coef * rc[l];
    }
  }

  std::shared_ptr<SPOSet<TR>> spos_;
  int first_;
  int nel_;
  Matrix<TR> minv_;                       // (A^-1)^T
  Matrix<TR> dpsim_x_, dpsim_y_, dpsim_z_; // orbital gradients at electrons
  Matrix<TR> d2psim_;                      // orbital laplacians at electrons
  aligned_vector<TR> psiv_, d2psiv_, workv_, rcopy_;
  VectorSoaContainer<TR, 3> dpsiv_;
  // Batched value-fan staging (grown on demand, dim-guarded separately
  // so the NLPP quadrature fan and the full-rebuild row sweep do not
  // thrash each other's allocation).
  Matrix<TR> vq_scratch_;    // quadrature fan rows (ratios_virtual)
  Matrix<TR> vrow_scratch_;  // rebuild rows (recompute_with_row)
  Matrix<TR> drift_scratch_; // guard-sample rows (monitor_inverse_drift)
  int vq_rows_ = 0;
  int vrow_rows_ = 0;
  int drift_rows_ = 0;
  std::vector<Pos> pos_scratch_;
  FullPrecReal cur_ratio_ = 1.0;
  bool cur_vgl_valid_ = false;
  FullPrecReal sign_ = 1.0;
  std::uint64_t updates_since_recompute_ = 0;
};

} // namespace qmcxx

#endif
