// Single-particle orbital (SPO) sets on 3D B-spline tables.
//
// Wraps the MultiBspline3D / BsplineSetAoS evaluators with the
// reduced-to-Cartesian transform. Three profiled kernels live here
// (paper Fig. 2/7):
//   Bspline-v    -- values only, used by the NLPP ratio evaluations
//   Bspline-vgh  -- value + gradient + hessian in reduced coordinates
//   SPO-vgl      -- the cell transform producing Cartesian gradients and
//                   laplacians from the vgh output
#ifndef QMCXX_WAVEFUNCTION_SPO_SET_H
#define QMCXX_WAVEFUNCTION_SPO_SET_H

#include <cassert>
#include <memory>

#include "containers/aligned_allocator.h"
#include "containers/matrix.h"
#include "containers/vector_soa.h"
#include "instrument/timer.h"
#include "numerics/bspline3d.h"
#include "particle/lattice.h"

namespace qmcxx
{

/// Crowd-sized orbital evaluation results: row iw holds walker iw's
/// values/Cartesian gradients/laplacians over all orbitals, each row
/// padded to the SIMD alignment. `vgh` is the reduced-coordinate
/// intermediate staging area of the batched B-spline path, laid out
/// component-major (10 blocks of num_walkers rows: v, gu0..gu2,
/// hxx..hzz) so the cell transform runs as one long unit-stride sweep
/// over all walkers at once.
template<typename TR>
struct SPOVGLBatch
{
  Matrix<TR> psi, gx, gy, gz, d2;
  Matrix<TR> vgh;
  int num_walkers = 0;
  int num_orbitals = 0;

  void resize(int nw, int norb)
  {
    if (nw == num_walkers && norb == num_orbitals)
      return;
    num_walkers = nw;
    num_orbitals = norb;
    for (auto* m : {&psi, &gx, &gy, &gz, &d2})
      m->resize(nw, norb, /*pad_rows=*/true);
    vgh.resize(static_cast<std::size_t>(10) * nw, norb, /*pad_rows=*/true);
  }

  /// Start of reduced-coordinate component block c (0=v, 1..3=gu,
  /// 4..9=h), a contiguous num_walkers x stride() region.
  TR* vgh_block(int c) { return vgh.row(static_cast<std::size_t>(c) * num_walkers); }
  std::size_t stride() const { return psi.stride(); }
};

template<typename TR>
class SPOSet
{
public:
  using Pos = TinyVector<double, 3>;

  virtual ~SPOSet() = default;

  int num_orbitals() const { return norb_; }
  std::size_t table_bytes() const { return table_bytes_; }

  /// Orbital values at r into psi[0..norb).
  virtual void evaluate_v(const Pos& r, TR* psi) = 0;

  /// Values, Cartesian gradients and laplacians at r.
  virtual void evaluate_vgl(const Pos& r, TR* psi, VectorSoaContainer<TR, 3>& dpsi,
                            TR* d2psi) = 0;

  /// Crowd-batched vgl: evaluate nw positions into the batch rows. The
  /// flat fallback loops the scalar virtual through a staging container;
  /// spline-backed sets override with a genuinely batched kernel.
  virtual void mw_evaluate_vgl(const Pos* r, int nw, SPOVGLBatch<TR>& out)
  {
    out.resize(nw, norb_);
    VectorSoaContainer<TR, 3> dpsi(norb_);
    for (int iw = 0; iw < nw; ++iw)
    {
      // qmcxx-lint: allow(scalar-spo-in-crowd-path)
      evaluate_vgl(r[iw], out.psi.row(iw), dpsi, out.d2.row(iw));
      TR* __restrict gx = out.gx.row(iw);
      TR* __restrict gy = out.gy.row(iw);
      TR* __restrict gz = out.gz.row(iw);
      for (int s = 0; s < norb_; ++s)
      {
        gx[s] = dpsi(0, s);
        gy[s] = dpsi(1, s);
        gz[s] = dpsi(2, s);
      }
    }
  }

  /// Crowd-batched values: nr positions (a walker fan -- NLPP quadrature
  /// points, virtual ratio moves, or determinant rebuild rows), position
  /// i writing psi + i * pos_stride over [0, num_orbitals). The flat
  /// fallback loops the scalar virtual; spline-backed sets hand the
  /// whole fan to the backend in one call.
  virtual void mw_evaluate_v(const Pos* r, int nr, TR* psi, std::size_t pos_stride)
  {
    for (int i = 0; i < nr; ++i)
    {
      // qmcxx-lint: allow(scalar-spo-in-crowd-path)
      evaluate_v(r[i], psi + static_cast<std::size_t>(i) * pos_stride);
    }
  }

protected:
  int norb_ = 0;
  std::size_t table_bytes_ = 0;
};

/// Shared implementation: fold to reduced coordinates, evaluate vgh on a
/// spline backend, then transform (the SPO-vgl kernel).
template<typename TR, typename Backend>
class BsplineSPOSet : public SPOSet<TR>
{
public:
  using Pos = typename SPOSet<TR>::Pos;

  BsplineSPOSet(const Lattice& lattice, std::shared_ptr<Backend> backend)
      : lattice_(lattice), backend_(std::move(backend))
  {
    this->norb_ = backend_->num_splines();
    this->table_bytes_ = backend_->coefficient_bytes();
    // Reduced->Cartesian transform constants.
    const auto& ainv = lattice_rows_inv();
    for (unsigned a = 0; a < 3; ++a)
      for (unsigned i = 0; i < 3; ++i)
        gmat_[a][i] = static_cast<TR>(ainv[a][i]);
    // Laplacian metric M_ab = sum_i dua/dxi dub/dxi.
    int idx = 0;
    for (unsigned a = 0; a < 3; ++a)
      for (unsigned b = a; b < 3; ++b)
      {
        TR m = 0;
        for (unsigned i = 0; i < 3; ++i)
          m += gmat_[a][i] * gmat_[b][i];
        // Off-diagonal hessian components appear twice in the trace.
        lap_metric_[idx] = (a == b) ? m : TR(2) * m;
        ++idx;
      }
  }

  void evaluate_v(const Pos& r, TR* psi) override
  {
    ScopedTimer timer(Kernel::BsplineV);
    const Pos u = lattice_.to_unit_folded(r);
    const TR ur[3] = {static_cast<TR>(u[0]), static_cast<TR>(u[1]), static_cast<TR>(u[2])};
    backend_->evaluate_v(ur, psi);
  }

  void evaluate_vgl(const Pos& r, TR* psi, VectorSoaContainer<TR, 3>& dpsi, TR* d2psi) override
  {
    const Pos u = lattice_.to_unit_folded(r);
    const TR ur[3] = {static_cast<TR>(u[0]), static_cast<TR>(u[1]), static_cast<TR>(u[2])};
    // Per-thread staging: SPO sets are shared between the per-thread
    // wavefunction clones (the spline table is read-only), so the vgh
    // intermediate must not live in the shared object.
    VGLScratch& s = vgl_scratch();
    s.ensure(getAlignedSize<TR>(this->norb_));
    {
      ScopedTimer timer(Kernel::BsplineVGH);
      SplineVGHResult<TR> out{s.v[0].data(),
                              {s.v[1].data(), s.v[2].data(), s.v[3].data()},
                              {s.v[4].data(), s.v[5].data(), s.v[6].data(), s.v[7].data(),
                               s.v[8].data(), s.v[9].data()}};
      backend_->evaluate_vgh(ur, out);
    }
    {
      ScopedTimer timer(Kernel::SPOvgl);
      transform_vgh(s.v[0].data(), s.v[1].data(), s.v[2].data(), s.v[3].data(), s.v[4].data(),
                    s.v[5].data(), s.v[6].data(), s.v[7].data(), s.v[8].data(), s.v[9].data(),
                    this->norb_, psi, dpsi.data(0), dpsi.data(1), dpsi.data(2), d2psi);
    }
  }

  /// Batched vgl: evaluate the reduced-coordinate vgh for every walker
  /// into the batch's component-major staging blocks in one backend
  /// call, then run the cell transform once over all walkers as a
  /// single unit-stride sweep. Amortizes the timer scopes and virtual
  /// dispatch over the crowd and gives the SPO-vgl kernel a trip count
  /// of num_walkers x norb.
  void mw_evaluate_vgl(const Pos* r, int nw, SPOVGLBatch<TR>& out) override
  {
    if (nw <= 0)
      return;
    out.resize(nw, this->norb_);
    const std::size_t stride = out.stride();
    {
      ScopedTimer timer(Kernel::BsplineVGH);
      // The component-major staging blocks bind directly to the multi
      // kernel: block c is nw contiguous rows, so pos_stride is the
      // padded row stride.
      const SplineVGHMultiResult<TR> res{out.vgh_block(0),
                                         {out.vgh_block(1), out.vgh_block(2), out.vgh_block(3)},
                                         {out.vgh_block(4), out.vgh_block(5), out.vgh_block(6),
                                          out.vgh_block(7), out.vgh_block(8), out.vgh_block(9)},
                                         stride};
      backend_->evaluate_vgh_multi(fold_positions(r, nw), nw, res);
    }
    {
      ScopedTimer timer(Kernel::SPOvgl);
      // Walker-exact sweep: component blocks are contiguous across
      // walkers, and every padding lane before the last real row is
      // zero in staging (zero coefficients or never written over the
      // zero fill), so stopping at the last walker's last real orbital
      // is bitwise-equivalent to sweeping the full padded block.
      transform_vgh(out.vgh_block(0), out.vgh_block(1), out.vgh_block(2), out.vgh_block(3),
                    out.vgh_block(4), out.vgh_block(5), out.vgh_block(6), out.vgh_block(7),
                    out.vgh_block(8), out.vgh_block(9),
                    static_cast<int>(stride * static_cast<std::size_t>(nw - 1)) + this->norb_,
                    out.psi.data(), out.gx.data(), out.gy.data(), out.gz.data(), out.d2.data());
    }
  }

  /// Crowd-batched values (the Bspline-v fan): one backend call for all
  /// nr positions.
  void mw_evaluate_v(const Pos* r, int nr, TR* psi, std::size_t pos_stride) override
  {
    if (nr <= 0)
      return;
    ScopedTimer timer(Kernel::BsplineV);
    backend_->evaluate_v_multi(fold_positions(r, nr), nr, psi, pos_stride);
  }

private:
  /// Fold nw Cartesian positions to reduced coordinates in thread-local
  /// staging, returned as the (*)[3] view the batched backend kernels
  /// take. Thread-local for the same reason as VGLScratch: SPO sets are
  /// shared between per-thread wavefunction clones.
  const TR (*fold_positions(const Pos* r, int nw) const)[3]
  {
    static thread_local aligned_vector<TR> ubuf;
    if (ubuf.size() < static_cast<std::size_t>(3 * nw))
      ubuf.resize(static_cast<std::size_t>(3 * nw));
    for (int iw = 0; iw < nw; ++iw)
    {
      const Pos u = lattice_.to_unit_folded(r[iw]);
      ubuf[static_cast<std::size_t>(3 * iw) + 0] = static_cast<TR>(u[0]);
      ubuf[static_cast<std::size_t>(3 * iw) + 1] = static_cast<TR>(u[1]);
      ubuf[static_cast<std::size_t>(3 * iw) + 2] = static_cast<TR>(u[2]);
    }
    return reinterpret_cast<const TR(*)[3]>(ubuf.data());
  }
  /// SPO-vgl: Cartesian gradient g_i = sum_a dua/dxi * gu_a and
  /// laplacian = sum_ab M_ab H_ab (reduced-coordinate hessian trace),
  /// over `count` contiguous lanes (norb for one walker; the walker-
  /// exact (nw-1) * stride + norb for a crowd batch).
  void transform_vgh(const TR* __restrict vals, const TR* __restrict g0,
                     const TR* __restrict g1, const TR* __restrict g2, const TR* __restrict xx,
                     const TR* __restrict xy, const TR* __restrict xz, const TR* __restrict yy,
                     const TR* __restrict yz, const TR* __restrict zz, int count,
                     TR* __restrict psi, TR* __restrict gx, TR* __restrict gy, TR* __restrict gz,
                     TR* __restrict d2psi) const
  {
    const TR g00 = gmat_[0][0], g01 = gmat_[0][1], g02 = gmat_[0][2];
    const TR g10 = gmat_[1][0], g11 = gmat_[1][1], g12 = gmat_[1][2];
    const TR g20 = gmat_[2][0], g21 = gmat_[2][1], g22 = gmat_[2][2];
    const TR m0 = lap_metric_[0], m1 = lap_metric_[1], m2 = lap_metric_[2];
    const TR m3 = lap_metric_[3], m4 = lap_metric_[4], m5 = lap_metric_[5];
#pragma omp simd
    for (int s = 0; s < count; ++s)
    {
      psi[s] = vals[s];
      gx[s] = g00 * g0[s] + g10 * g1[s] + g20 * g2[s];
      gy[s] = g01 * g0[s] + g11 * g1[s] + g21 * g2[s];
      gz[s] = g02 * g0[s] + g12 * g1[s] + g22 * g2[s];
      d2psi[s] = m0 * xx[s] + m1 * xy[s] + m2 * xz[s] + m3 * yy[s] + m4 * yz[s] + m5 * zz[s];
    }
  }

  /// Ten vgh staging arrays (v, gu0..gu2, hxx..hzz), thread-local so
  /// per-thread clones sharing this SPO set never race on them.
  struct VGLScratch
  {
    aligned_vector<TR> v[10];
    void ensure(std::size_t np)
    {
      if (v[0].size() < np)
        for (auto& a : v)
          a.assign(np, TR(0));
    }
  };
  static VGLScratch& vgl_scratch()
  {
    static thread_local VGLScratch s;
    return s;
  }
  /// Rows a of d(u_a)/d(x_i): the reduced-coordinate jacobian.
  std::array<TinyVector<double, 3>, 3> lattice_rows_inv() const
  {
    // to_unit(r)_a = dot(c_a, r): recover the rows by probing the axes.
    std::array<TinyVector<double, 3>, 3> rows;
    const TinyVector<double, 3> ex{1, 0, 0}, ey{0, 1, 0}, ez{0, 0, 1};
    const auto ux = lattice_.to_unit(ex);
    const auto uy = lattice_.to_unit(ey);
    const auto uz = lattice_.to_unit(ez);
    for (unsigned a = 0; a < 3; ++a)
      rows[a] = TinyVector<double, 3>{ux[a], uy[a], uz[a]};
    return rows;
  }

  Lattice lattice_;
  std::shared_ptr<Backend> backend_;
  TR gmat_[3][3];
  TR lap_metric_[6];
};

template<typename TR>
using BsplineSPOSetSoA = BsplineSPOSet<TR, MultiBspline3D<TR>>;
template<typename TR>
using BsplineSPOSetAoS = BsplineSPOSet<TR, BsplineSetAoS<TR>>;

/// Fill a spline backend with synthetic smooth periodic orbitals:
/// deterministic random plane-wave superpositions sampled on the grid
/// and prefiltered (DESIGN.md substitution for DFT orbitals).
template<typename TR, typename Backend>
void fill_synthetic_orbitals(Backend& backend, int nx, int ny, int nz, int num_orbitals,
                             std::uint64_t seed);

} // namespace qmcxx

#endif
