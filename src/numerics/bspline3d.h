// Three-dimensional tricubic B-splines on a periodic uniform grid:
// the representation of the single-particle orbitals (SPOs).
//
// Two concrete layouts implement the same evaluation API:
//
//  * MultiBspline3D<T>   -- "multi-spline" SoA layout: the spline index
//    is innermost (coefs[ix][iy][iz][spline]) so the hot loop over
//    orbitals is unit-stride and auto-vectorizes. This is the layout of
//    the paper's optimized Bspline-v / Bspline-vgh kernels.
//  * BsplineSetAoS<T>    -- one independent coefficient grid per spline,
//    evaluated one orbital at a time; models the scalar Ref code path.
//
// Evaluation works in reduced (lattice-fractional) coordinates
// u in [0,1)^3; derivatives returned here are with respect to u, and the
// SPO layer (wavefunction/spo_set.h) applies the cell transform to get
// Cartesian gradients/laplacians (the "SPO-vgl" kernel of the paper's
// profiles).
#ifndef QMCXX_NUMERICS_BSPLINE3D_H
#define QMCXX_NUMERICS_BSPLINE3D_H

#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "config/config.h"
#include "containers/aligned_allocator.h"

namespace qmcxx
{

/// 4-point cubic B-spline stencil weights (and u-derivatives) along one
/// axis with n grid intervals and periodic wrap handled by ghost points.
template<typename T>
struct SplineStencil
{
  int i0;      ///< first stencil index into the (n+3)-long ghosted axis
  T a[4];      ///< value weights
  T da[4];     ///< first-derivative weights (d/du, u in [0,1))
  T d2a[4];    ///< second-derivative weights

  /// u must be in [0,1). n is the number of grid intervals on the axis.
  void compute(T u, int n)
  {
    T t_full = u * static_cast<T>(n);
    int i = static_cast<int>(t_full);
    if (i >= n) // guards u == 1 - eps rounding up in low precision
      i = n - 1;
    const T t = t_full - static_cast<T>(i);
    i0 = i;
    const T t2 = t * t;
    const T t3 = t2 * t;
    const T omt = T(1) - t;
    a[0] = T(1.0 / 6.0) * omt * omt * omt;
    a[1] = T(1.0 / 6.0) * (T(3) * t3 - T(6) * t2 + T(4));
    a[2] = T(1.0 / 6.0) * (T(-3) * t3 + T(3) * t2 + T(3) * t + T(1));
    a[3] = T(1.0 / 6.0) * t3;
    const T dn = static_cast<T>(n);
    da[0] = dn * (T(-0.5) * omt * omt);
    da[1] = dn * (T(0.5) * (T(3) * t2 - T(4) * t));
    da[2] = dn * (T(0.5) * (T(-3) * t2 + T(2) * t + T(1)));
    da[3] = dn * (T(0.5) * t2);
    const T dn2 = dn * dn;
    d2a[0] = dn2 * omt;
    d2a[1] = dn2 * (T(3) * t - T(2));
    d2a[2] = dn2 * (T(1) - T(3) * t);
    d2a[3] = dn2 * t;
  }
};

/// Result views for vgh evaluation: value, 3 gradient components and the
/// 6 unique Hessian components (xx, xy, xz, yy, yz, zz), each an array
/// over splines.
template<typename T>
struct SplineVGHResult
{
  T* v;
  T* g[3];
  T* h[6];
};

/// Result views for the multi-position (crowd-batched) vgh kernels:
/// position ip's component-c array starts at the component pointer plus
/// ip * pos_stride, so a component-major staging block (e.g. the
/// SPOVGLBatch::vgh matrix, pos_stride = padded row stride) binds
/// directly without per-position pointer tables.
template<typename T>
struct SplineVGHMultiResult
{
  T* v;
  T* g[3];
  T* h[6];
  std::size_t pos_stride; ///< element stride between consecutive positions
};

/// SoA multi-spline: all orbitals share one coefficient lattice with the
/// spline index innermost and padded to the SIMD alignment.
template<typename T>
class MultiBspline3D
{
public:
  MultiBspline3D() = default;
  MultiBspline3D(int nx, int ny, int nz, int num_splines) { resize(nx, ny, nz, num_splines); }

  void resize(int nx, int ny, int nz, int num_splines);

  int num_splines() const { return ns_; }
  int padded_splines() const { return static_cast<int>(nsp_); }
  std::array<int, 3> grid() const { return {n_[0], n_[1], n_[2]}; }
  std::size_t coefficient_bytes() const { return coefs_.size() * sizeof(T); }

  /// Set the coefficient at logical grid point (ix,iy,iz) for spline s,
  /// maintaining the periodic ghost copies.
  void set_coef(int s, int ix, int iy, int iz, T value);
  T get_coef(int s, int ix, int iy, int iz) const;

  /// Values of all splines at reduced coordinate u.
  void evaluate_v(const T u[3], T* __restrict vals) const;

  /// Values, reduced-coordinate gradients and Hessians of all splines.
  void evaluate_vgh(const T u[3], const SplineVGHResult<T>& out) const;

  /// Crowd-batched value kernel: np reduced coordinates evaluated in one
  /// call, position ip writing vals + ip * pos_stride. Bitwise identical
  /// to np scalar evaluate_v calls; the batched form hoists the stencil
  /// computations, fuses the k-slabs of each (i,j) coefficient line into
  /// one accumulation pass, prefetches the next line and blocks over the
  /// padded spline dimension so the crowd's accumulators stay in cache.
  void evaluate_v_multi(const T (*u)[3], int np, T* __restrict vals,
                        std::size_t pos_stride) const;

  /// Crowd-batched vgh kernel; same contract and bitwise guarantee as
  /// evaluate_v_multi for all ten component arrays.
  void evaluate_vgh_multi(const T (*u)[3], int np, const SplineVGHMultiResult<T>& out) const;

private:
  std::size_t index(int ix, int iy, int iz) const
  {
    return ((static_cast<std::size_t>(ix) * (n_[1] + 3) + iy) * (n_[2] + 3) + iz) * nsp_;
  }

  int n_[3] = {0, 0, 0};
  int ns_ = 0;
  std::size_t nsp_ = 0; // padded spline count
  aligned_vector<T> coefs_;
};

/// AoS reference layout: an independent ghosted coefficient grid per
/// spline, evaluated one orbital at a time (scalar stencil arithmetic).
template<typename T>
class BsplineSetAoS
{
public:
  BsplineSetAoS() = default;
  BsplineSetAoS(int nx, int ny, int nz, int num_splines) { resize(nx, ny, nz, num_splines); }

  void resize(int nx, int ny, int nz, int num_splines);

  int num_splines() const { return static_cast<int>(splines_.size()); }
  std::array<int, 3> grid() const { return {n_[0], n_[1], n_[2]}; }
  std::size_t coefficient_bytes() const
  {
    std::size_t b = 0;
    for (const auto& s : splines_)
      b += s.size() * sizeof(T);
    return b;
  }

  void set_coef(int s, int ix, int iy, int iz, T value);
  T get_coef(int s, int ix, int iy, int iz) const;

  void evaluate_v(const T u[3], T* __restrict vals) const;
  void evaluate_vgh(const T u[3], const SplineVGHResult<T>& out) const;

  /// Flat per-position loops over the scalar kernels: the reference
  /// layout takes the batched interface too, so AoS/SoA engines stay
  /// bitwise-interchangeable behind one mw call shape.
  void evaluate_v_multi(const T (*u)[3], int np, T* __restrict vals,
                        std::size_t pos_stride) const;
  void evaluate_vgh_multi(const T (*u)[3], int np, const SplineVGHMultiResult<T>& out) const;

private:
  std::size_t index(int ix, int iy, int iz) const
  {
    return (static_cast<std::size_t>(ix) * (n_[1] + 3) + iy) * (n_[2] + 3) + iz;
  }

  int n_[3] = {0, 0, 0};
  std::vector<aligned_vector<T>> splines_;
};

/// Solve the periodic cubic-B-spline interpolation problem along one
/// axis: find coefficients c such that (c[i-1] + 4c[i] + c[i+1])/6 = f[i]
/// with periodic wrap. `data` has n entries with the given stride; it is
/// overwritten with the coefficients. (Cyclic Thomas algorithm with a
/// Sherman-Morrison rank-1 correction.)
void solve_periodic_spline(double* data, int n, std::ptrdiff_t stride);

/// Build coefficients interpolating sampled values: samples(s, ix, iy, iz)
/// must return the target value of spline s at grid point (ix,iy,iz).
/// Used by tests (analytic plane waves) and the synthetic workloads.
template<typename T, typename SplineSet>
void fit_splines_periodic(SplineSet& set, int nx, int ny, int nz,
                          const std::vector<std::vector<double>>& samples);

} // namespace qmcxx

#endif
