#include "numerics/bspline3d.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace qmcxx
{

// --------------------------------------------------------------------
// MultiBspline3D (SoA)
// --------------------------------------------------------------------

template<typename T>
void MultiBspline3D<T>::resize(int nx, int ny, int nz, int num_splines)
{
  n_[0] = nx;
  n_[1] = ny;
  n_[2] = nz;
  ns_ = num_splines;
  nsp_ = getAlignedSize<T>(static_cast<std::size_t>(num_splines));
  const std::size_t total =
      static_cast<std::size_t>(nx + 3) * (ny + 3) * (nz + 3) * nsp_;
  coefs_.assign(total, T{});
}

namespace
{
/// Ghost positions for logical coefficient index i on an axis with n
/// intervals. Evaluation at u ~ i/n reads the 4-point stencil starting
/// at ghost index i, whose first entry must hold logical c[i-1]; hence
/// ghost[g] stores logical c[(g-1) mod n], i.e. logical i lives at every
/// g in [0, n+3) with g == i+1 (mod n).
inline int ghost_positions(int i, int n, int out[3])
{
  int count = 0;
  for (int g = i + 1 - n; g < n + 3; g += n)
    if (g >= 0)
      out[count++] = g;
  return count;
}
} // namespace

template<typename T>
void MultiBspline3D<T>::set_coef(int s, int ix, int iy, int iz, T value)
{
  assert(s < ns_);
  int gx[3], gy[3], gz[3];
  const int cx = ghost_positions(ix, n_[0], gx);
  const int cy = ghost_positions(iy, n_[1], gy);
  const int cz = ghost_positions(iz, n_[2], gz);
  for (int a = 0; a < cx; ++a)
    for (int b = 0; b < cy; ++b)
      for (int c = 0; c < cz; ++c)
        coefs_[index(gx[a], gy[b], gz[c]) + s] = value;
}

template<typename T>
T MultiBspline3D<T>::get_coef(int s, int ix, int iy, int iz) const
{
  return coefs_[index(ix + 1, iy + 1, iz + 1) + s];
}

template<typename T>
void MultiBspline3D<T>::evaluate_v(const T u[3], T* __restrict vals) const
{
  SplineStencil<T> sx, sy, sz;
  sx.compute(u[0], n_[0]);
  sy.compute(u[1], n_[1]);
  sz.compute(u[2], n_[2]);
  const std::size_t ns = nsp_;
  std::fill(vals, vals + ns, T{});
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
    {
      const T pre = sx.a[i] * sy.a[j];
      for (int k = 0; k < 4; ++k)
      {
        const T w = pre * sz.a[k];
        const T* __restrict c = coefs_.data() + index(sx.i0 + i, sy.i0 + j, sz.i0 + k);
#pragma omp simd
        for (std::size_t s = 0; s < ns; ++s)
          vals[s] += w * c[s];
      }
    }
}

template<typename T>
void MultiBspline3D<T>::evaluate_vgh(const T u[3], const SplineVGHResult<T>& out) const
{
  SplineStencil<T> sx, sy, sz;
  sx.compute(u[0], n_[0]);
  sy.compute(u[1], n_[1]);
  sz.compute(u[2], n_[2]);
  const std::size_t ns = nsp_;
  T* __restrict v = out.v;
  T* __restrict gx = out.g[0];
  T* __restrict gy = out.g[1];
  T* __restrict gz = out.g[2];
  T* __restrict hxx = out.h[0];
  T* __restrict hxy = out.h[1];
  T* __restrict hxz = out.h[2];
  T* __restrict hyy = out.h[3];
  T* __restrict hyz = out.h[4];
  T* __restrict hzz = out.h[5];
  std::fill(v, v + ns, T{});
  std::fill(gx, gx + ns, T{});
  std::fill(gy, gy + ns, T{});
  std::fill(gz, gz + ns, T{});
  std::fill(hxx, hxx + ns, T{});
  std::fill(hxy, hxy + ns, T{});
  std::fill(hxz, hxz + ns, T{});
  std::fill(hyy, hyy + ns, T{});
  std::fill(hyz, hyz + ns, T{});
  std::fill(hzz, hzz + ns, T{});

  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j)
    {
      const T pv = sx.a[i] * sy.a[j];
      const T pdx = sx.da[i] * sy.a[j];
      const T pdy = sx.a[i] * sy.da[j];
      const T pdxx = sx.d2a[i] * sy.a[j];
      const T pdxy = sx.da[i] * sy.da[j];
      const T pdyy = sx.a[i] * sy.d2a[j];
      for (int k = 0; k < 4; ++k)
      {
        const T za = sz.a[k];
        const T zda = sz.da[k];
        const T w = pv * za;
        const T wx = pdx * za;
        const T wy = pdy * za;
        const T wz = pv * zda;
        const T wxx = pdxx * za;
        const T wxy = pdxy * za;
        const T wxz = pdx * zda;
        const T wyy = pdyy * za;
        const T wyz = pdy * zda;
        const T wzz = pv * sz.d2a[k];
        const T* __restrict c = coefs_.data() + index(sx.i0 + i, sy.i0 + j, sz.i0 + k);
#pragma omp simd
        for (std::size_t s = 0; s < ns; ++s)
        {
          const T cs = c[s];
          v[s] += w * cs;
          gx[s] += wx * cs;
          gy[s] += wy * cs;
          gz[s] += wz * cs;
          hxx[s] += wxx * cs;
          hxy[s] += wxy * cs;
          hxz[s] += wxz * cs;
          hyy[s] += wyy * cs;
          hyz[s] += wyz * cs;
          hzz[s] += wzz * cs;
        }
      }
    }
}

namespace
{
/// Hoist the crowd's per-position stencil computations out of the
/// coefficient sweep: all 3*np stencils are computed once up front into
/// thread-local storage and reused for every spline block.
template<typename T>
std::vector<SplineStencil<T>>& hoisted_stencils(const T (*u)[3], int np, const int n[3])
{
  static thread_local std::vector<SplineStencil<T>> stencils;
  if (stencils.size() < static_cast<std::size_t>(3 * np))
    stencils.resize(static_cast<std::size_t>(3 * np));
  for (int ip = 0; ip < np; ++ip)
  {
    stencils[static_cast<std::size_t>(3 * ip) + 0].compute(u[ip][0], n[0]);
    stencils[static_cast<std::size_t>(3 * ip) + 1].compute(u[ip][1], n[1]);
    stencils[static_cast<std::size_t>(3 * ip) + 2].compute(u[ip][2], n[2]);
  }
  return stencils;
}
} // namespace

template<typename T>
void MultiBspline3D<T>::evaluate_v_multi(const T (*u)[3], int np, T* __restrict vals,
                                         std::size_t pos_stride) const
{
  if (np <= 0)
    return;
  const auto& stencils = hoisted_stencils(u, np, n_);
  const std::size_t ns = nsp_;
  const std::size_t L = nsp_;
  const T* __restrict coefs = coefs_.data();
  // Block the padded spline dimension so each position's accumulator
  // slice stays cache-resident while its 64 coefficient slabs stream by.
  constexpr std::size_t BLOCK = 4096 / sizeof(T);
  for (std::size_t s0 = 0; s0 < ns; s0 += BLOCK)
  {
    const std::size_t bs = std::min(BLOCK, ns - s0);
    for (int ip = 0; ip < np; ++ip)
    {
      const SplineStencil<T>& sx = stencils[static_cast<std::size_t>(3 * ip) + 0];
      const SplineStencil<T>& sy = stencils[static_cast<std::size_t>(3 * ip) + 1];
      const SplineStencil<T>& sz = stencils[static_cast<std::size_t>(3 * ip) + 2];
      T* __restrict out = vals + static_cast<std::size_t>(ip) * pos_stride + s0;
      std::fill(out, out + bs, T{});
      for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
        {
          const T pre = sx.a[i] * sy.a[j];
          T w[4];
          for (int k = 0; k < 4; ++k)
            w[k] = pre * sz.a[k];
          const T* __restrict line = coefs + index(sx.i0 + i, sy.i0 + j, sz.i0) + s0;
          if (!(i == 3 && j == 3))
          {
            // Prefetch the next (i,j) coefficient line while this one
            // is consumed; its 4 k-slabs are contiguous in memory.
            const int ni = (j == 3) ? i + 1 : i;
            const int nj = (j == 3) ? 0 : j + 1;
            const T* nline = coefs + index(sx.i0 + ni, sy.i0 + nj, sz.i0) + s0;
            for (int k = 0; k < 4; ++k)
              prefetch_read(nline + static_cast<std::size_t>(k) * L, bs);
          }
          // Fused k-pass: one sweep over the block accumulates all four
          // k-slabs. Bitwise identical to the scalar kernel's four
          // separate sweeps: per element the adds land in the same order
          // with the same fused multiply-add statement shape.
#pragma omp simd
          for (std::size_t s = 0; s < bs; ++s)
          {
            T acc = out[s];
            acc += w[0] * line[s];
            acc += w[1] * line[L + s];
            acc += w[2] * line[2 * L + s];
            acc += w[3] * line[3 * L + s];
            out[s] = acc;
          }
        }
    }
  }
}

template<typename T>
void MultiBspline3D<T>::evaluate_vgh_multi(const T (*u)[3], int np,
                                           const SplineVGHMultiResult<T>& out) const
{
  if (np <= 0)
    return;
  const auto& stencils = hoisted_stencils(u, np, n_);
  const std::size_t ns = nsp_;
  const std::size_t L = nsp_;
  const T* __restrict coefs = coefs_.data();
  // Ten accumulator slices per position: keep the block small enough
  // that all of them plus the streamed coefficient line fit in L1.
  constexpr std::size_t BLOCK = 1024 / sizeof(T);
  for (std::size_t s0 = 0; s0 < ns; s0 += BLOCK)
  {
    const std::size_t bs = std::min(BLOCK, ns - s0);
    for (int ip = 0; ip < np; ++ip)
    {
      const SplineStencil<T>& sx = stencils[static_cast<std::size_t>(3 * ip) + 0];
      const SplineStencil<T>& sy = stencils[static_cast<std::size_t>(3 * ip) + 1];
      const SplineStencil<T>& sz = stencils[static_cast<std::size_t>(3 * ip) + 2];
      const std::size_t off = static_cast<std::size_t>(ip) * out.pos_stride + s0;
      T* __restrict vo = out.v + off;
      T* __restrict gxo = out.g[0] + off;
      T* __restrict gyo = out.g[1] + off;
      T* __restrict gzo = out.g[2] + off;
      T* __restrict hxxo = out.h[0] + off;
      T* __restrict hxyo = out.h[1] + off;
      T* __restrict hxzo = out.h[2] + off;
      T* __restrict hyyo = out.h[3] + off;
      T* __restrict hyzo = out.h[4] + off;
      T* __restrict hzzo = out.h[5] + off;
      std::fill(vo, vo + bs, T{});
      std::fill(gxo, gxo + bs, T{});
      std::fill(gyo, gyo + bs, T{});
      std::fill(gzo, gzo + bs, T{});
      std::fill(hxxo, hxxo + bs, T{});
      std::fill(hxyo, hxyo + bs, T{});
      std::fill(hxzo, hxzo + bs, T{});
      std::fill(hyyo, hyyo + bs, T{});
      std::fill(hyzo, hyzo + bs, T{});
      std::fill(hzzo, hzzo + bs, T{});
      for (int i = 0; i < 4; ++i)
        for (int j = 0; j < 4; ++j)
        {
          const T pv = sx.a[i] * sy.a[j];
          const T pdx = sx.da[i] * sy.a[j];
          const T pdy = sx.a[i] * sy.da[j];
          const T pdxx = sx.d2a[i] * sy.a[j];
          const T pdxy = sx.da[i] * sy.da[j];
          const T pdyy = sx.a[i] * sy.d2a[j];
          // All forty stencil-weight products are formed exactly as the
          // scalar kernel forms them, hoisted out of the spline sweep.
          T w[4], wx[4], wy[4], wz[4], wxx[4], wxy[4], wxz[4], wyy[4], wyz[4], wzz[4];
          for (int k = 0; k < 4; ++k)
          {
            const T za = sz.a[k];
            const T zda = sz.da[k];
            w[k] = pv * za;
            wx[k] = pdx * za;
            wy[k] = pdy * za;
            wz[k] = pv * zda;
            wxx[k] = pdxx * za;
            wxy[k] = pdxy * za;
            wxz[k] = pdx * zda;
            wyy[k] = pdyy * za;
            wyz[k] = pdy * zda;
            wzz[k] = pv * sz.d2a[k];
          }
          const T* __restrict line = coefs + index(sx.i0 + i, sy.i0 + j, sz.i0) + s0;
          if (!(i == 3 && j == 3))
          {
            const int ni = (j == 3) ? i + 1 : i;
            const int nj = (j == 3) ? 0 : j + 1;
            const T* nline = coefs + index(sx.i0 + ni, sy.i0 + nj, sz.i0) + s0;
            for (int k = 0; k < 4; ++k)
              prefetch_read(nline + static_cast<std::size_t>(k) * L, bs);
          }
          // One fused pass per coefficient line: the four k-slabs feed
          // all ten accumulators in a single sweep instead of the
          // scalar kernel's four separate ten-store sweeps. Statement
          // order (k ascending, components in the scalar order) keeps
          // the result bitwise identical.
#pragma omp simd
          for (std::size_t s = 0; s < bs; ++s)
          {
            T av = vo[s];
            T agx = gxo[s];
            T agy = gyo[s];
            T agz = gzo[s];
            T ahxx = hxxo[s];
            T ahxy = hxyo[s];
            T ahxz = hxzo[s];
            T ahyy = hyyo[s];
            T ahyz = hyzo[s];
            T ahzz = hzzo[s];
            for (int k = 0; k < 4; ++k)
            {
              const T cs = line[static_cast<std::size_t>(k) * L + s];
              av += w[k] * cs;
              agx += wx[k] * cs;
              agy += wy[k] * cs;
              agz += wz[k] * cs;
              ahxx += wxx[k] * cs;
              ahxy += wxy[k] * cs;
              ahxz += wxz[k] * cs;
              ahyy += wyy[k] * cs;
              ahyz += wyz[k] * cs;
              ahzz += wzz[k] * cs;
            }
            vo[s] = av;
            gxo[s] = agx;
            gyo[s] = agy;
            gzo[s] = agz;
            hxxo[s] = ahxx;
            hxyo[s] = ahxy;
            hxzo[s] = ahxz;
            hyyo[s] = ahyy;
            hyzo[s] = ahyz;
            hzzo[s] = ahzz;
          }
        }
    }
  }
}

// --------------------------------------------------------------------
// BsplineSetAoS (reference layout)
// --------------------------------------------------------------------

template<typename T>
void BsplineSetAoS<T>::resize(int nx, int ny, int nz, int num_splines)
{
  n_[0] = nx;
  n_[1] = ny;
  n_[2] = nz;
  const std::size_t per_spline = static_cast<std::size_t>(nx + 3) * (ny + 3) * (nz + 3);
  splines_.assign(num_splines, aligned_vector<T>(per_spline, T{}));
}

template<typename T>
void BsplineSetAoS<T>::set_coef(int s, int ix, int iy, int iz, T value)
{
  int gx[3], gy[3], gz[3];
  const int cx = ghost_positions(ix, n_[0], gx);
  const int cy = ghost_positions(iy, n_[1], gy);
  const int cz = ghost_positions(iz, n_[2], gz);
  for (int a = 0; a < cx; ++a)
    for (int b = 0; b < cy; ++b)
      for (int c = 0; c < cz; ++c)
        splines_[s][index(gx[a], gy[b], gz[c])] = value;
}

template<typename T>
T BsplineSetAoS<T>::get_coef(int s, int ix, int iy, int iz) const
{
  return splines_[s][index(ix + 1, iy + 1, iz + 1)];
}

template<typename T>
void BsplineSetAoS<T>::evaluate_v(const T u[3], T* __restrict vals) const
{
  SplineStencil<T> sx, sy, sz;
  sx.compute(u[0], n_[0]);
  sy.compute(u[1], n_[1]);
  sz.compute(u[2], n_[2]);
  const int ns = num_splines();
  for (int s = 0; s < ns; ++s)
  {
    const T* __restrict c = splines_[s].data();
    T acc{};
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j)
      {
        const T pre = sx.a[i] * sy.a[j];
        const std::size_t base = index(sx.i0 + i, sy.i0 + j, sz.i0);
        for (int k = 0; k < 4; ++k)
          acc += pre * sz.a[k] * c[base + k];
      }
    vals[s] = acc;
  }
}

template<typename T>
void BsplineSetAoS<T>::evaluate_vgh(const T u[3], const SplineVGHResult<T>& out) const
{
  SplineStencil<T> sx, sy, sz;
  sx.compute(u[0], n_[0]);
  sy.compute(u[1], n_[1]);
  sz.compute(u[2], n_[2]);
  const int ns = num_splines();
  for (int s = 0; s < ns; ++s)
  {
    const T* __restrict c = splines_[s].data();
    T v{}, gx{}, gy{}, gz{}, hxx{}, hxy{}, hxz{}, hyy{}, hyz{}, hzz{};
    for (int i = 0; i < 4; ++i)
      for (int j = 0; j < 4; ++j)
      {
        const T pv = sx.a[i] * sy.a[j];
        const T pdx = sx.da[i] * sy.a[j];
        const T pdy = sx.a[i] * sy.da[j];
        const T pdxx = sx.d2a[i] * sy.a[j];
        const T pdxy = sx.da[i] * sy.da[j];
        const T pdyy = sx.a[i] * sy.d2a[j];
        const std::size_t base = index(sx.i0 + i, sy.i0 + j, sz.i0);
        for (int k = 0; k < 4; ++k)
        {
          const T cs = c[base + k];
          v += pv * sz.a[k] * cs;
          gx += pdx * sz.a[k] * cs;
          gy += pdy * sz.a[k] * cs;
          gz += pv * sz.da[k] * cs;
          hxx += pdxx * sz.a[k] * cs;
          hxy += pdxy * sz.a[k] * cs;
          hxz += pdx * sz.da[k] * cs;
          hyy += pdyy * sz.a[k] * cs;
          hyz += pdy * sz.da[k] * cs;
          hzz += pv * sz.d2a[k] * cs;
        }
      }
    out.v[s] = v;
    out.g[0][s] = gx;
    out.g[1][s] = gy;
    out.g[2][s] = gz;
    out.h[0][s] = hxx;
    out.h[1][s] = hxy;
    out.h[2][s] = hxz;
    out.h[3][s] = hyy;
    out.h[4][s] = hyz;
    out.h[5][s] = hzz;
  }
}

template<typename T>
void BsplineSetAoS<T>::evaluate_v_multi(const T (*u)[3], int np, T* __restrict vals,
                                        std::size_t pos_stride) const
{
  // Flat per-position loop over the scalar kernel: the AoS reference
  // layout has no crowd-level reuse to exploit, but taking the batched
  // interface keeps it bitwise-interchangeable with the SoA engines.
  // Only [0, num_splines) of each row is written; padding lanes keep
  // whatever the caller staged (zero, per the mw contract).
  for (int ip = 0; ip < np; ++ip)
    evaluate_v(u[ip], vals + static_cast<std::size_t>(ip) * pos_stride);
}

template<typename T>
void BsplineSetAoS<T>::evaluate_vgh_multi(const T (*u)[3], int np,
                                          const SplineVGHMultiResult<T>& out) const
{
  for (int ip = 0; ip < np; ++ip)
  {
    const std::size_t off = static_cast<std::size_t>(ip) * out.pos_stride;
    const SplineVGHResult<T> one{out.v + off,
                                 {out.g[0] + off, out.g[1] + off, out.g[2] + off},
                                 {out.h[0] + off, out.h[1] + off, out.h[2] + off,
                                  out.h[3] + off, out.h[4] + off, out.h[5] + off}};
    evaluate_vgh(u[ip], one);
  }
}

// --------------------------------------------------------------------
// Periodic interpolation (spline prefilter)
// --------------------------------------------------------------------

void solve_periodic_spline(double* data, int n, std::ptrdiff_t stride)
{
  if (n < 3)
    throw std::invalid_argument("solve_periodic_spline: n must be >= 3");
  // Cyclic tridiagonal system: (1/6) c[i-1] + (4/6) c[i] + (1/6) c[i+1]
  // = f[i] with periodic indices. Numerical Recipes cyclic reduction:
  // solve two ordinary tridiagonal systems and apply a Sherman-Morrison
  // rank-1 correction for the corner entries.
  const double off = 1.0 / 6.0;
  const double diag = 4.0 / 6.0;
  const double gamma = -diag;

  std::vector<double> b(n, diag), r(n), z(n), u(n, 0.0), gam(n);
  for (int i = 0; i < n; ++i)
    r[i] = data[i * stride];
  b[0] = diag - gamma;
  b[n - 1] = diag - off * off / gamma;
  u[0] = gamma;
  u[n - 1] = off;

  auto thomas = [&](std::vector<double>& x, const std::vector<double>& rhs) {
    double bet = b[0];
    x[0] = rhs[0] / bet;
    for (int i = 1; i < n; ++i)
    {
      gam[i] = off / bet;
      bet = b[i] - off * gam[i];
      x[i] = (rhs[i] - off * x[i - 1]) / bet;
    }
    for (int i = n - 2; i >= 0; --i)
      x[i] -= gam[i + 1] * x[i + 1];
  };

  std::vector<double> y(n);
  thomas(y, r);
  thomas(z, u);
  const double fact = (y[0] + off * y[n - 1] / gamma) / (1.0 + z[0] + off * z[n - 1] / gamma);
  for (int i = 0; i < n; ++i)
    data[i * stride] = y[i] - fact * z[i];
}

template<typename T, typename SplineSet>
void fit_splines_periodic(SplineSet& set, int nx, int ny, int nz,
                          const std::vector<std::vector<double>>& samples)
{
  const int ns = static_cast<int>(samples.size());
  std::vector<double> grid(static_cast<std::size_t>(nx) * ny * nz);
  auto at = [&](int ix, int iy, int iz) -> double& {
    return grid[(static_cast<std::size_t>(ix) * ny + iy) * nz + iz];
  };
  for (int s = 0; s < ns; ++s)
  {
    const std::vector<double>& f = samples[s];
    assert(f.size() == grid.size());
    std::copy(f.begin(), f.end(), grid.begin());
    // Prefilter along z (stride 1), then y, then x.
    for (int ix = 0; ix < nx; ++ix)
      for (int iy = 0; iy < ny; ++iy)
        solve_periodic_spline(&at(ix, iy, 0), nz, 1);
    for (int ix = 0; ix < nx; ++ix)
      for (int iz = 0; iz < nz; ++iz)
        solve_periodic_spline(&at(ix, 0, iz), ny, nz);
    for (int iy = 0; iy < ny; ++iy)
      for (int iz = 0; iz < nz; ++iz)
        solve_periodic_spline(&at(0, iy, iz), nx, static_cast<std::ptrdiff_t>(ny) * nz);
    for (int ix = 0; ix < nx; ++ix)
      for (int iy = 0; iy < ny; ++iy)
        for (int iz = 0; iz < nz; ++iz)
          set.set_coef(s, ix, iy, iz, static_cast<T>(at(ix, iy, iz)));
  }
}

// Explicit instantiations.
template class MultiBspline3D<float>;
template class MultiBspline3D<double>;
template class BsplineSetAoS<float>;
template class BsplineSetAoS<double>;

template void fit_splines_periodic<float, MultiBspline3D<float>>(
    MultiBspline3D<float>&, int, int, int, const std::vector<std::vector<double>>&);
template void fit_splines_periodic<double, MultiBspline3D<double>>(
    MultiBspline3D<double>&, int, int, int, const std::vector<std::vector<double>>&);

template void fit_splines_periodic<float, BsplineSetAoS<float>>(
    BsplineSetAoS<float>&, int, int, int, const std::vector<std::vector<double>>&);
template void fit_splines_periodic<double, BsplineSetAoS<double>>(
    BsplineSetAoS<double>&, int, int, int, const std::vector<std::vector<double>>&);

} // namespace qmcxx
