// Minimum-image row kernels shared by every distance-table layout.
//
// Both table layouts (AoS reference, Fig. 6a; SoA canonical, Fig. 6b)
// compute the same pair quantities; only storage and update policy
// differ. Keeping the arithmetic in one place makes the layouts
// bitwise-interchangeable, which the layout-parity tests rely on: a
// Reference-mode run must reproduce the canonical chains exactly.
//
// Orthorhombic cells use a branch-free component-wise wrap in compute
// precision; skewed (hexagonal etc.) cells use the reduced wrap plus
// the 8-corner search, the general-cell scheme QMCPACK's SoA tables
// employ. Both row loops vectorize at the compiler's default x86-64
// target (SSE2) and at the host ISA the library builds for by default:
// rounding is plain arithmetic (round_half_even) instead of a libm call,
// the corner search is unrolled, and the library builds with
// -fno-math-errno -fno-trapping-math so sqrt and the selects if-convert
// (CMakeLists.txt). The loops are element-wise, so their results do not
// depend on the vector width.
#ifndef QMCXX_PARTICLE_MIN_IMAGE_KERNEL_H
#define QMCXX_PARTICLE_MIN_IMAGE_KERNEL_H

#include <cmath>
#include <limits>

#include "containers/tiny_vector.h"
#include "particle/lattice.h"

namespace qmcxx
{

template<typename TR>
struct MinImageKernel
{
  explicit MinImageKernel(const Lattice& lat) : lattice(&lat), ortho(lat.orthorhombic())
  {
    for (unsigned d = 0; d < 3; ++d)
    {
      L[d] = static_cast<TR>(lat.rows()[d][d]);
      Linv[d] = TR(1) / L[d];
    }
    // Reduced-coordinate transform rows: f_a = dot(ainv[a], dr).
    const TinyVector<double, 3> ex{1, 0, 0}, ey{0, 1, 0}, ez{0, 0, 1};
    const auto ux = lat.to_unit(ex);
    const auto uy = lat.to_unit(ey);
    const auto uz = lat.to_unit(ez);
    for (unsigned a = 0; a < 3; ++a)
    {
      ainv[a][0] = static_cast<TR>(ux[a]);
      ainv[a][1] = static_cast<TR>(uy[a]);
      ainv[a][2] = static_cast<TR>(uz[a]);
      for (unsigned d = 0; d < 3; ++d)
        cell[a][d] = static_cast<TR>(lat.rows()[a][d]);
    }
  }

  const Lattice* lattice;
  bool ortho;
  TR L[3];
  TR Linv[3];
  TR ainv[3][3]; ///< rows of A^-T (reduced-coordinate transform)
  TR cell[3][3]; ///< lattice vectors (rows)
};

/// Round to nearest, ties to even: bitwise equal to std::nearbyint in
/// the default rounding mode for every finite and infinite input, but
/// plain arithmetic and one select, so the row loops vectorize where
/// nearbyint is a libm call. Below C = 1/epsilon, adding and removing C
/// rounds the fraction off in the FPU's own ties-to-even mode; from C
/// up every value is already an integer. (Adding back |f| - min(|f|, C)
/// instead of the select is one ulp off for odd-mantissa inputs in
/// [2^47, 2^48) in float and [2^105, 2^106) in double.)
template<typename TR>
inline TR round_half_even(TR f)
{
  constexpr TR c = TR(1) / std::numeric_limits<TR>::epsilon();
  const TR a = std::abs(f);
  return std::copysign(a < c ? (a + c) - c : a, f);
}

/// General-cell row kernel: reduced wrap plus the 8-corner candidate
/// search over sign-directed lattice shifts. Exact for all the cells
/// used by the workloads (validated against the 27-image search in the
/// tests).
template<typename TR>
inline void general_cell_row(const MinImageKernel<TR>& mik, const TR* __restrict xs,
                             const TR* __restrict ys, const TR* __restrict zs, TR x0, TR y0, TR z0,
                             int n, TR* __restrict d, TR* __restrict dx, TR* __restrict dy,
                             TR* __restrict dz)
{
  const TR i00 = mik.ainv[0][0], i01 = mik.ainv[0][1], i02 = mik.ainv[0][2];
  const TR i10 = mik.ainv[1][0], i11 = mik.ainv[1][1], i12 = mik.ainv[1][2];
  const TR i20 = mik.ainv[2][0], i21 = mik.ainv[2][1], i22 = mik.ainv[2][2];
  const TR a00 = mik.cell[0][0], a01 = mik.cell[0][1], a02 = mik.cell[0][2];
  const TR a10 = mik.cell[1][0], a11 = mik.cell[1][1], a12 = mik.cell[1][2];
  const TR a20 = mik.cell[2][0], a21 = mik.cell[2][1], a22 = mik.cell[2][2];
#pragma omp simd
  for (int j = 0; j < n; ++j)
  {
    const TR rx = xs[j] - x0;
    const TR ry = ys[j] - y0;
    const TR rz = zs[j] - z0;
    TR f0 = i00 * rx + i01 * ry + i02 * rz;
    TR f1 = i10 * rx + i11 * ry + i12 * rz;
    TR f2 = i20 * rx + i21 * ry + i22 * rz;
    f0 -= round_half_even(f0);
    f1 -= round_half_even(f1);
    f2 -= round_half_even(f2);
    const TR bx = f0 * a00 + f1 * a10 + f2 * a20;
    const TR by = f0 * a01 + f1 * a11 + f2 * a21;
    const TR bz = f0 * a02 + f1 * a12 + f2 * a22;
    TR best2 = bx * bx + by * by + bz * bz;
    TR ox = bx, oy = by, oz = bz;
    // Sign-directed corner shifts.
    const TR s0 = -std::copysign(TR(1), f0);
    const TR s1 = -std::copysign(TR(1), f1);
    const TR s2 = -std::copysign(TR(1), f2);
    const TR c0x = s0 * a00, c0y = s0 * a01, c0z = s0 * a02;
    const TR c1x = s1 * a10, c1y = s1 * a11, c1z = s1 * a12;
    const TR c2x = s2 * a20, c2y = s2 * a21, c2z = s2 * a22;
    // Candidates b + sum of the shifts in corner m's bits, m = 1..7 in
    // order, unrolled (an inner loop blocks vectorization); the strict <
    // keeps the first minimum. The sums start from b + 0, which turns a
    // -0 into +0 exactly as the zero terms of a masked
    // b + (m&1 ? c0 : 0) + (m&2 ? c1 : 0) + (m&4 ? c2 : 0) would.
    const TR px = bx + TR(0), py = by + TR(0), pz = bz + TR(0);
    const auto corner = [&](TR sx, TR sy, TR sz) {
      const TR r2 = sx * sx + sy * sy + sz * sz;
      const bool better = r2 < best2;
      best2 = better ? r2 : best2;
      ox = better ? sx : ox;
      oy = better ? sy : oy;
      oz = better ? sz : oz;
    };
    corner(px + c0x, py + c0y, pz + c0z);
    corner(px + c1x, py + c1y, pz + c1z);
    corner(px + c0x + c1x, py + c0y + c1y, pz + c0z + c1z);
    corner(px + c2x, py + c2y, pz + c2z);
    corner(px + c0x + c2x, py + c0y + c2y, pz + c0z + c2z);
    corner(px + c1x + c2x, py + c1y + c2y, pz + c1z + c2z);
    corner(px + c0x + c1x + c2x, py + c0y + c1y + c2y, pz + c0z + c1z + c2z);
    d[j] = std::sqrt(best2);
    dx[j] = ox;
    dy[j] = oy;
    dz[j] = oz;
  }
}

/// Branch-free component-wise wrap for orthorhombic cells.
template<typename TR>
inline void ortho_cell_row(const MinImageKernel<TR>& mik, const TR* __restrict xs,
                           const TR* __restrict ys, const TR* __restrict zs, TR x0, TR y0, TR z0,
                           int n, TR* __restrict d, TR* __restrict dx, TR* __restrict dy,
                           TR* __restrict dz)
{
  const TR lx = mik.L[0], ly = mik.L[1], lz = mik.L[2];
  const TR ix = mik.Linv[0], iy = mik.Linv[1], iz = mik.Linv[2];
#pragma omp simd
  for (int j = 0; j < n; ++j)
  {
    TR ddx = xs[j] - x0;
    TR ddy = ys[j] - y0;
    TR ddz = zs[j] - z0;
    ddx -= lx * round_half_even(ddx * ix);
    ddy -= ly * round_half_even(ddy * iy);
    ddz -= lz * round_half_even(ddz * iz);
    d[j] = std::sqrt(ddx * ddx + ddy * ddy + ddz * ddz);
    dx[j] = ddx;
    dy[j] = ddy;
    dz[j] = ddz;
  }
}

/// Layout-agnostic row entry point: d[j] = |min_image(r_j - r0)| and the
/// wrapped displacement components, for sources given as SoA component
/// arrays. Every distance-table implementation funnels through here.
template<typename TR>
inline void min_image_row(const MinImageKernel<TR>& mik, const TR* xs, const TR* ys, const TR* zs,
                          TR x0, TR y0, TR z0, int n, TR* d, TR* dx, TR* dy, TR* dz)
{
  if (mik.ortho)
    ortho_cell_row(mik, xs, ys, zs, x0, y0, z0, n, d, dx, dy, dz);
  else
    general_cell_row(mik, xs, ys, zs, x0, y0, z0, n, d, dx, dy, dz);
}

} // namespace qmcxx

#endif
