// One-dimensional cubic B-spline functor on a uniform grid.
//
// This is the Jastrow functor of the paper (Sec. 3, Fig. 3): QMCPACK
// represents U_I(r) and U_2(r) as cubic B-splines with a finite cutoff
// because of their "generality and computational efficiency". The
// evaluation has the branch condition (r < rcut) the paper cites as the
// reason Jastrow vectorization efficiency is slightly below ideal.
//
// Basis on segment i, with t in [0,1):
//   u(x) = c[i] A0(t) + c[i+1] A1(t) + c[i+2] A2(t) + c[i+3] A3(t)
// with the standard uniform cubic B-spline weights
//   A0 = (1-t)^3/6, A1 = (3t^3-6t^2+4)/6, A2 = (-3t^3+3t^2+3t+1)/6,
//   A3 = t^3/6.
// The last three coefficients are forced to zero so u, u' and u'' vanish
// smoothly at the cutoff.
#ifndef QMCXX_NUMERICS_CUBIC_BSPLINE_1D_H
#define QMCXX_NUMERICS_CUBIC_BSPLINE_1D_H

#include <cmath>
#include <cstddef>

#include "containers/aligned_allocator.h"

namespace qmcxx
{

template<typename T>
class CubicBsplineFunctor
{
public:
  CubicBsplineFunctor() = default;

  /// Construct from B-spline coefficients; coefs.size() == M+3 where M is
  /// the number of grid segments on [0, rcut].
  CubicBsplineFunctor(T rcut, aligned_vector<T> coefs)
      : rcut_(rcut), coefs_(std::move(coefs))
  {
    const std::size_t m = coefs_.size() - 3;
    delta_ = rcut_ / static_cast<T>(m);
    delta_inv_ = T(1) / delta_;
    // Guard: for r just below rcut, r * delta_inv_ can round up to m,
    // and segment m reads c[m + 3] (with weight t^3/6 = 0).
    coefs_.push_back(T(0));
  }

  T cutoff() const { return rcut_; }

  /// u(r); zero outside the cutoff.
  T evaluate(T r) const
  {
    if (r >= rcut_)
      return T(0);
    const T t_full = r * delta_inv_;
    const std::size_t i = static_cast<std::size_t>(t_full);
    const T t = t_full - static_cast<T>(i);
    const T t2 = t * t;
    const T t3 = t2 * t;
    const T* c = coefs_.data() + i;
    return c[0] * (T(1.0 / 6.0) * (T(1) - t) * (T(1) - t) * (T(1) - t)) +
        c[1] * (T(1.0 / 6.0) * (T(3) * t3 - T(6) * t2 + T(4))) +
        c[2] * (T(1.0 / 6.0) * (T(-3) * t3 + T(3) * t2 + T(3) * t + T(1))) +
        c[3] * (T(1.0 / 6.0) * t3);
  }

  /// u(r) with first and second derivatives; all zero outside the cutoff.
  T evaluate(T r, T& du, T& d2u) const
  {
    if (r >= rcut_)
    {
      du = T(0);
      d2u = T(0);
      return T(0);
    }
    const T t_full = r * delta_inv_;
    const std::size_t i = static_cast<std::size_t>(t_full);
    const T t = t_full - static_cast<T>(i);
    const T t2 = t * t;
    const T t3 = t2 * t;
    const T omt = T(1) - t;
    const T* c = coefs_.data() + i;
    const T u = c[0] * (T(1.0 / 6.0) * omt * omt * omt) +
        c[1] * (T(1.0 / 6.0) * (T(3) * t3 - T(6) * t2 + T(4))) +
        c[2] * (T(1.0 / 6.0) * (T(-3) * t3 + T(3) * t2 + T(3) * t + T(1))) +
        c[3] * (T(1.0 / 6.0) * t3);
    du = delta_inv_ *
        (c[0] * (T(-0.5) * omt * omt) + c[1] * (T(0.5) * (T(3) * t2 - T(4) * t)) +
         c[2] * (T(0.5) * (T(-3) * t2 + T(2) * t + T(1))) + c[3] * (T(0.5) * t2));
    d2u = delta_inv_ * delta_inv_ *
        (c[0] * omt + c[1] * (T(3) * t - T(2)) + c[2] * (T(1) - T(3) * t) + c[3] * t);
    return u;
  }

  /// Sum of u over a distance array, skipping index `skip` (the active
  /// particle); the SIMD-friendly form consumed by the SoA Jastrows.
  T evaluateV(const T* __restrict dist, std::size_t n, std::ptrdiff_t skip = -1) const
  {
    T sum{};
    for (std::size_t j = 0; j < n; ++j)
    {
      if (static_cast<std::ptrdiff_t>(j) == skip)
        continue;
      sum += evaluate(dist[j]);
    }
    return sum;
  }

  /// Array form: u_j, u'_j / r_j and u''_j for each distance. Entries at
  /// or beyond the cutoff (and the skipped index) produce zeros.
  void evaluateVGL(const T* __restrict dist, T* __restrict u, T* __restrict du_over_r,
                   T* __restrict d2u, std::size_t n, std::ptrdiff_t skip = -1) const
  {
    for (std::size_t j = 0; j < n; ++j)
    {
      if (static_cast<std::ptrdiff_t>(j) == skip || dist[j] >= rcut_)
      {
        u[j] = du_over_r[j] = d2u[j] = T(0);
        continue;
      }
      T du_j, d2u_j;
      u[j] = evaluate(dist[j], du_j, d2u_j);
      du_over_r[j] = du_j / dist[j];
      d2u[j] = d2u_j;
    }
  }

private:
  T rcut_{1};
  T delta_{1};
  T delta_inv_{1};
  aligned_vector<T> coefs_;
};

} // namespace qmcxx

#endif
