// Dense linear algebra kernels used by the Slater-determinant engine.
//
// Self-contained replacements for the LAPACK/BLAS calls QMCPACK makes:
// LU factorization with partial pivoting (determinant + inverse), the
// BLAS2 kernels (gemv, ger) that implement the Sherman-Morrison rank-1
// inverse update, and a simple blocked gemm used by the delayed
// (Woodbury) update engine of Sec. 8.4.
#ifndef QMCXX_NUMERICS_LINALG_H
#define QMCXX_NUMERICS_LINALG_H

#include <cassert>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "containers/matrix.h"

namespace qmcxx::linalg
{

/// LU factorization with partial pivoting, in place (Doolittle).
/// Returns the pivot vector; sign_out accumulates the permutation sign.
/// Throws std::runtime_error on an exactly singular matrix.
template<typename T>
std::vector<int> lu_factor(Matrix<T>& a, int& sign_out)
{
  const std::size_t n = a.rows();
  assert(a.cols() == n);
  std::vector<int> pivot(n);
  sign_out = 1;
  for (std::size_t k = 0; k < n; ++k)
  {
    // Partial pivot: largest |a(i,k)| for i >= k.
    std::size_t p = k;
    T maxval = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i)
    {
      const T v = std::abs(a(i, k));
      if (v > maxval)
      {
        maxval = v;
        p = i;
      }
    }
    if (maxval == T(0))
      throw std::runtime_error("lu_factor: singular matrix");
    pivot[k] = static_cast<int>(p);
    if (p != k)
    {
      sign_out = -sign_out;
      for (std::size_t j = 0; j < n; ++j)
        std::swap(a(k, j), a(p, j));
    }
    const T inv_diag = T(1) / a(k, k);
    for (std::size_t i = k + 1; i < n; ++i)
    {
      const T lik = a(i, k) * inv_diag;
      a(i, k) = lik;
      T* __restrict ai = a.row(i);
      const T* __restrict ak = a.row(k);
      for (std::size_t j = k + 1; j < n; ++j)
        ai[j] -= lik * ak[j];
    }
  }
  return pivot;
}

/// log|det A| and sign of det A from an LU factorization.
template<typename T>
void lu_logdet(const Matrix<T>& lu, int pivot_sign, double& logdet, double& sign)
{
  const std::size_t n = lu.rows();
  logdet = 0.0;
  sign = pivot_sign;
  for (std::size_t k = 0; k < n; ++k)
  {
    const double d = static_cast<double>(lu(k, k));
    logdet += std::log(std::abs(d));
    if (d < 0)
      sign = -sign;
  }
}

/// out = A^-1, with log|det A| and sign as byproducts. A is consumed:
/// it holds the LU factors afterwards.
///
/// The n right-hand sides are solved together, row by row, starting
/// from X = P I; every row update is a unit-stride axpy over all
/// columns. Each element sees the operations of the textbook solve of
/// its unit column, in that order (forward updates by ascending k, back
/// updates by descending k, then the division by the pivot), so the
/// result is bitwise the column-at-a-time inverse
/// (Linalg.RowSolveBitwiseEqualsColumnSolve).
template<typename T>
void invert_matrix(Matrix<T>&& a, Matrix<T>& out, double& logdet, double& sign)
{
  const std::size_t n = a.rows();
  int psign = 1;
  const std::vector<int> pivot = lu_factor(a, psign);
  lu_logdet(a, psign, logdet, sign);

  // X = P I: the pivots' row swaps, applied in order to the identity.
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i)
    perm[i] = i;
  for (std::size_t k = 0; k < n; ++k)
    std::swap(perm[k], perm[static_cast<std::size_t>(pivot[k])]);
  out.resize(n, n, /*pad_rows=*/false);
  for (std::size_t i = 0; i < n; ++i)
    out(i, perm[i]) = T(1);

  for (std::size_t i = 1; i < n; ++i)
  {
    T* __restrict xi = out.row(i);
    for (std::size_t k = 0; k < i; ++k)
    {
      const T lik = a(i, k);
      const T* __restrict xk = out.row(k);
      for (std::size_t j = 0; j < n; ++j)
        xi[j] -= lik * xk[j];
    }
  }
  for (std::size_t i = n; i-- > 0;)
  {
    T* __restrict xi = out.row(i);
    for (std::size_t k = n; --k > i;)
    {
      const T uik = a(i, k);
      const T* __restrict xk = out.row(k);
      for (std::size_t j = 0; j < n; ++j)
        xi[j] -= uik * xk[j];
    }
    const T uii = a(i, i);
    for (std::size_t j = 0; j < n; ++j)
      xi[j] /= uii;
  }
}

/// out = A^-1, with log|det A| and sign as byproducts. A is not modified.
template<typename T>
void invert_matrix(const Matrix<T>& a, Matrix<T>& out, double& logdet, double& sign)
{
  invert_matrix(Matrix<T>(a), out, logdet, sign);
}

/// y = alpha * A x + beta * y  (row-major, A is m x n).
template<typename T>
void gemv(const Matrix<T>& a, const T* x, T* y, T alpha = T(1), T beta = T(0))
{
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  for (std::size_t i = 0; i < m; ++i)
  {
    const T* __restrict ai = a.row(i);
    T s{};
    for (std::size_t j = 0; j < n; ++j)
      s += ai[j] * x[j];
    y[i] = alpha * s + beta * y[i];
  }
}

/// Rank-1 update A += alpha * x y^T (the BLAS2 core of Sherman-Morrison).
template<typename T>
void ger(Matrix<T>& a, const T* x, const T* y, T alpha)
{
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  for (std::size_t i = 0; i < m; ++i)
  {
    T* __restrict ai = a.row(i);
    const T xi = alpha * x[i];
#pragma omp simd
    for (std::size_t j = 0; j < n; ++j)
      ai[j] += xi * y[j];
  }
}

/// C = alpha * A B + beta * C on raw row-major storage with explicit
/// leading dimensions: C is m x n (ldc), A is m x k (lda), B is k x n
/// (ldb). The Woodbury flush runs its rank-d gemms through this form so
/// a partially filled delay window (d < delay rows of a preallocated
/// binding matrix) needs no repacking. Naive ipj ordering, unit-stride
/// inner loop.
template<typename T>
void gemm_strided(const T* __restrict a, std::size_t lda, const T* __restrict b, std::size_t ldb,
                  T* __restrict c, std::size_t ldc, std::size_t m, std::size_t k, std::size_t n,
                  T alpha = T(1), T beta = T(0))
{
  for (std::size_t i = 0; i < m; ++i)
  {
    T* __restrict ci = c + i * ldc;
    if (beta != T(1))
      for (std::size_t j = 0; j < n; ++j)
        ci[j] *= beta;
    const T* __restrict ai = a + i * lda;
    for (std::size_t p = 0; p < k; ++p)
    {
      const T aip = alpha * ai[p];
      const T* __restrict bp = b + p * ldb;
#pragma omp simd
      for (std::size_t j = 0; j < n; ++j)
        ci[j] += aip * bp[j];
    }
  }
}

/// C = alpha * A B + beta * C. Naive ikj ordering (unit-stride inner loop);
/// the delayed-update engine calls this with small k so this is adequate.
template<typename T>
void gemm(const Matrix<T>& a, const Matrix<T>& b, Matrix<T>& c, T alpha = T(1), T beta = T(0))
{
  const std::size_t m = a.rows();
  const std::size_t k = a.cols();
  const std::size_t n = b.cols();
  assert(b.rows() == k);
  if (c.rows() != m || c.cols() != n)
    c.resize(m, n);
  gemm_strided(a.data(), a.stride(), b.data(), b.stride(), c.data(), c.stride(), m, k, n, alpha,
               beta);
}

/// dot product over n entries.
template<typename T>
T dot_n(const T* __restrict a, const T* __restrict b, std::size_t n)
{
  T s{};
#pragma omp simd reduction(+ : s)
  for (std::size_t i = 0; i < n; ++i)
    s += a[i] * b[i];
  return s;
}

} // namespace qmcxx::linalg

#endif
