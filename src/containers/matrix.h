// Row-major matrix with optional row padding, on aligned storage.
//
// Used for the SoA distance-table rows (paper Fig. 6b), the Jastrow
// U/dU/d2U matrices of the Ref implementation, and the inverse Slater
// matrices. Rows can be padded to the SIMD alignment so that each row
// supports aligned unit-stride access.
#ifndef QMCXX_CONTAINERS_MATRIX_H
#define QMCXX_CONTAINERS_MATRIX_H

#include <cassert>
#include <cstddef>

#include "config/config.h"
#include "containers/aligned_allocator.h"

namespace qmcxx
{

template<typename T>
class Matrix
{
public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, bool pad_rows = false) { resize(rows, cols, pad_rows); }

  void resize(std::size_t rows, std::size_t cols, bool pad_rows = false)
  {
    rows_ = rows;
    cols_ = cols;
    stride_ = pad_rows ? getAlignedSize<T>(cols) : cols;
    x_.assign(rows_ * stride_, T{});
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t stride() const { return stride_; }
  std::size_t size() const { return rows_ * cols_; }
  bool empty() const { return x_.empty(); }

  T& operator()(std::size_t i, std::size_t j)
  {
    assert(i < rows_ && j < cols_);
    return x_[i * stride_ + j];
  }
  const T& operator()(std::size_t i, std::size_t j) const
  {
    assert(i < rows_ && j < cols_);
    return x_[i * stride_ + j];
  }

  /// Aligned pointer to row i.
  T* row(std::size_t i) { return x_.data() + i * stride_; }
  const T* row(std::size_t i) const { return x_.data() + i * stride_; }

  T* data() { return x_.data(); }
  const T* data() const { return x_.data(); }

  void fill(T v)
  {
    for (auto& e : x_)
      e = v;
  }

private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  aligned_vector<T> x_;
};

} // namespace qmcxx

#endif
