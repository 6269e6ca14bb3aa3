// Anonymous walker buffer (paper Fig. 4: `Buffer<T> Any`).
//
// Each walker owns an opaque byte stream holding whatever internal state
// its wavefunction components need to resume particle-by-particle updates
// without recomputation. The exact composition is only known at run time;
// components append their state during a registration pass and then
// stream it in/out around loadWalker/storeWalker. The size of this buffer
// is exactly the per-walker memory the paper's compute-on-the-fly work
// shrinks from O(N^2) to O(N).
#ifndef QMCXX_CONTAINERS_POOLED_BUFFER_H
#define QMCXX_CONTAINERS_POOLED_BUFFER_H

#include <cassert>
#include <cstddef>
#include <cstring>
#include <type_traits>

#include "containers/aligned_allocator.h"

namespace qmcxx
{

class PooledBuffer
{
public:
  /// A buffer that only measures a registration pass: reserve() grows
  /// size() and allocates nothing, so sizing the per-walker state moves
  /// no heap memory. It holds no bytes and cannot be streamed.
  static PooledBuffer layout_only()
  {
    PooledBuffer b;
    b.layout_only_ = true;
    return b;
  }

  /// Registration pass: reserve space for n values of T, returning the
  /// byte offset (components usually ignore it and rely on ordering).
  template<typename T>
  std::size_t reserve(std::size_t n)
  {
    static_assert(std::is_trivially_copyable_v<T>,
                  "PooledBuffer streams raw bytes; T must be trivially copyable");
    const std::size_t offset = align(size(), alignof(T));
    if (layout_only_)
      layout_size_ = offset + n * sizeof(T);
    else
      data_.resize(offset + n * sizeof(T));
    return offset;
  }

  /// Rewind the stream cursor before a put/get pass.
  void rewind() { cursor_ = 0; }

  /// Stream n values of T into the buffer at the cursor.
  template<typename T>
  void put(const T* v, std::size_t n)
  {
    static_assert(std::is_trivially_copyable_v<T>,
                  "PooledBuffer streams raw bytes; T must be trivially copyable");
    cursor_ = align(cursor_, alignof(T));
    assert(cursor_ + n * sizeof(T) <= data_.size());
    std::memcpy(data_.data() + cursor_, v, n * sizeof(T));
    cursor_ += n * sizeof(T);
  }

  template<typename T>
  void put(const T& v)
  {
    put(&v, 1);
  }

  /// Stream n values of T out of the buffer at the cursor.
  template<typename T>
  void get(T* v, std::size_t n)
  {
    static_assert(std::is_trivially_copyable_v<T>,
                  "PooledBuffer streams raw bytes; T must be trivially copyable");
    cursor_ = align(cursor_, alignof(T));
    assert(cursor_ + n * sizeof(T) <= data_.size());
    std::memcpy(v, data_.data() + cursor_, n * sizeof(T));
    cursor_ += n * sizeof(T);
  }

  template<typename T>
  void get(T& v)
  {
    get(&v, 1);
  }

  [[nodiscard]] std::size_t size() const { return layout_only_ ? layout_size_ : data_.size(); }
  /// Bytes actually held by the backing store (>= size()); the honest
  /// number for per-walker memory budgeting (Walker::byte_size).
  [[nodiscard]] std::size_t capacity() const { return data_.capacity(); }
  [[nodiscard]] std::size_t cursor() const { return cursor_; }

  /// Raw byte view, for bit-exact round-trip checks and cross-rank
  /// shipping. The layout is only meaningful to the components that
  /// registered it, in registration order.
  const char* data() const { return data_.data(); }

  /// Replace the whole contents with raw bytes (snapshot restore,
  /// cross-rank shipping). The byte stream must come from a buffer
  /// registered by an identically composed wavefunction -- the
  /// workload fingerprint in qmcxx-snap-v1 headers guards exactly this.
  void assign(const char* bytes, std::size_t n)
  {
    data_.assign(bytes, bytes + n);
    cursor_ = 0;
  }

  void clear()
  {
    data_.clear();
    data_.shrink_to_fit();
    cursor_ = 0;
  }

private:
  static std::size_t align(std::size_t offset, std::size_t a) { return (offset + a - 1) / a * a; }

  aligned_vector<char> data_;
  std::size_t cursor_ = 0;
  bool layout_only_ = false;
  std::size_t layout_size_ = 0; ///< size() of a layout-only buffer
};

} // namespace qmcxx

#endif
