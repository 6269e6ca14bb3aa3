// Unit tests: TinyVector, VectorSoaContainer, Matrix, PooledBuffer,
// aligned allocation and the memory tracker.
#include <gtest/gtest.h>

#include <cstdint>

#include "config/config.h"
#include "containers/aligned_allocator.h"
#include "containers/matrix.h"
#include "containers/pooled_buffer.h"
#include "containers/tiny_vector.h"
#include "containers/vector_soa.h"
#include "instrument/memory_tracker.h"

using namespace qmcxx;

TEST(TinyVector, ArithmeticAndDot)
{
  TinyVector<double, 3> a{1, 2, 3}, b{4, 5, 6};
  auto c = a + b;
  EXPECT_EQ(c, (TinyVector<double, 3>{5, 7, 9}));
  c -= a;
  EXPECT_EQ(c, b);
  EXPECT_DOUBLE_EQ(dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(norm2(a), 14.0);
  auto s = 2.0 * a;
  EXPECT_EQ(s, (TinyVector<double, 3>{2, 4, 6}));
  EXPECT_EQ(-a, (TinyVector<double, 3>{-1, -2, -3}));
}

TEST(TinyVector, CrossProduct)
{
  TinyVector<double, 3> x{1, 0, 0}, y{0, 1, 0};
  EXPECT_EQ(cross(x, y), (TinyVector<double, 3>{0, 0, 1}));
  EXPECT_EQ(cross(y, x), (TinyVector<double, 3>{0, 0, -1}));
}

TEST(TinyVector, PrecisionConversion)
{
  TinyVector<double, 3> a{1.5, -2.25, 3.125};
  TinyVector<float, 3> f(a);
  for (unsigned d = 0; d < 3; ++d)
    EXPECT_FLOAT_EQ(f[d], static_cast<float>(a[d]));
}

TEST(AlignedAllocator, ReturnsAlignedPointers)
{
  aligned_vector<float> v(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % QMC_SIMD_ALIGNMENT, 0u);
  aligned_vector<double> w(17);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w.data()) % QMC_SIMD_ALIGNMENT, 0u);
}

TEST(AlignedSize, PadsToAlignment)
{
  EXPECT_EQ(getAlignedSize<float>(1), 16u);
  EXPECT_EQ(getAlignedSize<float>(16), 16u);
  EXPECT_EQ(getAlignedSize<float>(17), 32u);
  EXPECT_EQ(getAlignedSize<double>(8), 8u);
  EXPECT_EQ(getAlignedSize<double>(9), 16u);
}

TEST(VectorSoa, RoundTripFromAoS)
{
  std::vector<TinyVector<double, 3>> aos(13);
  for (int i = 0; i < 13; ++i)
    aos[i] = {1.0 * i, 2.0 * i, 3.0 * i};
  VectorSoaContainer<double, 3> soa;
  soa = aos;
  ASSERT_EQ(soa.size(), 13u);
  for (int i = 0; i < 13; ++i)
    EXPECT_EQ(soa[i], aos[i]);
  std::vector<TinyVector<double, 3>> back;
  soa.copyTo(back);
  EXPECT_EQ(back, aos);
}

TEST(VectorSoa, ComponentRowsAreAlignedAndPadded)
{
  VectorSoaContainer<float, 3> soa(17);
  EXPECT_GE(soa.capacity(), 17u);
  EXPECT_EQ(soa.capacity() % (QMC_SIMD_ALIGNMENT / sizeof(float)), 0u);
  for (unsigned d = 0; d < 3; ++d)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(soa.data(d)) % QMC_SIMD_ALIGNMENT, 0u);
  // Padding stays zero after element assignment.
  soa.assign(16, TinyVector<float, 3>{1, 2, 3});
  for (std::size_t j = 17; j < soa.capacity(); ++j)
    EXPECT_EQ(soa(0, j), 0.0f);
}

TEST(VectorSoa, MixedPrecisionAssignment)
{
  std::vector<TinyVector<double, 3>> aos(5, TinyVector<double, 3>{0.1, 0.2, 0.3});
  VectorSoaContainer<float, 3> soa;
  soa = aos;
  EXPECT_FLOAT_EQ(soa(0, 0), 0.1f);
  EXPECT_FLOAT_EQ(soa(2, 4), 0.3f);
}

TEST(Matrix, PaddedRowsAligned)
{
  Matrix<float> m(5, 17, /*pad_rows=*/true);
  EXPECT_EQ(m.stride() % (QMC_SIMD_ALIGNMENT / sizeof(float)), 0u);
  for (std::size_t i = 0; i < m.rows(); ++i)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(m.row(i)) % QMC_SIMD_ALIGNMENT, 0u);
  m(4, 16) = 2.5f;
  EXPECT_EQ(m.row(4)[16], 2.5f);
}

TEST(Matrix, UnpaddedStrideEqualsCols)
{
  Matrix<double> m(3, 7);
  EXPECT_EQ(m.stride(), 7u);
  m.fill(1.5);
  EXPECT_EQ(m(2, 6), 1.5);
}

TEST(PooledBuffer, PutGetRoundTrip)
{
  PooledBuffer buf;
  buf.reserve<double>(3);
  buf.reserve<float>(2);
  buf.reserve<int>(1);

  const double d[3] = {1.0, 2.0, 3.0};
  const float f[2] = {4.0f, 5.0f};
  const int i = 42;
  buf.rewind();
  buf.put(d, 3);
  buf.put(f, 2);
  buf.put(i);

  double d2[3];
  float f2[2];
  int i2 = 0;
  buf.rewind();
  buf.get(d2, 3);
  buf.get(f2, 2);
  buf.get(i2);
  EXPECT_EQ(d2[0], 1.0);
  EXPECT_EQ(d2[2], 3.0);
  EXPECT_EQ(f2[1], 5.0f);
  EXPECT_EQ(i2, 42);
}

TEST(PooledBuffer, SizeReflectsRegistrations)
{
  PooledBuffer buf;
  buf.reserve<double>(10);
  EXPECT_GE(buf.size(), 80u);
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
}

TEST(PooledBuffer, LayoutOnlyMeasuresWithoutAllocating)
{
  // Same registration, with the alignment padding between float and
  // double: the layout-only buffer reports the same size and holds no
  // storage.
  PooledBuffer real;
  PooledBuffer layout = PooledBuffer::layout_only();
  for (PooledBuffer* b : {&real, &layout})
  {
    b->reserve<float>(3);
    b->reserve<double>(5);
    b->reserve<char>(1);
  }
  EXPECT_EQ(layout.size(), real.size());
  EXPECT_EQ(layout.size(), 12u + 4u + 40u + 1u);
  EXPECT_EQ(layout.capacity(), 0u);
}

TEST(MemoryTracker, TracksAllocations)
{
  auto& mt = MemoryTracker::instance();
  const std::size_t before = mt.current();
  {
    aligned_vector<double> v(1024);
    EXPECT_GE(mt.current(), before + 1024 * sizeof(double));
  }
  EXPECT_EQ(mt.current(), before);
}

TEST(MemoryTracker, TagsAttributeGrowth)
{
  auto& mt = MemoryTracker::instance();
  mt.clearTags();
  aligned_vector<float> keep;
  {
    MemoryScope scope("test-tag");
    keep.resize(4096);
  }
  EXPECT_GE(mt.taggedBytes("test-tag"), 4096 * sizeof(float));
  mt.clearTags();
}
