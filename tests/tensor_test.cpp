#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"

namespace ccperf {
namespace {

TEST(Tensor, ConstructWithFill) {
  const Tensor t(Shape{2, 3}, 1.5f);
  EXPECT_EQ(t.NumElements(), 6);
  for (float v : t.Data()) EXPECT_FLOAT_EQ(v, 1.5f);
}

TEST(Tensor, ConstructFromData) {
  const Tensor t(Shape{2, 2}, {1.0f, 2.0f, 3.0f, 4.0f});
  EXPECT_FLOAT_EQ(t.At(0), 1.0f);
  EXPECT_FLOAT_EQ(t.At(3), 4.0f);
}

TEST(Tensor, ConstructRejectsSizeMismatch) {
  EXPECT_THROW(Tensor(Shape{2, 2}, std::vector<float>{1.0f}), CheckError);
}

TEST(Tensor, FlatAccessBoundsChecked) {
  Tensor t(Shape{4});
  EXPECT_THROW((void)t.At(4), CheckError);
  EXPECT_THROW((void)t.At(-1), CheckError);
  EXPECT_THROW(t.Set(4, 1.0f), CheckError);
}

TEST(Tensor, At4RowMajorNchwLayout) {
  // [n, c, h, w] with dims [2, 3, 4, 5]: offset = ((n*3+c)*4+h)*5+w.
  Tensor t(Shape{2, 3, 4, 5});
  t.Set(((1 * 3 + 2) * 4 + 3) * 5 + 4, 42.0f);
  EXPECT_FLOAT_EQ(t.At4(1, 2, 3, 4), 42.0f);
  t.Set4(0, 1, 2, 3, 7.0f);
  EXPECT_FLOAT_EQ(t.At(((0 * 3 + 1) * 4 + 2) * 5 + 3), 7.0f);
}

TEST(Tensor, At4RequiresRank4) {
  const Tensor t(Shape{4, 4});
  EXPECT_THROW((void)t.At4(0, 0, 0, 0), CheckError);
}

TEST(Tensor, At4BoundsChecked) {
  const Tensor t(Shape{1, 2, 3, 4});
  EXPECT_THROW((void)t.At4(0, 2, 0, 0), CheckError);
  EXPECT_THROW((void)t.At4(0, 0, 3, 0), CheckError);
}

TEST(Tensor, ReshapedPreservesData) {
  Tensor t(Shape{2, 3});
  for (std::int64_t i = 0; i < 6; ++i) t.Set(i, static_cast<float>(i));
  const Tensor r = t.Reshaped(Shape{3, 2});
  for (std::int64_t i = 0; i < 6; ++i) {
    EXPECT_FLOAT_EQ(r.At(i), static_cast<float>(i));
  }
  EXPECT_THROW(t.Reshaped(Shape{7}), CheckError);
}

TEST(Tensor, FillGaussianDeterministic) {
  Rng a(99), b(99);
  Tensor x(Shape{100}), y(Shape{100});
  x.FillGaussian(a, 0.0f, 1.0f);
  y.FillGaussian(b, 0.0f, 1.0f);
  for (std::int64_t i = 0; i < 100; ++i) EXPECT_EQ(x.At(i), y.At(i));
}

TEST(Tensor, ZeroFraction) {
  Tensor t(Shape{4}, {0.0f, 1.0f, 0.0f, 2.0f});
  EXPECT_DOUBLE_EQ(t.ZeroFraction(), 0.5);
  EXPECT_DOUBLE_EQ(Tensor().ZeroFraction(), 0.0);
}

TEST(Tensor, L1Norm) {
  const Tensor t(Shape{3}, {-1.0f, 2.0f, -3.0f});
  EXPECT_DOUBLE_EQ(t.L1Norm(), 6.0);
}

TEST(Tensor, CopyIsDeep) {
  Tensor a(Shape{2}, {1.0f, 2.0f});
  Tensor b = a;
  b.Set(0, 9.0f);
  EXPECT_FLOAT_EQ(a.At(0), 1.0f);
}

}  // namespace
}  // namespace ccperf
