#include "tensor/shape.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace ccperf {
namespace {

TEST(Shape, RankAndDims) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.Rank(), 3u);
  EXPECT_EQ(s.Dim(0), 2);
  EXPECT_EQ(s.Dim(1), 3);
  EXPECT_EQ(s.Dim(2), 4);
}

TEST(Shape, NumElements) {
  EXPECT_EQ((Shape{2, 3, 4}).NumElements(), 24);
  EXPECT_EQ((Shape{}).NumElements(), 1);
  EXPECT_EQ((Shape{5, 0, 3}).NumElements(), 0);
}

TEST(Shape, RowMajorStrides) {
  const Shape s{2, 3, 4, 5};
  EXPECT_EQ(s.Stride(3), 1);
  EXPECT_EQ(s.Stride(2), 5);
  EXPECT_EQ(s.Stride(1), 20);
  EXPECT_EQ(s.Stride(0), 60);
}

TEST(Shape, Equality) {
  EXPECT_EQ((Shape{1, 2}), (Shape{1, 2}));
  EXPECT_NE((Shape{1, 2}), (Shape{2, 1}));
  EXPECT_NE((Shape{1, 2}), (Shape{1, 2, 1}));
}

TEST(Shape, ToString) {
  EXPECT_EQ((Shape{2, 3}).ToString(), "[2, 3]");
  EXPECT_EQ((Shape{}).ToString(), "[]");
}

TEST(Shape, RejectsNegativeDims) {
  EXPECT_THROW(Shape({-1, 2}), CheckError);
}

TEST(Shape, AxisOutOfRangeThrows) {
  const Shape s{2, 3};
  EXPECT_THROW((void)s.Dim(2), CheckError);
  EXPECT_THROW((void)s.Stride(5), CheckError);
}

TEST(Shape, VectorConstructor) {
  const Shape s(std::vector<std::int64_t>{7, 8});
  EXPECT_EQ(s.Dim(0), 7);
  EXPECT_EQ(s.Dim(1), 8);
}

}  // namespace
}  // namespace ccperf
