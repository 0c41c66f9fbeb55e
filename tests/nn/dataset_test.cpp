#include "nn/dataset.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>

namespace hp::nn {
namespace {

SyntheticDataOptions small_options() {
  SyntheticDataOptions opt;
  opt.train_size = 50;
  opt.test_size = 30;
  opt.image_size = 12;
  opt.seed = 7;
  return opt;
}

TEST(Dataset, ImageLabelMismatchThrows) {
  Tensor images({3, 1, 4, 4});
  std::vector<std::uint8_t> labels{0, 1};
  EXPECT_THROW(Dataset(std::move(images), labels), std::invalid_argument);
}

TEST(Dataset, GatherCopiesCorrectItems) {
  Tensor images({3, 1, 1, 2});
  images.item(2)[0] = 9.0F;
  std::vector<std::uint8_t> labels{0, 1, 2};
  Dataset ds(std::move(images), labels);
  Tensor batch;
  std::vector<std::uint8_t> batch_labels;
  std::vector<std::size_t> idx{2, 0};
  ds.gather(idx, batch, batch_labels);
  EXPECT_EQ(batch.shape().n, 2u);
  EXPECT_EQ(batch.item(0)[0], 9.0F);
  EXPECT_EQ(batch_labels[0], 2);
  EXPECT_EQ(batch_labels[1], 0);
}

TEST(Dataset, GatherOutOfRangeThrows) {
  Tensor images({2, 1, 1, 1});
  Dataset ds(std::move(images), {0, 1});
  Tensor batch;
  std::vector<std::uint8_t> labels;
  std::vector<std::size_t> idx{5};
  EXPECT_THROW(ds.gather(idx, batch, labels), std::out_of_range);
}

// The kind name is a std::string, not a const char*: gtest prints a
// pointer parameter by address, which would put a per-run address into
// the discovered test names.
class SyntheticGenerators
    : public ::testing::TestWithParam<std::pair<std::string, int>> {
 protected:
  DataSplit make() const {
    const auto opt = small_options();
    return GetParam().second == 1 ? make_synthetic_mnist(opt)
                                  : make_synthetic_cifar(opt);
  }
  std::size_t expected_channels() const {
    return GetParam().second == 1 ? 1u : 3u;
  }
};

TEST_P(SyntheticGenerators, ShapesAndSizes) {
  const DataSplit data = make();
  EXPECT_EQ(data.train.size(), 50u);
  EXPECT_EQ(data.test.size(), 30u);
  const Shape item = data.train.item_shape();
  EXPECT_EQ(item.c, expected_channels());
  EXPECT_EQ(item.h, 12u);
  EXPECT_EQ(item.w, 12u);
}

TEST_P(SyntheticGenerators, AllTenClassesPresent) {
  const DataSplit data = make();
  std::set<std::uint8_t> classes(data.train.labels().begin(),
                                 data.train.labels().end());
  EXPECT_EQ(classes.size(), 10u);
  EXPECT_EQ(data.train.num_classes(), 10u);
}

TEST_P(SyntheticGenerators, PixelsFiniteAndRoughlyNormalized) {
  const DataSplit data = make();
  double sum = 0.0;
  std::size_t n = 0;
  for (float x : data.train.images().flat()) {
    ASSERT_TRUE(std::isfinite(x));
    sum += static_cast<double>(x);
    ++n;
  }
  const double mean = sum / static_cast<double>(n);
  EXPECT_GT(mean, 0.1);
  EXPECT_LT(mean, 0.9);
}

TEST_P(SyntheticGenerators, DeterministicForSeed) {
  const DataSplit a = make();
  const DataSplit b = make();
  EXPECT_EQ(a.train.images().flat()[0], b.train.images().flat()[0]);
  EXPECT_EQ(a.test.images().flat()[100], b.test.images().flat()[100]);
}

TEST_P(SyntheticGenerators, DifferentSeedsDiffer) {
  auto opt = small_options();
  const DataSplit a =
      GetParam().second == 1 ? make_synthetic_mnist(opt) : make_synthetic_cifar(opt);
  opt.seed = 8;
  const DataSplit b =
      GetParam().second == 1 ? make_synthetic_mnist(opt) : make_synthetic_cifar(opt);
  EXPECT_NE(a.train.images().flat()[0], b.train.images().flat()[0]);
}

TEST_P(SyntheticGenerators, ClassesAreSeparable) {
  // Same-class samples must be closer (on average) than cross-class
  // samples — otherwise the dataset is not learnable.
  const DataSplit data = make();
  const Dataset& train = data.train;
  const std::size_t dim = train.item_shape().per_item();
  double same = 0.0, cross = 0.0;
  std::size_t same_n = 0, cross_n = 0;
  for (std::size_t i = 0; i < 30; ++i) {
    for (std::size_t j = i + 1; j < 30; ++j) {
      double d2 = 0.0;
      for (std::size_t k = 0; k < dim; ++k) {
        const double d = static_cast<double>(train.images().item(i)[k]) -
                         static_cast<double>(train.images().item(j)[k]);
        d2 += d * d;
      }
      if (train.labels()[i] == train.labels()[j]) {
        same += d2;
        ++same_n;
      } else {
        cross += d2;
        ++cross_n;
      }
    }
  }
  ASSERT_GT(same_n, 0u);
  ASSERT_GT(cross_n, 0u);
  EXPECT_LT(same / same_n, cross / cross_n);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SyntheticGenerators,
    ::testing::Values(std::pair<std::string, int>{"mnist", 1},
                      std::pair<std::string, int>{"cifar", 3}));

TEST(SyntheticData, InvalidOptionsThrow) {
  SyntheticDataOptions opt;
  opt.image_size = 2;
  EXPECT_THROW((void)make_synthetic_mnist(opt), std::invalid_argument);
  opt = {};
  opt.train_size = 0;
  EXPECT_THROW((void)make_synthetic_cifar(opt), std::invalid_argument);
}

}  // namespace
}  // namespace hp::nn
