#include "locble/ml/dataset.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace locble::ml {
namespace {

Dataset small_dataset() {
    Dataset d;
    d.add({0.0, 0.0}, 0);
    d.add({1.0, 1.0}, 1);
    d.add({2.0, 2.0}, 1);
    d.add({3.0, 3.0}, 2);
    return d;
}

TEST(DatasetTest, SizeDimsClasses) {
    const Dataset d = small_dataset();
    EXPECT_EQ(d.size(), 4u);
    EXPECT_EQ(d.dims(), 2u);
    EXPECT_EQ(d.num_classes(), 3);
}

TEST(DatasetTest, ValidateCatchesRaggedRows) {
    Dataset d = small_dataset();
    d.x.push_back({1.0});
    d.y.push_back(0);
    EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(DatasetTest, ValidateCatchesCountMismatch) {
    Dataset d = small_dataset();
    d.y.pop_back();
    EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(DatasetTest, ValidateCatchesNegativeLabel) {
    Dataset d = small_dataset();
    d.y[0] = -1;
    EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(TrainTestSplitTest, PartitionSizes) {
    Dataset d;
    for (int i = 0; i < 100; ++i) d.add({static_cast<double>(i)}, i % 2);
    locble::Rng rng(1);
    auto [train, test] = train_test_split(d, 0.3, rng);
    EXPECT_EQ(test.size(), 30u);
    EXPECT_EQ(train.size(), 70u);
}

TEST(TrainTestSplitTest, NoSampleLostOrDuplicated) {
    Dataset d;
    for (int i = 0; i < 50; ++i) d.add({static_cast<double>(i)}, 0);
    locble::Rng rng(2);
    auto [train, test] = train_test_split(d, 0.5, rng);
    std::vector<double> all;
    for (const auto& r : train.x) all.push_back(r[0]);
    for (const auto& r : test.x) all.push_back(r[0]);
    std::sort(all.begin(), all.end());
    for (int i = 0; i < 50; ++i) EXPECT_DOUBLE_EQ(all[static_cast<std::size_t>(i)], i);
}

TEST(TrainTestSplitTest, BadFractionThrows) {
    Dataset d = small_dataset();
    locble::Rng rng(1);
    EXPECT_THROW(train_test_split(d, -0.1, rng), std::invalid_argument);
    EXPECT_THROW(train_test_split(d, 1.5, rng), std::invalid_argument);
}

TEST(KFoldTest, CoversAllIndicesOnce) {
    locble::Rng rng(3);
    const auto folds = kfold_indices(23, 5, rng);
    ASSERT_EQ(folds.size(), 5u);
    std::vector<std::size_t> all;
    for (const auto& f : folds) all.insert(all.end(), f.begin(), f.end());
    std::sort(all.begin(), all.end());
    ASSERT_EQ(all.size(), 23u);
    for (std::size_t i = 0; i < 23; ++i) EXPECT_EQ(all[i], i);
}

TEST(KFoldTest, BadKThrows) {
    locble::Rng rng(1);
    EXPECT_THROW(kfold_indices(5, 0, rng), std::invalid_argument);
    EXPECT_THROW(kfold_indices(5, 6, rng), std::invalid_argument);
}

TEST(StandardScalerTest, TransformsToZeroMeanUnitVar) {
    Dataset d;
    d.add({10.0, 100.0}, 0);
    d.add({20.0, 200.0}, 0);
    d.add({30.0, 300.0}, 0);
    StandardScaler scaler;
    scaler.fit(d);
    const Dataset t = scaler.transform(d);
    for (std::size_t j = 0; j < 2; ++j) {
        double m = 0.0, v = 0.0;
        for (const auto& r : t.x) m += r[j];
        m /= 3.0;
        for (const auto& r : t.x) v += (r[j] - m) * (r[j] - m);
        v /= 3.0;
        EXPECT_NEAR(m, 0.0, 1e-12);
        EXPECT_NEAR(v, 1.0, 1e-12);
    }
}

TEST(StandardScalerTest, ConstantFeatureMapsToZero) {
    Dataset d;
    d.add({5.0}, 0);
    d.add({5.0}, 1);
    StandardScaler scaler;
    scaler.fit(d);
    EXPECT_DOUBLE_EQ(scaler.transform(std::vector<double>{5.0})[0], 0.0);
    EXPECT_DOUBLE_EQ(scaler.transform(std::vector<double>{7.0})[0], 0.0);
}

TEST(StandardScalerTest, DimensionMismatchThrows) {
    Dataset d = small_dataset();
    StandardScaler scaler;
    scaler.fit(d);
    EXPECT_THROW(scaler.transform(std::vector<double>{1.0}), std::invalid_argument);
}

TEST(StandardScalerTest, EmptyFitThrows) {
    StandardScaler scaler;
    EXPECT_THROW(scaler.fit(Dataset{}), std::invalid_argument);
    EXPECT_FALSE(scaler.fitted());
}

}  // namespace
}  // namespace locble::ml
