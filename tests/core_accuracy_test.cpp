#include "core/accuracy_model.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace ccperf::core {
namespace {

pruning::PrunePlan Plan(std::initializer_list<std::pair<std::string, double>>
                            ratios,
                        pruning::PrunerFamily family =
                            pruning::PrunerFamily::kL1Filter) {
  pruning::PrunePlan plan;
  plan.family = family;
  for (const auto& [layer, ratio] : ratios) plan.layer_ratios[layer] = ratio;
  return plan;
}

TEST(CaffeNetAccuracy, BaselineMatchesPaper) {
  const auto model = CalibratedAccuracyModel::CaffeNet();
  const AccuracyResult base = model.Baseline();
  EXPECT_NEAR(base.top5, 0.80, 1e-9);
  EXPECT_NEAR(base.top1, 0.55, 1e-9);
  const AccuracyResult unpruned = model.Evaluate({});
  EXPECT_NEAR(unpruned.top5, base.top5, 1e-9);
}

TEST(CaffeNetAccuracy, SweetSpotsAlmostFree) {
  // Paper Fig. 6: conv1@30 and conv2@50 individually leave accuracy
  // "almost unchanged".
  const auto model = CalibratedAccuracyModel::CaffeNet();
  EXPECT_GT(model.Evaluate(Plan({{"conv1", 0.3}})).top5, 0.76);
  EXPECT_GT(model.Evaluate(Plan({{"conv2", 0.5}})).top5, 0.76);
  EXPECT_GT(model.Evaluate(Plan({{"conv3", 0.5}})).top5, 0.78);
}

TEST(CaffeNetAccuracy, MultiLayerCombosMatchFig8) {
  const auto model = CalibratedAccuracyModel::CaffeNet();
  // conv1-2 combo: paper 70 % Top-5.
  const AccuracyResult c12 =
      model.Evaluate(Plan({{"conv1", 0.3}, {"conv2", 0.5}}));
  EXPECT_NEAR(c12.top5, 0.70, 0.03);
  // all-conv combo: paper 62 % Top-5.
  const AccuracyResult all = model.Evaluate(Plan({{"conv1", 0.3},
                                                  {"conv2", 0.5},
                                                  {"conv3", 0.5},
                                                  {"conv4", 0.5},
                                                  {"conv5", 0.5}}));
  EXPECT_NEAR(all.top5, 0.62, 0.03);
}

TEST(CaffeNetAccuracy, SuperAdditiveDamage) {
  // Observation 3: combining individually-safe sweet spots costs accuracy.
  const auto model = CalibratedAccuracyModel::CaffeNet();
  const double single1 = model.Evaluate(Plan({{"conv1", 0.3}})).top5;
  const double single2 = model.Evaluate(Plan({{"conv2", 0.5}})).top5;
  const double combo =
      model.Evaluate(Plan({{"conv1", 0.3}, {"conv2", 0.5}})).top5;
  const double base = model.Baseline().top5;
  const double additive_drop = (base - single1) + (base - single2);
  EXPECT_GT(base - combo, additive_drop * 1.3);
}

TEST(CaffeNetAccuracy, Conv1CollapsesAtNinety) {
  // Paper Fig. 6(a): conv1@90 drives Top-5 to ~0.
  const auto model = CalibratedAccuracyModel::CaffeNet();
  EXPECT_LT(model.Evaluate(Plan({{"conv1", 0.9}})).top5, 0.05);
}

TEST(CaffeNetAccuracy, OtherConvsPlateauAtNinety) {
  // Paper: conv2-5 drop to ~25 % Top-5 at 90 %, not to zero.
  const auto model = CalibratedAccuracyModel::CaffeNet();
  for (const char* layer : {"conv2", "conv3", "conv4", "conv5"}) {
    const double top5 = model.Evaluate(Plan({{layer, 0.9}})).top5;
    EXPECT_GT(top5, 0.15) << layer;
    EXPECT_LT(top5, 0.45) << layer;
  }
}

TEST(CaffeNetAccuracy, Conv1MostSensitiveLayer) {
  const auto model = CalibratedAccuracyModel::CaffeNet();
  const double conv1 = model.Evaluate(Plan({{"conv1", 0.7}})).top5;
  for (const char* layer : {"conv2", "conv3", "conv4", "conv5"}) {
    EXPECT_LT(conv1, model.Evaluate(Plan({{layer, 0.7}})).top5) << layer;
  }
}

class AccuracyMonotonicity
    : public ::testing::TestWithParam<const char*> {};

TEST_P(AccuracyMonotonicity, MorePruningNeverMoreAccurate) {
  const auto model = CalibratedAccuracyModel::CaffeNet();
  double prev_top1 = 1.0, prev_top5 = 1.0;
  for (double r = 0.0; r < 0.95; r += 0.05) {
    const AccuracyResult acc = model.Evaluate(Plan({{GetParam(), r}}));
    EXPECT_LE(acc.top5, prev_top5 + 1e-12);
    EXPECT_LE(acc.top1, prev_top1 + 1e-12);
    EXPECT_LE(acc.top1, acc.top5);
    prev_top1 = acc.top1;
    prev_top5 = acc.top5;
  }
}

INSTANTIATE_TEST_SUITE_P(Layers, AccuracyMonotonicity,
                         ::testing::Values("conv1", "conv2", "conv3", "conv4",
                                           "conv5", "fc1", "fc3"));

TEST(AccuracyModel, MagnitudeGentlerThanFilter) {
  const auto model = CalibratedAccuracyModel::CaffeNet();
  const auto filter = Plan({{"conv2", 0.7}});
  const auto magnitude =
      Plan({{"conv2", 0.7}}, pruning::PrunerFamily::kMagnitude);
  EXPECT_GT(model.Evaluate(magnitude).top5, model.Evaluate(filter).top5);
}

TEST(AccuracyModel, UnknownLayerUsesDefaultDamage) {
  const auto model = CalibratedAccuracyModel::CaffeNet();
  const AccuracyResult acc = model.Evaluate(Plan({{"mystery", 0.5}}));
  EXPECT_LT(acc.top5, model.Baseline().top5);
  EXPECT_GT(acc.top5, 0.5);
}

TEST(AccuracyModel, DamageIsAdditive) {
  const auto model = CalibratedAccuracyModel::CaffeNet();
  const double d1 = model.DamageOf(Plan({{"conv2", 0.5}}));
  const double d2 = model.DamageOf(Plan({{"conv3", 0.5}}));
  const double joint =
      model.DamageOf(Plan({{"conv2", 0.5}, {"conv3", 0.5}}));
  EXPECT_NEAR(joint, d1 + d2, 1e-12);
}

TEST(AccuracyModel, RejectsInvalidRatio) {
  const auto model = CalibratedAccuracyModel::CaffeNet();
  EXPECT_THROW((void)model.Evaluate(Plan({{"conv1", 1.0}})), CheckError);
}

TEST(AccuracyModel, RejectsBadConstruction) {
  EXPECT_THROW(CalibratedAccuracyModel(0.0, 0.8, {}, {}), CheckError);
  EXPECT_THROW(CalibratedAccuracyModel(0.9, 0.8, {}, {}), CheckError);
}

TEST(GoogLeNetAccuracy, BaselineAndSweetSpots) {
  const auto model = CalibratedAccuracyModel::GoogLeNet();
  EXPECT_NEAR(model.Baseline().top5, 0.89, 1e-9);
  // Paper Fig. 7: accuracy flat until ~60 % pruning for most layers.
  EXPECT_GT(model.Evaluate(Plan({{"inception-3a-3x3", 0.6}})).top5, 0.85);
  EXPECT_LT(model.Evaluate(Plan({{"inception-3a-3x3", 0.9}})).top5, 0.80);
}

TEST(GoogLeNetAccuracy, StemMostSensitive) {
  const auto model = CalibratedAccuracyModel::GoogLeNet();
  EXPECT_LT(model.Evaluate(Plan({{"conv1-7x7-s2", 0.8}})).top5,
            model.Evaluate(Plan({{"inception-4d-5x5", 0.8}})).top5);
}

}  // namespace
}  // namespace ccperf::core
