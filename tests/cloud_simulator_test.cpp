#include "cloud/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "cloud/density.h"
#include "cloud/pricing.h"
#include "common/check.h"

namespace ccperf::cloud {
namespace {

class SimulatorTest : public ::testing::Test {
 protected:
  SimulatorTest()
      : catalog_(InstanceCatalog::AwsEc2()),
        sim_(catalog_),
        profile_(CaffeNetProfile()),
        unpruned_(ComputeVariantPerf(profile_, DensityFromPlan(profile_, {}),
                                     "nonpruned")) {}

  InstanceCatalog catalog_;
  CloudSimulator sim_;
  ModelProfile profile_;
  VariantPerf unpruned_;
};

TEST_F(SimulatorTest, FiftyThousandImagesMatchPaperNineteenMinutes) {
  const double seconds =
      sim_.InstanceSeconds(catalog_.Find("p2.xlarge"), unpruned_, 50000)
          .value();
  EXPECT_NEAR(seconds, 19.0 * 60.0, 30.0);
}

TEST_F(SimulatorTest, SingleInferenceMatchPaper) {
  const double seconds =
      sim_.BatchSeconds(catalog_.Find("p2.xlarge"), unpruned_, 1).value();
  EXPECT_NEAR(seconds, 0.09, 0.02);  // paper Fig. 4
}

TEST_F(SimulatorTest, BatchSecondsGrowWithBatch) {
  const InstanceType& p2 = catalog_.Find("p2.xlarge");
  double prev = 0.0;
  for (std::int64_t b : {1, 10, 100, 1000}) {
    const double t = sim_.BatchSeconds(p2, unpruned_, b).value();
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST_F(SimulatorTest, PerImageTimeImprovesWithBatch) {
  // Fig. 5: larger batches amortize launches and raise utilization.
  const InstanceType& p2 = catalog_.Find("p2.xlarge");
  double prev = 1e9;
  for (std::int64_t b : {1, 10, 100, 600}) {
    const double per_image = sim_.BatchSeconds(p2, unpruned_, b).value() /
                             static_cast<double>(b);
    EXPECT_LT(per_image, prev);
    prev = per_image;
  }
}

TEST_F(SimulatorTest, SaturationAroundThreeHundred) {
  // Fig. 5: going from B=300 to B=2000 gains little (< 12 %), going from
  // B=25 to B=300 gains a lot (> 50 %).
  const InstanceType& p2 = catalog_.Find("p2.xlarge");
  const double t25 = sim_.InstanceSeconds(p2, unpruned_, 50000, 25).value();
  const double t300 =
      sim_.InstanceSeconds(p2, unpruned_, 50000, 300).value();
  const double t2000 =
      sim_.InstanceSeconds(p2, unpruned_, 50000, 2000).value();
  EXPECT_GT(t25 / t300, 1.5);
  EXPECT_LT(t300 / t2000, 1.12);
}

TEST_F(SimulatorTest, BatchCappedByGpuMemory) {
  const InstanceType& p2 = catalog_.Find("p2.xlarge");
  EXPECT_THROW((void)sim_.BatchSeconds(p2, unpruned_, 2001), CheckError);
  // InstanceSeconds clamps automatically.
  const double t = sim_.InstanceSeconds(p2, unpruned_, 100000, 9999).value();
  EXPECT_GT(t, 0.0);
}

TEST_F(SimulatorTest, MultiGpuInstancesScaleNearLinearly) {
  const double t1 =
      sim_.InstanceSeconds(catalog_.Find("p2.xlarge"), unpruned_, 160000)
          .value();
  const double t8 =
      sim_.InstanceSeconds(catalog_.Find("p2.8xlarge"), unpruned_, 160000)
          .value();
  EXPECT_NEAR(t1 / t8, 8.0, 0.5);
}

TEST_F(SimulatorTest, M60FasterThanK80) {
  const double k80 =
      sim_.InstanceSeconds(catalog_.Find("p2.xlarge"), unpruned_, 50000)
          .value();
  const double m60 =
      sim_.InstanceSeconds(catalog_.Find("g3.4xlarge"), unpruned_, 50000)
          .value();
  EXPECT_NEAR(k80 / m60, 2.05, 0.15);
}

TEST_F(SimulatorTest, ZeroImagesZeroSeconds) {
  EXPECT_DOUBLE_EQ(
      sim_.InstanceSeconds(catalog_.Find("p2.xlarge"), unpruned_, 0).value(),
      0.0);
}

TEST_F(SimulatorTest, RunEqualSplitBillsAllUntilCompletion) {
  ResourceConfig config;
  config.Add("p2.xlarge");
  config.Add("p2.8xlarge");
  const RunEstimate run = sim_.Run(config, unpruned_, 100000);
  ASSERT_EQ(run.instances.size(), 2u);
  // Eq. 4: equal split; the 1-GPU instance dominates completion time.
  EXPECT_EQ(run.instances[0].images, 50000);
  EXPECT_EQ(run.instances[1].images, 50000);
  EXPECT_DOUBLE_EQ(
      run.seconds.value(),
      std::max(run.instances[0].seconds, run.instances[1].seconds).value());
  const Usd expected_cost = ProratedCost(run.seconds, UsdPerHour(0.90)) +
                            ProratedCost(run.seconds, UsdPerHour(7.20));
  EXPECT_DOUBLE_EQ(run.cost_usd.value(), expected_cost.value());
}

TEST_F(SimulatorTest, ProportionalSplitBeatsEqualOnHeterogeneousConfig) {
  ResourceConfig config;
  config.Add("p2.xlarge");
  config.Add("p2.16xlarge");
  const RunEstimate equal =
      sim_.Run(config, unpruned_, 200000, WorkloadSplit::kEqual);
  const RunEstimate prop =
      sim_.Run(config, unpruned_, 200000, WorkloadSplit::kProportional);
  EXPECT_LT(prop.seconds.value(), equal.seconds.value() * 0.5);
}

TEST_F(SimulatorTest, ProportionalSplitConservesImages) {
  ResourceConfig config;
  config.Add("g3.4xlarge", 2);
  config.Add("p2.xlarge");
  const RunEstimate run =
      sim_.Run(config, unpruned_, 12345, WorkloadSplit::kProportional);
  std::int64_t total = 0;
  for (const auto& inst : run.instances) total += inst.images;
  EXPECT_EQ(total, 12345);
}

TEST_F(SimulatorTest, EqualSplitDistributesRemainder) {
  ResourceConfig config;
  config.Add("p2.xlarge", 3);
  const RunEstimate run = sim_.Run(config, unpruned_, 10);
  EXPECT_EQ(run.instances[0].images, 4);
  EXPECT_EQ(run.instances[1].images, 3);
  EXPECT_EQ(run.instances[2].images, 3);
}

TEST_F(SimulatorTest, RunRejectsEmptyConfigOrWorkload) {
  ResourceConfig empty;
  EXPECT_THROW(sim_.Run(empty, unpruned_, 100), CheckError);
  ResourceConfig config;
  config.Add("p2.xlarge");
  EXPECT_THROW(sim_.Run(config, unpruned_, 0), CheckError);
}

TEST_F(SimulatorTest, ThroughputOrdersInstancesSensibly) {
  const double p2xl =
      sim_.InstanceThroughput(catalog_.Find("p2.xlarge"), unpruned_);
  const double p216 =
      sim_.InstanceThroughput(catalog_.Find("p2.16xlarge"), unpruned_);
  const double g34 =
      sim_.InstanceThroughput(catalog_.Find("g3.4xlarge"), unpruned_);
  EXPECT_NEAR(p216 / p2xl, 16.0, 0.5);
  EXPECT_GT(g34, p2xl);
}

TEST(ResourceConfig, ToStringAndCounts) {
  ResourceConfig config;
  EXPECT_EQ(config.ToString(), "(empty)");
  config.Add("p2.xlarge", 2);
  config.Add("g3.4xlarge");
  config.Add("p2.xlarge");  // merges
  EXPECT_EQ(config.ToString(), "3xp2.xlarge+1xg3.4xlarge");
  EXPECT_EQ(config.TotalInstances(), 4);
}

TEST(ResourceConfig, PriceAndGpuTotals) {
  const InstanceCatalog catalog = InstanceCatalog::AwsEc2();
  ResourceConfig config;
  config.Add("p2.8xlarge", 2);
  config.Add("g3.16xlarge");
  EXPECT_DOUBLE_EQ(PricePerHour(config, catalog).value(), 2 * 7.20 + 4.56);
  EXPECT_EQ(TotalGpus(config, catalog), 20);
}

TEST(EnumerateConfigs, CountsAndUniqueness) {
  const InstanceCatalog catalog = InstanceCatalog::AwsEc2();
  const auto p2 = catalog.Category("p2");
  const auto configs = EnumerateConfigs(p2, 3);
  EXPECT_EQ(configs.size(), 4u * 4u * 4u - 1u);  // 63 non-empty combos
  std::set<std::string> labels;
  for (const auto& c : configs) {
    EXPECT_FALSE(c.Empty());
    labels.insert(c.ToString());
  }
  EXPECT_EQ(labels.size(), configs.size());
}

TEST(EnumerateConfigs, RejectsBadArgs) {
  const InstanceCatalog catalog = InstanceCatalog::AwsEc2();
  EXPECT_THROW(EnumerateConfigs({}, 2), CheckError);
  EXPECT_THROW(EnumerateConfigs(catalog.Types(), 0), CheckError);
}

}  // namespace
}  // namespace ccperf::cloud
