#include "cloud/serving.h"
#include <cmath>

#include <algorithm>
#include <limits>

#include <gtest/gtest.h>

#include "cloud/density.h"
#include "common/check.h"
#include "common/rng.h"

namespace ccperf::cloud {
namespace {

class ServingTest : public ::testing::Test {
 protected:
  ServingTest()
      : catalog_(InstanceCatalog::AwsEc2()),
        sim_(catalog_),
        serving_(sim_),
        profile_(CaffeNetProfile()),
        perf_(ComputeVariantPerf(profile_, DensityFromPlan(profile_, {}),
                                 "nonpruned")) {}

  ResourceConfig OneP2() {
    ResourceConfig config;
    config.Add("p2.xlarge");
    return config;
  }

  InstanceCatalog catalog_;
  CloudSimulator sim_;
  ServingSimulator serving_;
  ModelProfile profile_;
  VariantPerf perf_;
};

TEST_F(ServingTest, CapacityMatchesBatchThroughput) {
  const ServingPolicy policy{.max_batch = 300, .max_wait_s = 0.1};
  const double capacity = serving_.Capacity(OneP2(), perf_, policy);
  // ~43 img/s at saturation (22.8 ms/image) minus launch overhead.
  EXPECT_GT(capacity, 30.0);
  EXPECT_LT(capacity, 50.0);
  // Capacity scales with GPUs.
  ResourceConfig big;
  big.Add("p2.8xlarge");
  EXPECT_NEAR(serving_.Capacity(big, perf_, policy) / capacity, 8.0, 0.2);
}

TEST_F(ServingTest, LowLoadIsStableWithLowLatency) {
  Rng rng(1);
  const ServingPolicy policy{.max_batch = 64, .max_wait_s = 0.05};
  const ServingReport report =
      serving_.Simulate(OneP2(), perf_, /*arrivals_per_s=*/5.0,
                        /*duration_s=*/300.0, policy, rng);
  EXPECT_TRUE(report.stable);
  EXPECT_GT(report.requests, 1000);
  // Latency ~ max_wait + small-batch service; well under a second.
  EXPECT_LT(report.p99_latency_s, 1.0);
  EXPECT_GT(report.mean_latency_s, 0.0);
  EXPECT_LE(report.p50_latency_s, report.p95_latency_s);
  EXPECT_LE(report.p95_latency_s, report.p99_latency_s);
  EXPECT_LT(report.utilization, 0.6);
}

TEST_F(ServingTest, OverloadDetectedAsUnstableOrSaturated) {
  Rng rng(2);
  const ServingPolicy policy{.max_batch = 300, .max_wait_s = 0.1};
  const double capacity = serving_.Capacity(OneP2(), perf_, policy);
  const ServingReport report = serving_.Simulate(
      OneP2(), perf_, capacity * 2.0, /*duration_s=*/600.0, policy, rng);
  // 2x capacity: either flagged unstable or the queue exploded with p99
  // latency far above the interactive regime.
  EXPECT_TRUE(!report.stable || report.p99_latency_s > 30.0);
}

TEST_F(ServingTest, NearCapacityStillStable) {
  Rng rng(3);
  const ServingPolicy policy{.max_batch = 300, .max_wait_s = 0.2};
  const double capacity = serving_.Capacity(OneP2(), perf_, policy);
  const ServingReport report = serving_.Simulate(
      OneP2(), perf_, capacity * 0.6, /*duration_s=*/600.0, policy, rng);
  EXPECT_TRUE(report.stable);
  EXPECT_GT(report.utilization, 0.3);
}

TEST_F(ServingTest, PrunedVariantServesMoreTraffic) {
  pruning::PrunePlan plan;
  plan.layer_ratios = {{"conv1", 0.3}, {"conv2", 0.5}};
  const VariantPerf pruned = ComputeVariantPerf(
      profile_, DensityFromPlan(profile_, plan), plan.Label());
  const ServingPolicy policy{.max_batch = 300, .max_wait_s = 0.1};
  EXPECT_GT(serving_.Capacity(OneP2(), pruned, policy),
            serving_.Capacity(OneP2(), perf_, policy) * 1.1);
}

TEST_F(ServingTest, MaxWaitBoundsLatencyUnderLightLoad) {
  Rng rng(4);
  // One request every 2 s, batch cap never reached: dispatch happens at
  // the wait deadline, so p50 ~ max_wait + single-batch service.
  const ServingPolicy policy{.max_batch = 64, .max_wait_s = 0.2};
  const ServingReport report = serving_.Simulate(
      OneP2(), perf_, 0.5, /*duration_s=*/600.0, policy, rng);
  EXPECT_TRUE(report.stable);
  const double single =
      sim_.BatchSeconds(catalog_.Find("p2.xlarge"), perf_, 1).value();
  EXPECT_NEAR(report.p50_latency_s, policy.max_wait_s + single, 0.05);
}

TEST_F(ServingTest, DeterministicGivenSeed) {
  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  Rng rng1(5), rng2(5);
  const ServingReport a =
      serving_.Simulate(OneP2(), perf_, 10.0, 60.0, policy, rng1);
  const ServingReport b =
      serving_.Simulate(OneP2(), perf_, 10.0, 60.0, policy, rng2);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
}

TEST_F(ServingTest, CostPerHourIsCatalogPrice) {
  Rng rng(6);
  ResourceConfig config;
  config.Add("p2.xlarge");
  config.Add("g3.8xlarge");
  const ServingReport report = serving_.Simulate(
      config, perf_, 5.0, 60.0, {.max_batch = 32, .max_wait_s = 0.05}, rng);
  EXPECT_DOUBLE_EQ(report.cost_per_hour_usd, 0.90 + 2.28);
}

TEST_F(ServingTest, TraceReplayMatchesEquivalentPoisson) {
  // SimulateTrace on arrivals generated the same way as Simulate must give
  // identical results.
  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  Rng rng_a(11);
  const ServingReport via_simulate =
      serving_.Simulate(OneP2(), perf_, 8.0, 120.0, policy, rng_a);
  Rng rng_b(11);
  std::vector<double> arrivals;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng_b.NextDouble()) / 8.0;
    if (t > 120.0) break;
    arrivals.push_back(t);
  }
  const ServingReport via_trace =
      serving_.SimulateTrace(OneP2(), perf_, std::move(arrivals), 120.0,
                             policy);
  EXPECT_EQ(via_simulate.requests, via_trace.requests);
  EXPECT_DOUBLE_EQ(via_simulate.p99_latency_s, via_trace.p99_latency_s);
}

TEST_F(ServingTest, TraceMustBeSorted) {
  const ServingPolicy policy;
  EXPECT_THROW((void)serving_.SimulateTrace(OneP2(), perf_, {2.0, 1.0}, 10.0,
                                            policy),
               CheckError);
}

TEST_F(ServingTest, EmptyTraceIsFine) {
  const ServingReport report =
      serving_.SimulateTrace(OneP2(), perf_, {}, 10.0, {});
  EXPECT_EQ(report.requests, 0);
  EXPECT_TRUE(report.stable);
  // The failure-aware counters must be zeroed, not left undefined.
  EXPECT_EQ(report.completed, 0);
  EXPECT_EQ(report.dropped_deadline, 0);
  EXPECT_EQ(report.dropped_failed, 0);
  EXPECT_EQ(report.retries, 0);
  EXPECT_EQ(report.deadline_misses, 0);
  EXPECT_DOUBLE_EQ(report.goodput_per_s, 0.0);
  EXPECT_DOUBLE_EQ(report.deadline_miss_rate, 0.0);
  EXPECT_DOUBLE_EQ(report.accuracy_weighted_goodput, 0.0);
}

TEST_F(ServingTest, DeadlineAccountingInTracePath) {
  // Every request comfortably beats a loose deadline; goodput equals
  // throughput and the miss rate is zero.
  const ServingPolicy policy{
      .max_batch = 64, .max_wait_s = 0.05, .deadline_s = 5.0};
  Rng rng(12);
  std::vector<double> arrivals;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / 5.0;
    if (t > 120.0) break;
    arrivals.push_back(t);
  }
  const ServingReport report =
      serving_.SimulateTrace(OneP2(), perf_, arrivals, 120.0, policy);
  EXPECT_EQ(report.completed, report.requests);
  EXPECT_EQ(report.deadline_misses, 0);
  EXPECT_DOUBLE_EQ(report.deadline_miss_rate, 0.0);
  EXPECT_NEAR(report.goodput_per_s,
              static_cast<double>(report.requests) / 120.0, 1e-9);
  EXPECT_EQ(report.delivered_accuracy_weighted_goodput,
            report.accuracy_weighted_goodput);
}

TEST(ServingPolicyValidation, RejectsBadPolicies) {
  EXPECT_NO_THROW(ValidateServingPolicy({}));
  EXPECT_THROW(ValidateServingPolicy({.max_batch = 0}), CheckError);
  EXPECT_THROW(ValidateServingPolicy({.max_batch = -3}), CheckError);
  EXPECT_THROW(ValidateServingPolicy({.max_wait_s = -0.1}), CheckError);
  EXPECT_THROW(ValidateServingPolicy({.deadline_s = 0.0}), CheckError);
  EXPECT_THROW(ValidateServingPolicy({.deadline_s = -1.0}), CheckError);
  // An infinite deadline (the default) means "no deadline" and is valid.
  EXPECT_NO_THROW(ValidateServingPolicy(
      {.deadline_s = std::numeric_limits<double>::infinity()}));
}

TEST(DiurnalArrivals, PropertyMonotoneAndRateBounded) {
  // Property test over seeds: timestamps are strictly increasing, inside
  // [0, duration], and every quarter-period window's empirical rate stays
  // below a generous bound on the peak rate mean + amplitude.
  const double mean = 30.0, amplitude = 20.0, period = 400.0;
  const double duration = 2000.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    const auto arrivals =
        GenerateDiurnalArrivals(mean, amplitude, period, duration, rng);
    ASSERT_FALSE(arrivals.empty());
    EXPECT_GE(arrivals.front(), 0.0);
    EXPECT_LE(arrivals.back(), duration);
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      ASSERT_GT(arrivals[i], arrivals[i - 1]) << "seed " << seed;
    }
    const double window = period / 4.0;
    const auto buckets = static_cast<std::size_t>(duration / window);
    std::vector<std::int64_t> count(buckets, 0);
    for (double a : arrivals) {
      const auto b = std::min(buckets - 1,
                              static_cast<std::size_t>(a / window));
      ++count[b];
    }
    const double peak = mean + amplitude;
    for (std::size_t b = 0; b < buckets; ++b) {
      const double rate = static_cast<double>(count[b]) / window;
      // 5-sigma Poisson slack on the window's worst-case mean.
      EXPECT_LE(rate, peak + 5.0 * std::sqrt(peak / window))
          << "seed " << seed << " bucket " << b;
    }
  }
}

TEST(DiurnalArrivals, NegativeAmplitudeRejected) {
  Rng rng(6);
  EXPECT_THROW((void)GenerateDiurnalArrivals(10.0, -1.0, 600.0, 600.0, rng),
               CheckError);
  EXPECT_THROW((void)GenerateDiurnalArrivals(10.0, 1.0, 600.0, -5.0, rng),
               CheckError);
}

TEST(DiurnalArrivals, RateAndShape) {
  Rng rng(3);
  const double period = 600.0;
  const auto arrivals =
      GenerateDiurnalArrivals(/*mean=*/20.0, /*amplitude=*/15.0, period,
                              /*duration=*/1200.0, rng);
  // Total count ~ mean * duration.
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 20.0 * 1200.0,
              3.0 * std::sqrt(20.0 * 1200.0) + 200.0);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  // First quarter-period starts at the trough, the middle rides the peak:
  // count in [0, period/4) well below count in [period/4, 3*period/4).
  std::int64_t trough = 0, peak = 0;
  for (double a : arrivals) {
    const double phase = std::fmod(a, period);
    if (phase < period / 4.0) ++trough;
    if (phase >= period / 4.0 && phase < 3.0 * period / 4.0) ++peak;
  }
  EXPECT_GT(peak, trough * 2);
}

TEST(DiurnalArrivals, ZeroAmplitudeIsPlainPoisson) {
  Rng rng(4);
  const auto arrivals = GenerateDiurnalArrivals(10.0, 0.0, 600.0, 600.0, rng);
  EXPECT_NEAR(static_cast<double>(arrivals.size()), 6000.0, 300.0);
}

TEST(DiurnalArrivals, RejectsBadParameters) {
  Rng rng(5);
  EXPECT_THROW((void)GenerateDiurnalArrivals(0.0, 0.0, 1.0, 1.0, rng),
               CheckError);
  EXPECT_THROW((void)GenerateDiurnalArrivals(1.0, 2.0, 1.0, 1.0, rng),
               CheckError);
  EXPECT_THROW((void)GenerateDiurnalArrivals(1.0, 0.5, 0.0, 1.0, rng),
               CheckError);
}

TEST_F(ServingTest, RejectsBadArguments) {
  Rng rng(7);
  const ServingPolicy policy;
  ResourceConfig empty;
  EXPECT_THROW(
      (void)serving_.Simulate(empty, perf_, 1.0, 10.0, policy, rng),
      CheckError);
  EXPECT_THROW(
      (void)serving_.Simulate(OneP2(), perf_, 0.0, 10.0, policy, rng),
      CheckError);
  EXPECT_THROW(
      (void)serving_.Simulate(OneP2(), perf_, 1.0, -1.0, policy, rng),
      CheckError);
  EXPECT_THROW((void)serving_.Simulate(OneP2(), perf_, 1.0, 10.0,
                                       {.max_batch = 0}, rng),
               CheckError);
}

}  // namespace
}  // namespace ccperf::cloud
