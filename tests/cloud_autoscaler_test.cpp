#include "cloud/autoscaler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "cloud/density.h"
#include "common/check.h"
#include "common/rng.h"

namespace ccperf::cloud {
namespace {

class AutoscalerTest : public ::testing::Test {
 protected:
  AutoscalerTest()
      : catalog_(InstanceCatalog::AwsEc2()),
        sim_(catalog_),
        serving_(sim_),
        scaler_(serving_, "p2.xlarge"),
        profile_(CaffeNetProfile()),
        perf_(ComputeVariantPerf(profile_, DensityFromPlan(profile_, {}),
                                 "nonpruned")) {}

  /// Poisson epoch traces at per-epoch rates.
  std::vector<std::vector<double>> Traces(const std::vector<double>& rates,
                                          double epoch_s,
                                          std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::vector<double>> traces;
    for (double rate : rates) {
      std::vector<double> trace;
      double t = 0.0;
      for (;;) {
        t += -std::log(1.0 - rng.NextDouble()) / rate;
        if (t > epoch_s) break;
        trace.push_back(t);
      }
      traces.push_back(std::move(trace));
    }
    return traces;
  }

  InstanceCatalog catalog_;
  CloudSimulator sim_;
  ServingSimulator serving_;
  Autoscaler scaler_;
  ModelProfile profile_;
  VariantPerf perf_;
};

TEST_F(AutoscalerTest, ScalesUpUnderRisingLoad) {
  // One p2.xlarge sustains ~40 img/s; ramp 10 -> 120 img/s over epochs.
  const auto traces = Traces({10, 30, 60, 120, 120, 120}, 300.0, 1);
  const AutoscaleResult result = scaler_.Run(
      traces, 300.0, perf_, {.target_utilization = 0.6, .max_instances = 8},
      {.max_batch = 128, .max_wait_s = 0.1});
  ASSERT_EQ(result.steps.size(), 6u);
  EXPECT_EQ(result.steps.front().instances, 1);
  EXPECT_GT(result.steps.back().instances, 3);
  // Once scaled, the fleet is stable again.
  EXPECT_TRUE(result.steps.back().report.stable);
}

TEST_F(AutoscalerTest, ScalesDownWhenLoadFalls) {
  const auto traces = Traces({120, 120, 15, 15, 15}, 300.0, 2);
  AutoscalePolicy policy{.target_utilization = 0.6, .max_instances = 8};
  const AutoscaleResult result = scaler_.Run(
      traces, 300.0, perf_, policy, {.max_batch = 128, .max_wait_s = 0.1});
  int peak = 0;
  for (const auto& s : result.steps) peak = std::max(peak, s.instances);
  EXPECT_GT(peak, result.steps.back().instances);
}

TEST_F(AutoscalerTest, ReactiveLagHurtsAtStepChange) {
  // The defining weakness of resource elasticity: the epoch where load
  // jumps is served by the old fleet.
  // Rate 2/s keeps a single GPU lightly loaded even with tiny
  // latency-driven batches (~0.1 s service each).
  const auto traces = Traces({2, 150, 150}, 300.0, 3);
  const AutoscaleResult result = scaler_.Run(
      traces, 300.0, perf_, {.target_utilization = 0.6, .max_instances = 8},
      {.max_batch = 128, .max_wait_s = 0.1});
  const auto& jump_epoch = result.steps[1];
  EXPECT_EQ(jump_epoch.instances, 1) << "lagging fleet at the jump";
  EXPECT_TRUE(!jump_epoch.report.stable ||
              jump_epoch.report.p99_latency_s > 5.0)
      << "the jump epoch must visibly suffer";
  EXPECT_GT(result.steps[2].instances, 2) << "recovery after the lag";
}

TEST_F(AutoscalerTest, CostAccumulatesPerEpoch) {
  const auto traces = Traces({2, 2}, 3600.0, 4);
  const AutoscaleResult result = scaler_.Run(
      traces, 3600.0, perf_, {.target_utilization = 0.6},
      {.max_batch = 128, .max_wait_s = 0.1});
  // Two epochs of one p2.xlarge at $0.90/h.
  EXPECT_NEAR(result.total_cost_usd.value(), 2 * 0.90, 1e-9);
}

TEST_F(AutoscalerTest, RespectsBounds) {
  const auto traces = Traces({500, 500, 500}, 200.0, 5);
  const AutoscaleResult result = scaler_.Run(
      traces, 200.0, perf_,
      {.target_utilization = 0.6, .min_instances = 2, .max_instances = 3},
      {.max_batch = 128, .max_wait_s = 0.1});
  for (const auto& s : result.steps) {
    EXPECT_GE(s.instances, 2);
    EXPECT_LE(s.instances, 3);
  }
}

TEST_F(AutoscalerTest, RejectsBadInputs) {
  const auto traces = Traces({10}, 100.0, 6);
  EXPECT_THROW((void)scaler_.Run({}, 100.0, perf_, {}, {}), CheckError);
  EXPECT_THROW((void)scaler_.Run(traces, 0.0, perf_, {}, {}), CheckError);
  EXPECT_THROW((void)scaler_.Run(traces, 100.0, perf_,
                                 {.target_utilization = 1.5}, {}),
               CheckError);
  EXPECT_THROW(
      (void)scaler_.Run(traces, 100.0, perf_,
                        {.min_instances = 5, .max_instances = 2}, {}),
      CheckError);
}

}  // namespace
}  // namespace ccperf::cloud
