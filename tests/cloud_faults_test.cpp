// Fault-injection subsystem and failure-aware serving: seeded determinism,
// preemption mid-batch requeue semantics, retry-backoff bounds, deadline
// drop accounting, and degradation hysteresis (no flapping).
#include "cloud/faults.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "cloud/autoscaler.h"
#include "cloud/degradation.h"
#include "cloud/density.h"
#include "cloud/serving.h"
#include "common/check.h"
#include "common/rng.h"

namespace ccperf::cloud {
namespace {

class FaultsTest : public ::testing::Test {
 protected:
  FaultsTest()
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

  std::vector<double> PoissonTrace(double rate, double duration,
                                   std::uint64_t seed) {
    Rng rng(seed);
    std::vector<double> trace;
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.NextDouble()) / rate;
      if (t > duration) break;
      trace.push_back(t);
    }
    return trace;
  }

  InstanceCatalog catalog_;
  CloudSimulator sim_;
  ServingSimulator serving_;
  ModelProfile profile_;
  VariantPerf perf_;
};

// ---------------------------------------------------------------- schedule

TEST(FaultSchedule, ValidateRejectsOutOfOrderAndBadFields) {
  FaultSchedule out_of_order;
  out_of_order.events = {{FaultKind::kCrash, 0, 10.0, 5.0, 1.0},
                         {FaultKind::kCrash, 0, 5.0, 5.0, 1.0}};
  EXPECT_THROW(out_of_order.Validate(), CheckError);

  FaultSchedule negative_start;
  negative_start.events = {{FaultKind::kCrash, 0, -1.0, 5.0, 1.0}};
  EXPECT_THROW(negative_start.Validate(), CheckError);

  FaultSchedule zero_duration;
  zero_duration.events = {{FaultKind::kCrash, 0, 1.0, 0.0, 1.0}};
  EXPECT_THROW(zero_duration.Validate(), CheckError);

  FaultSchedule bad_factor;
  bad_factor.events = {{FaultKind::kSlowdown, 0, 1.0, 5.0, 0.9}};
  EXPECT_THROW(bad_factor.Validate(), CheckError);

  FaultSchedule bad_instance;
  bad_instance.events = {{FaultKind::kCrash, -2, 1.0, 5.0, 1.0}};
  EXPECT_THROW(bad_instance.Validate(), CheckError);

  FaultSchedule ok;
  ok.events = {{FaultKind::kPreemption, 1, 3.0, 0.0, 1.0},
               {FaultKind::kSlowdown, 0, 4.0, 10.0, 2.5}};
  EXPECT_NO_THROW(ok.Validate());
}

TEST(FaultSchedule, GeneratorIsDeterministicAndSorted) {
  const FaultModel model{.preemption_rate = 2.0,
                         .crash_rate = 6.0,
                         .restart_s = 20.0,
                         .slowdown_rate = 4.0,
                         .slowdown_s = 30.0,
                         .slowdown_factor = 3.0};
  Rng rng_a(42), rng_b(42), rng_c(43);
  const FaultSchedule a = GenerateFaultSchedule(model, 4, 3600.0, rng_a);
  const FaultSchedule b = GenerateFaultSchedule(model, 4, 3600.0, rng_b);
  const FaultSchedule c = GenerateFaultSchedule(model, 4, 3600.0, rng_c);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].instance, b.events[i].instance);
    EXPECT_DOUBLE_EQ(a.events[i].start_s, b.events[i].start_s);
  }
  EXPECT_NO_THROW(a.Validate());
  EXPECT_FALSE(a.Empty()) << "rates this high must produce events";
  // A different seed produces a different trace.
  bool differs = a.events.size() != c.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].start_s != c.events[i].start_s;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultSchedule, ZeroRatesGenerateNothing) {
  Rng rng(1);
  EXPECT_TRUE(GenerateFaultSchedule({}, 3, 1000.0, rng).Empty());
}

TEST(FaultSchedule, CsvRoundTripsAndRejectsCorruption) {
  const FaultModel model{.crash_rate = 8.0, .slowdown_rate = 3.0};
  Rng rng(7);
  const FaultSchedule schedule = GenerateFaultSchedule(model, 2, 1800.0, rng);
  const std::string csv = FaultScheduleCsv(schedule);
  const FaultSchedule parsed = ParseFaultScheduleCsv(csv);
  ASSERT_EQ(parsed.events.size(), schedule.events.size());
  for (std::size_t i = 0; i < parsed.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].kind, schedule.events[i].kind);
    EXPECT_EQ(parsed.events[i].instance, schedule.events[i].instance);
    EXPECT_DOUBLE_EQ(parsed.events[i].start_s, schedule.events[i].start_s);
  }

  EXPECT_THROW((void)ParseFaultScheduleCsv(std::string("")), CheckError);
  EXPECT_THROW((void)ParseFaultScheduleCsv(std::string("bogus,header\n")),
               CheckError);
  EXPECT_THROW(
      (void)ParseFaultScheduleCsv(std::string(
          "kind,instance,start_s,duration_s,slowdown_factor\n"
          "crash,0,ten,5,1\n")),
      CheckError);
  EXPECT_THROW(
      (void)ParseFaultScheduleCsv(std::string(
          "kind,instance,start_s,duration_s,slowdown_factor\n"
          "meteor,0,10,5,1\n")),
      CheckError);
  // Out-of-order rows must be rejected, not silently reordered.
  EXPECT_THROW(
      (void)ParseFaultScheduleCsv(std::string(
          "kind,instance,start_s,duration_s,slowdown_factor\n"
          "crash,0,10,5,1\ncrash,0,5,5,1\n")),
      CheckError);
}

/// Catch a CheckError from parsing `csv` and return its message ("" when
/// nothing was thrown).
std::string ParseError(const std::string& csv) {
  try {
    (void)ParseFaultScheduleCsv(csv);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(FaultSchedule, CsvErrorsNameTheOffendingLine) {
  const std::string header =
      "kind,instance,start_s,duration_s,slowdown_factor\n";

  // A malformed field names its 1-based line (header is line 1) and echoes
  // the row so the operator can find it in a million-line trace.
  const std::string bad_number = ParseError(
      header + "crash,0,1,5,1\ncrash,0,ten,5,1\n");
  EXPECT_NE(bad_number.find("line 3"), std::string::npos) << bad_number;
  EXPECT_NE(bad_number.find("crash,0,ten,5,1"), std::string::npos)
      << bad_number;

  const std::string bad_kind = ParseError(header + "meteor,0,10,5,1\n");
  EXPECT_NE(bad_kind.find("line 2"), std::string::npos) << bad_kind;
  EXPECT_NE(bad_kind.find("meteor"), std::string::npos) << bad_kind;

  const std::string negative = ParseError(header + "crash,0,-3,5,1\n");
  EXPECT_NE(negative.find("line 2"), std::string::npos) << negative;

  const std::string missing_field = ParseError(header + "crash,0,10\n");
  EXPECT_NE(missing_field.find("line 2"), std::string::npos) << missing_field;

  // Out-of-order rows name both lines of the inversion.
  const std::string unordered = ParseError(
      header + "crash,0,10,5,1\ncrash,0,5,5,1\n");
  EXPECT_NE(unordered.find("line 3"), std::string::npos) << unordered;
  EXPECT_NE(unordered.find("line 2"), std::string::npos) << unordered;
}

TEST(FaultSchedule, CsvRejectsNonFiniteFields) {
  const std::string header =
      "kind,instance,start_s,duration_s,slowdown_factor\n";
  // NaN/inf survive strtod, so the finiteness check must catch them — with
  // the line context intact.
  const std::string nan_start = ParseError(header + "crash,0,nan,5,1\n");
  EXPECT_NE(nan_start.find("line 2"), std::string::npos) << nan_start;
  EXPECT_THROW((void)ParseFaultScheduleCsv(
                   std::string(header + "crash,0,inf,5,1\n")),
               CheckError);
  EXPECT_THROW((void)ParseFaultScheduleCsv(
                   std::string(header + "slowdown,0,10,5,inf\n")),
               CheckError);
  // Non-slowdown kinds still require a finite factor cell: a trace whose
  // factor column rotted to NaN is corrupt even if the factor is unused.
  EXPECT_THROW((void)ParseFaultScheduleCsv(
                   std::string(header + "crash,0,10,5,nan\n")),
               CheckError);
}

TEST(FaultSchedule, SilentCorruptionRoundTripsThroughCsv) {
  FaultSchedule schedule;
  schedule.events.push_back({.kind = FaultKind::kSilentCorruption,
                             .instance = 2,
                             .start_s = 7.5,
                             .duration_s = 120.0});
  schedule.events.push_back(
      {.kind = FaultKind::kCrash, .instance = 0, .start_s = 9.0,
       .duration_s = 30.0});
  schedule.Validate();
  const FaultSchedule parsed =
      ParseFaultScheduleCsv(FaultScheduleCsv(schedule));
  ASSERT_EQ(parsed.events.size(), 2u);
  EXPECT_EQ(parsed.events[0].kind, FaultKind::kSilentCorruption);
  EXPECT_DOUBLE_EQ(parsed.events[0].duration_s, 120.0);
  EXPECT_EQ(parsed.events[1].kind, FaultKind::kCrash);
}

TEST(FaultSchedule, LoadFromFileNamesThePath) {
  EXPECT_THROW((void)LoadFaultScheduleFromFile("/nonexistent/faults.csv"),
               CheckError);
  try {
    (void)LoadFaultScheduleFromFile("/nonexistent/faults.csv");
    FAIL() << "missing file must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/faults.csv"),
              std::string::npos)
        << e.what();
  }

  // Parse errors keep both the path and the line context.
  const std::string path =
      std::string(::testing::TempDir()) + "bad_faults.csv";
  {
    std::ofstream out(path);
    out << "kind,instance,start_s,duration_s,slowdown_factor\n"
        << "crash,0,1,5,1\n"
        << "meteor,1,2,5,1\n";
  }
  try {
    (void)LoadFaultScheduleFromFile(path);
    FAIL() << "bad row must throw";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
  std::remove(path.c_str());

  // A good file round-trips.
  {
    std::ofstream out(path);
    out << "kind,instance,start_s,duration_s,slowdown_factor\n"
        << "crash,0,1,5,1\n"
        << "preemption,1,2,0,1\n";
  }
  const FaultSchedule loaded = LoadFaultScheduleFromFile(path);
  ASSERT_EQ(loaded.events.size(), 2u);
  EXPECT_EQ(loaded.events[1].kind, FaultKind::kPreemption);
  std::remove(path.c_str());
}

TEST(FaultSchedule, SliceClipsAndShifts) {
  FaultSchedule schedule;
  schedule.events = {{FaultKind::kCrash, 0, 50.0, 100.0, 1.0},
                     {FaultKind::kPreemption, 1, 150.0, 0.0, 1.0},
                     {FaultKind::kSlowdown, 0, 250.0, 20.0, 2.0}};
  const FaultSchedule window = schedule.Slice(100.0, 200.0);
  ASSERT_EQ(window.events.size(), 2u);
  // The crash started before the window but still covers [100, 150).
  EXPECT_EQ(window.events[0].kind, FaultKind::kCrash);
  EXPECT_DOUBLE_EQ(window.events[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(window.events[0].duration_s, 50.0);
  // The preemption shifts to window-local time and stays permanent.
  EXPECT_EQ(window.events[1].kind, FaultKind::kPreemption);
  EXPECT_DOUBLE_EQ(window.events[1].start_s, 50.0);
  // The slowdown is entirely outside.
  EXPECT_NO_THROW(window.Validate());
}

TEST(FaultSchedule, SliceEventStraddlingBothWindowEdges) {
  // A crash covering [50, 350) straddles the [100, 200) window entirely:
  // the slice must pin it to the full window, not drop or over-extend it.
  FaultSchedule schedule;
  schedule.events = {{FaultKind::kCrash, 0, 50.0, 300.0, 1.0},
                     {FaultKind::kSlowdown, 1, 90.0, 200.0, 3.0}};
  const FaultSchedule window = schedule.Slice(100.0, 200.0);
  ASSERT_EQ(window.events.size(), 2u);
  EXPECT_EQ(window.events[0].kind, FaultKind::kCrash);
  EXPECT_DOUBLE_EQ(window.events[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(window.events[0].duration_s, 100.0)
      << "clipped to the window length on both sides";
  EXPECT_EQ(window.events[1].kind, FaultKind::kSlowdown);
  EXPECT_DOUBLE_EQ(window.events[1].start_s, 0.0);
  EXPECT_DOUBLE_EQ(window.events[1].duration_s, 100.0);
  EXPECT_DOUBLE_EQ(window.events[1].slowdown_factor, 3.0);
  EXPECT_NO_THROW(window.Validate());
}

TEST(FaultSchedule, CsvRoundTripsCorrelatedKinds) {
  FaultSchedule schedule;
  schedule.events = {{FaultKind::kDomainOutage, 0, 10.0, 600.0, 1.0},
                     {FaultKind::kReclaimWave, 1, 20.0, 0.0, 1.0},
                     {FaultKind::kPartition, 2, 30.0, 120.0, 1.0}};
  EXPECT_NO_THROW(schedule.Validate());
  const std::string csv = FaultScheduleCsv(schedule);
  EXPECT_NE(csv.find("domain-outage"), std::string::npos);
  EXPECT_NE(csv.find("reclaim-wave"), std::string::npos);
  EXPECT_NE(csv.find("partition"), std::string::npos);
  const FaultSchedule parsed = ParseFaultScheduleCsv(csv);
  ASSERT_EQ(parsed.events.size(), schedule.events.size());
  for (std::size_t i = 0; i < schedule.events.size(); ++i) {
    EXPECT_EQ(parsed.events[i].kind, schedule.events[i].kind);
    EXPECT_EQ(parsed.events[i].instance, schedule.events[i].instance);
    EXPECT_DOUBLE_EQ(parsed.events[i].start_s, schedule.events[i].start_s);
    EXPECT_DOUBLE_EQ(parsed.events[i].duration_s,
                     schedule.events[i].duration_s);
  }
  // Permanent kinds classify as such; timed correlated kinds do not.
  EXPECT_TRUE(FaultKindIsPermanent(FaultKind::kReclaimWave));
  EXPECT_TRUE(FaultKindIsPermanent(FaultKind::kPreemption));
  EXPECT_FALSE(FaultKindIsPermanent(FaultKind::kDomainOutage));
  EXPECT_FALSE(FaultKindIsPermanent(FaultKind::kPartition));
}

TEST(FaultSchedule, PartitionTimelineMarksDownAndPartitioned) {
  FaultSchedule schedule;
  schedule.events = {{FaultKind::kPartition, 0, 10.0, 20.0, 1.0}};
  const InstanceTimeline timeline(schedule, 0, 100.0);
  EXPECT_FALSE(timeline.UpAt(15.0));
  EXPECT_TRUE(timeline.PartitionedAt(15.0));
  EXPECT_TRUE(timeline.UpAt(35.0));
  EXPECT_FALSE(timeline.PartitionedAt(35.0));
  EXPECT_FALSE(timeline.PartitionedAt(5.0));

  // An outage is down time but not a partition: in-flight work requeues.
  FaultSchedule outage;
  outage.events = {{FaultKind::kDomainOutage, 0, 10.0, 20.0, 1.0}};
  const InstanceTimeline outage_timeline(outage, 0, 100.0);
  EXPECT_FALSE(outage_timeline.UpAt(15.0));
  EXPECT_FALSE(outage_timeline.PartitionedAt(15.0));
}

TEST(FaultSchedule, TimelineAvailability) {
  FaultSchedule schedule;
  schedule.events = {{FaultKind::kCrash, 0, 10.0, 5.0, 1.0},
                     {FaultKind::kSlowdown, 0, 20.0, 10.0, 2.0},
                     {FaultKind::kPreemption, 0, 40.0, 0.0, 1.0}};
  const InstanceTimeline timeline(schedule, 0, 100.0);
  EXPECT_TRUE(timeline.UpAt(5.0));
  EXPECT_FALSE(timeline.UpAt(12.0));
  EXPECT_DOUBLE_EQ(timeline.NextUpAt(12.0), 15.0);
  EXPECT_DOUBLE_EQ(timeline.NextDownAfter(0.0), 10.0);
  EXPECT_DOUBLE_EQ(timeline.NextDownAfter(15.0), 40.0);
  EXPECT_DOUBLE_EQ(timeline.SlowdownAt(25.0), 2.0);
  EXPECT_DOUBLE_EQ(timeline.SlowdownAt(35.0), 1.0);
  EXPECT_TRUE(std::isinf(timeline.NextUpAt(50.0)));
  // Down: 5 s crash + 60 s preempted tail of the 100 s horizon.
  EXPECT_DOUBLE_EQ(timeline.DownSeconds(), 65.0);
}

// ----------------------------------------------------------- retry policy

TEST(RetryPolicyTest, BackoffIsExponentialAndCapped) {
  const RetryPolicy retry{.max_retries = 5,
                          .base_backoff_s = 0.1,
                          .backoff_multiplier = 2.0,
                          .max_backoff_s = 0.5};
  EXPECT_DOUBLE_EQ(retry.BackoffFor(1), 0.1);
  EXPECT_DOUBLE_EQ(retry.BackoffFor(2), 0.2);
  EXPECT_DOUBLE_EQ(retry.BackoffFor(3), 0.4);
  EXPECT_DOUBLE_EQ(retry.BackoffFor(4), 0.5) << "capped at max_backoff_s";
  EXPECT_DOUBLE_EQ(retry.BackoffFor(10), 0.5);
  EXPECT_THROW((void)retry.BackoffFor(0), CheckError);
  EXPECT_THROW(ValidateRetryPolicy({.max_retries = -1}), CheckError);
  EXPECT_THROW(ValidateRetryPolicy({.backoff_multiplier = 0.5}), CheckError);
  EXPECT_NO_THROW(ValidateRetryPolicy({}));
}

TEST(RetryPolicyTest, BackoffStaysFiniteAtHugeAttemptCounts) {
  // Regression: without the ceiling short-circuit, multiplier^(k-1)
  // overflows a double to +inf around attempt ~1075 and the loop costs
  // O(attempt) work. Both must stay bounded.
  const RetryPolicy retry{.max_retries = 1000000,
                          .base_backoff_s = 0.05,
                          .backoff_multiplier = 2.0,
                          .max_backoff_s = 30.0};
  EXPECT_DOUBLE_EQ(retry.BackoffFor(2000), 30.0);
  EXPECT_DOUBLE_EQ(retry.BackoffFor(1000000000), 30.0);
  EXPECT_TRUE(std::isfinite(retry.BackoffFor(1000000000)));
  // Monotone: backoff never shrinks as attempts grow.
  double previous = 0.0;
  for (int attempt = 1; attempt <= 64; ++attempt) {
    const double backoff = retry.BackoffFor(attempt);
    EXPECT_GE(backoff, previous);
    previous = backoff;
  }
}

TEST(RetryPolicyTest, DegenerateMultiplierAndBaseAreExact) {
  // multiplier == 1 never amplifies: the loop must not spin toward the
  // ceiling one futile iteration per attempt.
  const RetryPolicy flat{.base_backoff_s = 0.2,
                         .backoff_multiplier = 1.0,
                         .max_backoff_s = 5.0};
  EXPECT_DOUBLE_EQ(flat.BackoffFor(1), 0.2);
  EXPECT_DOUBLE_EQ(flat.BackoffFor(1000000000), 0.2);
  const RetryPolicy zero{.base_backoff_s = 0.0, .max_backoff_s = 5.0};
  EXPECT_DOUBLE_EQ(zero.BackoffFor(1000000000), 0.0);
  // Non-finite knobs are rejected up front: an inf ceiling would let a
  // requeued request sleep forever.
  EXPECT_THROW(ValidateRetryPolicy(
                   {.max_backoff_s = std::numeric_limits<double>::infinity()}),
               CheckError);
  EXPECT_THROW(
      ValidateRetryPolicy({.base_backoff_s = std::nan("")}), CheckError);
}

// ------------------------------------------------------- faulted serving

TEST_F(FaultsTest, EmptyScheduleMatchesFaultFreePath) {
  // Golden report of this single-GPU scenario, captured from the dedicated
  // fault-free loop that SimulateTrace ran before it became an
  // empty-schedule SimulateFaulted. That loop left delivered goodput at 0;
  // with no corruption it equals accuracy_weighted_goodput.
  ServingReport plain;
  plain.requests = 969;
  plain.duration_s = 0x1.ep+6;
  plain.mean_latency_s = 0x1.0e2abc8e3f14dp-2;
  plain.p50_latency_s = 0x1.bf5f3616dcp-3;
  plain.p95_latency_s = 0x1.083e3b72927ep-1;
  plain.p99_latency_s = 0x1.66afc522144a6p-1;
  plain.max_queue = 0x0p+0;
  plain.utilization = 0x1.6313ff4e3c4f3p-1;
  plain.cost_per_hour_usd = 0x1.ccccccccccccdp-1;
  plain.stable = true;
  plain.completed = 969;
  plain.goodput_per_s = 0x1.0266666666666p+3;
  plain.deadline_miss_rate = 0x0p+0;
  plain.accuracy_weighted_goodput = 0x1.0266666666666p+3;
  plain.delivered_accuracy_weighted_goodput = 0x1.0266666666666p+3;

  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  auto trace = PoissonTrace(8.0, 120.0, 11);
  const ServingReport faulted = serving_.SimulateFaulted(
      OneP2(), perf_, trace, 120.0, policy, {}, {});
  const ServingReport via_trace =
      serving_.SimulateTrace(OneP2(), perf_, trace, 120.0, policy);
  for (const ServingReport* r : {&faulted, &via_trace}) {
    EXPECT_EQ(plain.requests, r->requests);
    EXPECT_EQ(plain.duration_s, r->duration_s);
    EXPECT_EQ(plain.mean_latency_s, r->mean_latency_s);
    EXPECT_EQ(plain.p50_latency_s, r->p50_latency_s);
    EXPECT_EQ(plain.p95_latency_s, r->p95_latency_s);
    EXPECT_EQ(plain.p99_latency_s, r->p99_latency_s);
    EXPECT_EQ(plain.max_queue, r->max_queue);
    EXPECT_EQ(plain.utilization, r->utilization);
    EXPECT_EQ(plain.cost_per_hour_usd, r->cost_per_hour_usd);
    EXPECT_EQ(plain.stable, r->stable);
    EXPECT_EQ(plain.completed, r->completed);
    EXPECT_EQ(plain.dropped_deadline, r->dropped_deadline);
    EXPECT_EQ(plain.dropped_failed, r->dropped_failed);
    EXPECT_EQ(plain.retries, r->retries);
    EXPECT_EQ(plain.deadline_misses, r->deadline_misses);
    EXPECT_EQ(plain.goodput_per_s, r->goodput_per_s);
    EXPECT_EQ(plain.deadline_miss_rate, r->deadline_miss_rate);
    EXPECT_EQ(plain.accuracy_weighted_goodput, r->accuracy_weighted_goodput);
    EXPECT_EQ(plain.hedges, r->hedges);
    EXPECT_EQ(plain.duplicate_completions, r->duplicate_completions);
    EXPECT_EQ(plain.discarded_copies, r->discarded_copies);
    EXPECT_EQ(plain.duplicate_service_s, r->duplicate_service_s);
    EXPECT_EQ(plain.corrupted_batches, r->corrupted_batches);
    EXPECT_EQ(plain.sdc_detected, r->sdc_detected);
    EXPECT_EQ(plain.sdc_escaped, r->sdc_escaped);
    EXPECT_EQ(plain.sdc_escaped_requests, r->sdc_escaped_requests);
    EXPECT_EQ(plain.delivered_accuracy_weighted_goodput,
              r->delivered_accuracy_weighted_goodput);
  }
  EXPECT_EQ(faulted.retries, 0);
  EXPECT_EQ(faulted.dropped_failed, 0);
}

TEST_F(FaultsTest, PendingRetriesCountTowardFullBatchTrigger) {
  // Batch 1 (arrivals 0-3 ms) dies with instance 0 at 20 ms; its four
  // requests are requeued, ready at 70 ms. When the request of 4 ms waits
  // for the healthy GPU, three sources are missing from a full batch: the
  // arrival at 5 ms and two retries at 70 ms, not the trace arrival at
  // 6 s. Golden values from the reference merge of trace and retry ready
  // times.
  ResourceConfig two;
  two.Add("p2.xlarge", 2);
  FaultSchedule faults;
  faults.events.push_back({FaultKind::kCrash, 0, 0.02, 100.0, 1.0});
  const ServingReport report = serving_.SimulateFaulted(
      two, perf_, {0.0, 0.001, 0.002, 0.003, 0.004, 0.005, 5.0, 6.0}, 10.0,
      {.max_batch = 4, .max_wait_s = 10.0}, {}, faults);
  EXPECT_EQ(report.completed, 8);
  EXPECT_EQ(report.retries, 4);
  EXPECT_EQ(report.mean_latency_s, 0x1.f72d9394d5e1p+0);
  EXPECT_EQ(report.p50_latency_s, 0x1.81f5cb40e8ec8p-2);
  EXPECT_EQ(report.p99_latency_s, 0x1.938ac25db6936p+2);
}

TEST_F(FaultsTest, DeterministicGivenSeedAndSchedule) {
  const FaultModel model{.crash_rate = 20.0, .restart_s = 15.0,
                         .slowdown_rate = 10.0};
  Rng fault_rng(3);
  const FaultSchedule schedule =
      GenerateFaultSchedule(model, 1, 300.0, fault_rng);
  const ServingPolicy policy{
      .max_batch = 64, .max_wait_s = 0.05, .deadline_s = 2.0};
  const RetryPolicy retry{.max_retries = 3};
  const auto trace = PoissonTrace(10.0, 300.0, 21);
  const ServingReport a = serving_.SimulateFaulted(
      OneP2(), perf_, trace, 300.0, policy, retry, schedule);
  const ServingReport b = serving_.SimulateFaulted(
      OneP2(), perf_, trace, 300.0, policy, retry, schedule);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.dropped_deadline, b.dropped_deadline);
  EXPECT_EQ(a.dropped_failed, b.dropped_failed);
  EXPECT_DOUBLE_EQ(a.p99_latency_s, b.p99_latency_s);
  EXPECT_DOUBLE_EQ(a.goodput_per_s, b.goodput_per_s);
  EXPECT_DOUBLE_EQ(a.utilization, b.utilization);
}

TEST_F(FaultsTest, CrashMidBatchRequeuesAndCompletesAfterRestart) {
  // Batch-1 service on p2.xlarge is ~0.1 s; a crash at t=0.05 is
  // guaranteed mid-batch for a request arriving at t=0.
  FaultSchedule schedule;
  schedule.events = {{FaultKind::kCrash, 0, 0.05, 1.0, 1.0}};
  const ServingPolicy policy{.max_batch = 4, .max_wait_s = 0.0};
  const RetryPolicy retry{.max_retries = 3, .base_backoff_s = 0.1};
  const ServingReport report = serving_.SimulateFaulted(
      OneP2(), perf_, {0.0}, 10.0, policy, retry, schedule);
  EXPECT_EQ(report.requests, 1);
  EXPECT_EQ(report.retries, 1) << "the in-flight batch must requeue";
  EXPECT_EQ(report.completed, 1) << "and complete after the restart";
  EXPECT_EQ(report.dropped_failed, 0);
  // Latency spans the crash + restart window.
  EXPECT_GT(report.mean_latency_s, 1.0);
}

TEST_F(FaultsTest, InflightDropLosesTheBatch) {
  FaultSchedule schedule;
  schedule.events = {{FaultKind::kCrash, 0, 0.05, 1.0, 1.0}};
  const ServingPolicy policy{.max_batch = 4, .max_wait_s = 0.0};
  const ServingReport report = serving_.SimulateFaulted(
      OneP2(), perf_, {0.0}, 10.0, policy, {}, schedule,
      InflightPolicy::kDrop);
  EXPECT_EQ(report.completed, 0);
  EXPECT_EQ(report.dropped_failed, 1);
  EXPECT_EQ(report.retries, 0);
}

TEST_F(FaultsTest, RetryExhaustionDrops) {
  // Crash every 0.08 s with 0.02 s restarts: batch-1 service (~0.1 s)
  // can never finish, so the request must exhaust its retries and drop.
  FaultSchedule schedule;
  for (int k = 0; k < 200; ++k) {
    schedule.events.push_back(
        {FaultKind::kCrash, 0, 0.08 + 0.1 * k, 0.02, 1.0});
  }
  const ServingPolicy policy{.max_batch = 1, .max_wait_s = 0.0};
  const RetryPolicy retry{.max_retries = 4,
                          .base_backoff_s = 0.01,
                          .backoff_multiplier = 1.5,
                          .max_backoff_s = 0.05};
  const ServingReport report = serving_.SimulateFaulted(
      OneP2(), perf_, {0.0}, 30.0, policy, retry, schedule);
  EXPECT_EQ(report.completed, 0);
  EXPECT_EQ(report.dropped_failed, 1);
  EXPECT_EQ(report.retries, 4) << "exactly max_retries re-attempts";
}

TEST_F(FaultsTest, PreemptedFleetDropsEverything) {
  FaultSchedule schedule;
  schedule.events = {{FaultKind::kPreemption, 0, 1.0, 0.0, 1.0}};
  const auto trace = PoissonTrace(5.0, 60.0, 5);
  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  const ServingReport report = serving_.SimulateFaulted(
      OneP2(), perf_, trace, 60.0, policy, {}, schedule);
  EXPECT_EQ(report.completed + report.dropped_failed, report.requests);
  EXPECT_GT(report.completed, 0) << "requests before the preemption";
  EXPECT_GT(report.dropped_failed, 0) << "requests after it are lost";
  // The dead instance stops being billed.
  EXPECT_LT(report.cost_per_hour_usd, 0.90 * 0.05);
}

TEST_F(FaultsTest, SlowdownStretchesServiceNotAvailability) {
  FaultSchedule schedule;
  schedule.events = {{FaultKind::kSlowdown, 0, 0.0, 600.0, 3.0}};
  const auto trace = PoissonTrace(2.0, 300.0, 9);
  const ServingPolicy policy{.max_batch = 16, .max_wait_s = 0.05};
  const ServingReport slow = serving_.SimulateFaulted(
      OneP2(), perf_, trace, 300.0, policy, {}, schedule);
  const ServingReport fast = serving_.SimulateFaulted(
      OneP2(), perf_, trace, 300.0, policy, {}, {});
  EXPECT_EQ(slow.completed, slow.requests) << "nothing is lost";
  EXPECT_GT(slow.mean_latency_s, fast.mean_latency_s * 1.5);
}

TEST_F(FaultsTest, DeadlineDropsUnderOverload) {
  // 3x capacity with a tight deadline: requests that cannot start in time
  // are dropped, and goodput stays below the arrival rate.
  const ServingPolicy policy{
      .max_batch = 300, .max_wait_s = 0.1, .deadline_s = 1.0};
  const double capacity = serving_.Capacity(OneP2(), perf_, policy);
  const auto trace = PoissonTrace(capacity * 3.0, 120.0, 13);
  const ServingReport report = serving_.SimulateFaulted(
      OneP2(), perf_, trace, 120.0, policy, {}, {});
  EXPECT_GT(report.dropped_deadline, 0);
  EXPECT_GT(report.deadline_miss_rate, 0.3);
  EXPECT_LT(report.goodput_per_s, capacity * 1.05);
  EXPECT_EQ(report.requests, report.completed + report.dropped_deadline +
                                 report.dropped_failed);
}

TEST_F(FaultsTest, AccuracyWeightedGoodputScalesWithAccuracy) {
  const auto trace = PoissonTrace(5.0, 60.0, 15);
  const ServingPolicy policy{.max_batch = 32, .max_wait_s = 0.05};
  const ServingReport report = serving_.SimulateFaulted(
      OneP2(), perf_, trace, 60.0, policy, {}, {}, InflightPolicy::kRequeue,
      0.8);
  EXPECT_NEAR(report.accuracy_weighted_goodput, report.goodput_per_s * 0.8,
              1e-12);
  EXPECT_THROW((void)serving_.SimulateFaulted(OneP2(), perf_, trace, 60.0,
                                              policy, {}, {},
                                              InflightPolicy::kRequeue, 1.5),
               CheckError);
}

// ------------------------------------------------------------ degradation

class DegradationTest : public FaultsTest {
 protected:
  DegradationTest() {
    pruning::PrunePlan sweet;
    sweet.layer_ratios = {{"conv1", 0.3}, {"conv2", 0.5}};
    pruning::PrunePlan deep;
    deep.layer_ratios = {
        {"conv1", 0.6}, {"conv2", 0.7}, {"conv3", 0.7}, {"conv4", 0.7}};
    ladder_ = {
        {perf_, 0.80},
        {ComputeVariantPerf(profile_, DensityFromPlan(profile_, sweet),
                            "sweet"),
         0.75},
        {ComputeVariantPerf(profile_, DensityFromPlan(profile_, deep),
                            "deep"),
         0.60},
    };
  }

  std::vector<std::vector<double>> IntervalTraces(
      const std::vector<double>& rates, double interval_s,
      std::uint64_t seed) {
    std::vector<std::vector<double>> traces;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      traces.push_back(PoissonTrace(rates[i], interval_s, seed + i));
    }
    return traces;
  }

  std::vector<DegradationRung> ladder_;
};

TEST_F(DegradationTest, DegradesUnderStressAndRecoversWithHysteresis) {
  const DegradationController controller(serving_, OneP2());
  // One p2.xlarge sustains ~40 img/s unpruned. Overload for 3 intervals,
  // then go quiet: the controller must step down, then step back up only
  // after recover_intervals calm intervals.
  const std::vector<double> rates{10, 60, 60, 60, 5, 5, 5, 5, 5};
  const auto traces = IntervalTraces(rates, 60.0, 100);
  const ServingPolicy policy{
      .max_batch = 128, .max_wait_s = 0.1, .deadline_s = 2.0};
  const DegradationPolicy degrade{.degrade_miss_rate = 0.05,
                                  .recover_miss_rate = 0.01,
                                  .recover_headroom = 0.7,
                                  .recover_intervals = 2};
  const DegradationResult result = controller.Run(
      traces, 60.0, ladder_, degrade, policy, {}, {});
  ASSERT_EQ(result.steps.size(), rates.size());
  EXPECT_EQ(result.steps.front().rung, 0);
  int max_rung = 0;
  for (const auto& step : result.steps) {
    max_rung = std::max(max_rung, step.rung);
  }
  EXPECT_GT(max_rung, 0) << "overload must degrade";
  EXPECT_EQ(result.steps.back().rung, 0) << "calm tail must fully recover";
  EXPECT_GT(result.mean_accuracy, 0.6);
  EXPECT_LT(result.mean_accuracy, 0.8) << "degraded intervals cost accuracy";
}

TEST_F(DegradationTest, HysteresisPreventsFlapping) {
  const DegradationController controller(serving_, OneP2());
  // Load hovering right at the stress boundary: without hysteresis the
  // rung would toggle nearly every interval. Bound total switches.
  std::vector<double> rates(12, 42.0);
  const auto traces = IntervalTraces(rates, 60.0, 200);
  const ServingPolicy policy{
      .max_batch = 128, .max_wait_s = 0.1, .deadline_s = 2.0};
  const DegradationPolicy degrade{.degrade_miss_rate = 0.05,
                                  .recover_miss_rate = 0.01,
                                  .recover_headroom = 0.65,
                                  .recover_intervals = 3};
  const DegradationResult result = controller.Run(
      traces, 60.0, ladder_, degrade, policy, {}, {});
  // Each recovery needs 3 calm intervals, so 12 intervals allow at most
  // a handful of transitions.
  EXPECT_LE(result.switches, 5) << "controller must not flap";
  // No interval may oscillate: consecutive steps differ by at most 1 rung.
  for (std::size_t i = 1; i < result.steps.size(); ++i) {
    EXPECT_LE(std::abs(result.steps[i].rung - result.steps[i - 1].rung), 1);
  }
}

TEST_F(DegradationTest, FaultsTriggerDegradation) {
  const DegradationController controller(serving_, OneP2());
  // Load fits the healthy instance, but repeated crashes shrink effective
  // capacity: the controller compensates with a faster variant.
  std::vector<double> rates(6, 12.0);
  const auto traces = IntervalTraces(rates, 60.0, 300);
  FaultSchedule faults;
  for (int k = 0; k < 12; ++k) {
    faults.events.push_back(
        {FaultKind::kCrash, 0, 60.0 + 25.0 * k, 15.0, 1.0});
  }
  const ServingPolicy policy{
      .max_batch = 128, .max_wait_s = 0.1, .deadline_s = 2.0};
  const DegradationResult faulted = controller.Run(
      traces, 60.0, ladder_, {}, policy, {.max_retries = 3}, faults);
  const DegradationResult clean = controller.Run(
      traces, 60.0, ladder_, {}, policy, {.max_retries = 3}, {});
  int max_rung = 0;
  for (const auto& step : faulted.steps) {
    max_rung = std::max(max_rung, step.rung);
  }
  EXPECT_GT(max_rung, 0) << "crash pressure must degrade the variant";
  EXPECT_EQ(clean.steps.back().rung, 0) << "no faults, no degradation";
  EXPECT_LT(faulted.mean_accuracy, clean.mean_accuracy);
}

TEST_F(DegradationTest, RejectsBadInputs) {
  const DegradationController controller(serving_, OneP2());
  const auto traces = IntervalTraces({5.0}, 30.0, 1);
  EXPECT_THROW((void)controller.Run({}, 30.0, ladder_, {}, {}, {}, {}),
               CheckError);
  EXPECT_THROW((void)controller.Run(traces, 0.0, ladder_, {}, {}, {}, {}),
               CheckError);
  EXPECT_THROW((void)controller.Run(traces, 30.0, {}, {}, {}, {}, {}),
               CheckError);
  EXPECT_THROW(
      (void)controller.Run(traces, 30.0, ladder_,
                           {.degrade_miss_rate = 0.01,
                            .recover_miss_rate = 0.05},
                           {}, {}, {}),
      CheckError);
  EXPECT_THROW(DegradationController(serving_, ResourceConfig{}), CheckError);
}

// --------------------------------------------------- fault-aware scaling

TEST_F(FaultsTest, FaultAwareAutoscalerStepsUpAfterFailures) {
  const Autoscaler scaler(serving_, "p2.xlarge");
  // Steady 30 img/s fits one p2.xlarge (~40 img/s). A crash storm in
  // epochs 1-2 starves it; the fault-aware scaler must add capacity.
  std::vector<std::vector<double>> traces;
  for (std::uint64_t e = 0; e < 5; ++e) {
    traces.push_back(PoissonTrace(30.0, 120.0, 400 + e));
  }
  FaultSchedule faults;
  for (int k = 0; k < 10; ++k) {
    faults.events.push_back(
        {FaultKind::kCrash, 0, 125.0 + 23.0 * k, 12.0, 1.0});
  }
  const ServingPolicy policy{
      .max_batch = 128, .max_wait_s = 0.1, .deadline_s = 2.0};
  const AutoscaleResult result = scaler.RunFaulted(
      traces, 120.0, perf_,
      {.target_utilization = 0.6, .min_instances = 1, .max_instances = 4},
      policy, {.max_retries = 3}, faults);
  ASSERT_EQ(result.steps.size(), 5u);
  int peak = 0;
  for (const auto& step : result.steps) {
    peak = std::max(peak, step.instances);
  }
  EXPECT_GT(peak, 1) << "failure signals must force a step up";
  EXPECT_GT(result.slo_compliance, 0.5);
  EXPECT_LT(result.slo_compliance, 1.0) << "the crash epochs leave a scar";
}

TEST(FaultScheduleCache, ReturnsTheGeneratedSchedule) {
  const FaultModel model{.preemption_rate = 2.0, .crash_rate = 4.0};
  FaultScheduleCache cache;
  const FaultSchedule& cached = cache.Get(model, 4, 3600.0, 7);
  Rng rng(7);
  const FaultSchedule direct = GenerateFaultSchedule(model, 4, 3600.0, rng);
  ASSERT_EQ(cached.events.size(), direct.events.size());
  for (std::size_t i = 0; i < cached.events.size(); ++i) {
    EXPECT_EQ(cached.events[i].start_s, direct.events[i].start_s);
    EXPECT_EQ(cached.events[i].instance, direct.events[i].instance);
    EXPECT_EQ(cached.events[i].kind, direct.events[i].kind);
  }
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(cache.Misses(), 1u);
}

TEST(FaultScheduleCache, RepeatLookupsHitAndShareOneEntry) {
  const FaultModel model{.crash_rate = 6.0};
  FaultScheduleCache cache;
  const FaultSchedule& first = cache.Get(model, 2, 1800.0, 11);
  const FaultSchedule& second = cache.Get(model, 2, 1800.0, 11);
  EXPECT_EQ(&first, &second) << "hits must share the generated schedule";
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(cache.Hits(), 1u);
  EXPECT_EQ(cache.Misses(), 1u);
  // Any key component change is a distinct entry.
  (void)cache.Get(model, 3, 1800.0, 11);
  (void)cache.Get(model, 2, 1800.0, 12);
  EXPECT_EQ(cache.Size(), 3u);
}

TEST(FaultScheduleCache, ConcurrentLookupsConvergeOnOneSchedule) {
  const FaultModel model{.preemption_rate = 1.0, .crash_rate = 8.0,
                         .slowdown_rate = 3.0};
  FaultScheduleCache cache;
  std::vector<const FaultSchedule*> seen(64, nullptr);
  ParallelFor(
      0, seen.size(),
      [&](std::size_t i) { seen[i] = &cache.Get(model, 4, 3600.0, 42); },
      1);
  for (const FaultSchedule* p : seen) {
    EXPECT_EQ(p, seen[0]) << "every caller must observe the same entry";
  }
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(cache.Hits() + cache.Misses(), seen.size());
}

}  // namespace
}  // namespace ccperf::cloud
