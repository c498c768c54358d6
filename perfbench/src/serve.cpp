// serve_sim: a seeded sequence of one-hour serving simulations on g3/p2
// fleets at 0.3-0.9 of ServingSimulator::Capacity.
//
// Eight fixed scenario slots, two per call type: fault-free SimulateTrace;
// SimulateFaulted under crash, slowdown and SDC schedules with retries; the
// same with RedundancyPolicy hedging; SimulateFaultedCheckpointed. Fleet,
// model and load of a slot are fixed so operation sizes do not depend on
// the seed; the seed draws the Poisson arrivals and the fault schedules.
// Each cycle runs every slot three times and the fixed golden scenario
// once. The cloud event loop and common/snapshot do all the work.
//
// Checks: every report's digest equals a set-up reference. For the faulted
// call types the reference comes from driving FaultedServingEngine by hand
// with a Checkpoint() taken mid-run and Restore()d into a fresh engine; the
// golden scenario's digest must also equal the stored golden value.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cloud/density.h"
#include "cloud/model_profile.h"
#include "cloud/serving.h"
#include "cloud/variant_perf.h"
#include "common/rng.h"
#include "harness.h"

namespace perfbench {
namespace {

namespace cloud = ccperf::cloud;

constexpr double kHorizonS = 3600.0;
constexpr std::uint64_t kGoldenSeed = 0x60d5e7;

enum class Call { kTrace, kFaulted, kHedged, kCheckpointed };

struct Slot {
  Call call;
  std::vector<std::pair<const char*, int>> fleet;
  bool googlenet;
  double load;  // share of Capacity
};

// Two slots per call type; the golden scenario is the last.
const Slot kSlots[] = {
    {Call::kTrace, {{"g3.4xlarge", 2}}, false, 0.3},
    {Call::kTrace, {{"p2.xlarge", 2}}, true, 0.9},
    {Call::kFaulted, {{"g3.4xlarge", 1}}, false, 0.6},
    {Call::kFaulted, {{"p2.xlarge", 2}}, true, 0.8},
    {Call::kHedged, {{"g3.4xlarge", 1}}, true, 0.5},
    {Call::kHedged, {{"p2.xlarge", 2}}, false, 0.7},
    {Call::kCheckpointed, {{"g3.4xlarge", 1}, {"p2.xlarge", 1}}, false, 0.4},
    {Call::kCheckpointed, {{"g3.4xlarge", 1}}, true, 0.9},
    {Call::kHedged, {{"g3.4xlarge", 2}}, false, 0.6},
};
constexpr std::size_t kGoldenSlot = std::size(kSlots) - 1;

const cloud::ServingPolicy kPolicy{
    .max_batch = 64, .max_wait_s = 0.05, .deadline_s = 2.0};
const cloud::RetryPolicy kRetry{.max_retries = 3, .base_backoff_s = 0.05};
const cloud::RedundancyPolicy kHedge{
    .replicas = 1, .hedge_after_s = 0.5, .max_hedges = 1};
const cloud::SdcPolicy kAbft{.kind = cloud::SdcPolicyKind::kAbft};
const cloud::CheckpointPolicy kCheckpoint{
    .trigger = cloud::CheckpointTrigger::kPeriodic, .interval_s = 300.0};
const cloud::FaultModel kFaults{.crash_rate = 1.0,
                                .restart_s = 60.0,
                                .slowdown_rate = 2.0,
                                .slowdown_s = 120.0,
                                .slowdown_factor = 3.0,
                                .sdc_rate = 1.0,
                                .sdc_window_s = 120.0};

// Field by field, so struct padding never enters the digest.
std::uint32_t Digest(const cloud::ServingReport& r) {
  const double doubles[] = {
      r.duration_s, r.mean_latency_s, r.p50_latency_s, r.p95_latency_s,
      r.p99_latency_s, r.max_queue, r.utilization, r.cost_per_hour_usd,
      r.goodput_per_s, r.deadline_miss_rate, r.accuracy_weighted_goodput,
      r.duplicate_service_s, r.delivered_accuracy_weighted_goodput,
      r.stable ? 1.0 : 0.0};
  const std::int64_t counts[] = {
      r.requests, r.completed, r.dropped_deadline, r.dropped_failed,
      r.retries, r.deadline_misses, r.hedges, r.duplicate_completions,
      r.discarded_copies, r.corrupted_batches, r.sdc_detected, r.sdc_escaped,
      r.sdc_escaped_requests};
  return Crc(counts, sizeof(counts), Crc(doubles, sizeof(doubles)));
}

// One scenario's inputs, all generated here from the seed.
struct Scenario {
  Call call = Call::kTrace;
  cloud::ResourceConfig config;
  cloud::VariantPerf perf;
  std::vector<double> arrivals;
  cloud::FaultSchedule faults;
};

class ServeContext {
 public:
  ServeContext()
      : sim_(cloud::InstanceCatalog::AwsEc2()),
        serving_(sim_),
        caffenet_(Perf(cloud::CaffeNetProfile())),
        googlenet_(Perf(cloud::GoogLeNetProfile())) {}

  [[nodiscard]] Scenario Make(const Slot& slot, std::uint64_t seed) const {
    Scenario s;
    s.call = slot.call;
    for (const auto& [type, count] : slot.fleet) s.config.Add(type, count);
    s.perf = slot.googlenet ? googlenet_ : caffenet_;
    const double rate =
        slot.load * serving_.Capacity(s.config, s.perf, kPolicy);
    ccperf::Rng rng(seed);
    for (double t = -std::log1p(-rng.NextDouble()) / rate; t < kHorizonS;
         t += -std::log1p(-rng.NextDouble()) / rate) {
      s.arrivals.push_back(t);
    }
    if (slot.call != Call::kTrace) {
      s.faults = cloud::GenerateFaultSchedule(
          kFaults, s.config.TotalInstances(), kHorizonS, rng);
    }
    return s;
  }

  [[nodiscard]] cloud::ServingReport Simulate(const Scenario& s) const {
    switch (s.call) {
      case Call::kTrace:
        return serving_.SimulateTrace(s.config, s.perf, s.arrivals,
                                      kHorizonS, kPolicy);
      case Call::kFaulted:
        return serving_.SimulateFaulted(s.config, s.perf, s.arrivals,
                                        kHorizonS, kPolicy, kRetry, s.faults,
                                        cloud::InflightPolicy::kRequeue, 1.0,
                                        {}, kAbft);
      case Call::kHedged:
        return serving_.SimulateFaulted(s.config, s.perf, s.arrivals,
                                        kHorizonS, kPolicy, kRetry, s.faults,
                                        cloud::InflightPolicy::kRequeue, 1.0,
                                        kHedge, kAbft);
      case Call::kCheckpointed:
        return serving_.SimulateFaultedCheckpointed(
            s.config, s.perf, s.arrivals, kHorizonS, kPolicy, kRetry,
            s.faults, kCheckpoint, nullptr, cloud::InflightPolicy::kRequeue,
            1.0, {}, kAbft);
    }
    return {};
  }

  [[nodiscard]] std::unique_ptr<cloud::FaultedServingEngine> Engine(
      const Scenario& s) const {
    return std::make_unique<cloud::FaultedServingEngine>(
        serving_, s.config, s.perf, s.arrivals, kHorizonS, kPolicy, kRetry,
        s.faults, cloud::InflightPolicy::kRequeue, 1.0,
        s.call == Call::kHedged ? kHedge : cloud::RedundancyPolicy{}, kAbft);
  }

  // The report of an engine stepped by hand to the horizon's midpoint,
  // checkpointed, restored into a fresh engine and run to the end.
  [[nodiscard]] cloud::ServingReport Restored(const Scenario& s) const {
    auto first = Engine(s);
    while (!first->Done() && first->Watermark() < kHorizonS / 2) {
      first->Step();
    }
    const std::string snapshot = first->Checkpoint();
    first.reset();
    auto second = Engine(s);
    second->Restore(snapshot);
    while (!second->Done()) second->Step();
    return second->Finish();
  }

  [[nodiscard]] const cloud::ServingSimulator& Serving() const {
    return serving_;
  }

 private:
  static cloud::VariantPerf Perf(const cloud::ModelProfile& profile) {
    return cloud::ComputeVariantPerf(
        profile, cloud::DensityFromPlan(profile, {}), "nonpruned");
  }

  cloud::CloudSimulator sim_;
  cloud::ServingSimulator serving_;
  cloud::VariantPerf caffenet_;
  cloud::VariantPerf googlenet_;
};

class ServeWorkload final : public Workload {
 public:
  void Setup(std::uint64_t seed) override {
    ccperf::Rng rng(seed);
    std::vector<std::size_t> counts;
    for (std::size_t i = 0; i < std::size(kSlots); ++i) {
      const bool golden = i == kGoldenSlot;
      Case c{ctx_.Make(kSlots[i], golden ? kGoldenSeed : rng.NextU64()), 0,
             golden};
      c.ref_digest = Digest(c.scenario.call == Call::kTrace
                                ? ctx_.Simulate(c.scenario)
                                : ctx_.Restored(c.scenario));
      cases_.push_back(std::move(c));
      counts.push_back(golden ? 1 : 3);
    }
    cycle_ = ShuffledCycle(counts, rng.NextU64());
  }

  [[nodiscard]] const std::vector<std::size_t>& Cycle() const override {
    return cycle_;
  }

  OpOutcome Run(std::size_t op, Tracer& tracer, bool corrupt) override {
    const Case& c = cases_[cycle_[op % cycle_.size()]];
    cloud::ServingReport r;
    {
      static const char* const kNames[] = {
          "cloud.SimulateTrace", "cloud.SimulateFaulted",
          "cloud.SimulateFaulted hedged", "cloud.SimulateFaultedCheckpointed"};
      Tracer::Scope span(tracer, kNames[static_cast<int>(c.scenario.call)]);
      r = ctx_.Simulate(c.scenario);
    }
    if (tracer.Enabled()) {
      requests_ += static_cast<double>(r.requests);
      retries_ += static_cast<double>(r.retries);
      completed_ += static_cast<double>(r.completed);
      duplicates_ += static_cast<double>(r.duplicate_completions);
      max_queue_ = std::max(max_queue_, r.max_queue);
    }
    if (corrupt) r.p99_latency_s = std::nextafter(r.p99_latency_s, 1e300);
    const std::uint32_t digest = Digest(r);
    const bool ok = digest == c.ref_digest &&
                    (!c.golden || GoldenMatches("serve.golden.digest",
                                                std::to_string(digest)));
    return {static_cast<double>(r.requests), ok};
  }

  void LayerMetrics(Tracer&, Metrics& out) override {
    out["cloud.retries_per_request"] = {retries_ / requests_, "ratio"};
    out["cloud.max_queue"] = {max_queue_, "count"};
    out["cloud.duplicate_service_share"] = {duplicates_ / completed_,
                                            "ratio"};
  }

 private:
  struct Case {
    Scenario scenario;
    std::uint32_t ref_digest = 0;
    bool golden = false;
  };

  ServeContext ctx_;
  std::vector<Case> cases_;
  std::vector<std::size_t> cycle_;  // case index per op
  double requests_ = 0.0;
  double retries_ = 0.0;
  double completed_ = 0.0;
  double duplicates_ = 0.0;
  double max_queue_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload() {
  return std::make_unique<ServeWorkload>();
}

void ProbeCloud(Metrics& out) {
  const ServeContext ctx;
  const Slot& golden = kSlots[kGoldenSlot];

  std::vector<double> gen_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = NowNs();
    (void)ctx.Make(golden, kGoldenSeed);
    gen_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  out["cloud.fault_gen_ms"] = {Median(gen_ms), "ms"};
  const Scenario s = ctx.Make(golden, kGoldenSeed);
  const auto requests = static_cast<double>(s.arrivals.size());

  const std::int64_t t_trace = NowNs();
  (void)ctx.Serving().SimulateTrace(s.config, s.perf, s.arrivals, kHorizonS,
                                    kPolicy);
  out["cloud.trace_ns_per_request"] = {
      static_cast<double>(NowNs() - t_trace) / requests, "ns"};
  const std::int64_t t_engine = NowNs();
  (void)ctx.Serving().SimulateFaulted(s.config, s.perf, s.arrivals, kHorizonS,
                                      kPolicy, kRetry, {});
  out["cloud.engine_ns_per_request"] = {
      static_cast<double>(NowNs() - t_engine) / requests, "ns"};

  // Drive the engine by hand: steps, time per step, and a snapshot taken
  // at the horizon's midpoint, restored into a fresh engine.
  auto engine = ctx.Engine(s);
  double steps = 0.0;
  double step_ns = 0.0;
  std::string snapshot;
  std::vector<double> checkpoint_ms;
  while (!engine->Done()) {
    const std::int64_t t_step = NowNs();
    engine->Step();
    step_ns += static_cast<double>(NowNs() - t_step);
    ++steps;
    if (snapshot.empty() && engine->Watermark() >= kHorizonS / 2) {
      for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t t0 = NowNs();
        snapshot = engine->Checkpoint();
        checkpoint_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      }
    }
  }
  out["cloud.step_us"] = {step_ns / steps / 1e3, "us"};
  out["cloud.steps_per_request"] = {steps / requests, "ratio"};
  out["cloud.checkpoint_ms"] = {Median(checkpoint_ms), "ms"};
  out["cloud.snapshot_mb"] = {static_cast<double>(snapshot.size()) / 1e6,
                              "MB"};
  std::vector<double> restore_ms;
  for (int rep = 0; rep < 5; ++rep) {
    auto fresh = ctx.Engine(s);
    const std::int64_t t0 = NowNs();
    fresh->Restore(snapshot);
    restore_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  out["cloud.restore_ms"] = {Median(restore_ms), "ms"};

  const cloud::ServingReport r = ctx.Simulate(s);
  out.insert({"cloud.retries_per_request",
              {static_cast<double>(r.retries) / requests, "ratio"}});
  out.insert({"cloud.max_queue", {r.max_queue, "count"}});
  out.insert({"cloud.duplicate_service_share",
              {static_cast<double>(r.duplicate_completions) /
                   static_cast<double>(r.completed),
               "ratio"}});
}

}  // namespace perfbench
