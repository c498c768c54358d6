#include "cloud/serving.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numbers>
#include <utility>

#include "cloud/pricing.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "common/stats.h"

namespace ccperf::cloud {

void ValidateServingPolicy(const ServingPolicy& policy) {
  CCPERF_CHECK(policy.max_batch >= 1, "max_batch must be >= 1, got ",
               policy.max_batch);
  CCPERF_CHECK(policy.max_wait_s >= 0.0, "max_wait_s must be >= 0, got ",
               policy.max_wait_s);
  CCPERF_CHECK(policy.deadline_s > 0.0, "deadline_s must be positive, got ",
               policy.deadline_s);
}

double RetryPolicy::BackoffFor(int attempt) const {
  CCPERF_CHECK(attempt >= 1, "attempt is 1-based");
  if (base_backoff_s <= 0.0 || backoff_multiplier <= 1.0) {
    // No growth possible; skip the walk (a multiplier of 1 would otherwise
    // spin `attempt` times without ever reaching the ceiling).
    return std::min(base_backoff_s, max_backoff_s);
  }
  // Multiplicative walk that stops at the ceiling: the running product can
  // never overflow a double to infinity, and a pathological attempt count
  // (e.g. INT_MAX) costs O(log(max/base)) iterations, not O(attempt).
  double backoff = base_backoff_s;
  for (int k = 1; k < attempt && backoff < max_backoff_s; ++k) {
    backoff *= backoff_multiplier;
  }
  return std::min(backoff, max_backoff_s);
}

void ValidateRetryPolicy(const RetryPolicy& policy) {
  CCPERF_CHECK(policy.max_retries >= 0, "max_retries must be >= 0, got ",
               policy.max_retries);
  CCPERF_CHECK(policy.base_backoff_s >= 0.0 &&
                   std::isfinite(policy.base_backoff_s),
               "base backoff must be finite and >= 0, got ",
               policy.base_backoff_s);
  CCPERF_CHECK(policy.max_backoff_s >= 0.0 &&
                   std::isfinite(policy.max_backoff_s),
               "max backoff (the clamp ceiling) must be finite and >= 0, "
               "got ",
               policy.max_backoff_s);
  CCPERF_CHECK(policy.backoff_multiplier >= 1.0 &&
                   std::isfinite(policy.backoff_multiplier),
               "backoff multiplier must be finite and >= 1, got ",
               policy.backoff_multiplier);
}

void ValidateRedundancyPolicy(const RedundancyPolicy& policy) {
  CCPERF_CHECK(policy.replicas >= 1, "replicas must be >= 1, got ",
               policy.replicas);
  CCPERF_CHECK(policy.hedge_after_s > 0.0,
               "hedge_after_s must be positive, got ", policy.hedge_after_s);
  CCPERF_CHECK(policy.max_hedges >= 0, "max_hedges must be >= 0, got ",
               policy.max_hedges);
}

ServingSimulator::ServingSimulator(const CloudSimulator& simulator)
    : simulator_(simulator) {}

double ServingSimulator::Capacity(const ResourceConfig& config,
                                  const VariantPerf& perf,
                                  const ServingPolicy& policy) const {
  CCPERF_CHECK(!config.Empty(), "empty configuration");
  double capacity = 0.0;
  for (const auto& [type_name, count] : config.instances) {
    const InstanceType& type = simulator_.Catalog().Find(type_name);
    const GpuSpec& gpu = simulator_.Catalog().Gpu(type.gpu);
    const std::int64_t batch = std::min(policy.max_batch, gpu.max_batch);
    const double service =
        simulator_.BatchSeconds(type, perf, batch).value();
    capacity += static_cast<double>(batch) / service *
                static_cast<double>(type.gpus * count);
  }
  return capacity;
}

ServingReport ServingSimulator::Simulate(const ResourceConfig& config,
                                         const VariantPerf& perf,
                                         double arrivals_per_s,
                                         double duration_s,
                                         const ServingPolicy& policy,
                                         Rng& rng) const {
  CCPERF_CHECK(arrivals_per_s > 0.0 && duration_s > 0.0,
               "arrival rate and duration must be positive");
  std::vector<double> arrivals;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / arrivals_per_s;
    if (t > duration_s) break;
    arrivals.push_back(t);
  }
  return SimulateTrace(config, perf, std::move(arrivals), duration_s, policy);
}

ServingReport ServingSimulator::SimulateTrace(
    const ResourceConfig& config, const VariantPerf& perf,
    std::vector<double> arrivals, double duration_s,
    const ServingPolicy& policy) const {
  return SimulateFaulted(config, perf, std::move(arrivals), duration_s, policy,
                         RetryPolicy{}, FaultSchedule{});
}

ServingReport ServingSimulator::SimulateFaulted(
    const ResourceConfig& config, const VariantPerf& perf,
    std::vector<double> arrivals, double duration_s,
    const ServingPolicy& policy, const RetryPolicy& retry,
    const FaultSchedule& faults, InflightPolicy inflight,
    double variant_accuracy, const RedundancyPolicy& redundancy,
    const SdcPolicy& sdc) const {
  FaultedServingEngine engine(*this, config, perf, std::move(arrivals),
                              duration_s, policy, retry, faults, inflight,
                              variant_accuracy, redundancy, sdc);
  while (!engine.Done()) engine.Step();
  return engine.Finish();
}

ServingReport ServingSimulator::SimulateFaultedCheckpointed(
    const ResourceConfig& config, const VariantPerf& perf,
    std::vector<double> arrivals, double duration_s,
    const ServingPolicy& policy, const RetryPolicy& retry,
    const FaultSchedule& faults, const CheckpointPolicy& checkpoint,
    CheckpointStats* stats, InflightPolicy inflight,
    double variant_accuracy, const RedundancyPolicy& redundancy,
    const SdcPolicy& sdc) const {
  const std::vector<double> instants = CheckpointInstants(
      checkpoint, faults, duration_s, config.TotalInstances());
  FaultedServingEngine engine(*this, config, perf, std::move(arrivals),
                              duration_s, policy, retry, faults, inflight,
                              variant_accuracy, redundancy, sdc);
  CheckpointStats local;
  CheckpointStats& out = stats != nullptr ? *stats : local;
  const bool keep_history = out.keep_history;
  out = CheckpointStats{};
  out.keep_history = keep_history;

  std::size_t next_instant = 0;
  while (!engine.Done()) {
    engine.Step();
    // The watermark may jump several instants in one dispatch; every
    // crossed trigger fires (and is charged), all from the same state.
    while (next_instant < instants.size() &&
           engine.Watermark() >= instants[next_instant]) {
      out.latest = engine.Checkpoint();
      out.last_snapshot_s = instants[next_instant];
      ++out.snapshots;
      if (out.keep_history) {
        out.history.emplace_back(instants[next_instant], out.latest);
      }
      ++next_instant;
    }
  }
  // Snapshot time is charged to the cost model (Eq. 3-4 recovery term),
  // never to the simulated dynamics: the report stays bitwise identical
  // to SimulateFaulted. Cross-domain mirror copies bill on top.
  out.snapshot_overhead_s =
      out.snapshots * (checkpoint.snapshot_cost_s +
                       (checkpoint.mirror_copies - 1) *
                           checkpoint.mirror_cost_s);
  out.overhead_cost_usd = out.snapshot_overhead_s / 3600.0 *
                          PricePerHour(config, simulator_.Catalog()).value();
  return engine.Finish();
}

// --- faulted serving engine --------------------------------------------------

namespace {
constexpr std::uint32_t kServingSnapshotTag = 0x46535256u;  // 'FSRV'
}  // namespace

bool FaultedServingEngine::Later(const Pending& a, const Pending& b) {
  if (a.ready != b.ready) return a.ready > b.ready;
  if (a.arrival != b.arrival) return a.arrival > b.arrival;
  if (a.attempts != b.attempts) return a.attempts > b.attempts;
  return a.id > b.id;
}

FaultedServingEngine::FaultedServingEngine(
    const ServingSimulator& serving, const ResourceConfig& config,
    const VariantPerf& perf, std::vector<double> arrivals, double duration_s,
    const ServingPolicy& policy, const RetryPolicy& retry,
    const FaultSchedule& faults, InflightPolicy inflight,
    double variant_accuracy, const RedundancyPolicy& redundancy,
    const SdcPolicy& sdc)
    : sim_(&serving.Simulator()),
      config_(config),
      perf_(perf),
      arrivals_(std::move(arrivals)),
      duration_s_(duration_s),
      policy_(policy),
      retry_(retry),
      faults_(faults),
      inflight_(inflight),
      variant_accuracy_(variant_accuracy),
      redundancy_(redundancy),
      sdc_(sdc) {
  CCPERF_CHECK(!config_.Empty(), "empty configuration");
  CCPERF_CHECK(duration_s_ > 0.0, "duration must be positive");
  ValidateServingPolicy(policy_);
  ValidateRetryPolicy(retry_);
  ValidateRedundancyPolicy(redundancy_);
  sdc_.Validate();
  faults_.Validate();
  // Resolve the policy's detection profile once.
  switch (sdc_.kind) {
    case SdcPolicyKind::kOff:
    case SdcPolicyKind::kNone:
      break;  // no machinery, nothing detected
    case SdcPolicyKind::kAbft:
      sdc_machinery_ = kAbftTimeOverhead;
      sdc_coverage_ = kAbftCoverage;
      break;
    case SdcPolicyKind::kScrub:
      // The CRC scrub verifies resident weights between batches; a serving
      // window (transient upset) is over before the next sweep sees it, so
      // scrubbing pays its machinery yet everything in-window escapes.
      sdc_machinery_ = sdc_.scrub_cost_s / sdc_.scrub_interval_s;
      break;
    case SdcPolicyKind::kReexecSample:
      sdc_machinery_ = sdc_.sample_fraction;
      sdc_coverage_ = sdc_.sample_fraction;
      break;
  }
  CCPERF_CHECK(std::is_sorted(arrivals_.begin(), arrivals_.end()),
               "arrival trace must be time-sorted");
  CCPERF_CHECK(variant_accuracy_ > 0.0 && variant_accuracy_ <= 1.0,
               "variant accuracy must be in (0, 1]");

  // One server per GPU, one fault timeline per *instance* — when an
  // instance dies every GPU on it dies with it.
  int instance_index = 0;
  for (const auto& [type_name, count] : config_.instances) {
    const InstanceType& type = sim_->Catalog().Find(type_name);
    for (int c = 0; c < count; ++c) {
      timelines_.emplace_back(faults_, instance_index, duration_s_);
      for (int g = 0; g < type.gpus; ++g) {
        gpu_types_.push_back(&type);
        gpu_instance_.push_back(instance_index);
        gpus_.push_back(GpuState{});
      }
      ++instance_index;
    }
  }
  CCPERF_CHECK(!gpus_.empty(), "configuration has no GPUs");
  backlog_limit_ =
      static_cast<std::size_t>(policy_.max_batch) * 200 + 10000;

  report_.duration_s = duration_s_;
  report_.requests = static_cast<std::int64_t>(arrivals_.size());
  {
    // Failed instance-seconds are not billed (spot semantics): the
    // effective hourly rate scales with each instance's up fraction.
    int idx = 0;
    for (const auto& [type_name, count] : config_.instances) {
      const double price =
          sim_->Catalog().Find(type_name).price_per_hour.value();
      for (int c = 0; c < count; ++c) {
        const double up_fraction =
            1.0 - timelines_[static_cast<std::size_t>(idx)].DownSeconds() /
                      duration_s_;
        report_.cost_per_hour_usd += price * up_fraction;
        ++idx;
      }
    }
  }
  latencies_.reserve(arrivals_.size());
  copies_live_.assign(arrivals_.size(), 0);
  done_.assign(arrivals_.size(), 0);
  hedges_used_.assign(arrivals_.size(), 0);
}

bool FaultedServingEngine::Done() const {
  return halted_ || (next_arrival_ >= arrivals_.size() && requeued_.empty() &&
                     waiting_.empty());
}

double FaultedServingEngine::NextSourceReady() const {
  const double infinity = std::numeric_limits<double>::infinity();
  const double from_trace =
      next_arrival_ < arrivals_.size() ? arrivals_[next_arrival_] : infinity;
  const double from_retry =
      requeued_.empty() ? infinity : requeued_.front().ready;
  return std::min(from_trace, from_retry);
}

// Admit every source request ready by `t`, in merged ready order so
// `waiting_` stays sorted.
void FaultedServingEngine::AdmitUntil(double t) {
  const double infinity = std::numeric_limits<double>::infinity();
  for (;;) {
    const double from_trace =
        next_arrival_ < arrivals_.size() ? arrivals_[next_arrival_] : infinity;
    const double from_retry =
        requeued_.empty() ? infinity : requeued_.front().ready;
    if (std::min(from_trace, from_retry) > t) break;
    if (from_trace <= from_retry) {
      const auto id = static_cast<std::int64_t>(next_arrival_);
      // Admission fans the request out into `replicas` copies; batch
      // selection keeps sibling copies out of one batch, so they ride
      // different dispatches (and usually different instances).
      for (int r = 0; r < redundancy_.replicas; ++r) {
        waiting_.push_back({from_trace, from_trace, 0, id});
      }
      copies_live_[next_arrival_] = redundancy_.replicas;
      ++next_arrival_;
    } else {
      std::pop_heap(requeued_.begin(), requeued_.end(), Later);
      waiting_.push_back(requeued_.back());
      requeued_.pop_back();
    }
  }
}

void FaultedServingEngine::Step() {
  CCPERF_CHECK(!Done(), "Step() on a finished serving engine");
  const double infinity = std::numeric_limits<double>::infinity();
  const bool has_deadline = std::isfinite(policy_.deadline_s);

  if (waiting_.empty()) {
    AdmitUntil(NextSourceReady());
    return;
  }
  const double t_first = waiting_.front().ready;

  // The GPU that can start service earliest, honoring its instance's
  // down intervals.
  std::size_t best = gpus_.size();
  double best_at = infinity;
  for (std::size_t i = 0; i < gpus_.size(); ++i) {
    const double at =
        timelines_[static_cast<std::size_t>(gpu_instance_[i])].NextUpAt(
            std::max(gpus_[i].free_at, t_first));
    if (at < best_at) {
      best_at = at;
      best = i;
    }
  }
  if (best == gpus_.size()) {
    // The whole fleet is permanently gone: every *request* (not copy) still
    // open or yet to arrive is lost. Counting ids keeps the tally unique
    // under replication; with one copy per request it equals the queue
    // sizes.
    std::int64_t open = 0;
    for (std::size_t id = 0; id < next_arrival_; ++id) {
      if (done_[id] == 0 && copies_live_[id] > 0) ++open;
    }
    report_.dropped_failed +=
        open + static_cast<std::int64_t>(arrivals_.size() - next_arrival_);
    halted_ = true;
    return;
  }
  GpuState& gpu = gpus_[best];
  const InstanceType& type = *gpu_types_[best];
  const InstanceTimeline& timeline =
      timelines_[static_cast<std::size_t>(gpu_instance_[best])];
  const GpuSpec& spec = sim_->Catalog().Gpu(type.gpu);
  const auto batch_cap =
      std::min<std::int64_t>(policy_.max_batch, spec.max_batch);

  // Dispatch trigger: oldest wait deadline or the moment the batch would
  // fill, i.e. the `missing`-th upcoming source time of the trace merged
  // with pending retries. Only retries earlier than the trace's own
  // candidate can move it, so just those are sorted; retry j then joins
  // while it beats the trace arrival it would displace.
  const auto cap = static_cast<std::size_t>(batch_cap);
  double full_at = infinity;
  if (waiting_.size() >= cap) {
    full_at = waiting_[cap - 1].ready;
  } else {
    const std::size_t missing = cap - waiting_.size();
    const auto upcoming_arrival = [&](std::size_t k) {
      const std::size_t i = next_arrival_ + k;
      return i < arrivals_.size() ? arrivals_[i] : infinity;
    };
    const double trace_only = upcoming_arrival(missing - 1);
    std::vector<double> retry_readies;
    for (const Pending& p : requeued_) {
      if (p.ready < trace_only) retry_readies.push_back(p.ready);
    }
    std::sort(retry_readies.begin(), retry_readies.end());
    std::size_t j = 0;
    while (j < retry_readies.size() && j < missing &&
           retry_readies[j] < upcoming_arrival(missing - j - 1)) {
      ++j;
    }
    full_at = j > 0 ? retry_readies[j - 1] : -infinity;
    if (j < missing) {
      full_at = std::max(full_at, upcoming_arrival(missing - j - 1));
    }
  }
  const double wait_deadline = t_first + policy_.max_wait_s;
  double dispatch_at = std::max(best_at, std::min(wait_deadline, full_at));
  dispatch_at = timeline.NextUpAt(dispatch_at);
  if (!std::isfinite(dispatch_at)) {
    gpu.free_at = infinity;  // preempted: retire this server
    return;
  }
  // `dispatch_at` is not monotone across iterations (different GPUs make
  // independent progress) — the checkpoint watermark is its running max.
  watermark_ = std::max(watermark_, dispatch_at);
  AdmitUntil(dispatch_at);

  // Copies whose deadline expired before service starts are dropped; a
  // request counts as deadline-dropped only when its *last* live copy
  // expires (stale copies of already-served requests just get discarded).
  if (has_deadline) {
    for (auto it = waiting_.begin(); it != waiting_.end();) {
      if (it->arrival + policy_.deadline_s < dispatch_at) {
        const auto id = static_cast<std::size_t>(it->id);
        if (done_[id] != 0) {
          ++report_.discarded_copies;
        } else if (--copies_live_[id] == 0) {
          ++report_.dropped_deadline;
        } else {
          ++report_.discarded_copies;
        }
        it = waiting_.erase(it);
      } else {
        ++it;
      }
    }
    if (waiting_.empty()) return;
  }

  // Deadline-triggered hedging: a copy still waiting `hedge_after_s` past
  // its arrival spawns an extra copy, ready now. The hedge races its
  // sibling on a different dispatch; whichever completes first wins.
  if (redundancy_.max_hedges > 0 &&
      std::isfinite(redundancy_.hedge_after_s)) {
    const std::size_t queued = waiting_.size();
    for (std::size_t i = 0; i < queued; ++i) {
      const Pending p = waiting_[i];
      const auto id = static_cast<std::size_t>(p.id);
      if (done_[id] != 0) continue;
      if (p.arrival + redundancy_.hedge_after_s > dispatch_at) continue;
      if (hedges_used_[id] >= redundancy_.max_hedges) continue;
      ++hedges_used_[id];
      ++copies_live_[id];
      ++report_.hedges;
      waiting_.push_back({dispatch_at, p.arrival, 0, p.id});
    }
  }

  // Select the batch front-to-back, never taking two copies of one request
  // (siblings must ride different dispatches to buy failure independence);
  // skipped siblings keep their queue position. With single-copy requests
  // this degenerates to taking the first batch_cap entries; a request with
  // one live copy has no sibling to look for.
  std::vector<Pending>& batch = batch_;
  batch.clear();
  {
    std::vector<Pending> skipped;
    while (!waiting_.empty() && batch.size() < cap) {
      const Pending p = waiting_.front();
      waiting_.pop_front();
      bool sibling_in_batch = false;
      if (copies_live_[static_cast<std::size_t>(p.id)] > 1) {
        for (const Pending& b : batch) {
          if (b.id == p.id) {
            sibling_in_batch = true;
            break;
          }
        }
      }
      if (sibling_in_batch) {
        skipped.push_back(p);
      } else {
        batch.push_back(p);
      }
    }
    for (auto it = skipped.rbegin(); it != skipped.rend(); ++it) {
      waiting_.push_front(*it);
    }
  }
  if (batch.empty()) return;

  const auto batch_size = static_cast<std::int64_t>(batch.size());
  double service = sim_->BatchSeconds(type, perf_, batch_size).value() *
                   timeline.SlowdownAt(dispatch_at);
  bool escaped_batch = false;
  if (sdc_.kind != SdcPolicyKind::kOff) {
    // Always-on detection machinery stretches every batch; kOff skips this
    // whole block so detection-free runs stay bitwise identical.
    service *= 1.0 + sdc_machinery_;
    if (timeline.CorruptedAt(dispatch_at)) {
      ++report_.corrupted_batches;
      const auto n = static_cast<double>(++sdc_corrupt_seen_);
      const bool detected =
          std::floor(n * sdc_coverage_) > std::floor((n - 1.0) * sdc_coverage_);
      if (detected) {
        // The corrupted pass is discarded and the batch re-served — the GPU
        // pays for both, billing detection into utilization and cost.
        ++report_.sdc_detected;
        service *= 2.0;
      } else {
        ++report_.sdc_escaped;
        escaped_batch = true;
      }
    }
  }
  const double completion = dispatch_at + service;
  const double fail_at = timeline.NextDownAfter(dispatch_at);
  if (fail_at < completion) {
    // The instance dies mid-batch; the partial service is wasted and the
    // copies are requeued with backoff or lost, per policy. Across a
    // kPartition onset in-flight work is always lost: the isolated
    // instance cannot hand its batch back to the request plane.
    const bool partition_loss = timeline.PartitionedAt(fail_at);
    gpu.busy += fail_at - dispatch_at;
    gpu.free_at = fail_at;
    for (const Pending& p : batch) {
      const auto id = static_cast<std::size_t>(p.id);
      if (done_[id] != 0) {
        // A duplicate copy died with the batch; its request already
        // completed elsewhere, so nothing is lost and nothing retries.
        ++report_.discarded_copies;
        --copies_live_[id];
      } else if (inflight_ == InflightPolicy::kDrop || partition_loss ||
                 p.attempts + 1 > retry_.max_retries) {
        if (--copies_live_[id] == 0) ++report_.dropped_failed;
      } else {
        ++report_.retries;
        requeued_.push_back({fail_at + retry_.BackoffFor(p.attempts + 1),
                             p.arrival, p.attempts + 1, p.id});
        std::push_heap(requeued_.begin(), requeued_.end(), Later);
      }
    }
  } else {
    for (const Pending& p : batch) {
      const auto id = static_cast<std::size_t>(p.id);
      --copies_live_[id];
      if (done_[id] == 0) {
        done_[id] = 1;
        if (escaped_batch) ++report_.sdc_escaped_requests;
        latencies_.push_back(completion - p.arrival);
        if (completion <= p.arrival + policy_.deadline_s) {
          ++in_deadline_;
        } else {
          ++report_.deadline_misses;
        }
        ++report_.completed;
      } else {
        // First completion already won; this copy's service is duplicate
        // work, billed to utilization (and so to Eq. 3-4 cost) but not to
        // latency or goodput.
        ++report_.duplicate_completions;
        report_.duplicate_service_s +=
            service / static_cast<double>(batch_size);
      }
    }
    gpu.free_at = completion;
    gpu.busy += service;
  }
  report_.max_queue =
      std::max(report_.max_queue, static_cast<double>(waiting_.size()));
  if (waiting_.size() > backlog_limit_) {
    report_.stable = false;
    halted_ = true;
  }
}

ServingReport FaultedServingEngine::Finish() const {
  CCPERF_CHECK(Done(), "Finish() before the serving engine is done");
  ServingReport report = report_;
  if (arrivals_.empty()) return report;
  if (!latencies_.empty()) {
    report.mean_latency_s = MeanOf(latencies_);
    report.p50_latency_s = Quantile(latencies_, 0.50);
    report.p95_latency_s = Quantile(latencies_, 0.95);
    report.p99_latency_s = Quantile(latencies_, 0.99);
  }
  report.goodput_per_s = static_cast<double>(in_deadline_) / duration_s_;
  report.accuracy_weighted_goodput =
      report.goodput_per_s * variant_accuracy_;
  // Escaped corruption discounts its completions to kCorruptTop1Factor of
  // their accuracy; with no escapes this equals accuracy_weighted_goodput.
  const double escaped_share =
      report.completed > 0
          ? static_cast<double>(report.sdc_escaped_requests) /
                static_cast<double>(report.completed)
          : 0.0;
  report.delivered_accuracy_weighted_goodput =
      report.accuracy_weighted_goodput *
      (1.0 - escaped_share * (1.0 - kCorruptTop1Factor));
  report.deadline_miss_rate =
      1.0 - static_cast<double>(in_deadline_) /
                static_cast<double>(report.requests);
  double busy = 0.0;
  double available = 0.0;
  for (std::size_t i = 0; i < gpus_.size(); ++i) {
    busy += gpus_[i].busy;
    available +=
        duration_s_ -
        timelines_[static_cast<std::size_t>(gpu_instance_[i])].DownSeconds();
  }
  report.utilization = available > 0.0 ? busy / available : 0.0;
  return report;
}

std::uint32_t FaultedServingEngine::Fingerprint() const {
  // CRC over every input that shapes the trajectory: restoring a snapshot
  // into an engine built from different inputs must fail loudly.
  if (fingerprint_) return *fingerprint_;
  SnapshotSectionWriter w;
  w.PutF64Vector(arrivals_);
  for (const auto& [type_name, count] : config_.instances) {
    w.PutString(type_name);
    w.PutI64(count);
  }
  w.PutString(perf_.label);
  w.PutF64(perf_.ref_seconds_per_image.value());
  w.PutI64(perf_.kernel_count);
  w.PutF64(duration_s_);
  w.PutI64(policy_.max_batch);
  w.PutF64(policy_.max_wait_s);
  w.PutF64(policy_.deadline_s);
  w.PutI64(retry_.max_retries);
  w.PutF64(retry_.base_backoff_s);
  w.PutF64(retry_.backoff_multiplier);
  w.PutF64(retry_.max_backoff_s);
  w.PutU8(inflight_ == InflightPolicy::kDrop ? 1 : 0);
  w.PutF64(variant_accuracy_);
  w.PutI64(redundancy_.replicas);
  w.PutF64(redundancy_.hedge_after_s);
  w.PutI64(redundancy_.max_hedges);
  w.PutU8(static_cast<std::uint8_t>(sdc_.kind));
  w.PutF64(sdc_.scrub_interval_s);
  w.PutF64(sdc_.scrub_cost_s);
  w.PutF64(sdc_.sample_fraction);
  w.PutString(FaultScheduleCsv(faults_));
  fingerprint_ = Crc32(w.Bytes());
  return *fingerprint_;
}

std::string FaultedServingEngine::Checkpoint() const {
  SnapshotWriter writer(kServingSnapshotTag);

  SnapshotSectionWriter& meta = writer.AddSection("meta");
  meta.PutU32(Fingerprint());
  meta.PutF64(watermark_);
  meta.PutBool(halted_);
  meta.PutU64(next_arrival_);
  meta.PutI64(in_deadline_);
  meta.PutI64(sdc_corrupt_seen_);

  SnapshotSectionWriter& gpus = writer.AddSection("gpus");
  gpus.PutU64(gpus_.size());
  for (const GpuState& gpu : gpus_) {
    gpus.PutF64(gpu.free_at);
    gpus.PutF64(gpu.busy);
  }

  // `requeued_` is serialized in its exact std::push_heap order so the
  // restored vector replays subsequent heap operations identically.
  SnapshotSectionWriter& queue = writer.AddSection("queue");
  queue.PutU64(waiting_.size());
  for (const Pending& p : waiting_) {
    queue.PutF64(p.ready);
    queue.PutF64(p.arrival);
    queue.PutI64(p.attempts);
    queue.PutI64(p.id);
  }
  queue.PutU64(requeued_.size());
  for (const Pending& p : requeued_) {
    queue.PutF64(p.ready);
    queue.PutF64(p.arrival);
    queue.PutI64(p.attempts);
    queue.PutI64(p.id);
  }

  SnapshotSectionWriter& report = writer.AddSection("report");
  report.PutI64(report_.completed);
  report.PutI64(report_.dropped_deadline);
  report.PutI64(report_.dropped_failed);
  report.PutI64(report_.retries);
  report.PutI64(report_.deadline_misses);
  report.PutF64(report_.max_queue);
  report.PutBool(report_.stable);
  report.PutI64(report_.hedges);
  report.PutI64(report_.duplicate_completions);
  report.PutI64(report_.discarded_copies);
  report.PutF64(report_.duplicate_service_s);
  report.PutI64(report_.corrupted_batches);
  report.PutI64(report_.sdc_detected);
  report.PutI64(report_.sdc_escaped);
  report.PutI64(report_.sdc_escaped_requests);

  // Per-request redundancy bookkeeping. done_ packs to one byte per
  // request; the count vectors reuse the I64Vector framing.
  SnapshotSectionWriter& redundancy = writer.AddSection("redundancy");
  redundancy.PutU64(done_.size());
  for (const std::uint8_t d : done_) redundancy.PutU8(d);
  {
    std::vector<std::int64_t> wide(copies_live_.begin(), copies_live_.end());
    redundancy.PutI64Vector(wide);
    wide.assign(hedges_used_.begin(), hedges_used_.end());
    redundancy.PutI64Vector(wide);
  }

  writer.AddSection("latencies").PutF64Vector(latencies_);
  return writer.Serialize();
}

void FaultedServingEngine::Restore(const std::string& snapshot) {
  const SnapshotReader reader =
      SnapshotReader::Parse(snapshot, kServingSnapshotTag);

  SnapshotSectionReader meta = reader.Section("meta");
  const std::uint32_t fingerprint = meta.TakeU32();
  CCPERF_CHECK(fingerprint == Fingerprint(),
               "serving snapshot does not match this run's inputs "
               "(trace, config, policies, fault schedule)");
  const double watermark = meta.TakeF64();
  const bool halted = meta.TakeBool();
  const std::uint64_t next_arrival = meta.TakeU64();
  const std::int64_t in_deadline = meta.TakeI64();
  const std::int64_t corrupt_seen = meta.TakeI64();
  meta.ExpectEnd();
  CCPERF_CHECK(corrupt_seen >= 0,
               "corrupt serving snapshot: negative corruption counter");
  CCPERF_CHECK(std::isfinite(watermark) && watermark >= 0.0,
               "corrupt serving snapshot: bad watermark");
  CCPERF_CHECK(next_arrival <= arrivals_.size(),
               "corrupt serving snapshot: arrival cursor ", next_arrival,
               " past trace of ", arrivals_.size());
  CCPERF_CHECK(in_deadline >= 0 &&
                   in_deadline <= static_cast<std::int64_t>(arrivals_.size()),
               "corrupt serving snapshot: in-deadline count out of range");

  SnapshotSectionReader gpus = reader.Section("gpus");
  const std::uint64_t gpu_count = gpus.TakeU64();
  CCPERF_CHECK(gpu_count == gpus_.size(),
               "corrupt serving snapshot: ", gpu_count, " GPUs for a fleet of ",
               gpus_.size());
  std::vector<GpuState> new_gpus(gpus_.size());
  for (GpuState& gpu : new_gpus) {
    gpu.free_at = gpus.TakeF64();
    gpu.busy = gpus.TakeF64();
  }
  gpus.ExpectEnd();

  const std::size_t trace_size = arrivals_.size();
  const auto take_pending = [trace_size](SnapshotSectionReader& r) {
    Pending p;
    p.ready = r.TakeF64();
    p.arrival = r.TakeF64();
    const std::int64_t attempts = r.TakeI64();
    CCPERF_CHECK(attempts >= 0 && attempts <= (1 << 20),
                 "corrupt serving snapshot: implausible attempt count ",
                 attempts);
    p.attempts = static_cast<int>(attempts);
    p.id = r.TakeI64();
    CCPERF_CHECK(p.id >= 0 && static_cast<std::size_t>(p.id) < trace_size,
                 "corrupt serving snapshot: request id ", p.id,
                 " outside trace of ", trace_size);
    return p;
  };
  // A request can have at most replicas + max_hedges live copies.
  const std::uint64_t copy_limit =
      static_cast<std::uint64_t>(arrivals_.size()) *
      static_cast<std::uint64_t>(redundancy_.replicas +
                                 redundancy_.max_hedges);
  SnapshotSectionReader queue = reader.Section("queue");
  const std::uint64_t waiting_count = queue.TakeU64();
  CCPERF_CHECK(waiting_count <= copy_limit,
               "corrupt serving snapshot: implausible waiting count ",
               waiting_count);
  std::deque<Pending> new_waiting;
  for (std::uint64_t i = 0; i < waiting_count; ++i) {
    new_waiting.push_back(take_pending(queue));
  }
  const std::uint64_t requeued_count = queue.TakeU64();
  CCPERF_CHECK(requeued_count <= copy_limit,
               "corrupt serving snapshot: implausible requeued count ",
               requeued_count);
  std::vector<Pending> new_requeued;
  new_requeued.reserve(static_cast<std::size_t>(requeued_count));
  for (std::uint64_t i = 0; i < requeued_count; ++i) {
    new_requeued.push_back(take_pending(queue));
  }
  queue.ExpectEnd();

  SnapshotSectionReader report = reader.Section("report");
  ServingReport new_report = report_;
  new_report.completed = report.TakeI64();
  new_report.dropped_deadline = report.TakeI64();
  new_report.dropped_failed = report.TakeI64();
  new_report.retries = report.TakeI64();
  new_report.deadline_misses = report.TakeI64();
  new_report.max_queue = report.TakeF64();
  new_report.stable = report.TakeBool();
  new_report.hedges = report.TakeI64();
  new_report.duplicate_completions = report.TakeI64();
  new_report.discarded_copies = report.TakeI64();
  new_report.duplicate_service_s = report.TakeF64();
  new_report.corrupted_batches = report.TakeI64();
  new_report.sdc_detected = report.TakeI64();
  new_report.sdc_escaped = report.TakeI64();
  new_report.sdc_escaped_requests = report.TakeI64();
  report.ExpectEnd();
  CCPERF_CHECK(new_report.completed >= 0 && new_report.dropped_deadline >= 0 &&
                   new_report.dropped_failed >= 0 && new_report.retries >= 0 &&
                   new_report.deadline_misses >= 0 && new_report.hedges >= 0 &&
                   new_report.duplicate_completions >= 0 &&
                   new_report.discarded_copies >= 0 &&
                   new_report.corrupted_batches >= 0 &&
                   new_report.sdc_detected >= 0 &&
                   new_report.sdc_escaped >= 0 &&
                   new_report.sdc_escaped_requests >= 0,
               "corrupt serving snapshot: negative report counter");
  CCPERF_CHECK(new_report.duplicate_service_s >= 0.0 &&
                   std::isfinite(new_report.duplicate_service_s),
               "corrupt serving snapshot: bad duplicate service time");

  SnapshotSectionReader redundancy = reader.Section("redundancy");
  const std::uint64_t request_count = redundancy.TakeU64();
  CCPERF_CHECK(request_count == arrivals_.size(),
               "corrupt serving snapshot: redundancy state for ",
               request_count, " requests, trace has ", arrivals_.size());
  std::vector<std::uint8_t> new_done(arrivals_.size());
  for (std::uint8_t& d : new_done) {
    d = redundancy.TakeU8();
    CCPERF_CHECK(d <= 1, "corrupt serving snapshot: done flag ",
                 static_cast<int>(d));
  }
  const std::vector<std::int64_t> wide_live = redundancy.TakeI64Vector();
  const std::vector<std::int64_t> wide_hedges = redundancy.TakeI64Vector();
  redundancy.ExpectEnd();
  CCPERF_CHECK(wide_live.size() == arrivals_.size() &&
                   wide_hedges.size() == arrivals_.size(),
               "corrupt serving snapshot: redundancy vector sizes ",
               wide_live.size(), "/", wide_hedges.size(), " for trace of ",
               arrivals_.size());
  const std::int64_t per_request_limit =
      static_cast<std::int64_t>(redundancy_.replicas) + redundancy_.max_hedges;
  std::vector<std::int32_t> new_live(arrivals_.size());
  std::vector<std::int32_t> new_hedges(arrivals_.size());
  for (std::size_t i = 0; i < arrivals_.size(); ++i) {
    CCPERF_CHECK(wide_live[i] >= 0 && wide_live[i] <= per_request_limit,
                 "corrupt serving snapshot: live copy count ", wide_live[i],
                 " outside [0, ", per_request_limit, "]");
    CCPERF_CHECK(wide_hedges[i] >= 0 &&
                     wide_hedges[i] <= redundancy_.max_hedges,
                 "corrupt serving snapshot: hedge count ", wide_hedges[i],
                 " exceeds policy limit ", redundancy_.max_hedges);
    new_live[i] = static_cast<std::int32_t>(wide_live[i]);
    new_hedges[i] = static_cast<std::int32_t>(wide_hedges[i]);
  }

  SnapshotSectionReader lat = reader.Section("latencies");
  std::vector<double> new_latencies = lat.TakeF64Vector();
  lat.ExpectEnd();
  CCPERF_CHECK(new_latencies.size() ==
                   static_cast<std::size_t>(new_report.completed),
               "corrupt serving snapshot: ", new_latencies.size(),
               " latency samples for ", new_report.completed, " completions");

  // All sections decoded and validated — commit atomically.
  gpus_ = std::move(new_gpus);
  waiting_ = std::move(new_waiting);
  requeued_ = std::move(new_requeued);
  next_arrival_ = static_cast<std::size_t>(next_arrival);
  latencies_ = std::move(new_latencies);
  copies_live_ = std::move(new_live);
  done_ = std::move(new_done);
  hedges_used_ = std::move(new_hedges);
  in_deadline_ = in_deadline;
  sdc_corrupt_seen_ = corrupt_seen;
  watermark_ = watermark;
  halted_ = halted;
  report_ = new_report;
}

std::vector<double> GenerateDiurnalArrivals(double mean_rate_per_s,
                                            double amplitude_per_s,
                                            double period_s,
                                            double duration_s, Rng& rng) {
  CCPERF_CHECK(mean_rate_per_s > 0.0, "mean rate must be positive");
  CCPERF_CHECK(amplitude_per_s >= 0.0 && amplitude_per_s <= mean_rate_per_s,
               "amplitude must be in [0, mean]");
  CCPERF_CHECK(period_s > 0.0 && duration_s > 0.0,
               "period and duration must be positive");
  // Thinning (Lewis-Shedler): propose at the peak rate, accept with
  // probability rate(t) / peak.
  const double peak = mean_rate_per_s + amplitude_per_s;
  std::vector<double> arrivals;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / peak;
    if (t > duration_s) break;
    const double rate =
        mean_rate_per_s +
        amplitude_per_s * std::sin(2.0 * std::numbers::pi * t / period_s -
                                   std::numbers::pi / 2.0);
    if (rng.NextDouble() * peak < rate) arrivals.push_back(t);
  }
  return arrivals;
}

}  // namespace ccperf::cloud
