#include "core/enumerate.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "cloud/density.h"
#include "cloud/pricing.h"
#include "common/check.h"
#include "common/threading.h"
#include "core/metrics.h"
#include "core/pareto_sweep.h"

namespace ccperf::core {

std::vector<VariantSpec> BuildVariantSpecs(
    const cloud::ModelProfile& profile, const CalibratedAccuracyModel& accuracy,
    const std::vector<pruning::PrunePlan>& plans, bool include_int8) {
  CCPERF_CHECK(!plans.empty(), "no prune plans to expand");
  std::vector<VariantSpec> specs;
  specs.reserve(plans.size() * (include_int8 ? 2 : 1));
  for (const auto& plan : plans) {
    const std::string label = plan.Label();
    const cloud::DensityMap densities = cloud::DensityFromPlan(profile, plan);
    {
      VariantSpec spec;
      spec.label = label;
      spec.perf = cloud::ComputeVariantPerf(profile, densities, label);
      const AccuracyResult acc = accuracy.Evaluate(plan);
      spec.top1 = acc.top1;
      spec.top5 = acc.top5;
      specs.push_back(std::move(spec));
    }
    if (include_int8) {
      VariantSpec spec;
      spec.label = label + "+int8";
      spec.perf = cloud::ComputeVariantPerf(profile, densities, spec.label,
                                            /*int8_enabled=*/true);
      const AccuracyResult acc = accuracy.EvaluateQuantized(plan);
      spec.top1 = acc.top1;
      spec.top5 = acc.top5;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

const char* PurchaseOptionName(PurchaseOption option) {
  return option == PurchaseOption::kOnDemand ? "on-demand" : "spot";
}

// --- MetricRegistry ----------------------------------------------------------

void MetricRegistry::Register(std::string name, std::string description,
                              double (*extract)(const ArchMetrics&),
                              bool lower_is_better) {
  CCPERF_CHECK(!name.empty(), "metric name must be non-empty");
  CCPERF_CHECK(extract != nullptr, "metric '", name, "' has no extractor");
  CCPERF_CHECK(!Contains(name), "metric '", name, "' registered twice");
  Metric metric;
  metric.name = std::move(name);
  metric.description = std::move(description);
  metric.extract = extract;
  metric.lower_is_better = lower_is_better;
  metrics_.push_back(std::move(metric));
}

bool MetricRegistry::Contains(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

const Metric& MetricRegistry::Find(const std::string& name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return m;
  }
  std::string known;
  for (const auto& m : metrics_) {
    if (!known.empty()) known += ", ";
    known += m.name;
  }
  CCPERF_CHECK(false, "unknown metric '", name, "' (registered: ", known, ")");
  // CCPERF_CHECK throws; unreachable.
  return metrics_.front();
}

const MetricRegistry& MetricRegistry::Standard() {
  static const MetricRegistry* const kRegistry = [] {
    auto* r = new MetricRegistry;
    r->Register(
        "time_h", "expected completion time (hours)",
        [](const ArchMetrics& m) { return ToHours(m.seconds).value(); }, true);
    r->Register(
        "cost_usd", "expected run cost (USD)",
        [](const ArchMetrics& m) { return m.cost_usd.value(); }, true);
    r->Register(
        "top1", "effective Top-1 accuracy",
        [](const ArchMetrics& m) { return m.top1; }, false);
    r->Register(
        "top5", "effective Top-5 accuracy",
        [](const ArchMetrics& m) { return m.top5; }, false);
    r->Register(
        "goodput", "base seconds / expected seconds",
        [](const ArchMetrics& m) { return m.goodput; }, false);
    r->Register(
        "interruption_risk", "P(at least one preemption during the run)",
        [](const ArchMetrics& m) { return m.interruption_risk; }, true);
    r->Register(
        "tar", "Time Accuracy Ratio (s per unit Top-5)",
        [](const ArchMetrics& m) {
          return TimeAccuracyRatio(m.seconds, m.top5);
        },
        true);
    r->Register(
        "car", "Cost Accuracy Ratio (USD per unit Top-5)",
        [](const ArchMetrics& m) {
          return CostAccuracyRatio(m.cost_usd, m.top5);
        },
        true);
    r->Register(
        "delivered_top1", "Top-1 after undetected silent corruption",
        [](const ArchMetrics& m) { return m.delivered_top1; }, false);
    r->Register(
        "sdc_escape_rate", "fraction of work delivered corrupted",
        [](const ArchMetrics& m) { return m.sdc_escape_rate; }, true);
    r->Register(
        "detection_overhead", "fractional time billed to SDC detection",
        [](const ArchMetrics& m) { return m.detection_overhead; }, true);
    return r;
  }();
  return *kRegistry;
}

// --- ArchitectureSpace -------------------------------------------------------

void ArchitectureSpace::AddVariant(VariantSpec variant) {
  variants_.push_back(std::move(variant));
}

void ArchitectureSpace::AddVariants(std::vector<VariantSpec> variants) {
  for (auto& v : variants) variants_.push_back(std::move(v));
}

void ArchitectureSpace::AddInstanceType(std::string name) {
  type_names_.push_back(std::move(name));
}

void ArchitectureSpace::SetCounts(std::vector<int> counts) {
  counts_ = std::move(counts);
}

void ArchitectureSpace::SetBatches(std::vector<std::int64_t> batches) {
  batches_ = std::move(batches);
}

void ArchitectureSpace::SetPurchaseOptions(
    std::vector<PurchaseOption> options) {
  purchase_ = std::move(options);
}

void ArchitectureSpace::AddCheckpointOption(CheckpointOption option) {
  checkpoints_.push_back(std::move(option));
}

void ArchitectureSpace::AddDegradationOption(DegradationOption option) {
  degradations_.push_back(std::move(option));
}

void ArchitectureSpace::AddSdcOption(SdcOption option) {
  sdc_.push_back(std::move(option));
}

const std::vector<SdcOption>& ArchitectureSpace::SdcOptions() const {
  if (!sdc_.empty()) return sdc_;
  // Implicit single-entry axis: SDC not modeled. A radix of 1 leaves every
  // flat id exactly as it was before this axis existed.
  static const std::vector<SdcOption>* const kOff = [] {
    auto* v = new std::vector<SdcOption>(1);
    (*v)[0].name = "off";
    return v;
  }();
  return *kOff;
}

void ArchitectureSpace::Validate() const {
  CCPERF_CHECK(!variants_.empty(), "variant axis is empty");
  CCPERF_CHECK(!type_names_.empty(), "instance-type axis is empty");
  CCPERF_CHECK(!counts_.empty(), "count axis is empty");
  CCPERF_CHECK(!batches_.empty(), "batch axis is empty");
  CCPERF_CHECK(!purchase_.empty(), "purchase axis is empty");
  CCPERF_CHECK(!checkpoints_.empty(), "checkpoint axis is empty");
  CCPERF_CHECK(!degradations_.empty(), "degradation axis is empty");
  for (const auto& v : variants_) {
    CCPERF_CHECK(v.perf.ref_seconds_per_image > Seconds(0.0), "variant '",
                 v.label, "' has non-positive reference time");
    CCPERF_CHECK(v.top1 > 0.0 && v.top1 <= 1.0 && v.top5 > 0.0 &&
                     v.top5 <= 1.0,
                 "variant '", v.label, "' accuracy outside (0, 1]");
  }
  for (int c : counts_) CCPERF_CHECK(c >= 1, "instance count must be >= 1");
  for (std::int64_t b : batches_)
    CCPERF_CHECK(b >= 0, "batch must be >= 0 (0 = auto)");
  for (const auto& ckpt : checkpoints_) {
    CCPERF_CHECK(!ckpt.name.empty(), "checkpoint option needs a name");
    if (ckpt.enabled) cloud::ValidateCheckpointPolicy(ckpt.policy);
  }
  for (const auto& degr : degradations_) {
    CCPERF_CHECK(!degr.name.empty(), "degradation option needs a name");
    CCPERF_CHECK(degr.recompute_speedup >= 1.0,
                 "degradation '", degr.name, "' recompute speedup < 1");
    CCPERF_CHECK(degr.accuracy_factor > 0.0 && degr.accuracy_factor <= 1.0,
                 "degradation '", degr.name,
                 "' accuracy factor outside (0, 1]");
  }
  for (const auto& sdc : sdc_) {
    CCPERF_CHECK(!sdc.name.empty(), "SDC option needs a name");
    sdc.policy.Validate();
  }
}

std::uint64_t ArchitectureSpace::Size() const {
  Validate();
  std::uint64_t size = 1;
  const std::size_t axes[] = {variants_.size(),  type_names_.size(),
                              counts_.size(),    batches_.size(),
                              purchase_.size(),  checkpoints_.size(),
                              degradations_.size(), SdcOptions().size()};
  for (std::size_t axis : axes) {
    const auto n = static_cast<std::uint64_t>(axis);
    CCPERF_CHECK(size <= UINT64_MAX / n, "architecture space overflows 64 bits");
    size *= n;
  }
  return size;
}

std::uint64_t ArchitectureSpace::Encode(const AxisPoint& point) const {
  CCPERF_CHECK(point.variant < variants_.size() &&
                   point.type < type_names_.size() &&
                   point.count < counts_.size() &&
                   point.batch < batches_.size() &&
                   point.purchase < purchase_.size() &&
                   point.checkpoint < checkpoints_.size() &&
                   point.degradation < degradations_.size() &&
                   point.sdc < SdcOptions().size(),
               "axis index out of range");
  std::uint64_t id = point.variant;
  id = id * type_names_.size() + point.type;
  id = id * counts_.size() + point.count;
  id = id * batches_.size() + point.batch;
  id = id * purchase_.size() + point.purchase;
  id = id * checkpoints_.size() + point.checkpoint;
  id = id * degradations_.size() + point.degradation;
  id = id * SdcOptions().size() + point.sdc;
  return id;
}

AxisPoint ArchitectureSpace::Decode(std::uint64_t id) const {
  CCPERF_CHECK(id < Size(), "flat id ", id, " out of range");
  AxisPoint point;
  point.sdc = static_cast<std::size_t>(id % SdcOptions().size());
  id /= SdcOptions().size();
  point.degradation = static_cast<std::size_t>(id % degradations_.size());
  id /= degradations_.size();
  point.checkpoint = static_cast<std::size_t>(id % checkpoints_.size());
  id /= checkpoints_.size();
  point.purchase = static_cast<std::size_t>(id % purchase_.size());
  id /= purchase_.size();
  point.batch = static_cast<std::size_t>(id % batches_.size());
  id /= batches_.size();
  point.count = static_cast<std::size_t>(id % counts_.size());
  id /= counts_.size();
  point.type = static_cast<std::size_t>(id % type_names_.size());
  id /= type_names_.size();
  point.variant = static_cast<std::size_t>(id);
  return point;
}

std::string ArchitectureSpace::Describe(std::uint64_t id) const {
  const AxisPoint p = Decode(id);
  std::ostringstream out;
  out << variants_[p.variant].label << " | " << counts_[p.count] << "x"
      << type_names_[p.type] << " | batch=";
  if (batches_[p.batch] == 0) {
    out << "auto";
  } else {
    out << batches_[p.batch];
  }
  out << " | " << PurchaseOptionName(purchase_[p.purchase])
      << " | ckpt=" << checkpoints_[p.checkpoint].name
      << " | degr=" << degradations_[p.degradation].name;
  // Only an explicit SDC axis shows up, so pre-axis descriptions round-trip.
  if (!sdc_.empty()) out << " | sdc=" << sdc_[p.sdc].name;
  return out.str();
}

// --- ArchitectureEvaluator ---------------------------------------------------

ArchitectureEvaluator::ArchitectureEvaluator(const cloud::CloudSimulator& sim,
                                             const ArchitectureSpace& space,
                                             RatePerHour preemption_rate,
                                             Seconds restart)
    : sim_(sim),
      space_(space),
      preemption_rate_per_hour_(preemption_rate.value()),
      restart_s_(restart.value()) {
  space_.Validate();
  CCPERF_CHECK(preemption_rate_per_hour_ >= 0.0,
               "preemption rate must be >= 0");
  CCPERF_CHECK(restart_s_ >= 0.0, "restart time must be >= 0");
  types_.reserve(space_.TypeNames().size());
  for (const auto& name : space_.TypeNames()) {
    types_.push_back(&sim_.Catalog().Find(name));
  }
}

// The evaluator's arithmetic in four stages, shared by Evaluate (one id) and
// EvaluatePrefix (one prefix run): prefix terms, the purchase option (with
// the spot checkpoint terms), the degradation policy, then the SDC policy.
namespace {

/// Terms every id of one (variant, type, count, batch) prefix shares.
struct PrefixTerms {
  const VariantSpec* variant = nullptr;
  const cloud::InstanceType* type = nullptr;
  int count = 0;
  Seconds base_time;
  double fleet_rate = 0.0;  // spot preemptions per fleet-hour
};

/// Spot terms of one checkpoint option, before degradation.
struct SpotTerms {
  double productive_s = 0.0;   // base + snapshot overhead
  double replay_s = 0.0;       // lost work replayed after preemptions
  double reprovision_s = 0.0;  // restart delay, not replayable work
};

PrefixTerms PricePrefix(const cloud::CloudSimulator& sim,
                        const VariantSpec& variant,
                        const cloud::InstanceType& type, int count,
                        std::int64_t batch, std::int64_t images,
                        double rate_per_hour) {
  // Eqs. 2/4 for a homogeneous fleet: equal split with the remainder going
  // to the first instances, T = the largest share's time (matches
  // CloudSimulator::Run for a single-type config, proven in tests).
  const auto fleet = static_cast<std::int64_t>(count);
  const std::int64_t base_share = images / fleet;
  const std::int64_t max_share = base_share + (images % fleet > 0 ? 1 : 0);
  return {&variant, &type, count,
          sim.InstanceSeconds(type, variant.perf, max_share, batch),
          rate_per_hour * count};
}

bool HasSpotMarket(const cloud::InstanceType& type) {
  return type.spot_price_per_hour > UsdPerHour(0.0);
}

ArchMetrics OnDemandRow(const PrefixTerms& prefix) {
  return {.seconds = prefix.base_time,
          .cost_usd = cloud::ProratedCost(
              prefix.base_time, prefix.type->price_per_hour * prefix.count),
          .top1 = prefix.variant->top1,
          .top5 = prefix.variant->top5,
          .goodput = 1.0,
          .interruption_risk = 0.0};
}

// Spot: preemptions arrive Poisson at `rate` per instance-hour.
SpotTerms PriceCheckpoint(const PrefixTerms& prefix,
                          const CheckpointOption& ckpt, double rate_per_hour,
                          double restart_s) {
  const double base_seconds = prefix.base_time.value();
  SpotTerms spot;
  spot.productive_s = base_seconds;
  if (!ckpt.enabled) {
    // No snapshots: every preemption restarts the run from zero — the
    // classic (e^{λt}-1)/λ expectation (core/metrics.h).
    const double expected =
        ExpectedSecondsUnderInterruption(prefix.base_time,
                                         RatePerHour(prefix.fleet_rate))
            .value();
    spot.replay_s = expected - base_seconds;
    return spot;
  }
  // Mirrors EstimateSpotRun (cloud/checkpoint.cpp): adaptive resolves to
  // Young's interval for the per-instance MTBF; overhead is one snapshot
  // cost per interval; each preemption loses half an interval (nothing,
  // on the warning trigger) plus the reprovisioning delay.
  double interval = ckpt.policy.interval_s;
  if (ckpt.policy.trigger == cloud::CheckpointTrigger::kAdaptive &&
      rate_per_hour > 0.0 && ckpt.policy.snapshot_cost_s > 0.0) {
    interval = cloud::YoungInterval(ckpt.policy.snapshot_cost_s,
                                    3600.0 / rate_per_hour);
  }
  interval = std::clamp(interval, std::max(ckpt.policy.snapshot_cost_s, 1e-3),
                        std::max(base_seconds, 1e-3));
  spot.productive_s += std::floor(base_seconds / interval) *
                       ckpt.policy.snapshot_cost_s;
  const double expected_preemptions =
      prefix.fleet_rate * (spot.productive_s / 3600.0);
  const double window =
      ckpt.policy.trigger == cloud::CheckpointTrigger::kOnPreemptionWarning
          ? 0.0
          : interval / 2.0;
  spot.replay_s = expected_preemptions * window;
  spot.reprovision_s = expected_preemptions * restart_s;
  return spot;
}

ArchMetrics SpotRow(const PrefixTerms& prefix, const SpotTerms& spot,
                    const DegradationOption& degr) {
  // The degradation policy replays lost windows faster at lower accuracy;
  // only the replayed fraction of the run is degraded.
  const double replay_s = spot.replay_s / degr.recompute_speedup;
  const double expected_s = spot.productive_s + replay_s + spot.reprovision_s;
  const double degraded_fraction =
      expected_s > 0.0 ? replay_s / expected_s : 0.0;
  const double accuracy_scale =
      1.0 - degraded_fraction * (1.0 - degr.accuracy_factor);

  return {.seconds = Seconds(expected_s),
          .cost_usd = cloud::ProratedCost(
              Seconds(expected_s),
              prefix.type->spot_price_per_hour * prefix.count),
          .top1 = prefix.variant->top1 * accuracy_scale,
          .top5 = prefix.variant->top5 * accuracy_scale,
          .goodput =
              expected_s > 0.0 ? prefix.base_time.value() / expected_s : 1.0,
          .interruption_risk =
              1.0 - std::exp(-prefix.fleet_rate * expected_s / 3600.0)};
}

/// Applies the row's SDC policy (overhead into seconds/cost, escapes into
/// delivered accuracy) to a priced row.
ArchMetrics WithSdc(ArchMetrics m, const SdcOption& sdc,
                    const PrefixTerms& prefix, PurchaseOption purchase) {
  if (sdc.policy.kind == cloud::SdcPolicyKind::kOff) {
    // SDC not modeled: delivered == effective, nothing else touched, so the
    // row is bitwise identical to the pre-SDC evaluator.
    m.delivered_top1 = m.top1;
    m.delivered_top5 = m.top5;
    return m;
  }
  const cloud::InstanceType& type = *prefix.type;
  const cloud::SdcAssessment assess =
      cloud::AssessSdc(sdc.policy, type.sdc_rate_per_hour, m.seconds);
  // Detection machinery and redone work stretch the run, which re-bills
  // through the purchase option's hourly rate (the paper's Eq. 3-4 cost).
  m.seconds *= 1.0 + assess.time_overhead;
  const UsdPerHour hourly = (purchase == PurchaseOption::kOnDemand
                                 ? type.price_per_hour
                                 : type.spot_price_per_hour) *
                            prefix.count;
  m.cost_usd = cloud::ProratedCost(m.seconds, hourly);
  m.goodput = m.seconds > Seconds(0.0) ? prefix.base_time / m.seconds : 1.0;
  m.delivered_top1 = cloud::DeliveredAccuracy(m.top1, assess.escape_fraction,
                                              cloud::kCorruptTop1Factor);
  m.delivered_top5 = cloud::DeliveredAccuracy(m.top5, assess.escape_fraction,
                                              cloud::kCorruptTop5Factor);
  m.sdc_escape_rate = assess.escape_fraction;
  m.detection_overhead = assess.time_overhead;
  return m;
}

}  // namespace

bool ArchitectureEvaluator::Evaluate(std::uint64_t id, std::int64_t images,
                                     ArchMetrics& out) const {
  CCPERF_CHECK(images >= 1, "need at least one image");
  const AxisPoint p = space_.Decode(id);
  const cloud::InstanceType& type = *types_[p.type];
  const PurchaseOption purchase = space_.PurchaseOptions()[p.purchase];
  if (purchase == PurchaseOption::kSpot && !HasSpotMarket(type)) {
    return false;  // no spot market for this type
  }
  const PrefixTerms prefix = PricePrefix(
      sim_, space_.Variants()[p.variant], type, space_.Counts()[p.count],
      space_.Batches()[p.batch], images, preemption_rate_per_hour_);
  const ArchMetrics m =
      purchase == PurchaseOption::kOnDemand
          ? OnDemandRow(prefix)
          : SpotRow(prefix,
                    PriceCheckpoint(prefix,
                                    space_.CheckpointOptions()[p.checkpoint],
                                    preemption_rate_per_hour_, restart_s_),
                    space_.DegradationOptions()[p.degradation]);
  out = WithSdc(m, space_.SdcOptions()[p.sdc], prefix, purchase);
  return true;
}

std::size_t ArchitectureEvaluator::PrefixRun() const {
  return space_.PurchaseOptions().size() * space_.CheckpointOptions().size() *
         space_.DegradationOptions().size() * space_.SdcOptions().size();
}

void ArchitectureEvaluator::EvaluatePrefix(std::uint64_t prefix,
                                           std::int64_t images,
                                           std::span<ArchMetrics> rows,
                                           std::span<char> exists) const {
  const auto& batches = space_.Batches();
  const auto& counts = space_.Counts();
  const std::size_t batch = prefix % batches.size();
  prefix /= batches.size();
  const std::size_t count = prefix % counts.size();
  prefix /= counts.size();
  const std::size_t type_index = prefix % types_.size();
  const std::size_t variant = prefix / types_.size();
  const cloud::InstanceType& type = *types_[type_index];
  const PrefixTerms terms = PricePrefix(
      sim_, space_.Variants()[variant], type, counts[count], batches[batch],
      images, preemption_rate_per_hour_);

  const auto& sdcs = space_.SdcOptions();
  const std::size_t per_purchase = rows.size() / space_.PurchaseOptions().size();
  std::size_t k = 0;
  for (const PurchaseOption purchase : space_.PurchaseOptions()) {
    const bool priced =
        purchase == PurchaseOption::kOnDemand || HasSpotMarket(type);
    std::fill_n(exists.begin() + static_cast<std::ptrdiff_t>(k), per_purchase,
                static_cast<char>(priced));
    if (!priced) {
      k += per_purchase;
      continue;
    }
    if (purchase == PurchaseOption::kOnDemand) {
      // Checkpoint and degradation are ignored on demand: price each SDC
      // entry once and repeat the run across the other two axes.
      const ArchMetrics m = OnDemandRow(terms);
      for (std::size_t s = 0; s < sdcs.size(); ++s) {
        rows[k + s] = WithSdc(m, sdcs[s], terms, purchase);
      }
      for (std::size_t j = sdcs.size(); j < per_purchase; ++j) {
        rows[k + j] = rows[k + j % sdcs.size()];
      }
      k += per_purchase;
      continue;
    }
    for (const CheckpointOption& ckpt : space_.CheckpointOptions()) {
      const SpotTerms spot = PriceCheckpoint(
          terms, ckpt, preemption_rate_per_hour_, restart_s_);
      for (const DegradationOption& degr : space_.DegradationOptions()) {
        const ArchMetrics m = SpotRow(terms, spot, degr);
        for (const SdcOption& sdc : sdcs) {
          rows[k++] = WithSdc(m, sdc, terms, purchase);
        }
      }
    }
  }
}

// --- EnumerateFrontier -------------------------------------------------------

void StreamBlocks(const ArchitectureEvaluator& evaluator,
                  const EnumerationOptions& options,
                  const std::function<void(const EvaluatedBlock&)>& consume) {
  CCPERF_CHECK(options.block >= 1, "block must be >= 1");
  CCPERF_CHECK(options.images >= 1, "need at least one image");
  const std::uint64_t total = evaluator.Space().Size();  // validates once
  const std::size_t run = evaluator.PrefixRun();
  std::optional<ScopedSerial> serial;
  if (options.serial) serial.emplace();

  // Slots cover whole prefix runs: a block that starts or ends inside a run
  // prices that run whole and hands on only its own ids.
  const auto max_ids =
      static_cast<std::size_t>(std::min<std::uint64_t>(options.block, total));
  std::vector<ArchMetrics> slot(((max_ids - 1) / run + 2) * run);
  std::vector<char> feasible(slot.size());
  const std::size_t grain = std::max<std::size_t>(1, 64 / run);

  for (std::uint64_t begin = 0; begin < total; begin += options.block) {
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(options.block, total - begin));
    const std::uint64_t first = begin / run;
    const auto prefixes =
        static_cast<std::size_t>((begin + n - 1) / run - first + 1);
    const auto price = [&](std::size_t lo, std::size_t hi) {
      for (std::size_t p = lo; p < hi; ++p) {
        const std::span<ArchMetrics> rows(slot.data() + p * run, run);
        const std::span<char> ok(feasible.data() + p * run, run);
        evaluator.EvaluatePrefix(first + p, options.images, rows, ok);
        for (std::size_t k = 0; k < run; ++k) {
          ok[k] = static_cast<char>(ok[k] &&
                                    rows[k].seconds <= options.deadline_s &&
                                    rows[k].cost_usd <= options.budget_usd);
        }
      }
    };
    ParallelForChunks(0, prefixes, price, grain);
    const auto offset = static_cast<std::size_t>(begin - first * run);
    consume(EvaluatedBlock{begin, {slot.data() + offset, n},
                           {feasible.data() + offset, n}});
  }
}

namespace {

// Ids per compaction tile. A constant, so which rows survive their tile —
// and with it peak_candidates — does not depend on the pool size.
constexpr std::uint64_t kTileIds = 4096;

double AccuracyObjective(const ArchMetrics& m,
                         const EnumerationOptions& options) {
  return options.use_delivered
             ? (options.use_top5 ? m.delivered_top5 : m.delivered_top1)
             : (options.use_top5 ? m.top5 : m.top1);
}

/// Compact the candidate rows (frontier prefix ∪ tile survivors, ascending
/// flat id) down to their 3-D frontier in place.
void CompactCandidates(std::vector<FrontierPoint>& rows,
                       const EnumerationOptions& options) {
  const std::size_t n = rows.size();
  std::vector<double> time(n);
  std::vector<double> cost(n);
  std::vector<double> accuracy(n);
  for (std::size_t i = 0; i < n; ++i) {
    time[i] = rows[i].metrics.seconds.value();
    cost[i] = rows[i].metrics.cost_usd.value();
    accuracy[i] = AccuracyObjective(rows[i].metrics, options);
  }
  const std::vector<std::size_t> keep =
      SweepParetoFrontier3(time, cost, accuracy);
  for (std::size_t k = 0; k < keep.size(); ++k) rows[k] = rows[keep[k]];
  rows.resize(keep.size());
}

}  // namespace

EnumerationResult EnumerateFrontier(const ArchitectureEvaluator& evaluator,
                                    const EnumerationOptions& options) {
  EnumerationResult result;
  // Running frontier, then the current block's tile survivors; ascending id.
  std::vector<FrontierPoint> candidates;
  // Tile scratch, reused across blocks and never allocated on the pool: a
  // tile packs its feasible rows at its own offset into the block.
  std::vector<double> time;
  std::vector<double> cost;
  std::vector<double> accuracy;
  std::vector<std::size_t> packed_row;  // block index of each packed row
  std::vector<char> survives;           // per block index

  StreamBlocks(evaluator, options, [&](const EvaluatedBlock& block) {
    const std::size_t n = block.rows.size();
    if (survives.size() < n) {
      time.resize(n);
      cost.resize(n);
      accuracy.resize(n);
      packed_row.resize(n);
      survives.resize(n);
    }
    const std::uint64_t end = block.begin + n;
    const std::uint64_t first_tile = block.begin / kTileIds;
    const auto tiles =
        static_cast<std::size_t>((end - 1) / kTileIds - first_tile + 1);
    // Exact: a row a tile drops is dominated by, or an equal later-id
    // duplicate of, a row in that tile, and both relations are transitive,
    // so the whole-space filter would drop it too.
    const auto filter_tile = [&](std::size_t t) {
      const auto lo = static_cast<std::size_t>(
          std::max(block.begin, (first_tile + t) * kTileIds) - block.begin);
      const auto hi = static_cast<std::size_t>(
          std::min(end, (first_tile + t + 1) * kTileIds) - block.begin);
      std::size_t m = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        survives[i] = 0;
        if (!block.feasible[i]) continue;
        const double t_i = block.rows[i].seconds.value();
        const double c_i = block.rows[i].cost_usd.value();
        const double a_i = AccuracyObjective(block.rows[i], options);
        // Equal to the last packed row, which has a lower id: keep-first
        // drops it. Without an explicit SDC axis this skips the on-demand
        // copies across checkpoint and degradation before the sort.
        if (m > 0 && time[lo + m - 1] == t_i && cost[lo + m - 1] == c_i &&
            accuracy[lo + m - 1] == a_i) {
          continue;
        }
        time[lo + m] = t_i;
        cost[lo + m] = c_i;
        accuracy[lo + m] = a_i;
        packed_row[lo + m] = i;
        ++m;
      }
      for (const std::size_t k :
           SweepParetoFrontier3(std::span(time).subspan(lo, m),
                                std::span(cost).subspan(lo, m),
                                std::span(accuracy).subspan(lo, m))) {
        survives[packed_row[lo + k]] = 1;
      }
    };
    ParallelFor(0, tiles, filter_tile, /*grain=*/1);

    result.evaluated += n;
    const std::size_t frontier_rows = candidates.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (block.feasible[i]) ++result.feasible;
      if (survives[i]) {
        candidates.push_back(FrontierPoint{block.begin + i, block.rows[i]});
      }
    }
    result.peak_candidates =
        std::max(result.peak_candidates, candidates.size());
    if (candidates.size() > frontier_rows) {
      CompactCandidates(candidates, options);
    }
  });

  result.frontier = std::move(candidates);
  return result;
}

}  // namespace ccperf::core
