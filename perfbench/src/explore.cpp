// explore_sweep: a seeded sequence of EnumerateFrontier calls on spaces
// built the way ccperf_calc builds them.
//
// Each cycle sweeps the default CaffeNet and GoogLeNet spaces (1,106,784
// configurations each) and the CaffeNet --sdc space (5,533,920) once, and
// 22 seeded sub-block spaces drawn from a pool of six: under 65,536 ids,
// so one evaluate-and-compact round where the full spaces take 17 and 85.
// The evaluator and the sweep Pareto filter (core) and ParallelFor (common)
// do all the work.
//
// Checks: full spaces give the stored golden frontier digest; seeded spaces
// give the digest of a serial = true sweep made in set-up.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <memory>
#include <string>
#include <vector>

#include "cloud/instance_catalog.h"
#include "cloud/model_profile.h"
#include "cloud/simulator.h"
#include "common/rng.h"
#include "core/accuracy_model.h"
#include "core/enumerate.h"
#include "core/pareto_sweep.h"
#include "harness.h"
#include "pruning/variant_generator.h"

namespace perfbench {
namespace {

namespace cloud = ccperf::cloud;
namespace core = ccperf::core;

// The ccperf_calc flags a space is built from (its defaults).
struct CalcSpec {
  bool googlenet = false;
  std::size_t variants = 60;
  std::uint64_t seed = 2020;
  int max_count = 14;
  std::vector<std::int64_t> batches = {0, 32, 64, 128, 256, 512};
  std::size_t degradations = 3;
  bool sdc = false;
};

// Same axes, in the same order, as ccperf_calc's BuildSpace.
core::ArchitectureSpace BuildCalcSpace(const cloud::InstanceCatalog& catalog,
                                       const CalcSpec& spec) {
  const cloud::ModelProfile profile = spec.googlenet
                                          ? cloud::GoogLeNetProfile()
                                          : cloud::CaffeNetProfile();
  const core::CalibratedAccuracyModel accuracy =
      spec.googlenet ? core::CalibratedAccuracyModel::GoogLeNet()
                     : core::CalibratedAccuracyModel::CaffeNet();
  std::vector<ccperf::pruning::PrunePlan> plans;
  plans.emplace_back();
  ccperf::Rng rng(spec.seed);
  for (auto& plan : ccperf::pruning::RandomVariants(
           profile.layer_order, spec.variants, 0.6, 0.1, rng)) {
    plans.push_back(std::move(plan));
  }
  core::ArchitectureSpace space;
  space.AddVariants(core::BuildVariantSpecs(profile, accuracy, plans, true));
  for (const auto& type : catalog.Types()) space.AddInstanceType(type.name);
  std::vector<int> counts;
  for (int c = 1; c <= spec.max_count; ++c) counts.push_back(c);
  space.SetCounts(std::move(counts));
  space.SetBatches(spec.batches);
  space.SetPurchaseOptions(
      {core::PurchaseOption::kOnDemand, core::PurchaseOption::kSpot});
  space.AddCheckpointOption({.name = "none", .enabled = false, .policy = {}});
  space.AddCheckpointOption(
      {.name = "periodic-300",
       .enabled = true,
       .policy = {.trigger = cloud::CheckpointTrigger::kPeriodic,
                  .interval_s = 300.0}});
  space.AddCheckpointOption(
      {.name = "adaptive",
       .enabled = true,
       .policy = {.trigger = cloud::CheckpointTrigger::kAdaptive}});
  const core::DegradationOption degradations[] = {
      {.name = "none"},
      {.name = "skip-frames",
       .recompute_speedup = 2.0,
       .accuracy_factor = 0.97},
      {.name = "half-res", .recompute_speedup = 4.0, .accuracy_factor = 0.90}};
  for (std::size_t d = 0; d < spec.degradations; ++d) {
    space.AddDegradationOption(degradations[d]);
  }
  if (spec.sdc) {
    space.AddSdcOption({.name = "off", .policy = {}});
    space.AddSdcOption(
        {.name = "none", .policy = {.kind = cloud::SdcPolicyKind::kNone}});
    space.AddSdcOption(
        {.name = "abft", .policy = {.kind = cloud::SdcPolicyKind::kAbft}});
    space.AddSdcOption(
        {.name = "scrub", .policy = {.kind = cloud::SdcPolicyKind::kScrub}});
    space.AddSdcOption({.name = "reexec",
                        .policy = {.kind = cloud::SdcPolicyKind::kReexecSample,
                                   .sample_fraction = 0.1}});
  }
  return space;
}

std::uint32_t Digest(const core::EnumerationResult& r, bool corrupt) {
  std::uint32_t crc = Crc(&r.evaluated, sizeof(r.evaluated));
  crc = Crc(&r.feasible, sizeof(r.feasible), crc);
  for (std::size_t i = 0; i < r.frontier.size(); ++i) {
    core::FrontierPoint p = r.frontier[i];
    if (corrupt && i == 0) p.metrics.top1 = std::nextafter(p.metrics.top1, 2.0);
    crc = Crc(&p.id, sizeof(p.id), crc);
    crc = Crc(&p.metrics, sizeof(p.metrics), crc);
  }
  return crc;
}

class ExploreWorkload final : public Workload {
 public:
  ExploreWorkload()
      : catalog_(cloud::InstanceCatalog::AwsEc2()), sim_(catalog_) {}

  void Setup(std::uint64_t seed) override {
    AddCase("caffenet", {}, {}, true);
    AddCase("googlenet", {.googlenet = true}, {}, true);
    core::EnumerationOptions sdc_options;
    sdc_options.use_delivered = true;
    AddCase("caffenet_sdc", {.sdc = true}, sdc_options, true);
    std::vector<std::size_t> counts = {1, 1, 1};

    // Sub-block slots: their axes (so their sizes, 41,472 to 64,152 ids)
    // and constraints are fixed; the seed draws the pruning plans.
    struct SubBlock {
      std::size_t variants;
      int max_count;
      std::size_t degradations;
      double deadline_h;  // 0 = none
      double budget_usd;  // 0 = none
    };
    constexpr SubBlock kSubBlocks[] = {
        {8, 8, 3, 0, 0},   {6, 10, 3, 24, 0},   {9, 10, 2, 0, 400},
        {10, 9, 3, 6, 0},  {4, 14, 3, 48, 800}, {7, 12, 2, 0, 200}};
    ccperf::Rng rng(seed);
    for (std::size_t i = 0; i < std::size(kSubBlocks); ++i) {
      const SubBlock& slot = kSubBlocks[i];
      CalcSpec spec;
      spec.googlenet = i % 2 == 1;
      spec.variants = slot.variants;
      spec.seed = rng.NextU64();
      spec.max_count = slot.max_count;
      spec.batches = {0, 64, 256};
      spec.degradations = slot.degradations;
      core::EnumerationOptions options;
      if (slot.deadline_h > 0) {
        options.deadline_s = ccperf::Seconds(3600.0 * slot.deadline_h);
      }
      if (slot.budget_usd > 0) {
        options.budget_usd = ccperf::Usd(slot.budget_usd);
      }
      AddCase("seeded" + std::to_string(i), spec, options, false);
      counts.push_back(i < 4 ? 4 : 3);
    }
    cycle_ = ShuffledCycle(counts, rng.NextU64());
  }

  [[nodiscard]] const std::vector<std::size_t>& Cycle() const override {
    return cycle_;
  }

  OpOutcome Run(std::size_t op, Tracer& tracer, bool corrupt) override {
    Case& c = *cases_[cycle_[op % cycle_.size()]];
    core::EnumerationResult r;
    {
      Tracer::Scope span(tracer, "core.EnumerateFrontier " + c.label);
      r = core::EnumerateFrontier(*c.evaluator, c.options);
    }
    if (tracer.Enabled()) {
      evaluated_ += static_cast<double>(r.evaluated);
      feasible_ += static_cast<double>(r.feasible);
      frontier_sum_ += static_cast<double>(r.frontier.size());
      peak_candidates_ = std::max(peak_candidates_,
                                  static_cast<double>(r.peak_candidates));
      ++traced_ops_;
    }
    const std::uint32_t digest = Digest(r, corrupt);
    const bool ok =
        r.evaluated == c.space->Size() &&
        (c.golden ? GoldenMatches("explore." + c.label + ".digest",
                                  std::to_string(digest))
                  : digest == c.ref_digest);
    return {static_cast<double>(r.evaluated), ok};
  }

  void LayerMetrics(Tracer&, Metrics& out) override {
    out["core.feasible_share"] = {feasible_ / evaluated_, "ratio"};
    out["core.peak_candidates"] = {peak_candidates_, "count"};
    out["core.frontier_size"] = {frontier_sum_ / traced_ops_, "count"};
  }

 private:
  struct Case {
    std::string label;
    std::unique_ptr<core::ArchitectureSpace> space;
    std::unique_ptr<core::ArchitectureEvaluator> evaluator;
    core::EnumerationOptions options;
    bool golden = false;
    std::uint32_t ref_digest = 0;
  };

  void AddCase(std::string label, const CalcSpec& spec,
               core::EnumerationOptions options, bool golden) {
    auto c = std::make_unique<Case>();
    c->label = std::move(label);
    c->space = std::make_unique<core::ArchitectureSpace>(
        BuildCalcSpace(catalog_, spec));
    c->evaluator =
        std::make_unique<core::ArchitectureEvaluator>(sim_, *c->space);
    c->options = options;
    c->golden = golden;
    if (!golden) {
      core::EnumerationOptions serial = options;
      serial.serial = true;
      c->ref_digest =
          Digest(core::EnumerateFrontier(*c->evaluator, serial), false);
    }
    cases_.push_back(std::move(c));
  }

  cloud::InstanceCatalog catalog_;
  cloud::CloudSimulator sim_;
  std::vector<std::unique_ptr<Case>> cases_;
  std::vector<std::size_t> cycle_;  // case index per op
  double evaluated_ = 0.0;
  double feasible_ = 0.0;
  double frontier_sum_ = 0.0;
  double peak_candidates_ = 0.0;
  double traced_ops_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeExploreWorkload() {
  return std::make_unique<ExploreWorkload>();
}

void ProbeCore(Metrics& out) {
  const cloud::InstanceCatalog catalog = cloud::InstanceCatalog::AwsEc2();
  const cloud::CloudSimulator sim(catalog);
  std::vector<double> build_ms;
  core::ArchitectureSpace space;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = NowNs();
    space = BuildCalcSpace(catalog, {});
    build_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  out["core.space_build_ms"] = {Median(build_ms), "ms"};
  const core::ArchitectureEvaluator evaluator(sim, space);

  // Serial Evaluate over one compaction block of ids; the same block's
  // feasible rows feed the sweep Pareto filter.
  const std::uint64_t block = core::EnumerationOptions{}.block;
  std::vector<double> time;
  std::vector<double> cost;
  std::vector<double> accuracy;
  core::ArchMetrics m;
  std::vector<double> evaluate_ns;
  for (int rep = 0; rep < 3; ++rep) {
    time.clear();
    cost.clear();
    accuracy.clear();
    const std::int64_t t0 = NowNs();
    for (std::uint64_t id = 0; id < block; ++id) {
      if (evaluator.Evaluate(id, 1'000'000, m)) {
        time.push_back(m.seconds.value());
        cost.push_back(m.cost_usd.value());
        accuracy.push_back(m.top5);
      }
    }
    evaluate_ns.push_back(static_cast<double>(NowNs() - t0) /
                          static_cast<double>(block));
  }
  out["core.evaluate_ns"] = {Median(evaluate_ns), "ns"};
  std::vector<double> pareto_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = NowNs();
    const auto frontier = core::SweepParetoFrontier3(time, cost, accuracy);
    pareto_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (frontier.empty()) throw std::runtime_error("empty block frontier");
  }
  out["core.pareto_ms_per_block"] = {Median(pareto_ms), "ms"};

  core::EnumerationOptions serial;
  serial.serial = true;
  const std::int64_t t0 = NowNs();
  const core::EnumerationResult r = core::EnumerateFrontier(evaluator, serial);
  out["core.sweep_serial_ms"] = {static_cast<double>(NowNs() - t0) / 1e6,
                                 "ms"};
  if (!GoldenMatches("explore.caffenet.digest",
                     std::to_string(Digest(r, false)))) {
    throw std::runtime_error("serial default sweep differs from golden");
  }
  out.insert({"core.feasible_share",
              {static_cast<double>(r.feasible) /
                   static_cast<double>(r.evaluated),
               "ratio"}});
  out.insert({"core.peak_candidates",
              {static_cast<double>(r.peak_candidates), "count"}});
  out.insert({"core.frontier_size",
              {static_cast<double>(r.frontier.size()), "count"}});
}

}  // namespace perfbench
