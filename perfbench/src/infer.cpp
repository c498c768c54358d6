// infer_dense / infer_compressed: a seeded sequence of Network::Forward
// calls at batch 1 and 8.
//
// infer_dense runs full-size CaffeNet (227^2) and GoogLeNet (224^2): packed
// dense GEMM, im2col, LRN and pooling do nearly all the work. Each cycle
// holds 6 CaffeNet and 11 GoogLeNet batch-1 calls, two CaffeNet batch-8
// calls and one GoogLeNet batch-8 call. Sorted by time these groups follow
// each other (30%, 55%, 10%, 5% of the calls), so p50 falls inside the
// GoogLeNet batch-1 group and p90 in the middle of the CaffeNet batch-8
// group rather than at a group's edge.
//
// infer_compressed runs CaffeNet variants that leave the dense path: 90%
// magnitude-pruned (CSR), block-aligned filter-pruned (BSR), int8, and int8
// plus filter-pruned; five batch-1 calls and one batch-8 call each.
//
// Every call's logits must equal, bitwise, a ScopedSerial reference made in
// set-up; calls on the fixed golden image must also give the stored Top-5.
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/threading.h"
#include "harness.h"
#include "nn/flops.h"
#include "nn/model_zoo.h"
#include "nn/network.h"
#include "pruning/filter_pruner.h"
#include "pruning/prune_plan.h"

namespace perfbench {
namespace {

using ccperf::Shape;
using ccperf::Tensor;
using ccperf::nn::LayerKind;
using ccperf::nn::Network;

// The golden image does not depend on the workload seed.
constexpr std::uint64_t kGoldenImageSeed = 0x5eed60d;

Tensor Image(std::int64_t batch, std::int64_t hw, std::uint64_t seed) {
  Tensor t(Shape{batch, 3, hw, hw});
  ccperf::Rng rng(seed);
  for (float& v : t.Data()) v = rng.NextFloat(-1.0f, 1.0f);
  return t;
}

std::string Top5(const Tensor& logits) {
  const auto top = ccperf::nn::TopK(logits, 5);
  std::string s;
  for (const auto idx : top.front()) {
    s += (s.empty() ? "" : ",") + std::to_string(idx);
  }
  return s;
}

double SinceMs(std::int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e6;
}

class InferWorkload final : public Workload {
 public:
  explicit InferWorkload(bool compressed) : compressed_(compressed) {}

  void Setup(std::uint64_t seed) override {
    std::int64_t t0 = NowNs();
    if (!compressed_) {
      nets_.push_back({"caffenet", ccperf::nn::BuildCaffeNet()});
      nets_.push_back({"googlenet", ccperf::nn::BuildGoogLeNet()});
      build_ms_ = SinceMs(t0);
    } else {
      const Network base = ccperf::nn::BuildCaffeNet();
      build_ms_ = SinceMs(t0);
      const auto layers = base.WeightedLayerNames();
      t0 = NowNs();
      nets_.push_back({"csr90", ccperf::pruning::ApplyPlan(
                                    base, ccperf::pruning::UniformPlan(
                                              layers, 0.9,
                                              ccperf::pruning::PrunerFamily::
                                                  kMagnitude))});
      Network bsr = base.Clone();
      const ccperf::pruning::L1FilterPruner block_pruner(true);
      for (const auto& name : layers) {
        block_pruner.Prune(*bsr.FindLayer(name), 0.6);
      }
      nets_.push_back({"bsr60", std::move(bsr)});
      Network int8_filter = ccperf::pruning::ApplyPlan(
          base, ccperf::pruning::UniformPlan(layers, 0.5));
      apply_plan_ms_ = SinceMs(t0);
      t0 = NowNs();
      Network int8 = base.Clone();
      int8.SetInt8Execution(true);
      int8_filter.SetInt8Execution(true);
      int8_setup_ms_ = SinceMs(t0);
      nets_.push_back({"int8", std::move(int8)});
      nets_.push_back({"int8_filter50", std::move(int8_filter)});
    }

    // Inputs: per net, the golden image and one seeded image at batch 1,
    // and one seeded batch of 8; references are serial forwards.
    ccperf::Rng rng(seed);
    std::vector<std::size_t> counts;
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      const std::int64_t hw = nets_[n].net.InputShape().Dim(1);
      const bool googlenet = nets_[n].name == "googlenet";
      const std::size_t golden_calls = compressed_ ? 3 : googlenet ? 6 : 3;
      const std::size_t seeded_calls = compressed_ ? 2 : googlenet ? 5 : 3;
      const std::size_t batch8_calls = compressed_ || googlenet ? 1 : 2;
      AddInput(n, Image(1, hw, kGoldenImageSeed), true);
      counts.push_back(golden_calls);
      AddInput(n, Image(1, hw, rng.NextU64()), false);
      counts.push_back(seeded_calls);
      AddInput(n, Image(8, hw, rng.NextU64()), false);
      counts.push_back(batch8_calls);
    }
    cycle_ = ShuffledCycle(counts, rng.NextU64());
  }

  [[nodiscard]] const std::vector<std::size_t>& Cycle() const override {
    return cycle_;
  }

  OpOutcome Run(std::size_t op, Tracer& tracer, bool corrupt) override {
    Input& in = inputs_[cycle_[op % cycle_.size()]];
    const Network& net = nets_[in.net].net;
    const std::int64_t batch = in.x.GetShape().Dim(0);
    Tensor logits;
    if (!tracer.Enabled()) {
      logits = net.Forward(in.x);
    } else {
      Tracer::Scope span(tracer, "nn.Forward " + nets_[in.net].name + " b" +
                                     std::to_string(batch));
      std::vector<ccperf::nn::LayerTiming> timings;
      std::int64_t cursor = NowNs();
      logits = net.Forward(in.x, &timings);
      // Forward runs its layers one after another, so their timings tile
      // the span in order.
      for (const auto& t : timings) {
        const auto ns = static_cast<std::int64_t>(t.seconds * 1e9);
        tracer.AddChild(t.name, cursor, cursor + ns);
        cursor += ns;
        kind_seconds_[LayerBucket(t.kind)] += t.seconds;
      }
      traced_images_ += static_cast<double>(batch);
      conv_flops_ += in.conv_flops;
      fc_flops_ += in.fc_flops;
    }
    if (corrupt) logits.Data()[0] = std::nextafter(logits.Data()[0], 1e30f);
    bool ok = logits.Data().size() == in.ref.Data().size() &&
              std::memcmp(logits.Data().data(), in.ref.Data().data(),
                          in.ref.Data().size() * sizeof(float)) == 0;
    if (in.golden) {
      ok = ok && GoldenMatches(GoldenKey(in.net), Top5(logits));
    }
    return {static_cast<double>(batch), ok};
  }

  void LayerMetrics(Tracer&, Metrics& out) override {
    for (const char* kind : {"conv", "fc", "lrn", "pool", "other"}) {
      out[std::string("nn.") + kind + "_ms"] = {
          kind_seconds_[kind] * 1e3 / traced_images_, "ms"};
    }
    out["nn.conv_gflops"] = {conv_flops_ / kind_seconds_["conv"] / 1e9,
                             "GFLOP/s"};
    out["nn.fc_gflops"] = {fc_flops_ / kind_seconds_["fc"] / 1e9, "GFLOP/s"};
    out["nn.build_model_ms"] = {build_ms_, "ms"};
    if (compressed_) {
      out["pruning.apply_plan_ms"] = {apply_plan_ms_, "ms"};
      out["pruning.int8_setup_ms"] = {int8_setup_ms_, "ms"};
    }
  }

 private:
  struct NamedNet {
    std::string name;
    Network net;
  };
  struct Input {
    std::size_t net = 0;
    Tensor x;
    Tensor ref;
    bool golden = false;
    double conv_flops = 0.0;  // nn::AnalyzeNetwork, density-discounted
    double fc_flops = 0.0;
  };

  [[nodiscard]] std::string GoldenKey(std::size_t net) const {
    return "infer." + nets_[net].name + ".top5";
  }

  void AddInput(std::size_t net_index, Tensor x, bool golden) {
    const Network& net = nets_[net_index].net;
    Input in{net_index, std::move(x), {}, golden, 0.0, 0.0};
    {
      ccperf::ScopedSerial serial;
      in.ref = net.Forward(in.x);
    }
    const auto cost =
        ccperf::nn::AnalyzeNetwork(net, in.x.GetShape().Dim(0));
    in.conv_flops = cost.FlopsOfKind(LayerKind::kConvolution);
    in.fc_flops = cost.FlopsOfKind(LayerKind::kFullyConnected);
    inputs_.push_back(std::move(in));
  }

  bool compressed_;
  std::vector<NamedNet> nets_;
  std::vector<Input> inputs_;
  std::vector<std::size_t> cycle_;  // input index per op
  double build_ms_ = 0.0;
  double apply_plan_ms_ = 0.0;
  double int8_setup_ms_ = 0.0;
  std::map<std::string, double> kind_seconds_;
  double traced_images_ = 0.0;
  double conv_flops_ = 0.0;
  double fc_flops_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeInferWorkload(bool compressed) {
  return std::make_unique<InferWorkload>(compressed);
}

}  // namespace perfbench
