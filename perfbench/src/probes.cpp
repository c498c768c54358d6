// Per-layer probes for the traced run: common (pool fork/join and the
// serial-vs-pool ratio of the workload's own operations), tensor (each
// CaffeNet/GoogLeNet layer's GEMM shape replayed through the public
// kernels) and nn/pruning (when the workload has not measured them itself).
#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/threading.h"
#include "harness.h"
#include "nn/conv_layer.h"
#include "nn/fc_layer.h"
#include "nn/flops.h"
#include "nn/model_zoo.h"
#include "pruning/prune_plan.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"
#include "tensor/quant.h"
#include "tensor/sparse.h"

namespace perfbench {
namespace {

using ccperf::nn::LayerKind;
using ccperf::nn::Network;

}  // namespace

const char* LayerBucket(LayerKind kind) {
  switch (kind) {
    case LayerKind::kConvolution: return "conv";
    case LayerKind::kFullyConnected: return "fc";
    case LayerKind::kLRN: return "lrn";
    case LayerKind::kMaxPool:
    case LayerKind::kAvgPool: return "pool";
    default: return "other";
  }
}

namespace {

double Ms(std::int64_t t0) { return static_cast<double>(NowNs() - t0) / 1e6; }

// One weight matrix of a layer (group 0 of a grouped conv) with the
// activation shape it multiplies at batch 1.
struct GemmShape {
  std::int64_t m = 0;
  std::int64_t n = 0;
  std::int64_t k = 0;
  std::int64_t groups = 1;
  bool fc = false;
  ccperf::ConvGeometry geometry;  // conv only
  std::vector<float> weights;     // group 0, [m, k]
};

std::vector<GemmShape> Shapes(const Network& net) {
  const auto cost = ccperf::nn::AnalyzeNetwork(net, 1);
  if (cost.layers.size() != net.LayerCount()) {
    throw std::runtime_error("AnalyzeNetwork layer count mismatch");
  }
  std::vector<GemmShape> shapes;
  for (std::size_t i = 0; i < net.LayerCount(); ++i) {
    const auto& layer = net.LayerAt(i);
    const std::int64_t src = net.NodeInputs(i).at(0);
    const ccperf::Shape in =
        src < 0 ? ccperf::Shape{1, net.InputShape().Dim(0),
                                net.InputShape().Dim(1),
                                net.InputShape().Dim(2)}
                : cost.layers[static_cast<std::size_t>(src)].output_shape;
    GemmShape s;
    if (const auto* conv = dynamic_cast<const ccperf::nn::ConvLayer*>(&layer)) {
      const auto& p = conv->Params();
      s.groups = p.groups;
      s.geometry = {conv->InChannels() / p.groups, in.Dim(2), in.Dim(3),
                    p.kernel, p.kernel, p.stride, p.pad};
      s.m = p.out_channels / p.groups;
      s.k = s.geometry.PatchSize();
      s.n = s.geometry.OutPixels();
    } else if (const auto* fc =
                   dynamic_cast<const ccperf::nn::FcLayer*>(&layer)) {
      s.fc = true;
      s.m = fc->OutFeatures();
      s.k = fc->InFeatures();
      s.n = 1;
    } else {
      continue;
    }
    const auto w = layer.Weights().Data();
    s.weights.assign(w.begin(), w.begin() + s.m * s.k);
    shapes.push_back(std::move(s));
  }
  return shapes;
}

std::vector<float> Random(std::int64_t size, std::uint64_t seed) {
  std::vector<float> v(static_cast<std::size_t>(size));
  ccperf::Rng rng(seed);
  for (float& x : v) x = rng.NextFloat(-1.0f, 1.0f);
  return v;
}

// Median over 3 passes of `pass`, which returns its own elapsed ms.
template <typename Pass>
double MedianMs(Pass pass) {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) ms.push_back(pass());
  return Median(ms);
}

void ProbeTensor(const std::vector<GemmShape>& caffenet,
                 const std::vector<GemmShape>& googlenet, Metrics& out) {
  std::vector<const GemmShape*> convs;  // CaffeNet's first
  std::size_t caffenet_convs = 0;
  for (const auto* shapes : {&caffenet, &googlenet}) {
    for (const auto& s : *shapes) {
      if (!s.fc) convs.push_back(&s);
    }
    if (shapes == &caffenet) caffenet_convs = convs.size();
  }
  double conv_flops = 0.0;
  double im2col_bytes = 0.0;
  for (const auto* s : convs) {
    conv_flops += 2.0 * static_cast<double>(s->m * s->n * s->k);
    im2col_bytes += 4.0 * static_cast<double>(
                              s->k * s->n + s->geometry.in_channels *
                                                s->geometry.in_h *
                                                s->geometry.in_w);
  }

  // Dense packed GEMM and im2col on every conv shape of both nets.
  std::vector<ccperf::PackedA> packed;
  std::vector<std::vector<float>> columns;
  std::vector<std::vector<float>> results;
  for (const auto* s : convs) {
    packed.push_back(ccperf::PackA(s->m, s->k, s->weights));
    columns.push_back(Random(s->k * s->n, 7));
    results.emplace_back(static_cast<std::size_t>(s->m * s->n));
  }
  const double gemm_ms = MedianMs([&] {
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < convs.size(); ++i) {
      ccperf::GemmPacked(packed[i], convs[i]->n, columns[i], results[i]);
    }
    return Ms(t0);
  });
  out["tensor.gemm_gflops"] = {conv_flops / gemm_ms / 1e6, "GFLOP/s"};

  std::vector<std::vector<float>> images;
  for (const auto* s : convs) {
    images.push_back(Random(s->geometry.in_channels * s->geometry.in_h *
                                s->geometry.in_w,
                            11));
  }
  const double im2col_ms = MedianMs([&] {
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < convs.size(); ++i) {
      ccperf::Im2Col(convs[i]->geometry, images[i], columns[i]);
    }
    return Ms(t0);
  });
  out["tensor.im2col_gbps_computed"] = {im2col_bytes / im2col_ms / 1e6,
                                        "GB/s"};

  // CaffeNet: weight packing a batched forward pays, and the batch-1 fc
  // matrix-vector products (bandwidth-bound: bytes are the weights read).
  out["tensor.pack_ms_per_forward"] = {
      MedianMs([&] {
        const std::int64_t t0 = NowNs();
        for (const auto& s : caffenet) {
          for (std::int64_t g = 0; g < s.groups; ++g) {
            (void)ccperf::PackA(s.m, s.k, s.weights);
          }
        }
        return Ms(t0);
      }),
      "ms"};
  double fc_bytes = 0.0;
  for (const auto& s : caffenet) {
    if (s.fc) fc_bytes += 4.0 * static_cast<double>(s.m * s.k);
  }
  const std::vector<float> x = Random(9216, 13);
  std::vector<float> y(4096);
  const double fc_ms = MedianMs([&] {
    const std::int64_t t0 = NowNs();
    for (const auto& s : caffenet) {
      if (s.fc) {
        ccperf::Gemv(s.m, s.k, s.weights,
                     std::span<const float>(x).first(
                         static_cast<std::size_t>(s.k)),
                     std::span<float>(y).first(static_cast<std::size_t>(s.m)));
      }
    }
    return Ms(t0);
  });
  out["tensor.gemm_fc_gbps_computed"] = {fc_bytes / fc_ms / 1e6, "GB/s"};

  // Compressed kernels on CaffeNet's conv shapes, dense-equivalent FLOPs:
  // CSR on 90% magnitude-pruned weights, BSR on block-aligned filter
  // pruning (60% of 4-row groups zeroed), int8 on the dense weights.
  double flops = 0.0;
  std::vector<ccperf::CsrMatrix> csr;
  std::vector<ccperf::BsrMatrix> bsr;
  std::vector<ccperf::QuantizedPackedA> int8;
  for (std::size_t i = 0; i < caffenet_convs; ++i) {
    const GemmShape& s = *convs[i];
    flops += 2.0 * static_cast<double>(s.m * s.n * s.k);
    std::vector<float> magnitude = s.weights;
    std::vector<float> abs(magnitude.size());
    std::transform(magnitude.begin(), magnitude.end(), abs.begin(),
                   [](float v) { return std::fabs(v); });
    auto nth = abs.begin() + static_cast<std::ptrdiff_t>(abs.size() * 9 / 10);
    std::nth_element(abs.begin(), nth, abs.end());
    for (float& v : magnitude) {
      if (std::fabs(v) < *nth) v = 0.0f;
    }
    csr.push_back(ccperf::CsrMatrix::FromDense(s.m, s.k, magnitude));
    std::vector<float> blocks = s.weights;
    for (std::int64_t row = 0; row < s.m; ++row) {
      if ((row / 4) % 5 < 3) {
        std::fill_n(blocks.begin() + row * s.k, s.k, 0.0f);
      }
    }
    bsr.push_back(ccperf::BsrMatrix::FromDense(s.m, s.k, blocks));
    int8.push_back(ccperf::QuantizePackA(s.m, s.k, s.weights));
  }
  auto kernel_gflops = [&](auto&& multiply) {
    return flops / MedianMs([&] {
             const std::int64_t t0 = NowNs();
             for (std::size_t j = 0; j < caffenet_convs; ++j) {
               multiply(j, *convs[j], columns[j], results[j]);
             }
             return Ms(t0);
           }) /
           1e6;
  };
  out["tensor.spmm_csr_gflops_eff"] = {
      kernel_gflops([&](std::size_t j, const GemmShape& s,
                        std::span<const float> b, std::span<float> c) {
        csr[j].MultiplyDense(b, s.n, c);
      }),
      "GFLOP/s"};
  out["tensor.spmm_bsr_gflops_eff"] = {
      kernel_gflops([&](std::size_t j, const GemmShape& s,
                        std::span<const float> b, std::span<float> c) {
        bsr[j].MultiplyDense(b, s.n, c);
      }),
      "GFLOP/s"};
  out["tensor.gemm_int8_gops"] = {
      kernel_gflops([&](std::size_t j, const GemmShape& s,
                        std::span<const float> b, std::span<float> c) {
        ccperf::GemmInt8(int8[j], s.n, b, c);
      }),
      "GOP/s"};
}

// Forward's per-layer timings on dense CaffeNet at batch 1, for workloads
// that run no Forward of their own.
void ProbeNn(const Network& caffenet, double build_ms, Metrics& out) {
  ccperf::Tensor x(ccperf::Shape{1, 3, 227, 227});
  ccperf::Rng rng(17);
  for (float& v : x.Data()) v = rng.NextFloat(-1.0f, 1.0f);
  (void)caffenet.Forward(x);
  std::map<std::string, double> ms;  // per bucket, per image
  constexpr int kReps = 5;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<ccperf::nn::LayerTiming> timings;
    (void)caffenet.Forward(x, &timings);
    for (const auto& t : timings) {
      ms[LayerBucket(t.kind)] += t.seconds * 1e3 / kReps;
    }
  }
  const auto cost = ccperf::nn::AnalyzeNetwork(caffenet, 1);
  for (const char* bucket : {"conv", "fc", "lrn", "pool", "other"}) {
    out.insert({std::string("nn.") + bucket + "_ms", {ms[bucket], "ms"}});
  }
  out.insert({"nn.conv_gflops",
              {cost.FlopsOfKind(LayerKind::kConvolution) / ms["conv"] / 1e6,
               "GFLOP/s"}});
  out.insert({"nn.fc_gflops",
              {cost.FlopsOfKind(LayerKind::kFullyConnected) / ms["fc"] / 1e6,
               "GFLOP/s"}});
  out.insert({"nn.build_model_ms", {build_ms, "ms"}});
}

}  // namespace

void ProbeCommon(Workload& workload, Metrics& out) {
  const std::size_t threads = ccperf::GlobalPool().ThreadCount();
  const auto noop = [](std::size_t) {};
  std::vector<double> fork_join_us;
  for (int rep = 0; rep < 2000; ++rep) {
    const std::int64_t t0 = NowNs();
    ccperf::ParallelFor(0, std::max<std::size_t>(2, threads), noop, 1);
    fork_join_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  out["common.parallel_for_us"] = {Median(fork_join_us), "us"};

  // The workload's own operations, pool vs ScopedSerial, alternating;
  // operations over 1.5 s on the pool are skipped to bound the probe.
  Tracer off(false);
  double pooled = 0.0;
  double serial = 0.0;
  for (std::size_t op = 0; op < workload.Cycle().size() && pooled < 1.0; ++op) {
    std::int64_t t0 = NowNs();
    (void)workload.Run(op, off, false);
    const double pooled_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (pooled_s > 1.5) continue;
    ccperf::ScopedSerial scoped;
    t0 = NowNs();
    (void)workload.Run(op, off, false);
    serial += static_cast<double>(NowNs() - t0) / 1e9;
    pooled += pooled_s;
  }
  out["common.parallel_speedup"] = {serial / pooled, "ratio"};
}

void ProbeTensorAndNn(Metrics& out) {
  std::int64_t t0 = NowNs();
  const Network caffenet = ccperf::nn::BuildCaffeNet();
  const Network googlenet = ccperf::nn::BuildGoogLeNet();
  const double build_ms = Ms(t0);
  ProbeTensor(Shapes(caffenet), Shapes(googlenet), out);
  ProbeNn(caffenet, build_ms, out);
  if (out.count("pruning.apply_plan_ms") == 0) {
    t0 = NowNs();
    const Network pruned = ccperf::pruning::ApplyPlan(
        caffenet,
        ccperf::pruning::UniformPlan(caffenet.WeightedLayerNames(), 0.5));
    out["pruning.apply_plan_ms"] = {Ms(t0), "ms"};
  }
  if (out.count("pruning.int8_setup_ms") == 0) {
    Network int8 = caffenet.Clone();
    t0 = NowNs();
    int8.SetInt8Execution(true);
    out["pruning.int8_setup_ms"] = {Ms(t0), "ms"};
  }
}

}  // namespace perfbench
