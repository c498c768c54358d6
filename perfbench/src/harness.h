// Closed-loop benchmark harness: one client sends the next operation only
// after the previous one returns. A workload builds every input it feeds
// the library from the run's seed, checks every output, and (in the traced
// run) reports the per-layer metrics it can measure.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ccperf::nn {
enum class LayerKind;
}

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary epoch.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// In-memory span recorder. Spans carry a name, start, end, the index of
/// the enclosing span and the id of the closed-loop operation they belong
/// to; Write() emits Chrome trace-event JSON. When disabled, Scope costs a
/// branch and records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool Enabled() const { return enabled_; }
  void SetOp(std::int64_t op) { op_ = op; }

  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::int64_t index_ = -1;
  };

  /// Record a finished child of the innermost open span (used to lay the
  /// library's own per-layer timings under the Forward span that made them).
  void AddChild(std::string name, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] std::size_t SpanCount() const { return spans_.size(); }
  void Write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
    std::int64_t op = -1;
  };

  bool enabled_;
  std::int64_t op_ = -1;
  std::int64_t open_ = -1;
  std::vector<Span> spans_;
};

/// Result of one closed-loop operation.
struct OpOutcome {
  double items = 0.0;  // images, configs evaluated, or simulated requests
  bool ok = true;      // every output check passed
};

/// One per-layer metric value with its unit.
struct Metric {
  double value = 0.0;
  const char* unit = "count";
};
/// Per-layer metrics reported by the traced run, by name.
using Metrics = std::map<std::string, Metric>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the library objects and references for `seed`. Every call to
  /// Setup is timed; the harness calls it on fresh instances.
  virtual void Setup(std::uint64_t seed) = 0;

  /// One cycle: the input index of each operation, in seeded order. The
  /// loop runs whole cycles; operation `op` uses entry op % size.
  [[nodiscard]] virtual const std::vector<std::size_t>& Cycle() const = 0;

  /// Run operation `op` and check its output. With `corrupt`, move one
  /// output value by one ulp before the check (the negative control).
  virtual OpOutcome Run(std::size_t op, Tracer& tracer, bool corrupt) = 0;

  /// Traced run only: add the per-layer metrics this workload measures
  /// through its own inputs (counts from its operations, layer times).
  virtual void LayerMetrics(Tracer& tracer, Metrics& out) = 0;
};

std::unique_ptr<Workload> MakeInferWorkload(bool compressed);
std::unique_ptr<Workload> MakeExploreWorkload();
std::unique_ptr<Workload> MakeServeWorkload();

/// Per-layer probes that replay layer calls outside the closed loop. Each
/// fills only the metrics its group owns that `out` does not already hold.
void ProbeCommon(Workload& workload, Metrics& out);
void ProbeTensorAndNn(Metrics& out);
void ProbeCore(Metrics& out);
void ProbeCloud(Metrics& out);

/// Golden values stored with the benchmark, one "key value" per line.
/// GoldenMatches compares `value` with the stored one (a missing key is an
/// error); after PrintGoldens() it prints "golden key value" and passes.
void LoadGoldens(const std::string& path);
void PrintGoldens();
[[nodiscard]] bool GoldenMatches(const std::string& key,
                                 const std::string& value);

/// Seeded order of a cycle: entry i of `counts` appears counts[i] times.
std::vector<std::size_t> ShuffledCycle(const std::vector<std::size_t>& counts,
                                       std::uint64_t seed);

/// The nn.* metric a layer kind's Forward time counts toward: "conv",
/// "fc", "lrn", "pool" or "other".
const char* LayerBucket(ccperf::nn::LayerKind kind);

/// Median of `v` (copied).
double Median(std::vector<double> v);
/// Percentile with linear interpolation between closest ranks, q in [0,1].
double Percentile(std::vector<double> v, double q);

/// CRC32 of a byte range, chained from `crc` (0 to start).
std::uint32_t Crc(const void* data, std::size_t size, std::uint32_t crc = 0);

}  // namespace perfbench
