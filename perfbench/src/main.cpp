// perfbench_driver: runs one benchmark workload as a closed loop with one
// client and prints its metrics. The last line of stdout is the result
// object {"correct", "attempted", "failed", "metrics"}; a fuller record
// (fingerprint, sample counts, failure share) is written to --out-dir.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--negative-control] [--out-dir DIR] [--source-id ID]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the loop half
// untraced and half traced (the ratio is the tracing overhead), runs the
// per-layer probes and writes the spans as Chrome trace-event JSON.
#include <cpuid.h>
#include <sys/resource.h>

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/threading.h"
#include "harness.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool negative_control = false;
  std::string out_dir = ".";
  std::string source_id = "unknown";
  std::string golden;
  bool print_golden = false;
};

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;
// A run holds at least this many operations, so p90 has ten beyond it.
constexpr std::size_t kMinOps = 100;

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = value() == "1";
    else if (flag == "--negative-control") a.negative_control = true;
    else if (flag == "--out-dir") a.out_dir = value();
    else if (flag == "--source-id") a.source_id = value();
    else if (flag == "--golden") a.golden = value();
    else if (flag == "--print-golden") a.print_golden = true;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

std::unique_ptr<Workload> Make(const std::string& name) {
  if (name == "infer_dense") return MakeInferWorkload(false);
  if (name == "infer_compressed") return MakeInferWorkload(true);
  if (name == "explore_sweep") return MakeExploreWorkload();
  if (name == "serve_sim") return MakeServeWorkload();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string CpuModel() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string Fingerprint(const Args& a) {
  __builtin_cpu_init();
  std::ostringstream os;
  os << "{\"cpu\":\"" << CpuModel() << "\",\"avx2\":"
     << (__builtin_cpu_supports("avx2") ? "true" : "false")
     << ",\"avx512f\":"
     << (__builtin_cpu_supports("avx512f") ? "true" : "false")
     << ",\"avx512_vnni\":"
     << (__builtin_cpu_supports("avx512vnni") ? "true" : "false")
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"pool_threads\":" << ccperf::GlobalPool().ThreadCount()
     << ",\"compiler\":\"" << PERFBENCH_COMPILER << "\",\"build_type\":\""
     << PERFBENCH_BUILD_TYPE << "\",\"native_kernels\":\""
     << PERFBENCH_NATIVE_KERNELS << "\",\"source\":\"" << a.source_id
     << "\"}";
  return os.str();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct LoopResult {
  std::vector<double> op_seconds;
  std::vector<std::size_t> op_inputs;  // Cycle() entry of each operation
  std::vector<double> cycle_rates;     // items per second of each cycle
  double items = 0.0;
  double wall_s = 0.0;
  std::size_t failed = 0;
};

// Runs one whole cycle starting at operation `first_op`, appending to `r`.
// The `corrupt_op`-th operation recorded in `r` gets a corrupted output.
void RunCycle(Workload& w, Tracer& tracer, std::size_t first_op,
              std::int64_t corrupt_op, LoopResult& r) {
  const std::int64_t cycle_start = NowNs();
  const double items_before = r.items;
  for (std::size_t op = first_op; op < first_op + w.Cycle().size(); ++op) {
    tracer.SetOp(static_cast<std::int64_t>(op));
    const bool corrupt =
        static_cast<std::int64_t>(r.op_seconds.size()) == corrupt_op;
    const std::int64_t start = NowNs();
    OpOutcome out;
    try {
      out = w.Run(op, tracer, corrupt);
    } catch (const std::exception& e) {
      std::cerr << "op " << op << " threw: " << e.what() << "\n";
      out.ok = false;
    }
    r.op_seconds.push_back(static_cast<double>(NowNs() - start) / 1e9);
    r.op_inputs.push_back(w.Cycle()[op % w.Cycle().size()]);
    r.items += out.items;
    if (!out.ok) ++r.failed;
  }
  const double cycle_s = static_cast<double>(NowNs() - cycle_start) / 1e9;
  r.wall_s += cycle_s;
  r.cycle_rates.push_back((r.items - items_before) / cycle_s);
}

std::string Num(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.print_golden) {
    PrintGoldens();
  } else {
    LoadGoldens(args.golden);
  }
  const std::string fingerprint = Fingerprint(args);
  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") +
                           (args.negative_control ? "-negative-control" : "");

  // Set-up: fresh instances, previous one released first, median time.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < (args.trace ? 1 : kSetups); ++i) {
    w.reset();
    w = Make(args.workload);
    const std::int64_t t0 = NowNs();
    w->Setup(args.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const std::size_t cycle = w->Cycle().size();
  // Warm-up: the first (cold) call on every distinct input, checked like
  // any other operation.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  {
    Tracer off(false);
    std::vector<bool> seen;
    for (std::size_t op = 0; op < cycle; ++op) {
      const std::size_t input = w->Cycle()[op];
      if (input >= seen.size()) seen.resize(input + 1);
      if (seen[input]) continue;
      seen[input] = true;
      ++attempted;
      if (!w->Run(op, off, false).ok) ++failed;
    }
  }

  std::ostringstream metrics;  // the result's "metrics" object body
  std::ostringstream extra;    // fields only the results file carries
  auto add = [&](const std::string& name, double v, const char* unit) {
    metrics << (metrics.tellp() > 0 ? ", " : "") << "\"" << name
            << "\": {\"value\": " << Num(v) << ", \"unit\": \"" << unit
            << "\"}";
    std::cout << "  " << std::left << std::setw(34) << name << " "
              << Num(v) << " " << unit << "\n";
  };

  const std::int64_t corrupt_op =
      args.negative_control ? static_cast<std::int64_t>(cycle / 2) : -1;
  std::cout << "workload " << args.workload << " seed " << args.seed
            << " trace " << args.trace << "\nhost " << fingerprint << "\n";
  if (!args.trace) {
    // Whole cycles until `seconds` have passed and at least kMinOps ran;
    // 2 x `seconds` bounds the run on a slow host.
    Tracer off(false);
    LoopResult r;
    for (std::size_t k = 1; r.wall_s < 2.0 * args.seconds &&
                            (r.wall_s < args.seconds ||
                             r.op_seconds.size() < kMinOps);
         ++k) {
      RunCycle(*w, off, k * cycle, corrupt_op, r);
    }
    attempted += r.op_seconds.size();
    failed += r.failed;
    // The median cycle: a burst of interference from outside the process
    // moves one cycle, not the result.
    add("items_per_s", Median(r.cycle_rates), "1/s");
    add("op_p50_ms", Percentile(r.op_seconds, 0.5) * 1e3, "ms");
    add("op_p90_ms", Percentile(r.op_seconds, 0.9) * 1e3, "ms");
    add("setup_s", Median(setup_s), "s");
    add("peak_rss_mb", PeakRssMb(), "MB");
    extra << "\"op_samples\": " << r.op_seconds.size()
          << ", \"setup_samples\": " << setup_s.size()
          << ", \"cycles\": " << r.cycle_rates.size()
          << ", \"wall_s\": " << Num(r.wall_s)
          << ", \"mean_items_per_s\": " << Num(r.items / r.wall_s)
          << ", \"cycle_items_per_s\": [";
    for (std::size_t i = 0; i < r.cycle_rates.size(); ++i) {
      extra << (i ? ", " : "") << Num(r.cycle_rates[i]);
    }
    extra << "], \"op_input_seconds\": [";
    for (std::size_t i = 0; i < r.op_seconds.size(); ++i) {
      extra << (i ? ", " : "") << "[" << r.op_inputs[i] << ", "
            << Num(r.op_seconds[i]) << "]";
    }
    extra << "]";
  } else {
    // Untraced and traced cycles alternate (two of each at least), so
    // drift over the run cancels out of their items/s ratio, which is the
    // tracing overhead.
    Tracer off(false);
    Tracer tracer(true);
    LoopResult plain;
    LoopResult traced;
    for (std::size_t k = 1;; k += 2) {
      RunCycle(*w, off, k * cycle, corrupt_op, plain);
      RunCycle(*w, tracer, (k + 1) * cycle, -1, traced);
      if (k >= 3 && plain.wall_s + traced.wall_s >= args.seconds) break;
    }
    attempted += plain.op_seconds.size() + traced.op_seconds.size();
    failed += plain.failed + traced.failed;
    const double plain_rate = Median(plain.cycle_rates);
    const double traced_rate = Median(traced.cycle_rates);

    Metrics layer;
    layer["trace.items_per_s_ratio"] = {traced_rate / plain_rate, "ratio"};
    w->LayerMetrics(tracer, layer);
    ProbeCommon(*w, layer);
    ProbeTensorAndNn(layer);
    ProbeCore(layer);
    ProbeCloud(layer);
    for (const auto& [name, metric] : layer) {
      add(name, metric.value, metric.unit);
    }
    tracer.Write(stem + ".spans.json");
    extra << "\"untraced_items_per_s\": " << Num(plain_rate)
          << ", \"traced_items_per_s\": " << Num(traced_rate)
          << ", \"spans\": " << tracer.SpanCount()
          << ", \"op_samples\": "
          << plain.op_seconds.size() + traced.op_seconds.size();
  }

  const double failed_share =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                : 1.0;
  std::cout << "  failed_op_share " << Num(failed_share) << " ("
            << failed << "/" << attempted << ")\n";
  const std::string result =
      "{\"correct\": " + std::string(failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted) +
      ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
      metrics.str() + "}}";
  std::ofstream file(stem + ".json");
  file << "{\"workload\": \"" << args.workload << "\", \"seed\": "
       << args.seed << ", \"trace\": " << args.trace
       << ", \"negative_control\": " << args.negative_control
       << ", \"seconds\": " << Num(args.seconds)
       << ", \"failed_op_share\": " << Num(failed_share) << ", " << extra.str()
       << ", \"host\": " << fingerprint << ", \"result\": " << result
       << "}\n";
  std::cout << result << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
}
