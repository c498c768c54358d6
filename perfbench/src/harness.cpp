#include "harness.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "common/rng.h"
#include "common/snapshot.h"

namespace perfbench {
namespace {
std::map<std::string, std::string> g_goldens;
bool g_print_goldens = false;
}  // namespace

void LoadGoldens(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read goldens " + path);
  std::string key;
  std::string value;
  while (in >> key && std::getline(in >> std::ws, value)) {
    if (key.front() != '#') g_goldens[key] = value;
  }
}

void PrintGoldens() { g_print_goldens = true; }

bool GoldenMatches(const std::string& key, const std::string& value) {
  if (g_print_goldens) {
    std::cout << "golden " << key << " " << value << "\n";
    return true;
  }
  const auto it = g_goldens.find(key);
  if (it == g_goldens.end()) throw std::runtime_error("no golden " + key);
  return it->second == value;
}

std::vector<std::size_t> ShuffledCycle(const std::vector<std::size_t>& counts,
                                       std::uint64_t seed) {
  std::vector<std::size_t> cycle;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cycle.insert(cycle.end(), counts[i], i);
  }
  ccperf::Rng rng(seed);
  for (std::size_t i = cycle.size(); i > 1; --i) {
    std::swap(cycle[i - 1], cycle[rng.NextIndex(i)]);
  }
  return cycle;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  index_ = static_cast<std::int64_t>(tracer_.spans_.size());
  tracer_.spans_.push_back({std::move(name), NowNs(), 0, tracer_.open_,
                            tracer_.op_});
  tracer_.open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = NowNs();
  tracer_.open_ = span.parent;
}

void Tracer::AddChild(std::string name, std::int64_t start_ns,
                      std::int64_t end_ns) {
  if (!enabled_) return;
  spans_.push_back({std::move(name), start_ns, end_ns, open_, op_});
}

void Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns - t0) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint32_t Crc(const void* data, std::size_t size, std::uint32_t crc) {
  std::string bytes(reinterpret_cast<const char*>(&crc), sizeof(crc));
  bytes.append(static_cast<const char*>(data), size);
  return ccperf::Crc32(bytes);
}

}  // namespace perfbench
