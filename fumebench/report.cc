// Statistics helpers, counter diffs, the run report and the write-traffic
// op logs of the end-to-end benchmark.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <thread>

#include "bench.h"
#include "stream/workload.h"

namespace fumebench {

using fume::obs::HistogramSnapshot;

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kAudit:
      return "audit";
    case Phase::kStream:
      return "stream";
    case Phase::kServe:
      return "serve";
  }
  return "?";
}

double Options::Budget(Phase phase) const {
  if (phase == focus) return seconds;
  return smoke ? 0.3 : 10.0;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : Sum(values) / static_cast<double>(values.size());
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

int64_t CounterDiff::Counter(const std::string& name) const {
  return after_.CounterValue(name) - before_.CounterValue(name);
}

std::pair<int64_t, int64_t> CounterDiff::Histogram(
    const std::string& name) const {
  const auto find = [&](const fume::obs::MetricsSnapshot& snap) {
    for (const auto& [hist_name, hist] : snap.histograms) {
      if (hist_name == name) return hist;
    }
    return HistogramSnapshot{};
  };
  const HistogramSnapshot a = find(before_);
  const HistogramSnapshot b = find(after_);
  return {b.count - a.count, b.sum - a.sum};
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, int64_t samples) {
  end_to_end_.push_back({name, value, unit, samples});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, int64_t samples) {
  layer_.push_back({name, value, unit, samples});
}

void Report::Count(Phase phase, int64_t attempted, int64_t failed) {
  Tally& t = tallies_[PhaseName(phase)];
  t.attempted += attempted;
  t.failed += failed;
}

void Report::CheckFailed(Phase phase, const std::string& what) {
  Count(phase, 1, 1);
  check_failures_.push_back(std::string(PhaseName(phase)) + ": " + what);
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

void Report::Print(std::ostream& os, bool trace) const {
  const std::vector<Metric>& shown = trace ? layer_ : end_to_end_;
  os << (trace ? "per-layer" : "end-to-end") << " metrics:\n";
  for (const Metric& m : shown) {
    os << "  " << std::left << std::setw(40) << m.name << std::right
       << std::setw(16) << JsonNumber(m.value) << " " << std::left
       << std::setw(7) << m.unit << std::right << " n=" << m.samples << "\n";
  }
  int64_t attempted = 0;
  int64_t failed = 0;
  for (const auto& [phase, t] : tallies_) {
    os << "phase " << phase << ": attempted " << t.attempted << ", failed "
       << t.failed << "\n";
    attempted += t.attempted;
    failed += t.failed;
  }
  for (const std::string& f : check_failures_) {
    os << "CHECK FAILED " << f << "\n";
  }

  // Report line: everything a result must carry besides the metrics.
  os << "{\"fumebench_report\": {\"machine\": {\"nproc\": "
     << std::thread::hardware_concurrency()
     << ", \"cpu\": " << JsonString(CpuModel())
     << ", \"compiler\": " << JsonString(std::string("gcc ") + __VERSION__)
     << ", \"build_type\": " << JsonString(FUMEBENCH_BUILD_TYPE) << "}";
  for (const auto& [key, value] : notes_) {
    os << ", " << JsonString(key) << ": " << JsonString(value);
  }
  os << ", \"phases\": {";
  bool first = true;
  for (const auto& [phase, t] : tallies_) {
    os << (first ? "" : ", ") << JsonString(phase)
       << ": {\"attempted\": " << t.attempted
       << ", \"succeeded\": " << t.attempted - t.failed
       << ", \"failed\": " << t.failed << "}";
    first = false;
  }
  os << "}, \"samples\": {";
  first = true;
  for (const std::vector<Metric>* list : {&end_to_end_, &layer_}) {
    for (const Metric& m : *list) {
      os << (first ? "" : ", ") << JsonString(m.name) << ": " << m.samples;
      first = false;
    }
  }
  os << "}, \"check_failures\": [";
  for (size_t i = 0; i < check_failures_.size(); ++i) {
    os << (i ? ", " : "") << JsonString(check_failures_[i]);
  }
  os << "]}}\n";

  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << std::max<int64_t>(attempted, 1)
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < shown.size(); ++i) {
    os << (i ? ", " : "") << JsonString(shown[i].name)
       << ": {\"value\": " << JsonNumber(shown[i].value)
       << ", \"unit\": " << JsonString(shown[i].unit) << "}";
  }
  os << "}}" << std::endl;
}

std::vector<fume::stream::StreamOp> WriteLog(const Inputs& in, int num_ops,
                                             int checkpoint_every,
                                             uint64_t seed) {
  fume::stream::WorkloadOptions w;
  w.num_ops = num_ops;
  w.insert_batch = 1;
  w.delete_batch = 1;
  w.delete_fraction = 0.4;
  w.checkpoint_every = checkpoint_every;
  w.seed = seed;
  auto log = fume::stream::SynthesizeOpLog(in.pool, in.train.num_rows(), w);
  if (!log.ok()) {
    std::cerr << "fumebench: op log: " << log.status().ToString() << "\n";
    std::exit(2);
  }
  return std::move(*log);
}

}  // namespace fumebench
