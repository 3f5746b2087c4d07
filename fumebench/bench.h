// Shared declarations of the end-to-end FUME benchmark (fumebench/README.md).
//
// One run builds the adult-income inputs from the workload seed, sets up the
// audited model, a StreamEngine and, on serve-adult and traced runs, an
// in-process serve::Server, then drives its phases through the library's
// public entry points:
//
//   audit   repeated ExplainWithRemoval searches over one trained model
//   stream  single-row StreamEngine::Apply traffic, checkpoints, restores
//   serve   closed-loop loopback clients against the Server's tenant
//
// The workload names the phase that gets the run's measuring time; the
// audit and stream phases otherwise run a short fixed slice, so every
// end-to-end metric has a value on every workload. All timings are taken
// here, around the calls into each layer; work counts are diffs of the
// library's own obs counters.

#ifndef FUMEBENCH_BENCH_H_
#define FUMEBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "core/fume.h"
#include "data/dataset.h"
#include "forest/forest.h"
#include "obs/metrics.h"
#include "serve/server.h"
#include "stream/engine.h"

namespace fumebench {

enum class Phase { kAudit, kStream, kServe };

const char* PhaseName(Phase phase);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measuring time of the workload's own phase.
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs and budgets: a crash and completeness tripwire.
  bool smoke = false;
  /// Directory for the run's scratch files (stream checkpoint).
  std::string workdir = ".";
  Phase focus = Phase::kAudit;

  /// Seconds a time-bounded phase measures for: the full budget for the
  /// workload's own phase, a short fixed slice otherwise.
  double Budget(Phase phase) const;
};

/// splitmix64: a small deterministic generator, identical on every platform
/// (std:: distributions are not), so a seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);
double Sum(const std::vector<double>& values);

/// Bit-for-bit double equality (distinguishes -0.0 and compares NaNs).
bool SameBits(double a, double b);

/// Counter / histogram deltas between two registry snapshots.
class CounterDiff {
 public:
  CounterDiff() : before_(fume::obs::MetricsRegistry::Global().Snapshot()) {}
  void Stop() { after_ = fume::obs::MetricsRegistry::Global().Snapshot(); }
  int64_t Counter(const std::string& name) const;
  /// (delta count, delta sum) of a histogram.
  std::pair<int64_t, int64_t> Histogram(const std::string& name) const;

 private:
  fume::obs::MetricsSnapshot before_;
  fume::obs::MetricsSnapshot after_;
};

/// Everything a run reports: metrics with units and sample counts,
/// per-phase attempted/failed accounting and exactness-check failures.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                int64_t samples);
  void Layer(const std::string& name, double value, const std::string& unit,
             int64_t samples);
  /// Counts `n` attempted operations of a phase, `failed` of which failed.
  void Count(Phase phase, int64_t attempted, int64_t failed = 0);
  /// Records a failed exactness check: one failed operation, and the run
  /// is no longer correct.
  void CheckFailed(Phase phase, const std::string& what);
  void Note(const std::string& key, const std::string& value);

  bool correct() const { return check_failures_.empty(); }
  /// Human-readable summary, one JSON report line (machine, inputs,
  /// accounting, samples), then the final JSON result line.
  void Print(std::ostream& os, bool trace) const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t samples = 0;
  };
  struct Tally {
    int64_t attempted = 0;
    int64_t failed = 0;
  };
  std::vector<Metric> end_to_end_;
  std::vector<Metric> layer_;
  std::map<std::string, Tally> tallies_;
  std::vector<std::string> check_failures_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// The run's inputs and long-lived systems, built by Setup().
struct Inputs {
  std::string dataset;
  fume::GroupSpec group;
  fume::Dataset train;
  fume::Dataset test;
  /// Held-out rows the stream and serve phases insert, in order.
  fume::Dataset pool;
  fume::ForestConfig forest;
  /// The audit search configuration (one search thread).
  fume::FumeConfig fume;
  fume::stream::StreamEngineConfig engine_config;
  /// The audited model: DareForest::Train on `train`.
  fume::DareForest model;
  std::optional<fume::stream::StreamEngine> engine;
  std::unique_ptr<fume::serve::Server> server;
  /// Median DareForest::Train time of the set-up repetitions.
  double train_s = 0.0;
  /// FNV-1a hash of every generated input the program receives.
  uint64_t fingerprint = 0;
};

constexpr const char* kTenant = "adult";

/// Generates the inputs from the seed and sets everything up several
/// times, reporting the median set-up time (setup_s) and its parts.
Inputs Setup(const Options& options, Report* report);

/// Drives one phase: Step() applies the next slice of its measured load
/// until Progress() reaches 1, Finish() runs its checks and reports its
/// metrics. The audit and stream phases take turns by progress, so each
/// one's samples spread over the whole run and a slow spell of the shared
/// host weighs on both alike; the concurrent serve phase runs after them,
/// alone. Every phase runs before any finishes, so the checks' work —
/// retrain oracles, replays, probes — never sits between measured slices.
/// Finish() keeps that order too: the stream phase's traced replay reuses
/// the audited model once the audit phase is done with it.
class PhaseRunner {
 public:
  virtual ~PhaseRunner() = default;
  /// Share of the phase's load applied, in [0, 1].
  virtual double Progress() const = 0;
  virtual void Step() = 0;
  virtual void Finish() = 0;
};

std::unique_ptr<PhaseRunner> MakeAudit(const Options& options, Inputs& inputs,
                                       Report* report);
std::unique_ptr<PhaseRunner> MakeStream(const Options& options,
                                        Inputs& inputs, Report* report);
std::unique_ptr<PhaseRunner> MakeServe(const Options& options, Inputs& inputs,
                                       Report* report);

/// Single-row write traffic from stream::SynthesizeOpLog against the
/// training split's ids: inserts of the pool's rows in order, deletes
/// (probability 0.4) of uniformly chosen live rows, a checkpoint every
/// `checkpoint_every` ops (0: only the log's last op). `num_ops` bounds a
/// phase's traffic from above; the phase stops when its time is up.
std::vector<fume::stream::StreamOp> WriteLog(const Inputs& in, int num_ops,
                                             int checkpoint_every,
                                             uint64_t seed);

}  // namespace fumebench

#endif  // FUMEBENCH_BENCH_H_
