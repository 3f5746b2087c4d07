// Query-scoped cost attribution on top of the process-wide metrics
// registry (obs/metrics.h).
//
// A QueryScope is an RAII thread-local scope that captures, for one query
// (a FUME search, one stream op, one what-if evaluation...), the *deltas*
// of a declared set of counters/histograms plus wall time and thread-CPU
// time — while the same updates keep flowing into the cumulative global
// registry. The global registry answers "what has this process done"; a
// QueryScope answers "what did THIS request cost", which is the unit an
// admission controller or a per-tenant audit report reasons about.
//
// Mechanics: the scope installs itself as the calling thread's innermost
// hook (a thread-local pointer). Counter::Inc / Histogram::Record consult
// that pointer; tracked metrics add their delta into the scope (and into
// every enclosing scope — an outer scope's cost includes its inner
// scopes'), untracked ones fall through after a short pointer scan. When
// no scope is active the overhead is one thread-local load and a branch,
// preserving the "leave instrumentation permanently enabled" contract.
//
// Cross-thread attribution: util::ThreadPool captures the caller's active
// scope when a batch is published and attaches every participating worker
// to it for the duration of its chunk (internal::ScopeAttachGuard), so
// deltas accumulated inside BeginParallel/EndParallel regions land on the
// query that enqueued the work, and the workers' thread-CPU time is added
// to the query's cpu_seconds. Attribution never changes results: scopes
// only observe (top-k is byte-identical with scoping on or off, pinned by
// tests/query_scope_test.cc).
//
// Usage idiom (docs/observability.md):
//
//   obs::QueryScope scope("search");          // default tracked set
//   auto result = ExplainFairnessViolation(model, train, test, config);
//   obs::QueryCost cost = scope.Finish();
//   std::cout << cost.CompactString() << "\n";  // or cost.ToJson()

#ifndef FUME_OBS_QUERY_SCOPE_H_
#define FUME_OBS_QUERY_SCOPE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace fume {
namespace obs {

namespace internal {

/// Shared delta accumulator for one QueryScope. Workers attached through
/// the thread pool update it concurrently, so all deltas are relaxed
/// atomics; the owner reads them only after every ParallelFor it issued
/// has returned (the pool's completion barrier orders the writes).
struct ScopeHook {
  /// Upper bound on tracked metrics per scope; constructors drop extras.
  static constexpr int kMaxTracked = 48;

  int num_counters = 0;
  const Counter* counters[kMaxTracked] = {};
  std::atomic<int64_t> counter_deltas[kMaxTracked] = {};

  int num_histograms = 0;
  const Histogram* histograms[kMaxTracked] = {};
  std::atomic<int64_t> histogram_counts[kMaxTracked] = {};
  std::atomic<int64_t> histogram_sums[kMaxTracked] = {};

  /// Thread-CPU nanoseconds contributed by pool workers while attached
  /// (the owning thread's CPU is measured start-to-finish by QueryScope).
  std::atomic<int64_t> worker_cpu_ns{0};

  /// Enclosing scope on the owning thread (attribution chain).
  ScopeHook* parent = nullptr;
};

/// RAII attachment of a worker thread to a (possibly null) hook borrowed
/// from the enqueuing thread. Restores the worker's previous hook and
/// credits the worker's thread-CPU time to the hook chain on detach.
/// No-ops entirely when `hook` is null.
class ScopeAttachGuard {
 public:
  explicit ScopeAttachGuard(ScopeHook* hook);
  ~ScopeAttachGuard();

  ScopeAttachGuard(const ScopeAttachGuard&) = delete;
  ScopeAttachGuard& operator=(const ScopeAttachGuard&) = delete;

 private:
  ScopeHook* hook_;
  ScopeHook* saved_;
  int64_t cpu_start_ns_ = 0;
};

}  // namespace internal

/// One tracked metric's per-query delta.
struct QueryCounterDelta {
  std::string name;
  int64_t delta = 0;
};

struct QueryHistogramDelta {
  std::string name;
  int64_t count = 0;
  int64_t sum = 0;
};

/// The per-query cost report a QueryScope produces.
struct QueryCost {
  std::string label;
  double wall_seconds = 0.0;
  /// Thread-CPU seconds: the owning thread from scope start to Finish plus
  /// every pool worker's CPU while attached to this query. Can exceed
  /// wall_seconds on a multi-threaded query.
  double cpu_seconds = 0.0;
  /// Deltas of every tracked counter/histogram, in declaration order
  /// (zeros included — consumers decide what to elide).
  std::vector<QueryCounterDelta> counters;
  std::vector<QueryHistogramDelta> histograms;

  /// Delta of a named tracked counter, or 0 when not tracked.
  int64_t CounterDelta(const std::string& name) const;

  /// Retrain amplification: forest.unlearn.rows_retrained ÷
  /// forest.unlearn.rows_deleted — how many rows unlearning re-read per row
  /// it removed (DaRE's cost model). 0 unless both deltas are non-zero;
  /// the report formats print it only then.
  double RetrainAmplification() const;

  /// {"label":...,"wall_us":...,"cpu_us":...,"counters":{name:delta,...},
  /// "histograms":{name:{"count":...,"sum":...},...}} — zero deltas are
  /// elided so event-log lines stay small — plus "retrain_amplification"
  /// when it is non-zero.
  std::string ToJson() const;
  /// One human line: `wall 12.3ms cpu 18.0ms | name=delta ...` (nonzero
  /// deltas only), for CLI per-query reporting.
  std::string CompactString() const;
  /// Multi-line text form (one metric per line), for --query-cost.
  void PrintText(std::ostream& os) const;
};

/// \brief RAII query scope. See the file comment for semantics.
///
/// Scopes must be finished/destroyed in LIFO order per thread (they form
/// the attribution chain). Not copyable or movable: the registered hook
/// points into this object.
class QueryScope {
 public:
  /// Tracks DefaultCounters() and DefaultHistograms().
  explicit QueryScope(std::string label);
  /// Tracks an explicit set (names are registered on first use, exactly
  /// like GetCounter/GetHistogram). Extras beyond kMaxTracked are dropped.
  QueryScope(std::string label, const std::vector<std::string>& counter_names,
             const std::vector<std::string>& histogram_names = {});
  ~QueryScope();

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  /// Detaches the scope and returns the cost report. Subsequent calls
  /// return the same report; the destructor finishes implicitly.
  QueryCost Finish();

  /// The standard cost set: search evaluations, per-rule pruning hits,
  /// rowset-cache traffic, unlearning work (rows deleted, subtrees
  /// retrained, rows retrained, CoW nodes copied), delta-rescoring work,
  /// lattice rowset provenance, pool dispatch, and stream apply work —
  /// the counters a serving admission controller would bill per query.
  static const std::vector<std::string>& DefaultCounters();
  /// Default tracked histograms (per-evaluation row-set sizes).
  static const std::vector<std::string>& DefaultHistograms();

 private:
  std::string label_;
  std::vector<std::string> counter_names_;
  std::vector<std::string> histogram_names_;
  std::unique_ptr<internal::ScopeHook> hook_;
  int64_t wall_start_ns_ = 0;
  int64_t cpu_start_ns_ = 0;
  bool finished_ = false;
  QueryCost cost_;
};

}  // namespace obs
}  // namespace fume

#endif  // FUME_OBS_QUERY_SCOPE_H_
