// Audit phase: repeated FUME searches (ExplainWithRemoval) over the one
// trained model, at fume_cli's operating point. The traced variant wraps
// the DaRE removal method in a timing shim, replays every recorded doomed
// row set through forest's public calls, and diffs the obs work counters.

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "bench.h"
#include "core/removal_method.h"
#include "fairness/metrics.h"
#include "forest/prediction_cache.h"

namespace fumebench {
namespace {

using fume::ModelEval;
using fume::Result;
using fume::RowId;

/// Times every removal call from outside and records its row set and
/// answer for the replay.
class TimedRemoval : public fume::RemovalMethod {
 public:
  struct Call {
    double seconds = 0.0;
    std::vector<RowId> rows;
    double fairness = 0.0;
  };

  explicit TimedRemoval(fume::RemovalMethod* inner) : inner_(inner) {}

  Result<ModelEval> EvaluateWithout(const std::vector<RowId>& rows) override {
    return EvaluateWithoutOn(0, rows);
  }
  Result<ModelEval> EvaluateWithoutOn(int worker,
                                      const std::vector<RowId>& rows) override {
    const double start = NowSeconds();
    Result<ModelEval> eval = inner_->EvaluateWithoutOn(worker, rows);
    const double seconds = NowSeconds() - start;
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back({seconds, rows, eval.ok() ? eval->fairness : 0.0});
    return eval;
  }
  void BeginParallel(int num_workers) override {
    inner_->BeginParallel(num_workers);
  }
  void EndParallel() override { inner_->EndParallel(); }
  const char* name() const override { return inner_->name(); }

  const std::vector<Call>& calls() const { return calls_; }

 private:
  fume::RemovalMethod* inner_;
  std::mutex mu_;
  std::vector<Call> calls_;
};

struct Search {
  using Call = TimedRemoval::Call;
  double seconds = 0.0;
  std::string top_k;  // canonical top-k, for the identity check
  std::vector<Call> calls;
  fume::FumeResult result;
};

std::string CanonicalTopK(const fume::FumeResult& result,
                          const fume::Schema& schema) {
  std::string out;
  for (const fume::AttributableSubset& s : result.top_k) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %a %a %a|", s.attribution,
                  s.new_fairness, s.new_accuracy);
    out += s.predicate.ToString(schema) + buf;
  }
  return out;
}

/// One search over `inputs.model`; traced searches go through the shim.
bool RunSearch(const Inputs& in, bool traced, Search* out) {
  fume::UnlearnRemovalMethod unlearn(&in.model, &in.test, in.group,
                                     in.fume.metric);
  TimedRemoval timed(&unlearn);
  fume::RemovalMethod* removal =
      traced ? static_cast<fume::RemovalMethod*>(&timed) : &unlearn;
  const double start = NowSeconds();
  auto result =
      fume::ExplainWithRemoval(in.model, in.train, in.test, in.fume, removal);
  out->seconds = NowSeconds() - start;
  if (!result.ok()) {
    std::cerr << "search failed: " << result.status().ToString() << "\n";
    return false;
  }
  out->result = std::move(*result);
  out->top_k = CanonicalTopK(out->result, in.train.schema());
  out->calls = timed.calls();
  return true;
}

/// DaRE's exactness oracle: retraining on D minus S with the model's seed
/// must reproduce each reported subset's counterfactual bit for bit.
void CheckAgainstRetrain(const Inputs& in, const fume::FumeResult& result,
                         Report* report) {
  fume::RetrainRemovalMethod retrain(&in.train, &in.test, in.forest, in.group,
                                     in.fume.metric);
  for (const fume::AttributableSubset& s : result.top_k) {
    const std::vector<int32_t> matched = s.predicate.MatchingRows(in.train);
    const std::vector<RowId> rows(matched.begin(), matched.end());
    auto eval = retrain.EvaluateWithout(rows);
    const std::string name = s.predicate.ToString(in.train.schema());
    if (!eval.ok()) {
      report->CheckFailed(Phase::kAudit, "retrain oracle failed for " + name);
    } else if (!SameBits(eval->fairness, s.new_fairness) ||
               !SameBits(eval->accuracy, s.new_accuracy)) {
      report->CheckFailed(Phase::kAudit,
                          "unlearned fairness differs from retrain for " +
                              name);
    } else {
      report->Count(Phase::kAudit, 1);
    }
  }
}

/// Replays the recorded what-ifs of one search through the forest's
/// public calls, timing clone / delete / rescore / metric separately.
void Replay(const Inputs& in, const Search& search, Report* report) {
  fume::TestPredictionCache base;
  base.Rebuild(in.model, in.test);
  fume::DeletionScratch deletion;
  fume::TestPredictionCache::WhatIfScratch scratch;
  double clone_s = 0.0, delete_s = 0.0, rescore_s = 0.0, metric_s = 0.0;
  int64_t mismatches = 0;
  for (const Search::Call& call : search.calls) {
    const double t0 = NowSeconds();
    fume::DareForest what_if = in.model.Clone();
    const double t1 = NowSeconds();
    const fume::Status st = what_if.DeleteRows(call.rows, nullptr, &deletion);
    const double t2 = NowSeconds();
    // The same rescoring strategy UnlearnRemovalMethod picks.
    const bool arena = call.rows.size() >=
                       fume::UnlearnRemovalMethod::kArenaFullRescoreMinBatch;
    base.ScoreWhatIf(in.model, what_if, in.test, &scratch, arena);
    const double t3 = NowSeconds();
    const double fairness = fume::ComputeFairness(in.test, scratch.preds,
                                                  in.group, in.fume.metric);
    const double t4 = NowSeconds();
    clone_s += t1 - t0;
    delete_s += t2 - t1;
    rescore_s += t3 - t2;
    metric_s += t4 - t3;
    if (!st.ok() || !SameBits(fairness, call.fairness)) ++mismatches;
  }
  const int64_t n = static_cast<int64_t>(search.calls.size());
  const double per_call_ms = n == 0 ? 0.0 : 1000.0 / static_cast<double>(n);
  report->Layer("forest.whatif_clone_ms", clone_s * per_call_ms, "ms", n);
  report->Layer("forest.whatif_delete_ms", delete_s * per_call_ms, "ms", n);
  report->Layer("forest.whatif_rescore_ms", rescore_s * per_call_ms, "ms", n);
  report->Layer("fairness.metric_ms", metric_s * per_call_ms, "ms", n);
  double busy = 0.0;
  for (const Search::Call& call : search.calls) busy += call.seconds;
  report->Layer("core.replay.residual_s",
                busy - (clone_s + delete_s + rescore_s + metric_s), "s", n);
  if (mismatches > 0) {
    report->CheckFailed(Phase::kAudit,
                        std::to_string(mismatches) +
                            " replayed what-ifs differ from the recorded "
                            "fairness");
  } else {
    report->Count(Phase::kAudit, n);
  }
}

/// One search per step. Untraced searches measure search_s: on
/// audit-adult for the run's budget of search time, elsewhere a fixed
/// five (one at smoke size). A traced run starts with an untraced (cold)
/// search, a traced one and an untraced one, then alternates, so its
/// tracing overhead compares warm searches only.
class AuditRunner : public PhaseRunner {
 public:
  AuditRunner(const Options& options, Inputs& in, Report* report)
      : options_(options), in_(in), report_(report) {}

  double Progress() const override {
    if (options_.trace && steps_ < 3) return 0.0;
    if (options_.focus == Phase::kAudit) {
      return std::min(1.0, searching_s_ / options_.Budget(Phase::kAudit));
    }
    const int64_t searches = options_.smoke ? 1 : 5;
    const int64_t steps =
        options_.trace ? std::max<int64_t>(3, 2 * searches - 1) : searches;
    return std::min(1.0, static_cast<double>(steps_) /
                             static_cast<double>(steps));
  }

  void Step() override {
    const int64_t k = steps_++;
    const bool traced = options_.trace && (k == 1 || (k > 2 && k % 2 == 1));
    const double start = NowSeconds();
    if (k == 1) counters_ = CounterDiff();
    Search s;
    const bool ok = RunSearch(in_, traced, &s);
    if (k == 1) counters_.Stop();
    searching_s_ += NowSeconds() - start;
    report_->Count(Phase::kAudit, 1, ok ? 0 : 1);
    if (ok) (traced ? traced_ : plain_).push_back(std::move(s));
  }

  void Finish() override;

 private:
  const Options& options_;
  Inputs& in_;
  Report* report_;
  std::vector<Search> plain_, traced_;
  int64_t steps_ = 0;
  double searching_s_ = 0.0;
  CounterDiff counters_;  // around the first traced search
};

void AuditRunner::Finish() {
  if (plain_.empty() || (options_.trace && traced_.empty())) return;
  std::vector<double> plain_s, warm_s, traced_s;
  for (const Search& s : plain_) plain_s.push_back(s.seconds);
  for (const Search& s : traced_) traced_s.push_back(s.seconds);
  warm_s.assign(plain_s.begin() + (plain_s.size() > 1 ? 1 : 0),
                plain_s.end());
  report_->EndToEnd("search_s", Median(plain_s), "s",
                    static_cast<int64_t>(plain_s.size()));

  // Exactness: every search of the run reports the same top-k, and that
  // top-k matches the retrain oracle.
  const std::string& expected = plain_.front().top_k;
  for (const std::vector<Search>* list : {&plain_, &traced_}) {
    for (const Search& s : *list) {
      if (s.top_k != expected) {
        report_->CheckFailed(Phase::kAudit, "top-k differs between searches");
      }
    }
  }
  CheckAgainstRetrain(in_, plain_.front().result, report_);
  if (!options_.trace) return;

  // The traced search with the median wall time carries the ledger, so
  // busy_s + self_s is exactly its trace.search_s.
  std::vector<const Search*> by_time;
  for (const Search& s : traced_) by_time.push_back(&s);
  std::sort(by_time.begin(), by_time.end(),
            [](const Search* a, const Search* b) {
              return a->seconds < b->seconds;
            });
  const Search& median = *by_time[(by_time.size() - 1) / 2];
  std::vector<double> call_ms, rows;
  for (const Search::Call& c : median.calls) {
    call_ms.push_back(c.seconds * 1000.0);
    rows.push_back(static_cast<double>(c.rows.size()));
  }
  const int64_t calls = static_cast<int64_t>(median.calls.size());
  const double busy = Sum(call_ms) / 1000.0;
  report_->Layer("trace.search_s", median.seconds, "s", 1);
  report_->Layer("trace.search_untraced_s", Median(warm_s), "s",
                 static_cast<int64_t>(warm_s.size()));
  report_->Layer("trace.search_overhead",
                 Median(traced_s) / Median(warm_s) - 1.0, "ratio",
                 static_cast<int64_t>(traced_s.size()));
  report_->Layer("core.removal.calls", static_cast<double>(calls), "count",
                 1);
  report_->Layer("core.removal.busy_s", busy, "s", calls);
  report_->Layer("core.removal.call_p50_ms", Quantile(call_ms, 0.5), "ms",
                 calls);
  report_->Layer("core.removal.call_p99_ms", Quantile(call_ms, 0.99), "ms",
                 calls);
  report_->Layer("core.removal.rows_per_call", Mean(rows), "rows", calls);
  report_->Layer("core.search.self_s", median.seconds - busy, "s", 1);

  Replay(in_, median, report_);

  // Work counters of one search (the first traced one); they repeat
  // exactly for a seed.
  const char* kCounters[] = {
      "forest.unlearn.rows_deleted",     "forest.unlearn.rows_retrained",
      "forest.unlearn.subtrees_retrained", "forest.unlearn.cow_nodes_copied",
      "removal.unlearn.cow_rows_rescored", "removal.unlearn.arena_rescores",
      "lattice.rowset.derived",          "fume.rowset_cache.hit"};
  for (const char* name : kCounters) {
    report_->Layer(name, static_cast<double>(counters_.Counter(name)),
                   "count", 1);
  }
  const double deleted =
      static_cast<double>(counters_.Counter("forest.unlearn.rows_deleted"));
  const double retrained =
      static_cast<double>(counters_.Counter("forest.unlearn.rows_retrained"));
  report_->Layer("forest.retrain_amplification",
                 deleted > 0 ? retrained / deleted : 0.0, "ratio", 1);
  report_->Layer("core.whatif_over_train",
                 calls > 0 && in_.train_s > 0 ? busy / calls / in_.train_s
                                              : 0.0,
                 "ratio", calls);
  const double rescored = static_cast<double>(
      counters_.Counter("removal.unlearn.cow_rows_rescored"));
  const double scored = static_cast<double>(calls) *
                        static_cast<double>(in_.test.num_rows());
  report_->Layer("forest.rescore_fraction",
                 scored > 0 ? rescored / scored : 0.0, "ratio", calls);
}

}  // namespace

std::unique_ptr<PhaseRunner> MakeAudit(const Options& options, Inputs& in,
                                       Report* report) {
  return std::make_unique<AuditRunner>(options, in, report);
}

}  // namespace fumebench
