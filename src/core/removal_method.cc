#include "core/removal_method.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fume {

UnlearnRemovalMethod::UnlearnRemovalMethod(const DareForest* model,
                                           const Dataset* test,
                                           GroupSpec group,
                                           FairnessMetric metric)
    : UnlearnRemovalMethod(model, test, group, metric, Options{}) {}

UnlearnRemovalMethod::UnlearnRemovalMethod(const DareForest* model,
                                           const Dataset* test,
                                           GroupSpec group,
                                           FairnessMetric metric,
                                           Options options)
    : model_(model),
      test_(test),
      group_(group),
      metric_(metric),
      options_(options) {}

UnlearnRemovalMethod::Worker& UnlearnRemovalMethod::WorkerSlot(int worker) {
  FUME_CHECK_GE(worker, 0);
  if (!in_parallel_ && static_cast<size_t>(worker) >= workers_.size()) {
    // Use without a BeginParallel bracket: grow on demand — safe because
    // serial_mutex_ serializes the whole non-bracketed evaluation. Inside a
    // bracket the slots are pre-sized, so growth (a data race) cannot occur.
    workers_.resize(static_cast<size_t>(worker) + 1);
  }
  FUME_CHECK(static_cast<size_t>(worker) < workers_.size());
  auto& slot = workers_[static_cast<size_t>(worker)];
  if (slot == nullptr) slot = std::make_unique<Worker>();
  return *slot;
}

const TestPredictionCache& UnlearnRemovalMethod::BaseCache() {
  // Seeded lazily at the first CoW evaluation: one full prediction pass
  // over the base model, amortized across every subsequent what-if.
  std::call_once(base_cache_once_,
                 [this] { base_cache_.Rebuild(*model_, *test_); });
  return base_cache_;
}

void UnlearnRemovalMethod::BeginParallel(int num_workers) {
  FUME_CHECK_GE(num_workers, 1);
  FUME_CHECK(!in_parallel_);
  if (workers_.size() < static_cast<size_t>(num_workers)) {
    workers_.resize(static_cast<size_t>(num_workers));
  }
  for (auto& slot : workers_) {
    if (slot == nullptr) slot = std::make_unique<Worker>();
  }
  if (options_.read_only) BaseCache();  // seed before threads fan out
  in_parallel_ = true;
}

void UnlearnRemovalMethod::EndParallel() {
  FUME_CHECK(in_parallel_);
  in_parallel_ = false;
  // The level barrier has passed: merge the contention-free per-worker
  // accumulators in slot order (deterministic, no per-evaluation mutex).
  for (auto& slot : workers_) {
    if (slot == nullptr) continue;
    deletion_stats_.Add(slot->stats);
    slot->stats = DeletionStats{};
  }
}

Result<ModelEval> UnlearnRemovalMethod::EvaluateWithout(
    const std::vector<RowId>& rows) {
  return EvaluateWithoutOn(0, rows);
}

Result<ModelEval> UnlearnRemovalMethod::EvaluateWithoutOn(
    int worker, const std::vector<RowId>& rows) {
  if (!in_parallel_) {
    // Outside a BeginParallel bracket every caller resolves to the same
    // worker slot, so the interface's "safe to call concurrently" promise
    // is kept by serializing the whole evaluation. The bracketed path
    // (distinct worker ids, slots pre-sized, stats merged at EndParallel)
    // never takes this lock.
    std::lock_guard<std::mutex> lock(serial_mutex_);
    return EvaluateOnSlot(worker, rows);
  }
  return EvaluateOnSlot(worker, rows);
}

Result<ModelEval> UnlearnRemovalMethod::EvaluateOnSlot(
    int worker, const std::vector<RowId>& rows) {
  static obs::Counter* evals = obs::GetCounter("removal.unlearn.evaluations");
  static obs::Histogram* rows_hist =
      obs::GetHistogram("removal.unlearn.rows_per_evaluation");
  static obs::Counter* cow_evals =
      obs::GetCounter("removal.unlearn.cow_evaluations");
  static obs::Counter* cow_rows_rescored =
      obs::GetCounter("removal.unlearn.cow_rows_rescored");
  evals->Inc();
  rows_hist->Record(static_cast<int64_t>(rows.size()));
  obs::TraceSpan span("removal.unlearn.evaluate",
                      {{"rows", static_cast<int64_t>(rows.size())}});
  Worker& w = WorkerSlot(worker);

  ModelEval eval;
  const std::vector<int>* preds = nullptr;
  std::vector<int> full_preds;
  if (options_.read_only) {
    cow_evals->Inc();
    // Read-only: the base forest is scored as if the rows were unlearned,
    // re-taking split decisions on scratch stats and rescoring only test
    // rows under a changed leaf or flipped split.
    FUME_RETURN_NOT_OK(
        BaseCache().ScoreWithout(*model_, rows, *test_, &w.scratch));
    w.stats.Add(w.scratch.stats);
    cow_rows_rescored->Inc(w.scratch.rows_rescored);
    preds = &w.scratch.preds;
  } else {
    // The deep-copy leg is the seed reference path: keep it on the
    // pointer walk so strategy-identity checks diff two independent
    // traversal implementations.
    DareForest what_if = model_->DeepClone();
    // A what-if delete is scored immediately, so deferring its retrains
    // would only add tag bookkeeping on top of the same rebuild work.
    if (what_if.config().lazy_unlearn) what_if.SetLazyUnlearn(false);
    FUME_RETURN_NOT_OK(
        what_if.DeleteRows(rows, /*per_tree=*/nullptr, &w.unlearn_scratch));
    w.stats.Add(what_if.deletion_stats());
    full_preds = what_if.PredictAllPointer(*test_);
    preds = &full_preds;
  }
  eval.fairness = ComputeFairness(*test_, *preds, group_, metric_);
  int64_t correct = 0;
  for (int64_t r = 0; r < test_->num_rows(); ++r) {
    if ((*preds)[static_cast<size_t>(r)] == test_->Label(r)) ++correct;
  }
  eval.accuracy = test_->num_rows() == 0
                      ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(test_->num_rows());
  if (!in_parallel_) {
    deletion_stats_.Add(w.stats);
    w.stats = DeletionStats{};
  }
  return eval;
}

RetrainRemovalMethod::RetrainRemovalMethod(const Dataset* train,
                                           const Dataset* test,
                                           ForestConfig config,
                                           GroupSpec group,
                                           FairnessMetric metric)
    : train_(train),
      test_(test),
      config_(config),
      group_(group),
      metric_(metric) {}

Result<ModelEval> RetrainRemovalMethod::EvaluateWithout(
    const std::vector<RowId>& rows) {
  static obs::Counter* evals = obs::GetCounter("removal.retrain.evaluations");
  evals->Inc();
  obs::TraceSpan span("removal.retrain.evaluate",
                      {{"rows", static_cast<int64_t>(rows.size())}});
  std::vector<int64_t> to_drop(rows.begin(), rows.end());
  const Dataset reduced = train_->DropRows(to_drop);
  FUME_ASSIGN_OR_RETURN(DareForest model, DareForest::Train(reduced, config_));
  ModelEval eval;
  eval.fairness = ComputeFairness(model, *test_, group_, metric_);
  eval.accuracy = model.Accuracy(*test_);
  return eval;
}

}  // namespace fume
