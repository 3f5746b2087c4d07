// Stream phase: right-to-be-forgotten write traffic on a StreamEngine —
// single-row inserts from a held-out pool and deletes of uniformly chosen
// live rows, with a checkpoint at stream::WorkloadOptions' default cadence
// (every 25 ops, as fume_stream), and a closing checkpoint that is then
// restored several times. Drift re-search is off, so no what-if runs here.
// The traced variant applies a fixed number of ops (its counter deltas
// repeat exactly for a seed) and replays them on a bare DareForest to split
// each Apply into the forest call and the engine's own work.

#include <algorithm>
#include <map>

#include "bench.h"
#include "fairness/metrics.h"
#include "stream/workload.h"

namespace fumebench {
namespace {

using fume::stream::OpKind;
using fume::stream::StreamEngine;
using fume::stream::StreamOp;

/// The restored engine must serve exactly what the live one serves.
void CheckRestored(const StreamEngine& live, const StreamEngine& restored,
                   Report* report) {
  const bool same =
      restored.last_seq() == live.last_seq() &&
      SameBits(restored.current_metric(), live.current_metric()) &&
      SameBits(restored.current_accuracy(), live.current_accuracy()) &&
      restored.live_ids() == live.live_ids() &&
      restored.prediction_cache().predictions() ==
          live.prediction_cache().predictions() &&
      restored.forest().StructurallyEquals(live.forest());
  if (same) {
    report->Count(Phase::kStream, 1);
  } else {
    report->CheckFailed(Phase::kStream, "restored engine differs from live");
  }
}

/// DaRE exactness: the engine's model equals a cold DareForest::Train on
/// the surviving rows — predictions, metric and accuracy bit for bit.
void CheckAgainstColdTrain(const Inputs& in, const StreamEngine& engine,
                           Report* report) {
  auto cold = fume::DareForest::Train(engine.train_data(), in.forest);
  if (!cold.ok()) {
    report->CheckFailed(Phase::kStream, "cold train failed");
    return;
  }
  const fume::Dataset& test = engine.test_data();
  const bool same =
      cold->PredictProbAll(test) == engine.forest().PredictProbAll(test) &&
      SameBits(fume::ComputeFairness(*cold, test, in.group, in.fume.metric),
               engine.current_metric()) &&
      SameBits(cold->Accuracy(test), engine.current_accuracy());
  if (same) {
    report->Count(Phase::kStream, 1);
  } else {
    report->CheckFailed(Phase::kStream,
                        "engine model differs from a cold retrain");
  }
}

class StreamRunner : public PhaseRunner {
 public:
  StreamRunner(const Options& options, Inputs& in, Report* report)
      : options_(options),
        in_(in),
        report_(report),
        engine_(*in.engine),
        // Several times the ops a run applies (8,000-12,000 in 25 s on a
        // 4-vCPU Xeon); the pool holds more rows than the log inserts.
        log_(WriteLog(in, options.smoke ? 1500 : 50000,
                      fume::stream::WorkloadOptions{}.checkpoint_every,
                      options.seed * 7 + 3)) {}

  double Progress() const override {
    if (closed_) return 1.0;
    return options_.trace
               ? static_cast<double>(ops_) / static_cast<double>(TracedOps())
               : op_phase_s_ / options_.Budget(Phase::kStream);
  }
  void Step() override;
  void Finish() override;

 private:
  /// A traced run applies a fixed number of ops, so its counter deltas
  /// repeat exactly for a seed.
  int64_t TracedOps() const {
    if (options_.smoke) return 200;
    return options_.focus == Phase::kStream ? 4000 : 1500;
  }
  /// Applies one op, timing it into the per-kind samples.
  bool Apply(const StreamOp& op);
  /// The closing checkpoint, then restores of it.
  void Close();

  const Options& options_;
  Inputs& in_;
  Report* report_;
  StreamEngine& engine_;
  const std::vector<StreamOp> log_;
  int64_t ops_ = 0;
  bool ok_ = true;
  bool closed_ = false;
  double op_phase_s_ = 0.0;  // wall time of the op slices
  std::vector<double> write_ms_, insert_ms_, delete_ms_, checkpoint_ms_,
      restore_s_;
  std::vector<StreamOp> writes_;  // traced: replayed on a bare forest
  // Work counter deltas summed over the op slices (the audit phase's
  // searches between them move the same forest counters).
  std::map<std::string, int64_t> counts_;
};

bool StreamRunner::Apply(const StreamOp& op) {
  const double t0 = NowSeconds();
  auto outcome = engine_.Apply(op);
  const double ms = (NowSeconds() - t0) * 1000.0;
  ++ops_;
  report_->Count(Phase::kStream, 1, outcome.ok() ? 0 : 1);
  if (!outcome.ok()) {
    std::cerr << "stream op failed: " << outcome.status().ToString() << "\n";
    return false;
  }
  switch (op.kind) {
    case OpKind::kCheckpoint:
      checkpoint_ms_.push_back(ms);
      return true;
    case OpKind::kInsert:
      insert_ms_.push_back(ms);
      break;
    case OpKind::kDelete:
      delete_ms_.push_back(ms);
      break;
  }
  write_ms_.push_back(ms);
  if (options_.trace) writes_.push_back(op);
  return true;
}

void StreamRunner::Step() {
  constexpr double kSliceSeconds = 0.5;
  constexpr int64_t kTracedSliceOps = 100;
  // The log's last op is its own closing checkpoint; stop one short of it.
  const int64_t available = static_cast<int64_t>(log_.size()) - 1;
  const int64_t slice_end = ops_ + kTracedSliceOps;
  CounterDiff counters;
  const double start = NowSeconds();
  while (ok_ && ops_ < available &&
         (options_.trace ? ops_ < std::min(slice_end, TracedOps())
                         : NowSeconds() - start < kSliceSeconds)) {
    ok_ = Apply(log_[static_cast<size_t>(ops_)]);
  }
  op_phase_s_ += NowSeconds() - start;
  if (!ok_ || ops_ >= available || Progress() >= 1.0) {
    // A closing checkpoint, so the restores see the final state.
    const double t0 = NowSeconds();
    if (ok_) ok_ = Apply(StreamOp::Checkpoint(engine_.last_seq() + 1));
    op_phase_s_ += NowSeconds() - t0;
    closed_ = true;
  }
  counters.Stop();
  for (const char* name :
       {"stream.predcache.trees_refreshed", "stream.predcache.trees_rewalked",
        "forest.unlearn.rows_retrained"}) {
    counts_[name] += counters.Counter(name);
  }
  if (closed_) Close();
}

void StreamRunner::Close() {
  std::optional<StreamEngine> restored;
  for (int rep = 0; ok_ && rep < 5; ++rep) {
    restored.reset();
    const double t0 = NowSeconds();
    auto r = StreamEngine::RestoreFromFile(in_.engine_config.checkpoint_path,
                                           in_.train.schema(), in_.test,
                                           in_.engine_config);
    restore_s_.push_back(NowSeconds() - t0);
    report_->Count(Phase::kStream, 1, r.ok() ? 0 : 1);
    if (!r.ok()) {
      std::cerr << "restore failed: " << r.status().ToString() << "\n";
      ok_ = false;
    } else {
      restored.emplace(std::move(*r));
    }
  }
  if (restored.has_value()) CheckRestored(engine_, *restored, report_);
}

void StreamRunner::Finish() {
  const int64_t n_writes = static_cast<int64_t>(write_ms_.size());
  report_->EndToEnd("op_p50_ms", Quantile(write_ms_, 0.5), "ms", n_writes);
  report_->EndToEnd("ops_per_s", static_cast<double>(ops_) / op_phase_s_,
                    "op/s", ops_);
  CheckAgainstColdTrain(in_, engine_, report_);
  if (!ok_) report_->CheckFailed(Phase::kStream, "op phase stopped early");
  if (!options_.trace) return;

  report_->Layer("trace.op_p50_ms", Quantile(write_ms_, 0.5), "ms", n_writes);
  // The tail swings with the host's load beyond any end-to-end bound.
  report_->Layer("stream.op_p99_ms", Quantile(write_ms_, 0.99), "ms",
                 n_writes);
  report_->Layer("stream.restore_s", Median(restore_s_), "s",
                 static_cast<int64_t>(restore_s_.size()));
  const int64_t n_ins = static_cast<int64_t>(insert_ms_.size());
  const int64_t n_del = static_cast<int64_t>(delete_ms_.size());
  report_->Layer("stream.insert_p50_ms", Quantile(insert_ms_, 0.5), "ms",
                 n_ins);
  report_->Layer("stream.insert_p99_ms", Quantile(insert_ms_, 0.99), "ms",
                 n_ins);
  report_->Layer("stream.delete_p50_ms", Quantile(delete_ms_, 0.5), "ms",
                 n_del);
  report_->Layer("stream.delete_p99_ms", Quantile(delete_ms_, 0.99), "ms",
                 n_del);
  report_->Layer("stream.checkpoint_ms", Quantile(checkpoint_ms_, 0.5), "ms",
                 static_cast<int64_t>(checkpoint_ms_.size()));
  for (const char* name : {"stream.predcache.trees_refreshed",
                           "stream.predcache.trees_rewalked"}) {
    report_->Layer(name, static_cast<double>(counts_[name]), "count", 1);
  }
  const double retrained =
      static_cast<double>(counts_["forest.unlearn.rows_retrained"]);
  report_->Layer("forest.rows_retrained_per_delete",
                 n_del > 0 ? retrained / static_cast<double>(n_del) : 0.0,
                 "rows", n_del);

  // Replay the same writes on a bare forest (the audited model, trained on
  // the same rows with the same config) to time the forest's share.
  fume::DareForest& bare = in_.model;
  fume::DeletionScratch scratch;
  std::vector<double> add_ms, del_ms, self_ms;
  bool ok = true;
  for (size_t i = 0; i < writes_.size(); ++i) {
    const StreamOp& op = writes_[i];
    double ms = 0.0;
    if (op.kind == OpKind::kInsert) {
      fume::Dataset batch(in_.train.schema());
      for (const auto& row : op.rows) {
        if (!batch.AppendRow(row.codes, row.label).ok()) ok = false;
      }
      const double t0 = NowSeconds();
      auto ids = bare.AddData(batch, nullptr, &scratch);
      ms = (NowSeconds() - t0) * 1000.0;
      if (!ids.ok()) ok = false;
      add_ms.push_back(ms);
    } else {
      const double t0 = NowSeconds();
      const fume::Status st = bare.DeleteRows(op.row_ids, nullptr, &scratch);
      ms = (NowSeconds() - t0) * 1000.0;
      if (!st.ok()) ok = false;
      del_ms.push_back(ms);
    }
    self_ms.push_back(write_ms_[i] - ms);
  }
  // The replay must have rebuilt the engine's model, or it timed other work.
  if (bare.PredictProbAll(in_.test) !=
      engine_.forest().PredictProbAll(in_.test)) {
    ok = false;
  }
  if (!ok) report_->CheckFailed(Phase::kStream, "bare forest replay failed");
  report_->Layer("forest.add_ms", Quantile(add_ms, 0.5), "ms",
                 static_cast<int64_t>(add_ms.size()));
  report_->Layer("forest.delete_ms", Quantile(del_ms, 0.5), "ms",
                 static_cast<int64_t>(del_ms.size()));
  report_->Layer("stream.self_ms", Quantile(self_ms, 0.5), "ms",
                 static_cast<int64_t>(self_ms.size()));
}

}  // namespace

std::unique_ptr<PhaseRunner> MakeStream(const Options& options, Inputs& in,
                                        Report* report) {
  return std::make_unique<StreamRunner>(options, in, report);
}

}  // namespace fumebench
