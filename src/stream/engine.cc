#include "stream/engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "forest/serialize.h"

#include "core/removal_method.h"
#include "core/sharded_removal.h"
#include "fairness/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/byte_io.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace fume {
namespace stream {

namespace {

// ---- obs shorthands (docs/observability.md naming scheme).
struct StreamMetrics {
  obs::Counter* ops = obs::GetCounter("stream.ops.applied");
  obs::Counter* inserts = obs::GetCounter("stream.ops.inserts");
  obs::Counter* deletes = obs::GetCounter("stream.ops.deletes");
  obs::Counter* checkpoints = obs::GetCounter("stream.ops.checkpoints");
  obs::Counter* rows_added = obs::GetCounter("stream.rows.inserted");
  obs::Counter* rows_deleted = obs::GetCounter("stream.rows.deleted");
  obs::Counter* searches = obs::GetCounter("stream.search.triggered");
  obs::Counter* drift_holds = obs::GetCounter("stream.search.drift_held");
  obs::Counter* saves = obs::GetCounter("stream.checkpoint.saved");
  obs::Counter* restores = obs::GetCounter("stream.checkpoint.restored");
  obs::Gauge* staleness = obs::GetGauge("stream.topk.staleness_ops");
  obs::Gauge* live = obs::GetGauge("stream.rows.live");
  obs::Histogram* apply_us = obs::GetHistogram("stream.op.apply_us");

  static StreamMetrics& Get() {
    static StreamMetrics metrics;
    return metrics;
  }
};

/// The engine's removal method: FUME hands it dense indices into
/// train_data(); it forwards the corresponding engine ids (training-store
/// ids, or global ids on the sharded path) to the wrapped unlearning
/// method over the streaming model. Thread-safe like the inner method
/// (the map is read-only during a search).
class MappedRemoval : public RemovalMethod {
 public:
  MappedRemoval(RemovalMethod* inner, const char* name,
                const std::vector<RowId>* dense_to_id)
      : inner_(inner), name_(name), dense_to_id_(dense_to_id) {}

  Result<ModelEval> EvaluateWithout(const std::vector<RowId>& rows) override {
    return EvaluateWithoutOn(0, rows);
  }
  Result<ModelEval> EvaluateWithoutOn(
      int worker, const std::vector<RowId>& rows) override {
    std::vector<RowId> mapped(rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      const size_t dense = static_cast<size_t>(rows[i]);
      if (dense >= dense_to_id_->size()) {
        return Status::IndexError("dense row " + std::to_string(rows[i]) +
                                  " out of live range");
      }
      mapped[i] = (*dense_to_id_)[dense];
    }
    return inner_->EvaluateWithoutOn(worker, mapped);
  }
  void BeginParallel(int num_workers) override {
    inner_->BeginParallel(num_workers);
  }
  void EndParallel() override { inner_->EndParallel(); }
  const char* name() const override { return name_; }

 private:
  RemovalMethod* inner_;
  const char* name_;
  const std::vector<RowId>* dense_to_id_;
};

// ---- checkpoint format (little-endian native, like forest/serialize).

constexpr char kCkptMagic[8] = {'F', 'U', 'M', 'E', 'S', 'T', 'R', 'M'};
/// v1: engine state + one monolithic SaveForest blob. v2: identical engine
/// state block, then a ShardedForest container (shard config + placement
/// maps + one independent forest blob per shard) instead of the single
/// forest — written incrementally, re-serializing only dirty shards.
constexpr uint32_t kCkptVersion = 1;
constexpr uint32_t kCkptVersionSharded = 2;

void WriteSubset(ByteWriter& out, const AttributableSubset& s) {
  out.Pod<uint32_t>(static_cast<uint32_t>(s.predicate.num_literals()));
  for (const Literal& lit : s.predicate.literals()) {
    out.Pod<int32_t>(lit.attr);
    out.Pod<uint8_t>(static_cast<uint8_t>(lit.op));
    out.Pod<int32_t>(lit.value);
  }
  out.Pod<double>(s.support);
  out.Pod<int64_t>(s.num_rows);
  out.Pod<double>(s.phi);
  out.Pod<double>(s.attribution);
  out.Pod<double>(s.new_fairness);
  out.Pod<double>(s.new_accuracy);
}

Result<AttributableSubset> ReadSubset(ByteReader& in) {
  uint32_t num_literals = 0;
  if (!in.Pod(&num_literals) || num_literals > 64) {
    return Status::IOError("checkpoint: bad literal count");
  }
  std::vector<Literal> literals;
  literals.reserve(num_literals);
  for (uint32_t i = 0; i < num_literals; ++i) {
    Literal lit;
    uint8_t op = 0;
    if (!in.Pod(&lit.attr) || !in.Pod(&op) || !in.Pod(&lit.value)) {
      return Status::IOError("checkpoint: truncated literal");
    }
    if (op > static_cast<uint8_t>(LiteralOp::kGt)) {
      return Status::IOError("checkpoint: bad literal operator");
    }
    lit.op = static_cast<LiteralOp>(op);
    literals.push_back(lit);
  }
  AttributableSubset s;
  s.predicate = Predicate(std::move(literals));
  if (!in.Pod(&s.support) || !in.Pod(&s.num_rows) || !in.Pod(&s.phi) ||
      !in.Pod(&s.attribution) || !in.Pod(&s.new_fairness) ||
      !in.Pod(&s.new_accuracy)) {
    return Status::IOError("checkpoint: truncated subset record");
  }
  return s;
}

}  // namespace

bool DriftPolicy::ShouldSearch(double last, double now) const {
  const double drift = std::fabs(now - last);
  if (drift >= abs_threshold) return true;
  const double base = std::fabs(last);
  return base > 0.0 && drift >= rel_threshold * base;
}

StreamEngine::StreamEngine(Dataset test, StreamEngineConfig config)
    : test_(std::move(test)), config_(std::move(config)) {}

Result<StreamEngine> StreamEngine::Create(const Dataset& initial_train,
                                          Dataset test,
                                          StreamEngineConfig config) {
  if (initial_train.num_rows() >
      static_cast<int64_t>(std::numeric_limits<RowId>::max())) {
    return Status::Invalid("initial training set too large for RowId");
  }
  obs::TraceSpan span("stream.engine.create",
                      {{"rows", initial_train.num_rows()}});
  StreamEngine engine(std::move(test), std::move(config));
  if (engine.config_.shard.num_shards > 1) {
    FUME_ASSIGN_OR_RETURN(
        ShardedForest sharded,
        ShardedForest::Train(initial_train, engine.config_.forest,
                             engine.config_.shard, engine.MaybePool()));
    engine.sharded_.emplace(std::move(sharded));
    engine.ckpt_dirty_.assign(
        static_cast<size_t>(engine.sharded_->num_shards()), true);
  } else {
    FUME_ASSIGN_OR_RETURN(engine.forest_, DareForest::Train(
                                              initial_train,
                                              engine.config_.forest));
  }
  engine.train_data_ = initial_train;
  engine.store_ids_.resize(static_cast<size_t>(initial_train.num_rows()));
  for (int64_t r = 0; r < initial_train.num_rows(); ++r) {
    engine.store_ids_[static_cast<size_t>(r)] = static_cast<RowId>(r);
  }
  if (engine.sharded_.has_value()) {
    engine.shard_cache_.Rebuild(*engine.sharded_, engine.test_);
  } else {
    engine.cache_.Rebuild(engine.forest_, engine.test_);
  }
  engine.ResetMetric();
  FUME_RETURN_NOT_OK(engine.RunSearch());
  return engine;
}

util::ThreadPool* StreamEngine::MaybePool() {
  if (config_.fume.num_threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<util::ThreadPool>(config_.fume.num_threads);
  }
  return pool_.get();
}

std::vector<std::vector<bool>> StreamEngine::FoldShardDirty(
    const std::vector<std::vector<DeletionStats>>& per_shard) {
  const size_t n = per_shard.size();
  std::vector<std::vector<bool>> dirty(n);
  shard_lazy_dirty_.resize(n);
  if (ckpt_dirty_.size() < n) ckpt_dirty_.resize(n, true);
  for (size_t s = 0; s < n; ++s) {
    const auto& per_tree = per_shard[s];
    if (!per_tree.empty()) {
      // The op touched this shard: its serialized bytes changed (store
      // rows and/or node stats), so the next incremental checkpoint must
      // re-serialize it even if no tree needs a cache re-walk.
      ckpt_dirty_[s] = true;
      dirty[s].assign(per_tree.size(), false);
      for (size_t t = 0; t < per_tree.size(); ++t) {
        dirty[s][t] = per_tree[t].subtrees_retrained > 0 ||
                      per_tree[t].nodes_copied > 0;
      }
    }
    auto& lazy = shard_lazy_dirty_[s];
    if (!lazy.empty()) {
      if (dirty[s].empty()) dirty[s].assign(lazy.size(), false);
      FUME_CHECK_EQ(lazy.size(), dirty[s].size());
      for (size_t t = 0; t < lazy.size(); ++t) {
        if (lazy[t]) dirty[s][t] = true;
      }
      lazy.clear();
    }
  }
  return dirty;
}

void StreamEngine::ResetMetric() {
  const std::vector<int>& preds = sharded_.has_value()
                                      ? shard_cache_.predictions()
                                      : cache_.predictions();
  confusion_ = ComputeGroupConfusion(test_, preds, config_.fume.group);
  correct_ = 0;
  for (int64_t r = 0; r < test_.num_rows(); ++r) {
    if (preds[static_cast<size_t>(r)] == test_.Label(r)) ++correct_;
  }
  PublishMetric();
}

void StreamEngine::ApplyFlips(const std::vector<int32_t>& flipped,
                              const std::vector<int>& preds) {
  for (const int32_t r : flipped) {
    const int label = test_.Label(r);
    const int now = preds[static_cast<size_t>(r)];
    Confusion& c = confusion_.Of(test_, r, config_.fume.group);
    c.Remove(label, 1 - now);
    c.Add(label, now);
    correct_ += now == label ? 1 : -1;
  }
  PublishMetric();
}

void StreamEngine::PublishMetric() {
  // The same integer tallies ComputeFairness would count, so the same
  // doubles.
  metric_ = FairnessFromConfusion(confusion_, config_.fume.metric);
  accuracy_ = test_.num_rows() == 0
                  ? 0.0
                  : static_cast<double>(correct_) /
                        static_cast<double>(test_.num_rows());
}

void StreamEngine::UpdateCache(const std::vector<bool>& tree_dirty) {
  cache_.Update(forest_, test_, tree_dirty);
  ApplyFlips(cache_.flipped(), cache_.predictions());
  metric_stale_ = false;
}

void StreamEngine::UpdateShardCache(
    const std::vector<std::vector<bool>>& shard_dirty) {
  shard_cache_.Update(*sharded_, test_, shard_dirty);
  ApplyFlips(shard_cache_.flipped(), shard_cache_.predictions());
  metric_stale_ = false;
}

Status StreamEngine::GatherTrainData() const {
  obs::TraceSpan span("stream.mirror.gather",
                      {{"rows", static_cast<int64_t>(store_ids_.size())}});
  Dataset data(train_data_.schema());
  std::vector<int32_t> codes(static_cast<size_t>(data.num_attributes()));
  const TrainingStore* store =
      sharded_.has_value() ? nullptr : &forest_.store();
  for (const RowId id : store_ids_) {
    for (int j = 0; j < data.num_attributes(); ++j) {
      codes[static_cast<size_t>(j)] =
          store != nullptr ? store->code(id, j) : sharded_->Code(id, j);
    }
    FUME_RETURN_NOT_OK(data.AppendRow(
        codes, store != nullptr ? store->label(id) : sharded_->Label(id)));
  }
  train_data_ = std::move(data);
  train_stale_ = false;
  return Status::OK();
}

const Dataset& StreamEngine::train_data() const {
  // The store rows were validated when they entered (AppendRow on insert,
  // GatherTrainData at Restore), so a re-gather cannot fail.
  if (train_stale_) FUME_CHECK(GatherTrainData().ok());
  return train_data_;
}

Status StreamEngine::RunSearch() {
  obs::TraceSpan span("stream.search",
                      {{"staleness", staleness_ops_},
                       {"rows", rows_live()}});
  StreamMetrics::Get().searches->Inc();
  metric_at_last_search_ = metric_;
  staleness_ops_ = 0;
  StreamMetrics::Get().staleness->Set(0);
  if (std::fabs(metric_) < config_.fume.min_original_bias) {
    // No violation to explain right now; serve "model is fair".
    explanation_.reset();
    return Status::OK();
  }
  ModelEval original;
  original.fairness = metric_;
  original.accuracy = accuracy_;
  // Sharded engines evaluate leave-outs shard-locally through the warm
  // per-shard cache; monolithic engines keep the original method.
  std::optional<UnlearnRemovalMethod> mono;
  std::optional<ShardedRemovalMethod> shard;
  RemovalMethod* inner = nullptr;
  const char* name = "dare-unlearn-stream";
  if (sharded_.has_value()) {
    shard.emplace(&*sharded_, &test_, config_.fume.group, config_.fume.metric,
                  &shard_cache_);
    inner = &*shard;
    name = "dare-unlearn-sharded-stream";
  } else {
    mono.emplace(&forest_, &test_, config_.fume.group, config_.fume.metric);
    inner = &*mono;
  }
  MappedRemoval removal(inner, name, &store_ids_);
  // Every search of this engine's lifetime shares one worker pool, created
  // at the first parallel search.
  FumeConfig fume_config = config_.fume;
  if (fume_config.pool == nullptr && fume_config.num_threads > 1) {
    fume_config.pool = MaybePool();
  }
  FUME_ASSIGN_OR_RETURN(
      FumeResult result,
      ExplainWithRemoval(original, train_data(), fume_config, &removal));
  explanation_ = std::move(result);
  return Status::OK();
}

Status StreamEngine::ApplyInsert(const StreamOp& op) {
  if (op.rows.empty()) return Status::Invalid("insert op carries no rows");
  Dataset batch(train_data_.schema());
  for (const StreamRow& row : op.rows) {
    FUME_RETURN_NOT_OK(batch.AppendRow(row.codes, row.label));
  }
  std::vector<DeletionStats> per_tree;
  std::vector<std::vector<DeletionStats>> per_shard;
  std::vector<RowId> new_ids;
  if (sharded_.has_value()) {
    FUME_ASSIGN_OR_RETURN(new_ids, sharded_->AddData(batch, &per_shard,
                                                     MaybePool(),
                                                     &shard_scratch_));
  } else {
    FUME_ASSIGN_OR_RETURN(
        new_ids, forest_.AddData(batch, &per_tree, &unlearn_scratch_));
  }
  for (const RowId id : new_ids) {
    // Ids are append-only, so live ids stay sorted by appending.
    FUME_CHECK(store_ids_.empty() || id > store_ids_.back());
    store_ids_.push_back(id);
  }
  train_stale_ = true;
  if (sharded_.has_value()) {
    // Same flush-boundary contract as the monolithic branch below: AddData
    // flushed every pending tag (per-shard reports carry those retrains),
    // so fold the deferred-burst dirtiness and resume exact metrics.
    UpdateShardCache(FoldShardDirty(per_shard));
    StreamMetrics::Get().inserts->Inc();
    StreamMetrics::Get().rows_added->Inc(
        static_cast<int64_t>(op.rows.size()));
    return Status::OK();
  }
  // Addition rebuilds absorbed leaves *in place* (same node address, fresh
  // children), so cached pointers stay valid and the cache resumes each
  // row's descent from them. A re-walk from the root is forced when a
  // subtree retrain freed nodes, or when CoW unsharing (a live snapshot
  // clone held the nodes) rerouted the mutation into fresh copies while
  // the cached pointers still reference the untouched originals.
  std::vector<bool> dirty(per_tree.size());
  for (size_t t = 0; t < per_tree.size(); ++t) {
    dirty[t] =
        per_tree[t].subtrees_retrained > 0 || per_tree[t].nodes_copied > 0;
  }
  // An insert is a flush boundary: AddData flushed any pending tags first
  // (its per_tree report already carries those retrains), so fold in the
  // dirtiness accumulated by the deferred deletes themselves and resume
  // exact per-op metrics.
  if (!lazy_dirty_.empty()) {
    FUME_CHECK_EQ(lazy_dirty_.size(), dirty.size());
    for (size_t t = 0; t < dirty.size(); ++t) {
      if (lazy_dirty_[t]) dirty[t] = true;
    }
    lazy_dirty_.assign(lazy_dirty_.size(), false);
  }
  UpdateCache(dirty);
  StreamMetrics::Get().inserts->Inc();
  StreamMetrics::Get().rows_added->Inc(static_cast<int64_t>(op.rows.size()));
  return Status::OK();
}

Status StreamEngine::ApplyDelete(const StreamOp& op) {
  if (op.row_ids.empty()) return Status::Invalid("delete op carries no ids");
  std::vector<size_t> dense_rows;
  dense_rows.reserve(op.row_ids.size());
  for (RowId id : op.row_ids) {
    const auto it = std::lower_bound(store_ids_.begin(), store_ids_.end(), id);
    if (it == store_ids_.end() || *it != id) {
      return Status::KeyError("row id " + std::to_string(id) +
                              " is not live (never inserted, or already "
                              "deleted)");
    }
    dense_rows.push_back(static_cast<size_t>(it - store_ids_.begin()));
  }
  std::vector<DeletionStats> per_tree;
  std::vector<std::vector<DeletionStats>> per_shard;
  if (sharded_.has_value()) {
    FUME_RETURN_NOT_OK(sharded_->DeleteRows(op.row_ids, &per_shard,
                                            MaybePool(), &shard_scratch_));
  } else {
    FUME_RETURN_NOT_OK(
        forest_.DeleteRows(op.row_ids, &per_tree, &unlearn_scratch_));
  }
  // Erase the doomed positions, sliding each surviving block down once.
  std::sort(dense_rows.begin(), dense_rows.end());
  dense_rows.erase(std::unique(dense_rows.begin(), dense_rows.end()),
                   dense_rows.end());
  auto out = store_ids_.begin() + static_cast<std::ptrdiff_t>(dense_rows[0]);
  for (size_t i = 0; i < dense_rows.size(); ++i) {
    const size_t next =
        i + 1 < dense_rows.size() ? dense_rows[i + 1] : store_ids_.size();
    out = std::copy(
        store_ids_.begin() + static_cast<std::ptrdiff_t>(dense_rows[i] + 1),
        store_ids_.begin() + static_cast<std::ptrdiff_t>(next), out);
  }
  store_ids_.erase(out, store_ids_.end());
  train_stale_ = true;
  if (sharded_.has_value()) {
    if (config_.forest.lazy_unlearn) {
      // Deferred burst (see the monolithic branch below): accumulate each
      // touched shard's per-tree dirtiness and mark it dirty for the next
      // incremental checkpoint; the cache and metric keep describing the
      // pre-burst model until the next flush boundary.
      shard_lazy_dirty_.resize(per_shard.size());
      if (ckpt_dirty_.size() < per_shard.size()) {
        ckpt_dirty_.resize(per_shard.size(), true);
      }
      for (size_t s = 0; s < per_shard.size(); ++s) {
        const auto& shard_trees = per_shard[s];
        if (shard_trees.empty()) continue;
        ckpt_dirty_[s] = true;
        auto& lazy = shard_lazy_dirty_[s];
        lazy.resize(shard_trees.size(), false);
        for (size_t t = 0; t < shard_trees.size(); ++t) {
          if (shard_trees[t].subtrees_retrained > 0 ||
              shard_trees[t].nodes_copied > 0) {
            lazy[t] = true;
          }
        }
      }
      metric_stale_ = true;
    } else {
      UpdateShardCache(FoldShardDirty(per_shard));
    }
    StreamMetrics::Get().deletes->Inc();
    StreamMetrics::Get().rows_deleted->Inc(
        static_cast<int64_t>(op.row_ids.size()));
    return Status::OK();
  }
  // Deletion mutates statistics strictly in place unless a subtree
  // retrained; leaves stay leaves, so cached pointers survive. As above,
  // CoW unsharing also invalidates cached pointers: the mutation lands in
  // fresh private copies while the cache still points at the shared
  // originals a snapshot clone keeps alive.
  std::vector<bool> dirty(per_tree.size());
  for (size_t t = 0; t < per_tree.size(); ++t) {
    dirty[t] =
        per_tree[t].subtrees_retrained > 0 || per_tree[t].nodes_copied > 0;
  }
  if (config_.forest.lazy_unlearn) {
    // Deferred burst: the forest parked retrain-triggering deletes under
    // lazy tags (a budget overflow may already have flushed them — its
    // retrains are in per_tree either way). Accumulate the dirtiness and
    // leave the cache and metric describing the pre-burst model until the
    // next flush boundary (insert, checkpoint, FlushLazy).
    lazy_dirty_.resize(dirty.size(), false);
    for (size_t t = 0; t < dirty.size(); ++t) {
      if (dirty[t]) lazy_dirty_[t] = true;
    }
    metric_stale_ = true;
    StreamMetrics::Get().deletes->Inc();
    StreamMetrics::Get().rows_deleted->Inc(
        static_cast<int64_t>(op.row_ids.size()));
    return Status::OK();
  }
  UpdateCache(dirty);
  StreamMetrics::Get().deletes->Inc();
  StreamMetrics::Get().rows_deleted->Inc(
      static_cast<int64_t>(op.row_ids.size()));
  return Status::OK();
}

Result<OpOutcome> StreamEngine::Apply(const StreamOp& op) {
  if (op.seq <= last_seq_) {
    return Status::Invalid("op seq " + std::to_string(op.seq) +
                           " is not past the engine's last applied seq " +
                           std::to_string(last_seq_));
  }
  StreamMetrics& metrics = StreamMetrics::Get();
  obs::TraceSpan span("stream.apply",
                      {{"seq", op.seq},
                       {"kind", static_cast<int64_t>(op.kind)}});
  Stopwatch apply_watch;
  OpOutcome outcome;
  outcome.seq = op.seq;
  outcome.kind = op.kind;

  bool model_changed = false;
  switch (op.kind) {
    case OpKind::kInsert:
      FUME_RETURN_NOT_OK(ApplyInsert(op));
      model_changed = true;
      break;
    case OpKind::kDelete:
      FUME_RETURN_NOT_OK(ApplyDelete(op));
      model_changed = true;
      break;
    case OpKind::kCheckpoint:
      metrics.checkpoints->Inc();
      // A checkpoint op is a flush boundary: retire any deferred burst so
      // the searched/persisted state is exact.
      FlushLazy();
      break;
  }
  last_seq_ = op.seq;
  // The op's cache update already moved the metric (while a deferred burst
  // is pending it still describes the pre-burst model, until the next
  // flush boundary).
  if (model_changed) ++staleness_ops_;
  outcome.apply_seconds = apply_watch.ElapsedSeconds();

  // Drift policy: checkpoints refresh whenever stale (so the persisted
  // explanation is current); data ops re-search only past the thresholds.
  // Deferred bursts suspend drift gating — the metric is stale, so drift
  // against it is meaningless; it is re-evaluated at flush points only.
  bool want_search = false;
  if (op.kind == OpKind::kCheckpoint) {
    want_search = config_.search_on_checkpoint && staleness_ops_ > 0;
  } else if (!metric_stale_) {
    want_search =
        config_.drift.ShouldSearch(metric_at_last_search_, metric_);
  }
  if (want_search) {
    Stopwatch search_watch;
    FUME_RETURN_NOT_OK(RunSearch());
    outcome.searched = true;
    outcome.search_seconds = search_watch.ElapsedSeconds();
  } else if (model_changed) {
    metrics.drift_holds->Inc();
  }

  if (op.kind == OpKind::kCheckpoint && !config_.checkpoint_path.empty()) {
    FUME_RETURN_NOT_OK(SaveCheckpointToFile(config_.checkpoint_path));
  }

  metrics.ops->Inc();
  metrics.staleness->Set(staleness_ops_);
  metrics.live->Set(rows_live());
  metrics.apply_us->Record(
      static_cast<int64_t>(apply_watch.ElapsedSeconds() * 1e6));
  outcome.metric = metric_;
  outcome.accuracy = accuracy_;
  outcome.rows_live = rows_live();
  outcome.staleness_ops = staleness_ops_;
  return outcome;
}

Result<std::vector<OpOutcome>> StreamEngine::Replay(
    const std::vector<StreamOp>& ops) {
  std::vector<OpOutcome> outcomes;
  outcomes.reserve(ops.size());
  for (const StreamOp& op : ops) {
    FUME_ASSIGN_OR_RETURN(OpOutcome outcome, Apply(op));
    outcomes.push_back(outcome);
  }
  return outcomes;
}

void StreamEngine::FlushLazy() {
  if (sharded_.has_value()) {
    if (!metric_stale_ && !sharded_->HasLazyTags()) return;
    obs::TraceSpan span("stream.lazy_flush",
                        {{"rows", sharded_->lazy_rows()},
                         {"nodes", sharded_->lazy_nodes()}});
    std::vector<std::vector<DeletionStats>> per_shard;
    sharded_->FlushAll(&per_shard, MaybePool(), &shard_scratch_);
    // FoldShardDirty merges each shard's flush retrains with the dirtiness
    // its deferred deletes accumulated (shard_lazy_dirty_); shards with
    // neither stay untouched in the cache.
    UpdateShardCache(FoldShardDirty(per_shard));
    return;
  }
  if (!metric_stale_ && !forest_.HasLazyTags()) return;
  obs::TraceSpan span("stream.lazy_flush",
                      {{"rows", forest_.lazy_rows()},
                       {"nodes", forest_.lazy_nodes()}});
  std::vector<DeletionStats> per_tree;
  forest_.FlushAll(&per_tree, &unlearn_scratch_);
  // Rewalk trees the flush retrained OR the deferred deletes dirtied
  // (CoW unshares / leaf removals) — everything else resumes in place.
  // per_tree stays empty when a budget overflow inside DeleteRows already
  // retired every tag (FlushAll is then a no-op) — the metric is still
  // stale and lazy_dirty_ carries that burst's dirtiness below.
  std::vector<bool> dirty(static_cast<size_t>(forest_.num_trees()), false);
  FUME_CHECK(per_tree.empty() || per_tree.size() == dirty.size());
  for (size_t t = 0; t < per_tree.size(); ++t) {
    dirty[t] =
        per_tree[t].subtrees_retrained > 0 || per_tree[t].nodes_copied > 0;
  }
  if (!lazy_dirty_.empty()) {
    FUME_CHECK_EQ(lazy_dirty_.size(), dirty.size());
    for (size_t t = 0; t < dirty.size(); ++t) {
      if (lazy_dirty_[t]) dirty[t] = true;
    }
    lazy_dirty_.assign(lazy_dirty_.size(), false);
  }
  UpdateCache(dirty);
}

Status StreamEngine::SaveCheckpoint(std::ostream& out) const {
  obs::TraceSpan span("stream.checkpoint.save", {{"seq", last_seq_}});
  // Checkpoints never persist a deferred burst: Restore recomputes the
  // metric from a fresh cache and verifies it against the saved value, so
  // the state written here must be flush-exact. The const_cast mirrors
  // DareForest::EnsureFlushed — a deferring engine is thread-confined
  // (serve holds the writer lock around checkpoints).
  const_cast<StreamEngine*>(this)->FlushLazy();
  ByteWriter w(&out);
  w.Bytes(kCkptMagic, sizeof(kCkptMagic));
  w.Pod<uint32_t>(sharded_.has_value() ? kCkptVersionSharded : kCkptVersion);
  w.Pod<int64_t>(last_seq_);
  w.Pod<double>(metric_);
  w.Pod<double>(accuracy_);
  w.Pod<double>(metric_at_last_search_);
  w.Pod<int64_t>(staleness_ops_);
  w.Vec(store_ids_);
  w.Pod<uint8_t>(explanation_.has_value() ? 1 : 0);
  if (explanation_.has_value()) {
    w.Pod<double>(explanation_->original_fairness);
    w.Pod<double>(explanation_->original_accuracy);
    w.Pod<uint32_t>(static_cast<uint32_t>(explanation_->top_k.size()));
    for (const AttributableSubset& s : explanation_->top_k) {
      WriteSubset(w, s);
    }
  }
  // The model encoders write to the stream themselves, after this header.
  w.Flush();
  if (sharded_.has_value()) {
    // Incremental: only shards dirtied since the previous checkpoint are
    // re-serialized; the rest reuse their cached bytes verbatim (counted
    // by shard.checkpoint.* inside SaveWithCache).
    if (ckpt_dirty_.size() <
        static_cast<size_t>(sharded_->num_shards())) {
      ckpt_dirty_.resize(static_cast<size_t>(sharded_->num_shards()), true);
    }
    FUME_RETURN_NOT_OK(
        sharded_->SaveWithCache(out, &ckpt_blobs_, ckpt_dirty_));
    ckpt_dirty_.assign(ckpt_dirty_.size(), false);
  } else {
    FUME_RETURN_NOT_OK(SaveForest(forest_, out));
  }
  if (!out) return Status::IOError("checkpoint write failed");
  StreamMetrics::Get().saves->Inc();
  return Status::OK();
}

Status StreamEngine::SaveCheckpointToFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return SaveCheckpoint(out);
}

Result<StreamEngine> StreamEngine::Restore(std::istream& in,
                                           const Schema& schema, Dataset test,
                                           StreamEngineConfig config) {
  obs::TraceSpan span("stream.restore");
  ByteReader reader(&in);
  char magic[8];
  if (!reader.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kCkptMagic, sizeof(kCkptMagic)) != 0) {
    return Status::IOError("not a FUME stream checkpoint (bad magic)");
  }
  uint32_t version = 0;
  if (!reader.Pod(&version) ||
      (version != kCkptVersion && version != kCkptVersionSharded)) {
    return Status::IOError("unsupported stream checkpoint version");
  }
  StreamEngine engine(std::move(test), std::move(config));
  double saved_metric = 0.0;
  double saved_accuracy = 0.0;
  if (!reader.Pod(&engine.last_seq_) || !reader.Pod(&saved_metric) ||
      !reader.Pod(&saved_accuracy) ||
      !reader.Pod(&engine.metric_at_last_search_) ||
      !reader.Pod(&engine.staleness_ops_)) {
    return Status::IOError("checkpoint: truncated engine state");
  }
  if (!reader.Vec(&engine.store_ids_, uint64_t{1} << 30)) {
    return Status::IOError("checkpoint: bad live-id block");
  }
  uint8_t has_explanation = 0;
  if (!reader.Pod(&has_explanation) || has_explanation > 1) {
    return Status::IOError("checkpoint: bad explanation flag");
  }
  if (has_explanation != 0) {
    FumeResult cached;
    uint32_t k = 0;
    if (!reader.Pod(&cached.original_fairness) ||
        !reader.Pod(&cached.original_accuracy) || !reader.Pod(&k) ||
        k > 100000) {
      return Status::IOError("checkpoint: truncated explanation header");
    }
    for (uint32_t i = 0; i < k; ++i) {
      FUME_ASSIGN_OR_RETURN(AttributableSubset s, ReadSubset(reader));
      cached.top_k.push_back(std::move(s));
    }
    engine.explanation_ = std::move(cached);
  }
  if (version == kCkptVersionSharded) {
    // A sharded checkpoint must be restored as the same SISA deployment:
    // the persisted routing config is authoritative, and the caller's
    // config must agree so future ops route and vote identically.
    if (engine.config_.shard.num_shards <= 1) {
      return Status::Invalid(
          "sharded checkpoint restored with config.shard.num_shards <= 1");
    }
    FUME_ASSIGN_OR_RETURN(ShardedForest loaded, ShardedForest::Load(in));
    const ShardConfig& saved = loaded.shard_config();
    const ShardConfig& want = engine.config_.shard;
    if (saved.num_shards != want.num_shards ||
        saved.placement != want.placement || saved.vote != want.vote ||
        saved.slice_attr != want.slice_attr ||
        saved.slice_value != want.slice_value ||
        saved.hot_shards != want.hot_shards) {
      return Status::Invalid(
          "checkpoint shard config disagrees with engine config");
    }
    engine.sharded_.emplace(std::move(loaded));
  } else {
    if (engine.config_.shard.num_shards > 1) {
      return Status::Invalid(
          "monolithic checkpoint restored with config.shard.num_shards > 1");
    }
    FUME_ASSIGN_OR_RETURN(engine.forest_, LoadForest(in));
  }

  // Verify the live-id block against the restored model, then reassemble
  // the dense training mirror from the store. All shards share one schema
  // (they partition one dataset), so shard 0 speaks for it.
  const TrainingStore& store = engine.sharded_.has_value()
                                   ? engine.sharded_->shard(0).store()
                                   : engine.forest_.store();
  if (!schema.AllCategorical() ||
      schema.num_attributes() != store.num_attrs()) {
    return Status::Invalid("restore schema does not match checkpoint store");
  }
  for (int j = 0; j < schema.num_attributes(); ++j) {
    if (schema.attribute(j).cardinality() != store.cardinality(j)) {
      return Status::Invalid("restore schema cardinality mismatch at '" +
                             schema.attribute(j).name + "'");
    }
  }
  if (engine.explanation_.has_value()) {
    for (const AttributableSubset& s : engine.explanation_->top_k) {
      for (const Literal& lit : s.predicate.literals()) {
        if (lit.attr < 0 || lit.attr >= schema.num_attributes() ||
            lit.value < 0 ||
            lit.value >= schema.attribute(lit.attr).cardinality()) {
          return Status::IOError("checkpoint: explanation literal out of range");
        }
      }
    }
  }
  const int64_t id_limit = engine.sharded_.has_value()
                               ? engine.sharded_->num_global_ids()
                               : store.num_rows();
  for (size_t i = 0; i < engine.store_ids_.size(); ++i) {
    const RowId id = engine.store_ids_[i];
    if (id < 0 || static_cast<int64_t>(id) >= id_limit) {
      return Status::IOError("checkpoint: live id out of store range");
    }
    if (i > 0 && id <= engine.store_ids_[i - 1]) {
      return Status::IOError(
          "checkpoint: live ids not strictly ascending (duplicate or "
          "reordered id)");
    }
  }
  const int64_t forest_rows = engine.sharded_.has_value()
                                  ? engine.sharded_->num_training_rows()
                                  : engine.forest_.num_training_rows();
  if (engine.rows_live() != forest_rows) {
    return Status::IOError("checkpoint: live ids disagree with forest");
  }
  engine.train_data_ = Dataset(schema);
  FUME_RETURN_NOT_OK(engine.GatherTrainData());
  if (engine.sharded_.has_value()) {
    engine.ckpt_dirty_.assign(
        static_cast<size_t>(engine.sharded_->num_shards()), true);
    engine.shard_cache_.Rebuild(*engine.sharded_, engine.test_);
  } else {
    engine.cache_.Rebuild(engine.forest_, engine.test_);
  }
  engine.ResetMetric();
  if (engine.metric_ != saved_metric || engine.accuracy_ != saved_accuracy) {
    return Status::IOError(
        "checkpoint: recomputed metric disagrees with saved state (corrupt "
        "file, or different test data / config)");
  }
  StreamMetrics::Get().restores->Inc();
  return engine;
}

Result<StreamEngine> StreamEngine::RestoreFromFile(
    const std::string& path, const Schema& schema, Dataset test,
    StreamEngineConfig config) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return Restore(in, schema, std::move(test), std::move(config));
}

}  // namespace stream
}  // namespace fume
