// StreamEngine: a long-lived incremental FUME service. It consumes an
// ordered op-log of training-set mutations (stream/op_log.h), applies them
// exactly to a DaRE forest via AddData/DeleteRows, keeps the group-fairness
// metric current through a per-tree test-prediction cache, and re-runs the
// FUME top-k search only when the metric has drifted past a configurable
// threshold since the last search — otherwise it serves the cached top-k
// with a staleness annotation.
//
// Exactness contract (pinned by tests/stream_test.cc): after any prefix of
// the op-log, the engine's forest predictions, fairness metric and — right
// after a search — top-k explanations are byte-identical to training a
// fresh forest on the surviving rows (same config/seed) and running a
// fresh FUME search on it. Checkpoints serialize forest + engine state, so
// an engine killed mid-log can be restored and replayed to the same state
// an uninterrupted run reaches (docs/streaming.md).

#ifndef FUME_STREAM_ENGINE_H_
#define FUME_STREAM_ENGINE_H_

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fume.h"
#include "fairness/confusion.h"
#include "forest/prediction_cache.h"
#include "forest/sharded_forest.h"
#include "stream/op_log.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace fume {
namespace stream {

/// When to re-run the FUME search. The signed metric F is compared against
/// its value at the last search; a re-search triggers when EITHER bound is
/// crossed. Set both to infinity to pin the cached explanation forever.
struct DriftPolicy {
  /// Absolute drift: |F_now - F_last_search| >= abs_threshold.
  double abs_threshold = 0.01;
  /// Relative drift: |F_now - F_last_search| >= rel_threshold * |F_last|.
  /// Ignored while |F_last| is 0.
  double rel_threshold = 0.10;

  bool ShouldSearch(double last, double now) const;
};

struct StreamEngineConfig {
  ForestConfig forest;
  FumeConfig fume;
  DriftPolicy drift;
  /// shard.num_shards > 1 runs the engine over a SISA ShardedForest: ops
  /// route to owning shards (fanned out on the search pool), searches use
  /// ShardedRemovalMethod, and checkpoints re-serialize only dirty shards.
  /// The monolithic path is untouched at the default of 1.
  ShardConfig shard;
  /// Refresh the explanation at Checkpoint ops when any op was applied
  /// since the last search, regardless of drift — so checkpointed top-k is
  /// never stale (and the exactness tests can compare it cold).
  bool search_on_checkpoint = true;
  /// When non-empty, every Checkpoint op (re)writes this checkpoint file.
  std::string checkpoint_path;
};

/// What one Apply() did, for timelines and logs.
struct OpOutcome {
  int64_t seq = 0;
  OpKind kind = OpKind::kCheckpoint;
  /// Signed F(h, D_test) after the op.
  double metric = 0.0;
  double accuracy = 0.0;
  int64_t rows_live = 0;
  /// True when this op triggered a FUME re-search (drift or checkpoint).
  bool searched = false;
  /// Ops applied since the serving explanation was last refreshed
  /// (0 right after a search).
  int64_t staleness_ops = 0;
  double apply_seconds = 0.0;
  double search_seconds = 0.0;
};

class StreamEngine {
 public:
  /// Trains the initial forest on `initial_train`, primes the prediction
  /// cache against `test`, and runs the first search (unless |F| is below
  /// config.fume.min_original_bias — then the engine starts with an empty
  /// explanation and searches once a violation appears).
  static Result<StreamEngine> Create(const Dataset& initial_train,
                                     Dataset test, StreamEngineConfig config);

  /// Applies one op. Ops must arrive with strictly increasing seq.
  Result<OpOutcome> Apply(const StreamOp& op);

  /// Convenience: applies every op in order, returning per-op outcomes.
  Result<std::vector<OpOutcome>> Replay(const std::vector<StreamOp>& ops);

  // ---- lazy deferral (config.forest.lazy_unlearn) --------------------
  /// Retires every deferred subtree retrain, folds the retrain work into
  /// the prediction cache's dirty flags, and refreshes the metric. No-op
  /// unless a delete burst is pending. Called automatically at every flush
  /// boundary — checkpoint ops, inserts, SaveCheckpoint — and callable
  /// directly before reading forest()/current_metric() mid-burst.
  void FlushLazy();
  /// True while a deferred delete burst is pending: the forest may hold
  /// lazy tags and current_metric()/prediction_cache() reflect the state
  /// at the last flush, not the last op. Do NOT run predictions through
  /// forest() while deferring — call FlushLazy() first (the forest would
  /// flush itself on first descent, stranding the engine's cached leaf
  /// pointers in freed nodes).
  bool deferring() const {
    return metric_stale_ ||
           (sharded_.has_value() ? sharded_->HasLazyTags()
                                 : forest_.HasLazyTags());
  }

  // ---- serving state -------------------------------------------------
  int64_t last_seq() const { return last_seq_; }
  /// Signed F(h, D_test) of the current model.
  double current_metric() const { return metric_; }
  double current_accuracy() const { return accuracy_; }
  /// F at the last search — the drift reference.
  double metric_at_last_search() const { return metric_at_last_search_; }
  /// Ops applied since the last search (the staleness annotation).
  int64_t staleness() const { return staleness_ops_; }
  /// Cached explanation from the last search; nullptr when the model
  /// satisfied the metric at every search so far. Valid until the next
  /// Apply() that searches.
  const FumeResult* explanation() const {
    return explanation_.has_value() ? &*explanation_ : nullptr;
  }
  /// Monolithic accessors; meaningless when is_sharded() (the engine then
  /// holds an empty DareForest — use sharded_forest() and
  /// shard_prediction_cache() instead).
  const DareForest& forest() const { return forest_; }
  /// Warm test-set prediction cache, kept exact after every Apply. A served
  /// snapshot copies it so ScoreWithout runs off the snapshot's own state.
  const TestPredictionCache& prediction_cache() const { return cache_; }
  /// True when config().shard.num_shards > 1 engaged the SISA path.
  bool is_sharded() const { return sharded_.has_value(); }
  const ShardedForest& sharded_forest() const { return *sharded_; }
  const ShardedPredictionCache& shard_prediction_cache() const {
    return shard_cache_;
  }
  const StreamEngineConfig& config() const { return config_; }
  /// Surviving training rows, dense, in arrival order — what a cold
  /// retrain would train on. Ops only mark this mirror stale; it is
  /// gathered from the model's training store on the first read after an
  /// op (O(rows live)), so like every accessor here it must not race
  /// Apply() or another first read.
  const Dataset& train_data() const;
  const Dataset& test_data() const { return test_; }
  int64_t rows_live() const { return static_cast<int64_t>(store_ids_.size()); }
  /// Engine id (training-store id, or global id when sharded) of each live
  /// row, strictly ascending: row i of train_data() is live_ids()[i].
  const std::vector<RowId>& live_ids() const { return store_ids_; }

  // ---- checkpoint / restore ------------------------------------------
  /// Serializes forest + engine state (seq, metrics, drift reference,
  /// live-id map, cached top-k). Search statistics and all_candidates are
  /// not persisted — a restored engine serves the same top-k but reports
  /// empty stats until its next search.
  Status SaveCheckpoint(std::ostream& out) const;
  Status SaveCheckpointToFile(const std::string& path) const;

  /// Rebuilds an engine from a checkpoint. `schema` must be the training
  /// schema the original engine was created with (the checkpoint stores
  /// codes, not category names); `test` and `config` likewise. Replaying
  /// the ops with seq > last_seq() afterwards reproduces the uninterrupted
  /// engine's state exactly.
  static Result<StreamEngine> Restore(std::istream& in, const Schema& schema,
                                      Dataset test, StreamEngineConfig config);
  static Result<StreamEngine> RestoreFromFile(const std::string& path,
                                              const Schema& schema,
                                              Dataset test,
                                              StreamEngineConfig config);

 private:
  StreamEngine(Dataset test, StreamEngineConfig config);

  Status ApplyInsert(const StreamOp& op);
  Status ApplyDelete(const StreamOp& op);
  /// Recounts the confusion tallies from the prediction cache in full
  /// (after a Rebuild) and publishes metric_ / accuracy_.
  void ResetMetric();
  /// Refreshes the cache after one op (or a lazy flush) and moves the
  /// confusion tallies by the rows whose prediction flipped.
  void UpdateCache(const std::vector<bool>& tree_dirty);
  void UpdateShardCache(const std::vector<std::vector<bool>>& shard_dirty);
  void ApplyFlips(const std::vector<int32_t>& flipped,
                  const std::vector<int>& preds);
  void PublishMetric();
  /// Gathers train_data_ from the store for live_ids(), in order — the one
  /// place the dense mirror is built (lazily after ops, eagerly at
  /// Restore, where it also validates the store's codes).
  Status GatherTrainData() const;
  /// Runs the FUME search against the current model (or records "no
  /// violation" when |F| is below the configured floor).
  Status RunSearch();
  /// The shared pool, created lazily at first use (nullptr while
  /// config_.fume.num_threads <= 1). Serves both search fan-out and
  /// sharded op fan-out — never both at once (ops and searches are
  /// strictly sequenced by Apply).
  util::ThreadPool* MaybePool();
  /// Builds the per-shard cache-dirty report from an op's per-shard
  /// per-tree stats, folding in (and clearing) shard_lazy_dirty_; also
  /// marks touched shards dirty for the next incremental checkpoint.
  std::vector<std::vector<bool>> FoldShardDirty(
      const std::vector<std::vector<DeletionStats>>& per_shard);

  Dataset test_;
  StreamEngineConfig config_;
  DareForest forest_;
  /// Engaged instead of forest_ when config_.shard.num_shards > 1.
  std::optional<ShardedForest> sharded_;
  /// Per-shard warm prediction cache (sharded mode only).
  ShardedPredictionCache shard_cache_;
  /// Shard-affine kernel scratches for sharded ops (entry s serves shard s).
  std::vector<DeletionScratch> shard_scratch_;
  /// Reused across every insert/delete op this engine applies, keeping the
  /// unlearning kernel allocation-free in the steady state.
  DeletionScratch unlearn_scratch_;
  /// Dense mirror of the live rows, valid while !train_stale_ (its schema
  /// is always valid). Mutable: train_data() gathers it on demand.
  mutable Dataset train_data_;
  mutable bool train_stale_ = false;
  /// store_ids_[dense row] = engine/store id, strictly ascending (store and
  /// global ids are append-only); deletes find ids by binary search.
  std::vector<RowId> store_ids_;
  TestPredictionCache cache_;
  /// Confusion tallies and correct-prediction count of the cache's
  /// predictions: metric_ and accuracy_ are derived from these integers,
  /// so they are bit-identical to ComputeFairness over the predictions.
  GroupConfusion confusion_;
  int64_t correct_ = 0;
  /// Shared evaluation pool for every search this engine runs; created at
  /// the first search with config_.fume.num_threads > 1.
  std::unique_ptr<util::ThreadPool> pool_;

  /// Per-tree cache dirtiness accumulated across a deferred delete burst
  /// (CoW unshares and in-place leaf removals invalidate cached pointers
  /// even when the subtree retrain itself is deferred). Merged into the
  /// flush's own dirty flags at the next flush boundary.
  std::vector<bool> lazy_dirty_;
  /// Sharded counterpart of lazy_dirty_: entry s is shard s's accumulated
  /// per-tree dirtiness (empty = clean since the last flush boundary).
  std::vector<std::vector<bool>> shard_lazy_dirty_;
  /// Incremental-checkpoint state (sharded mode): the last serialized
  /// bytes per shard and which shards an op has dirtied since. Mutable
  /// because SaveCheckpoint is logically const (same reasoning as its
  /// FlushLazy const_cast).
  mutable std::vector<std::string> ckpt_blobs_;
  mutable std::vector<bool> ckpt_dirty_;
  /// True between a deferred delete and the next flush boundary: metric_,
  /// accuracy_ and cache_ describe the pre-burst model. Drift gating is
  /// suspended while set (evaluated at flush points only).
  bool metric_stale_ = false;

  int64_t last_seq_ = -1;
  double metric_ = 0.0;
  double accuracy_ = 0.0;
  double metric_at_last_search_ = 0.0;
  int64_t staleness_ops_ = 0;
  std::optional<FumeResult> explanation_;
};

}  // namespace stream
}  // namespace fume

#endif  // FUME_STREAM_ENGINE_H_
