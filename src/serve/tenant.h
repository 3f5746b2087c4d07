// Tenant: one registered dataset's serving state — a live StreamEngine
// behind a writer lock, an atomically published CoW snapshot for readers,
// and a WhatIfBatcher that scores grouped what-if candidates off one
// snapshot per batch.
//
// Snapshot-swap scheme: mutations (stream_op) run under `write_mu_` against
// the engine, then publish a fresh TenantSnapshot (CoW forest clone + a
// copy of the warm prediction cache) by swapping a shared_ptr under a
// dedicated pointer mutex whose critical section is just that copy.
// Readers grab the pointer and keep the snapshot alive for as long as
// they need it, so a predict/explain/whatif never waits behind engine
// work and never observes a half-applied op. The TrainingStore shared
// by the engine forest and every snapshot clone is append-stable
// (forest/training_store.h), so concurrent inserts never move the rows a
// snapshot reader is scanning.

#ifndef FUME_SERVE_TENANT_H_
#define FUME_SERVE_TENANT_H_

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "forest/prediction_cache.h"
#include "forest/sharded_forest.h"
#include "serve/batcher.h"
#include "stream/engine.h"
#include "util/thread_pool.h"

namespace fume::serve {

struct TenantConfig {
  stream::StreamEngineConfig engine;
  /// When non-empty, every applied stream op is appended (and flushed) to
  /// this op-log file so the served history stays replayable offline.
  std::string oplog_path;
  /// Threads scoring one whatif batch in parallel (1 = serial).
  int whatif_threads = 2;
  BatchConfig batch;
};

/// Immutable published serving state. Readers share it by shared_ptr; the
/// forest is a CoW clone so the writer's later mutations never touch it.
struct TenantSnapshot {
  int64_t seq = -1;
  double metric = 0.0;
  double accuracy = 0.0;
  int64_t staleness = 0;
  int64_t rows_live = 0;
  /// Monolithic tenants publish forest/cache; sharded tenants (engine
  /// config shard.num_shards > 1) publish sharded/shard_cache instead and
  /// leave forest empty. live_ids are then global row ids.
  DareForest forest;
  std::optional<ShardedForest> sharded;
  std::vector<RowId> live_ids;
  std::shared_ptr<const TestPredictionCache> cache;
  std::shared_ptr<const ShardedPredictionCache> shard_cache;
  std::shared_ptr<const FumeResult> explanation;  // null while fair
};

class Tenant {
 public:
  static Result<std::unique_ptr<Tenant>> Make(std::string name,
                                              const Dataset& initial_train,
                                              Dataset test,
                                              TenantConfig config);
  ~Tenant();
  Tenant(const Tenant&) = delete;
  Tenant& operator=(const Tenant&) = delete;

  const std::string& name() const { return name_; }
  const TenantConfig& config() const { return config_; }
  const Schema& schema() const;
  /// Immutable after Make; safe to read from any thread.
  const Dataset& test_data() const;

  /// Current published snapshot (never null after Make). The critical
  /// section is one shared_ptr copy — readers never wait behind engine
  /// work, which all happens before the writer swaps the pointer in.
  /// (A plain mutex rather than std::atomic<shared_ptr>: libstdc++'s
  /// _Sp_atomic guards its pointer with an embedded lock bit that TSan
  /// cannot model, so every load/store pair reports a false race.)
  std::shared_ptr<const TenantSnapshot> snapshot() const {
    std::lock_guard<std::mutex> lk(snapshot_mu_);
    return snapshot_;
  }

  /// Applies one op through the engine, appends it to the op-log, and
  /// publishes a fresh snapshot. Serialized across callers.
  Result<stream::OpOutcome> ApplyStreamOp(const stream::StreamOp& op);

  /// Writes the engine checkpoint to the configured path; returns the path.
  Result<std::string> Checkpoint();

  /// Scores one whatif through the batcher (blocks; see batcher.h).
  AdmitResult WhatIf(BatchJob* job);

  /// Stops admitting whatifs, drains, writes a final checkpoint when a
  /// checkpoint path is configured, and flushes the op-log. Idempotent.
  void Shutdown();

 private:
  /// Per-worker warm scratch so steady-state batches do not allocate.
  struct WhatIfWorker {
    std::vector<RowId> matched;
    TestPredictionCache::ScoreScratch scratch;
    ShardedPredictionCache::ScoreScratch shard_scratch;  // sharded tenants
  };

  Tenant(std::string name, TenantConfig config);
  void PublishSnapshotLocked();
  void ExecuteBatch(const std::vector<BatchJob*>& batch);
  void EvaluateWhatIf(const TenantSnapshot& snap, BatchJob* job,
                      WhatIfWorker* worker);

  const std::string name_;
  const TenantConfig config_;

  std::mutex write_mu_;
  std::optional<stream::StreamEngine> engine_;  // guarded by write_mu_
  std::ofstream oplog_;                         // guarded by write_mu_
  bool shut_down_ = false;                      // guarded by write_mu_

  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const TenantSnapshot> snapshot_;  // guarded by snapshot_mu_

  std::unique_ptr<util::ThreadPool> pool_;
  std::vector<std::unique_ptr<WhatIfWorker>> workers_;
  std::unique_ptr<WhatIfBatcher> batcher_;
};

/// Name -> tenant map, fixed after server start (no locking on lookup).
class TenantRegistry {
 public:
  Status Add(std::unique_ptr<Tenant> tenant);
  /// nullptr when unknown.
  Tenant* Find(const std::string& name) const;
  std::vector<std::string> Names() const;
  void ShutdownAll();

 private:
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace fume::serve

#endif  // FUME_SERVE_TENANT_H_
