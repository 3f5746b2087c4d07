// Stream engine exactness suite (ISSUE: streaming explanation engine).
//
// The anchor: after any prefix of an op-log, the engine's forest
// predictions, fairness metric and (post-search) top-k must be
// byte-identical to a cold retrain on the surviving rows plus a fresh FUME
// search with the same config/seed. Also pins op-log round-tripping,
// checkpoint/restore resume equivalence, drift-policy holds and the
// prediction cache against the forest's own predictors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "core/fume.h"
#include "core/removal_method.h"
#include "data/split.h"
#include "fairness/metrics.h"
#include "forest/prediction_cache.h"
#include "obs/metrics.h"
#include "stream/engine.h"
#include "stream/op_log.h"
#include "stream/workload.h"
#include "synth/datasets.h"

namespace fume {
namespace stream {
namespace {

// ---------------------------------------------------------------------------
// Shared fixture data: a small German Credit pipeline split three ways —
// initial training data, a pool of future insert rows, and a test set.

struct StreamPipeline {
  Dataset initial_train;
  Dataset pool;
  Dataset test;
  GroupSpec group;
  StreamEngineConfig config;
};

StreamPipeline BuildPipeline(uint64_t seed) {
  synth::SynthOptions opts;
  opts.num_rows = 700;
  opts.seed = seed;
  auto bundle = synth::MakeGermanCredit(opts);
  EXPECT_TRUE(bundle.ok());
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  EXPECT_TRUE(split.ok());
  // Carve the insert pool off the back of the training half.
  const int64_t pool_rows = split->train.num_rows() / 3;
  std::vector<int64_t> tail;
  for (int64_t r = split->train.num_rows() - pool_rows;
       r < split->train.num_rows(); ++r) {
    tail.push_back(r);
  }
  std::vector<int64_t> head;
  for (int64_t r = 0; r < split->train.num_rows() - pool_rows; ++r) {
    head.push_back(r);
  }
  StreamPipeline p;
  p.initial_train = split->train.DropRows(tail);
  p.pool = split->train.DropRows(head);
  p.test = std::move(split->test);
  p.group = bundle->group;
  p.config.forest.num_trees = 10;
  p.config.forest.max_depth = 6;
  p.config.forest.random_depth = 2;
  p.config.forest.seed = 31;
  p.config.fume.top_k = 3;
  p.config.fume.support_min = 0.05;
  p.config.fume.support_max = 0.30;
  p.config.fume.max_literals = 1;
  p.config.fume.group = p.group;
  return p;
}

// Fresh FUME search against a cold model, mirroring what the engine does.
Result<FumeResult> ColdSearch(const DareForest& model, const Dataset& train,
                              const Dataset& test,
                              const StreamEngineConfig& config) {
  ModelEval original;
  original.fairness =
      ComputeFairness(model, test, config.fume.group, config.fume.metric);
  original.accuracy = model.Accuracy(test);
  UnlearnRemovalMethod removal(&model, &test, config.fume.group,
                               config.fume.metric);
  return ExplainWithRemoval(original, train, config.fume, &removal);
}

void ExpectSubsetsIdentical(const AttributableSubset& a,
                            const AttributableSubset& b) {
  EXPECT_TRUE(a.predicate == b.predicate);
  EXPECT_EQ(a.support, b.support);
  EXPECT_EQ(a.num_rows, b.num_rows);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.attribution, b.attribution);
  EXPECT_EQ(a.new_fairness, b.new_fairness);
  EXPECT_EQ(a.new_accuracy, b.new_accuracy);
}

void ExpectEngineMatchesCold(const StreamEngine& engine,
                             const StreamPipeline& p, bool compare_topk) {
  auto cold = DareForest::Train(engine.train_data(), p.config.forest);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  // Predictions byte-identical (exact doubles, not approx).
  const std::vector<double> engine_probs =
      engine.forest().PredictProbAll(p.test);
  const std::vector<double> cold_probs = cold->PredictProbAll(p.test);
  ASSERT_EQ(engine_probs.size(), cold_probs.size());
  for (size_t r = 0; r < cold_probs.size(); ++r) {
    ASSERT_EQ(engine_probs[r], cold_probs[r]) << "test row " << r;
  }

  // Engine-served metric/accuracy match a cold evaluation exactly.
  EXPECT_EQ(engine.current_metric(),
            ComputeFairness(*cold, p.test, p.group, p.config.fume.metric));
  EXPECT_EQ(engine.current_accuracy(), cold->Accuracy(p.test));

  if (!compare_topk) return;
  auto fresh = ColdSearch(*cold, engine.train_data(), p.test, p.config);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  const FumeResult* served = engine.explanation();
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(served->original_fairness, fresh->original_fairness);
  ASSERT_EQ(served->top_k.size(), fresh->top_k.size());
  for (size_t i = 0; i < fresh->top_k.size(); ++i) {
    ExpectSubsetsIdentical(served->top_k[i], fresh->top_k[i]);
  }
}

// ---------------------------------------------------------------------------
// Op-log format.

TEST(OpLogTest, FormatParseRoundTrip) {
  StreamOp insert = StreamOp::Insert(
      7, {StreamRow{{1, 0, 3}, 1}, StreamRow{{2, 2, 0}, 0}});
  StreamOp del = StreamOp::Delete(8, {4, 19, 23});
  StreamOp ckpt = StreamOp::Checkpoint(9);
  for (const StreamOp& op : {insert, del, ckpt}) {
    auto parsed = ParseOp(FormatOp(op));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_TRUE(*parsed == op);
  }
}

TEST(OpLogTest, StreamRoundTripAndResumeFilter) {
  std::vector<StreamOp> ops = {
      StreamOp::Insert(1, {StreamRow{{0, 1}, 0}}),
      StreamOp::Delete(3, {0}),
      StreamOp::Checkpoint(4),
      StreamOp::Insert(9, {StreamRow{{1, 1}, 1}}),
  };
  std::stringstream buf;
  ASSERT_TRUE(WriteOpLog(ops, buf).ok());

  auto all = ReadOpLog(buf);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), ops.size());
  for (size_t i = 0; i < ops.size(); ++i) EXPECT_TRUE((*all)[i] == ops[i]);

  // Resume-from-checkpoint: skip everything at or below seq 4.
  buf.clear();
  buf.seekg(0);
  auto tail = ReadOpLog(buf, /*after_seq=*/4);
  ASSERT_TRUE(tail.ok());
  ASSERT_EQ(tail->size(), 1u);
  EXPECT_EQ((*tail)[0].seq, 9);
}

TEST(OpLogTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseOp("X 1").ok());                // unknown kind
  EXPECT_FALSE(ParseOp("I 1").ok());                // insert with no rows
  EXPECT_FALSE(ParseOp("I 1 7:0,1").ok());          // label out of range
  EXPECT_FALSE(ParseOp("I 1 1:0,-2").ok());         // negative code
  EXPECT_FALSE(ParseOp("I 1 1:0,1 0:4").ok());      // ragged widths
  EXPECT_FALSE(ParseOp("D 2").ok());                // delete with no ids
  EXPECT_FALSE(ParseOp("C x").ok());                // non-numeric seq
  EXPECT_TRUE(ParseOp("C 5").ok());

  std::stringstream decreasing("# fume-oplog v1\nC 5\nC 3\n");
  EXPECT_FALSE(ReadOpLog(decreasing).ok());
}

TEST(WorkloadTest, DeterministicAndWellFormed) {
  StreamPipeline p = BuildPipeline(4);
  WorkloadOptions w;
  w.num_ops = 60;
  w.checkpoint_every = 20;
  w.seed = 5;
  auto a = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  auto b = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  int checkpoints = 0;
  int64_t prev_seq = 0;
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_TRUE((*a)[i] == (*b)[i]);
    EXPECT_GT((*a)[i].seq, prev_seq);
    prev_seq = (*a)[i].seq;
    if ((*a)[i].kind == OpKind::kCheckpoint) ++checkpoints;
  }
  EXPECT_GE(checkpoints, 3);
  EXPECT_EQ(a->back().kind, OpKind::kCheckpoint);
}

// ---------------------------------------------------------------------------
// Prediction cache: byte-identical to the forest's own predictors.

TEST(PredictionCacheTest, MatchesForestThroughMixedOps) {
  StreamPipeline p = BuildPipeline(4);
  auto forest = DareForest::Train(p.initial_train, p.config.forest);
  ASSERT_TRUE(forest.ok());

  TestPredictionCache cache;
  cache.Rebuild(*forest, p.test);
  EXPECT_EQ(cache.probs(), forest->PredictProbAll(p.test));
  EXPECT_EQ(cache.predictions(), forest->PredictAll(p.test));

  // Delete a spread of rows, then add some back; after each op the cache
  // must still agree exactly with a full re-prediction.
  std::vector<DeletionStats> per_tree;
  std::vector<RowId> doomed;
  for (RowId id = 3; id < 120; id += 7) doomed.push_back(id);
  ASSERT_TRUE(forest->DeleteRows(doomed, &per_tree).ok());
  std::vector<bool> dirty(per_tree.size());
  for (size_t t = 0; t < per_tree.size(); ++t) {
    dirty[t] = per_tree[t].subtrees_retrained > 0;
  }
  cache.Update(*forest, p.test, dirty);
  EXPECT_EQ(cache.probs(), forest->PredictProbAll(p.test));
  EXPECT_EQ(cache.predictions(), forest->PredictAll(p.test));

  std::vector<int64_t> keep;
  for (int64_t r = 40; r < 60; ++r) keep.push_back(r);
  Dataset batch = p.pool;
  std::vector<int64_t> drop;
  for (int64_t r = 0; r < batch.num_rows(); ++r) {
    if (r >= 20) drop.push_back(r);
  }
  batch = batch.DropRows(drop);
  auto added = forest->AddData(batch, &per_tree);
  ASSERT_TRUE(added.ok());
  for (size_t t = 0; t < per_tree.size(); ++t) {
    dirty[t] = per_tree[t].subtrees_retrained > 0;
  }
  cache.Update(*forest, p.test, dirty);
  EXPECT_EQ(cache.probs(), forest->PredictProbAll(p.test));
  EXPECT_EQ(cache.predictions(), forest->PredictAll(p.test));
}

// ---------------------------------------------------------------------------
// The exactness anchor: >= 200 interleaved ops, multiple checkpoints,
// engine state byte-identical to cold retrain + fresh search at every one.

void RunExactness(uint64_t data_seed, uint64_t workload_seed) {
  StreamPipeline p = BuildPipeline(data_seed);
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  WorkloadOptions w;
  w.num_ops = 200;
  w.insert_batch = 4;
  w.delete_batch = 3;
  w.checkpoint_every = 40;  // 5 interior checkpoints + the final one
  w.seed = workload_seed;
  auto ops = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  ASSERT_GE(ops->size(), 200u);

  int checkpoints_verified = 0;
  for (const StreamOp& op : *ops) {
    auto outcome = engine->Apply(op);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (op.kind != OpKind::kCheckpoint) continue;
    // Checkpoint ops refresh the explanation whenever stale, so the
    // served top-k must equal a fresh cold search here.
    EXPECT_EQ(engine->staleness(), 0);
    ExpectEngineMatchesCold(*engine, p, /*compare_topk=*/true);
    ++checkpoints_verified;
  }
  EXPECT_GE(checkpoints_verified, 3);
  EXPECT_EQ(engine->rows_live(), engine->train_data().num_rows());
  EXPECT_EQ(engine->live_ids().size(),
            static_cast<size_t>(engine->rows_live()));
}

TEST(StreamExactnessTest, TwoHundredOpsSeedA) { RunExactness(4, 11); }
TEST(StreamExactnessTest, TwoHundredOpsSeedB) { RunExactness(9, 23); }

// ---------------------------------------------------------------------------
// Checkpoint / restore: killing the engine mid-log and resuming replays to
// exactly the state the uninterrupted engine reaches.

TEST(StreamCheckpointTest, RestoreMidLogMatchesUninterrupted) {
  StreamPipeline p = BuildPipeline(4);
  WorkloadOptions w;
  w.num_ops = 80;
  w.checkpoint_every = 20;
  w.seed = 7;
  auto ops = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  ASSERT_TRUE(ops.ok());

  auto uninterrupted = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(uninterrupted.ok());
  auto shard = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(shard.ok());

  // Drive both to the second checkpoint; snapshot the shard there.
  size_t cut = 0;
  int seen = 0;
  for (size_t i = 0; i < ops->size(); ++i) {
    ASSERT_TRUE(uninterrupted->Apply((*ops)[i]).ok());
    ASSERT_TRUE(shard->Apply((*ops)[i]).ok());
    if ((*ops)[i].kind == OpKind::kCheckpoint && ++seen == 2) {
      cut = i;
      break;
    }
  }
  ASSERT_EQ(seen, 2);
  std::stringstream blob;
  ASSERT_TRUE(shard->SaveCheckpoint(blob).ok());

  auto restored = StreamEngine::Restore(blob, p.initial_train.schema(),
                                        p.test, p.config);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->last_seq(), shard->last_seq());
  EXPECT_EQ(restored->current_metric(), shard->current_metric());
  EXPECT_TRUE(restored->live_ids() == shard->live_ids());

  // Resume: replay the remaining ops into both engines.
  for (size_t i = cut + 1; i < ops->size(); ++i) {
    ASSERT_TRUE(uninterrupted->Apply((*ops)[i]).ok());
    ASSERT_TRUE(restored->Apply((*ops)[i]).ok());
  }
  EXPECT_EQ(restored->last_seq(), uninterrupted->last_seq());
  EXPECT_EQ(restored->current_metric(), uninterrupted->current_metric());
  EXPECT_EQ(restored->current_accuracy(), uninterrupted->current_accuracy());
  EXPECT_EQ(restored->forest().PredictProbAll(p.test),
            uninterrupted->forest().PredictProbAll(p.test));
  const FumeResult* a = restored->explanation();
  const FumeResult* b = uninterrupted->explanation();
  ASSERT_EQ(a != nullptr, b != nullptr);
  if (a != nullptr) {
    ASSERT_EQ(a->top_k.size(), b->top_k.size());
    for (size_t i = 0; i < a->top_k.size(); ++i) {
      ExpectSubsetsIdentical(a->top_k[i], b->top_k[i]);
    }
  }
}

TEST(StreamCheckpointTest, RestoreRejectsGarbageAndWrongSchema) {
  StreamPipeline p = BuildPipeline(4);
  std::stringstream garbage("not a checkpoint at all");
  EXPECT_FALSE(
      StreamEngine::Restore(garbage, p.initial_train.schema(), p.test,
                            p.config)
          .ok());

  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok());
  std::stringstream blob;
  ASSERT_TRUE(engine->SaveCheckpoint(blob).ok());
  Schema wrong;
  wrong.AddCategorical("only", {"a", "b"});
  EXPECT_FALSE(
      StreamEngine::Restore(blob, wrong, p.test, p.config).ok());
}

// Tampered live-id blocks: the ids must be strictly ascending, so a swap
// or a duplicate is a corrupt checkpoint, for either model layout.
void ExpectTamperedIdsRejected(int num_shards) {
  StreamPipeline p = BuildPipeline(4);
  p.config.shard.num_shards = num_shards;
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE(engine->Apply(StreamOp::Delete(1, {2, 5})).ok());
  std::stringstream blob;
  ASSERT_TRUE(engine->SaveCheckpoint(blob).ok());
  const std::string bytes = blob.str();
  // magic, version, seq, metric, accuracy, drift reference, staleness,
  // live count — then the ids.
  const size_t ids_at = 8 + 4 + 5 * 8 + 8;
  ASSERT_GT(bytes.size(), ids_at + 2 * sizeof(RowId));
  RowId first = 0;
  RowId second = 0;
  std::memcpy(&first, bytes.data() + ids_at, sizeof(RowId));
  std::memcpy(&second, bytes.data() + ids_at + sizeof(RowId), sizeof(RowId));
  ASSERT_LT(first, second);

  {  // Untouched bytes restore.
    std::stringstream in(bytes);
    EXPECT_TRUE(
        StreamEngine::Restore(in, p.initial_train.schema(), p.test, p.config)
            .ok());
  }
  std::string swapped = bytes;
  std::memcpy(&swapped[ids_at], &second, sizeof(RowId));
  std::memcpy(&swapped[ids_at + sizeof(RowId)], &first, sizeof(RowId));
  std::string duplicated = bytes;
  std::memcpy(&duplicated[ids_at + sizeof(RowId)], &first, sizeof(RowId));
  for (const std::string& tampered : {swapped, duplicated}) {
    std::stringstream in(tampered);
    auto restored =
        StreamEngine::Restore(in, p.initial_train.schema(), p.test, p.config);
    ASSERT_FALSE(restored.ok());
    EXPECT_TRUE(restored.status().IsIOError()) << restored.status().ToString();
  }
}

TEST(StreamCheckpointTest, RestoreRejectsSwappedOrDuplicatedLiveIds) {
  ExpectTamperedIdsRejected(1);
}

TEST(StreamCheckpointTest, ShardedRestoreRejectsSwappedOrDuplicatedLiveIds) {
  ExpectTamperedIdsRejected(2);
}

// ---------------------------------------------------------------------------
// Per-op exactness: after EVERY single-row op the engine's incremental
// state — leaf-range prediction cache, confusion-count metric, sorted live
// ids and the lazily gathered training mirror — equals what a
// from-scratch computation gives.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The dense mirror the engine must reproduce, maintained the slow way.
struct ReferenceMirror {
  Dataset rows;
  std::vector<RowId> ids;
  RowId next_id = 0;

  explicit ReferenceMirror(const Dataset& initial) : rows(initial) {
    for (int64_t r = 0; r < initial.num_rows(); ++r) {
      ids.push_back(next_id++);
    }
  }

  void Apply(const StreamOp& op) {
    if (op.kind == OpKind::kInsert) {
      for (const StreamRow& row : op.rows) {
        ASSERT_TRUE(rows.AppendRow(row.codes, row.label).ok());
        ids.push_back(next_id++);
      }
    } else if (op.kind == OpKind::kDelete) {
      std::vector<int64_t> dense;
      for (const RowId id : op.row_ids) {
        for (size_t i = 0; i < ids.size(); ++i) {
          if (ids[i] == id) dense.push_back(static_cast<int64_t>(i));
        }
      }
      ASSERT_EQ(dense.size(), op.row_ids.size());
      rows = rows.DropRows(dense);
      std::vector<RowId> kept;
      for (size_t i = 0; i < ids.size(); ++i) {
        if (std::find(dense.begin(), dense.end(),
                      static_cast<int64_t>(i)) == dense.end()) {
          kept.push_back(ids[i]);
        }
      }
      ids = std::move(kept);
    }
  }
};

void ExpectPerOpExact(const StreamEngine& engine, const StreamPipeline& p,
                      const ReferenceMirror& ref) {
  const std::vector<RowId>& ids = engine.live_ids();
  ASSERT_EQ(ids, ref.ids);
  for (size_t i = 1; i < ids.size(); ++i) ASSERT_LT(ids[i - 1], ids[i]);
  EXPECT_EQ(engine.rows_live(), static_cast<int64_t>(ids.size()));
  const Dataset& mirror = engine.train_data();
  ASSERT_EQ(mirror.num_rows(), ref.rows.num_rows());
  ASSERT_EQ(mirror.labels(), ref.rows.labels());
  for (int j = 0; j < mirror.num_attributes(); ++j) {
    ASSERT_EQ(mirror.codes(j), ref.rows.codes(j)) << "attribute " << j;
  }
  // A deferred lazy burst leaves the cache and metric on the pre-burst
  // model until the next flush boundary (and the forest must not be
  // descended meanwhile); they are checked at every flush point instead.
  if (engine.deferring()) return;
  std::vector<double> probs;
  std::vector<int> preds;
  const std::vector<double>* cached_probs = nullptr;
  const std::vector<int>* cached_preds = nullptr;
  if (engine.is_sharded()) {
    probs = engine.sharded_forest().PredictProbAll(p.test);
    preds = engine.sharded_forest().PredictAll(p.test);
    cached_probs = &engine.shard_prediction_cache().probs();
    cached_preds = &engine.shard_prediction_cache().predictions();
  } else {
    probs = engine.forest().PredictProbAll(p.test);
    preds = engine.forest().PredictAll(p.test);
    cached_probs = &engine.prediction_cache().probs();
    cached_preds = &engine.prediction_cache().predictions();
  }
  ASSERT_EQ(*cached_probs, probs);
  ASSERT_EQ(*cached_preds, preds);
  EXPECT_TRUE(SameBits(engine.current_metric(),
                       ComputeFairness(p.test, preds, p.group,
                                       p.config.fume.metric)));
  int64_t correct = 0;
  for (int64_t r = 0; r < p.test.num_rows(); ++r) {
    if (preds[static_cast<size_t>(r)] == p.test.Label(r)) ++correct;
  }
  EXPECT_TRUE(SameBits(engine.current_accuracy(),
                       static_cast<double>(correct) /
                           static_cast<double>(p.test.num_rows())));
}

/// Never searches after Create: the checks are about op upkeep.
void PinExplanation(StreamEngineConfig* config) {
  config->drift.abs_threshold = std::numeric_limits<double>::infinity();
  config->drift.rel_threshold = std::numeric_limits<double>::infinity();
  config->search_on_checkpoint = false;
  // Equalized odds reads all four confusion cells.
  config->fume.metric = FairnessMetric::kEqualizedOdds;
}

void RunPerOpExactness(bool lazy, int num_shards, uint64_t workload_seed) {
  StreamPipeline p = BuildPipeline(9);
  PinExplanation(&p.config);
  p.config.forest.lazy_unlearn = lazy;
  p.config.shard.num_shards = num_shards;
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  WorkloadOptions w;
  w.num_ops = 420;
  w.insert_batch = 1;
  w.delete_batch = 1;
  w.checkpoint_every = 60;
  w.seed = workload_seed;
  auto ops = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  int64_t writes = 0;
  int64_t flip_points = 0;
  double last_metric = engine->current_metric();
  ReferenceMirror ref(p.initial_train);
  for (const StreamOp& op : *ops) {
    ASSERT_TRUE(engine->Apply(op).ok()) << "seq " << op.seq;
    ref.Apply(op);
    if (op.kind != OpKind::kCheckpoint) ++writes;
    ExpectPerOpExact(*engine, p, ref);
    if (::testing::Test::HasFatalFailure()) return;
    if (!SameBits(engine->current_metric(), last_metric)) ++flip_points;
    last_metric = engine->current_metric();
  }
  EXPECT_GE(writes, 400);
  // The metric moved along the way, so the incremental tallies were used.
  EXPECT_GT(flip_points, 0);
}

TEST(StreamPerOpExactnessTest, EagerSingleRowOps) {
  RunPerOpExactness(/*lazy=*/false, /*num_shards=*/1, 5);
}

TEST(StreamPerOpExactnessTest, LazySingleRowOps) {
  RunPerOpExactness(/*lazy=*/true, /*num_shards=*/1, 6);
}

TEST(StreamPerOpExactnessTest, TwoShardSingleRowOps) {
  RunPerOpExactness(/*lazy=*/false, /*num_shards=*/2, 7);
}

// A pure single-leaf forest: conflicting inserts rebuild the root leaf into
// a split in place (no retrain, so the cache re-partitions that leaf's range
// instead of re-walking), and deleting every row empties a leaf completely.
TEST(StreamPerOpExactnessTest, InPlaceLeafSplitAndEmptiedLeaf) {
  Schema schema;
  ASSERT_TRUE(schema.AddCategorical("group", {"a", "b"}).ok());
  ASSERT_TRUE(schema.AddCategorical("x", {"p", "q", "r", "s"}).ok());
  StreamPipeline p;
  p.initial_train = Dataset(schema);
  p.test = Dataset(schema);
  p.pool = Dataset(schema);
  for (int32_t x = 0; x < 4; ++x) {
    ASSERT_TRUE(p.initial_train.AppendRow({x % 2, x}, 1).ok());
    for (int32_t g = 0; g < 2; ++g) {
      ASSERT_TRUE(p.test.AppendRow({g, x}, (g + x) % 2).ok());
    }
  }
  p.group.sensitive_attr = 0;
  p.group.privileged_code = 1;
  p.config.forest.num_trees = 3;
  p.config.forest.max_depth = 3;
  p.config.forest.random_depth = 0;
  p.config.forest.seed = 5;
  p.config.fume.group = p.group;
  p.config.fume.min_original_bias = 10.0;  // never search: tiny data
  PinExplanation(&p.config);

  for (const bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy" : "eager");
    p.config.forest.lazy_unlearn = lazy;
    auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_EQ(engine->forest().num_nodes(), 3);  // one pure leaf per tree
    ReferenceMirror ref(p.initial_train);
    obs::Counter* rewalked =
        obs::GetCounter("stream.predcache.trees_rewalked");
    const int64_t rewalked_before = rewalked->Value();
    int64_t seq = 1;
    auto apply = [&](const StreamOp& op) {
      ASSERT_TRUE(engine->Apply(op).ok()) << "seq " << op.seq;
      ref.Apply(op);
      ExpectPerOpExact(*engine, p, ref);
    };
    // Label-0 rows at x = s split the root leaves in place.
    for (int i = 0; i < 4 && !HasFatalFailure(); ++i) {
      StreamRow row;
      row.codes = {i % 2, 3};
      row.label = 0;
      apply(StreamOp::Insert(seq++, {row}));
    }
    if (HasFatalFailure()) return;
    EXPECT_GT(engine->forest().num_nodes(), 3);
    EXPECT_EQ(rewalked->Value(), rewalked_before);
    // Delete everything, one row at a time: leaves drain to count 0.
    const std::vector<RowId> all = engine->live_ids();
    for (const RowId id : all) {
      apply(StreamOp::Delete(seq++, {id}));
      if (HasFatalFailure()) return;
    }
    engine->FlushLazy();
    ExpectPerOpExact(*engine, p, ref);
    EXPECT_EQ(engine->rows_live(), 0);
    for (const double prob : engine->prediction_cache().probs()) {
      EXPECT_EQ(prob, 0.5);
    }
  }
}

// ---------------------------------------------------------------------------
// Drift policy and serving semantics.

TEST(DriftPolicyTest, ThresholdEdges) {
  DriftPolicy policy;
  policy.abs_threshold = 0.05;
  policy.rel_threshold = 0.5;
  EXPECT_FALSE(policy.ShouldSearch(0.20, 0.21));  // small drift
  EXPECT_TRUE(policy.ShouldSearch(0.20, 0.26));   // abs bound crossed
  EXPECT_TRUE(policy.ShouldSearch(0.04, 0.08));   // rel bound crossed
  EXPECT_FALSE(policy.ShouldSearch(0.0, 0.04));   // rel ignored at F_last=0
  EXPECT_TRUE(policy.ShouldSearch(0.0, 0.05));    // ...but abs still applies
  EXPECT_TRUE(policy.ShouldSearch(0.03, -0.03));  // sign flip counts as drift
}

TEST(StreamEngineTest, DriftHoldServesStaleExplanation) {
  StreamPipeline p = BuildPipeline(4);
  p.config.drift.abs_threshold = 1e9;  // never re-search on data ops
  p.config.drift.rel_threshold = 1e9;
  p.config.search_on_checkpoint = false;
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok());
  const FumeResult* initial = engine->explanation();
  ASSERT_NE(initial, nullptr);
  const double frozen_reference = engine->metric_at_last_search();

  WorkloadOptions w;
  w.num_ops = 30;
  w.checkpoint_every = 10;
  w.seed = 3;
  auto ops = SynthesizeOpLog(p.pool, p.initial_train.num_rows(), w);
  ASSERT_TRUE(ops.ok());
  int64_t data_ops = 0;
  for (const StreamOp& op : *ops) {
    auto outcome = engine->Apply(op);
    ASSERT_TRUE(outcome.ok());
    EXPECT_FALSE(outcome->searched);
    if (op.kind != OpKind::kCheckpoint) ++data_ops;
    EXPECT_EQ(outcome->staleness_ops, data_ops);
  }
  // Cached top-k still served, staleness annotated, reference untouched.
  EXPECT_EQ(engine->explanation(), initial);
  EXPECT_EQ(engine->staleness(), data_ops);
  EXPECT_EQ(engine->metric_at_last_search(), frozen_reference);
}

TEST(StreamEngineTest, RejectsStaleSeqAndUnknownIds) {
  StreamPipeline p = BuildPipeline(4);
  auto engine = StreamEngine::Create(p.initial_train, p.test, p.config);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Apply(StreamOp::Checkpoint(5)).ok());
  EXPECT_FALSE(engine->Apply(StreamOp::Checkpoint(5)).ok());
  EXPECT_FALSE(engine->Apply(StreamOp::Checkpoint(4)).ok());

  // Deleting a never-issued id fails cleanly and changes nothing.
  const double before = engine->current_metric();
  EXPECT_FALSE(engine->Apply(StreamOp::Delete(6, {999999})).ok());
  EXPECT_EQ(engine->current_metric(), before);

  // Double-delete: the second op must fail (id no longer live).
  ASSERT_TRUE(engine->Apply(StreamOp::Delete(7, {0})).ok());
  EXPECT_FALSE(engine->Apply(StreamOp::Delete(8, {0})).ok());
}

}  // namespace
}  // namespace stream
}  // namespace fume
