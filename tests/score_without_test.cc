// Read-only what-if scoring (TestPredictionCache::ScoreWithout and
// ShardedPredictionCache::ScoreWithout): "forest minus S" scored straight
// from the base forest must be byte-identical to Clone()+DeleteRows+
// PredictAll and to retraining on D \ S with the same seed, report the
// clone's DeletionStats (without its node copies), answer bad row sets
// with DeleteRows' Status, and leave the base untouched. The sweep covers
// german and planted data, several seeds, batch sizes from one row to a
// whole random-depth subtree, monolithic and 2-/4-shard hash and slice
// ensembles, and bases built eagerly or lazily then flushed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fume.h"
#include "core/removal_method.h"
#include "core/sharded_removal.h"
#include "fairness/metrics.h"
#include "forest/forest.h"
#include "forest/prediction_cache.h"
#include "forest/serialize.h"
#include "forest/sharded_forest.h"
#include "synth/datasets.h"

namespace fume {
namespace {

struct Data {
  Dataset train;
  Dataset test;
  GroupSpec group;
};

Data MakeData(bool german, uint64_t seed) {
  Result<synth::DatasetBundle> bundle = Status::Invalid("unset");
  if (german) {
    synth::SynthOptions opts;
    opts.seed = seed;
    bundle = synth::MakeGermanCredit(opts);
  } else {
    synth::PlantedOptions opts;
    opts.num_rows = 2400;
    opts.seed = seed;
    bundle = synth::MakePlantedBias(opts);
  }
  EXPECT_TRUE(bundle.ok());
  std::vector<int64_t> train_rows, test_rows;
  for (int64_t r = 0; r < bundle->data.num_rows(); ++r) {
    (r % 10 < 7 ? train_rows : test_rows).push_back(r);
  }
  return Data{bundle->data.Select(train_rows), bundle->data.Select(test_rows),
              bundle->group};
}

ForestConfig Config(uint64_t seed, bool lazy) {
  ForestConfig config;
  config.num_trees = 5;
  config.max_depth = 6;
  config.random_depth = 2;
  config.seed = seed;
  config.lazy_unlearn = lazy;
  return config;
}

bool SameBytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void CollectRows(const TreeNode* node, std::vector<RowId>* out) {
  if (node->is_leaf()) {
    out->insert(out->end(), node->rows.begin(), node->rows.end());
    return;
  }
  CollectRows(node->left.get(), out);
  CollectRows(node->right.get(), out);
}

/// The rows of the node reached by descending `depth` levels from the root
/// along the sides `key`'s bits pick (stopping early at a leaf).
std::vector<RowId> SubtreeRows(const DareTree& tree, int depth, uint64_t key) {
  const TreeNode* node = tree.root();
  for (int d = 0; d < depth && !node->is_leaf(); ++d) {
    node = ((key >> d) & 1) == 0 ? node->left.get() : node->right.get();
  }
  std::vector<RowId> rows;
  CollectRows(node, &rows);
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// `count` distinct rows drawn from `live` (all of them when count
/// exceeds it), in a seed-determined order.
std::vector<RowId> Draw(std::vector<RowId> live, size_t count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::shuffle(live.begin(), live.end(), rng);
  live.resize(std::min(count, live.size()));
  return live;
}

struct Batch {
  std::string name;
  std::vector<RowId> rows;
};

/// The sweep's batches over `tree`'s rows: fixed sizes, one whole leaf,
/// one whole subtree at the random depth. `to_id` maps a tree row id to
/// the id the caller deletes by (identity for a monolithic forest).
template <typename ToId>
std::vector<Batch> Batches(const DareTree& tree, int random_depth,
                           uint64_t seed, ToId&& to_id) {
  const std::vector<RowId> live = SubtreeRows(tree, 0, 0);
  std::vector<Batch> out;
  for (const size_t size : {1, 4, 16, 64, 1024}) {
    out.push_back({"size" + std::to_string(size),
                   Draw(live, size, seed * 977 + size)});
  }
  out.push_back({"leaf", SubtreeRows(tree, 64, seed * 31 + 7)});
  out.push_back({"subtree", SubtreeRows(tree, random_depth, seed + 3)});
  for (Batch& batch : out) {
    for (RowId& r : batch.rows) r = to_id(r);
  }
  return out;
}

/// A base forest with a history: trained, then a few rows deleted (lazily
/// and flushed, or eagerly).
DareForest MakeBase(const Data& data, uint64_t seed, bool lazy,
                    std::vector<RowId>* pre_deleted) {
  auto trained = DareForest::Train(data.train, Config(seed, lazy));
  EXPECT_TRUE(trained.ok());
  DareForest base = std::move(*trained);
  *pre_deleted = Draw(SubtreeRows(base.tree(0), 0, 0), 25, seed + 11);
  EXPECT_TRUE(base.DeleteRows(*pre_deleted).ok());
  if (lazy) base.FlushAll();
  EXPECT_FALSE(base.HasLazyTags());
  return base;
}

/// Clone()+DeleteRows+PredictAll on a clone of `base`: the reference.
struct CloneResult {
  std::vector<int> preds;
  std::vector<double> probs;
  DeletionStats stats;
};

CloneResult ViaClone(const DareForest& base, const std::vector<RowId>& rows,
                     const Dataset& test) {
  DareForest clone = base.Clone();
  if (clone.config().lazy_unlearn) clone.SetLazyUnlearn(false);
  EXPECT_TRUE(clone.DeleteRows(rows).ok());
  CloneResult out{clone.PredictAll(test), clone.PredictProbAll(test),
                  clone.deletion_stats()};
  out.stats.nodes_copied = 0;
  return out;
}

TEST(ScoreWithoutTest, MatchesCloneAndRetrainAcrossTheSweep) {
  int cases = 0;
  for (const bool german : {true, false}) {
    for (const uint64_t seed : {1, 2, 3}) {
      const Data data = MakeData(german, seed);
      for (const bool lazy : {false, true}) {
        std::vector<RowId> pre;
        const DareForest base = MakeBase(data, seed, lazy, &pre);
        TestPredictionCache cache;
        cache.Rebuild(base, data.test);
        TestPredictionCache::ScoreScratch scratch;  // reused across batches
        scratch.want_probs = true;
        for (const Batch& batch :
             Batches(base.tree(static_cast<int>(seed) % base.num_trees()),
                     base.config().random_depth, seed,
                     [](RowId r) { return r; })) {
          SCOPED_TRACE((german ? "german" : "planted") + std::string(" seed ") +
                       std::to_string(seed) + (lazy ? " lazy " : " eager ") +
                       batch.name);
          ASSERT_TRUE(
              cache.ScoreWithout(base, batch.rows, data.test, &scratch).ok());
          const CloneResult want = ViaClone(base, batch.rows, data.test);
          EXPECT_EQ(scratch.preds, want.preds);
          EXPECT_TRUE(SameBytes(scratch.probs, want.probs));
          EXPECT_EQ(scratch.stats, want.stats);
          EXPECT_EQ(scratch.stats.nodes_copied, 0);

          // The oracle: retrain on D minus (pre-deleted + batch), same seed.
          // Deleting every row (german's 1024 batch) leaves nothing to
          // train on; the empty forest scores 0.5 everywhere.
          std::vector<int64_t> drop(pre.begin(), pre.end());
          drop.insert(drop.end(), batch.rows.begin(), batch.rows.end());
          if (static_cast<int64_t>(drop.size()) == data.train.num_rows()) {
            EXPECT_TRUE(SameBytes(
                scratch.probs,
                std::vector<double>(scratch.probs.size(), 0.5)));
          } else {
            auto retrained = DareForest::Train(data.train.DropRows(drop),
                                               Config(seed, false));
            ASSERT_TRUE(retrained.ok());
            EXPECT_TRUE(SameBytes(scratch.probs,
                                  retrained->PredictProbAll(data.test)));
          }
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * 3 * 2 * 7);
}

TEST(ScoreWithoutTest, RemovalMethodMatchesRetrainRemovalWithTheSameSeed) {
  for (const bool german : {true, false}) {
    const Data data = MakeData(german, 4);
    const ForestConfig config = Config(4, false);
    auto model = DareForest::Train(data.train, config);
    ASSERT_TRUE(model.ok());
    UnlearnRemovalMethod unlearn(&*model, &data.test, data.group,
                                 FairnessMetric::kStatisticalParity);
    RetrainRemovalMethod retrain(&data.train, &data.test, config, data.group,
                                 FairnessMetric::kStatisticalParity);
    for (const Batch& batch : Batches(model->tree(0), config.random_depth, 4,
                                      [](RowId r) { return r; })) {
      // Retraining needs at least one row left.
      if (static_cast<int64_t>(batch.rows.size()) == data.train.num_rows()) {
        continue;
      }
      auto a = unlearn.EvaluateWithout(batch.rows);
      auto b = retrain.EvaluateWithout(batch.rows);
      ASSERT_TRUE(a.ok() && b.ok()) << batch.name;
      EXPECT_TRUE(SameBits(a->fairness, b->fairness)) << batch.name;
      EXPECT_TRUE(SameBits(a->accuracy, b->accuracy)) << batch.name;
    }
    // Read-only: not one node was copied across the evaluations.
    EXPECT_GT(unlearn.deletion_stats().nodes_visited, 0);
    EXPECT_EQ(unlearn.deletion_stats().nodes_copied, 0);
  }
}

ShardConfig Shards(int n, bool slice, const Dataset& train) {
  ShardConfig shard;
  shard.num_shards = n;
  if (slice) {
    shard.placement = ShardConfig::Placement::kSlice;
    shard.slice_attr = 0;
    shard.slice_value = train.Code(0, 0);
    shard.hot_shards = 1;
  }
  return shard;
}

TEST(ScoreWithoutTest, ShardedMatchesCloneAcrossTheSweep) {
  int cases = 0;
  for (const bool german : {true, false}) {
    for (const uint64_t seed : {1, 2, 3}) {
      const Data data = MakeData(german, seed);
      for (const int n : {2, 4}) {
        for (const bool slice : {false, true}) {
          for (const bool lazy : {false, true}) {
            auto trained =
                ShardedForest::Train(data.train, Config(seed, lazy),
                                     Shards(n, slice, data.train));
            ASSERT_TRUE(trained.ok());
            ShardedForest base = std::move(*trained);
            std::vector<RowId> live;
            for (RowId g = 0; g < base.num_global_ids(); ++g) {
              live.push_back(g);
            }
            const std::vector<RowId> pre = Draw(live, 20, seed + 5);
            ASSERT_TRUE(base.DeleteRows(pre).ok());
            if (lazy) base.FlushAll();
            ShardedPredictionCache cache;
            cache.Rebuild(base, data.test);
            ShardedPredictionCache::ScoreScratch scratch;

            // Leaf and subtree batches come from one shard's tree (local
            // ids mapped back to global ones); size batches are drawn
            // across every shard.
            const int s = static_cast<int>(seed) % n;
            std::vector<RowId> global_of(
                static_cast<size_t>(base.shard(s).store().num_rows()), -1);
            for (RowId g = 0; g < base.num_global_ids(); ++g) {
              if (base.shard_of(g) == s) {
                global_of[static_cast<size_t>(base.local_of(g))] = g;
              }
            }
            std::vector<Batch> batches = Batches(
                base.shard(s).tree(0), base.shard(s).config().random_depth,
                seed,
                [&](RowId r) { return global_of[static_cast<size_t>(r)]; });
            std::vector<RowId> alive;
            for (const RowId g : live) {
              if (std::find(pre.begin(), pre.end(), g) == pre.end()) {
                alive.push_back(g);
              }
            }
            for (Batch& batch : batches) {
              if (batch.name.rfind("size", 0) != 0) continue;
              const size_t size = std::stoul(batch.name.substr(4));
              batch.rows = Draw(alive, size, seed * 13 + size);
            }
            for (const Batch& batch : batches) {
              SCOPED_TRACE((german ? "german" : "planted") +
                           std::string(" seed ") + std::to_string(seed) +
                           " shards " + std::to_string(n) +
                           (slice ? " slice" : " hash") +
                           (lazy ? " lazy " : " eager ") + batch.name);
              ASSERT_TRUE(cache.ScoreWithout(base, batch.rows, data.test,
                                             &scratch)
                              .ok());
              ShardedForest clone = base.Clone();
              if (lazy) clone.SetLazyUnlearn(false);
              ASSERT_TRUE(clone.DeleteRows(batch.rows).ok());
              EXPECT_EQ(scratch.preds, clone.PredictAll(data.test));
              EXPECT_TRUE(
                  SameBytes(scratch.probs, clone.PredictProbAll(data.test)));
              DeletionStats want = clone.deletion_stats();
              want.nodes_copied = 0;
              EXPECT_EQ(scratch.stats, want);
              ++cases;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 2 * 3 * 2 * 2 * 2 * 7);
}

TEST(ScoreWithoutTest, BadRowSetsGetDeleteRowsStatus) {
  const Data data = MakeData(true, 1);
  auto model = DareForest::Train(data.train, Config(1, false));
  ASSERT_TRUE(model.ok());
  TestPredictionCache cache;
  cache.Rebuild(*model, data.test);
  TestPredictionCache::ScoreScratch scratch;
  const RowId n = static_cast<RowId>(model->store().num_rows());
  const std::vector<std::vector<RowId>> bad = {
      {-1}, {n}, {3, n + 5}, {5, 5}, {2, 9, 2}, {4, 7, -3, 4}};
  for (const std::vector<RowId>& rows : bad) {
    DareForest clone = model->Clone();
    const Status want = clone.DeleteRows(rows);
    const Status got = cache.ScoreWithout(*model, rows, data.test, &scratch);
    ASSERT_FALSE(want.ok());
    EXPECT_EQ(got.code(), want.code());
    EXPECT_EQ(got.ToString(), want.ToString());
  }
  // A failed call leaves the scratch usable.
  ASSERT_TRUE(cache.ScoreWithout(*model, {1, 2, 3}, data.test, &scratch).ok());
  EXPECT_EQ(scratch.preds, ViaClone(*model, {1, 2, 3}, data.test).preds);

  auto sharded =
      ShardedForest::Train(data.train, Config(1, false),
                           Shards(4, false, data.train));
  ASSERT_TRUE(sharded.ok());
  ShardedPredictionCache shard_cache;
  shard_cache.Rebuild(*sharded, data.test);
  ShardedPredictionCache::ScoreScratch shard_scratch;
  const RowId g = static_cast<RowId>(sharded->num_global_ids());
  RowId pair = 1;  // a second row in row 0's shard
  while (sharded->shard_of(pair) != sharded->shard_of(0)) ++pair;
  const std::vector<std::vector<RowId>> shard_bad = {
      {-1}, {g}, {0, 0}, {pair, 0, pair}, {0, 1, 2, 3, g + 1}};
  for (const std::vector<RowId>& rows : shard_bad) {
    ShardedForest clone = sharded->Clone();
    const Status want = clone.DeleteRows(rows);
    const Status got =
        shard_cache.ScoreWithout(*sharded, rows, data.test, &shard_scratch);
    ASSERT_FALSE(want.ok());
    EXPECT_EQ(got.code(), want.code());
    EXPECT_EQ(got.ToString(), want.ToString());
  }
}

std::string ForestBytes(const DareForest& forest) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(SaveForest(forest, out).ok());
  return out.str();
}

TEST(ScoreWithoutTest, NeverTouchesTheBase) {
  const Data data = MakeData(false, 2);
  auto model = DareForest::Train(data.train, Config(2, false));
  ASSERT_TRUE(model.ok());
  TestPredictionCache cache;
  cache.Rebuild(*model, data.test);
  const std::string bytes = ForestBytes(*model);
  std::vector<uint64_t> generations;
  std::vector<const TreeArena*> arenas;
  for (int t = 0; t < model->num_trees(); ++t) {
    generations.push_back(model->tree(t).generation());
    arenas.push_back(model->tree(t).arena().get());
  }
  const int64_t live_nodes = cow_debug::LiveTreeNodes();
  TestPredictionCache::ScoreScratch scratch;
  for (const Batch& batch : Batches(model->tree(1), 2, 5,
                                    [](RowId r) { return r; })) {
    ASSERT_TRUE(cache.ScoreWithout(*model, batch.rows, data.test, &scratch)
                    .ok());
    // No TreeNode is created, even transiently kept (0 under NDEBUG).
    EXPECT_EQ(cow_debug::LiveTreeNodes(), live_nodes);
  }
  EXPECT_EQ(ForestBytes(*model), bytes);
  EXPECT_TRUE(model->ValidateStats());
  for (int t = 0; t < model->num_trees(); ++t) {
    EXPECT_EQ(model->tree(t).generation(), generations[static_cast<size_t>(t)]);
    EXPECT_EQ(model->tree(t).arena().get(), arenas[static_cast<size_t>(t)]);
  }
  EXPECT_EQ(cache.predictions(), model->PredictAll(data.test));
}

TEST(ScoreWithoutTest, IndexFollowsUpdates) {
  // The engine's pattern: the base mutates between what-ifs and the cache
  // follows through Update; the index built before must not be reused.
  const Data data = MakeData(false, 3);
  auto model = DareForest::Train(data.train, Config(3, false));
  ASSERT_TRUE(model.ok());
  TestPredictionCache cache;
  cache.Rebuild(*model, data.test);
  TestPredictionCache::ScoreScratch scratch;
  std::vector<RowId> live = SubtreeRows(model->tree(0), 0, 0);
  for (uint64_t round = 0; round < 4; ++round) {
    const std::vector<RowId> what_if = Draw(live, 40, round + 100);
    ASSERT_TRUE(cache.ScoreWithout(*model, what_if, data.test, &scratch).ok());
    EXPECT_EQ(scratch.preds, ViaClone(*model, what_if, data.test).preds);
    // Copies share the built index and stay exact.
    const TestPredictionCache copy = cache;
    TestPredictionCache::ScoreScratch copy_scratch;
    ASSERT_TRUE(
        copy.ScoreWithout(*model, what_if, data.test, &copy_scratch).ok());
    EXPECT_EQ(copy_scratch.preds, scratch.preds);

    const std::vector<RowId> op = Draw(live, 30, round + 200);
    std::vector<DeletionStats> per_tree;
    ASSERT_TRUE(model->DeleteRows(op, &per_tree).ok());
    std::vector<bool> dirty(per_tree.size());
    for (size_t t = 0; t < per_tree.size(); ++t) {
      dirty[t] = per_tree[t].subtrees_retrained > 0;
    }
    cache.Update(*model, data.test, dirty);
    live = SubtreeRows(model->tree(0), 0, 0);
  }
}

TEST(ScoreWithoutTest, ConcurrentCallsAgreeWithSerialOnes) {
  const Data data = MakeData(true, 2);
  auto model = DareForest::Train(data.train, Config(2, false));
  ASSERT_TRUE(model.ok());
  TestPredictionCache cache;
  cache.Rebuild(*model, data.test);  // index not built yet: threads race it
  const std::vector<Batch> batches =
      Batches(model->tree(0), 2, 9, [](RowId r) { return r; });
  std::vector<std::vector<int>> want;
  for (const Batch& batch : batches) {
    want.push_back(ViaClone(*model, batch.rows, data.test).preds);
  }
  std::vector<int> failures(8, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([&, w] {
      TestPredictionCache::ScoreScratch scratch;
      for (int rep = 0; rep < 3; ++rep) {
        for (size_t i = 0; i < batches.size(); ++i) {
          const size_t b = (i + static_cast<size_t>(w)) % batches.size();
          if (!cache.ScoreWithout(*model, batches[b].rows, data.test, &scratch)
                   .ok() ||
              scratch.preds != want[b]) {
            ++failures[static_cast<size_t>(w)];
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int f : failures) EXPECT_EQ(f, 0);
}

/// Reference removal for a sharded model: Clone()+DeleteRows+PredictAll.
class CloneShardedRemoval : public RemovalMethod {
 public:
  CloneShardedRemoval(const ShardedForest* model, const Dataset* test,
                      GroupSpec group)
      : model_(model), test_(test), group_(group) {}
  Result<ModelEval> EvaluateWithout(const std::vector<RowId>& rows) override {
    ShardedForest clone = model_->Clone();
    FUME_RETURN_NOT_OK(clone.DeleteRows(rows));
    const std::vector<int> preds = clone.PredictAll(*test_);
    ModelEval eval;
    eval.fairness = ComputeFairness(*test_, preds, group_,
                                    FairnessMetric::kStatisticalParity);
    eval.accuracy = clone.Accuracy(*test_);
    return eval;
  }
  const char* name() const override { return "clone-sharded"; }

 private:
  const ShardedForest* model_;
  const Dataset* test_;
  GroupSpec group_;
};

std::string TopK(const FumeResult& result, const Schema& schema) {
  std::ostringstream os;
  os.precision(17);
  for (const AttributableSubset& s : result.top_k) {
    os << s.predicate.ToString(schema) << '|' << s.attribution << '|'
       << s.new_fairness << '|' << s.new_accuracy << '\n';
  }
  return os.str();
}

TEST(ScoreWithoutTest, SearchTopKIdenticalAcrossThreadCounts) {
  for (const bool german : {true, false}) {
    const Data data = MakeData(german, 6);
    FumeConfig config;
    config.group = data.group;
    config.metric = FairnessMetric::kStatisticalParity;
    config.top_k = 5;
    config.support_min = 0.05;
    config.support_max = 0.2;
    config.max_literals = 2;

    auto model = DareForest::Train(data.train, Config(6, false));
    ASSERT_TRUE(model.ok());
    UnlearnRemovalMethod reference(&*model, &data.test, data.group,
                                   config.metric,
                                   UnlearnRemovalMethod::Options{false});
    config.num_threads = 1;
    auto ref = ExplainWithRemoval(*model, data.train, data.test, config,
                                  &reference);
    ASSERT_TRUE(ref.ok());
    ASSERT_FALSE(ref->top_k.empty());
    const std::string want = TopK(*ref, data.train.schema());

    auto sharded = ShardedForest::Train(data.train, Config(6, false),
                                        Shards(4, true, data.train));
    ASSERT_TRUE(sharded.ok());
    ModelEval original;
    original.fairness = ComputeFairness(
        data.test, sharded->PredictAll(data.test), data.group, config.metric);
    original.accuracy = sharded->Accuracy(data.test);
    CloneShardedRemoval shard_reference(&*sharded, &data.test, data.group);
    auto shard_ref = ExplainWithRemoval(original, data.train, config,
                                        &shard_reference);
    ASSERT_TRUE(shard_ref.ok());
    const std::string shard_want = TopK(*shard_ref, data.train.schema());

    for (const int threads : {1, 4, 8}) {
      config.num_threads = threads;
      UnlearnRemovalMethod read_only(&*model, &data.test, data.group,
                                     config.metric);
      auto got = ExplainWithRemoval(*model, data.train, data.test, config,
                                    &read_only);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(TopK(*got, data.train.schema()), want)
          << "german=" << german << " threads=" << threads;

      ShardedRemovalMethod shard_read_only(&*sharded, &data.test, data.group,
                                           config.metric);
      auto shard_got = ExplainWithRemoval(original, data.train, config,
                                          &shard_read_only);
      ASSERT_TRUE(shard_got.ok());
      EXPECT_EQ(TopK(*shard_got, data.train.schema()), shard_want)
          << "sharded german=" << german << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace fume
