// Tests for forest serialization: byte-exact model round trips, continued
// unlearning after load, pinned golden bytes of all three binary encoders
// (FUMEDARE, FUMESHRD, FUMESTRM), and corrupt-input rejection.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "data/split.h"
#include "forest/serialize.h"
#include "forest/sharded_forest.h"
#include "stream/engine.h"
#include "synth/datasets.h"
#include "util/rng.h"

namespace fume {
namespace {

DareForest TrainedForest(uint64_t seed, ThresholdMode mode) {
  auto bundle = synth::MakeParametric(500, 6, 4, seed);
  EXPECT_TRUE(bundle.ok());
  ForestConfig config;
  config.num_trees = 4;
  config.max_depth = 7;
  config.random_depth = 2;
  config.threshold_mode = mode;
  config.seed = seed + 1;
  auto forest = DareForest::Train(bundle->data, config);
  EXPECT_TRUE(forest.ok());
  return std::move(*forest);
}

TEST(SerializeTest, RoundTripIsStructurallyIdentical) {
  DareForest forest = TrainedForest(1, ThresholdMode::kExact);
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveForest(forest, out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  auto loaded = LoadForest(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_EQ(loaded->num_nodes(), forest.num_nodes());
  EXPECT_EQ(loaded->config().seed, forest.config().seed);
}

TEST(SerializeTest, SampledModeRoundTrips) {
  DareForest forest = TrainedForest(2, ThresholdMode::kSampled);
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveForest(forest, out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  auto loaded = LoadForest(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_EQ(loaded->config().threshold_mode, ThresholdMode::kSampled);
}

TEST(SerializeTest, LoadedForestStillUnlearnsExactly) {
  DareForest forest = TrainedForest(3, ThresholdMode::kExact);
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveForest(forest, out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  auto loaded = LoadForest(in);
  ASSERT_TRUE(loaded.ok());

  std::vector<RowId> doomed = {3, 50, 77, 123, 400, 499};
  ASSERT_TRUE(forest.DeleteRows(doomed).ok());
  ASSERT_TRUE(loaded->DeleteRows(doomed).ok());
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_TRUE(loaded->ValidateStats());
}

TEST(SerializeTest, DeleteBeforeSaveIsPreserved) {
  DareForest forest = TrainedForest(4, ThresholdMode::kExact);
  ASSERT_TRUE(forest.DeleteRows({1, 2, 3, 100}).ok());
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveForest(forest, out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  auto loaded = LoadForest(in);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_EQ(loaded->num_training_rows(), 496);
}

TEST(SerializeTest, DeletionStatsSurviveMixedOpsRoundTrip) {
  // v2 pins the unlearning work counters: a forest that has absorbed a mix
  // of adds and deletes must round-trip its DeletionStats exactly, and keep
  // unlearning identically afterwards.
  DareForest forest = TrainedForest(7, ThresholdMode::kExact);
  auto extra = synth::MakeParametric(40, 6, 4, 99);
  ASSERT_TRUE(extra.ok());
  auto added = forest.AddData(extra->data);
  ASSERT_TRUE(added.ok());
  ASSERT_TRUE(forest.DeleteRows({2, 17, 130, (*added)[5], (*added)[20]}).ok());
  ASSERT_NE(forest.deletion_stats(), DeletionStats{});

  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveForest(forest, out).ok());
  std::istringstream in(out.str(), std::ios::binary);
  auto loaded = LoadForest(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_EQ(loaded->deletion_stats(), forest.deletion_stats());

  // Continued ops on both copies accrue identical counters.
  ASSERT_TRUE(forest.DeleteRows({5, 200, 333}).ok());
  ASSERT_TRUE(loaded->DeleteRows({5, 200, 333}).ok());
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_EQ(loaded->deletion_stats(), forest.deletion_stats());
}

TEST(SerializeTest, LazyTagsNeverReachTheWire) {
  // DESIGN.md §6 invariant 9: no tag escapes a flush boundary. SaveForest
  // flushes a lazily-deleted forest before writing, so the bytes it emits
  // equal the eager kernel's on the same op sequence (work counters zeroed
  // on both sides — lazy deliberately does less retrain work).
  DareForest eager = TrainedForest(8, ThresholdMode::kExact);
  DareForest lazy = TrainedForest(8, ThresholdMode::kExact);
  lazy.SetLazyUnlearn(true);
  std::vector<RowId> doomed;
  for (RowId r = 0; r < 160; r += 2) doomed.push_back(r);
  ASSERT_TRUE(eager.DeleteRows(doomed).ok());
  ASSERT_TRUE(lazy.DeleteRows(doomed).ok());
  ASSERT_TRUE(lazy.HasLazyTags());

  // The first save triggers the flush (its retrain work lands in the lazy
  // DeletionStats, which v2 serializes); the byte comparison zeroes both
  // sides' counters afterwards and saves again.
  std::ostringstream first(std::ios::binary);
  ASSERT_TRUE(SaveForest(lazy, first).ok());
  EXPECT_FALSE(lazy.HasLazyTags());
  eager.ResetDeletionStats();
  lazy.ResetDeletionStats();
  std::ostringstream eager_out(std::ios::binary);
  std::ostringstream lazy_out(std::ios::binary);
  ASSERT_TRUE(SaveForest(eager, eager_out).ok());
  ASSERT_TRUE(SaveForest(lazy, lazy_out).ok());
  EXPECT_EQ(lazy_out.str(), eager_out.str());

  std::istringstream in(lazy_out.str(), std::ios::binary);
  auto loaded = LoadForest(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->StructurallyEquals(eager));
  // lazy_unlearn is a runtime knob, never model state.
  EXPECT_FALSE(loaded->config().lazy_unlearn);
}

TEST(SerializeTest, RuntimeKnobsNeverReachTheWire) {
  // batched_unlearn_kernel / arena_traversal / lazy_unlearn (and the
  // ShardConfig routing of a 1-shard container) are execution knobs, not
  // model state: every combination run over the same train + mutate
  // sequence must serialize to the same bytes. A knob leaking into the
  // wire format would fork checkpoints between deployments that only
  // differ in execution strategy.
  struct Knobs {
    bool batched;
    bool arena;
    bool lazy;  // requires batched
  };
  const std::vector<Knobs> combos = {
      {true, true, false},  {true, false, false}, {false, true, false},
      {false, false, false}, {true, true, true},   {true, false, true},
  };
  auto bundle = synth::MakeParametric(400, 6, 4, 17);
  ASSERT_TRUE(bundle.ok());
  auto extra = synth::MakeParametric(30, 6, 4, 18);
  ASSERT_TRUE(extra.ok());

  std::string reference_mono;
  std::string reference_sharded;
  for (const Knobs& k : combos) {
    ForestConfig config;
    config.num_trees = 4;
    config.max_depth = 7;
    config.random_depth = 2;
    config.seed = 5;
    config.batched_unlearn_kernel = k.batched;
    config.arena_traversal = k.arena;
    config.lazy_unlearn = k.lazy;
    const std::string label = std::string("batched=") +
                              (k.batched ? "1" : "0") +
                              " arena=" + (k.arena ? "1" : "0") +
                              " lazy=" + (k.lazy ? "1" : "0");

    auto forest = DareForest::Train(bundle->data, config);
    ASSERT_TRUE(forest.ok()) << label;
    ASSERT_TRUE(forest->DeleteRows({2, 17, 90, 250, 399}).ok()) << label;
    ASSERT_TRUE(forest->AddData(extra->data).ok()) << label;
    ASSERT_TRUE(forest->DeleteRows({5, 6, 401}).ok()) << label;
    if (k.lazy) forest->FlushAll();
    // Lazy does less retrain work by design, so its counters differ;
    // zero them everywhere so the comparison pins pure model bytes.
    forest->ResetDeletionStats();
    std::ostringstream out(std::ios::binary);
    ASSERT_TRUE(SaveForest(*forest, out).ok()) << label;
    if (reference_mono.empty()) {
      reference_mono = out.str();
    } else {
      EXPECT_EQ(out.str(), reference_mono) << label;
    }

    // Same sweep through the sharded container (trained as one shard so
    // the knobs are the only variable; ShardConfig routing fields ARE
    // serialized — deliberately, a checkpoint must re-route identically).
    ShardConfig shard;
    shard.num_shards = 1;
    auto sharded = ShardedForest::Train(bundle->data, config, shard);
    ASSERT_TRUE(sharded.ok()) << label;
    ASSERT_TRUE(sharded->DeleteRows({2, 17, 90, 250, 399}).ok()) << label;
    ASSERT_TRUE(sharded->AddData(extra->data).ok()) << label;
    ASSERT_TRUE(sharded->DeleteRows({5, 6, 401}).ok()) << label;
    if (k.lazy) sharded->FlushAll();
    sharded->ResetDeletionStats();
    std::ostringstream shard_out(std::ios::binary);
    ASSERT_TRUE(sharded->Save(shard_out).ok()) << label;
    if (reference_sharded.empty()) {
      reference_sharded = shard_out.str();
    } else {
      EXPECT_EQ(shard_out.str(), reference_sharded) << label;
    }
  }
}

TEST(SerializeTest, FileRoundTrip) {
  DareForest forest = TrainedForest(5, ThresholdMode::kExact);
  const std::string path = "/tmp/fume_forest_test.bin";
  ASSERT_TRUE(SaveForestToFile(forest, path).ok());
  auto loaded = LoadForestFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->StructurallyEquals(forest));
  EXPECT_FALSE(LoadForestFromFile("/tmp/does-not-exist.bin").ok());
}

TEST(SerializeTest, RejectsCorruptInput) {
  {
    std::istringstream in(std::string("NOTAFORE"), std::ios::binary);
    EXPECT_TRUE(LoadForest(in).status().IsIOError());
  }
  {
    std::istringstream in(std::string(""), std::ios::binary);
    EXPECT_TRUE(LoadForest(in).status().IsIOError());
  }
  // Truncation anywhere in the stream must fail cleanly, never crash.
  DareForest forest = TrainedForest(6, ThresholdMode::kExact);
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(SaveForest(forest, out).ok());
  const std::string blob = out.str();
  for (size_t cut : {size_t{9}, size_t{40}, blob.size() / 2,
                     blob.size() - 3}) {
    std::istringstream in(blob.substr(0, cut), std::ios::binary);
    EXPECT_FALSE(LoadForest(in).ok()) << "cut at " << cut;
  }
}

// ---------------------------------------------------------------------------
// Golden bytes. Each case serializes a fixed model after a fixed op
// sequence and compares the FNV-1a-64 hash and size of the image against
// constants recorded from the per-field std::ostream encoders, so any
// change to an encoder that moves a single byte fails here.

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

void ExpectGolden(const std::string& bytes, size_t size, uint64_t fnv) {
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(Fnv1a64(bytes), fnv) << "size " << bytes.size();
}

/// Trained on fixed parametric data, then two deletes around an add.
DareForest GoldenForest(ThresholdMode mode, bool lazy) {
  auto bundle = synth::MakeParametric(600, 7, 5, 21);
  EXPECT_TRUE(bundle.ok());
  auto extra = synth::MakeParametric(50, 7, 5, 22);
  EXPECT_TRUE(extra.ok());
  ForestConfig config;
  config.num_trees = 5;
  config.max_depth = 8;
  config.random_depth = 2;
  config.threshold_mode = mode;
  config.num_sampled_thresholds = 2;
  config.seed = 77;
  config.lazy_unlearn = lazy;
  auto forest = DareForest::Train(bundle->data, config);
  EXPECT_TRUE(forest.ok());
  EXPECT_TRUE(forest->DeleteRows({3, 44, 45, 210, 599}).ok());
  EXPECT_TRUE(forest->AddData(extra->data).ok());
  std::vector<RowId> doomed;
  for (RowId r = 100; r < 400; r += 3) doomed.push_back(r);
  doomed.push_back(620);
  EXPECT_TRUE(forest->DeleteRows(doomed).ok());
  return std::move(*forest);
}

std::string SaveToString(const DareForest& forest) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(SaveForest(forest, out).ok());
  return out.str();
}

TEST(SerializeTest, GoldenExactForestBytes) {
  ExpectGolden(SaveToString(GoldenForest(ThresholdMode::kExact, false)),
               246865, 1555128186039573290ull);
}

TEST(SerializeTest, GoldenSampledForestBytes) {
  ExpectGolden(SaveToString(GoldenForest(ThresholdMode::kSampled, false)),
               237693, 300684505585410938ull);
}

TEST(SerializeTest, GoldenLazilyTaggedForestBytes) {
  // SaveForest flushes the pending tags first, so the image is the eager
  // forest's (DESIGN.md §6 invariant 9) — same hash as the exact case.
  DareForest forest = GoldenForest(ThresholdMode::kExact, true);
  ASSERT_TRUE(forest.HasLazyTags());
  ExpectGolden(SaveToString(forest), 246865, 1555128186039573290ull);
}

TEST(SerializeTest, GoldenShardedContainerBytes) {
  auto bundle = synth::MakeParametric(600, 7, 5, 23);
  ASSERT_TRUE(bundle.ok());
  auto extra = synth::MakeParametric(40, 7, 5, 24);
  ASSERT_TRUE(extra.ok());
  ForestConfig config;
  config.num_trees = 3;
  config.max_depth = 7;
  config.random_depth = 2;
  config.seed = 78;
  ShardConfig shard;
  shard.num_shards = 2;
  auto sharded = ShardedForest::Train(bundle->data, config, shard);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE(sharded->DeleteRows({1, 2, 3, 300, 301, 599}).ok());

  std::vector<std::string> blobs;
  std::ostringstream first(std::ios::binary);
  ASSERT_TRUE(sharded->SaveWithCache(first, &blobs, {}).ok());
  ExpectGolden(first.str(), 159331, 9763032312339300362ull);

  ASSERT_TRUE(sharded->AddData(extra->data).ok());
  ASSERT_TRUE(sharded->DeleteRows({7, 8, 605}).ok());
  std::ostringstream fresh(std::ios::binary);
  ASSERT_TRUE(sharded->Save(fresh).ok());
  ExpectGolden(fresh.str(), 165635, 8855034114877577524ull);
  // Both shards re-serialized into the cached blobs, then every blob
  // reused verbatim: the same bytes as a fresh Save either way.
  std::ostringstream rewritten(std::ios::binary);
  ASSERT_TRUE(sharded->SaveWithCache(rewritten, &blobs, {true, true}).ok());
  EXPECT_EQ(rewritten.str(), fresh.str());
  std::ostringstream reused(std::ios::binary);
  ASSERT_TRUE(sharded->SaveWithCache(reused, &blobs, {false, false}).ok());
  EXPECT_EQ(reused.str(), fresh.str());
}

struct GoldenStream {
  Dataset train;
  Dataset pool;
  Dataset test;
  stream::StreamEngineConfig config;
};

GoldenStream MakeGoldenStream(int num_shards) {
  synth::SynthOptions opts;
  opts.num_rows = 600;
  opts.seed = 12;
  auto bundle = synth::MakeGermanCredit(opts);
  EXPECT_TRUE(bundle.ok());
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 3;
  auto split = SplitTrainTest(bundle->data, split_opts);
  EXPECT_TRUE(split.ok());
  std::vector<int64_t> head, tail;
  for (int64_t r = 0; r < split->train.num_rows(); ++r) {
    (r < split->train.num_rows() - 20 ? head : tail).push_back(r);
  }
  GoldenStream g;
  g.train = split->train.DropRows(tail);
  g.pool = split->train.DropRows(head);
  g.test = std::move(split->test);
  g.config.forest.num_trees = 6;
  g.config.forest.max_depth = 6;
  g.config.forest.random_depth = 2;
  g.config.forest.seed = 41;
  g.config.fume.top_k = 3;
  g.config.fume.support_min = 0.05;
  g.config.fume.support_max = 0.30;
  g.config.fume.max_literals = 1;
  g.config.fume.group = bundle->group;
  g.config.shard.num_shards = num_shards;
  return g;
}

/// A checkpoint taken after fixed single-row deletes and inserts.
std::string GoldenCheckpoint(int num_shards) {
  GoldenStream g = MakeGoldenStream(num_shards);
  auto engine = stream::StreamEngine::Create(g.train, g.test, g.config);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  int64_t seq = 1;
  for (RowId id : {5, 9, 100, 101, 250}) {
    EXPECT_TRUE(engine->Apply(stream::StreamOp::Delete(seq++, {id})).ok());
  }
  for (int64_t r = 0; r < 4; ++r) {
    stream::StreamRow row;
    for (int a = 0; a < g.pool.num_attributes(); ++a) {
      row.codes.push_back(g.pool.Code(r, a));
    }
    row.label = g.pool.Label(r);
    EXPECT_TRUE(engine->Apply(stream::StreamOp::Insert(seq++, {row})).ok());
  }
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(engine->SaveCheckpoint(out).ok());
  return out.str();
}

TEST(SerializeTest, GoldenMonolithicCheckpointBytes) {
  ExpectGolden(GoldenCheckpoint(1), 145477, 9135405813765751969ull);
}

TEST(SerializeTest, GoldenShardedCheckpointBytes) {
  ExpectGolden(GoldenCheckpoint(2), 214688, 9923762863637646986ull);
}

/// Offset of the store's cardinality count in a v2 FUMEDARE image: magic,
/// version, 6 config ints, mode byte, k', seed, 5 work counters.
constexpr size_t kCardCountAt = 8 + 4 + 6 * 4 + 1 + 4 + 8 + 5 * 8;

/// A read-only stream that cannot seek or report its size, like a pipe.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

TEST(SerializeTest, UnseekableStreamLoadsAndBoundsHugeLengths) {
  const std::string blob =
      SaveToString(GoldenForest(ThresholdMode::kExact, false));
  {
    UnseekableBuf buf(blob);
    std::istream in(&buf);
    auto loaded = LoadForest(in);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(SaveToString(*loaded), blob);
  }
  // A row count of 2^29 asks for 2^29 * p codes; with no size to check it
  // against, the store grows only as its bytes arrive and the load fails
  // when they run out, long before 2^29 * p * 4 bytes are allocated.
  uint64_t p = 0;
  std::memcpy(&p, blob.data() + kCardCountAt, sizeof(p));
  std::string huge = blob;
  const int64_t rows = int64_t{1} << 29;
  std::memcpy(&huge[kCardCountAt + 8 + 4 * p], &rows, sizeof(rows));
  UnseekableBuf buf(huge);
  std::istream in(&buf);
  EXPECT_TRUE(LoadForest(in).status().IsIOError());
}

// ---------------------------------------------------------------------------
// Seeded mutation sweep: every decoder answers malformed bytes with a
// Status. A mutant that does load must be a valid model that re-saves to
// the bytes it was loaded from.

/// 1-4 bit flips, a truncation, a splice of two cuts, or an 8-byte window
/// (the store's cardinality count or row count, else anywhere) set to 2^40.
std::string Mutate(const std::string& blob, Rng& rng, int kind,
                   size_t card_count_at) {
  std::string m = blob;
  const size_t n = blob.size();
  switch (kind) {
    case 0: {
      const int flips = 1 + static_cast<int>(rng.NextBounded(4));
      for (int f = 0; f < flips; ++f) {
        m[rng.NextBounded(n)] ^= static_cast<char>(1u << rng.NextBounded(8));
      }
      break;
    }
    case 1:
      m.resize(rng.NextBounded(n));
      break;
    case 2: {
      const size_t cut = rng.NextBounded(n);
      const size_t resume = rng.NextBounded(n);
      m = blob.substr(0, cut) + blob.substr(resume);
      break;
    }
    default: {
      const uint64_t big = uint64_t{1} << 40;
      const uint64_t pick = rng.NextBounded(4);
      size_t at = pick == 0 ? card_count_at : rng.NextBounded(n - 8);
      if (pick == 1) {
        // The row count follows the cardinalities.
        uint64_t p = 0;
        std::memcpy(&p, blob.data() + card_count_at, sizeof(p));
        at = card_count_at + 8 + 4 * p;
      }
      std::memcpy(&m[at], &big, sizeof(big));
      break;
    }
  }
  return m;
}

TEST(SerializeTest, MutatedBlobsNeverCrash) {
  synth::SynthOptions opts;
  opts.seed = 9;
  auto bundle = synth::MakeGermanCredit(opts);
  ASSERT_TRUE(bundle.ok());
  ForestConfig config;
  config.num_trees = 3;
  config.max_depth = 8;
  config.seed = 13;
  auto forest = DareForest::Train(bundle->data, config);
  ASSERT_TRUE(forest.ok());
  ASSERT_TRUE(forest->DeleteRows({0, 10, 20, 30, 40}).ok());
  const std::string blob = SaveToString(*forest);

  Rng rng(20260);
  int loaded = 0;
  for (int i = 0; i < 2400; ++i) {
    const std::string m = Mutate(blob, rng, i % 4, kCardCountAt);
    std::istringstream in(m, std::ios::binary);
    auto result = LoadForest(in);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
      continue;
    }
    ++loaded;
    ASSERT_TRUE(result->ValidateStats()) << "mutant " << i;
    const std::string resaved = SaveToString(*result);
    uint32_t version = 0;
    std::memcpy(&version, m.data() + 8, sizeof(version));
    if (version == 2) {
      // Bytes past the forest are not the forest's: compare the prefix.
      ASSERT_EQ(m.compare(0, resaved.size(), resaved), 0) << "mutant " << i;
    }
    std::istringstream again(resaved, std::ios::binary);
    auto reloaded = LoadForest(again);
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    ASSERT_EQ(SaveToString(*reloaded), resaved) << "mutant " << i;
  }
  // Flips in the work counters or in rows no tree holds still load.
  EXPECT_GT(loaded, 0);

  for (int num_shards : {1, 2}) {
    GoldenStream g = MakeGoldenStream(num_shards);
    auto engine = stream::StreamEngine::Create(g.train, g.test, g.config);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(engine->Apply(stream::StreamOp::Delete(1, {3, 4})).ok());
    std::ostringstream out(std::ios::binary);
    ASSERT_TRUE(engine->SaveCheckpoint(out).ok());
    const std::string ckpt = out.str();
    // The engine header (magic, version, five 8-byte fields, live ids)
    // precedes the model; aim a quarter of the 2^40 windows at the live-id
    // count.
    const size_t ids_count_at = 8 + 4 + 5 * 8;
    for (int i = 0; i < 200; ++i) {
      const std::string m = Mutate(ckpt, rng, i % 4, ids_count_at);
      std::istringstream in(m, std::ios::binary);
      auto restored = stream::StreamEngine::Restore(in, g.train.schema(),
                                                    g.test, g.config);
      if (!restored.ok()) continue;
      if (num_shards == 1) {
        ASSERT_TRUE(restored->forest().ValidateStats()) << "mutant " << i;
      } else {
        ASSERT_TRUE(restored->sharded_forest().ValidateStats())
            << "mutant " << i;
      }
      std::ostringstream resaved(std::ios::binary);
      ASSERT_TRUE(restored->SaveCheckpoint(resaved).ok());
      std::istringstream again(resaved.str(), std::ios::binary);
      auto twice = stream::StreamEngine::Restore(again, g.train.schema(),
                                                 g.test, g.config);
      ASSERT_TRUE(twice.ok()) << twice.status().ToString();
      std::ostringstream resaved_twice(std::ios::binary);
      ASSERT_TRUE(twice->SaveCheckpoint(resaved_twice).ok());
      ASSERT_EQ(resaved_twice.str(), resaved.str()) << "mutant " << i;
    }
  }
}

}  // namespace
}  // namespace fume
