#include "forest/prediction_cache.h"

#include <algorithm>
#include <limits>
#include <memory>

#include "forest/arena.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fume {

namespace {

/// A leaf's positive fraction as PredictProb reads it: 0.5 for a null or
/// emptied node.
double LeafProb(const TreeNode* n) {
  return n == nullptr || n->count == 0
             ? 0.5
             : static_cast<double>(n->pos) / static_cast<double>(n->count);
}

/// Partitions rows[begin, end) — the test rows reaching `node` — into the
/// depth-first order of the leaves they reach, appending one range per
/// leaf that receives rows.
template <typename Range>
void PartitionByLeaf(const TreeNode* node, const PackedCodes& codes,
                     int32_t* rows, int32_t begin, int32_t end,
                     std::vector<Range>* out) {
  while (!node->is_leaf()) {
    const int32_t mid = static_cast<int32_t>(
        std::partition(rows + begin, rows + end,
                       [&](int32_t r) {
                         return codes.row(r)[node->attr] <= node->threshold;
                       }) -
        rows);
    if (mid != begin) {
      PartitionByLeaf(node->left.get(), codes, rows, begin, mid, out);
    }
    if (mid == end) return;
    node = node->right.get();
    begin = mid;
  }
  out->push_back(Range{node, begin, end, LeafProb(node)});
}

}  // namespace

void TestPredictionCache::WalkTree(const DareForest& forest,
                                   const PackedCodes& codes, int t) {
  const std::shared_ptr<const TreeArena> arena = forest.tree(t).arena();
  FUME_CHECK(arena != nullptr);
  const size_t tree = static_cast<size_t>(t);
  const int32_t n_rows = static_cast<int32_t>(mean_prob_.size());
  ranks_.resize(static_cast<size_t>(n_rows));
  arena->WalkLeafRanks(codes.codes.data(), codes.num_attrs, n_rows,
                       ranks_.data());
  // Counting sort on the leaf rank: O(rows + leaves), stable, and the
  // ranks are already in depth-first order.
  const int32_t num_leaves = arena->num_leaves();
  rank_start_.assign(static_cast<size_t>(num_leaves) + 1, 0);
  for (const int32_t k : ranks_) ++rank_start_[static_cast<size_t>(k) + 1];
  for (int32_t k = 0; k < num_leaves; ++k) {
    rank_start_[static_cast<size_t>(k) + 1] +=
        rank_start_[static_cast<size_t>(k)];
  }
  std::vector<LeafRange>& ranges = ranges_[tree];
  ranges.clear();
  for (int32_t k = 0; k < num_leaves; ++k) {
    const int32_t begin = rank_start_[static_cast<size_t>(k)];
    const int32_t end = rank_start_[static_cast<size_t>(k) + 1];
    if (begin != end) {
      ranges.push_back(
          LeafRange{arena->leaf_node(k), begin, end, arena->leaf_prob(k)});
    }
  }
  std::vector<int32_t>& order = order_[tree];
  order.resize(static_cast<size_t>(n_rows));
  for (int32_t r = 0; r < n_rows; ++r) {
    const int32_t k = ranks_[static_cast<size_t>(r)];
    order[static_cast<size_t>(rank_start_[static_cast<size_t>(k)]++)] = r;
    SetProb(r, tree, arena->leaf_prob(k));
  }
}

void TestPredictionCache::RefreshTree(const PackedCodes& codes, int t) {
  const size_t tree = static_cast<size_t>(t);
  std::vector<LeafRange>& ranges = ranges_[tree];
  const int32_t* order = order_[tree].data();
  bool grown = false;
  for (LeafRange& range : ranges) {
    const TreeNode* n = range.leaf;
    if (n != nullptr && n->count != 0 && !n->is_leaf()) {
      grown = true;  // re-partitioned below
      continue;
    }
    const double p = LeafProb(n);
    if (p == range.prob) continue;
    range.prob = p;
    for (int32_t i = range.begin; i < range.end; ++i) {
      SetProb(order[i], tree, p);
    }
  }
  if (!grown) return;
  // An insert rebuilt a leaf into a split in place (same address, fresh
  // children): its rows still reach it, so only its range is re-partitioned
  // over the new subtree — which keeps the depth-first layout.
  regrouped_.clear();
  for (const LeafRange& range : ranges) {
    const TreeNode* n = range.leaf;
    if (n == nullptr || n->count == 0 || n->is_leaf()) {
      regrouped_.push_back(range);
      continue;
    }
    const size_t first = regrouped_.size();
    PartitionByLeaf(n, codes, order_[tree].data(), range.begin, range.end,
                    &regrouped_);
    for (size_t g = first; g < regrouped_.size(); ++g) {
      for (int32_t i = regrouped_[g].begin; i < regrouped_[g].end; ++i) {
        SetProb(order[i], tree, regrouped_[g].prob);
      }
    }
  }
  ranges.swap(regrouped_);
}

void TestPredictionCache::ResumTouched() {
  // PredictProb's arithmetic — per-row tree probabilities summed in tree
  // order, one division — so the bytes match PredictProbAll.
  const size_t num_trees = ranges_.size();
  const double tree_count = static_cast<double>(num_trees);
  for (const int32_t r : touched_) {
    const size_t row = static_cast<size_t>(r);
    const double* probs = row_prob_.data() + row * num_trees;
    double sum = 0.0;
    for (size_t t = 0; t < num_trees; ++t) sum += probs[t];
    mean_prob_[row] = sum / tree_count;
    const int pred = mean_prob_[row] >= 0.5 ? 1 : 0;
    if (pred != pred_[row]) {
      pred_[row] = pred;
      flipped_.push_back(r);
    }
    is_touched_[row] = 0;
  }
  touched_.clear();
}

void TestPredictionCache::Stamp(const DareForest& forest) {
  generation_.resize(static_cast<size_t>(forest.num_trees()));
  for (int t = 0; t < forest.num_trees(); ++t) {
    generation_[static_cast<size_t>(t)] = forest.tree(t).generation();
  }
}

void TestPredictionCache::Rebuild(const DareForest& forest,
                                  const Dataset& test) {
  obs::TraceSpan span("stream.predcache.rebuild",
                      {{"trees", forest.num_trees()},
                       {"rows", test.num_rows()}});
  FUME_CHECK_LE(test.num_rows(),
                static_cast<int64_t>(std::numeric_limits<int32_t>::max()));
  // The cache stores leaf pointers — they must come from a flushed graph.
  forest.EnsureFlushed();
  const size_t num_trees = static_cast<size_t>(forest.num_trees());
  const size_t n_rows = static_cast<size_t>(test.num_rows());
  order_.assign(num_trees, {});
  ranges_.assign(num_trees, {});
  row_prob_.assign(n_rows * num_trees, 0.0);
  mean_prob_.assign(n_rows, 0.0);
  pred_.assign(n_rows, 0);
  // Every row is re-summed: queue them all up front.
  is_touched_.assign(n_rows, 1);
  touched_.resize(n_rows);
  for (size_t r = 0; r < n_rows; ++r) touched_[r] = static_cast<int32_t>(r);
  const std::shared_ptr<const PackedCodes> codes = test.packed_codes();
  for (int t = 0; t < forest.num_trees(); ++t) WalkTree(forest, *codes, t);
  ResumTouched();
  flipped_.clear();
  Stamp(forest);
#ifdef FUME_ARENA_VERIFY
  FUME_CHECK(mean_prob_ == forest.PredictProbAllPointer(test));
#endif
}

void TestPredictionCache::Update(const DareForest& forest, const Dataset& test,
                                 const std::vector<bool>& tree_dirty) {
  FUME_CHECK_EQ(tree_dirty.size(), ranges_.size());
  FUME_CHECK_EQ(static_cast<size_t>(forest.num_trees()), ranges_.size());
  FUME_CHECK_EQ(static_cast<size_t>(test.num_rows()), mean_prob_.size());
  static obs::Counter* rewalked =
      obs::GetCounter("stream.predcache.trees_rewalked");
  static obs::Counter* resumed =
      obs::GetCounter("stream.predcache.trees_refreshed");
  obs::TraceSpan span("stream.predcache.update");
  // Flushing here would be unsound, not just unexpected: a flush retrain
  // frees nodes in trees the caller's dirty flags call clean, and
  // RefreshTree would then chase freed leaf pointers. Callers must flush
  // first and fold the flush retrains into tree_dirty (DareForest::
  // FlushAll's per_tree report), as StreamEngine does.
  FUME_CHECK(!forest.HasLazyTags());
  const std::shared_ptr<const PackedCodes> codes = test.packed_codes();
  flipped_.clear();
  int64_t walked = 0;
  for (int t = 0; t < forest.num_trees(); ++t) {
    if (tree_dirty[static_cast<size_t>(t)]) {
      WalkTree(forest, *codes, t);
      ++walked;
    } else {
      RefreshTree(*codes, t);
    }
  }
  rewalked->Inc(walked);
  resumed->Inc(forest.num_trees() - walked);
  span.AddArg("rewalked", walked);
  span.AddArg("rows", static_cast<int64_t>(touched_.size()));
  ResumTouched();
  Stamp(forest);
#ifdef FUME_ARENA_VERIFY
  FUME_CHECK(mean_prob_ == forest.PredictProbAllPointer(test));
#endif
}

void TestPredictionCache::DiffWalk(const TreeNode* base,
                                   const TreeNode* changed,
                                   const Dataset& test, int t, size_t begin,
                                   size_t end, WhatIfScratch* s) const {
  // A shared node means the what-if tree reuses the base subtree verbatim:
  // every row routed here keeps its cached probability. This prune is the
  // whole point — a CoW mutation unshares only the path it touched.
  if (base == changed || begin == end) return;
  if (base != nullptr && changed != nullptr && !base->is_leaf() &&
      !changed->is_leaf() && base->attr == changed->attr &&
      base->threshold == changed->threshold) {
    // Same routing decision on both sides: partition the row range in place
    // (order within a side is irrelevant) and recurse into each side.
    size_t mid = begin;
    for (size_t i = begin; i < end; ++i) {
      if (test.Code(s->order[i], changed->attr) <= changed->threshold) {
        std::swap(s->order[i], s->order[mid++]);
      }
    }
    DiffWalk(base->left.get(), changed->left.get(), test, t, begin, mid, s);
    DiffWalk(base->right.get(), changed->right.get(), test, t, mid, end, s);
    return;
  }
  // Structurally changed region: finish each row's descent in the what-if
  // tree. The null/empty checks coincide with PredictProb's at the real
  // root and are vacuous below it (the builder never produces an empty
  // internal node), so the probability matches PredictProb bit for bit.
  auto& probs = s->tree_prob[static_cast<size_t>(t)];
  for (size_t i = begin; i < end; ++i) {
    const int64_t r = s->order[i];
    const TreeNode* n = changed;
    double p = 0.5;
    if (n != nullptr && n->count != 0) {
      while (!n->is_leaf()) {
        n = test.Code(r, n->attr) <= n->threshold ? n->left.get()
                                                  : n->right.get();
      }
      if (n->count != 0) {
        p = static_cast<double>(n->pos) / static_cast<double>(n->count);
      }
    }
    probs[static_cast<size_t>(r)] = p;
    if (s->row_epoch[static_cast<size_t>(r)] != s->epoch) {
      s->row_epoch[static_cast<size_t>(r)] = s->epoch;
      s->touched.push_back(r);
    }
  }
}

void TestPredictionCache::ScoreWhatIf(const DareForest& base,
                                      const DareForest& what_if,
                                      const Dataset& test, WhatIfScratch* s,
                                      bool arena_full_rescore) const {
  const size_t num_trees = ranges_.size();
  FUME_CHECK_EQ(static_cast<size_t>(base.num_trees()), num_trees);
  FUME_CHECK_EQ(static_cast<size_t>(what_if.num_trees()), num_trees);
  // The base graph this cache was walked against is flushed by contract;
  // flush the (worker-private) what-if clone before diffing against it.
  // What-if evaluation normally disables lazy on its clones, so this only
  // fires for callers scoring an ad-hoc lazily-deleted clone.
  what_if.EnsureFlushed();
  const size_t n_rows = mean_prob_.size();
  FUME_CHECK_EQ(static_cast<size_t>(test.num_rows()), n_rows);
  const bool arena_mode =
      arena_full_rescore && what_if.config().arena_traversal;
  std::shared_ptr<const PackedCodes> packed;
  if (arena_mode) packed = test.packed_codes();
  bool rescored_all = false;

  // Epoch bump takes the place of clearing the per-tree/per-row markers;
  // on (unlikely) wrap-around, reset them for real.
  if (++s->epoch == 0) {
    s->tree_epoch.assign(s->tree_epoch.size(), 0);
    s->row_epoch.assign(s->row_epoch.size(), 0);
    s->epoch = 1;
  }
  s->tree_epoch.resize(num_trees, 0);
  s->row_epoch.resize(n_rows, 0);
  s->tree_prob.resize(num_trees);
  s->touched.clear();
  s->trees_changed = 0;

  for (size_t t = 0; t < num_trees; ++t) {
    const TreeNode* broot = base.tree(static_cast<int>(t)).root();
    const TreeNode* nroot = what_if.tree(static_cast<int>(t)).root();
    if (broot == nroot) continue;  // whole tree still shared
    ++s->trees_changed;
    s->tree_epoch[t] = s->epoch;
    if (arena_mode) {
      // Broad mutation: stream every row through the changed tree's arena
      // instead of diff-walking the pointer graphs. Same leaf probability
      // bytes as DiffWalk's descent, just computed for all rows at once.
      if (const std::shared_ptr<const TreeArena> arena =
              what_if.tree(static_cast<int>(t)).arena()) {
        s->tree_prob[t].resize(n_rows);
        arena->PredictProbs(packed->codes.data(), packed->num_attrs,
                            static_cast<int64_t>(n_rows),
                            s->tree_prob[t].data());
        rescored_all = true;
        continue;
      }
    }
    // Seed with the base probabilities so rows pruned at a shared subtree
    // keep their cached value; DiffWalk overwrites only rescored rows.
    s->tree_prob[t].resize(n_rows);
    for (size_t r = 0; r < n_rows; ++r) {
      s->tree_prob[t][r] = row_prob_[r * num_trees + t];
    }
    s->order.resize(n_rows);
    for (size_t i = 0; i < n_rows; ++i) {
      s->order[i] = static_cast<int64_t>(i);
    }
    DiffWalk(broot, nroot, test, static_cast<int>(t), 0, n_rows, s);
  }

  // Re-sum each rescored row over every tree in tree order — the same
  // order and arithmetic as ResumTouched/PredictProb, so the result is
  // byte-identical to what_if.PredictAll(test). A full arena rescore
  // invalidates every row's sum, not just the diff-walk's touched list.
  s->preds = pred_;
  const double tree_count = static_cast<double>(num_trees);
  auto resum = [&](int64_t r) {
    double sum = 0.0;
    for (size_t t = 0; t < num_trees; ++t) {
      sum += s->tree_epoch[t] == s->epoch
                 ? s->tree_prob[t][static_cast<size_t>(r)]
                 : row_prob_[static_cast<size_t>(r) * num_trees + t];
    }
    s->preds[static_cast<size_t>(r)] = sum / tree_count >= 0.5 ? 1 : 0;
  };
  if (rescored_all) {
    for (size_t r = 0; r < n_rows; ++r) resum(static_cast<int64_t>(r));
    s->rows_rescored = static_cast<int64_t>(n_rows);
  } else {
    for (int64_t r : s->touched) resum(r);
    s->rows_rescored = static_cast<int64_t>(s->touched.size());
  }
#ifdef FUME_ARENA_VERIFY
  FUME_CHECK(s->preds == what_if.PredictAllPointer(test));
#endif
}

namespace {

/// Writes ScoreWithout's per-tree leaf probabilities into the row-major
/// what-if matrix, seeding a row from the base probabilities the first
/// time any tree touches it.
class RowProbSink final : public WhatIfSink {
 public:
  RowProbSink(size_t tree, size_t num_trees, const double* base_probs,
              double* row_probs, uint32_t* row_epoch, uint32_t epoch,
              std::vector<int32_t>* touched)
      : tree_(tree),
        num_trees_(num_trees),
        base_probs_(base_probs),
        row_probs_(row_probs),
        row_epoch_(row_epoch),
        epoch_(epoch),
        touched_(touched) {}

  void Emit(const int32_t* rows, int64_t n, double prob) override {
    for (int64_t i = 0; i < n; ++i) {
      const auto r = static_cast<size_t>(rows[i]);
      double* row = row_probs_ + r * num_trees_;
      if (row_epoch_[r] != epoch_) {
        row_epoch_[r] = epoch_;
        touched_->push_back(rows[i]);
        std::copy(base_probs_ + r * num_trees_,
                  base_probs_ + (r + 1) * num_trees_, row);
      }
      row[tree_] = prob;
    }
  }

 private:
  const size_t tree_;
  const size_t num_trees_;
  const double* const base_probs_;
  double* const row_probs_;
  uint32_t* const row_epoch_;
  const uint32_t epoch_;
  std::vector<int32_t>* const touched_;
};

}  // namespace

Status TestPredictionCache::ScoreWithout(const DareForest& base,
                                         const std::vector<RowId>& rows,
                                         const Dataset& test,
                                         ScoreScratch* s) const {
  const size_t num_trees = ranges_.size();
  FUME_CHECK_EQ(static_cast<size_t>(base.num_trees()), num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    FUME_CHECK_EQ(base.tree(static_cast<int>(t)).generation(),
                  generation_[t]);
  }
  const size_t n_rows = mean_prob_.size();
  FUME_CHECK_EQ(static_cast<size_t>(test.num_rows()), n_rows);
  s->stats = DeletionStats{};
  s->rows_rescored = 0;
  s->preds = pred_;
  if (s->want_probs) s->probs = mean_prob_;
  if (rows.empty()) return Status::OK();

  obs::TraceSpan span("forest.score_without",
                      {{"rows", static_cast<int64_t>(rows.size())},
                       {"trees", static_cast<int64_t>(num_trees)}});
  // The counters DareForest::DeleteRows keeps, so a what-if's unlearning
  // work reads the same whichever path scored it.
  static obs::Counter* batches = obs::GetCounter("forest.unlearn.batches");
  static obs::Counter* deleted_rows =
      obs::GetCounter("forest.unlearn.rows_deleted");
  static obs::Histogram* batch_rows =
      obs::GetHistogram("forest.unlearn.batch_rows");
  static obs::Counter* scratch_reuse =
      obs::GetCounter("forest.unlearn.scratch_reuse");
  batches->Inc();
  deleted_rows->Inc(static_cast<int64_t>(rows.size()));
  batch_rows->Record(static_cast<int64_t>(rows.size()));
  if (s->tree.deletion.BeginBatch(base.store().num_rows())) {
    scratch_reuse->Inc();
  }
  FUME_RETURN_NOT_OK(s->tree.LoadDoomed(base.store(), rows));

  const std::shared_ptr<const PackedCodes> codes = test.packed_codes();
  if (++s->epoch == 0) {  // wrapped: clear the stamps for real
    s->row_epoch.assign(s->row_epoch.size(), 0);
    s->epoch = 1;
  }
  s->row_epoch.resize(n_rows, 0);
  s->row_probs.resize(n_rows * num_trees);
  s->touched.clear();
  WhatIfTestRows view;
  view.codes = codes->codes.data();
  view.num_attrs = codes->num_attrs;
  view.num_rows = static_cast<int64_t>(n_rows);
  for (size_t t = 0; t < num_trees; ++t) {
    // The cache's leaf-grouped rows are the per-tree what-if index: every
    // base node owns one contiguous range of them.
    view.order = order_[t].data();
    RowProbSink sink(t, num_trees, row_prob_.data(), s->row_probs.data(),
                     s->row_epoch.data(), s->epoch, &s->touched);
    base.tree(static_cast<int>(t))
        .ScoreWithout(rows, view, &sink, &s->tree, &s->stats);
  }

  // Re-sum each touched row over every tree in tree order — ResumTouched's
  // arithmetic, so the result is byte-identical to PredictAll.
  const double tree_count = static_cast<double>(num_trees);
  for (const int32_t r : s->touched) {
    const double* row = s->row_probs.data() + static_cast<size_t>(r) *
                                                  num_trees;
    double sum = 0.0;
    for (size_t t = 0; t < num_trees; ++t) sum += row[t];
    const double mean = sum / tree_count;
    if (s->want_probs) s->probs[static_cast<size_t>(r)] = mean;
    s->preds[static_cast<size_t>(r)] = mean >= 0.5 ? 1 : 0;
  }
  s->rows_rescored = static_cast<int64_t>(s->touched.size());
  return Status::OK();
}

}  // namespace fume
