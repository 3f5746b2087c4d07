#include "forest/prediction_cache.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fume {

void TestPredictionCache::WalkTree(const DareForest& forest,
                                   const Dataset& test, int t) {
  const int64_t n_rows = test.num_rows();
  auto& leaves = leaf_[static_cast<size_t>(t)];
  auto& probs = prob_[static_cast<size_t>(t)];
  leaves.resize(static_cast<size_t>(n_rows));
  probs.resize(static_cast<size_t>(n_rows));
  if (forest.config().arena_traversal) {
    // Arena walk: same leaf TreeNode* per row as the pointer loop below
    // (the stream engine's resume contract keys on those addresses), same
    // probability bytes.
    if (const std::shared_ptr<const TreeArena> arena = forest.tree(t).arena()) {
      const std::shared_ptr<const PackedCodes> packed = test.packed_codes();
      arena->WalkLeaves(packed->codes.data(), packed->num_attrs, n_rows,
                        leaves.data(), probs.data());
#ifdef FUME_ARENA_VERIFY
      std::vector<const TreeNode*> ref_leaves = leaves;
      std::vector<double> ref_probs = probs;
      WalkTreePointer(forest, test, t, ref_leaves.data(), ref_probs.data());
      FUME_CHECK(leaves == ref_leaves);
      FUME_CHECK(probs == ref_probs);
#endif
      return;
    }
  }
  WalkTreePointer(forest, test, t, leaves.data(), probs.data());
}

void TestPredictionCache::WalkTreePointer(const DareForest& forest,
                                          const Dataset& test, int t,
                                          const TreeNode** leaves,
                                          double* probs) const {
  const int64_t n_rows = test.num_rows();
  const TreeNode* root = forest.tree(t).root();
  for (int64_t r = 0; r < n_rows; ++r) {
    const TreeNode* n = root;
    if (n != nullptr && n->count != 0) {
      while (!n->is_leaf()) {
        n = test.Code(r, n->attr) <= n->threshold ? n->left.get()
                                                  : n->right.get();
      }
    }
    leaves[static_cast<size_t>(r)] = n;
    probs[static_cast<size_t>(r)] =
        (n == nullptr || n->count == 0)
            ? 0.5
            : static_cast<double>(n->pos) / static_cast<double>(n->count);
  }
}

void TestPredictionCache::ResumeTree(const Dataset& test, int t) {
  auto& leaves = leaf_[static_cast<size_t>(t)];
  auto& probs = prob_[static_cast<size_t>(t)];
  for (size_t r = 0; r < leaves.size(); ++r) {
    const TreeNode* n = leaves[r];
    if (n != nullptr && n->count != 0 && !n->is_leaf()) {
      // An insert rebuilt this leaf into a split in place (same address);
      // the row still reaches it, so finish the walk from here.
      do {
        n = test.Code(static_cast<int64_t>(r), n->attr) <= n->threshold
                ? n->left.get()
                : n->right.get();
      } while (!n->is_leaf());
      leaves[r] = n;
    }
    probs[r] = (n == nullptr || n->count == 0)
                   ? 0.5
                   : static_cast<double>(n->pos) /
                         static_cast<double>(n->count);
  }
}

void TestPredictionCache::Finalize(const DareForest& forest) {
  // Every Rebuild/Update ends here: the tree structure the what-if index
  // describes may have changed, so drop it and remember which forest
  // state this cache now reflects.
  index_.Reset();
  generation_.resize(static_cast<size_t>(forest.num_trees()));
  for (int t = 0; t < forest.num_trees(); ++t) {
    generation_[static_cast<size_t>(t)] = forest.tree(t).generation();
  }
  const size_t n_rows = pred_.size();
  const double num_trees = static_cast<double>(forest.num_trees());
  for (size_t r = 0; r < n_rows; ++r) {
    double sum = 0.0;
    for (int t = 0; t < forest.num_trees(); ++t) {
      sum += prob_[static_cast<size_t>(t)][r];
    }
    mean_prob_[r] = sum / num_trees;
    pred_[r] = mean_prob_[r] >= 0.5 ? 1 : 0;
  }
}

void TestPredictionCache::Rebuild(const DareForest& forest,
                                  const Dataset& test) {
  obs::TraceSpan span("stream.predcache.rebuild",
                      {{"trees", forest.num_trees()},
                       {"rows", test.num_rows()}});
  // The cache stores leaf pointers — they must come from a flushed graph.
  forest.EnsureFlushed();
  leaf_.assign(static_cast<size_t>(forest.num_trees()), {});
  prob_.assign(static_cast<size_t>(forest.num_trees()), {});
  mean_prob_.assign(static_cast<size_t>(test.num_rows()), 0.0);
  pred_.assign(static_cast<size_t>(test.num_rows()), 0);
  for (int t = 0; t < forest.num_trees(); ++t) WalkTree(forest, test, t);
  Finalize(forest);
}

void TestPredictionCache::Update(const DareForest& forest, const Dataset& test,
                                 const std::vector<bool>& tree_dirty) {
  FUME_CHECK_EQ(tree_dirty.size(), leaf_.size());
  FUME_CHECK_EQ(static_cast<size_t>(forest.num_trees()), leaf_.size());
  static obs::Counter* rewalked =
      obs::GetCounter("stream.predcache.trees_rewalked");
  static obs::Counter* resumed =
      obs::GetCounter("stream.predcache.trees_refreshed");
  obs::TraceSpan span("stream.predcache.update");
  // Flushing here would be unsound, not just unexpected: a flush retrain
  // frees nodes in trees the caller's dirty flags call clean, and ResumeTree
  // would then chase freed leaf pointers. Callers must flush first and fold
  // the flush retrains into tree_dirty (DareForest::FlushAll's per_tree
  // report), as StreamEngine does.
  FUME_CHECK(!forest.HasLazyTags());
  int64_t walked = 0;
  for (int t = 0; t < forest.num_trees(); ++t) {
    if (tree_dirty[static_cast<size_t>(t)]) {
      WalkTree(forest, test, t);
      ++walked;
    } else {
      ResumeTree(test, t);
    }
  }
  rewalked->Inc(walked);
  resumed->Inc(forest.num_trees() - walked);
  span.AddArg("rewalked", walked);
  Finalize(forest);
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
  const size_t num_trees = leaf_.size();
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
    s->tree_prob[t] = prob_[t];
    s->order.resize(n_rows);
    for (size_t i = 0; i < n_rows; ++i) {
      s->order[i] = static_cast<int64_t>(i);
    }
    DiffWalk(broot, nroot, test, static_cast<int>(t), 0, n_rows, s);
  }

  // Re-sum each rescored row over every tree in tree order — the same
  // order and arithmetic as Finalize/PredictProb, so the result is
  // byte-identical to what_if.PredictAll(test). A full arena rescore
  // invalidates every row's sum, not just the diff-walk's touched list.
  s->preds = pred_;
  const double tree_count = static_cast<double>(num_trees);
  auto resum = [&](int64_t r) {
    double sum = 0.0;
    for (size_t t = 0; t < num_trees; ++t) {
      sum += s->tree_epoch[t] == s->epoch
                 ? s->tree_prob[t][static_cast<size_t>(r)]
                 : prob_[t][static_cast<size_t>(r)];
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

TestPredictionCache::IndexSlot& TestPredictionCache::IndexSlot::operator=(
    const IndexSlot& other) {
  if (this == &other) return *this;
  std::shared_ptr<const WhatIfIndex> index = other.Get();
  std::lock_guard<std::mutex> lock(mu_);
  index_ = std::move(index);
  return *this;
}

std::shared_ptr<const TestPredictionCache::WhatIfIndex>
TestPredictionCache::IndexSlot::Get() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_;
}

void TestPredictionCache::IndexSlot::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.reset();
}

namespace {

/// Reorders [begin, end) — the test rows reaching `node` — into the DFS
/// order of the leaves they reach, the same descent as WalkTreePointer.
void OrderByLeaf(const TreeNode* node, const PackedCodes& codes,
                 int32_t* begin, int32_t* end) {
  while (begin != end && !node->is_leaf()) {
    int32_t* mid = std::partition(begin, end, [&](int32_t r) {
      return codes.row(r)[node->attr] <= node->threshold;
    });
    OrderByLeaf(node->left.get(), codes, begin, mid);
    node = node->right.get();
    begin = mid;
  }
}

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

std::shared_ptr<const TestPredictionCache::WhatIfIndex>
TestPredictionCache::BuildIndex(const DareForest& base,
                                const Dataset& test) const {
  obs::TraceSpan span("forest.score_without.index",
                      {{"trees", base.num_trees()},
                       {"rows", test.num_rows()}});
  auto index = std::make_shared<WhatIfIndex>();
  index->codes = test.packed_codes();
  const size_t num_trees = leaf_.size();
  const size_t n_rows = mean_prob_.size();
  index->order.resize(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    std::vector<int32_t>& order = index->order[t];
    order.resize(n_rows);
    for (size_t r = 0; r < n_rows; ++r) order[r] = static_cast<int32_t>(r);
    const TreeNode* root = base.tree(static_cast<int>(t)).root();
    if (root != nullptr && root->count != 0) {
      OrderByLeaf(root, *index->codes, order.data(),
                  order.data() + order.size());
    }
  }
  index->base_probs.resize(n_rows * num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    for (size_t r = 0; r < n_rows; ++r) {
      index->base_probs[r * num_trees + t] = prob_[t][r];
    }
  }
  return index;
}

Status TestPredictionCache::ScoreWithout(const DareForest& base,
                                         const std::vector<RowId>& rows,
                                         const Dataset& test,
                                         ScoreScratch* s) const {
  const size_t num_trees = leaf_.size();
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

  const std::shared_ptr<const WhatIfIndex> index =
      index_.GetOrBuild([&] { return BuildIndex(base, test); });
  if (++s->epoch == 0) {  // wrapped: clear the stamps for real
    s->row_epoch.assign(s->row_epoch.size(), 0);
    s->epoch = 1;
  }
  s->row_epoch.resize(n_rows, 0);
  s->row_probs.resize(n_rows * num_trees);
  s->touched.clear();
  WhatIfTestRows view;
  view.codes = index->codes->codes.data();
  view.num_attrs = index->codes->num_attrs;
  view.num_rows = static_cast<int64_t>(n_rows);
  for (size_t t = 0; t < num_trees; ++t) {
    view.order = index->order[t].data();
    RowProbSink sink(t, num_trees, index->base_probs.data(),
                     s->row_probs.data(), s->row_epoch.data(), s->epoch,
                     &s->touched);
    base.tree(static_cast<int>(t))
        .ScoreWithout(rows, view, &sink, &s->tree, &s->stats);
  }

  // Re-sum each touched row over every tree in tree order — Finalize's
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
