// Per-tree test-set prediction cache.
//
// For every tree the cache keeps the test rows grouped by the leaf they
// reach: one contiguous range per leaf, ranges in depth-first leaf order,
// so every node of the tree owns one contiguous run of rows. Each range
// remembers its leaf's TreeNode* and the probability last read from it.
//
// A DaRE op (add/delete) leaves most trees structurally intact: existing
// nodes keep their addresses and their split decisions; the only events
// that free nodes are counted subtree retrains (DeletionStats::
// subtrees_retrained) and CoW unshares (nodes_copied). Update() therefore
// re-walks only trees the caller marks dirty — an arena walk regrouped by a
// counting sort on the leaf's depth-first rank — and for every other tree
// scans its ranges: a range whose leaf probability moved is rewritten, a
// leaf an insert rebuilt into a split in place (same address, fresh
// children) has just its range re-partitioned, and the rest cost one load.
// The forest mean and hard prediction are then re-summed, in tree order,
// for the rows whose probability changed — so an op's cost follows the
// leaves it changed, not the test-set size.
//
// ScoreWithout() serves a second consumer: FUME's what-if evaluations. It
// scores "base forest minus a row set" straight from the base forest —
// no clone, no node copy, no arena — by walking each tree with the doomed
// rows on scratch stats and re-scoring only the test rows that reach a
// changed leaf or a flipped split (docs/performance.md "Read-only
// what-if"); the leaf-grouped layout above is the index it needs.
// ScoreWhatIf() is the retired clone-diffing path, kept for the end-to-end
// benchmark's replay.
//
// Exactness: probabilities and hard predictions are byte-identical to
// DareForest::PredictProbAll / PredictAll — per-row tree probabilities are
// summed in tree order before one division, mirroring PredictProb.

#ifndef FUME_FOREST_PREDICTION_CACHE_H_
#define FUME_FOREST_PREDICTION_CACHE_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "forest/forest.h"

namespace fume {

class TestPredictionCache {
 public:
  /// Reusable working memory for ScoreWithout. One instance per worker
  /// thread; warm after the first call (epoch stamps replace clearing).
  struct ScoreScratch {
    /// Hard predictions of "base minus rows", byte-identical to
    /// Clone()+DeleteRows(rows)+PredictAll(test). Valid after ScoreWithout
    /// returns OK, until the next call on this scratch.
    std::vector<int> preds;
    /// Opt-in: when true, `probs` is filled too, with the mean
    /// probabilities (byte-identical to PredictProbAll, by the same
    /// sum-then-divide that produces preds). Off by default — the extra
    /// vector only pays for itself when a consumer needs the
    /// probabilities, e.g. the sharded cache voting across shards.
    bool want_probs = false;
    std::vector<double> probs;
    /// Test rows whose probability was recomputed in at least one tree.
    int64_t rows_rescored = 0;
    /// The work DeleteRows(rows) would have done, summed over trees: equal
    /// to the clone's DeletionStats field for field, except nodes_copied,
    /// which is always 0.
    DeletionStats stats;

   private:
    friend class TestPredictionCache;
    TreeScoreScratch tree;
    /// row_probs[r * num_trees + t] for rows touched this call (stamped in
    /// row_epoch), seeded from the base probabilities on first touch.
    std::vector<double> row_probs;
    std::vector<uint32_t> row_epoch;
    std::vector<int32_t> touched;
    uint32_t epoch = 0;
  };

  /// Reusable working memory for ScoreWhatIf. Retired with it: kept only
  /// because the end-to-end benchmark's traced replay
  /// (fumebench/audit_phase.cc) still drives ScoreWhatIf. One instance per
  /// worker thread; after the first evaluation no allocations occur in
  /// steady state (epoch counters take the place of clearing).
  struct WhatIfScratch {
    /// Hard predictions for the what-if forest, byte-identical to
    /// what_if.PredictAll(test). Valid after ScoreWhatIf returns, until
    /// the next call on this scratch.
    std::vector<int> preds;
    /// Test rows whose prediction path crossed a mutated region (their
    /// hard prediction did not necessarily flip).
    int64_t rows_rescored = 0;
    /// Trees whose root handle differed from the base forest's.
    int64_t trees_changed = 0;

   private:
    friend class TestPredictionCache;
    std::vector<std::vector<double>> tree_prob;  // [t][r] where tree dirty
    std::vector<uint32_t> tree_epoch;
    std::vector<uint32_t> row_epoch;
    std::vector<int64_t> touched;  // rows rescored this evaluation
    std::vector<int64_t> order;    // row-index buffer, partitioned in place
    uint32_t epoch = 0;
  };

  /// Full walk of every tree for every test row. Call after building,
  /// loading or replacing the forest.
  void Rebuild(const DareForest& forest, const Dataset& test);

  /// Incrementally refreshes after one forest op. `tree_dirty[t]` must be
  /// true when tree t may have freed or unshared nodes during the op (any
  /// subtree retrain or CoW copy) — those trees are re-walked from the
  /// root; the rest refresh from their cached leaf ranges. Afterwards
  /// flipped() lists the rows whose hard prediction changed.
  void Update(const DareForest& forest, const Dataset& test,
              const std::vector<bool>& tree_dirty);

  /// Scores "`base` minus `rows`" without mutating or copying `base`:
  /// fills scratch->preds (and probs when asked) byte-identical to
  /// Clone()+DeleteRows(rows)+PredictAll(test), and scratch->stats with
  /// that DeleteRows' work. `base` must be the forest this cache was last
  /// rebuilt or updated against (flushed, unmutated since — the contract
  /// Rebuild already has; the tree generation stamps are checked), `test`
  /// the same test set. Out-of-range or duplicate rows return the Status
  /// DeleteRows would. Thread-safe for concurrent calls with distinct
  /// scratches.
  Status ScoreWithout(const DareForest& base, const std::vector<RowId>& rows,
                      const Dataset& test, ScoreScratch* scratch) const;

  /// Retired what-if path, kept because the end-to-end benchmark's traced
  /// replay times it (fumebench/audit_phase.cc); production callers use
  /// ScoreWithout. Scores a copy-on-write clone of the forest this cache
  /// was seeded from, re-walking only test rows whose cached descent
  /// crosses a mutated region. `base` must be that seed forest (alive,
  /// unmutated since Rebuild/Update); `what_if` a Clone() of it,
  /// arbitrarily mutated. Fills scratch->preds with predictions
  /// byte-identical to what_if.PredictAll(test). Thread-safe for
  /// concurrent calls on one cache with distinct scratches.
  ///
  /// `arena_full_rescore` trades the pointer diff-walk for a full pass of
  /// every test row through each changed tree's flat arena — the right
  /// call when the mutation was broad (large deletion batches unshare most
  /// paths, so the diff-walk would re-walk nearly everything through
  /// pointers anyway). Requires what_if.config().arena_traversal; results
  /// are byte-identical either way.
  void ScoreWhatIf(const DareForest& base, const DareForest& what_if,
                   const Dataset& test, WhatIfScratch* scratch,
                   bool arena_full_rescore = false) const;

  /// Mean forest probability per test row; byte-identical to
  /// forest.PredictProbAll(test).
  const std::vector<double>& probs() const { return mean_prob_; }
  /// Hard predictions at the 0.5 threshold; byte-identical to PredictAll.
  const std::vector<int>& predictions() const { return pred_; }
  /// Test rows whose hard prediction the last Update() flipped (each row
  /// once, in no particular order); empty after Rebuild().
  const std::vector<int32_t>& flipped() const { return flipped_; }

  int num_trees() const { return static_cast<int>(ranges_.size()); }

 private:
  /// order_[t][begin, end): the test rows reaching `leaf` in tree t, whose
  /// positive fraction was `prob` when last read.
  struct LeafRange {
    const TreeNode* leaf;
    int32_t begin;
    int32_t end;
    double prob;
  };

  /// Arena walk of tree t for every test row, regrouped by leaf.
  void WalkTree(const DareForest& forest, const PackedCodes& codes, int t);
  /// Re-reads tree t's cached leaves (a clean tree: no node freed).
  void RefreshTree(const PackedCodes& codes, int t);
  /// Sets row r's probability in tree t, queueing the row for a re-sum
  /// when it changed.
  void SetProb(int32_t r, size_t t, double p) {
    double& cell = row_prob_[static_cast<size_t>(r) * ranges_.size() + t];
    if (cell == p) return;
    cell = p;
    if (!is_touched_[static_cast<size_t>(r)]) {
      is_touched_[static_cast<size_t>(r)] = 1;
      touched_.push_back(r);
    }
  }
  /// Re-sums every touched row in tree order, recording flips.
  void ResumTouched();
  /// Records the tree generations this cache now describes.
  void Stamp(const DareForest& forest);
  void DiffWalk(const TreeNode* base, const TreeNode* changed,
                const Dataset& test, int t, size_t begin, size_t end,
                WhatIfScratch* scratch) const;

  /// Tree generation stamps at the last Rebuild/Update: ScoreWithout's
  /// check that it is handed the forest this cache describes.
  std::vector<uint64_t> generation_;
  /// order_[t]: test rows grouped by the leaf they reach in tree t, leaves
  /// in depth-first order; ranges_[t] delimits the groups.
  std::vector<std::vector<int32_t>> order_;
  std::vector<std::vector<LeafRange>> ranges_;
  /// row_prob_[r * num_trees + t]: tree t's probability for test row r.
  std::vector<double> row_prob_;
  std::vector<double> mean_prob_;
  std::vector<int> pred_;
  std::vector<int32_t> flipped_;

  // Update's working memory, kept to stay allocation-free per op.
  std::vector<int32_t> touched_;
  std::vector<uint8_t> is_touched_;
  std::vector<int32_t> ranks_;
  std::vector<int32_t> rank_start_;
  std::vector<LeafRange> regrouped_;
};

}  // namespace fume

#endif  // FUME_FOREST_PREDICTION_CACHE_H_
