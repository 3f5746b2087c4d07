#include "forest/serialize.h"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "util/byte_io.h"

namespace fume {

namespace {

constexpr char kMagic[8] = {'F', 'U', 'M', 'E', 'D', 'A', 'R', 'E'};
// Version 2 appends the forest's DeletionStats to the config block, so the
// unlearning work counters survive a save/load round trip. Version 1 files
// (no stats block) still load, with zeroed counters.
constexpr uint32_t kVersion = 2;

// Sanity bound for any vector in the file (1 billion elements).
constexpr uint64_t kMaxVec = 1ull << 30;

void WriteNode(ByteWriter& out, const TreeNode* node) {
  out.Pod<uint8_t>(node->is_leaf() ? 1 : 0);
  out.Pod<int64_t>(node->count);
  out.Pod<int64_t>(node->pos);
  if (node->is_leaf()) {
    out.Vec(node->rows);
    return;
  }
  out.Pod<int32_t>(node->attr);
  out.Pod<int32_t>(node->threshold);
  out.Pod<uint8_t>(node->is_random ? 1 : 0);
  out.Vec(node->stats.cand_attrs);
  // The on-disk format predates the flat interleaved histogram buffer and
  // stays per-attribute (count vector, pos vector) pairs — de-interleave at
  // this boundary so old files keep loading byte-for-byte.
  out.Pod<uint64_t>(node->stats.cand_attrs.size());
  for (size_t i = 0; i < node->stats.cand_attrs.size(); ++i) {
    const int64_t* h = node->stats.HistRow(i);
    const size_t card = static_cast<size_t>(node->stats.HistCard(i));
    for (size_t half = 0; half < 2; ++half) {
      out.Pod<uint64_t>(card);
      for (size_t v = 0; v < card; ++v) out.Pod<int64_t>(h[2 * v + half]);
    }
  }
  WriteNode(out, node->left.get());
  WriteNode(out, node->right.get());
}

/// Decoding state shared by the nodes of one forest: the validated store
/// shape, the rows already claimed by a leaf of the current tree, and
/// reused histogram buffers.
struct NodeReader {
  ByteReader* in;
  std::vector<int32_t> cards;
  int64_t num_rows;
  std::vector<uint64_t> claimed;  // bitmap over store rows, per tree
  std::vector<int64_t> counts, positives;

  bool Claim(RowId row) {
    if (row < 0 || row >= num_rows) return false;
    uint64_t& word = claimed[static_cast<size_t>(row) >> 6];
    const uint64_t bit = uint64_t{1} << (static_cast<uint32_t>(row) & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    return true;
  }
};

Result<std::shared_ptr<TreeNode>> ReadNode(NodeReader& r, int depth) {
  if (depth > 64) return Status::IOError("forest file: tree too deep");
  ByteReader& in = *r.in;
  auto node = std::make_shared<TreeNode>();
  uint8_t is_leaf = 0;
  if (!in.Pod(&is_leaf) || !in.Pod(&node->count) || !in.Pod(&node->pos)) {
    return Status::IOError("forest file: truncated node header");
  }
  if (is_leaf > 1 || node->count < 0 || node->count > r.num_rows ||
      node->pos < 0 || node->pos > node->count) {
    return Status::IOError("forest file: bad node header");
  }
  if (is_leaf != 0) {
    uint64_t n = 0;
    if (!in.Pod(&n) || n != static_cast<uint64_t>(node->count)) {
      return Status::IOError("forest file: leaf size disagrees with count");
    }
    if (!in.Array(&node->rows, n)) {
      return Status::IOError("forest file: truncated leaf rows");
    }
    for (RowId row : node->rows) {
      if (!r.Claim(row)) {
        return Status::IOError(
            "forest file: leaf row out of range or repeated in a tree");
      }
    }
    return node;
  }
  const std::vector<int32_t>& cards = r.cards;
  const int p = static_cast<int>(cards.size());
  uint8_t is_random = 0;
  if (!in.Pod(&node->attr) || !in.Pod(&node->threshold) ||
      !in.Pod(&is_random)) {
    return Status::IOError("forest file: truncated split record");
  }
  if (node->attr < 0 || node->attr >= p || node->threshold < 0 ||
      node->threshold >= cards[static_cast<size_t>(node->attr)] ||
      is_random > 1) {
    return Status::IOError("forest file: bad split record");
  }
  node->is_random = is_random != 0;
  std::vector<int>& cand = node->stats.cand_attrs;
  if (!in.Vec(&cand, static_cast<uint64_t>(p))) {
    return Status::IOError("forest file: bad candidate attrs");
  }
  bool has_split_attr = false;
  for (size_t i = 0; i < cand.size(); ++i) {
    if (cand[i] < 0 || cand[i] >= p || (i > 0 && cand[i] <= cand[i - 1])) {
      return Status::IOError(
          "forest file: candidate attrs not sorted, unique and in range");
    }
    has_split_attr |= cand[i] == node->attr;
  }
  if (!has_split_attr) {
    return Status::IOError("forest file: split attr is not a candidate");
  }
  uint64_t num_hists = 0;
  if (!in.Pod(&num_hists) || num_hists != cand.size()) {
    return Status::IOError("forest file: histogram count mismatch");
  }
  // Each histogram is read only after its length matches the attribute's
  // cardinality, and appended as its bytes arrive.
  std::vector<int32_t>& offsets = node->stats.hist_offsets;
  std::vector<int64_t>& hist = node->stats.hist;
  offsets.assign(1, 0);
  for (int attr : cand) {
    const int32_t card = cards[static_cast<size_t>(attr)];
    if (!in.Vec(&r.counts, static_cast<uint64_t>(card)) ||
        !in.Vec(&r.positives, static_cast<uint64_t>(card)) ||
        r.counts.size() != static_cast<size_t>(card) ||
        r.positives.size() != static_cast<size_t>(card)) {
      return Status::IOError(
          "forest file: histogram length disagrees with cardinality");
    }
    if (int64_t{offsets.back()} + card > (int64_t{1} << 30)) {
      return Status::IOError("forest file: histograms too large");
    }
    offsets.push_back(offsets.back() + card);
    for (int32_t v = 0; v < card; ++v) {
      hist.push_back(r.counts[static_cast<size_t>(v)]);
      hist.push_back(r.positives[static_cast<size_t>(v)]);
    }
  }
  node->stats.count = node->count;
  node->stats.pos = node->pos;
  FUME_ASSIGN_OR_RETURN(node->left, ReadNode(r, depth + 1));
  FUME_ASSIGN_OR_RETURN(node->right, ReadNode(r, depth + 1));
  if (node->count != node->left->count + node->right->count ||
      node->pos != node->left->pos + node->right->pos) {
    return Status::IOError("forest file: node counts disagree with children");
  }
  return node;
}

}  // namespace

Status SaveForest(const DareForest& forest, std::ostream& stream) {
  // No tag escapes a flush boundary (DESIGN.md §6 invariant 9): a lazily
  // deferred forest is flushed before a single byte is written, so saved
  // models — and every checkpoint built on this — are always exact. The
  // CHECK is belt-and-braces for forests mutated concurrently (illegal).
  forest.EnsureFlushed();
  FUME_CHECK(!forest.HasLazyTags());
  ByteWriter out(&stream);
  out.Bytes(kMagic, sizeof(kMagic));
  out.Pod<uint32_t>(kVersion);

  // Config block.
  const ForestConfig& config = forest.config();
  out.Pod<int32_t>(config.num_trees);
  out.Pod<int32_t>(config.max_depth);
  out.Pod<int32_t>(config.random_depth);
  out.Pod<int32_t>(config.min_samples_split);
  out.Pod<int32_t>(config.min_samples_leaf);
  out.Pod<int32_t>(config.num_candidate_attrs);
  out.Pod<uint8_t>(config.threshold_mode == ThresholdMode::kExact ? 0 : 1);
  out.Pod<int32_t>(config.num_sampled_thresholds);
  out.Pod<uint64_t>(config.seed);

  // Unlearning work counters (v2+).
  const DeletionStats& stats = forest.deletion_stats();
  out.Pod<int64_t>(stats.nodes_visited);
  out.Pod<int64_t>(stats.nodes_updated);
  out.Pod<int64_t>(stats.subtrees_retrained);
  out.Pod<int64_t>(stats.rows_retrained);
  out.Pod<int64_t>(stats.leaves_updated);

  // Training store block: cardinalities, row count, row-major codes, labels.
  const TrainingStore& store = forest.store();
  const int p = store.num_attrs();
  out.Pod<uint64_t>(static_cast<uint64_t>(p));
  for (int j = 0; j < p; ++j) out.Pod<int32_t>(store.cardinality(j));
  out.Pod<int64_t>(store.num_rows());
  for (RowId r = 0; r < store.num_rows(); ++r) {
    out.Span(store.codes(r), static_cast<size_t>(p));
  }
  for (RowId r = 0; r < store.num_rows(); ++r) {
    out.Pod<uint8_t>(static_cast<uint8_t>(store.label(r)));
  }

  // Trees.
  out.Pod<int32_t>(forest.num_trees());
  for (int t = 0; t < forest.num_trees(); ++t) {
    out.Pod<int32_t>(forest.tree(t).tree_id());
    const TreeNode* root = forest.tree(t).root();
    out.Pod<uint8_t>(root != nullptr ? 1 : 0);
    if (root != nullptr) WriteNode(out, root);
  }
  if (!out.Finish()) return Status::IOError("forest write failed");
  return Status::OK();
}

Result<DareForest> LoadForest(std::istream& stream) {
  ByteReader in(&stream);
  char magic[8];
  if (!in.Bytes(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::IOError("not a FUME forest file (bad magic)");
  }
  uint32_t version = 0;
  if (!in.Pod(&version) || version < 1 || version > kVersion) {
    return Status::IOError("unsupported forest file version");
  }

  ForestConfig config;
  uint8_t mode = 0;
  if (!in.Pod(&config.num_trees) || !in.Pod(&config.max_depth) ||
      !in.Pod(&config.random_depth) || !in.Pod(&config.min_samples_split) ||
      !in.Pod(&config.min_samples_leaf) ||
      !in.Pod(&config.num_candidate_attrs) || !in.Pod(&mode) ||
      !in.Pod(&config.num_sampled_thresholds) || !in.Pod(&config.seed)) {
    return Status::IOError("forest file: truncated config block");
  }
  // The checks DareForest::Train makes, so a loaded forest can keep
  // unlearning and adding.
  if (mode > 1 || config.num_trees < 1 || config.max_depth < 1 ||
      config.random_depth < 0 || config.random_depth > config.max_depth) {
    return Status::IOError("forest file: bad config block");
  }
  config.threshold_mode =
      mode == 0 ? ThresholdMode::kExact : ThresholdMode::kSampled;

  DeletionStats stats;
  if (version >= 2) {
    if (!in.Pod(&stats.nodes_visited) || !in.Pod(&stats.nodes_updated) ||
        !in.Pod(&stats.subtrees_retrained) || !in.Pod(&stats.rows_retrained) ||
        !in.Pod(&stats.leaves_updated)) {
      return Status::IOError("forest file: truncated deletion-stats block");
    }
  }

  std::vector<int32_t> cards;
  if (!in.Vec(&cards, kMaxVec) || cards.empty()) {
    return Status::IOError("forest file: bad cardinality block");
  }
  for (int32_t card : cards) {
    if (card < 0) return Status::IOError("forest file: negative cardinality");
  }
  const uint64_t p = cards.size();
  int64_t num_rows = 0;
  if (!in.Pod(&num_rows) || num_rows < 0 ||
      num_rows > static_cast<int64_t>(kMaxVec) ||
      !in.Fits(static_cast<uint64_t>(num_rows) * (4 * p + 1))) {
    return Status::IOError("forest file: bad row count");
  }
  std::vector<int32_t> codes;
  std::vector<uint8_t> labels;
  if (!in.Array(&codes, static_cast<uint64_t>(num_rows) * p) ||
      !in.Array(&labels, static_cast<uint64_t>(num_rows))) {
    return Status::IOError("forest file: truncated store block");
  }
  for (size_t i = 0; i < codes.size(); i += p) {
    for (size_t j = 0; j < p; ++j) {
      if (codes[i + j] < 0 || codes[i + j] >= cards[j]) {
        return Status::IOError("forest file: store code out of range");
      }
    }
  }
  for (uint8_t label : labels) {
    if (label > 1) return Status::IOError("forest file: label is not 0/1");
  }
  NodeReader nodes{&in, cards, num_rows, {}, {}, {}};
  auto store = TrainingStore::FromParts(std::move(cards), std::move(codes),
                                        std::move(labels));

  // DaRE trees do not bootstrap: every tree holds the same training rows.
  int32_t num_trees = 0;
  if (!in.Pod(&num_trees) || num_trees != config.num_trees) {
    return Status::IOError("forest file: bad tree count");
  }
  const size_t words = (static_cast<size_t>(num_rows) + 63) / 64;
  std::vector<uint64_t> first_rows;
  std::vector<DareTree> trees;
  for (int32_t t = 0; t < num_trees; ++t) {
    int32_t tree_id = 0;
    uint8_t has_root = 0;
    if (!in.Pod(&tree_id) || !in.Pod(&has_root) || has_root > 1) {
      return Status::IOError("forest file: bad tree header");
    }
    nodes.claimed.assign(words, 0);
    std::shared_ptr<TreeNode> root;
    if (has_root != 0) {
      FUME_ASSIGN_OR_RETURN(root, ReadNode(nodes, 0));
    }
    if (t == 0) {
      first_rows.swap(nodes.claimed);
    } else if (nodes.claimed != first_rows) {
      return Status::IOError("forest file: trees hold different rows");
    }
    trees.push_back(
        DareTree::FromParts(store, config, tree_id, std::move(root)));
  }
  DareForest forest =
      DareForest::FromParts(std::move(store), config, std::move(trees), stats);
  if (!forest.ValidateStats()) {
    return Status::IOError("forest file: cached statistics fail validation");
  }
  return forest;
}

Status SaveForestToFile(const DareForest& forest, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  return SaveForest(forest, out);
}

Result<DareForest> LoadForestFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  return LoadForest(in);
}

}  // namespace fume
