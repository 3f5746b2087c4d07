// Dataset: columnar labeled tabular data. Numeric columns hold doubles,
// categorical columns hold int32 codes into the schema's dictionaries;
// labels are binary (favorable = 1).

#ifndef FUME_DATA_DATASET_H_
#define FUME_DATA_DATASET_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/schema.h"
#include "util/result.h"

namespace fume {

/// \brief Immutable packed row-major snapshot of an all-categorical
/// dataset's codes: row r occupies [codes.data() + r * num_attrs, +num_attrs).
///
/// The column-store Code(row, attr) gathers two indirections per cell; the
/// flat-arena tree traversal instead streams this matrix linearly alongside
/// the node arrays. Built lazily once per Dataset (packed_codes()) and
/// shared by reference; appending rows invalidates the snapshot.
struct PackedCodes {
  std::vector<int32_t> codes;
  int num_attrs = 0;
  const int32_t* row(int64_t r) const {
    return codes.data() + r * num_attrs;
  }
};

/// \brief Storage for one column; exactly one of the two vectors is in use,
/// matching the attribute's type in the schema.
struct ColumnData {
  std::vector<double> numeric;
  std::vector<int32_t> codes;
};

/// \brief A labeled tabular dataset with columnar storage.
///
/// Rows are addressed by dense indices [0, num_rows). Row identity matters:
/// the forest's leaf instance lists and the subset posting lists both store
/// these indices, so mutating a Dataset after models/indexes were built on it
/// is not supported (build new objects instead).
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(Schema schema);
  // The cached packed view never transfers: a copy's (or moved-to object's)
  // columns can legitimately be patched right after the transfer (e.g.
  // WithPermutedColumn), which must not be visible through a shared
  // snapshot. Each object rebuilds its own view on first use.
  Dataset(const Dataset& other);
  Dataset& operator=(const Dataset& other);
  Dataset(Dataset&& other) noexcept;
  Dataset& operator=(Dataset&& other) noexcept;

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return static_cast<int64_t>(labels_.size()); }
  int num_attributes() const { return schema_.num_attributes(); }

  /// Appends one row. `codes_or_bins[j]` is interpreted per attribute j's
  /// type: categorical -> code (validated against cardinality), numeric ->
  /// ignored in favor of `numerics[j]`. For all-categorical datasets pass
  /// `numerics` empty.
  Status AppendRow(const std::vector<int32_t>& codes, int label);
  Status AppendRowMixed(const std::vector<int32_t>& codes,
                        const std::vector<double>& numerics, int label);

  /// Cell accessors. The attribute's type must match.
  int32_t Code(int64_t row, int attr) const {
    return columns_[attr].codes[row];
  }
  double Numeric(int64_t row, int attr) const {
    return columns_[attr].numeric[row];
  }
  int Label(int64_t row) const { return labels_[row]; }

  const std::vector<uint8_t>& labels() const { return labels_; }
  const std::vector<int32_t>& codes(int attr) const {
    return columns_[attr].codes;
  }
  const std::vector<double>& numerics(int attr) const {
    return columns_[attr].numeric;
  }

  /// The packed row-major code matrix (requires an all-categorical
  /// schema). Thread-safe: concurrent first calls build one snapshot; the
  /// returned pointer stays valid (and coherent with the rows it was built
  /// from) even if this Dataset later appends rows.
  std::shared_ptr<const PackedCodes> packed_codes() const;

  /// Fraction of rows with label 1 (the favorable outcome).
  double PositiveRate() const;

  /// Fraction of rows with Code(row, attr) == code that have label 1;
  /// returns 0 when the group is empty. This is the "base rate" of §6.3.
  double BaseRate(int attr, int32_t code) const;

  /// Fraction of rows with Code(row, attr) == code.
  double GroupFraction(int attr, int32_t code) const;

  /// New dataset containing the given rows, in the given order.
  /// Row indices must be valid.
  Dataset Select(const std::vector<int64_t>& rows) const;

  /// New dataset with the rows whose ids appear in `rows` removed.
  /// `rows` need not be sorted; duplicates are tolerated.
  Dataset DropRows(const std::vector<int64_t>& rows) const;

  /// Copy where column `attr`'s value for row i is taken from row perm[i]
  /// (everything else unchanged). Used by permutation feature importance.
  Dataset WithPermutedColumn(int attr,
                             const std::vector<int64_t>& perm) const;

  /// Human-readable rendering of one cell ("Male", "3.14").
  std::string CellToString(int64_t row, int attr) const;

  /// Verifies internal consistency (column lengths, code ranges).
  Status Validate() const;

 private:
  Schema schema_;
  std::vector<ColumnData> columns_;
  std::vector<uint8_t> labels_;
  /// Lazily built packed view; null until the first packed_codes() call
  /// and reset to null by AppendRow/AppendRowMixed. `packed_mu_` guards the
  /// pointer (readers hold it for one shared_ptr copy) and a build.
  mutable std::mutex packed_mu_;
  mutable std::shared_ptr<const PackedCodes> packed_;
  void ResetPacked();
};

}  // namespace fume

#endif  // FUME_DATA_DATASET_H_
