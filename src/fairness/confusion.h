// Per-group confusion statistics underlying every group-fairness metric.

#ifndef FUME_FAIRNESS_CONFUSION_H_
#define FUME_FAIRNESS_CONFUSION_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace fume {

/// Identifies the sensitive attribute and which of its codes is the
/// privileged group (paper: S = 1 privileged, S = 0 protected). Any code
/// different from `privileged_code` counts as protected.
struct GroupSpec {
  int sensitive_attr = 0;
  int32_t privileged_code = 1;
};

/// \brief Binary-classification confusion counts for one group.
struct Confusion {
  int64_t tp = 0;
  int64_t fp = 0;
  int64_t tn = 0;
  int64_t fn = 0;

  int64_t total() const { return tp + fp + tn + fn; }
  int64_t predicted_positive() const { return tp + fp; }
  int64_t actual_positive() const { return tp + fn; }

  /// P(yhat = 1). Zero when the group is empty.
  double PositiveRate() const;
  /// True positive rate P(yhat = 1 | y = 1); zero when undefined.
  double Tpr() const;
  /// False positive rate P(yhat = 1 | y = 0); zero when undefined.
  double Fpr() const;
  /// Positive predictive value P(y = 1 | yhat = 1); zero when undefined.
  double Ppv() const;

  void Add(int label, int prediction);
  /// Undoes Add(label, prediction).
  void Remove(int label, int prediction);
};

/// Confusions of the privileged and protected groups.
struct GroupConfusion {
  Confusion privileged;
  Confusion unprivileged;

  /// The group row `r` of `data` belongs to.
  Confusion& Of(const Dataset& data, int64_t r, const GroupSpec& group) {
    return data.Code(r, group.sensitive_attr) == group.privileged_code
               ? privileged
               : unprivileged;
  }
};

/// Tallies group confusions of predictions against `data`'s labels.
/// `predictions` must have one entry per row of `data`.
GroupConfusion ComputeGroupConfusion(const Dataset& data,
                                     const std::vector<int>& predictions,
                                     const GroupSpec& group);

}  // namespace fume

#endif  // FUME_FAIRNESS_CONFUSION_H_
