#include "fairness/confusion.h"

#include "util/check.h"

namespace fume {

namespace {
double Ratio(int64_t num, int64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}
}  // namespace

double Confusion::PositiveRate() const { return Ratio(tp + fp, total()); }
double Confusion::Tpr() const { return Ratio(tp, tp + fn); }
double Confusion::Fpr() const { return Ratio(fp, fp + tn); }
double Confusion::Ppv() const { return Ratio(tp, tp + fp); }

void Confusion::Add(int label, int prediction) {
  if (label == 1) {
    prediction == 1 ? ++tp : ++fn;
  } else {
    prediction == 1 ? ++fp : ++tn;
  }
}

void Confusion::Remove(int label, int prediction) {
  if (label == 1) {
    prediction == 1 ? --tp : --fn;
  } else {
    prediction == 1 ? --fp : --tn;
  }
}

GroupConfusion ComputeGroupConfusion(const Dataset& data,
                                     const std::vector<int>& predictions,
                                     const GroupSpec& group) {
  FUME_CHECK_EQ(static_cast<int64_t>(predictions.size()), data.num_rows());
  GroupConfusion out;
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    out.Of(data, r, group).Add(data.Label(r),
                               predictions[static_cast<size_t>(r)]);
  }
  return out;
}

}  // namespace fume
