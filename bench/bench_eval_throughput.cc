// What-if evaluation throughput: the seed deep-copy + full-rescore path vs
// the read-only what-if (docs/performance.md "Read-only what-if"), on the
// parametric forests of the Figure 5 efficiency study.
//
// A deep-copy evaluation is DeepClone + DeleteRows + PredictAll; a
// read-only one scores "forest minus S" straight from the base forest
// (TestPredictionCache::ScoreWithout) — no clone, no node copy, no arena —
// doing the same split re-checks and the same retrain histogram passes.
// The bench sweeps the deletion batch size: small batches isolate the
// clone and rescore legs the read-only path drops (the streaming engine's
// common case), the largest batch approximates the search's support-range
// row sets where retrain work dominates both paths. Reports
// evaluations/sec and bytes cloned per evaluation per cell, checks every
// read-only evaluation against the deep-copy one bit for bit, plus full
// top-k searches at 1/4/8 threads whose outputs are checked identical
// across every strategy x thread cell, plus a direct arena-vs-pointer
// byte-identity probe. Artifacts: eval_throughput.csv (+ metrics snapshot)
// and BENCH_eval.json in bench_artifacts/.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "synth/datasets.h"

namespace {

using namespace fume;
using namespace fume::bench;

struct Setup {
  int64_t rows = 0;
  Dataset train;
  Dataset test;
  GroupSpec group;
  DareForest model;
};

Setup MakeSetup(int64_t rows) {
  auto bundle = synth::MakeParametric(rows, 10, 2, 7);
  FUME_ABORT_NOT_OK(bundle.status());
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  FUME_ABORT_NOT_OK(split.status());
  ForestConfig forest_config;  // the Figure 5 forest
  forest_config.num_trees = 10;
  forest_config.max_depth = 8;
  forest_config.random_depth = 2;
  forest_config.seed = 31;
  auto model = DareForest::Train(split->train, forest_config);
  FUME_ABORT_NOT_OK(model.status());
  return Setup{rows, std::move(split->train), std::move(split->test),
               bundle->group, std::move(*model)};
}

// Deterministic spread-out batches of live training rows; every evaluation
// clones the pristine model, so batches never compound.
std::vector<std::vector<RowId>> MakeBatches(const Setup& s, int batch_size,
                                            int num_batches) {
  const int64_t n = s.model.num_training_rows();
  std::vector<std::vector<RowId>> batches;
  batches.reserve(static_cast<size_t>(num_batches));
  for (int b = 0; b < num_batches; ++b) {
    std::vector<RowId> rows;
    rows.reserve(static_cast<size_t>(batch_size));
    for (int j = 0; j < batch_size; ++j) {
      const uint64_t key = static_cast<uint64_t>(b) * 131 +
                           static_cast<uint64_t>(j) * 977;
      rows.push_back(static_cast<RowId>(key % static_cast<uint64_t>(n)));
    }
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    batches.push_back(std::move(rows));
  }
  return batches;
}

// The two evaluation pipelines under comparison: deep-copy is the seed
// reference (eager clone + pointer-walk PredictAll), read-only the
// production default.
struct StrategySpec {
  const char* name;
  UnlearnRemovalMethod::Options options;
};

const StrategySpec kStrategies[] = {
    {"deep-copy", {/*read_only=*/false}},
    {"read-only", {/*read_only=*/true}},
};

struct Throughput {
  int64_t evaluations = 0;
  double seconds = 0.0;
  double evals_per_sec = 0.0;
  int64_t clone_bytes_per_eval = 0;
  /// Every evaluation's answer, in batch order, for the identity check.
  std::vector<ModelEval> evals;
};

bool SameEvals(const std::vector<ModelEval>& a,
               const std::vector<ModelEval>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].fairness, &b[i].fairness, sizeof(double)) != 0 ||
        std::memcmp(&a[i].accuracy, &b[i].accuracy, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Serial evaluation loop. The warm-up evaluation (which also seeds the CoW
// base prediction cache, a one-off cost amortized across a search) is
// excluded, matching how a search amortizes it.
Throughput Measure(const Setup& s,
                   const std::vector<std::vector<RowId>>& batches,
                   const UnlearnRemovalMethod::Options& options) {
  UnlearnRemovalMethod removal(&s.model, &s.test, s.group,
                               FairnessMetric::kStatisticalParity, options);
  auto warmup = removal.EvaluateWithout(batches.front());
  FUME_ABORT_NOT_OK(warmup.status());

  obs::Counter* copied = obs::GetCounter("forest.unlearn.cow_nodes_copied");
  const int64_t copied_before = copied->Value();
  Throughput t;
  Stopwatch watch;
  t.evals.reserve(batches.size());
  for (const auto& rows : batches) {
    auto eval = removal.EvaluateWithout(rows);
    FUME_ABORT_NOT_OK(eval.status());
    t.evals.push_back(*eval);
    ++t.evaluations;
  }
  t.seconds = watch.ElapsedSeconds();
  t.evals_per_sec = t.seconds > 0.0
                        ? static_cast<double>(t.evaluations) / t.seconds
                        : 0.0;
  const int64_t forest_bytes = s.model.ApproxHeapBytes();
  if (options.read_only) {
    // Read-only evaluations copy nothing; charge any node copy (there
    // should be none) the forest's mean node size, so one would show.
    const int64_t nodes = s.model.num_nodes();
    const int64_t node_bytes = nodes > 0 ? forest_bytes / nodes : 0;
    t.clone_bytes_per_eval = t.evaluations > 0
                                 ? (copied->Value() - copied_before) *
                                       node_bytes / t.evaluations
                                 : 0;
  } else {
    t.clone_bytes_per_eval = forest_bytes;  // every eval copies everything
  }
  return t;
}

std::string TopKSignature(const FumeResult& result, const Schema& schema) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& s : result.top_k) {
    os << s.predicate.ToString(schema) << '|' << s.attribution << '|'
       << s.new_fairness << '|' << s.new_accuracy << '\n';
  }
  os << result.stats.attribution_evaluations;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = SmokeMode(argc, argv);
  const bool full = !smoke && FullMode(argc, argv);
  PrintBanner("What-if evaluation throughput: deep-copy vs read-only",
              "docs/performance.md / Figure 5 forests");

  const std::vector<int64_t> sizes =
      smoke ? std::vector<int64_t>{2000}
            : (full ? std::vector<int64_t>{5000, 10000, 20000, 50000}
                    : std::vector<int64_t>{2000, 5000, 10000, 20000});
  const int64_t mid_size = sizes[sizes.size() / 2];
  // 1/4: streaming-style single-op what-ifs (the clone + rescore legs
  // dominate the deep copy); 64/1024: toward the search's support-range
  // subsets where retrain work dominates both strategies. Smoke keeps two
  // small batches and one large one.
  const std::vector<int> batch_sizes =
      smoke ? std::vector<int>{1, 4, 64} : std::vector<int>{1, 4, 64, 1024};
  const int kHeadlineBatch = 4;
  const int kLargeHeadlineBatch = 64;
  const int num_batches = smoke ? 8 : (full ? 96 : 48);

  TablePrinter table({"rows", "batch", "strategy", "evals", "evals/sec",
                      "clone KiB/eval", "speedup"});
  std::vector<std::vector<std::string>> artifact;
  double mid_speedup = 0.0;
  double large_speedup = 0.0;
  bool evals_identical = true;

  for (int64_t rows : sizes) {
    Setup s = MakeSetup(rows);
    for (int batch : batch_sizes) {
      const auto batches = MakeBatches(s, batch, num_batches);
      std::vector<Throughput> results;
      for (const StrategySpec& strategy : kStrategies) {
        results.push_back(Measure(s, batches, strategy.options));
      }
      evals_identical =
          evals_identical && SameEvals(results[0].evals, results[1].evals);
      const double deep_rate = results.front().evals_per_sec;
      const double read_only_rate = results[1].evals_per_sec;
      if (rows == mid_size && deep_rate > 0.0) {
        if (batch == kHeadlineBatch) mid_speedup = read_only_rate / deep_rate;
        if (batch == kLargeHeadlineBatch) {
          large_speedup = read_only_rate / deep_rate;
        }
      }
      for (size_t i = 0; i < std::size(kStrategies); ++i) {
        const Throughput& t = results[i];
        const double speedup =
            i == 0 ? 1.0
                   : (deep_rate > 0.0 ? t.evals_per_sec / deep_rate : 0.0);
        table.AddRow(
            {std::to_string(rows), std::to_string(batch), kStrategies[i].name,
             std::to_string(t.evaluations),
             FormatDouble(t.evals_per_sec, 1),
             FormatDouble(
                 static_cast<double>(t.clone_bytes_per_eval) / 1024.0, 1),
             FormatDouble(speedup, 2) + "x"});
        artifact.push_back(
            {std::to_string(rows), std::to_string(batch), kStrategies[i].name,
             std::to_string(t.evaluations), FormatDouble(t.seconds, 4),
             FormatDouble(t.evals_per_sec, 2),
             std::to_string(t.clone_bytes_per_eval),
             FormatDouble(speedup, 3)});
      }
    }
  }
  table.Print(std::cout);
  WriteArtifact("eval_throughput",
                {"rows", "batch_rows", "strategy", "evaluations", "seconds",
                 "evals_per_sec", "clone_bytes_per_eval", "speedup_vs_deep"},
                artifact);

  // Full searches: every strategy x thread cell must produce the same top-k
  // (the read-only pipeline's exactness claim, end to end — deep-copy
  // cells clone, unlearn and walk pointers, read-only cells never touch
  // the forest, and their searches must rank identical subsets with
  // identical scores).
  std::cout << "\nSearch identity check (mid-size forest, " << mid_size
            << " rows)\n";
  Setup s = MakeSetup(mid_size);
  FumeConfig config = BenchFumeConfig(s.group);
  std::string reference;
  bool identical = true;
  TablePrinter search_table({"strategy", "threads", "search sec"});
  for (const StrategySpec& strategy : kStrategies) {
    for (const int threads : {1, 4, 8}) {
      UnlearnRemovalMethod removal(&s.model, &s.test, s.group, config.metric,
                                   strategy.options);
      config.num_threads = threads;
      Stopwatch watch;
      auto result =
          ExplainWithRemoval(s.model, s.train, s.test, config, &removal);
      const double seconds = watch.ElapsedSeconds();
      FUME_ABORT_NOT_OK(result.status());
      const std::string sig = TopKSignature(*result, s.train.schema());
      if (reference.empty()) {
        reference = sig;
      } else if (sig != reference) {
        identical = false;
      }
      search_table.AddRow({strategy.name, std::to_string(threads),
                           FormatDouble(seconds, 3)});
    }
  }
  search_table.Print(std::cout);

  // Direct arena-vs-pointer probe on the mid-size model: the compiled-arena
  // batch traversal must reproduce the per-row pointer walk byte for byte.
  const bool arena_identical =
      s.model.PredictProbAll(s.test) == s.model.PredictProbAllPointer(s.test) &&
      s.model.PredictAll(s.test) == s.model.PredictAllPointer(s.test);
  std::cout << "top-k identical across all cells: "
            << (identical ? "yes" : "NO — exactness violation") << '\n'
            << "read-only evaluations bit-identical to deep-copy: "
            << (evals_identical ? "yes" : "NO — exactness violation") << '\n'
            << "arena vs pointer predictions byte-identical: "
            << (arena_identical ? "yes" : "NO — exactness violation") << '\n'
            << "read-only speedup at " << mid_size << " rows, batch "
            << kHeadlineBatch << ", 1 thread: " << FormatDouble(mid_speedup, 2)
            << "x\n"
            << "read-only speedup at " << mid_size << " rows, batch "
            << kLargeHeadlineBatch << ", 1 thread: "
            << FormatDouble(large_speedup, 2) << "x\n";

  std::ofstream json("bench_artifacts/BENCH_eval.json");
  if (json) {
    json.precision(6);
    json << "{\n  \"bench\": \"eval_throughput\",\n"
         << "  \"forest\": \"figure5-parametric (10 trees, depth 8)\",\n"
         << "  \"machine\": " << MachineFingerprintJson() << ",\n"
         << "  \"mid_size_rows\": " << mid_size << ",\n"
         << "  \"headline_batch_rows\": " << kHeadlineBatch << ",\n"
         << "  \"large_headline_batch_rows\": " << kLargeHeadlineBatch
         << ",\n"
         << "  \"topk_identical\": " << (identical ? "true" : "false")
         << ",\n"
         << "  \"readonly_deepcopy_identical\": "
         << (evals_identical ? "true" : "false") << ",\n"
         << "  \"arena_pointer_identical\": "
         << (arena_identical ? "true" : "false") << ",\n"
         << "  \"readonly_speedup_1thread_mid\": " << mid_speedup << ",\n"
         << "  \"readonly_speedup_1thread_large\": " << large_speedup
         << ",\n"
         << "  \"cells\": [\n";
    for (size_t i = 0; i < artifact.size(); ++i) {
      const auto& row = artifact[i];
      json << "    {\"rows\": " << row[0] << ", \"batch_rows\": " << row[1]
           << ", \"strategy\": \"" << row[2]
           << "\", \"evaluations\": " << row[3] << ", \"seconds\": " << row[4]
           << ", \"evals_per_sec\": " << row[5]
           << ", \"clone_bytes_per_eval\": " << row[6]
           << ", \"speedup_vs_deep\": " << row[7] << '}'
           << (i + 1 < artifact.size() ? "," : "") << '\n';
    }
    json << "  ]\n}\n";
    std::cout << "wrote bench_artifacts/BENCH_eval.json\n";
  } else {
    std::cout << "could not write bench_artifacts/BENCH_eval.json\n";
  }
  return identical && evals_identical && arena_identical ? 0 : 1;
}
