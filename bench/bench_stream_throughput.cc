// Streaming engine throughput: incremental StreamEngine ops versus the
// naive alternative of cold-retraining the forest and re-running the FUME
// search after every op-log entry. The acceptance bar for the streaming
// subsystem is a >= 10x total-time speedup on the same op sequence; both
// sides see identical data at every step (the cold side retrains on the
// engine's surviving rows), so the comparison is apples-to-apples and the
// engine's exactness contract makes the outputs interchangeable.
//
// Artifacts: bench_artifacts/stream_throughput.csv (per-op timings),
// bench_artifacts/stream_throughput.metrics.json (counter snapshot, incl.
// stream.predcache.* cache behaviour and stream.search.* drift decisions)
// and bench_artifacts/BENCH_incremental.json (per-mode throughput cells
// consumed by bench_check). --smoke shrinks the substrate to a crash
// tripwire and drops the speedup gate (shared-CI timing is noise).
//
// The artifact also carries an N-sweep: engine time per single-row op
// (400 ops, no searches) at about 10k and 40k training rows over one fixed
// test set, min/median/max over repeats — the record that an op's upkeep
// is flat in the training-set size (docs/performance.md "Stream op
// upkeep").
//
// Beside each N-sweep cell sits a checkpoint-save cell: wall time of
// StreamEngine::SaveCheckpointToFile into a temporary directory for the
// engine the sweep left behind, min/median/max over repeated saves
// (docs/performance.md "Checkpoint writer").

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/removal_method.h"
#include "stream/engine.h"
#include "stream/workload.h"

namespace {

using namespace fume;

/// One N-sweep cell: engine seconds for `ops` single-row ops applied to an
/// engine over `rows` training rows, over repeats on fresh engines.
struct SweepCell {
  int64_t rows = 0;
  int ops = 0;
  std::vector<double> seconds;  // sorted
};

/// One checkpoint-save cell: seconds per SaveCheckpointToFile of one
/// engine, over repeated saves.
struct SaveCell {
  int64_t rows = 0;
  int64_t bytes = 0;
  std::vector<double> seconds;  // sorted
};

SaveCell RunSaveCell(const stream::StreamEngine& engine, int64_t rows,
                     int repeats, const std::string& path) {
  SaveCell cell;
  cell.rows = rows;
  for (int rep = 0; rep < repeats; ++rep) {
    Stopwatch watch;
    FUME_ABORT_NOT_OK(engine.SaveCheckpointToFile(path));
    cell.seconds.push_back(watch.ElapsedSeconds());
  }
  std::sort(cell.seconds.begin(), cell.seconds.end());
  cell.bytes = static_cast<int64_t>(std::filesystem::file_size(path));
  return cell;
}

/// `after_ops` sees the last repeat's engine once its ops are applied.
SweepCell RunSweepCell(
    const Dataset& data, const Dataset& test, int64_t rows, int num_ops,
    int repeats, const stream::StreamEngineConfig& config,
    const std::function<void(const stream::StreamEngine&)>& after_ops) {
  std::vector<int64_t> initial_rows, pool_rows;
  for (int64_t r = 0; r < rows; ++r) initial_rows.push_back(r);
  for (int64_t r = rows; r < rows + num_ops; ++r) pool_rows.push_back(r);
  const Dataset initial = data.Select(initial_rows);
  const Dataset pool = data.Select(pool_rows);
  stream::WorkloadOptions w;
  w.num_ops = num_ops + 1;  // plus the mandatory final checkpoint
  w.insert_batch = 1;
  w.delete_batch = 1;
  w.checkpoint_every = 0;
  w.seed = 13;
  auto ops = stream::SynthesizeOpLog(pool, rows, w);
  FUME_ABORT_NOT_OK(ops.status());
  SweepCell cell;
  cell.rows = rows;
  for (int rep = 0; rep < repeats; ++rep) {
    auto engine = stream::StreamEngine::Create(initial, test, config);
    FUME_ABORT_NOT_OK(engine.status());
    double total = 0.0;
    int applied = 0;
    for (const stream::StreamOp& op : *ops) {
      if (op.kind == stream::OpKind::kCheckpoint) continue;
      Stopwatch watch;
      FUME_ABORT_NOT_OK(engine->Apply(op).status());
      total += watch.ElapsedSeconds();
      ++applied;
    }
    cell.ops = applied;
    cell.seconds.push_back(total);
    if (rep + 1 == repeats) after_ops(*engine);
  }
  std::sort(cell.seconds.begin(), cell.seconds.end());
  return cell;
}

double MicrosPerOp(const SweepCell& cell, double seconds) {
  return cell.ops > 0 ? seconds * 1e6 / cell.ops : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fume;
  using namespace fume::bench;
  const bool smoke = SmokeMode(argc, argv);
  const bool full = !smoke && FullMode(argc, argv);
  PrintBanner("Streaming engine throughput vs cold retrain-and-search",
              "streaming extension; see docs/streaming.md");

  synth::PlantedOptions opts;
  opts.num_rows = smoke ? 4000 : full ? 20000 : 10000;
  opts.seed = 4;
  auto bundle = synth::MakePlantedBias(opts);
  FUME_ABORT_NOT_OK(bundle.status());
  SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  auto split = SplitTrainTest(bundle->data, split_opts);
  FUME_ABORT_NOT_OK(split.status());

  const int64_t pool_rows = split->train.num_rows() / 3;
  std::vector<int64_t> tail, head;
  for (int64_t r = 0; r < split->train.num_rows(); ++r) {
    (r < split->train.num_rows() - pool_rows ? head : tail).push_back(r);
  }
  const Dataset initial_train = split->train.DropRows(tail);
  const Dataset pool = split->train.DropRows(head);

  stream::StreamEngineConfig config;
  config.forest = BenchForestConfig(bundle->name);
  config.fume = BenchFumeConfig(bundle->group);
  config.fume.max_literals = 1;  // keep the cold side's searches tractable
  // The drift policy is the amortization lever: small per-op metric noise
  // should NOT trigger a full re-search. These bounds re-search only on a
  // meaningful shift (>= 0.015 absolute or 20% relative), which is what a
  // deployment monitoring a violation would configure.
  config.drift.abs_threshold = 0.015;
  config.drift.rel_threshold = 0.20;

  const int num_ops = smoke ? 8 : full ? 60 : 30;
  stream::WorkloadOptions w;
  w.num_ops = num_ops;
  w.insert_batch = 2;
  w.delete_batch = 2;
  w.checkpoint_every = 0;  // data ops only (plus the mandatory final C)
  w.seed = 11;
  auto ops = stream::SynthesizeOpLog(pool, initial_train.num_rows(), w);
  FUME_ABORT_NOT_OK(ops.status());

  auto engine =
      stream::StreamEngine::Create(initial_train, split->test, config);
  FUME_ABORT_NOT_OK(engine.status());

  std::vector<std::vector<std::string>> rows;
  double engine_total = 0.0;
  double cold_total = 0.0;
  int searches = 0;
  for (const stream::StreamOp& op : *ops) {
    if (op.kind == stream::OpKind::kCheckpoint) continue;
    Stopwatch engine_watch;
    auto outcome = engine->Apply(op);
    const double engine_seconds = engine_watch.ElapsedSeconds();
    FUME_ABORT_NOT_OK(outcome.status());
    if (outcome->searched) ++searches;

    // Cold baseline on the identical surviving rows: full retrain, full
    // evaluation, full search (skipped, as the engine skips it, when the
    // model is within the fairness floor).
    Stopwatch cold_watch;
    auto cold = DareForest::Train(engine->train_data(), config.forest);
    FUME_ABORT_NOT_OK(cold.status());
    ModelEval original;
    original.fairness = ComputeFairness(*cold, split->test,
                                        config.fume.group, config.fume.metric);
    original.accuracy = cold->Accuracy(split->test);
    if (std::abs(original.fairness) >= config.fume.min_original_bias) {
      UnlearnRemovalMethod removal(&*cold, &split->test, config.fume.group,
                                   config.fume.metric);
      auto fresh = ExplainWithRemoval(original, engine->train_data(),
                                      config.fume, &removal);
      FUME_ABORT_NOT_OK(fresh.status());
    }
    const double cold_seconds = cold_watch.ElapsedSeconds();

    engine_total += engine_seconds;
    cold_total += cold_seconds;
    rows.push_back({std::to_string(op.seq), stream::OpKindName(op.kind),
                    FormatDouble(engine_seconds * 1e3, 3),
                    FormatDouble(cold_seconds * 1e3, 3),
                    FormatDouble(cold_seconds / engine_seconds, 1)});
  }

  const double speedup = cold_total / engine_total;
  const int data_ops = static_cast<int>(rows.size());
  TablePrinter table({"Mode", "Total (s)", "Mean/op (ms)", "Searches"});
  table.AddRow({"incremental engine", FormatDouble(engine_total, 2),
                FormatDouble(engine_total / data_ops * 1e3, 2),
                std::to_string(searches)});
  table.AddRow({"cold retrain+search", FormatDouble(cold_total, 2),
                FormatDouble(cold_total / data_ops * 1e3, 2),
                std::to_string(data_ops)});
  table.Print(std::cout);
  std::cout << "\n" << data_ops << " data ops, "
            << initial_train.num_rows() << " initial rows -> "
            << engine->rows_live() << " live; speedup "
            << FormatDouble(speedup, 1) << "x (target >= 10x)\n";

  WriteArtifact("stream_throughput",
                {"seq", "kind", "engine_ms", "cold_ms", "speedup"}, rows);

  // N-sweep: one fixed test set, two training-set sizes, no searches
  // (drift pinned, no initial violation floor crossed), so each op's time is
  // the forest call plus the engine's own upkeep.
  synth::PlantedOptions sweep_opts;
  const int64_t sweep_test_rows = smoke ? 1000 : 3000;
  const std::vector<int64_t> sweep_sizes =
      smoke ? std::vector<int64_t>{2000, 4000}
            : std::vector<int64_t>{10000, 40000};
  const int sweep_ops = smoke ? 60 : 400;
  const int sweep_repeats = smoke ? 1 : 3;
  sweep_opts.num_rows = sweep_test_rows + sweep_sizes.back() + sweep_ops;
  sweep_opts.seed = 5;
  auto sweep_bundle = synth::MakePlantedBias(sweep_opts);
  FUME_ABORT_NOT_OK(sweep_bundle.status());
  std::vector<int64_t> test_rows, train_rows;
  for (int64_t r = 0; r < sweep_bundle->data.num_rows(); ++r) {
    (r < sweep_test_rows ? test_rows : train_rows).push_back(r);
  }
  const Dataset sweep_test = sweep_bundle->data.Select(test_rows);
  const Dataset sweep_train = sweep_bundle->data.Select(train_rows);
  stream::StreamEngineConfig sweep_config = config;
  sweep_config.drift.abs_threshold = std::numeric_limits<double>::infinity();
  sweep_config.drift.rel_threshold = std::numeric_limits<double>::infinity();
  sweep_config.search_on_checkpoint = false;
  sweep_config.fume.min_original_bias =
      std::numeric_limits<double>::infinity();
  std::vector<SweepCell> sweep;
  std::vector<SaveCell> saves;
  const int save_repeats = smoke ? 3 : 15;
  const std::filesystem::path tmp_dir =
      std::filesystem::temp_directory_path() /
      ("fume_bench_checkpoint_" + std::to_string(::getpid()));
  std::filesystem::create_directories(tmp_dir);
  const std::string ckpt_path = (tmp_dir / "engine.ckpt").string();
  TablePrinter sweep_table(
      {"Train rows", "Ops", "us/op min", "us/op median", "us/op max"});
  for (const int64_t rows : sweep_sizes) {
    sweep.push_back(RunSweepCell(
        sweep_train, sweep_test, rows, sweep_ops, sweep_repeats, sweep_config,
        [&](const stream::StreamEngine& engine) {
          saves.push_back(RunSaveCell(engine, rows, save_repeats, ckpt_path));
        }));
    const SweepCell& cell = sweep.back();
    sweep_table.AddRow(
        {std::to_string(rows), std::to_string(cell.ops),
         FormatDouble(MicrosPerOp(cell, cell.seconds.front()), 1),
         FormatDouble(MicrosPerOp(cell, cell.seconds[cell.seconds.size() / 2]),
                      1),
         FormatDouble(MicrosPerOp(cell, cell.seconds.back()), 1)});
  }
  std::cout << "\nN-sweep: engine time per single-row op, " << sweep_test_rows
            << " test rows\n";
  sweep_table.Print(std::cout);
  std::filesystem::remove_all(tmp_dir);
  TablePrinter save_table(
      {"Train rows", "Image (MB)", "ms/save min", "ms/save median",
       "ms/save max"});
  for (const SaveCell& cell : saves) {
    save_table.AddRow({std::to_string(cell.rows),
                       FormatDouble(cell.bytes / 1e6, 2),
                       FormatDouble(cell.seconds.front() * 1e3, 2),
                       FormatDouble(cell.seconds[cell.seconds.size() / 2] * 1e3,
                                    2),
                       FormatDouble(cell.seconds.back() * 1e3, 2)});
  }
  std::cout << "\nCheckpoint save (SaveCheckpointToFile), " << save_repeats
            << " saves per engine\n";
  save_table.Print(std::cout);
  const auto median_us = [](const SweepCell& cell) {
    return MicrosPerOp(cell, cell.seconds[cell.seconds.size() / 2]);
  };
  const double sweep_ratio =
      median_us(sweep.back()) / median_us(sweep.front());
  std::cout << "median per-op cost at " << sweep_sizes.back() << " rows / at "
            << sweep_sizes.front() << " rows: " << FormatDouble(sweep_ratio, 2)
            << "x\n";

  const bool finite = std::isfinite(speedup) && engine_total > 0.0 &&
                      cold_total > 0.0 && std::isfinite(sweep_ratio);
  std::ofstream json("bench_artifacts/BENCH_incremental.json");
  if (json) {
    json.precision(6);
    json << "{\n  \"bench\": \"stream_throughput\",\n"
         << "  \"substrate\": \"planted-bias (" << opts.num_rows
         << " rows)\",\n"
         << "  \"machine\": " << MachineFingerprintJson() << ",\n"
         << "  \"data_ops\": " << data_ops << ",\n"
         << "  \"timings_finite\": " << (finite ? "true" : "false") << ",\n"
         << "  \"speedup_vs_cold\": " << speedup << ",\n"
         << "  \"n_sweep_test_rows\": " << sweep_test_rows << ",\n"
         << "  \"n_sweep_cost_ratio\": " << sweep_ratio << ",\n"
         << "  \"cells\": [\n"
         << "    {\"mode\": \"incremental\", \"ops\": " << data_ops
         << ", \"seconds\": " << engine_total << ", \"ops_per_sec\": "
         << (engine_total > 0.0 ? data_ops / engine_total : 0.0) << "},\n"
         << "    {\"mode\": \"cold-retrain\", \"ops\": " << data_ops
         << ", \"seconds\": " << cold_total << ", \"ops_per_sec\": "
         << (cold_total > 0.0 ? data_ops / cold_total : 0.0) << "}";
    for (const SweepCell& cell : sweep) {
      const double median = cell.seconds[cell.seconds.size() / 2];
      json << ",\n    {\"mode\": \"engine-single-row\", \"rows\": "
           << cell.rows << ", \"ops\": " << cell.ops
           << ", \"repeats\": " << cell.seconds.size()
           << ", \"seconds\": " << median
           << ", \"seconds_min\": " << cell.seconds.front()
           << ", \"seconds_max\": " << cell.seconds.back()
           << ", \"us_per_op\": " << MicrosPerOp(cell, median)
           << ", \"ops_per_sec\": " << (median > 0.0 ? cell.ops / median : 0.0)
           << "}";
    }
    for (const SaveCell& cell : saves) {
      const double median = cell.seconds[cell.seconds.size() / 2];
      json << ",\n    {\"mode\": \"checkpoint-save\", \"rows\": " << cell.rows
           << ", \"bytes\": " << cell.bytes
           << ", \"repeats\": " << cell.seconds.size()
           << ", \"seconds\": " << median
           << ", \"seconds_min\": " << cell.seconds.front()
           << ", \"seconds_max\": " << cell.seconds.back()
           << ", \"saves_per_sec\": " << (median > 0.0 ? 1.0 / median : 0.0)
           << "}";
    }
    json << "\n  ]\n}\n";
    std::cout << "wrote bench_artifacts/BENCH_incremental.json\n";
  } else {
    std::cout << "could not write bench_artifacts/BENCH_incremental.json\n";
  }

  // Smoke asserts survival and finiteness only; the 10x bar is a perf
  // measurement that needs the real substrate.
  if (smoke) return finite ? 0 : 1;
  return speedup >= 10.0 ? 0 : 1;
}
