// fumebench: end-to-end FUME benchmark program (fumebench/README.md).
//
//   fumebench --workload audit-adult|stream-adult|serve-adult --seed N
//             --seconds S --trace 0|1 [--smoke] [--workdir DIR]
//
// Prints the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1); the last stdout line is one JSON result object. Exits 1 when
// any exactness check fails, 2 on bad flags or a failed set-up.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "bench.h"
#include "data/split.h"
#include "obs/process.h"
#include "synth/registry.h"

namespace fumebench {
namespace {

using fume::Dataset;
using fume::DareForest;

[[noreturn]] void SetupFailed(const std::string& what,
                              const fume::Status& status) {
  std::cerr << "fumebench: " << what << ": " << status.ToString() << "\n";
  std::exit(2);
}

/// Rows of `data` in a seed-drawn order (Fisher-Yates).
Dataset Permute(const Dataset& data, uint64_t seed) {
  std::vector<int64_t> order(static_cast<size_t>(data.num_rows()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  Rng rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<size_t>(rng.Below(i))]);
  }
  return data.Select(order);
}

void HashDataset(const Dataset& data, uint64_t* h) {
  const auto mix = [h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      *h ^= (v >> (8 * b)) & 0xff;
      *h *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<uint64_t>(data.num_rows()));
  for (int64_t r = 0; r < data.num_rows(); ++r) {
    for (int a = 0; a < data.num_attributes(); ++a) {
      mix(static_cast<uint64_t>(data.Code(r, a)));
    }
    mix(static_cast<uint64_t>(data.Label(r)));
  }
}

/// Wall seconds of the steps every set-up does.
struct SetupTimes {
  double generate = 0.0, split = 0.0, train = 0.0;
};

/// Generates the inputs, splits them and trains the audited model, timing
/// each step.
Inputs Prepare(const Options& options, SetupTimes* times) {
  Inputs in;
  in.dataset = "adult-income";
  const double t0 = NowSeconds();
  auto registered = fume::synth::FindDataset(in.dataset);
  if (!registered.ok()) SetupFailed("dataset lookup", registered.status());
  // The audited data is pinned at the registry's operating point (data seed
  // 4, registry size): the search does the same work on every workload
  // seed, which instead permutes row order below and draws every op,
  // request and insert row.
  fume::synth::SynthOptions data_opts;
  data_opts.num_rows = options.smoke ? 3000 : 0;
  data_opts.seed = 4;
  auto bundle = registered->make(data_opts);
  if (!bundle.ok()) SetupFailed("generate", bundle.status());
  // Enough held-out rows that no op log runs its pool dry (bench.h).
  fume::synth::SynthOptions pool_opts;
  pool_opts.num_rows = options.smoke ? 1000 : 40000;
  pool_opts.seed = 1000003 + options.seed;
  auto pool = registered->make(pool_opts);
  if (!pool.ok()) SetupFailed("generate pool", pool.status());
  in.group = bundle->group;
  in.pool = std::move(pool->data);
  const double t1 = NowSeconds();

  fume::SplitOptions split_opts;
  split_opts.test_fraction = 0.3;
  split_opts.seed = 2;
  auto split = fume::SplitTrainTest(bundle->data, split_opts);
  if (!split.ok()) SetupFailed("split", split.status());
  in.train = Permute(split->train, options.seed * 2 + 1);
  in.test = Permute(split->test, options.seed * 2 + 2);
  const double t2 = NowSeconds();

  // fume_cli's default forest and search.
  in.forest.num_trees = 10;
  in.forest.max_depth = 8;
  in.forest.random_depth = 2;
  in.forest.seed = 31;
  auto model = DareForest::Train(in.train, in.forest);
  if (!model.ok()) SetupFailed("train", model.status());
  in.model = std::move(*model);
  const double t3 = NowSeconds();

  in.fume.top_k = 5;
  in.fume.support_min = 0.05;
  in.fume.support_max = 0.15;
  in.fume.max_literals = 2;
  in.fume.metric = fume::FairnessMetric::kStatisticalParity;
  in.fume.group = in.group;
  in.fume.num_threads = 1;

  // Engine and tenant run the audit's search configuration with drift
  // re-search off, so only their create-time search runs.
  fume::stream::StreamEngineConfig& ec = in.engine_config;
  ec.forest = in.forest;
  ec.fume = in.fume;
  ec.drift.abs_threshold = std::numeric_limits<double>::infinity();
  ec.drift.rel_threshold = std::numeric_limits<double>::infinity();
  ec.search_on_checkpoint = false;
  ec.checkpoint_path = options.workdir + "/stream.ckpt";

  times->generate = t1 - t0;
  times->split = t2 - t1;
  times->train = t3 - t2;

  in.fingerprint = 0xcbf29ce484222325ULL;
  HashDataset(in.train, &in.fingerprint);
  HashDataset(in.test, &in.fingerprint);
  HashDataset(in.pool, &in.fingerprint);
  return in;
}

/// StreamEngine::Create over the training split; returns its wall seconds.
double CreateEngine(Inputs* in) {
  const double t0 = NowSeconds();
  auto engine = fume::stream::StreamEngine::Create(in->train, in->test,
                                                   in->engine_config);
  if (!engine.ok()) SetupFailed("engine create", engine.status());
  in->engine.emplace(std::move(*engine));
  return NowSeconds() - t0;
}

/// A Server with the one tenant registered (not yet listening); returns
/// the wall seconds of the tenant's creation.
double CreateTenant(Inputs* in) {
  fume::serve::TenantConfig tenant;
  tenant.engine = in->engine_config;
  tenant.engine.checkpoint_path.clear();
  in->server =
      std::make_unique<fume::serve::Server>(fume::serve::ServerConfig{});
  const double t0 = NowSeconds();
  const fume::Status registered =
      in->server->RegisterTenant(kTenant, in->train, in->test, tenant);
  if (!registered.ok()) SetupFailed("tenant", registered);
  return NowSeconds() - t0;
}

}  // namespace

Inputs Setup(const Options& options, Report* report) {
  // At least three set-ups and two seconds of them: a sub-second set-up
  // repeats until its median holds still.
  const int min_reps = options.smoke ? 1 : 3;
  const double min_seconds = options.smoke ? 0.0 : 2.0;
  std::vector<double> total, generate, split, train, create, tenant;
  Inputs inputs;
  while (static_cast<int>(total.size()) < min_reps ||
         Sum(total) < min_seconds) {
    inputs = Inputs{};  // release the previous repetition first
    SetupTimes t;
    inputs = Prepare(options, &t);
    generate.push_back(t.generate);
    split.push_back(t.split);
    train.push_back(t.train);
    double setup = t.generate + t.split + t.train;
    // Only the workload's own system counts toward its set-up.
    if (options.focus == Phase::kStream) {
      create.push_back(CreateEngine(&inputs));
      setup += create.back();
    } else if (options.focus == Phase::kServe) {
      tenant.push_back(CreateTenant(&inputs));
      setup += tenant.back();
    }
    total.push_back(setup);
  }
  // Every run drives the stream phase; only serve-adult and traced runs
  // drive the serve phase, since no end-to-end metric comes from it
  // elsewhere.
  if (!inputs.engine.has_value()) create.push_back(CreateEngine(&inputs));
  if (options.trace && inputs.server == nullptr) {
    tenant.push_back(CreateTenant(&inputs));
  }
  inputs.train_s = Median(train);
  const int64_t reps = static_cast<int64_t>(total.size());
  report->EndToEnd("setup_s", Median(total), "s", reps);
  report->Layer("synth.generate_s", Median(generate), "s", reps);
  report->Layer("data.split_s", Median(split), "s", reps);
  report->Layer("forest.train_s", Median(train), "s", reps);
  report->Layer("stream.create_s", Median(create), "s",
                static_cast<int64_t>(create.size()));
  if (!tenant.empty()) {
    report->Layer("serve.tenant_create_s", Median(tenant), "s",
                  static_cast<int64_t>(tenant.size()));
  }
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(inputs.fingerprint));
  report->Note("inputs", hex);
  report->Note("dataset", inputs.dataset + " (" +
                              std::to_string(inputs.train.num_rows()) +
                              " train, " +
                              std::to_string(inputs.test.num_rows()) +
                              " test rows)");
  return inputs;
}

}  // namespace fumebench

namespace {

bool ParseFlag(const std::string& arg, const char* name, std::string* value,
               int* i, int argc, char** argv) {
  const std::string flag = std::string("--") + name;
  if (arg == flag) {
    if (*i + 1 >= argc) return false;
    *value = argv[++*i];
    return true;
  }
  if (arg.rfind(flag + "=", 0) == 0) {
    *value = arg.substr(flag.size() + 1);
    return true;
  }
  return false;
}

int Usage(const std::string& error) {
  std::cerr << "fumebench: " << error
            << "\nusage: fumebench --workload audit-adult|stream-adult|"
               "serve-adult --seed N --seconds S --trace 0|1 [--smoke] "
               "[--workdir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fumebench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (ParseFlag(arg, "workload", &v, &i, argc, argv)) {
      options.workload = v;
    } else if (ParseFlag(arg, "seed", &v, &i, argc, argv)) {
      options.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seconds", &v, &i, argc, argv)) {
      options.seconds = std::atof(v.c_str());
    } else if (ParseFlag(arg, "trace", &v, &i, argc, argv)) {
      options.trace = v == "1";
    } else if (ParseFlag(arg, "workdir", &v, &i, argc, argv)) {
      options.workdir = v;
    } else {
      return Usage("unknown or incomplete flag " + arg);
    }
  }
  if (options.workload == "audit-adult") {
    options.focus = Phase::kAudit;
  } else if (options.workload == "stream-adult") {
    options.focus = Phase::kStream;
  } else if (options.workload == "serve-adult") {
    options.focus = Phase::kServe;
  } else {
    return Usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be > 0");

  Report report;
  report.Note("workload", options.workload);
  report.Note("seed", std::to_string(options.seed));
  report.Note("trace", options.trace ? "1" : "0");
  Inputs inputs = Setup(options, &report);
  std::vector<std::unique_ptr<PhaseRunner>> phases;
  phases.push_back(MakeAudit(options, inputs, &report));
  phases.push_back(MakeStream(options, inputs, &report));
  // The phase furthest behind takes the next step.
  while (true) {
    PhaseRunner* next = nullptr;
    for (auto& phase : phases) {
      if (phase->Progress() < 1.0 &&
          (next == nullptr || phase->Progress() < next->Progress())) {
        next = phase.get();
      }
    }
    if (next == nullptr) break;
    next->Step();
  }
  if (inputs.server != nullptr) {
    phases.push_back(MakeServe(options, inputs, &report));
    phases.back()->Step();
  }
  for (auto& phase : phases) phase->Finish();
  report.EndToEnd("peak_rss_mb",
                  static_cast<double>(fume::obs::PeakRssKb()) / 1024.0, "MB",
                  1);
  report.Print(std::cout, options.trace);
  return report.correct() ? 0 : 1;
}
