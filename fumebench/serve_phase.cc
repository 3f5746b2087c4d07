// Serve phase: an in-process serve::Server with one adult-income tenant,
// driven over loopback by three closed-loop client connections (one below
// nproc, so the server's threads keep a core):
//
//   two analysts  `whatif` with 1-2-literal predicates drawn from the data
//                 (support 5-15%)
//   one app       `predict` (32 test rows, bench_serve's batch) and
//                 `explain`, alternating; every tenth request is a
//                 single-row `stream_op`
//
// Afterwards a fixed probe set of whatifs is answered over the wire and
// checked bit for bit against an offline UnlearnRemovalMethod on the
// tenant's final snapshot. The traced variant also sends the same requests
// in-process to Tenant::WhatIf / Tenant::ApplyStreamOp, with no socket.

#include <algorithm>
#include <thread>

#include "bench.h"
#include "core/removal_method.h"
#include "serve/protocol.h"
#include "util/json.h"
#include "util/socket.h"

namespace fumebench {
namespace {

using fume::Predicate;
using fume::util::JsonValue;
using fume::util::Socket;

constexpr int kProbes = 6;
constexpr int64_t kPredictRows = 32;

/// Every 1- and 2-literal equality predicate with train support in
/// [5%, 15%], in a seed-drawn order.
std::vector<Predicate> DrawPredicates(const fume::Dataset& train,
                                      uint64_t seed) {
  const double n = static_cast<double>(train.num_rows());
  const auto in_range = [&](const Predicate& p) {
    const double support = p.Support(train);
    return support >= 0.05 && support <= 0.15;
  };
  std::vector<fume::Literal> literals;
  for (int a = 0; a < train.num_attributes(); ++a) {
    std::vector<int64_t> counts(
        static_cast<size_t>(train.schema().attribute(a).cardinality()), 0);
    for (const int32_t code : train.codes(a)) {
      ++counts[static_cast<size_t>(code)];
    }
    for (size_t c = 0; c < counts.size(); ++c) {
      // A pair's support is at most that of each of its literals.
      if (static_cast<double>(counts[c]) >= 0.05 * n) {
        literals.push_back(
            {a, fume::LiteralOp::kEq, static_cast<int32_t>(c)});
      }
    }
  }
  std::vector<Predicate> out;
  for (size_t i = 0; i < literals.size(); ++i) {
    const Predicate single = Predicate::Of(literals[i]);
    if (in_range(single)) out.push_back(single);
    for (size_t j = i + 1; j < literals.size(); ++j) {
      if (literals[j].attr == literals[i].attr) continue;
      const Predicate pair = single.With(literals[j]);
      if (in_range(pair)) out.push_back(pair);
    }
  }
  Rng rng(seed);
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[static_cast<size_t>(rng.Below(i))]);
  }
  return out;
}

/// One request line out, one response line back; false on transport
/// failure or an `ok:false` reply.
bool Exchange(Socket& sock, const std::string& request, JsonValue* reply) {
  if (!sock.SendAll(request).ok()) return false;
  std::string line;
  auto rr = sock.ReadLine(&line, 60000);
  if (!rr.ok() || *rr != Socket::ReadResult::kLine) return false;
  auto parsed = fume::util::ParseJson(line);
  if (!parsed.ok()) return false;
  *reply = std::move(*parsed);
  return reply->BoolOr("ok", false);
}

struct ClientLog {
  std::vector<double> whatif_ms, read_ms, write_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Closed loop until `deadline`: analysts (app == false) send whatifs, the
/// app client reads and, every tenth request, writes the next op of
/// `writes` (none once only the log's closing checkpoint is left).
void RunClient(int port, bool app, uint64_t seed, double deadline,
               const std::vector<Predicate>& predicates,
               const fume::Dataset& test,
               const std::vector<fume::stream::StreamOp>& writes,
               size_t* next_write, ClientLog* log) {
  auto sock = Socket::Connect("127.0.0.1", port);
  if (!sock.ok()) {
    ++log->attempted;
    ++log->failed;
    return;
  }
  Rng rng(seed);
  std::vector<std::vector<int32_t>> rows(kPredictRows);
  for (int64_t j = 0; NowSeconds() < deadline; ++j) {
    std::string request;
    std::vector<double>* into = &log->whatif_ms;
    if (!app) {
      request = fume::serve::EncodeWhatIfRequest(
          j, kTenant, predicates[rng.Below(predicates.size())]);
    } else if (j % 10 == 9 && *next_write + 1 < writes.size()) {
      request = fume::serve::EncodeStreamOpRequest(j, kTenant,
                                                   writes[(*next_write)++]);
      into = &log->write_ms;
    } else if (j % 2 == 0) {
      for (auto& row : rows) {
        const int64_t r = static_cast<int64_t>(
            rng.Below(static_cast<uint64_t>(test.num_rows())));
        row.clear();
        for (int a = 0; a < test.num_attributes(); ++a) {
          row.push_back(test.Code(r, a));
        }
      }
      request = fume::serve::EncodePredictRequest(j, kTenant, rows);
      into = &log->read_ms;
    } else {
      request = fume::serve::EncodeExplainRequest(j, kTenant);
      into = &log->read_ms;
    }
    JsonValue reply;
    const double t0 = NowSeconds();
    const bool ok = Exchange(*sock, request, &reply);
    const double ms = (NowSeconds() - t0) * 1000.0;
    ++log->attempted;
    if (!ok) {
      ++log->failed;
      if (!sock->valid()) return;
      continue;
    }
    into->push_back(ms);
  }
}

/// Wire answers of the probe predicates must equal an offline
/// UnlearnRemovalMethod on the tenant's final snapshot, bit for bit.
void CheckProbes(const Inputs& in, fume::serve::Tenant& tenant, int port,
                 const std::vector<Predicate>& probes, Report* report) {
  auto sock = Socket::Connect("127.0.0.1", port);
  const auto snap = tenant.snapshot();
  fume::UnlearnRemovalMethod offline(&snap->forest, &tenant.test_data(),
                                     in.group, in.fume.metric);
  const fume::TrainingStore& store = snap->forest.store();
  for (size_t i = 0; i < probes.size(); ++i) {
    JsonValue reply;
    const bool answered =
        sock.ok() &&
        Exchange(*sock,
                 fume::serve::EncodeWhatIfRequest(static_cast<int64_t>(i),
                                                  kTenant, probes[i]),
                 &reply);
    std::vector<fume::RowId> matched;
    for (const fume::RowId id : snap->live_ids) {
      bool all = true;
      for (const fume::Literal& lit : probes[i].literals()) {
        all = all && lit.Matches(store.code(id, lit.attr));
      }
      if (all) matched.push_back(id);
    }
    auto eval = offline.EvaluateWithout(matched);
    const bool same =
        answered && eval.ok() &&
        static_cast<int64_t>(reply.NumberOr("seq", -2)) == snap->seq &&
        static_cast<int64_t>(reply.NumberOr("rows_matched", -1)) ==
            static_cast<int64_t>(matched.size()) &&
        SameBits(reply.NumberOr("after_fairness", 0.0), eval->fairness) &&
        SameBits(reply.NumberOr("after_accuracy", 0.0), eval->accuracy);
    if (same) {
      report->Count(Phase::kServe, 1);
    } else {
      report->CheckFailed(Phase::kServe,
                          "whatif probe differs from offline unlearning: " +
                              probes[i].ToString(in.train.schema()));
    }
  }
}

class ServeRunner : public PhaseRunner {
 public:
  ServeRunner(const Options& options, Inputs& in, Report* report)
      : options_(options),
        in_(in),
        report_(report),
        server_(*in.server),
        predicates_(DrawPredicates(in.train, options.seed * 11 + 5)),
        writes_(WriteLog(in, options.smoke ? 1000 : 20000,
                         /*checkpoint_every=*/0, options.seed * 13 + 7)) {}

  double Progress() const override { return ran_ ? 1.0 : 0.0; }
  void Step() override;
  void Finish() override;

 private:
  const Options& options_;
  Inputs& in_;
  Report* report_;
  fume::serve::Server& server_;
  fume::serve::Tenant* tenant_ = nullptr;  // null until the server is up
  const std::vector<Predicate> predicates_;
  const std::vector<fume::stream::StreamOp> writes_;  // the app's writes
  size_t next_write_ = 0;
  bool ran_ = false;
  ClientLog all_;
  double req_per_s_ = 0.0;
  CounterDiff counters_;  // around the client traffic
};

void ServeRunner::Step() {
  ran_ = true;
  const fume::Status started = server_.Start();
  if (!started.ok()) {
    report_->CheckFailed(Phase::kServe, "server start: " + started.ToString());
    return;
  }
  if (predicates_.size() < static_cast<size_t>(kProbes)) {
    report_->CheckFailed(Phase::kServe, "too few predicates in support range");
    return;
  }
  tenant_ = server_.FindTenant(kTenant);

  counters_ = CounterDiff();
  ClientLog logs[3];
  const double start = NowSeconds();
  const double deadline = start + options_.Budget(Phase::kServe);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        RunClient(server_.port(), /*app=*/c == 2, options_.seed * 17 + c,
                  deadline, predicates_, in_.test, writes_, &next_write_,
                  &logs[c]);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double elapsed = NowSeconds() - start;
  counters_.Stop();

  for (const ClientLog& log : logs) {
    for (auto [from, to] : {std::pair{&log.whatif_ms, &all_.whatif_ms},
                            std::pair{&log.read_ms, &all_.read_ms},
                            std::pair{&log.write_ms, &all_.write_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    all_.attempted += log.attempted;
    all_.failed += log.failed;
  }
  report_->Count(Phase::kServe, all_.attempted, all_.failed);
  req_per_s_ = static_cast<double>(all_.attempted - all_.failed) / elapsed;
}

void ServeRunner::Finish() {
  if (tenant_ == nullptr) {
    server_.Shutdown();
    return;
  }
  if (options_.trace) {
    // The concurrent serve phase keeps three of four cores busy and its
    // client-side numbers swing with the host's load beyond any
    // end-to-end bound, so they are reported here, without a bound.
    const int64_t whatifs = static_cast<int64_t>(all_.whatif_ms.size());
    report_->Layer("serve.read_p50_ms", Quantile(all_.read_ms, 0.5), "ms",
                   static_cast<int64_t>(all_.read_ms.size()));
    report_->Layer("serve.req_per_s", req_per_s_, "req/s",
                   all_.attempted - all_.failed);
    report_->Layer("serve.whatif_p50_ms", Quantile(all_.whatif_ms, 0.5), "ms",
                   whatifs);
    // p95: the highest percentile with at least ten samples beyond it in
    // every workload's serve phase.
    report_->Layer("serve.whatif_p95_ms", Quantile(all_.whatif_ms, 0.95),
                   "ms", whatifs);
    report_->Layer("serve.write_p50_ms", Quantile(all_.write_ms, 0.5), "ms",
                   static_cast<int64_t>(all_.write_ms.size()));
    for (const char* endpoint : {"whatif", "predict", "explain", "stream_op"}) {
      const auto [n, sum_us] = counters_.Histogram(
          std::string("serve.") + endpoint + ".latency_us");
      report_->Layer(std::string("serve.") + endpoint + ".server_mean_ms",
                     n > 0 ? static_cast<double>(sum_us) /
                                 static_cast<double>(n) / 1000.0
                           : 0.0,
                     "ms", n);
    }
    const auto [batches, batched] = counters_.Histogram("serve.batch.size");
    report_->Layer("serve.batch.size_mean",
                   batches > 0 ? static_cast<double>(batched) /
                                     static_cast<double>(batches)
                               : 0.0,
                   "jobs", batches);
    for (const char* name :
         {"serve.snapshot.published", "serve.requests.errors"}) {
      report_->Layer(name, static_cast<double>(counters_.Counter(name)),
                     "count", 1);
    }

    // The same kinds of request in-process, with no socket or protocol.
    std::vector<double> whatif_ms, write_ms;
    for (int pass = 0; pass < 2; ++pass) {
      for (const Predicate& p : predicates_) {
        fume::serve::BatchJob job;
        job.predicate = p;
        const double t0 = NowSeconds();
        const auto admit = tenant_->WhatIf(&job);
        whatif_ms.push_back((NowSeconds() - t0) * 1000.0);
        report_->Count(Phase::kServe, 1,
                       admit == fume::serve::AdmitResult::kOk ? 0 : 1);
      }
    }
    for (int i = 0; i < 20 && next_write_ + 1 < writes_.size(); ++i) {
      const fume::stream::StreamOp& op = writes_[next_write_++];
      const double t0 = NowSeconds();
      const auto outcome = tenant_->ApplyStreamOp(op);
      write_ms.push_back((NowSeconds() - t0) * 1000.0);
      report_->Count(Phase::kServe, 1, outcome.ok() ? 0 : 1);
    }
    report_->Layer("serve.tenant.whatif_ms", Median(whatif_ms), "ms",
                   static_cast<int64_t>(whatif_ms.size()));
    report_->Layer("serve.tenant.stream_op_ms", Median(write_ms), "ms",
                   static_cast<int64_t>(write_ms.size()));
  }

  CheckProbes(in_, *tenant_, server_.port(),
              std::vector<Predicate>(predicates_.begin(),
                                     predicates_.begin() + kProbes),
              report_);
  server_.Shutdown();
}

}  // namespace

std::unique_ptr<PhaseRunner> MakeServe(const Options& options, Inputs& in,
                                       Report* report) {
  return std::make_unique<ServeRunner>(options, in, report);
}

}  // namespace fumebench
