// The cold_causal and cold_sparse workloads: one closed-loop caller plans a stream of
// distinct 131072-token batches on the 16-rank end-to-end testbed, so every request is
// an Engine miss. The untraced run times Engine::Plan; the traced run also replays each
// batch through the planner's public stages under one root span per batch and checks
// the composed plan is byte-equal to the Engine's.
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/engine.h"
#include "core/plan_store.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 3;
constexpr int kWarmupBatches = 12;
// Warm-up inputs come from a fixed stream so set-up does the same work for every seed.
constexpr uint64_t kWarmupSeed = 0x5e7u;
// The plan outcome is priced over this many leading batches, planned even when the
// timed region ends first, so the outcome metrics depend on the seed alone.
constexpr int kOutcomeBatches = 192;

struct ColdConfig {
  dcp::DatasetKind dataset;
  bool store;
  std::vector<dcp::MaskSpec> masks;  // Rotated per batch.
};

ColdConfig ConfigFor(const std::string& workload) {
  if (workload == "cold_causal") {
    return {dcp::DatasetKind::kLongAlign, true, {dcp::MaskSpec::Causal()}};
  }
  return {dcp::DatasetKind::kLongDataCollections,
          false,
          {dcp::MaskSpec::Lambda(), dcp::MaskSpec::CausalBlockwise(),
           dcp::MaskSpec::SharedQuestion()}};
}

dcp::EngineOptions EngineOptionsFor(const ColdConfig& config, const std::string& dir) {
  dcp::EngineOptions options;
  options.planner.block_size = 1024;
  if (config.store) options.plan_store_path = dir;
  return options;
}

// The next batch whose (mask, seqlens) request the engine has not seen. The length
// samplers cap sequences at the token budget, so a lone 131072-token sequence recurs;
// skipping repeats keeps every request a cold miss.
dcp::Batch NextDistinct(dcp::BatchStream& stream, size_t mask_index,
                        std::set<std::pair<size_t, std::vector<int64_t>>>& seen) {
  while (true) {
    dcp::Batch batch = stream.NextBatch();
    if (seen.emplace(mask_index, batch.seqlens).second) return batch;
  }
}

}  // namespace

RunResult RunCold(const Options& opt, Report& report, Checks& checks,
                  SpanRecorder& spans) {
  const ColdConfig config = ConfigFor(opt.workload);
  const dcp::ClusterSpec cluster = dcp::ClusterSpec::EndToEndTestbed();
  RunResult run;

  // Set-up: open the engine (and its empty store), then plan a few fixed warm-up
  // batches. Repeated so setup_s is a median; the last engine serves the run.
  std::vector<int64_t> setup_ns;
  std::unique_ptr<dcp::Engine> engine;
  std::set<std::pair<size_t, std::vector<int64_t>>> seen;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const int64_t start = rep == 0 ? opt.process_start_ns : NowNs();
    engine.reset();
    const std::string dir = opt.out_dir + "/store-" + std::to_string(rep);
    ResetDir(dir);
    engine = std::make_unique<dcp::Engine>(cluster, EngineOptionsFor(config, dir));
    checks.Expect(engine->store_status().ok(),
                  "plan store open: " + engine->store_status().ToString());
    seen.clear();
    dcp::BatchStream warmup = MakeStream(config.dataset, kWarmupSeed);
    for (int i = 0; i < kWarmupBatches; ++i) {
      const dcp::Batch batch = NextDistinct(warmup, i % config.masks.size(), seen);
      const dcp::StatusOr<dcp::PlanHandle> plan =
          engine->Plan(batch.seqlens, config.masks[i % config.masks.size()]);
      checks.Expect(plan.ok(), "warm-up plan: " + plan.status().ToString());
    }
    setup_ns.push_back(NowNs() - start);
  }
  ReportSetup(report, setup_ns);

  // The traced replay writes into a second store, so each Put is a fresh record.
  const dcp::PlannerOptions& planner = engine->options().planner;
  std::unique_ptr<StageReplay> replay;
  if (opt.trace) {
    replay = std::make_unique<StageReplay>(
        cluster, planner, config.store ? opt.out_dir + "/store-replay" : "", spans, checks);
  }
  Outcome outcome(cluster, opt.trace);
  std::vector<double> plan_ms, late_ms;
  int64_t engine_ns = 0;
  InputFingerprint fingerprint;
  const int64_t misses_before = engine->cache_stats().misses;

  dcp::BatchStream stream = MakeStream(config.dataset, opt.seed);
  const int64_t deadline = NowNs() + static_cast<int64_t>(opt.seconds) * 1000000000;
  for (int i = 0; i < kOutcomeBatches || NowNs() < deadline; ++i) {
    // Closed loop: the next request is due as soon as the previous one is handled, so
    // the generator is late by the time it takes to produce the request.
    const int64_t due = NowNs();
    const dcp::Batch batch = NextDistinct(stream, i % config.masks.size(), seen);
    const dcp::MaskSpec& mask = config.masks[i % config.masks.size()];
    fingerprint.Add(batch.seqlens);
    const int64_t start = NowNs();
    late_ms.push_back(NsToMs(start - due));
    const dcp::StatusOr<dcp::PlanHandle> planned = engine->Plan(batch.seqlens, mask);
    const int64_t elapsed = NowNs() - start;
    ++run.attempted;
    if (!planned.ok()) {
      ++run.failed_requests;
      checks.Expect(false, "Engine::Plan: " + planned.status().ToString());
      continue;
    }
    plan_ms.push_back(NsToMs(elapsed));
    const dcp::PlanHandle& handle = planned.value();
    ExpectValid(checks, handle->plan, "Engine plan");
    if (i < kOutcomeBatches) outcome.Add(batch.seqlens, mask, planner, handle->plan);

    if (replay != nullptr) {
      engine_ns += elapsed;
      const std::string record = replay->Replay(batch.seqlens, mask, handle->signature,
                                                handle->plan, static_cast<uint64_t>(i));
      Timed(spans, "plan_store.decode", static_cast<uint64_t>(i), -1, [&] {
        const auto decoded = dcp::PlanStore::DecodeRecord(record);
        checks.Expect(decoded.ok(), "DecodeRecord: " + decoded.status().ToString());
        return 0;
      });
    }
  }
  const int64_t misses = engine->cache_stats().misses - misses_before;
  checks.Expect(misses == run.attempted,
                "engine misses " + std::to_string(misses) + " != batches " +
                    std::to_string(run.attempted));

  ReportLatency(report, "plan_ms", plan_ms);
  // One closed-loop caller talks to the Engine directly: a request is due when it is
  // issued, so serve latency is the Engine::Plan latency.
  ReportLatency(report, "serve_ms", plan_ms);
  ReportLateness(report, late_ms, run);
  outcome.Emit(report);
  fingerprint.Print();

  report.Set("engine.misses", static_cast<double>(misses), "count");
  report.Set("engine.hit_ratio", engine->cache_stats().HitRate(), "ratio");
  if (replay != nullptr) {
    replay->Emit(report);
    report.Set("plan_store.decode_ms_p50",
               Percentile(spans.DurationsMs("plan_store.decode"), 50), "ms");
    report.Set("trace.unattributed_share", spans.UnattributedShare("batch"), "ratio");
    report.Set("trace.overhead_share",
               engine_ns > 0 ? static_cast<double>(spans.TotalNs("batch")) / engine_ns - 1.0
                             : 0.0,
               "ratio");
  }
  // The service layer is idle on the cold workloads.
  for (const char* name :
       {"serve.memory_ms_p50", "serve.store_ms_p50", "serve.server_ms_mean"}) {
    report.Set(name, 0.0, "ms");
  }
  for (const char* name : {"serve.share_memory", "serve.share_store", "serve.share_planned"}) {
    report.Set(name, 0.0, "ratio");
  }
  for (const char* name : {"client.retries", "client.rpc_errors"}) {
    report.Set(name, 0.0, "count");
  }
  return run;
}

}  // namespace perfbench
