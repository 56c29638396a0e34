// The warm_serve workload: an in-process PlanServer over loopback serves one tenant
// whose Engine is backed by a plan store that set-up fills with N recurring LongAlign
// causal shapes (block 2048). N is 4x the tenant's in-memory LRU, so most requests are
// store reads and the rest memory hits; the PlanClient LRU is off, so every request is
// an RPC whose record the client decodes. Load is an open loop at a fixed rate from a
// few connections, each request timed from when it was due. The run is three rounds,
// each setting everything up afresh and serving the same access order, so a request's
// latency is the best of three taken seconds apart.
#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/plan_store.h"
#include "service/plan_client.h"
#include "service/plan_server.h"
#include "service/tenant_registry.h"

namespace perfbench {
namespace {

// Each round sets up a fresh store, server and connections (one setup_s sample) and
// then serves the same seeded access order.
constexpr int kRounds = 3;
constexpr int kShapes = 256;         // Recurring batch shapes in the store.
constexpr int kTenantLru = 64;       // The Engine's default plan_cache_capacity.
constexpr int kConnections = 4;      // One generator thread per connection.
constexpr double kRatePerS = 100.0;  // Well below one connection's closed-loop rate.
constexpr int kWarmupRequests = 16;  // Per connection, before a round is measured.
// Traced runs replay this many shapes through the planner stages after the measured
// region, so the stage metrics are measured at this workload's block size too.
constexpr int kReplayShapes = 32;
const char* const kTenant = "bench";

// kShapes distinct batch shapes. The length samplers cap sequences at the token
// budget, so a lone 131072-token sequence recurs; skipping repeats keeps every
// store-populating plan a cold miss and the store at kShapes records.
std::vector<std::vector<int64_t>> MakeShapes(uint64_t seed) {
  dcp::BatchStream stream = MakeStream(dcp::DatasetKind::kLongAlign, seed);
  std::set<std::vector<int64_t>> seen;
  std::vector<std::vector<int64_t>> shapes;
  while (shapes.size() < static_cast<size_t>(kShapes)) {
    std::vector<int64_t> seqlens = stream.NextBatch().seqlens;
    if (seen.insert(seqlens).second) shapes.push_back(std::move(seqlens));
  }
  return shapes;
}

// One set-up: a fresh store filled by cold Engine::Plan misses, a server, and warmed
// client connections. `best_plan_ms[i]` keeps the fastest cold plan of shape i over
// the rounds so far.
struct Service {
  std::shared_ptr<dcp::TenantRegistry> registry;
  std::shared_ptr<dcp::Engine> engine;
  std::unique_ptr<dcp::PlanServer> server;
  std::vector<std::unique_ptr<dcp::PlanClient>> clients;
  std::vector<std::string> reference;  // SerializePlanBinary of each shape's plan.

  ~Service() {
    clients.clear();
    if (server) server->Stop();
  }
};

std::unique_ptr<Service> SetUp(const std::string& dir,
                               const std::vector<std::vector<int64_t>>& shapes,
                               std::vector<double>& best_plan_ms, Checks& checks) {
  auto service = std::make_unique<Service>();
  ResetDir(dir);
  dcp::TenantConfig tenant;
  tenant.name = kTenant;
  tenant.cluster = dcp::ClusterSpec::EndToEndTestbed();
  tenant.options.planner.block_size = 2048;
  tenant.options.plan_cache_capacity = kTenantLru;
  tenant.options.plan_store_path = dir;
  service->registry = std::make_shared<dcp::TenantRegistry>();
  const dcp::Status registered = service->registry->Register(tenant);
  checks.Expect(registered.ok(), "Register: " + registered.ToString());
  service->engine = service->registry->Find(kTenant);
  if (service->engine == nullptr) return service;
  checks.Expect(service->engine->plan_store() != nullptr, "tenant store did not open");

  const dcp::PlanCacheStats before = service->engine->cache_stats();
  for (size_t i = 0; i < shapes.size(); ++i) {
    const int64_t start = NowNs();
    const dcp::StatusOr<dcp::PlanHandle> plan =
        service->engine->Plan(shapes[i], dcp::MaskSpec::Causal());
    const int64_t elapsed = NowNs() - start;
    if (!plan.ok()) {
      checks.Expect(false, "populate: " + plan.status().ToString());
      service->reference.emplace_back();
      continue;
    }
    best_plan_ms[i] = std::min(best_plan_ms[i], NsToMs(elapsed));
    ExpectValid(checks, plan.value()->plan, "store-populating plan");
    service->reference.push_back(dcp::SerializePlanBinary(plan.value()->plan));
  }
  // Every populating request must have run the planner: a miss, not served from disk.
  const dcp::PlanCacheStats after = service->engine->cache_stats();
  const int64_t populated = after.misses - after.store_hits - before.misses + before.store_hits;
  checks.Expect(populated == static_cast<int64_t>(shapes.size()),
                "set-up planned " + std::to_string(populated) + " of " +
                    std::to_string(shapes.size()) + " shapes");

  dcp::PlanServerOptions server_options;
  service->server = std::make_unique<dcp::PlanServer>(service->registry, server_options);
  const dcp::Status started =
      service->server->Start(dcp::ServiceAddress::Tcp("127.0.0.1", 0));
  checks.Expect(started.ok(), "PlanServer::Start: " + started.ToString());
  if (!started.ok()) return service;
  dcp::PlanClientOptions client_options;
  client_options.tenant = kTenant;
  client_options.cache_capacity = 0;
  client_options.planner_threads = 1;
  for (int c = 0; c < kConnections; ++c) {
    auto client = dcp::PlanClient::Connect(service->server->bound_address(), client_options);
    checks.Expect(client.ok(), "PlanClient::Connect: " + client.status().ToString());
    if (!client.ok()) return service;
    for (int w = 0; w < kWarmupRequests; ++w) {
      const auto warm = client.value()->Plan(shapes[(c * kWarmupRequests + w) % shapes.size()],
                                             dcp::MaskSpec::Causal());
      checks.Expect(warm.ok(), "warm-up serve: " + warm.status().ToString());
    }
    service->clients.push_back(std::move(client).value());
  }
  return service;
}

// The server's per-source serve histogram (sum, count) for the tenant, from one
// metrics scrape.
struct ServerTime {
  double sum_us = 0;
  double count = 0;
};

ServerTime ScrapeServerTime(dcp::PlanClient& client) {
  ServerTime total;
  const auto scraped = client.ServerMetrics("dcp_server_serve_latency_us");
  if (!scraped.ok()) return total;
  const std::string& text = scraped.value().text;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    const bool is_sum = line.rfind("dcp_server_serve_latency_us_sum", 0) == 0;
    const bool is_count = line.rfind("dcp_server_serve_latency_us_count", 0) == 0;
    if (!is_sum && !is_count) continue;
    if (line.find(std::string("tenant=\"") + kTenant + "\"") == std::string::npos) continue;
    const double value = std::stod(line.substr(line.rfind(' ') + 1));
    (is_sum ? total.sum_us : total.count) += value;
  }
  return total;
}

// What one generator thread saw.
struct ThreadTally {
  std::vector<double> late_ms, traced_ms, untraced_ms;
  int64_t attempted = 0, failed = 0;
  int64_t by_source[5] = {};
};

}  // namespace

RunResult RunWarm(const Options& opt, Report& report, Checks& checks,
                  SpanRecorder& spans) {
  RunResult run;
  const std::vector<std::vector<int64_t>> shapes = MakeShapes(opt.seed);
  // The seeded access order over the recurring shapes, served by every round.
  dcp::Rng rng(opt.seed ^ 0x77a2f00dull);
  const int64_t interval_ns = static_cast<int64_t>(1e9 / kRatePerS);
  const int64_t total =
      static_cast<int64_t>(opt.seconds) * 1000000000 / interval_ns / kRounds;
  std::vector<int> order(static_cast<size_t>(total));
  for (int& shape : order) shape = static_cast<int>(rng.NextBounded(kShapes));
  InputFingerprint fingerprint;
  for (const std::vector<int64_t>& shape : shapes) fingerprint.Add(shape);
  fingerprint.Print();

  std::vector<int64_t> setup_ns;
  // A shape's cold plan time and a request's serve latency are each the best of their
  // kRounds rounds. A generator thread writes only its own requests' slots.
  std::vector<double> best_plan_ms(shapes.size(), std::numeric_limits<double>::infinity());
  std::vector<double> best_serve_ms(order.size(), std::numeric_limits<double>::infinity());
  std::vector<ThreadTally> tallies(kConnections);
  int64_t hits = 0, misses = 0, retries = 0, rpc_errors = 0;
  ServerTime server_time;
  std::unique_ptr<Service> service;
  for (int round = 0; round < kRounds; ++round) {
    const int64_t start = round == 0 ? opt.process_start_ns : NowNs();
    service.reset();
    service =
        SetUp(opt.out_dir + "/store-" + std::to_string(round), shapes, best_plan_ms, checks);
    setup_ns.push_back(NowNs() - start);
    if (service->clients.size() != kConnections) return run;

    const dcp::PlanCacheStats before = service->engine->cache_stats();
    const ServerTime server_before = ScrapeServerTime(*service->clients[0]);
    std::vector<std::thread> threads;
    const int64_t t0 = NowNs() + 1000000;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c, round] {
        dcp::PlanClient& client = *service->clients[static_cast<size_t>(c)];
        ThreadTally& tally = tallies[static_cast<size_t>(c)];
        int64_t prev_done = 0;
        for (int64_t j = c; j < total; j += kConnections) {
          const int64_t due = t0 + j * interval_ns;
          const int64_t wait = due - NowNs();
          if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
          const int64_t sent = NowNs();
          // Late only for the part not explained by the previous reply on this
          // connection: that part is the system's queueing, already in serve_ms.
          tally.late_ms.push_back(
              NsToMs(std::max<int64_t>(0, sent - std::max(due, prev_done))));
          const std::vector<int64_t>& seqlens = shapes[static_cast<size_t>(order[j])];
          const auto served = client.Plan(seqlens, dcp::MaskSpec::Causal());
          const int64_t done = NowNs();
          prev_done = done;
          ++tally.attempted;
          if (!served.ok()) {
            ++tally.failed;
            checks.Expect(false, "PlanClient::Plan: " + served.status().ToString());
            continue;
          }
          best_serve_ms[static_cast<size_t>(j)] =
              std::min(best_serve_ms[static_cast<size_t>(j)], NsToMs(done - due));
          const dcp::PlanServeSource source = client.last_source();
          ++tally.by_source[static_cast<int>(source)];
          const dcp::PlanHandle& handle = served.value();
          // In the traced run every other request gets a span and a decode replay; the
          // untraced half prices the overhead. The traced window runs to the end of the
          // tracing work, as the cold workloads' batch root does.
          const uint64_t request = static_cast<uint64_t>(round * total + j);
          if (opt.trace && j % 2 == 1) {
            spans.Add(Span{"serve", dcp::PlanServeSourceName(source), request, -1, sent, done});
            const std::string record =
                dcp::PlanStore::EncodeRecord(handle->signature, handle->plan);
            Timed(spans, "plan_store.decode", request, -1, [&] {
              const auto decoded = dcp::PlanStore::DecodeRecord(record);
              checks.Expect(decoded.ok(), "DecodeRecord: " + decoded.status().ToString());
              return 0;
            });
            tally.traced_ms.push_back(NsToMs(NowNs() - sent));
          } else {
            tally.untraced_ms.push_back(NsToMs(done - sent));
          }
          ExpectValid(checks, handle->plan, "client-decoded plan");
          checks.Expect(dcp::SerializePlanBinary(handle->plan) ==
                            service->reference[static_cast<size_t>(order[j])],
                        "served plan differs from the in-process plan of shape " +
                            std::to_string(order[j]));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    const dcp::PlanCacheStats after = service->engine->cache_stats();
    const ServerTime server_after = ScrapeServerTime(*service->clients[0]);
    hits += after.hits - before.hits;
    misses += after.misses - before.misses;
    server_time.sum_us += server_after.sum_us - server_before.sum_us;
    server_time.count += server_after.count - server_before.count;
    for (const auto& client : service->clients) {
      retries += client->stats().retries;
      rpc_errors += client->stats().rpc_errors;
    }
  }
  ReportSetup(report, setup_ns);
  std::vector<double> plan_ms;
  for (double ms : best_plan_ms) {
    if (ms != std::numeric_limits<double>::infinity()) plan_ms.push_back(ms);
  }
  ReportLatency(report, "plan_ms", plan_ms);

  ThreadTally all;
  for (const ThreadTally& t : tallies) {
    for (auto [dst, src] : {std::pair{&all.late_ms, &t.late_ms},
                            std::pair{&all.traced_ms, &t.traced_ms},
                            std::pair{&all.untraced_ms, &t.untraced_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    all.attempted += t.attempted;
    all.failed += t.failed;
    for (int s = 0; s < 5; ++s) all.by_source[s] += t.by_source[s];
  }
  run.attempted = all.attempted;
  run.failed_requests = all.failed;
  const double served = std::max<double>(1.0, static_cast<double>(all.attempted - all.failed));
  const auto share = [&](dcp::PlanServeSource source) {
    return static_cast<double>(all.by_source[static_cast<int>(source)]) / served;
  };
  checks.Expect(all.by_source[static_cast<int>(dcp::PlanServeSource::kPlanned)] == 0,
                "the measured region planned " +
                    std::to_string(all.by_source[static_cast<int>(
                        dcp::PlanServeSource::kPlanned)]) +
                    " requests");

  std::vector<double> serve_ms;
  for (double ms : best_serve_ms) {
    if (ms != std::numeric_limits<double>::infinity()) serve_ms.push_back(ms);
  }
  ReportLatency(report, "serve_ms", serve_ms);
  ReportLateness(report, all.late_ms, run);

  // Every recurring shape is priced after the last round; the plans come back from
  // the engine's tiers.
  const dcp::ClusterSpec& cluster = service->engine->cluster();
  const dcp::PlannerOptions& planner = service->engine->options().planner;
  Outcome outcome(cluster, opt.trace);
  std::unique_ptr<StageReplay> replay;
  if (opt.trace) {
    replay = std::make_unique<StageReplay>(cluster, planner, opt.out_dir + "/store-replay",
                                           spans, checks);
  }
  for (size_t i = 0; i < shapes.size(); ++i) {
    const auto plan = service->engine->Plan(shapes[i], dcp::MaskSpec::Causal());
    checks.Expect(plan.ok(), "outcome plan: " + plan.status().ToString());
    if (!plan.ok()) continue;
    outcome.Add(shapes[i], dcp::MaskSpec::Causal(), planner, plan.value()->plan);
    if (replay != nullptr && static_cast<int>(i) < kReplayShapes) {
      replay->Replay(shapes[i], dcp::MaskSpec::Causal(), plan.value()->signature,
                     plan.value()->plan, static_cast<uint64_t>(kRounds * total) + i);
    }
  }
  outcome.Emit(report);

  report.Set("engine.misses", static_cast<double>(misses), "count");
  report.Set("engine.hit_ratio",
             hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0, "ratio");
  report.Set("serve.share_memory", share(dcp::PlanServeSource::kMemoryCache), "ratio");
  report.Set("serve.share_store", share(dcp::PlanServeSource::kStoreCache), "ratio");
  report.Set("serve.share_planned", share(dcp::PlanServeSource::kPlanned), "ratio");
  report.Set("client.retries", static_cast<double>(retries), "count");
  report.Set("client.rpc_errors", static_cast<double>(rpc_errors), "count");

  if (replay != nullptr) {
    replay->Emit(report);
    const double server_count = server_time.count;
    const double server_us = server_time.sum_us;
    const double client_us = static_cast<double>(spans.TotalNs("serve")) * 1e-3;
    const double traced_share = all.traced_ms.size() > 0 && server_count > 0
                                    ? static_cast<double>(all.traced_ms.size()) / server_count
                                    : 0.0;
    report.Set("serve.memory_ms_p50",
               Percentile(spans.DurationsMs("serve", "memory-cache"), 50), "ms");
    report.Set("serve.store_ms_p50",
               Percentile(spans.DurationsMs("serve", "store-cache"), 50), "ms");
    report.Set("serve.server_ms_mean", server_count > 0 ? server_us / server_count * 1e-3 : 0,
               "ms");
    report.Set("plan_store.decode_ms_p50",
               Percentile(spans.DurationsMs("plan_store.decode"), 50), "ms");
    // The server side of each traced request is its one child: its time comes from
    // the server's own histogram, scaled to the traced half of the requests.
    report.Set("trace.unattributed_share",
               client_us > 0 ? 1.0 - server_us * traced_share / client_us : 0.0, "ratio");
    report.Set("trace.overhead_share",
               Mean(all.untraced_ms) > 0 ? Mean(all.traced_ms) / Mean(all.untraced_ms) - 1.0
                                         : 0.0,
               "ratio");
  }
  return run;
}

}  // namespace perfbench
