// Machine-readable planning-performance report. Times the hypergraph partitioner on
// clustered micro instances and the full planner across block sizes / masks / datasets,
// then emits BENCH_planning.json so successive PRs can track the planning-time
// trajectory without scraping table output.
//
// Usage:
//   bench_report [--smoke] [--json=PATH]
// --smoke shrinks every instance (and is what the `ctest -L bench_smoke` label runs);
// --json defaults to BENCH_planning.json in the current directory.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/plan_store.h"
#include "hypergraph/metrics.h"
#include "hypergraph/partitioner.h"
#include "service/fault_injection.h"
#include "service/plan_client.h"
#include "service/plan_server.h"
#include "service/replica_set.h"
#include "service/tenant_registry.h"
#include "service/transport.h"
#include "tests/plan_test_util.h"

namespace dcp {
namespace {

using plan_test::Timeless;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Hypergraph MakeClustered(int k, int per_group, uint64_t seed) {
  Rng rng(seed);
  Hypergraph hg;
  for (int v = 0; v < k * per_group; ++v) {
    hg.AddVertex(1.0 + rng.NextDouble(), 1.0 + rng.NextDouble());
  }
  for (int g = 0; g < k; ++g) {
    for (int e = 0; e < per_group * 2; ++e) {
      std::vector<VertexId> pins;
      const int size = 2 + static_cast<int>(rng.NextBounded(4));
      const bool cross = rng.NextDouble() < 0.15;
      for (int p = 0; p < size; ++p) {
        const int group = cross && p == 0 ? (g + 1) % k : g;
        pins.push_back(group * per_group + static_cast<int>(rng.NextBounded(
                                               static_cast<uint64_t>(per_group))));
      }
      std::sort(pins.begin(), pins.end());
      pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
      if (pins.size() >= 2) {
        hg.AddEdge(1.0 + rng.NextDouble() * 3.0, pins);
      }
    }
  }
  hg.Finalize();
  return hg;
}

struct PartitionerRow {
  int k = 0;
  int per_group = 0;
  int vertices = 0;
  int repeats = 0;
  double ms_mean = 0.0;
  double ms_min = 0.0;
  double connectivity = 0.0;
  bool balanced = false;
};

PartitionerRow MeasurePartitioner(int k, int per_group, int repeats) {
  Hypergraph hg = MakeClustered(k, per_group, 11);
  PartitionConfig config;
  config.k = k;
  config.eps = {0.25, 0.25};
  auto partitioner = MakeMultilevelPartitioner();
  RunningStats ms;
  PartitionResult result;
  for (int r = 0; r < repeats; ++r) {
    const double start = NowSeconds();
    result = partitioner->Run(hg, config);
    ms.Add((NowSeconds() - start) * 1e3);
  }
  PartitionerRow row;
  row.k = k;
  row.per_group = per_group;
  row.vertices = hg.num_vertices();
  row.repeats = repeats;
  row.ms_mean = ms.mean();
  row.ms_min = ms.min();
  row.connectivity = result.connectivity_cost;
  row.balanced = result.balanced;
  return row;
}

struct PlanningRow {
  std::string dataset;
  std::string mask;
  int64_t block_size = 0;
  int k = 0;  // Total context-parallel devices the plan targets.
  int batches = 0;
  double planning_ms_mean = 0.0;
  double planning_ms_max = 0.0;
};

PlanningRow MeasurePlanning(DatasetKind dataset, MaskKind mask, int64_t block_size,
                            int num_batches, int64_t token_budget,
                            const ClusterSpec& cluster) {
  MicroBenchConfig config;
  config.cluster = cluster;
  config.dataset = dataset;
  config.block_size = block_size;
  config.num_batches = num_batches;
  config.token_budget = token_budget;
  config.max_seq_len = token_budget;
  const PlannerOptions options = config.MakePlannerOptions();
  RunningStats planning_ms;
  for (const Batch& batch : config.MakeBatches()) {
    std::vector<SequenceMask> masks =
        BuildBatchMasks(MaskSpec::ForKind(mask), batch.seqlens);
    BatchPlan plan = PlanBatch(batch.seqlens, masks, config.cluster, options);
    planning_ms.Add(plan.stats.planning_seconds * 1e3);
  }
  PlanningRow row;
  row.dataset = DatasetKindName(dataset);
  row.mask = MaskKindName(mask);
  row.block_size = block_size;
  row.k = config.cluster.num_devices();
  row.batches = num_batches;
  row.planning_ms_mean = planning_ms.mean();
  row.planning_ms_max = planning_ms.max();
  return row;
}

// Production traffic replans recurring batch shapes; this row measures the Engine's
// compiled-plan cache on exactly that workload: one cold plan of a batch, then the same
// batch re-planned `repeats` times through the cache.
struct RepeatBatchRow {
  std::string dataset;
  std::string mask;
  int64_t block_size = 0;
  int k = 0;
  int repeats = 0;
  double cold_ms = 0.0;          // First sighting: full planning pipeline.
  double hit_ms_mean = 0.0;      // Cache-hit path: signature hash + LRU lookup.
  double hit_ms_max = 0.0;
  double hit_rate = 0.0;         // From Engine::cache_stats over the whole run.
  double speedup = 0.0;          // cold_ms / hit_ms_mean.
};

RepeatBatchRow MeasureRepeatBatch(DatasetKind dataset, MaskKind mask, int64_t block_size,
                                  int repeats, int64_t token_budget,
                                  const ClusterSpec& cluster) {
  MicroBenchConfig config;
  config.cluster = cluster;
  config.dataset = dataset;
  config.block_size = block_size;
  config.num_batches = 1;
  config.token_budget = token_budget;
  config.max_seq_len = token_budget;
  const Batch batch = config.MakeBatches().front();
  const MaskSpec spec = MaskSpec::ForKind(mask);

  EngineOptions engine_options;
  engine_options.planner = config.MakePlannerOptions();
  Engine engine(cluster, engine_options);

  RepeatBatchRow row;
  row.dataset = DatasetKindName(dataset);
  row.mask = MaskKindName(mask);
  row.block_size = block_size;
  row.k = cluster.num_devices();
  row.repeats = repeats;

  double start = NowSeconds();
  const PlanHandle cold = engine.Plan(batch.seqlens, spec).value();
  row.cold_ms = (NowSeconds() - start) * 1e3;

  RunningStats hit_ms;
  for (int r = 0; r < repeats; ++r) {
    start = NowSeconds();
    const PlanHandle hit = engine.Plan(batch.seqlens, spec).value();
    hit_ms.Add((NowSeconds() - start) * 1e3);
    if (hit.get() != cold.get()) {
      std::fprintf(stderr, "bench_report: repeat plan was not a cache hit\n");
      std::exit(1);
    }
  }
  row.hit_ms_mean = hit_ms.mean();
  row.hit_ms_max = hit_ms.max();
  row.hit_rate = engine.cache_stats().HitRate();
  row.speedup = row.hit_ms_mean > 0.0 ? row.cold_ms / row.hit_ms_mean : 0.0;
  return row;
}

// The instrumentation tax on the hottest path in the system: the same cache-hit loop
// as repeat_batch, timed once with latency recording disabled and once enabled
// (counters/gauges are always on — the toggle gates only the clock reads and histogram
// records, which is exactly what `metrics::SetRecordingEnabled` controls in prod).
// Gate: the enabled hit path must stay within 10% of the disabled one. Both sides use
// the min over interleaved rounds — scheduler noise inflates means and maxes, and a
// real regression (an added lock, a syscall-backed clock) moves the min too.
struct MetricsOverheadRow {
  std::string dataset;
  std::string mask;
  int64_t block_size = 0;
  int k = 0;
  int repeats = 0;                // Hit measurements per side.
  double disabled_hit_ms_min = 0.0;
  double enabled_hit_ms_min = 0.0;
  double overhead_ratio = 0.0;    // enabled / disabled.
};

MetricsOverheadRow MeasureMetricsOverhead(DatasetKind dataset, MaskKind mask,
                                          int64_t block_size, int repeats,
                                          int64_t token_budget,
                                          const ClusterSpec& cluster) {
  MicroBenchConfig config;
  config.cluster = cluster;
  config.dataset = dataset;
  config.block_size = block_size;
  config.num_batches = 1;
  config.token_budget = token_budget;
  config.max_seq_len = token_budget;
  const Batch batch = config.MakeBatches().front();
  const MaskSpec spec = MaskSpec::ForKind(mask);

  EngineOptions engine_options;
  engine_options.planner = config.MakePlannerOptions();
  Engine engine(cluster, engine_options);
  (void)engine.Plan(batch.seqlens, spec).value();  // Populate the cache.

  MetricsOverheadRow row;
  row.dataset = DatasetKindName(dataset);
  row.mask = MaskKindName(mask);
  row.block_size = block_size;
  row.k = cluster.num_devices();
  row.repeats = repeats;

  // Interleave disabled/enabled rounds so frequency scaling or a background spike
  // hits both sides, then compare mins.
  double disabled_min = 1e30;
  double enabled_min = 1e30;
  constexpr int kRounds = 4;
  const int per_round = repeats / kRounds > 0 ? repeats / kRounds : 1;
  for (int round = 0; round < kRounds; ++round) {
    for (const bool enabled : {false, true}) {
      metrics::SetRecordingEnabled(enabled);
      double& side_min = enabled ? enabled_min : disabled_min;
      for (int r = 0; r < per_round; ++r) {
        const double start = NowSeconds();
        const PlanHandle hit = engine.Plan(batch.seqlens, spec).value();
        const double ms = (NowSeconds() - start) * 1e3;
        if (ms < side_min) side_min = ms;
        (void)hit;
      }
    }
  }
  metrics::SetRecordingEnabled(true);

  row.disabled_hit_ms_min = disabled_min;
  row.enabled_hit_ms_min = enabled_min;
  row.overhead_ratio = disabled_min > 0.0 ? enabled_min / disabled_min : 0.0;
  // 2us of absolute slack: at sub-20us hit latencies, 10% is within timer jitter even
  // for the min-of-many, and a genuine regression (a lock or syscall on the hit path)
  // costs far more than 2us.
  if (enabled_min > disabled_min * 1.10 + 0.002) {
    std::fprintf(stderr,
                 "bench_report: metrics-enabled hit path %.4f ms exceeds 1.10x the "
                 "disabled path %.4f ms (+2us slack)\n",
                 enabled_min, disabled_min);
    std::exit(1);
  }
  return row;
}

// Measures cross-process warm start: one process plans cold and writes through to the
// plan store; a fresh Engine (fresh cache, same store path — a process restart in
// miniature) must then serve the same signature from disk, bit-identical, >= 10x faster
// than cold planning. Violations exit non-zero so `ctest -L bench_smoke` fails CI on
// store-hit latency or correctness regressions.
struct WarmStartRow {
  std::string dataset;
  std::string mask;
  int64_t block_size = 0;
  int k = 0;
  int repeats = 0;              // Fresh-Engine restarts measured.
  double cold_ms = 0.0;         // Cold planning (empty store) in the writer engine.
  double store_hit_ms_mean = 0.0;  // First Plan() on a fresh Engine over the store.
  double store_hit_ms_min = 0.0;
  double speedup = 0.0;         // cold_ms / store_hit_ms_mean.
};

WarmStartRow MeasureWarmStart(DatasetKind dataset, MaskKind mask, int64_t block_size,
                              int repeats, int64_t token_budget,
                              const ClusterSpec& cluster, const std::string& store_dir) {
  // Start from an empty store so cold_ms really is cold across repeated bench runs.
  std::filesystem::remove_all(store_dir);
  MicroBenchConfig config;
  config.cluster = cluster;
  config.dataset = dataset;
  config.block_size = block_size;
  config.num_batches = 1;
  config.token_budget = token_budget;
  config.max_seq_len = token_budget;
  const Batch batch = config.MakeBatches().front();
  const MaskSpec spec = MaskSpec::ForKind(mask);

  EngineOptions engine_options;
  engine_options.planner = config.MakePlannerOptions();
  engine_options.plan_store_path = store_dir;

  WarmStartRow row;
  row.dataset = DatasetKindName(dataset);
  row.mask = MaskKindName(mask);
  row.block_size = block_size;
  row.k = cluster.num_devices();
  row.repeats = repeats;

  BatchPlan cold_plan;
  {
    Engine writer(cluster, engine_options);
    const double start = NowSeconds();
    const PlanHandle cold = writer.Plan(batch.seqlens, spec).value();
    row.cold_ms = (NowSeconds() - start) * 1e3;
    cold_plan = cold->plan;
    if (writer.cache_stats().store_writes < 1) {
      std::fprintf(stderr, "bench_report: cold plan was not written to the store\n");
      std::exit(1);
    }
  }

  RunningStats hit_ms;
  for (int r = 0; r < repeats; ++r) {
    Engine fresh(cluster, engine_options);  // Construction excluded from the hit path.
    const double start = NowSeconds();
    const PlanHandle warm = fresh.Plan(batch.seqlens, spec).value();
    hit_ms.Add((NowSeconds() - start) * 1e3);
    if (fresh.cache_stats().store_hits != 1) {
      std::fprintf(stderr, "bench_report: warm start was not served from the store\n");
      std::exit(1);
    }
    if (warm->plan != cold_plan) {
      std::fprintf(stderr,
                   "bench_report: store-served plan differs from the cold plan\n");
      std::exit(1);
    }
  }
  row.store_hit_ms_mean = hit_ms.mean();
  row.store_hit_ms_min = hit_ms.min();
  row.speedup = row.store_hit_ms_mean > 0.0 ? row.cold_ms / row.store_hit_ms_mean : 0.0;
  // Gate on the min hit latency: scheduler noise on a loaded CI box inflates the mean,
  // but a genuine decode/IO regression moves the floor.
  const double floor_speedup =
      row.store_hit_ms_min > 0.0 ? row.cold_ms / row.store_hit_ms_min : 0.0;
  if (floor_speedup < 10.0) {
    std::fprintf(stderr,
                 "bench_report: warm-start speedup %.1fx is under the 10x regression "
                 "bar (cold %.2f ms, best store hit %.4f ms)\n",
                 floor_speedup, row.cold_ms, row.store_hit_ms_min);
    std::exit(1);
  }
  return row;
}

// The planning-service row: one loopback PlanServer, measuring the full remote tier
// ladder for a recurring batch shape — cold remote planning (RPC + full planner),
// server-cache hit (RPC + record encode/decode; what a fresh trainer rank pays when a
// sibling already planned the shape), and client-cache hit (no RPC at all) — next to
// the in-process cold baseline. Gates: every remote response bit-identical to
// in-process planning, served-from tiers as expected, two tenants with different
// EngineOptions produce distinct signatures for the same batch, and the min
// server-cache-hit latency >= 10x faster than cold remote planning.
struct ServiceRow {
  std::string dataset;
  std::string mask;
  int64_t block_size = 0;
  int k = 0;
  int repeats = 0;                  // Fresh-client server-hit measurements.
  double in_process_cold_ms = 0.0;  // Engine::Plan baseline, no service.
  double remote_cold_ms = 0.0;      // First remote plan: RPC + full planning.
  double server_hit_ms_mean = 0.0;  // Fresh client, warm server cache.
  double server_hit_ms_min = 0.0;
  double client_hit_ms_mean = 0.0;  // Warm client LRU: no RPC.
  double client_hit_ms_min = 0.0;
  double speedup = 0.0;             // remote_cold_ms / server_hit_ms_mean.
};

ServiceRow MeasureService(DatasetKind dataset, MaskKind mask, int64_t block_size,
                          int repeats, int64_t token_budget,
                          const ClusterSpec& cluster) {
  MicroBenchConfig config;
  config.cluster = cluster;
  config.dataset = dataset;
  config.block_size = block_size;
  config.num_batches = 1;
  config.token_budget = token_budget;
  config.max_seq_len = token_budget;
  const Batch batch = config.MakeBatches().front();
  const MaskSpec spec = MaskSpec::ForKind(mask);

  EngineOptions tenant_options;
  tenant_options.planner = config.MakePlannerOptions();
  // A second tenant with a different block size: same request, different plans — the
  // isolation gate below asserts their signatures never collide.
  EngineOptions alt_options = tenant_options;
  alt_options.planner.block_size = block_size * 2;

  auto registry = std::make_shared<TenantRegistry>();
  if (!registry->Register({"bench", cluster, tenant_options}).ok() ||
      !registry->Register({"bench-alt", cluster, alt_options}).ok()) {
    std::fprintf(stderr, "bench_report: cannot register service tenants\n");
    std::exit(1);
  }
  PlanServer server(registry, PlanServerOptions{});
  if (!server.Start(ServiceAddress::Tcp("127.0.0.1", 0)).ok()) {
    std::fprintf(stderr, "bench_report: cannot start loopback plan server\n");
    std::exit(1);
  }
  auto make_client = [&](const std::string& tenant) {
    PlanClientOptions client_options;
    client_options.tenant = tenant;
    StatusOr<std::unique_ptr<PlanClient>> client =
        PlanClient::Connect(server.bound_address(), client_options);
    if (!client.ok()) {
      std::fprintf(stderr, "bench_report: cannot connect plan client: %s\n",
                   client.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(client).value();
  };

  ServiceRow row;
  row.dataset = DatasetKindName(dataset);
  row.mask = MaskKindName(mask);
  row.block_size = block_size;
  row.k = cluster.num_devices();
  row.repeats = repeats;

  // In-process baseline on an identically-configured private engine.
  BatchPlan expected;
  {
    Engine local(cluster, tenant_options);
    const double start = NowSeconds();
    const PlanHandle cold = local.Plan(batch.seqlens, spec).value();
    row.in_process_cold_ms = (NowSeconds() - start) * 1e3;
    expected = Timeless(cold->plan);
  }

  // Cold remote planning: first sighting of the shape anywhere in the service.
  PlanSignature bench_signature;
  {
    std::unique_ptr<PlanClient> client = make_client("bench");
    const double start = NowSeconds();
    StatusOr<PlanHandle> cold = client->Plan(batch.seqlens, spec);
    row.remote_cold_ms = (NowSeconds() - start) * 1e3;
    if (!cold.ok() || client->last_source() != PlanServeSource::kPlanned) {
      std::fprintf(stderr, "bench_report: cold remote plan was not freshly planned\n");
      std::exit(1);
    }
    if (Timeless(cold.value()->plan) != expected) {
      std::fprintf(stderr,
                   "bench_report: remote plan differs from in-process planning\n");
      std::exit(1);
    }
    bench_signature = cold.value()->signature;
  }

  // Tenant isolation: the same request under different EngineOptions must produce a
  // distinct signature (and therefore can never be served from the other's cache).
  {
    std::unique_ptr<PlanClient> alt = make_client("bench-alt");
    const PlanHandle alt_plan = alt->Plan(batch.seqlens, spec).value();
    if (alt_plan->signature == bench_signature) {
      std::fprintf(stderr, "bench_report: tenant signatures collided\n");
      std::exit(1);
    }
  }

  // Server-cache hits: a fresh client per repeat (a new trainer rank joining), so the
  // client LRU is cold and the server's in-memory cache serves every request.
  RunningStats server_hit_ms;
  RunningStats client_hit_ms;
  for (int r = 0; r < repeats; ++r) {
    std::unique_ptr<PlanClient> fresh = make_client("bench");
    double start = NowSeconds();
    StatusOr<PlanHandle> hit = fresh->Plan(batch.seqlens, spec);
    server_hit_ms.Add((NowSeconds() - start) * 1e3);
    if (!hit.ok() || fresh->last_source() != PlanServeSource::kMemoryCache) {
      std::fprintf(stderr,
                   "bench_report: repeat was not served from the server cache\n");
      std::exit(1);
    }
    if (Timeless(hit.value()->plan) != expected) {
      std::fprintf(stderr, "bench_report: server-cache hit not bit-identical\n");
      std::exit(1);
    }
    // Client-cache hit on the same client: no RPC.
    start = NowSeconds();
    StatusOr<PlanHandle> local_hit = fresh->Plan(batch.seqlens, spec);
    client_hit_ms.Add((NowSeconds() - start) * 1e3);
    if (!local_hit.ok() || fresh->last_source() != PlanServeSource::kClientCache) {
      std::fprintf(stderr,
                   "bench_report: repeat was not served from the client cache\n");
      std::exit(1);
    }
  }
  row.server_hit_ms_mean = server_hit_ms.mean();
  row.server_hit_ms_min = server_hit_ms.min();
  row.client_hit_ms_mean = client_hit_ms.mean();
  row.client_hit_ms_min = client_hit_ms.min();
  row.speedup =
      row.server_hit_ms_mean > 0.0 ? row.remote_cold_ms / row.server_hit_ms_mean : 0.0;
  // Gate on the min hit latency, like warm_start: noise inflates the mean on a loaded
  // CI box, but a genuine RPC/encode regression moves the floor.
  const double floor_speedup =
      row.server_hit_ms_min > 0.0 ? row.remote_cold_ms / row.server_hit_ms_min : 0.0;
  if (floor_speedup < 10.0) {
    std::fprintf(stderr,
                 "bench_report: service speedup %.1fx is under the 10x regression bar "
                 "(remote cold %.2f ms, best server hit %.4f ms)\n",
                 floor_speedup, row.remote_cold_ms, row.server_hit_ms_min);
    std::exit(1);
  }
  server.Stop();
  return row;
}

double PercentileMs(std::vector<double> samples, double p) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const size_t rank = static_cast<size_t>(p * static_cast<double>(samples.size()));
  return samples[std::min(rank, samples.size() - 1)];
}

// The replicated-service row: a 3-replica loopback fleet with deterministic serve-side
// stragglers (every Nth serve per replica stalls), measured three ways — un-hedged,
// hedged, and with one replica killed mid-run. Gates (exit non-zero): every response in
// every pass bit-identical to in-process planning, zero lost requests after the kill
// (failover or local fallback serves them all), hedged p99 <= un-hedged p99 (small
// absolute slack for the case where a hedge itself lands on a straggler slot), and the
// hedge volume within the configured budget.
struct ReplicatedServiceRow {
  std::string dataset;
  std::string mask;
  int64_t block_size = 0;
  int k = 0;
  int replicas = 3;
  int requests = 0;                // Per pass.
  double unhedged_p50_ms = 0.0;
  double unhedged_p99_ms = 0.0;
  double hedged_p50_ms = 0.0;
  double hedged_p99_ms = 0.0;
  int64_t hedges_sent = 0;
  int64_t hedge_wins = 0;
  double hedge_volume = 0.0;       // hedges_sent / requests in the hedged pass.
  int64_t failovers_after_kill = 0;
  int64_t lost_requests = 0;       // Must be zero: every request served somewhere.
};

ReplicatedServiceRow MeasureReplicatedService(DatasetKind dataset, MaskKind mask,
                                              int64_t block_size, int requests,
                                              const ClusterSpec& cluster) {
  MicroBenchConfig config;
  config.cluster = cluster;
  config.dataset = dataset;
  config.block_size = block_size;
  EngineOptions tenant_options;
  tenant_options.planner = config.MakePlannerOptions();
  const MaskSpec spec = MaskSpec::ForKind(mask);

  ReplicatedServiceRow row;
  row.dataset = DatasetKindName(dataset);
  row.mask = MaskKindName(mask);
  row.block_size = block_size;
  row.k = cluster.num_devices();
  row.requests = requests;

  // Distinct recurring shapes; each routes to a stable rendezvous primary.
  std::vector<std::vector<int64_t>> shapes;
  for (int i = 0; i < requests; ++i) {
    shapes.push_back({6 * block_size + block_size * (i % 11) / 2 + 32 * i,
                      3 * block_size + 16 * (i % 7)});
  }
  Engine local(cluster, tenant_options);
  std::vector<BatchPlan> expected;
  for (const auto& shape : shapes) {
    expected.push_back(Timeless(local.Plan(shape, spec).value()->plan));
  }

  // The fleet: three replicas, one shared tenant config, one injector each (rates are
  // armed only after warmup, so op counters start each pass at a known phase).
  std::vector<std::shared_ptr<FaultInjector>> injectors;
  std::vector<std::unique_ptr<PlanServer>> servers;
  std::vector<ServiceAddress> addresses;
  for (int i = 0; i < 3; ++i) {
    injectors.push_back(
        std::make_shared<FaultInjector>(0xbe7c0000ULL + static_cast<uint64_t>(i)));
    auto registry = std::make_shared<TenantRegistry>();
    if (!registry->Register({"bench", cluster, tenant_options}).ok()) {
      std::fprintf(stderr, "bench_report: cannot register replicated tenant\n");
      std::exit(1);
    }
    PlanServerOptions server_options;
    server_options.fault_injector = injectors.back();
    servers.push_back(std::make_unique<PlanServer>(registry, server_options));
    if (!servers.back()->Start(ServiceAddress::Tcp("127.0.0.1", 0)).ok()) {
      std::fprintf(stderr, "bench_report: cannot start replica %d\n", i);
      std::exit(1);
    }
    addresses.push_back(servers.back()->bound_address());
  }

  // Warm every replica with every shape, so the measured passes isolate the serving
  // path (cache hit vs straggler stall vs failover) from cold planning.
  for (const auto& address : addresses) {
    PlanClientOptions warm_options;
    warm_options.tenant = "bench";
    warm_options.cache_capacity = 0;
    StatusOr<std::unique_ptr<PlanClient>> warm =
        PlanClient::Connect(address, warm_options);
    if (!warm.ok()) {
      std::fprintf(stderr, "bench_report: cannot warm replica: %s\n",
                   warm.status().ToString().c_str());
      std::exit(1);
    }
    for (const auto& shape : shapes) {
      if (!warm.value()->Plan(shape, spec).ok()) {
        std::fprintf(stderr, "bench_report: replica warmup plan failed\n");
        std::exit(1);
      }
    }
  }

  ReplicaSetOptions base;
  base.tenant = "bench";
  base.cache_capacity = 0;  // Every request crosses the wire.
  base.hedging = false;

  // Arm one deterministic straggler: every (requests/3)th serve on the replica that
  // rendezvous routing favors most stalls 25ms. Periodic injection (not probabilistic)
  // keeps the stall count stable run to run; the period is chosen so that (a) warmup —
  // `requests` serves per server — leaves the op counter exactly on a period boundary,
  // and (b) each measured pass crosses at least one boundary (the favored replica is
  // primary for >= requests/3 shapes by pigeonhole), so every pass sees >= 1 stall and
  // the p99 sample genuinely measures tail behavior.
  size_t straggler = 0;
  {
    const std::unique_ptr<ReplicaSet> probe = ReplicaSet::Create(addresses, base).value();
    std::vector<int> primaries(3, 0);
    for (const auto& shape : shapes) {
      ++primaries[probe->RouteOrder(shape, spec)[0]];
    }
    straggler = static_cast<size_t>(
        std::max_element(primaries.begin(), primaries.end()) - primaries.begin());
  }
  FaultRates straggle;
  straggle.every_n = requests / 3;
  straggle.periodic_action = FaultAction::kDelay;
  straggle.delay_ms = 25;
  injectors[straggler]->SetRates(FaultPoint::kServe, straggle);

  const auto run_pass = [&](ReplicaSet& set, const char* pass) {
    std::vector<double> ms;
    ms.reserve(shapes.size());
    for (size_t i = 0; i < shapes.size(); ++i) {
      const double start = NowSeconds();
      StatusOr<PlanHandle> plan = set.Plan(shapes[i], spec);
      ms.push_back((NowSeconds() - start) * 1e3);
      if (!plan.ok()) {
        std::fprintf(stderr, "bench_report: %s request %zu lost: %s\n", pass, i,
                     plan.status().ToString().c_str());
        std::exit(1);
      }
      if (Timeless(plan.value()->plan) != expected[i]) {
        std::fprintf(stderr,
                     "bench_report: %s request %zu not bit-identical to in-process "
                     "planning\n",
                     pass, i);
        std::exit(1);
      }
    }
    return ms;
  };

  {
    std::unique_ptr<ReplicaSet> unhedged = ReplicaSet::Create(addresses, base).value();
    const std::vector<double> ms = run_pass(*unhedged, "unhedged");
    row.unhedged_p50_ms = PercentileMs(ms, 0.50);
    row.unhedged_p99_ms = PercentileMs(ms, 0.99);
  }

  // Hedge delays floored above loopback serve jitter (a warm serve is ~1-3 ms), so
  // only genuine stalls hedge; the burst covers the requests that queue behind a
  // straggling attempt on the same replica connection.
  ReplicaSetOptions hedged_options = base;
  hedged_options.hedging = true;
  hedged_options.hedge_min_delay_ms = 10;
  hedged_options.hedge_max_delay_ms = 12;
  hedged_options.hedge_budget_fraction = 0.05;
  hedged_options.hedge_budget_burst = 2;
  {
    std::unique_ptr<ReplicaSet> hedged =
        ReplicaSet::Create(addresses, hedged_options).value();
    const std::vector<double> ms = run_pass(*hedged, "hedged");
    row.hedged_p50_ms = PercentileMs(ms, 0.50);
    row.hedged_p99_ms = PercentileMs(ms, 0.99);
    const ReplicaSetStats stats = hedged->stats();
    row.hedges_sent = stats.hedges_sent;
    row.hedge_wins = stats.hedge_wins;
    row.hedge_volume =
        stats.requests > 0
            ? static_cast<double>(stats.hedges_sent) / static_cast<double>(stats.requests)
            : 0.0;
    const double allowance =
        static_cast<double>(hedged_options.hedge_budget_burst) +
        hedged_options.hedge_budget_fraction * static_cast<double>(stats.requests);
    if (static_cast<double>(stats.hedges_sent) > allowance) {
      std::fprintf(stderr,
                   "bench_report: hedge volume %lld exceeds budget %.1f "
                   "(burst %d + %.0f%% of %lld requests)\n",
                   static_cast<long long>(stats.hedges_sent), allowance,
                   hedged_options.hedge_budget_burst,
                   hedged_options.hedge_budget_fraction * 100.0,
                   static_cast<long long>(stats.requests));
      std::exit(1);
    }
  }
  // 2ms slack: when a hedge itself lands on a straggler slot the request rides out the
  // full stall on both replicas, making the two p99s equal up to scheduler noise.
  if (row.hedged_p99_ms > row.unhedged_p99_ms + 2.0) {
    std::fprintf(stderr,
                 "bench_report: hedged p99 %.2f ms did not beat un-hedged p99 %.2f ms\n",
                 row.hedged_p99_ms, row.unhedged_p99_ms);
    std::exit(1);
  }

  // Kill one replica mid-run: the fleet (plus the local-fallback engine as a last
  // resort) must serve every request, bit-identical.
  ReplicaSetOptions survivor_options = hedged_options;
  survivor_options.local_fallback = true;
  survivor_options.fallback_cluster = cluster;
  survivor_options.fallback_options = tenant_options;
  {
    std::unique_ptr<ReplicaSet> survivor =
        ReplicaSet::Create(addresses, survivor_options).value();
    for (size_t i = 0; i < shapes.size() / 2; ++i) {
      if (!survivor->Plan(shapes[i], spec).ok()) {
        std::fprintf(stderr, "bench_report: pre-kill request %zu lost\n", i);
        std::exit(1);
      }
    }
    const size_t victim = survivor->RouteOrder(shapes[0], spec)[0];
    servers[victim]->Stop();  // Mid-run: live connections, warm caches, gone.
    (void)run_pass(*survivor, "post-kill");
    row.failovers_after_kill = survivor->stats().failovers;
    if (row.failovers_after_kill < 1) {
      std::fprintf(stderr,
                   "bench_report: killing a primary caused no failover (routing never "
                   "exercised the dead replica?)\n");
      std::exit(1);
    }
  }
  row.lost_requests = 0;  // Any loss exited above.
  for (auto& server : servers) {
    server->Stop();
  }
  return row;
}

// Threads in this process right now (/proc/self/status). The scaling gate compares
// this across connection counts: an event-driven server's thread count must not move.
int CountProcessThreads() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  int threads = -1;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "Threads: %d", &threads) == 1) {
      break;
    }
  }
  std::fclose(f);
  return threads;
}

// CountProcessThreads once it has settled: a thread can still be listed for a moment
// after join() returns, so poll until two consecutive reads agree (for at most 1 s).
int SettledProcessThreads() {
  const double deadline = NowSeconds() + 1.0;
  int previous = CountProcessThreads();
  while (NowSeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const int current = CountProcessThreads();
    if (current == previous) {
      return current;
    }
    previous = current;
  }
  return previous;
}

// The connection-scaling sweep: one loopback PlanServer with a fixed IO-thread pool,
// N in {1, 16, 64, 256} concurrent connections all replaying the same warm shape, a
// small fixed pool of closed-loop driver threads round-robining over them (so the
// sweep varies connection count, not offered concurrency). Gates (exit non-zero):
// every response bit-identical to in-process planning, server thread count identical
// at every N > 1 (the event loop multiplexes; no thread per connection), every warm
// serve zero-copy (record bytes written straight from the shared cache), and p99 at
// the largest N within 2x of the single-connection p99 (plus a 2 ms grace for loaded
// CI boxes).
struct ServiceScalingRow {
  std::string dataset;
  std::string mask;
  int64_t block_size = 0;
  int k = 0;
  int connections = 0;
  int drivers = 0;      // Closed-loop requester threads (fixed; != connections).
  int requests = 0;     // Total RPCs in this row.
  int io_threads = 0;
  int process_threads = 0;  // Threads while all N connections are open.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double rps = 0.0;
};

std::vector<ServiceScalingRow> MeasureServiceScaling(DatasetKind dataset, MaskKind mask,
                                                     int64_t block_size,
                                                     int64_t token_budget,
                                                     const ClusterSpec& cluster,
                                                     const std::vector<int>& sweep,
                                                     int requests_per_conn) {
  MicroBenchConfig config;
  config.cluster = cluster;
  config.dataset = dataset;
  config.block_size = block_size;
  config.num_batches = 1;
  config.token_budget = token_budget;
  config.max_seq_len = token_budget;
  const Batch batch = config.MakeBatches().front();
  const MaskSpec spec = MaskSpec::ForKind(mask);
  EngineOptions tenant_options;
  tenant_options.planner = config.MakePlannerOptions();

  auto registry = std::make_shared<TenantRegistry>();
  if (!registry->Register({"bench", cluster, tenant_options}).ok()) {
    std::fprintf(stderr, "bench_report: cannot register scaling tenant\n");
    std::exit(1);
  }
  const int drivers = static_cast<int>(
      std::min<unsigned>(8, std::max<unsigned>(2, std::thread::hardware_concurrency())));
  PlanServerOptions server_options;
  server_options.workers = drivers;  // A full driver pool never queues on workers.
  PlanServer server(registry, server_options);
  if (!server.Start(ServiceAddress::Tcp("127.0.0.1", 0)).ok()) {
    std::fprintf(stderr, "bench_report: cannot start scaling plan server\n");
    std::exit(1);
  }

  PlanServiceRequest request;
  request.tenant = "bench";
  request.seqlens = batch.seqlens;
  request.mask_spec = spec;
  request.block_size = block_size;
  const std::string payload = SerializePlanServiceRequest(request);

  // In-process baseline plan, then one warmup RPC: validates the served record decodes
  // to the identical plan and pins the exact record bytes every later response must
  // match (the record encode is deterministic per signature).
  std::string expected_record;
  {
    Engine local(cluster, tenant_options);
    const BatchPlan expected = Timeless(local.Plan(batch.seqlens, spec).value()->plan);
    StatusOr<Socket> warm = ConnectSocket(server.bound_address(), /*timeout_ms=*/2000);
    if (!warm.ok() ||
        !WriteFrame(warm.value(), FrameType::kPlanRequest, payload).ok()) {
      std::fprintf(stderr, "bench_report: scaling warmup RPC failed\n");
      std::exit(1);
    }
    StatusOr<Frame> reply = ReadFrame(warm.value(), kMaxFramePayloadBytes);
    if (!reply.ok()) {
      std::fprintf(stderr, "bench_report: scaling warmup read failed\n");
      std::exit(1);
    }
    StatusOr<PlanServiceResponse> response =
        DeserializePlanServiceResponse(reply.value().payload);
    if (!response.ok() || response.value().code != StatusCode::kOk) {
      std::fprintf(stderr, "bench_report: scaling warmup response not OK\n");
      std::exit(1);
    }
    StatusOr<std::pair<PlanSignature, BatchPlan>> decoded =
        PlanStore::DecodeRecord(response.value().record);
    if (!decoded.ok() || Timeless(decoded.value().second) != expected) {
      std::fprintf(stderr,
                   "bench_report: scaling warmup record not bit-identical to "
                   "in-process planning\n");
      std::exit(1);
    }
    expected_record = response.value().record;
  }

  const auto measure = [&](int connections) -> ServiceScalingRow {
    ServiceScalingRow row;
    row.dataset = DatasetKindName(dataset);
    row.mask = MaskKindName(mask);
    row.block_size = block_size;
    row.k = cluster.num_devices();
    row.connections = connections;
    row.drivers = connections == 1 ? 1 : std::min(drivers, connections);
    row.io_threads = server.io_thread_count();
    // Keep every row's sample count meaningful: at least ~256 samples even at N=1,
    // so the p99 is a real tail statistic and not the max of a handful of RPCs.
    const int per_conn = std::max(requests_per_conn, 256 / connections);
    row.requests = per_conn * connections;

    std::vector<Socket> sockets;
    sockets.reserve(static_cast<size_t>(connections));
    for (int c = 0; c < connections; ++c) {
      StatusOr<Socket> socket =
          ConnectSocket(server.bound_address(), /*timeout_ms=*/2000);
      if (!socket.ok()) {
        std::fprintf(stderr, "bench_report: scaling connect %d/%d failed: %s\n", c,
                     connections, socket.status().ToString().c_str());
        std::exit(1);
      }
      socket.value().set_io_timeout_ms(10000);
      sockets.push_back(std::move(socket).value());
    }

    // Each driver owns a disjoint slice of the sockets (frames on one connection must
    // not interleave) and runs them closed-loop: one request in flight per connection.
    std::vector<std::vector<double>> samples(static_cast<size_t>(row.drivers));
    std::atomic<bool> failed{false};
    const double sweep_start = NowSeconds();
    std::vector<std::thread> threads;
    for (int d = 0; d < row.drivers; ++d) {
      threads.emplace_back([&, d] {
        std::vector<double>& mine = samples[static_cast<size_t>(d)];
        for (int r = 0; r < per_conn && !failed.load(); ++r) {
          for (int c = d; c < connections; c += row.drivers) {
            Socket& socket = sockets[static_cast<size_t>(c)];
            const double start = NowSeconds();
            if (!WriteFrame(socket, FrameType::kPlanRequest, payload).ok()) {
              failed.store(true);
              return;
            }
            StatusOr<Frame> reply = ReadFrame(socket, kMaxFramePayloadBytes);
            if (!reply.ok()) {
              failed.store(true);
              return;
            }
            mine.push_back((NowSeconds() - start) * 1e3);
            StatusOr<PlanServiceResponse> response =
                DeserializePlanServiceResponse(reply.value().payload);
            if (!response.ok() || response.value().code != StatusCode::kOk ||
                response.value().record != expected_record) {
              failed.store(true);
              return;
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    if (failed.load()) {
      std::fprintf(stderr,
                   "bench_report: scaling RPC failed or response diverged at %d "
                   "connections\n",
                   connections);
      std::exit(1);
    }
    const double elapsed = NowSeconds() - sweep_start;
    // All N sockets are still open here: a thread-per-connection server would show
    // N reader threads in this count.
    row.process_threads = SettledProcessThreads();
    std::vector<double> all;
    for (const std::vector<double>& part : samples) {
      all.insert(all.end(), part.begin(), part.end());
    }
    row.p50_ms = PercentileMs(all, 0.50);
    row.p99_ms = PercentileMs(all, 0.99);
    row.rps = elapsed > 0.0 ? static_cast<double>(row.requests) / elapsed : 0.0;
    return row;
  };

  std::vector<ServiceScalingRow> rows;
  for (const int connections : sweep) {
    rows.push_back(measure(connections));
  }

  // Gate: bounded threads — identical process thread count at every multi-connection
  // N (the driver pool is fixed, so any growth is server-side threads per connection).
  for (size_t i = 2; i < rows.size(); ++i) {
    if (rows[i].process_threads != rows[1].process_threads) {
      std::fprintf(stderr,
                   "bench_report: server thread count scaled with connections "
                   "(%d threads at N=%d vs %d at N=%d)\n",
                   rows[1].process_threads, rows[1].connections,
                   rows[i].process_threads, rows[i].connections);
      std::exit(1);
    }
  }
  // Gate: flat tail — p99 at the largest N within 2x of single-connection p99, with a
  // 2 ms absolute grace: on a small CI box the driver pool itself contends with the
  // server for cores, which inflates sub-millisecond percentiles by scheduler quanta
  // that have nothing to do with connection scaling. For the same reason a single
  // scheduler stall can spike one pass's p99, so a failing widest row is re-measured
  // (best of 3): genuine connection-scaling pathology reproduces on every pass, a
  // co-tenant CPU burst does not.
  const ServiceScalingRow& base = rows.front();
  const auto p99_exceeds_envelope = [&](const ServiceScalingRow& row) {
    return row.p99_ms > 2.0 * base.p99_ms && row.p99_ms > base.p99_ms + 2.0;
  };
  for (int retry = 0; retry < 2 && p99_exceeds_envelope(rows.back()); ++retry) {
    std::fprintf(stderr,
                 "bench_report: p99 %.3f ms at N=%d outside envelope, re-measuring "
                 "(retry %d)\n",
                 rows.back().p99_ms, rows.back().connections, retry + 1);
    ServiceScalingRow again = measure(rows.back().connections);
    // The thread-equality gate above already ran: only adopt a retry that would
    // still have passed it.
    if (again.p99_ms < rows.back().p99_ms &&
        (rows.size() < 3 || again.process_threads == rows[1].process_threads)) {
      rows.back() = again;
    }
  }
  const ServiceScalingRow& widest = rows.back();
  if (p99_exceeds_envelope(widest)) {
    std::fprintf(stderr,
                 "bench_report: p99 scaled with connections (%.3f ms at N=%d vs "
                 "%.3f ms at N=%d)\n",
                 base.p99_ms, base.connections, widest.p99_ms, widest.connections);
    std::exit(1);
  }
  // Gate: zero-copy serving — every warm hit above framed the shared cached record
  // without copying it (warmup + all sweep requests).
  int64_t total_requests = 1;
  for (const ServiceScalingRow& row : rows) {
    total_requests += row.requests;
  }
  const PlanServerStats stats = server.stats();
  if (stats.zero_copy_serves < total_requests) {
    std::fprintf(stderr,
                 "bench_report: only %lld of %lld serves were zero-copy\n",
                 static_cast<long long>(stats.zero_copy_serves),
                 static_cast<long long>(total_requests));
    std::exit(1);
  }
  server.Stop();
  return rows;
}

void WriteJson(const std::string& path, bool smoke,
               const std::vector<PartitionerRow>& partitioner,
               const std::vector<PlanningRow>& planning,
               const std::vector<RepeatBatchRow>& repeat_batch,
               const std::vector<MetricsOverheadRow>& metrics_overhead,
               const std::vector<WarmStartRow>& warm_start,
               const std::vector<ServiceRow>& service,
               const std::vector<ServiceScalingRow>& scaling,
               const std::vector<ReplicatedServiceRow>& replicated) {
  // Write to a temp file and rename into place so an interrupted run can never leave a
  // truncated JSON under the real name (cross-PR perf diffs parse these files).
  const std::string temp = path + ".tmp";
  FILE* f = std::fopen(temp.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_report: cannot open %s for writing\n", temp.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"schema\": \"dcp.bench_planning.v8\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"partitioner\": [\n");
  for (size_t i = 0; i < partitioner.size(); ++i) {
    const PartitionerRow& r = partitioner[i];
    std::fprintf(f,
                 "    {\"k\": %d, \"per_group\": %d, \"vertices\": %d, \"repeats\": %d, "
                 "\"ms_mean\": %.4f, \"ms_min\": %.4f, \"connectivity\": %.4f, "
                 "\"balanced\": %s}%s\n",
                 r.k, r.per_group, r.vertices, r.repeats, r.ms_mean, r.ms_min,
                 r.connectivity, r.balanced ? "true" : "false",
                 i + 1 < partitioner.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"planning\": [\n");
  for (size_t i = 0; i < planning.size(); ++i) {
    const PlanningRow& r = planning[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"mask\": \"%s\", \"block_size\": %lld, "
                 "\"k\": %d, \"batches\": %d, \"planning_ms_mean\": %.4f, "
                 "\"planning_ms_max\": %.4f}%s\n",
                 r.dataset.c_str(), r.mask.c_str(),
                 static_cast<long long>(r.block_size), r.k, r.batches, r.planning_ms_mean,
                 r.planning_ms_max, i + 1 < planning.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"repeat_batch\": [\n");
  for (size_t i = 0; i < repeat_batch.size(); ++i) {
    const RepeatBatchRow& r = repeat_batch[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"mask\": \"%s\", \"block_size\": %lld, "
                 "\"k\": %d, \"repeats\": %d, \"cold_ms\": %.4f, \"hit_ms_mean\": %.6f, "
                 "\"hit_ms_max\": %.6f, \"hit_rate\": %.4f, \"speedup\": %.1f}%s\n",
                 r.dataset.c_str(), r.mask.c_str(),
                 static_cast<long long>(r.block_size), r.k, r.repeats, r.cold_ms,
                 r.hit_ms_mean, r.hit_ms_max, r.hit_rate, r.speedup,
                 i + 1 < repeat_batch.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"metrics_overhead\": [\n");
  for (size_t i = 0; i < metrics_overhead.size(); ++i) {
    const MetricsOverheadRow& r = metrics_overhead[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"mask\": \"%s\", \"block_size\": %lld, "
                 "\"k\": %d, \"repeats\": %d, \"disabled_hit_ms_min\": %.6f, "
                 "\"enabled_hit_ms_min\": %.6f, \"overhead_ratio\": %.4f}%s\n",
                 r.dataset.c_str(), r.mask.c_str(),
                 static_cast<long long>(r.block_size), r.k, r.repeats,
                 r.disabled_hit_ms_min, r.enabled_hit_ms_min, r.overhead_ratio,
                 i + 1 < metrics_overhead.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"warm_start\": [\n");
  for (size_t i = 0; i < warm_start.size(); ++i) {
    const WarmStartRow& r = warm_start[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"mask\": \"%s\", \"block_size\": %lld, "
                 "\"k\": %d, \"repeats\": %d, \"cold_ms\": %.4f, "
                 "\"store_hit_ms_mean\": %.6f, \"store_hit_ms_min\": %.6f, "
                 "\"speedup\": %.1f}%s\n",
                 r.dataset.c_str(), r.mask.c_str(),
                 static_cast<long long>(r.block_size), r.k, r.repeats, r.cold_ms,
                 r.store_hit_ms_mean, r.store_hit_ms_min, r.speedup,
                 i + 1 < warm_start.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"service\": [\n");
  for (size_t i = 0; i < service.size(); ++i) {
    const ServiceRow& r = service[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"mask\": \"%s\", \"block_size\": %lld, "
                 "\"k\": %d, \"repeats\": %d, \"in_process_cold_ms\": %.4f, "
                 "\"remote_cold_ms\": %.4f, \"server_hit_ms_mean\": %.6f, "
                 "\"server_hit_ms_min\": %.6f, \"client_hit_ms_mean\": %.6f, "
                 "\"client_hit_ms_min\": %.6f, \"speedup\": %.1f}%s\n",
                 r.dataset.c_str(), r.mask.c_str(),
                 static_cast<long long>(r.block_size), r.k, r.repeats,
                 r.in_process_cold_ms, r.remote_cold_ms, r.server_hit_ms_mean,
                 r.server_hit_ms_min, r.client_hit_ms_mean, r.client_hit_ms_min,
                 r.speedup, i + 1 < service.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"service_scaling\": [\n");
  for (size_t i = 0; i < scaling.size(); ++i) {
    const ServiceScalingRow& r = scaling[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"mask\": \"%s\", \"block_size\": %lld, "
                 "\"k\": %d, \"connections\": %d, \"drivers\": %d, \"requests\": %d, "
                 "\"io_threads\": %d, \"process_threads\": %d, \"p50_ms\": %.4f, "
                 "\"p99_ms\": %.4f, \"rps\": %.0f}%s\n",
                 r.dataset.c_str(), r.mask.c_str(),
                 static_cast<long long>(r.block_size), r.k, r.connections, r.drivers,
                 r.requests, r.io_threads, r.process_threads, r.p50_ms, r.p99_ms,
                 r.rps, i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"service_replicated\": [\n");
  for (size_t i = 0; i < replicated.size(); ++i) {
    const ReplicatedServiceRow& r = replicated[i];
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"mask\": \"%s\", \"block_size\": %lld, "
                 "\"k\": %d, \"replicas\": %d, \"requests\": %d, "
                 "\"unhedged_p50_ms\": %.4f, \"unhedged_p99_ms\": %.4f, "
                 "\"hedged_p50_ms\": %.4f, \"hedged_p99_ms\": %.4f, "
                 "\"hedges_sent\": %lld, \"hedge_wins\": %lld, "
                 "\"hedge_volume\": %.4f, \"failovers_after_kill\": %lld, "
                 "\"lost_requests\": %lld}%s\n",
                 r.dataset.c_str(), r.mask.c_str(),
                 static_cast<long long>(r.block_size), r.k, r.replicas, r.requests,
                 r.unhedged_p50_ms, r.unhedged_p99_ms, r.hedged_p50_ms, r.hedged_p99_ms,
                 static_cast<long long>(r.hedges_sent),
                 static_cast<long long>(r.hedge_wins), r.hedge_volume,
                 static_cast<long long>(r.failovers_after_kill),
                 static_cast<long long>(r.lost_requests),
                 i + 1 < replicated.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "bench_report: cannot finish writing %s\n", temp.c_str());
    std::exit(1);
  }
  if (std::rename(temp.c_str(), path.c_str()) != 0) {
    std::fprintf(stderr, "bench_report: cannot rename %s to %s\n", temp.c_str(),
                 path.c_str());
    std::exit(1);
  }
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_planning.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: bench_report [--smoke] [--json=PATH]\n");
      return 2;
    }
  }

  std::vector<PartitionerRow> partitioner;
  if (smoke) {
    partitioner.push_back(MeasurePartitioner(4, 16, 2));
    partitioner.push_back(MeasurePartitioner(8, 32, 1));
    partitioner.push_back(MeasurePartitioner(64, 8, 1));  // Tiny large-k config.
  } else {
    partitioner.push_back(MeasurePartitioner(4, 64, 5));
    partitioner.push_back(MeasurePartitioner(8, 128, 3));
    partitioner.push_back(MeasurePartitioner(16, 256, 2));
    // Large-k rows: same vertex count, scaling only the device count, so successive
    // PRs can diff how planning time scales with k.
    partitioner.push_back(MeasurePartitioner(64, 64, 2));
    partitioner.push_back(MeasurePartitioner(128, 32, 2));
    partitioner.push_back(MeasurePartitioner(256, 16, 2));
  }

  std::vector<PlanningRow> planning;
  const int batches = smoke ? 1 : 4;
  const int64_t budget = smoke ? 16384 : 131072;
  const std::vector<int64_t> block_sizes =
      smoke ? std::vector<int64_t>{2048} : std::vector<int64_t>{512, 1024, 2048, 4096};
  const ClusterSpec testbed = ClusterSpec::EndToEndTestbed();
  for (DatasetKind dataset :
       {DatasetKind::kLongAlign, DatasetKind::kLongDataCollections}) {
    for (int64_t block_size : block_sizes) {
      for (MaskKind mask : AllMaskKinds()) {
        planning.push_back(
            MeasurePlanning(dataset, mask, block_size, batches, budget, testbed));
      }
    }
  }
  // End-to-end planning at production device counts: the paper's testbed topology scaled
  // to 128 CP ranks. One row per dataset keeps the full run affordable.
  ClusterSpec large = testbed;
  large.num_nodes = 16;
  large.devices_per_node = 8;
  for (DatasetKind dataset :
       {DatasetKind::kLongAlign, DatasetKind::kLongDataCollections}) {
    planning.push_back(MeasurePlanning(dataset, MaskKind::kCausal, 2048, batches,
                                       smoke ? budget : budget / 2, large));
  }

  // Repeat-batch workload: the cache hit-path latency next to the cold planning time.
  std::vector<RepeatBatchRow> repeat_batch;
  const int repeats = smoke ? 8 : 32;
  repeat_batch.push_back(MeasureRepeatBatch(DatasetKind::kLongAlign, MaskKind::kCausal,
                                            2048, repeats, budget, testbed));
  if (!smoke) {
    repeat_batch.push_back(MeasureRepeatBatch(DatasetKind::kLongDataCollections,
                                              MaskKind::kLambda, 1024, repeats, budget,
                                              testbed));
  }
  for (const RepeatBatchRow& r : repeat_batch) {
    std::printf("repeat-batch %s/%s block %lld: cold %.2f ms, hit %.4f ms (%.0fx), "
                "hit rate %.2f\n",
                r.dataset.c_str(), r.mask.c_str(), static_cast<long long>(r.block_size),
                r.cold_ms, r.hit_ms_mean, r.speedup, r.hit_rate);
  }

  // Instrumentation tax on the cache-hit path: enabled-vs-disabled latency recording
  // on the same engine, gated at 1.10x inside the measure function.
  std::vector<MetricsOverheadRow> metrics_overhead;
  metrics_overhead.push_back(MeasureMetricsOverhead(
      DatasetKind::kLongAlign, MaskKind::kCausal, 2048, smoke ? 64 : 256, budget,
      testbed));
  for (const MetricsOverheadRow& r : metrics_overhead) {
    std::printf("metrics-overhead %s/%s block %lld: hit min %.4f ms disabled, %.4f ms "
                "enabled (%.2fx)\n",
                r.dataset.c_str(), r.mask.c_str(), static_cast<long long>(r.block_size),
                r.disabled_hit_ms_min, r.enabled_hit_ms_min, r.overhead_ratio);
  }

  // Cross-process warm start through the persistent plan store. Small block sizes make
  // the cold plan genuinely expensive, so the row exercises the case persistence is for.
  std::vector<WarmStartRow> warm_start;
  const std::string store_dir = json_path + ".plan_store";
  const int warm_repeats = smoke ? 5 : 8;
  // Smoke shrinks the token budget, so drop the block size with it to keep the cold
  // plan expensive enough (64 chunks) that the row measures planning, not disk latency.
  warm_start.push_back(MeasureWarmStart(DatasetKind::kLongAlign, MaskKind::kCausal,
                                        smoke ? 256 : 512, warm_repeats, budget, testbed,
                                        store_dir));
  if (!smoke) {
    // Causal on both datasets: warm start pays off where planning is expensive. Sparse
    // masks (lambda) plan so cheaply that the disk hit is near break-even — that case
    // is served by the in-memory repeat_batch path, not the store.
    warm_start.push_back(MeasureWarmStart(DatasetKind::kLongDataCollections,
                                          MaskKind::kCausal, 512, warm_repeats, budget,
                                          testbed, store_dir));
  }
  for (const WarmStartRow& r : warm_start) {
    std::printf("warm-start %s/%s block %lld: cold %.2f ms, store hit %.4f ms (%.0fx) "
                "across %d fresh engines\n",
                r.dataset.c_str(), r.mask.c_str(), static_cast<long long>(r.block_size),
                r.cold_ms, r.store_hit_ms_mean, r.speedup, r.repeats);
  }

  // Remote planning over the loopback service: the same recurring-shape workload as
  // repeat_batch/warm_start, measured through the full RPC path.
  std::vector<ServiceRow> service;
  const int service_repeats = smoke ? 5 : 8;
  // Smoke drops the block size further than warm_start: the service hit path pays RPC
  // + record decode, so the cold plan must be decisively expensive for the row to
  // measure planning displacement rather than loopback latency.
  service.push_back(MeasureService(DatasetKind::kLongAlign, MaskKind::kCausal,
                                   smoke ? 128 : 512, service_repeats, budget,
                                   testbed));
  if (!smoke) {
    service.push_back(MeasureService(DatasetKind::kLongDataCollections,
                                     MaskKind::kCausal, 512, service_repeats, budget,
                                     testbed));
  }
  for (const ServiceRow& r : service) {
    std::printf("service %s/%s block %lld: in-process cold %.2f ms, remote cold "
                "%.2f ms, server hit %.4f ms (%.0fx), client hit %.4f ms\n",
                r.dataset.c_str(), r.mask.c_str(), static_cast<long long>(r.block_size),
                r.in_process_cold_ms, r.remote_cold_ms, r.server_hit_ms_mean, r.speedup,
                r.client_hit_ms_mean);
  }

  // Connection scaling through the event-driven server: the same warm shape over
  // N in {1, 16, 64, 256} concurrent connections with a fixed driver pool.
  const std::vector<ServiceScalingRow> scaling = MeasureServiceScaling(
      DatasetKind::kLongAlign, MaskKind::kCausal, smoke ? 128 : 512, budget, testbed,
      {1, 16, 64, 256}, smoke ? 4 : 8);
  for (const ServiceScalingRow& r : scaling) {
    std::printf("service-scaling %s/%s block %lld: %d conns (%d drivers, %d reqs): "
                "p50 %.3f ms, p99 %.3f ms, %.0f rps, %d process threads\n",
                r.dataset.c_str(), r.mask.c_str(), static_cast<long long>(r.block_size),
                r.connections, r.drivers, r.requests, r.p50_ms, r.p99_ms, r.rps,
                r.process_threads);
  }

  // The replicated fleet under deterministic stragglers and a mid-run replica kill.
  // Request counts are multiples of 3 (see the straggler-period invariant inside).
  std::vector<ReplicatedServiceRow> replicated;
  replicated.push_back(MeasureReplicatedService(DatasetKind::kLongAlign,
                                                MaskKind::kCausal, smoke ? 128 : 256,
                                                smoke ? 48 : 96, testbed));
  for (const ReplicatedServiceRow& r : replicated) {
    std::printf(
        "replicated %s/%s block %lld: %d replicas, %d requests/pass, un-hedged p99 "
        "%.2f ms -> hedged p99 %.2f ms (%lld hedges, %lld wins, %.1f%% extra volume), "
        "%lld failovers after kill, %lld lost\n",
        r.dataset.c_str(), r.mask.c_str(), static_cast<long long>(r.block_size),
        r.replicas, r.requests, r.unhedged_p99_ms, r.hedged_p99_ms,
        static_cast<long long>(r.hedges_sent), static_cast<long long>(r.hedge_wins),
        r.hedge_volume * 100.0, static_cast<long long>(r.failovers_after_kill),
        static_cast<long long>(r.lost_requests));
  }

  WriteJson(json_path, smoke, partitioner, planning, repeat_batch, metrics_overhead,
            warm_start, service, scaling, replicated);
  std::printf(
      "bench_report: wrote %s (%zu partitioner rows, %zu planning rows, %zu repeat "
      "rows, %zu metrics-overhead rows, %zu warm-start rows, %zu service rows, "
      "%zu scaling rows, %zu replicated rows)\n",
      json_path.c_str(), partitioner.size(), planning.size(), repeat_batch.size(),
      metrics_overhead.size(), warm_start.size(), service.size(), scaling.size(),
      replicated.size());
  return 0;
}

}  // namespace
}  // namespace dcp

int main(int argc, char** argv) { return dcp::Main(argc, argv); }
