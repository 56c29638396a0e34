// End-to-end tests for dcp::PlanService: a real PlanServer on a loopback TCP socket,
// real PlanClients, and the acceptance bar from the subsystem's introduction —
// responses bit-identical to in-process Engine::Plan (asserted with plan ==),
// tenants never observing each other's plans, malformed frames never killing the
// server, and overload rejected with UNAVAILABLE instead of queued without bound.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/dataloader.h"
#include "core/engine.h"
#include "masks/mask.h"
#include "service/fault_injection.h"
#include "service/frame.h"
#include "service/plan_client.h"
#include "service/plan_server.h"
#include "service/tenant_registry.h"
#include "service/transport.h"
#include "tests/plan_test_util.h"

namespace dcp {
namespace {

ClusterSpec SmallCluster(int nodes, int devices) {
  ClusterSpec cluster;
  cluster.num_nodes = nodes;
  cluster.devices_per_node = devices;
  return cluster;
}

EngineOptions SmallEngineOptions(int64_t block_size, uint64_t seed = 7) {
  EngineOptions options;
  options.planner.block_size = block_size;
  options.planner.num_groups = 2;
  options.planner.heads_per_group = 2;
  options.planner.head_dim = 8;
  options.planner.divisions = 3;
  options.planner.seed = seed;
  return options;
}

using plan_test::Timeless;

// The sum of every `family` sample in a Prometheus text scrape whose labels contain
// `label` (e.g. tenant="prod"), or -1 when there is none: per-shard engine series sum
// over the tenant's shards.
int64_t Scraped(const std::string& text, const std::string& family,
                const std::string& label = "") {
  int64_t sum = -1;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    const size_t space = line.rfind(' ');
    if (line.compare(0, family.size(), family) == 0 && space >= family.size() &&
        (line[family.size()] == ' ' || line[family.size()] == '{') &&
        line.substr(0, space).find(label) != std::string::npos) {
      sum = std::max<int64_t>(sum, 0) + std::stoll(line.substr(space + 1));
    }
  }
  return sum;
}

// A server over loopback TCP with the given tenants, torn down on destruction.
struct ServiceFixture {
  std::shared_ptr<TenantRegistry> registry = std::make_shared<TenantRegistry>();
  std::unique_ptr<PlanServer> server;

  explicit ServiceFixture(const std::vector<TenantConfig>& tenants,
                          PlanServerOptions options = {}) {
    for (const TenantConfig& tenant : tenants) {
      Status registered = registry->Register(tenant);
      EXPECT_TRUE(registered.ok()) << registered.ToString();
    }
    server = std::make_unique<PlanServer>(registry, options);
    Status started = server->Start(ServiceAddress::Tcp("127.0.0.1", 0));
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  std::unique_ptr<PlanClient> Client(const std::string& tenant,
                                     int cache_capacity = 64) {
    PlanClientOptions options;
    options.tenant = tenant;
    options.cache_capacity = cache_capacity;
    StatusOr<std::unique_ptr<PlanClient>> client =
        PlanClient::Connect(server->bound_address(), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }
};

TEST(PlanService, LoopbackResponsesBitIdenticalToInProcessPlanning) {
  const ClusterSpec cluster = SmallCluster(2, 2);
  const EngineOptions options = SmallEngineOptions(16);
  ServiceFixture service({{"prod", cluster, options}});

  const std::vector<int64_t> seqlens = {60, 33, 18};
  const MaskSpec mask = MaskSpec::Lambda(4, 13);

  // In-process reference engine with the identical tenant configuration.
  Engine local(cluster, options);
  const PlanHandle expected = local.Plan(seqlens, mask).value();

  std::unique_ptr<PlanClient> client = service.Client("prod");
  StatusOr<PlanHandle> remote = client->Plan(seqlens, mask);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(client->last_source(), PlanServeSource::kPlanned);
  EXPECT_TRUE(remote.value()->signature == expected->signature);
  EXPECT_EQ(Timeless(remote.value()->plan), Timeless(expected->plan));
  ASSERT_EQ(remote.value()->masks.size(), expected->masks.size());

  // Same request again on the SAME client: served locally, no RPC.
  const int64_t rpcs_before = client->stats().rpcs_sent;
  StatusOr<PlanHandle> local_hit = client->Plan(seqlens, mask);
  ASSERT_TRUE(local_hit.ok());
  EXPECT_EQ(client->last_source(), PlanServeSource::kClientCache);
  EXPECT_EQ(client->stats().rpcs_sent, rpcs_before);
  EXPECT_EQ(local_hit.value().get(), remote.value().get());

  // A FRESH client (a second process's worth of state) is served from the server's
  // plan cache — still bit-identical.
  std::unique_ptr<PlanClient> fresh = service.Client("prod");
  StatusOr<PlanHandle> server_hit = fresh->Plan(seqlens, mask);
  ASSERT_TRUE(server_hit.ok()) << server_hit.status().ToString();
  EXPECT_EQ(fresh->last_source(), PlanServeSource::kMemoryCache);
  EXPECT_EQ(Timeless(server_hit.value()->plan), Timeless(expected->plan));
}

TEST(PlanService, TenantsNeverObserveEachOthersPlans) {
  const ClusterSpec cluster = SmallCluster(1, 4);
  // Same cluster, different planner configuration => different plans and signatures.
  const EngineOptions options_a = SmallEngineOptions(16, /*seed=*/7);
  const EngineOptions options_b = SmallEngineOptions(24, /*seed=*/11);
  ServiceFixture service({{"team-a", cluster, options_a}, {"team-b", cluster, options_b}});

  const std::vector<int64_t> seqlens = {70, 41};
  const MaskSpec mask = MaskSpec::Causal();

  std::unique_ptr<PlanClient> client_a = service.Client("team-a");
  std::unique_ptr<PlanClient> client_b = service.Client("team-b");
  const PlanHandle plan_a = client_a->Plan(seqlens, mask).value();
  const PlanHandle plan_b = client_b->Plan(seqlens, mask).value();

  // Distinct signatures: one tenant's cache can never serve the other's request.
  EXPECT_FALSE(plan_a->signature == plan_b->signature);
  EXPECT_NE(Timeless(plan_a->plan), Timeless(plan_b->plan));

  // And each matches its own in-process reference exactly.
  Engine local_a(cluster, options_a);
  Engine local_b(cluster, options_b);
  EXPECT_EQ(Timeless(plan_a->plan),
            Timeless(local_a.Plan(seqlens, mask).value()->plan));
  EXPECT_EQ(Timeless(plan_b->plan),
            Timeless(local_b.Plan(seqlens, mask).value()->plan));
}

TEST(PlanService, ErrorsPropagateAsStatuses) {
  ServiceFixture service({{"prod", SmallCluster(1, 2), SmallEngineOptions(16)}});
  std::unique_ptr<PlanClient> client = service.Client("prod");

  // Invalid user input: recoverable INVALID_ARGUMENT from the tenant engine.
  StatusOr<PlanHandle> empty = client->Plan({}, MaskSpec::Causal());
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  StatusOr<PlanHandle> negative = client->Plan({64, -3}, MaskSpec::Causal());
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  // Unknown tenant: NOT_FOUND, and the connection keeps working afterwards.
  PlanClientOptions unknown_options;
  unknown_options.tenant = "nobody";
  std::unique_ptr<PlanClient> unknown =
      PlanClient::Connect(service.server->bound_address(), unknown_options).value();
  StatusOr<PlanHandle> missing = unknown->Plan({64}, MaskSpec::Causal());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  StatusOr<PlanHandle> ok_after = client->Plan({64, 32}, MaskSpec::Causal());
  EXPECT_TRUE(ok_after.ok()) << ok_after.status().ToString();
}

TEST(PlanService, OverloadRejectedWithUnavailable) {
  PlanServerOptions drained;
  drained.max_queue = 0;  // Maintenance mode: every request rejected immediately.
  ServiceFixture service({{"prod", SmallCluster(1, 2), SmallEngineOptions(16)}},
                         drained);
  std::unique_ptr<PlanClient> client = service.Client("prod");
  StatusOr<PlanHandle> rejected = client->Plan({64, 32}, MaskSpec::Causal());
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(service.server->stats().rejected_overload, 1);
}

TEST(PlanService, MalformedFramesNeverKillTheServer) {
  ServiceFixture service({{"prod", SmallCluster(1, 2), SmallEngineOptions(16)}});
  const ServiceAddress address = service.server->bound_address();

  {  // Raw garbage bytes.
    Socket raw = ConnectSocket(address).value();
    ASSERT_TRUE(raw.SendAll("this is definitely not a DCP frame, not even close")
                    .ok());
    raw.Close();
  }
  {  // A truncated but valid frame prefix (torn mid-payload).
    Socket raw = ConnectSocket(address).value();
    const std::string frame = EncodeFrame(
        FrameType::kPlanRequest,
        SerializePlanServiceRequest({"prod", {64, 32}, MaskSpec::Causal(), 0}));
    ASSERT_TRUE(raw.SendAll(std::string_view(frame).substr(0, frame.size() / 2)).ok());
    raw.Close();
  }
  {  // Every byte of a valid frame bit-flipped, one connection per corruption.
    const std::string frame = EncodeFrame(
        FrameType::kPlanRequest,
        SerializePlanServiceRequest({"prod", {64, 32}, MaskSpec::Causal(), 0}));
    for (size_t byte = 0; byte < frame.size(); byte += 7) {  // Stride keeps it fast.
      std::string corrupt = frame;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ 0x20);
      Socket raw = ConnectSocket(address).value();
      ASSERT_TRUE(raw.SendAll(corrupt).ok());
      raw.Close();
    }
  }
  {  // A well-framed payload that is not a valid request message.
    Socket raw = ConnectSocket(address).value();
    ASSERT_TRUE(WriteFrame(raw, FrameType::kPlanRequest, "not-a-request").ok());
    StatusOr<Frame> reply = ReadFrame(raw);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    StatusOr<PlanServiceResponse> decoded =
        DeserializePlanServiceResponse(reply.value().payload);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().code, StatusCode::kDataLoss);
  }

  // After all of that, the server still serves well-formed traffic.
  std::unique_ptr<PlanClient> client = service.Client("prod");
  StatusOr<PlanHandle> plan = client->Plan({64, 32}, MaskSpec::Causal());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GE(service.server->stats().malformed_frames, 1);
}

// The subsystem's stress bar: N client threads x M tenants hammering one server, every
// response asserted bit-identical (plan ==) to a fresh in-process plan.
TEST(PlanService, StressManyClientThreadsManyTenants) {
  constexpr int kTenants = 3;
  constexpr int kThreadsPerTenant = 2;
  constexpr int kCasesPerThread = 6;

  std::vector<TenantConfig> tenants;
  std::vector<ClusterSpec> clusters;
  std::vector<EngineOptions> options;
  for (int t = 0; t < kTenants; ++t) {
    clusters.push_back(SmallCluster(1 + t % 2, 2));
    options.push_back(SmallEngineOptions(16, /*seed=*/100 + static_cast<uint64_t>(t)));
    tenants.push_back({"tenant-" + std::to_string(t), clusters[static_cast<size_t>(t)],
                       options[static_cast<size_t>(t)]});
  }
  PlanServerOptions server_options;
  server_options.workers = 4;
  ServiceFixture service(tenants, server_options);

  struct Observed {
    std::string tenant;
    std::vector<int64_t> seqlens;
    MaskSpec mask;
    int64_t block_size = 0;
    BatchPlan plan;
  };
  std::vector<std::vector<Observed>> per_thread(kTenants * kThreadsPerTenant);
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kTenants; ++t) {
    for (int w = 0; w < kThreadsPerTenant; ++w) {
      const int slot = t * kThreadsPerTenant + w;
      threads.emplace_back([&, t, w, slot] {
        // Each thread owns its connection; disable the client LRU so every request
        // actually crosses the wire.
        std::unique_ptr<PlanClient> client =
            service.Client("tenant-" + std::to_string(t), /*cache_capacity=*/0);
        Rng rng(1000 + static_cast<uint64_t>(slot));
        for (int c = 0; c < kCasesPerThread; ++c) {
          plan_test::GeneratedCase generated = plan_test::GenerateCase(rng);
          Observed obs;
          obs.tenant = "tenant-" + std::to_string(t);
          obs.seqlens = generated.seqlens;
          obs.mask = plan_test::SmallMaskSpec(generated.mask_kind);
          obs.block_size = generated.block_size;
          StatusOr<PlanHandle> plan =
              client->PlanWithBlockSize(obs.seqlens, obs.mask, obs.block_size);
          if (!plan.ok()) {
            ++failures;
            continue;
          }
          obs.plan = Timeless(plan.value()->plan);
          per_thread[static_cast<size_t>(slot)].push_back(std::move(obs));
        }
        (void)w;
      });
    }
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Verify serially against fresh in-process engines (one per tenant, fresh caches:
  // planning is deterministic, so cold plans must equal whatever the service served).
  for (int t = 0; t < kTenants; ++t) {
    Engine local(clusters[static_cast<size_t>(t)], options[static_cast<size_t>(t)]);
    for (int w = 0; w < kThreadsPerTenant; ++w) {
      for (const Observed& obs :
           per_thread[static_cast<size_t>(t * kThreadsPerTenant + w)]) {
        StatusOr<PlanHandle> expected =
            local.PlanWithBlockSize(obs.seqlens, obs.mask, obs.block_size);
        ASSERT_TRUE(expected.ok()) << expected.status().ToString();
        EXPECT_EQ(obs.plan, Timeless(expected.value()->plan))
            << "tenant " << obs.tenant;
      }
    }
  }

  const PlanServerStats stats = service.server->stats();
  EXPECT_GE(stats.requests_received, kTenants * kThreadsPerTenant * kCasesPerThread);
  EXPECT_EQ(stats.rejected_overload, 0);
}

TEST(PlanService, ScrapeReportsPerTenantServerEngineAndStoreCounters) {
  // Two tenants in one server: every per-tenant counter the scrape carries is labeled
  // tenant="<name>", so the two engines' cache and store series stay apart instead of
  // summing into one unlabeled series.
  namespace fs = std::filesystem;
  const fs::path root = fs::path(::testing::TempDir()) / "dcp_scrape_tenants";
  fs::remove_all(root);
  EngineOptions prod = SmallEngineOptions(16);
  prod.plan_cache_shards = 2;
  prod.plan_store_path = (root / "prod").string();
  EngineOptions dev = SmallEngineOptions(24);
  dev.plan_cache_shards = 2;
  dev.plan_store_path = (root / "dev").string();
  // Seed dev's store from a throwaway server, so the live one can store-hit.
  {
    ServiceFixture seeder({{"scrape-dev", SmallCluster(1, 2), dev}});
    ASSERT_TRUE(seeder.Client("scrape-dev")->Plan({40, 20}, MaskSpec::Causal()).ok());
  }
  ServiceFixture service({{"scrape-prod", SmallCluster(1, 2), prod},
                          {"scrape-dev", SmallCluster(1, 2), dev}});

  std::unique_ptr<PlanClient> client = service.Client("scrape-prod");
  ASSERT_TRUE(client->Plan({64, 32}, MaskSpec::Causal()).ok());  // Cold plan.
  ASSERT_TRUE(client->Plan({64, 32}, MaskSpec::Causal()).ok());  // Client-cache hit.
  client->ClearCache();
  ASSERT_TRUE(client->Plan({64, 32}, MaskSpec::Causal()).ok());  // Server-cache hit.
  ASSERT_TRUE(client->Plan({48, 16}, MaskSpec::Causal()).ok());  // Second cold plan.
  std::unique_ptr<PlanClient> dev_client = service.Client("scrape-dev");
  ASSERT_TRUE(dev_client->Plan({40, 20}, MaskSpec::Causal()).ok());  // Store hit.
  EXPECT_EQ(dev_client->last_source(), PlanServeSource::kStoreCache);

  StatusOr<PlanServiceMetricsResponse> scrape = client->ServerMetrics("dcp_");
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  ASSERT_EQ(scrape.value().code, StatusCode::kOk);
  const std::string& text = scrape.value().text;
  const std::string prod_label = "tenant=\"scrape-prod\"";
  const std::string dev_label = "tenant=\"scrape-dev\"";

  // Server-side request routing, per tenant.
  EXPECT_GE(Scraped(text, "dcp_server_requests_received_total"), 4);
  EXPECT_EQ(Scraped(text, "dcp_server_tenant_requests_total", prod_label), 3);
  EXPECT_EQ(Scraped(text, "dcp_server_tenant_requests_total", dev_label), 1);
  EXPECT_EQ(Scraped(text, "dcp_server_tenant_plan_errors_total", prod_label), 0);
  // Engine cache counters, summed over each tenant's two shards.
  EXPECT_EQ(Scraped(text, "dcp_engine_cache_hits_total", prod_label), 1);
  EXPECT_EQ(Scraped(text, "dcp_engine_cache_misses_total", prod_label), 2);
  EXPECT_EQ(Scraped(text, "dcp_engine_cache_entries", prod_label), 2);
  EXPECT_EQ(Scraped(text, "dcp_engine_cache_evictions_total", prod_label), 0);
  EXPECT_EQ(Scraped(text, "dcp_engine_cache_hits_total", dev_label), 0);
  EXPECT_EQ(Scraped(text, "dcp_engine_cache_misses_total", dev_label), 1);
  EXPECT_EQ(Scraped(text, "dcp_engine_cache_entries", dev_label), 1);
  // Plan-store counters: prod wrote both fresh plans through; dev served from disk.
  EXPECT_EQ(Scraped(text, "dcp_store_writes_total", prod_label), 2);
  EXPECT_EQ(Scraped(text, "dcp_store_hits_total", prod_label), 0);
  EXPECT_EQ(Scraped(text, "dcp_store_hits_total", dev_label), 1);
  EXPECT_EQ(Scraped(text, "dcp_store_writes_total", dev_label), 0);
  EXPECT_EQ(Scraped(text, "dcp_store_corrupt_skipped_total", dev_label), 0);
  // The in-process snapshot reads the same instruments.
  const PlanCacheStats prod_cache = service.registry->Find("scrape-prod")->cache_stats();
  EXPECT_EQ(prod_cache.entries, 2);
  EXPECT_EQ(prod_cache.hits, 1);
  fs::remove_all(root);
}

TEST(PlanService, DataLoaderRunsTransparentlyOverRemotePlanner) {
  const ClusterSpec cluster = SmallCluster(2, 2);
  EngineOptions options = SmallEngineOptions(256);
  options.planner.head_dim = 16;
  ServiceFixture service({{"prod", cluster, options}});

  DatasetConfig dataset;
  dataset.kind = DatasetKind::kLongDataCollections;
  dataset.max_seq_len = 1024;
  dataset.min_seq_len = 64;
  dataset.seed = 42;
  BatchingConfig batching;
  batching.token_budget = 2048;

  PlanClientOptions client_options;
  client_options.tenant = "prod";
  std::shared_ptr<PlanClient> client =
      PlanClient::Connect(service.server->bound_address(), client_options).value();

  DcpDataLoader remote_loader(BatchStream{LengthSampler(dataset), batching},
                              MaskSpec::Causal(), client, /*lookahead=*/1);
  auto engine = std::make_shared<Engine>(cluster, options);
  DcpDataLoader local_loader(BatchStream{LengthSampler(dataset), batching},
                             MaskSpec::Causal(), engine, /*lookahead=*/1);

  for (int iter = 0; iter < 4; ++iter) {
    PlannedIteration remote = remote_loader.Next();
    PlannedIteration local = local_loader.Next();
    EXPECT_EQ(remote.batch.seqlens, local.batch.seqlens) << "iteration " << iter;
    EXPECT_EQ(Timeless(remote.plan()), Timeless(local.plan()))
        << "iteration " << iter;
  }
}

TEST(PlanService, PerTenantQuotaShedsOnlyTheNoisyTenant) {
  // Every serve stalls 300ms (deterministic periodic injection), so the first request
  // of tenant "noisy" pins its single quota slot long enough for a second request to
  // arrive while it is in flight.
  auto injector = std::make_shared<FaultInjector>(1);
  FaultRates stall;
  stall.every_n = 1;
  stall.periodic_action = FaultAction::kDelay;
  stall.delay_ms = 300;
  injector->SetRates(FaultPoint::kServe, stall);

  PlanServerOptions options;
  options.workers = 4;
  options.max_inflight_per_tenant = 1;
  options.fault_injector = injector;
  ServiceFixture service({{"noisy", SmallCluster(1, 2), SmallEngineOptions(16)},
                          {"quiet", SmallCluster(1, 2), SmallEngineOptions(24)}},
                         options);

  std::thread burst([&service] {
    std::unique_ptr<PlanClient> first = service.Client("noisy");
    StatusOr<PlanHandle> held = first->Plan({64, 32}, MaskSpec::Causal());
    EXPECT_TRUE(held.ok()) << held.status().ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Second request for the same tenant while the first holds the slot: shed.
  std::unique_ptr<PlanClient> second = service.Client("noisy");
  StatusOr<PlanHandle> over_quota = second->Plan({48, 24}, MaskSpec::Causal());
  ASSERT_FALSE(over_quota.ok());
  EXPECT_EQ(over_quota.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(over_quota.status().message().find("over quota"), std::string::npos)
      << over_quota.status().message();

  // The other tenant is unaffected (slow, but admitted).
  std::unique_ptr<PlanClient> quiet = service.Client("quiet");
  StatusOr<PlanHandle> fine = quiet->Plan({64, 32}, MaskSpec::Causal());
  EXPECT_TRUE(fine.ok()) << fine.status().ToString();
  burst.join();

  EXPECT_GE(service.server->stats().shed_quota, 1);
  // Per-tenant shed counts surface in the scrape.
  StatusOr<PlanServiceMetricsResponse> scrape =
      quiet->ServerMetrics("dcp_server_tenant_shed_quota_total");
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  const std::string& text = scrape.value().text;
  EXPECT_GE(Scraped(text, "dcp_server_tenant_shed_quota_total", "tenant=\"noisy\""), 1);
  EXPECT_EQ(Scraped(text, "dcp_server_tenant_shed_quota_total", "tenant=\"quiet\""), 0);
}

TEST(PlanService, ExpiredDeadlinesAreShedUnplanned) {
  // Serve-side stall of 150ms against a 50ms request deadline: by the time a worker
  // picks the request up its budget is gone, and the server must not plan it.
  auto injector = std::make_shared<FaultInjector>(2);
  FaultRates stall;
  stall.every_n = 1;
  stall.periodic_action = FaultAction::kDelay;
  stall.delay_ms = 150;
  injector->SetRates(FaultPoint::kServe, stall);
  PlanServerOptions options;
  options.fault_injector = injector;
  ServiceFixture service({{"prod", SmallCluster(1, 2), SmallEngineOptions(16)}},
                         options);

  PlanClientOptions client_options;
  client_options.tenant = "prod";
  client_options.deadline_ms = 50;
  client_options.retry.max_attempts = 1;  // The shed status is the assertion target.
  std::unique_ptr<PlanClient> client =
      PlanClient::Connect(service.server->bound_address(), client_options).value();
  StatusOr<PlanHandle> shed = client->Plan({64, 32}, MaskSpec::Causal());
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(service.server->stats().shed_deadline, 1);
}

TEST(PlanService, GossipReplicatesRecordsAcrossPeers) {
  const ClusterSpec cluster = SmallCluster(2, 2);
  const EngineOptions options = SmallEngineOptions(16);

  // Replica A plans; replica B (peered with A, same tenant config) must adopt the
  // record via anti-entropy and serve it without planning.
  ServiceFixture replica_a({{"prod", cluster, options}});
  PlanServerOptions b_options;
  b_options.peers = {replica_a.server->bound_address()};
  b_options.gossip_interval_ms = 20;
  ServiceFixture replica_b({{"prod", cluster, options}}, b_options);

  const std::vector<int64_t> seqlens = {60, 33, 18};
  const MaskSpec mask = MaskSpec::Lambda(4, 13);
  std::unique_ptr<PlanClient> client_a = replica_a.Client("prod");
  const PlanHandle planned_on_a = client_a->Plan(seqlens, mask).value();

  // Wait for one successful gossip round (bounded; typically one interval).
  bool adopted = false;
  for (int i = 0; i < 250 && !adopted; ++i) {
    adopted = replica_b.server->stats().sync_records_adopted >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(adopted) << "replica B never adopted A's record";
  EXPECT_GE(replica_a.server->stats().sync_records_shipped, 1);

  // B serves the shape from the adopted record — no planning, bit-identical bytes.
  std::unique_ptr<PlanClient> client_b = replica_b.Client("prod");
  StatusOr<PlanHandle> from_b = client_b->Plan(seqlens, mask);
  ASSERT_TRUE(from_b.ok()) << from_b.status().ToString();
  EXPECT_EQ(client_b->last_source(), PlanServeSource::kReplicaCache);
  EXPECT_TRUE(from_b.value()->signature == planned_on_a->signature);
  EXPECT_EQ(Timeless(from_b.value()->plan),
            Timeless(planned_on_a->plan));
  EXPECT_GE(replica_b.server->stats().replica_cache_hits, 1);
  EXPECT_EQ(replica_b.registry->Find("prod")->cache_stats().misses, 0);
}

TEST(PlanService, StaleGossipRecordsAreRejectedByValidation) {
  const ClusterSpec cluster = SmallCluster(1, 2);
  const EngineOptions options = SmallEngineOptions(16);

  // Replica A ships corrupted ("stale") records on every sync; B must reject every one
  // of them at validation and adopt nothing.
  auto stale = std::make_shared<FaultInjector>(3);
  FaultRates corrupt;
  corrupt.stale = 1.0;
  stale->SetRates(FaultPoint::kSyncRecord, corrupt);
  PlanServerOptions a_options;
  a_options.fault_injector = stale;
  ServiceFixture replica_a({{"prod", cluster, options}}, a_options);

  PlanServerOptions b_options;
  b_options.peers = {replica_a.server->bound_address()};
  b_options.gossip_interval_ms = 20;
  ServiceFixture replica_b({{"prod", cluster, options}}, b_options);

  std::unique_ptr<PlanClient> client_a = replica_a.Client("prod");
  ASSERT_TRUE(client_a->Plan({64, 32}, MaskSpec::Causal()).ok());

  bool rejected = false;
  for (int i = 0; i < 250 && !rejected; ++i) {
    rejected = replica_b.server->stats().sync_records_rejected >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(rejected) << "replica B never saw (and rejected) a stale record";
  EXPECT_EQ(replica_b.server->stats().sync_records_adopted, 0);
}

TEST(PlanService, ClientReconnectsAfterServerRestart) {
  const ClusterSpec cluster = SmallCluster(1, 2);
  const EngineOptions options = SmallEngineOptions(16);
  auto registry = std::make_shared<TenantRegistry>();
  ASSERT_TRUE(registry->Register({"prod", cluster, options}).ok());

  auto server = std::make_unique<PlanServer>(registry, PlanServerOptions{});
  ASSERT_TRUE(server->Start(ServiceAddress::Tcp("127.0.0.1", 0)).ok());
  const ServiceAddress address = server->bound_address();

  std::unique_ptr<PlanClient> client =
      PlanClient::Connect(address, PlanClientOptions{.tenant = "prod"}).value();
  ASSERT_TRUE(client->Plan({64, 32}, MaskSpec::Causal()).ok());

  // Restart the server on the same port (new engines, same tenant config).
  server->Stop();
  server = std::make_unique<PlanServer>(registry, PlanServerOptions{});
  ASSERT_TRUE(server->Start(address).ok());

  // A different request (the first is in the client LRU): one transparent reconnect.
  StatusOr<PlanHandle> replanned = client->Plan({48, 24}, MaskSpec::Causal());
  ASSERT_TRUE(replanned.ok()) << replanned.status().ToString();
  EXPECT_GE(client->stats().reconnects, 1);
}

// A raw TCP client socket with NO fault injector attached (ConnectSocket would attach
// the global one), for tests that arm server-side-only faults.
Socket RawTcpConnect(const ServiceAddress& address) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in sin{};
  sin.sin_family = AF_INET;
  sin.sin_port = htons(static_cast<uint16_t>(address.port));
  EXPECT_EQ(::inet_pton(AF_INET, address.host.c_str(), &sin.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sin), sizeof(sin)), 0);
  return Socket(fd);
}

TEST(PlanService, TransientAcceptFailuresRetriedNeverFatal) {
  // Every accept attempt fails (injected EMFILE/ECONNABORTED-style pressure) without
  // consuming the pending connection. The old accept loop exited on the first such
  // error, leaving a permanently deaf server; the event loop must back off and retry.
  auto injector = std::make_shared<FaultInjector>(11);
  FaultRates accept_pressure;
  accept_pressure.fail = 1.0;
  injector->SetRates(FaultPoint::kAccept, accept_pressure);
  PlanServerOptions options;
  options.fault_injector = injector;
  ServiceFixture service({{"prod", SmallCluster(1, 2), SmallEngineOptions(16)}},
                         options);

  // The TCP handshake completes regardless (the kernel backlog holds the connection);
  // the server just never accept(2)s it while the pressure lasts.
  Socket pending = RawTcpConnect(service.server->bound_address());
  bool retried = false;
  for (int i = 0; i < 250 && !retried; ++i) {
    retried = service.server->stats().accept_soft_errors >= 2;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(retried) << "accept path did not keep retrying under pressure";
  EXPECT_TRUE(service.server->running());

  // Pressure ends: the retry must drain the backlog and serve the waiting connection.
  injector->SetRates(FaultPoint::kAccept, FaultRates{});
  pending.set_io_timeout_ms(5000);
  ASSERT_TRUE(WriteFrame(pending, FrameType::kPlanRequest,
                         SerializePlanServiceRequest(
                             {"prod", {64, 32}, MaskSpec::Causal(), 0}))
                  .ok());
  StatusOr<Frame> reply = ReadFrame(pending);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  StatusOr<PlanServiceResponse> response =
      DeserializePlanServiceResponse(reply.value().payload);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().code, StatusCode::kOk);
}

TEST(PlanService, OverloadedNonPlanRequestsGetTypeMatchedReplies) {
  PlanServerOptions drained;
  drained.max_queue = 0;  // Reject everything.
  ServiceFixture service({{"prod", SmallCluster(1, 2), SmallEngineOptions(16)}},
                         drained);

  // A sync request rejected under overload used to come back as a kPlanResponse the
  // gossip client cannot decode; the rejection must be a parseable kSyncResponse.
  {
    Socket raw = ConnectSocket(service.server->bound_address()).value();
    PlanSyncRequest sync;
    sync.tenant = "prod";
    ASSERT_TRUE(WriteFrame(raw, FrameType::kSyncRequest,
                           SerializePlanSyncRequest(sync))
                    .ok());
    StatusOr<Frame> reply = ReadFrame(raw);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().type, FrameType::kSyncResponse);
    StatusOr<PlanSyncResponse> response =
        DeserializePlanSyncResponse(reply.value().payload);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().code, StatusCode::kUnavailable);
  }
  // Metrics rejections stay type-matched too.
  {
    Socket raw = ConnectSocket(service.server->bound_address()).value();
    ASSERT_TRUE(WriteFrame(raw, FrameType::kMetricsRequest,
                           SerializePlanServiceMetricsRequest({""}))
                    .ok());
    StatusOr<Frame> reply = ReadFrame(raw);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().type, FrameType::kMetricsResponse);
    StatusOr<PlanServiceMetricsResponse> response =
        DeserializePlanServiceMetricsResponse(reply.value().payload);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response.value().code, StatusCode::kUnavailable);
  }
  EXPECT_GE(service.server->stats().rejected_overload, 2);
}

// Frame types 3 and 4 carried a stats RPC that the metrics scrape replaced. They stay
// unassigned: a peer still sending them gets a well-formed INVALID_ARGUMENT error
// frame, and the connection keeps serving plan requests.
TEST(PlanService, RetiredFrameTypesAreRejectedAndTheConnectionSurvives) {
  ServiceFixture service({{"prod", SmallCluster(1, 2), SmallEngineOptions(16)}});
  Socket raw = ConnectSocket(service.server->bound_address()).value();
  for (const uint32_t retired : {3u, 4u}) {
    ASSERT_TRUE(WriteFrame(raw, static_cast<FrameType>(retired), "").ok());
    StatusOr<Frame> reply = ReadFrame(raw);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply.value().type, FrameType::kErrorResponse);
    StatusOr<PlanServiceResponse> error =
        DeserializePlanServiceResponse(reply.value().payload);
    ASSERT_TRUE(error.ok()) << error.status().ToString();
    EXPECT_EQ(error.value().code, StatusCode::kInvalidArgument) << "frame type " << retired;
  }
  ASSERT_TRUE(WriteFrame(raw, FrameType::kPlanRequest,
                         SerializePlanServiceRequest(
                             {"prod", {64, 32}, MaskSpec::Causal(), 0}))
                  .ok());
  StatusOr<Frame> reply = ReadFrame(raw);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply.value().type, FrameType::kPlanResponse);
  StatusOr<PlanServiceResponse> plan = DeserializePlanServiceResponse(reply.value().payload);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().code, StatusCode::kOk) << plan.value().message;
  EXPECT_FALSE(plan.value().record.empty());
}

TEST(PlanService, SlowReadersAreShedWholeConnectionsOnly) {
  PlanServerOptions options;
  options.max_output_queue_bytes = 8 * 1024;  // Tiny outbox bound for the test.
  ServiceFixture service({{"prod", SmallCluster(1, 2), SmallEngineOptions(16)}},
                         options);

  // A client that pipelines hundreds of requests and never reads a byte: once the
  // kernel buffers fill, responses accumulate in the server outbox until the bound
  // sheds the connection. The server itself must stay healthy throughout.
  {
    Socket slow = RawTcpConnect(service.server->bound_address());
    const std::string request = SerializePlanServiceRequest(
        {"prod", {64, 32}, MaskSpec::Causal(), 0});
    for (int i = 0; i < 400; ++i) {
      if (!WriteFrame(slow, FrameType::kPlanRequest, request).ok()) {
        break;  // The server already shed us mid-pipeline; that is the point.
      }
    }
    bool shed = false;
    for (int i = 0; i < 500 && !shed; ++i) {
      shed = service.server->stats().slow_reader_closes >= 1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_TRUE(shed) << "outbox bound never shed the unread connection";
  }
  // Shedding was per-connection: a well-behaved client is completely unaffected.
  std::unique_ptr<PlanClient> client = service.Client("prod");
  StatusOr<PlanHandle> plan = client->Plan({64, 32}, MaskSpec::Causal());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
}

TEST(PlanService, PeerCloseWithResponsesInFlightNeverKillsTheServer) {
  ServiceFixture service({{"prod", SmallCluster(1, 2), SmallEngineOptions(16)}});
  const std::string request = SerializePlanServiceRequest(
      {"prod", {64, 32}, MaskSpec::Causal(), 0});

  // Fire a request and slam the connection shut before the response can be written:
  // the server's queued non-blocking write lands on a closed peer (RST/EPIPE).
  for (int i = 0; i < 8; ++i) {
    Socket hit_and_run = RawTcpConnect(service.server->bound_address());
    ASSERT_TRUE(WriteFrame(hit_and_run, FrameType::kPlanRequest, request).ok());
    hit_and_run.Close();
  }
  // Half-close variant: the peer shuts down its write side mid-frame (a torn request)
  // while the read side is already gone.
  for (int i = 0; i < 8; ++i) {
    Socket torn = RawTcpConnect(service.server->bound_address());
    const std::string frame = EncodeFrame(FrameType::kPlanRequest, request);
    ASSERT_TRUE(
        torn.SendAll(std::string_view(frame).substr(0, frame.size() - 3)).ok());
    torn.Close();
  }

  // The server survived every variant and still serves.
  std::unique_ptr<PlanClient> client = service.Client("prod");
  StatusOr<PlanHandle> plan = client->Plan({64, 32}, MaskSpec::Causal());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(service.server->running());
}

TEST(PlanService, ServerSideTearOnNonBlockingWriteIsRecoverable) {
  // Arm the global injector so the server's ACCEPTED sockets (which attach it) tear
  // every send mid-frame; the client connects raw, so only the server side faults.
  auto tearing = std::make_shared<FaultInjector>(17);
  FaultRates tear;
  tear.tear = 1.0;
  tear.tear_bytes = 10;  // Mid-frame-header: the client sees a torn response.
  tearing->SetRates(FaultPoint::kSend, tear);
  InstallGlobalFaultInjector(tearing);

  ServiceFixture service({{"prod", SmallCluster(1, 2), SmallEngineOptions(16)}});
  {
    Socket raw = RawTcpConnect(service.server->bound_address());
    raw.set_io_timeout_ms(5000);
    ASSERT_TRUE(WriteFrame(raw, FrameType::kPlanRequest,
                           SerializePlanServiceRequest(
                               {"prod", {64, 32}, MaskSpec::Causal(), 0}))
                    .ok());
    StatusOr<Frame> reply = ReadFrame(raw);
    ASSERT_FALSE(reply.ok());  // Torn mid-response.
    EXPECT_EQ(reply.status().code(), StatusCode::kDataLoss);
  }
  // Disarm: the same server must serve the next connection cleanly.
  InstallGlobalFaultInjector(nullptr);
  EXPECT_TRUE(service.server->running());
  std::unique_ptr<PlanClient> client = service.Client("prod");
  StatusOr<PlanHandle> plan = client->Plan({64, 32}, MaskSpec::Causal());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
}

TEST(PlanService, PollBackendServesIdenticallyToEpoll) {
  const ClusterSpec cluster = SmallCluster(2, 2);
  const EngineOptions options = SmallEngineOptions(16);
  PlanServerOptions poll_options;
  poll_options.force_poll_backend = true;
  poll_options.io_threads = 1;
  ServiceFixture service({{"prod", cluster, options}}, poll_options);
  EXPECT_EQ(service.server->poller_backend(), Poller::Backend::kPoll);
  EXPECT_EQ(service.server->io_thread_count(), 1);

  const std::vector<int64_t> seqlens = {60, 33, 18};
  const MaskSpec mask = MaskSpec::Lambda(4, 13);
  Engine local(cluster, options);
  std::unique_ptr<PlanClient> client = service.Client("prod");
  StatusOr<PlanHandle> remote = client->Plan(seqlens, mask);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(Timeless(remote.value()->plan),
            Timeless(local.Plan(seqlens, mask).value()->plan));
}

TEST(PlanService, WarmServesAreZeroCopy) {
  ServiceFixture service({{"prod", SmallCluster(1, 2), SmallEngineOptions(16)}});
  // Two fresh clients, same shape: both responses carry the record, and both frames
  // point at the shared cached bytes instead of copying them.
  for (int i = 0; i < 2; ++i) {
    std::unique_ptr<PlanClient> client = service.Client("prod");
    ASSERT_TRUE(client->Plan({64, 32}, MaskSpec::Causal()).ok());
  }
  EXPECT_GE(service.server->stats().zero_copy_serves, 2);
}

TEST(PlanService, MetricsScrapeShowsEverySourceAndPhaseTotals) {
  // The tentpole acceptance check, in-process: drive a request through every serve
  // source reachable here, then take ONE wire scrape and assert each source shows
  // up as a labeled per-tenant serve-latency series, alongside per-phase totals.
  // All servers stay alive until the scrape — a dead server's child registry
  // (correctly) drops out of the global render.
  namespace fs = std::filesystem;
  const fs::path store_dir =
      fs::path(::testing::TempDir()) / "dcp_metrics_e2e_store";
  fs::remove_all(store_dir);
  fs::create_directories(store_dir);
  const ClusterSpec cluster = SmallCluster(2, 2);
  EngineOptions options = SmallEngineOptions(16);
  options.plan_store_path = store_dir.string();
  const std::vector<int64_t> warm = {60, 33, 18};
  const std::vector<int64_t> fresh_shape = {44, 21};
  const MaskSpec mask = MaskSpec::Lambda(4, 13);

  // Seed the store from a throwaway server, so the live one can store-hit.
  {
    ServiceFixture seeder({{"metrics-e2e", cluster, options}});
    ASSERT_TRUE(seeder.Client("metrics-e2e")->Plan(warm, mask).ok());
  }

  ServiceFixture service({{"metrics-e2e", cluster, options}});
  std::unique_ptr<PlanClient> client = service.Client("metrics-e2e");
  // Memory cache is cold but the store is warm: store-cache.
  ASSERT_TRUE(client->Plan(warm, mask).ok());
  EXPECT_EQ(client->last_source(), PlanServeSource::kStoreCache);
  // A shape the fleet has never seen: planned.
  ASSERT_TRUE(client->Plan(fresh_shape, mask).ok());
  EXPECT_EQ(client->last_source(), PlanServeSource::kPlanned);
  // Same client, same shape: client-cache (no RPC — only the client can see it).
  ASSERT_TRUE(client->Plan(fresh_shape, mask).ok());
  EXPECT_EQ(client->last_source(), PlanServeSource::kClientCache);
  // Fresh client, warm server: memory-cache.
  std::unique_ptr<PlanClient> second = service.Client("metrics-e2e");
  ASSERT_TRUE(second->Plan(fresh_shape, mask).ok());
  EXPECT_EQ(second->last_source(), PlanServeSource::kMemoryCache);

  // Replica-cache: a peer adopts the record via anti-entropy and serves from it.
  PlanServerOptions peer_options;
  peer_options.peers = {service.server->bound_address()};
  peer_options.gossip_interval_ms = 20;
  ServiceFixture peer({{"metrics-e2e", cluster, SmallEngineOptions(16)}},
                      peer_options);
  bool adopted = false;
  for (int i = 0; i < 250 && !adopted; ++i) {
    adopted = peer.server->stats().sync_records_adopted >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(adopted) << "peer never adopted a gossip record";
  std::unique_ptr<PlanClient> peer_client = peer.Client("metrics-e2e");
  ASSERT_TRUE(peer_client->Plan(fresh_shape, mask).ok());
  EXPECT_EQ(peer_client->last_source(), PlanServeSource::kReplicaCache);

  StatusOr<PlanServiceMetricsResponse> scrape = client->ServerMetrics("dcp_");
  ASSERT_TRUE(scrape.ok()) << scrape.status().ToString();
  ASSERT_EQ(scrape.value().code, StatusCode::kOk);
  const std::string& text = scrape.value().text;
  // Server-observed sources, per tenant (labels render alphabetically).
  for (const char* source : {"planned", "memory-cache", "store-cache",
                             "replica-cache"}) {
    const std::string needle = std::string(
        "dcp_server_serve_latency_us_count{source=\"") + source +
        "\",tenant=\"metrics-e2e\"}";
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // Client-cache never reaches a server; the client-side histogram carries it.
  EXPECT_NE(
      text.find("dcp_client_plan_latency_us_count{source=\"client-cache\","
                "tenant=\"metrics-e2e\"}"),
      std::string::npos);
  // Per-phase totals accumulated across the requests above.
  for (const char* phase : {"queue_wait", "cache_probe", "store_read",
                            "plan_initial", "encode", "write_drain"}) {
    const std::string needle =
        std::string("dcp_phase_us_total{phase=\"") + phase + "\"}";
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // The server kept per-request traces: the ring holds completed plan serves
  // carrying the tenant and a non-zero trace id (stamped client-side).
  const std::vector<metrics::Trace> traces = service.server->recent_traces();
  ASSERT_FALSE(traces.empty());
  EXPECT_EQ(traces.front().tenant, "metrics-e2e");
  EXPECT_NE(traces.front().trace_id, 0u);
}

TEST(PlanService, MetricsScrapeSurvivesConcurrentTrafficAndStop) {
  // TSan target: scraping (registry snapshot + render) races real recording
  // (workers planning, IO loops draining, gauges moving) and finally Stop().
  // Nothing here asserts counts — the assertion is "no data race, no torn
  // scrape, no crash".
  ServiceFixture service({{"prod", SmallCluster(1, 2), SmallEngineOptions(16)}});
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      std::unique_ptr<PlanClient> client = service.Client("prod");
      Rng rng(0x5ca1ab1eULL + static_cast<uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        std::vector<int64_t> seqlens = {rng.NextInt(16, 80), rng.NextInt(16, 80)};
        (void)client->Plan(seqlens, MaskSpec::Causal());
      }
    });
  }
  threads.emplace_back([&] {
    std::unique_ptr<PlanClient> scraper = service.Client("prod");
    while (!stop.load(std::memory_order_relaxed)) {
      StatusOr<PlanServiceMetricsResponse> scrape = scraper->ServerMetrics("dcp_");
      if (scrape.ok()) {
        EXPECT_EQ(scrape.value().code, StatusCode::kOk);
        EXPECT_FALSE(scrape.value().text.empty());
      }
      (void)service.server->recent_traces();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // Stop the server while clients and the scraper are still firing; they see
  // clean transport errors, never torn state.
  service.server->Stop();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) {
    thread.join();
  }
}

}  // namespace
}  // namespace dcp
