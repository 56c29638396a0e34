// TSan-targeted stress tests for the races the ordinary suites never provoke under
// contention: concurrent Engine::Plan against cache_stats() snapshots and ClearCache()
// eviction churn, server stats polled across Start()/Stop(), and a ReplicaSet destroyed
// while hedge/failover attempt threads are still straggling. These tests assert only
// basic liveness/consistency — their real assertion is a clean ThreadSanitizer run
// (`cmake --preset tsan && ctest --preset tsan -R concurrency_stress`). Sizes are kept
// small so TSan's ~10x slowdown stays in budget on a 1-core CI box.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/engine.h"
#include "masks/mask.h"
#include "service/plan_client.h"
#include "service/plan_server.h"
#include "service/replica_set.h"
#include "service/tenant_registry.h"
#include "service/transport.h"

namespace dcp {
namespace {

ClusterSpec SmallCluster() {
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  return cluster;
}

EngineOptions TinyEngineOptions(int cache_capacity) {
  EngineOptions options;
  options.planner.block_size = 16;
  options.planner.num_groups = 2;
  options.planner.heads_per_group = 2;
  options.planner.head_dim = 8;
  options.planner.divisions = 3;
  options.planner.seed = 7;
  options.planner_threads = 1;
  options.plan_cache_capacity = cache_capacity;
  options.plan_cache_shards = 2;
  return options;
}

// Distinct batch shapes so planners churn the cache instead of all hitting one entry.
std::vector<int64_t> ShapeFor(int i) {
  return {48 + (i % 7) * 8, 24 + (i % 5) * 8, 16 + (i % 3) * 8};
}

// Engine::Plan from several threads racing cache_stats() snapshots, CachedPlans()
// enumeration, and ClearCache() wipes, with a capacity small enough that insertions
// evict constantly. The coherent-snapshot contract must hold throughout: hits+misses
// can never exceed completed lookups, and entries never exceeds capacity.
TEST(ConcurrencyStress, EnginePlanVsStatsVsEvictionChurn) {
  constexpr int kPlanners = 3;
  constexpr int kPlansPerThread = 24;
  Engine engine(SmallCluster(), TinyEngineOptions(/*cache_capacity=*/4));

  std::atomic<bool> stop{false};
  std::atomic<int> plans_done{0};

  std::vector<std::thread> planners;
  planners.reserve(kPlanners);
  for (int t = 0; t < kPlanners; ++t) {
    planners.emplace_back([&engine, &plans_done, t] {
      for (int i = 0; i < kPlansPerThread; ++i) {
        StatusOr<PlanHandle> plan =
            engine.Plan(ShapeFor(t * kPlansPerThread + i), MaskSpec::Causal());
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
        plans_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread snapshotter([&engine, &stop, &plans_done] {
    while (!stop.load(std::memory_order_acquire)) {
      const PlanCacheStats stats = engine.cache_stats();
      // Coherent snapshot: totals may trail the done-counter read afterwards but can
      // never exceed it, and entries is bounded by the exact capacity.
      const int64_t lookups = stats.hits + stats.misses;
      EXPECT_LE(lookups, plans_done.load(std::memory_order_acquire) + kPlanners);
      EXPECT_LE(stats.entries, 4);
      (void)engine.CachedPlans();
      std::this_thread::yield();
    }
  });

  std::thread wiper([&engine, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      engine.ClearCache();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (std::thread& t : planners) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  snapshotter.join();
  wiper.join();
  EXPECT_EQ(plans_done.load(), kPlanners * kPlansPerThread);
}

// Server stats/scrape/io_thread_count/poller_backend polled continuously across
// Stop(): the poller thread must never touch freed loop state (this raced
// loops_.clear() before the counters were published atomically in Start/Stop).
TEST(ConcurrencyStress, ServerAccessorsVsShutdown) {
  auto registry = std::make_shared<TenantRegistry>();
  ASSERT_TRUE(
      registry->Register({"prod", SmallCluster(), TinyEngineOptions(8)}).ok());

  PlanServerOptions options;
  options.workers = 2;
  options.io_threads = 2;
  PlanServer server(registry, options);
  ASSERT_TRUE(server.Start(ServiceAddress::Tcp("127.0.0.1", 0)).ok());

  std::atomic<bool> stop{false};
  std::thread poller([&server, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      (void)server.stats();
      (void)metrics::Registry::Global().RenderPrometheus("dcp_");
      const int io_threads = server.io_thread_count();
      EXPECT_GE(io_threads, 0);
      EXPECT_LE(io_threads, 2);
      (void)server.poller_backend();
      std::this_thread::yield();
    }
  });

  // Drive a little traffic so the stats are not all zeros, then stop the server while
  // the poller keeps hammering the accessors.
  {
    PlanClientOptions client_options;
    client_options.tenant = "prod";
    StatusOr<std::unique_ptr<PlanClient>> client =
        PlanClient::Connect(server.bound_address(), client_options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (int i = 0; i < 4; ++i) {
      StatusOr<PlanHandle> plan =
          client.value()->Plan(ShapeFor(i), MaskSpec::Causal());
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    }
  }
  server.Stop();
  EXPECT_EQ(server.io_thread_count(), 0);
  // Accessors must stay safe (and answer zeros) after shutdown.
  for (int i = 0; i < 100; ++i) {
    (void)server.stats();
    (void)server.poller_backend();
  }
  stop.store(true, std::memory_order_release);
  poller.join();
}

// ReplicaSet teardown vs straggling attempt threads: requests aimed at a dead address
// spawn attempt threads that lose the race with the set's destructor. The destructor's
// outstanding-count wait must fence every late counter/cooldown update.
TEST(ConcurrencyStress, ReplicaSetDestructionVsStragglingAttempts) {
  // A listener that never accepts: connects hang until the timeout, keeping attempt
  // threads alive while the set is destroyed.
  StatusOr<Listener> parked = Listener::Bind(ServiceAddress::Tcp("127.0.0.1", 0), 1);
  ASSERT_TRUE(parked.ok());

  for (int round = 0; round < 4; ++round) {
    ReplicaSetOptions options;
    options.tenant = "prod";
    options.connect_timeout_ms = 50;
    options.request_timeout_ms = 50;
    options.hedging = true;
    options.hedge_min_delay_ms = 1;
    options.hedge_max_delay_ms = 2;
    StatusOr<std::unique_ptr<ReplicaSet>> set = ReplicaSet::Create(
        {parked.value().bound_address(), parked.value().bound_address()}, options);
    ASSERT_TRUE(set.ok());

    std::vector<std::thread> callers;
    for (int t = 0; t < 2; ++t) {
      callers.emplace_back([&set, t] {
        StatusOr<PlanHandle> plan =
            set.value()->Plan(ShapeFor(t), MaskSpec::Causal());
        EXPECT_FALSE(plan.ok());  // Nothing answers; must fail, not crash.
      });
    }
    for (std::thread& t : callers) {
      t.join();
    }
    set.value().reset();  // Destructor waits out any straggling attempt threads.
  }
}

}  // namespace
}  // namespace dcp
