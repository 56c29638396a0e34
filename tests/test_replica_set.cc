// Tests for dcp::ReplicaSet and the fault-injection harness: failover off a replica
// that dies mid-frame (bit-identical plan from the secondary), hedged requests with
// exactly one valid winner and a bounded hedge volume, the cooldown/backoff state
// machine under a fake clock, deterministic fault schedules per seed, local fallback on
// total fleet loss, and a chaos workload (seeded from DCP_FAULT_SEED, as scripts/
// check.sh drives it) that must lose zero requests.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "masks/mask.h"
#include "service/fault_injection.h"
#include "service/frame.h"
#include "service/plan_server.h"
#include "service/replica_set.h"
#include "service/tenant_registry.h"
#include "service/transport.h"
#include "tests/plan_test_util.h"

namespace dcp {
namespace {

using plan_test::Timeless;

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

// One member of a loopback fleet: a PlanServer with the shared tenant config.
struct Member {
  std::shared_ptr<TenantRegistry> registry = std::make_shared<TenantRegistry>();
  std::unique_ptr<PlanServer> server;

  Member(const ClusterSpec& cluster, const EngineOptions& options,
         PlanServerOptions server_options = {}) {
    EXPECT_TRUE(registry->Register({"prod", cluster, options}).ok());
    server = std::make_unique<PlanServer>(registry, server_options);
    Status started = server->Start(ServiceAddress::Tcp("127.0.0.1", 0));
    EXPECT_TRUE(started.ok()) << started.ToString();
  }
};

// A server that accepts, reads one request frame, then tears the response mid-header:
// the exact failure a replica dying mid-write produces on the wire.
class TornFrameServer {
 public:
  TornFrameServer() {
    listener_ = Listener::Bind(ServiceAddress::Tcp("127.0.0.1", 0)).value();
    thread_ = std::thread([this] { Loop(); });
  }
  ~TornFrameServer() { Stop(); }

  void Stop() {
    if (!stopped_.exchange(true)) {
      listener_.Interrupt();
      thread_.join();
      listener_.Close();
    }
  }
  const ServiceAddress& address() const { return listener_.bound_address(); }
  int64_t frames_torn() const { return torn_.load(); }

 private:
  void Loop() {
    while (!stopped_.load()) {
      StatusOr<Socket> accepted = listener_.Accept(/*timeout_ms=*/100);
      if (!accepted.ok()) {
        if (accepted.status().code() == StatusCode::kNotFound) {
          continue;  // Timeout: poll the stop flag.
        }
        return;
      }
      Socket socket = std::move(accepted).value();
      socket.set_io_timeout_ms(2000);
      if (!ReadFrame(socket).ok()) {
        continue;
      }
      const std::string frame = EncodeFrame(FrameType::kPlanResponse, "never-sent");
      (void)socket.SendAll(std::string_view(frame).substr(0, 10));
      socket.Close();
      ++torn_;
    }
  }

  Listener listener_;
  std::thread thread_;
  std::atomic<bool> stopped_{false};
  std::atomic<int64_t> torn_{0};
};

// A batch shape whose rendezvous order ranks `want_primary` first. Ephemeral ports
// randomize the address hashes per run, so the shape is searched, not hardcoded.
std::vector<int64_t> ShapeRoutedTo(const ReplicaSet& set, size_t want_primary,
                                   const MaskSpec& mask) {
  for (int64_t k = 0; k < 512; ++k) {
    std::vector<int64_t> seqlens = {64 + k, 32};
    if (set.RouteOrder(seqlens, mask)[0] == want_primary) {
      return seqlens;
    }
  }
  ADD_FAILURE() << "no shape routed to replica " << want_primary << " in 512 tries";
  return {64, 32};
}

TEST(ReplicaCooldown, BacksOffExponentiallyAndRecoversOnSuccess) {
  CooldownPolicy policy;
  policy.initial_ms = 100;
  policy.max_ms = 1000;
  policy.multiplier = 2.0;
  ReplicaCooldown cooldown(policy, /*salt=*/42);

  // Healthy until the first failure, whatever the clock says.
  EXPECT_TRUE(cooldown.Available(0));
  EXPECT_TRUE(cooldown.Available(1'000'000));

  cooldown.RecordFailure(/*now_ms=*/1000);
  EXPECT_EQ(cooldown.consecutive_failures(), 1);
  EXPECT_EQ(cooldown.backoff_ms(), 100);
  // Probe time = now + backoff +/- backoff/4 jitter.
  EXPECT_GE(cooldown.next_probe_ms(), 1000 + 75);
  EXPECT_LE(cooldown.next_probe_ms(), 1000 + 125);
  EXPECT_FALSE(cooldown.Available(1000));
  EXPECT_FALSE(cooldown.Available(cooldown.next_probe_ms() - 1));
  EXPECT_TRUE(cooldown.Available(cooldown.next_probe_ms()));

  // Repeated failures double the backoff up to the cap.
  cooldown.RecordFailure(2000);
  EXPECT_EQ(cooldown.backoff_ms(), 200);
  cooldown.RecordFailure(3000);
  cooldown.RecordFailure(4000);
  cooldown.RecordFailure(5000);
  EXPECT_EQ(cooldown.backoff_ms(), 1000);  // 100 -> 200 -> 400 -> 800 -> capped.
  cooldown.RecordFailure(6000);
  EXPECT_EQ(cooldown.backoff_ms(), 1000);

  // Deterministic: an identically-salted machine replays the identical schedule.
  ReplicaCooldown replay(policy, /*salt=*/42);
  for (int64_t now : {1000, 2000, 3000, 4000, 5000, 6000}) {
    replay.RecordFailure(now);
  }
  EXPECT_EQ(replay.next_probe_ms(), cooldown.next_probe_ms());

  cooldown.RecordSuccess();
  EXPECT_EQ(cooldown.consecutive_failures(), 0);
  EXPECT_TRUE(cooldown.Available(6000));
}

TEST(ReplicaSet, RendezvousRoutingIsDeterministicAndSpreadsShapes) {
  std::vector<ServiceAddress> addresses = {ServiceAddress::Tcp("127.0.0.1", 7001),
                                           ServiceAddress::Tcp("127.0.0.1", 7002),
                                           ServiceAddress::Tcp("127.0.0.1", 7003)};
  ReplicaSetOptions options;
  auto set_a = ReplicaSet::Create(addresses, options).value();
  auto set_b = ReplicaSet::Create(addresses, options).value();

  std::vector<int> primary_seen(3, 0);
  for (int64_t k = 0; k < 64; ++k) {
    const std::vector<int64_t> seqlens = {48 + k, 32};
    const std::vector<size_t> order = set_a->RouteOrder(seqlens, MaskSpec::Causal());
    // A full permutation, identical across independently-constructed sets.
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order, set_b->RouteOrder(seqlens, MaskSpec::Causal()));
    std::vector<bool> seen(3, false);
    for (size_t index : order) {
      ASSERT_LT(index, 3u);
      seen[index] = true;
    }
    EXPECT_TRUE(seen[0] && seen[1] && seen[2]);
    ++primary_seen[order[0]];
  }
  // Affinity spreads load: every replica is primary for some shapes.
  EXPECT_GT(primary_seen[0], 0);
  EXPECT_GT(primary_seen[1], 0);
  EXPECT_GT(primary_seen[2], 0);

  // The same shape keeps the same primary (cache affinity), run after run.
  const std::vector<int64_t> shape = {99, 32};
  EXPECT_EQ(set_a->RouteOrder(shape, MaskSpec::Causal())[0],
            set_a->RouteOrder(shape, MaskSpec::Causal())[0]);
}

TEST(ReplicaSet, FailsOverMidFrameToBitIdenticalSecondary) {
  const ClusterSpec cluster = SmallCluster(2, 2);
  const EngineOptions engine_options = SmallEngineOptions(16);
  TornFrameServer torn;                    // Replica 0: dies mid-response-frame.
  Member healthy(cluster, engine_options); // Replica 1: serves correctly.

  ReplicaSetOptions options;
  options.tenant = "prod";
  options.hedging = false;  // Pure failover under test; hedging has its own test.
  auto set = ReplicaSet::Create(
                 {torn.address(), healthy.server->bound_address()}, options)
                 .value();

  const MaskSpec mask = MaskSpec::Causal();
  const std::vector<int64_t> seqlens = ShapeRoutedTo(*set, /*want_primary=*/0, mask);

  StatusOr<PlanHandle> plan = set->Plan(seqlens, mask);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_GE(torn.frames_torn(), 1);  // The primary really was tried and really tore.

  // The failed-over response is bit-identical to in-process planning.
  Engine local(cluster, engine_options);
  const PlanHandle expected = local.Plan(seqlens, mask).value();
  EXPECT_TRUE(plan.value()->signature == expected->signature);
  EXPECT_EQ(Timeless(plan.value()->plan), Timeless(expected->plan));

  const ReplicaSetStats stats = set->stats();
  EXPECT_GE(stats.failovers, 1);
  EXPECT_GE(stats.cooldowns_entered, 1);
  EXPECT_FALSE(set->health(0).available);  // The torn replica is cooling down.
  EXPECT_TRUE(set->health(1).available);

  // Subsequent requests route around the cooled-down primary without a failover.
  const int64_t failovers_before = set->stats().failovers;
  StatusOr<PlanHandle> routed_around = set->Plan({seqlens[0] + 1000, 32}, mask);
  ASSERT_TRUE(routed_around.ok()) << routed_around.status().ToString();
  EXPECT_EQ(set->stats().failovers, failovers_before);
}

TEST(ReplicaSet, KillingThePrimaryMidRunLosesZeroRequests) {
  const ClusterSpec cluster = SmallCluster(2, 2);
  const EngineOptions engine_options = SmallEngineOptions(16);
  std::vector<std::unique_ptr<Member>> fleet;
  std::vector<ServiceAddress> addresses;
  for (int i = 0; i < 3; ++i) {
    fleet.push_back(std::make_unique<Member>(cluster, engine_options));
    addresses.push_back(fleet.back()->server->bound_address());
  }

  ReplicaSetOptions options;
  options.tenant = "prod";
  options.cache_capacity = 0;  // Every request crosses the wire.
  options.hedging = false;
  // The final health check asserts the victim is still cooling down; the default 50ms
  // cooldown can expire mid-test under sanitizer slowdown, so pin it far out.
  options.cooldown.initial_ms = 60000;
  auto set = ReplicaSet::Create(addresses, options).value();

  const MaskSpec mask = MaskSpec::Causal();
  std::vector<std::vector<int64_t>> shapes;
  for (int64_t k = 0; k < 6; ++k) {
    shapes.push_back({64 + 8 * k, 32 + k});
  }
  Engine local(cluster, engine_options);
  for (const auto& shape : shapes) {
    StatusOr<PlanHandle> warm = set->Plan(shape, mask);
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  }

  // Kill shape[0]'s primary — with live connections and warm caches — mid-run.
  const size_t victim = set->RouteOrder(shapes[0], mask)[0];
  fleet[victim]->server->Stop();

  // Zero lost requests: every shape (including those routed to the dead primary)
  // is served by failover, bit-identical to in-process planning.
  for (const auto& shape : shapes) {
    StatusOr<PlanHandle> plan = set->Plan(shape, mask);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ(Timeless(plan.value()->plan),
              Timeless(local.Plan(shape, mask).value()->plan));
  }
  EXPECT_GE(set->stats().failovers, 1);
  EXPECT_FALSE(set->health(victim).available);
}

TEST(ReplicaSet, HedgedRequestBeatsAStragglingPrimary) {
  const ClusterSpec cluster = SmallCluster(1, 2);
  const EngineOptions engine_options = SmallEngineOptions(16);

  // Replica 0 straggles on every serve; replica 1 is fast.
  auto straggle = std::make_shared<FaultInjector>(7);
  FaultRates slow;
  slow.every_n = 1;
  slow.periodic_action = FaultAction::kDelay;
  slow.delay_ms = 400;
  straggle->SetRates(FaultPoint::kServe, slow);
  PlanServerOptions slow_options;
  slow_options.fault_injector = straggle;
  Member straggler(cluster, engine_options, slow_options);
  Member fast(cluster, engine_options);

  ReplicaSetOptions options;
  options.tenant = "prod";
  options.hedging = true;
  options.hedge_min_delay_ms = 2;
  options.hedge_max_delay_ms = 10;  // No latency history yet: hedges fire at max.
  auto set = ReplicaSet::Create(
                 {straggler.server->bound_address(), fast.server->bound_address()},
                 options)
                 .value();

  const MaskSpec mask = MaskSpec::Causal();
  const std::vector<int64_t> seqlens = ShapeRoutedTo(*set, /*want_primary=*/0, mask);

  const auto started = std::chrono::steady_clock::now();
  StatusOr<PlanHandle> plan = set->Plan(seqlens, mask);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - started);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  // The hedge won: exactly one hedge fired, its response was the one returned, and the
  // request resolved far below the straggler's 400ms stall.
  const ReplicaSetStats stats = set->stats();
  EXPECT_EQ(stats.hedges_sent, 1);
  EXPECT_EQ(stats.hedge_wins, 1);
  EXPECT_LT(elapsed.count(), 300);
  Engine local(cluster, engine_options);
  EXPECT_EQ(Timeless(plan.value()->plan),
            Timeless(local.Plan(seqlens, mask).value()->plan));
}

TEST(ReplicaSet, HedgeBudgetBoundsHedgeVolume) {
  const ClusterSpec cluster = SmallCluster(1, 2);
  const EngineOptions engine_options = SmallEngineOptions(16);

  // Both replicas stall on every serve, so every request would love to hedge; the
  // budget (burst 2, fraction 0) must allow at most two.
  std::vector<std::unique_ptr<Member>> fleet;
  std::vector<ServiceAddress> addresses;
  for (int i = 0; i < 2; ++i) {
    auto injector = std::make_shared<FaultInjector>(11 + static_cast<uint64_t>(i));
    FaultRates slow;
    slow.every_n = 1;
    slow.periodic_action = FaultAction::kDelay;
    slow.delay_ms = 30;
    injector->SetRates(FaultPoint::kServe, slow);
    PlanServerOptions server_options;
    server_options.fault_injector = injector;
    fleet.push_back(std::make_unique<Member>(cluster, engine_options, server_options));
    addresses.push_back(fleet.back()->server->bound_address());
  }

  ReplicaSetOptions options;
  options.tenant = "prod";
  options.cache_capacity = 0;
  options.hedge_min_delay_ms = 1;
  options.hedge_max_delay_ms = 1;
  options.hedge_budget_fraction = 0.0;
  options.hedge_budget_burst = 2;
  auto set = ReplicaSet::Create(addresses, options).value();

  for (int64_t k = 0; k < 8; ++k) {
    StatusOr<PlanHandle> plan = set->Plan({64 + 8 * k, 32}, MaskSpec::Causal());
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  }
  const ReplicaSetStats stats = set->stats();
  EXPECT_EQ(stats.requests, 8);
  EXPECT_LE(stats.hedges_sent, 2);
}

TEST(ReplicaSet, FallsBackToLocalPlanningOnTotalFleetLoss) {
  // Two addresses nothing listens on: bind-then-close guarantees refusals.
  std::vector<ServiceAddress> dead;
  for (int i = 0; i < 2; ++i) {
    Listener placeholder = Listener::Bind(ServiceAddress::Tcp("127.0.0.1", 0)).value();
    dead.push_back(placeholder.bound_address());
    placeholder.Close();
  }
  const ClusterSpec cluster = SmallCluster(2, 2);
  const EngineOptions engine_options = SmallEngineOptions(16);

  ReplicaSetOptions options;
  options.tenant = "prod";
  options.connect_timeout_ms = 500;
  options.hedging = false;
  options.local_fallback = true;
  options.fallback_cluster = cluster;
  options.fallback_options = engine_options;
  auto set = ReplicaSet::Create(dead, options).value();

  const std::vector<int64_t> seqlens = {60, 33, 18};
  const MaskSpec mask = MaskSpec::Lambda(4, 13);
  StatusOr<PlanHandle> plan = set->Plan(seqlens, mask);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  Engine local(cluster, engine_options);
  EXPECT_EQ(Timeless(plan.value()->plan),
            Timeless(local.Plan(seqlens, mask).value()->plan));
  const ReplicaSetStats stats = set->stats();
  EXPECT_GE(stats.local_fallbacks, 1);
  EXPECT_FALSE(set->health(0).available);
  EXPECT_FALSE(set->health(1).available);

  // Without the fallback, the same fleet loss surfaces as UNAVAILABLE.
  ReplicaSetOptions no_fallback = options;
  no_fallback.local_fallback = false;
  auto bare = ReplicaSet::Create(dead, no_fallback).value();
  StatusOr<PlanHandle> refused = bare->Plan(seqlens, mask);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().code() == StatusCode::kUnavailable ||
              refused.status().code() == StatusCode::kDeadlineExceeded)
      << refused.status().ToString();
}

TEST(FaultInjection, SchedulesAreDeterministicPerSeedAndDivergeAcrossSeeds) {
  FaultRates rates;
  rates.fail = 0.2;
  rates.tear = 0.1;
  rates.delay = 0.15;

  const auto schedule = [&rates](uint64_t seed) {
    FaultInjector injector(seed);
    injector.SetRates(FaultPoint::kSend, rates);
    injector.SetRates(FaultPoint::kRecv, rates);
    std::vector<int> actions;
    for (int i = 0; i < 256; ++i) {
      actions.push_back(static_cast<int>(
          injector.Decide(i % 2 == 0 ? FaultPoint::kSend : FaultPoint::kRecv)
              .action));
    }
    return actions;
  };

  EXPECT_EQ(schedule(1234), schedule(1234));  // Same seed: identical schedule.
  EXPECT_NE(schedule(1234), schedule(1235));  // Different seed: different schedule.

  // Periodic injection is exact, independent of the seed: every 5th op, no others.
  for (uint64_t seed : {uint64_t{1}, uint64_t{999}}) {
    FaultInjector periodic(seed);
    FaultRates every5;
    every5.every_n = 5;
    every5.periodic_action = FaultAction::kDelay;
    periodic.SetRates(FaultPoint::kServe, every5);
    for (int op = 1; op <= 20; ++op) {
      const FaultDecision decision = periodic.Decide(FaultPoint::kServe);
      EXPECT_EQ(decision.action,
                op % 5 == 0 ? FaultAction::kDelay : FaultAction::kNone)
          << "op " << op << " seed " << seed;
    }
  }
}

// The chaos gate scripts/check.sh runs: transport-level faults injected process-wide
// at the DCP_FAULT_SEED schedule, and the replicated client must still lose zero
// requests (failover, retry, or local fallback — all bit-identical).
TEST(ReplicaSet, ChaosWorkloadLosesZeroRequests) {
  const uint64_t seed = FaultSeedFromEnv(/*fallback=*/0x646370ULL);
  SCOPED_TRACE("DCP_FAULT_SEED=" + std::to_string(seed));

  const ClusterSpec cluster = SmallCluster(2, 2);
  const EngineOptions engine_options = SmallEngineOptions(16);
  std::vector<std::unique_ptr<Member>> fleet;
  std::vector<ServiceAddress> addresses;
  for (int i = 0; i < 3; ++i) {
    fleet.push_back(std::make_unique<Member>(cluster, engine_options));
    addresses.push_back(fleet.back()->server->bound_address());
  }

  // Armed only after the fleet is up, disarmed on every exit path.
  struct ChaosGuard {
    explicit ChaosGuard(uint64_t seed)
        : injector(std::make_shared<FaultInjector>(seed)) {
      FaultRates transport;
      transport.fail = 0.05;
      transport.tear = 0.05;
      transport.tear_bytes = 6;
      injector->SetRates(FaultPoint::kSend, transport);
      injector->SetRates(FaultPoint::kRecv, transport);
      FaultRates connect;
      connect.fail = 0.05;
      injector->SetRates(FaultPoint::kConnect, connect);
      InstallGlobalFaultInjector(injector);
    }
    ~ChaosGuard() { InstallGlobalFaultInjector(nullptr); }
    std::shared_ptr<FaultInjector> injector;
  } chaos(seed);

  ReplicaSetOptions options;
  options.tenant = "prod";
  options.cache_capacity = 0;       // Every request re-runs the full fault gauntlet.
  options.connect_timeout_ms = 500;
  options.request_timeout_ms = 2000;
  options.retry.max_attempts = 2;   // Per-replica retry underneath set-level failover.
  options.local_fallback = true;    // The last-resort guarantee under test.
  options.fallback_cluster = cluster;
  options.fallback_options = engine_options;
  auto set = ReplicaSet::Create(addresses, options).value();

  Engine local(cluster, engine_options);
  int served = 0;
  for (int i = 0; i < 40; ++i) {
    const std::vector<int64_t> seqlens = {48 + 4 * (i % 5), 32 + (i % 3)};
    const MaskSpec mask = MaskSpec::Causal();
    StatusOr<PlanHandle> plan = set->Plan(seqlens, mask);
    ASSERT_TRUE(plan.ok()) << "request " << i << " lost under chaos seed " << seed
                           << ": " << plan.status().ToString();
    EXPECT_EQ(Timeless(plan.value()->plan),
              Timeless(local.Plan(seqlens, mask).value()->plan))
        << "request " << i << " diverged under chaos seed " << seed;
    ++served;
  }
  EXPECT_EQ(served, 40);
  EXPECT_GT(chaos.injector->decisions(), 0);
}

}  // namespace
}  // namespace dcp
