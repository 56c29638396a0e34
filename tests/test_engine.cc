// The session Engine: plan signatures (canonical fingerprints never alias across
// distinct requests), the sharded LRU compiled-plan cache (hit/miss/eviction accounting,
// cached plans bit-identical to fresh ones), recoverable Status errors on user-input
// paths, AutoTune's per-signature winner table, and the executor's incremental prepare
// (device buffers reused across equal signatures).
#include "core/engine.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/api.h"
#include "runtime/reference_attention.h"
#include "tests/plan_test_util.h"

namespace dcp {
namespace {

using plan_test::Timeless;

EngineOptions SmallEngineOptions() {
  EngineOptions options;
  options.planner.block_size = 16;
  options.planner.num_groups = 2;
  options.planner.heads_per_group = 2;
  options.planner.head_dim = 8;
  options.planner_threads = 1;
  return options;
}

ClusterSpec SmallCluster() {
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  return cluster;
}

TEST(PlanSignature, DistinctMaskKindsWithIdenticalSeqlensNeverAlias) {
  const std::vector<int64_t> seqlens = {48, 33, 24};
  const ClusterSpec cluster = SmallCluster();
  const PlannerOptions options = SmallEngineOptions().planner;

  std::vector<PlanSignature> signatures;
  for (MaskKind kind : AllMaskKinds()) {
    signatures.push_back(
        ComputePlanSignature(seqlens, MaskSpec::ForKind(kind), cluster, options));
  }
  for (size_t a = 0; a < signatures.size(); ++a) {
    EXPECT_FALSE(signatures[a].IsZero());
    for (size_t b = a + 1; b < signatures.size(); ++b) {
      EXPECT_FALSE(signatures[a] == signatures[b])
          << MaskKindName(AllMaskKinds()[a]) << " vs " << MaskKindName(AllMaskKinds()[b]);
    }
  }
}

TEST(PlanSignature, NanAndSignedZeroCanonicalizeBeforeHashing) {
  // Semantically identical configs must share a signature even when a cost-model field
  // is NaN: every NaN payload (and sign) folds to one canonical bit pattern, and -0.0
  // folds to 0.0. Distinct real values still hash apart.
  const std::vector<int64_t> seqlens = {48, 33, 24};
  const PlannerOptions options = SmallEngineOptions().planner;
  auto sig_with_hbm = [&](double hbm_gbps) {
    ClusterSpec cluster = SmallCluster();
    cluster.hbm_gbps = hbm_gbps;
    return ComputePlanSignature(seqlens, MaskSpec::Causal(), cluster, options);
  };

  const PlanSignature nan_a = sig_with_hbm(std::nan("1"));
  const PlanSignature nan_b = sig_with_hbm(std::nan("0x7ffff"));
  const PlanSignature nan_c = sig_with_hbm(-std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(nan_a, nan_b);
  EXPECT_EQ(nan_a, nan_c);
  EXPECT_FALSE(nan_a == sig_with_hbm(1555.0));

  EXPECT_EQ(sig_with_hbm(0.0), sig_with_hbm(-0.0));
  EXPECT_FALSE(sig_with_hbm(0.0) == sig_with_hbm(1.0));
}

TEST(PlanSignature, EveryIdentityFieldChangesTheDigest) {
  const std::vector<int64_t> seqlens = {48, 33, 24};
  const ClusterSpec cluster = SmallCluster();
  const PlannerOptions options = SmallEngineOptions().planner;
  const PlanSignature base =
      ComputePlanSignature(seqlens, MaskSpec::Causal(), cluster, options);

  // Same spec => same signature (the cache key is a pure function of the request).
  EXPECT_EQ(base, ComputePlanSignature(seqlens, MaskSpec::Causal(), cluster, options));

  // Sequence order is identity: plans index sequences positionally.
  EXPECT_FALSE(base == ComputePlanSignature({33, 48, 24}, MaskSpec::Causal(), cluster,
                                            options));

  // Mask parameters beyond the kind are identity.
  EXPECT_FALSE(ComputePlanSignature(seqlens, MaskSpec::Lambda(4, 13), cluster, options) ==
               ComputePlanSignature(seqlens, MaskSpec::Lambda(4, 14), cluster, options));

  PlannerOptions other_block = options;
  other_block.block_size = 24;
  EXPECT_FALSE(base == ComputePlanSignature(seqlens, MaskSpec::Causal(), cluster,
                                            other_block));

  PlannerOptions other_seed = options;
  other_seed.seed = 2;
  EXPECT_FALSE(base == ComputePlanSignature(seqlens, MaskSpec::Causal(), cluster,
                                            other_seed));

  ClusterSpec other_cluster = cluster;
  other_cluster.devices_per_node = 4;
  EXPECT_FALSE(base == ComputePlanSignature(seqlens, MaskSpec::Causal(), other_cluster,
                                            options));

  // The tune signature keys the search, not one block size: it must differ from every
  // fixed-block signature and react to the candidate list.
  const PlanSignature tune = ComputeTuneSignature(seqlens, MaskSpec::Causal(), cluster,
                                                  options, {16, 24});
  EXPECT_FALSE(tune == base);
  EXPECT_FALSE(tune == ComputeTuneSignature(seqlens, MaskSpec::Causal(), cluster, options,
                                            {16, 32}));
}

TEST(Engine, CacheHitReturnsTheSameHandleAndCountsAccounting) {
  Engine engine(SmallCluster(), SmallEngineOptions());
  const std::vector<int64_t> seqlens = {40, 25};

  const PlanHandle first = engine.Plan(seqlens, MaskSpec::Causal()).value();
  const PlanHandle second = engine.Plan(seqlens, MaskSpec::Causal()).value();
  EXPECT_EQ(first.get(), second.get()) << "repeat plan must be served from the cache";

  // Distinct mask, same seqlens: distinct signature, so a miss — and its plan differs.
  const PlanHandle lambda = engine.Plan(seqlens, MaskSpec::Lambda(4, 13)).value();
  EXPECT_NE(first.get(), lambda.get());

  const PlanCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.evictions, 0);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 1.0 / 3.0);
}

TEST(Engine, CachedPlansAreBitIdenticalToFreshPlans) {
  Engine engine(SmallCluster(), SmallEngineOptions());
  const std::vector<int64_t> seqlens = {48, 33, 24, 17};

  for (MaskKind kind : AllMaskKinds()) {
    const MaskSpec spec = MaskSpec::ForKind(kind);
    const PlanHandle cold = engine.Plan(seqlens, spec).value();
    const PlanHandle hit = engine.Plan(seqlens, spec).value();
    ASSERT_EQ(cold.get(), hit.get());

    // Differential check against the paper-facade free function (the cold path the
    // Engine wraps): the cached plan serializes byte-for-byte like a fresh plan.
    const std::vector<SequenceMask> masks = BuildBatchMasks(spec, seqlens);
    const BatchPlan fresh =
        PlanBatch(seqlens, masks, SmallCluster(), SmallEngineOptions().planner);
    EXPECT_EQ(Timeless(hit->plan), Timeless(fresh))
        << "cached plan diverged from fresh plan for mask " << MaskKindName(kind);
  }
}

TEST(Engine, LruEvictsOldestAndRecountsThemAsMisses) {
  EngineOptions options = SmallEngineOptions();
  options.plan_cache_capacity = 2;
  options.plan_cache_shards = 1;  // One shard so the LRU order is globally observable.
  Engine engine(SmallCluster(), options);

  const std::vector<int64_t> a = {40}, b = {41}, c = {42};
  const PlanHandle first_a = engine.Plan(a, MaskSpec::Causal()).value();
  (void)engine.Plan(b, MaskSpec::Causal()).value();
  (void)engine.Plan(c, MaskSpec::Causal()).value();  // Evicts a.

  PlanCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.entries, 2);
  EXPECT_EQ(stats.evictions, 1);
  EXPECT_EQ(stats.misses, 3);

  // `a` was evicted: replanning it is a miss and yields a fresh (but equal) handle.
  const PlanHandle again_a = engine.Plan(a, MaskSpec::Causal()).value();
  EXPECT_NE(first_a.get(), again_a.get());
  EXPECT_EQ(Timeless(first_a->plan), Timeless(again_a->plan));
  stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.evictions, 2);  // Planting `a` again evicted `b`.

  // `c` stayed resident through all of it.
  const int64_t hits_before = stats.hits;
  (void)engine.Plan(c, MaskSpec::Causal()).value();
  EXPECT_EQ(engine.cache_stats().hits, hits_before + 1);
}

TEST(Engine, CapacityIsAnExactBoundAcrossShards) {
  EngineOptions options = SmallEngineOptions();
  options.plan_cache_capacity = 2;
  options.plan_cache_shards = 4;  // More shards than capacity: clamped, never overshoots.
  Engine engine(SmallCluster(), options);
  for (int64_t len = 40; len < 48; ++len) {
    (void)engine.Plan({len}, MaskSpec::Causal()).value();
    EXPECT_LE(engine.cache_stats().entries, 2) << "after planning length " << len;
  }
}

TEST(Engine, DisabledCacheStillCountsMisses) {
  EngineOptions options = SmallEngineOptions();
  options.plan_cache_capacity = 0;
  Engine engine(SmallCluster(), options);
  const PlanHandle a = engine.Plan({40}, MaskSpec::Causal()).value();
  const PlanHandle b = engine.Plan({40}, MaskSpec::Causal()).value();
  EXPECT_NE(a.get(), b.get()) << "nothing may be cached at capacity 0";
  EXPECT_EQ(Timeless(a->plan), Timeless(b->plan));
  const PlanCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 2);  // Truthful accounting even when the cache is disabled.
  EXPECT_EQ(stats.entries, 0);
}

TEST(Engine, TuneWinnerTableIsBounded) {
  EngineOptions options = SmallEngineOptions();
  options.tune_block_sizes = {8, 16};
  options.tune_cache_capacity = 2;
  Engine engine(SmallCluster(), options);
  // Three distinct tune signatures through a capacity-2 table: the first is evicted.
  (void)engine.AutoTune({40}, MaskSpec::Causal()).value();
  (void)engine.AutoTune({41}, MaskSpec::Causal()).value();
  (void)engine.AutoTune({42}, MaskSpec::Causal()).value();
  EXPECT_EQ(engine.cache_stats().tune_misses, 3);
  const AutoTuneResult evicted = engine.AutoTune({40}, MaskSpec::Causal()).value();
  EXPECT_FALSE(evicted.tuned_from_cache);
  EXPECT_EQ(engine.cache_stats().tune_misses, 4);
  const AutoTuneResult resident = engine.AutoTune({42}, MaskSpec::Causal()).value();
  EXPECT_TRUE(resident.tuned_from_cache);
}

TEST(Engine, UserInputErrorsAreRecoverableStatuses) {
  Engine engine(SmallCluster(), SmallEngineOptions());

  StatusOr<PlanHandle> empty = engine.Plan({}, MaskSpec::Causal());
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  StatusOr<PlanHandle> negative = engine.Plan({32, -5}, MaskSpec::Causal());
  ASSERT_FALSE(negative.ok());
  EXPECT_NE(negative.status().message().find("seqlens[1]"), std::string::npos)
      << negative.status().ToString();

  StatusOr<PlanHandle> bad_block = engine.PlanWithBlockSize({32}, MaskSpec::Causal(), 0);
  ASSERT_FALSE(bad_block.ok());
  EXPECT_EQ(bad_block.status().code(), StatusCode::kInvalidArgument);

  MaskSpec bad_shared = MaskSpec::SharedQuestion(/*num_answers=*/4,
                                                 /*answer_fraction=*/0.5);
  StatusOr<PlanHandle> bad_mask = engine.Plan({32}, bad_shared);
  ASSERT_FALSE(bad_mask.ok());
  EXPECT_EQ(bad_mask.status().code(), StatusCode::kInvalidArgument);

  ClusterSpec bad_cluster;
  bad_cluster.num_nodes = 0;
  Engine bad_engine(bad_cluster, SmallEngineOptions());
  StatusOr<PlanHandle> bad = bad_engine.Plan({32}, MaskSpec::Causal());
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  // Errors never touch the cache.
  EXPECT_EQ(engine.cache_stats().hits + engine.cache_stats().misses, 0);
}

TEST(Engine, AutoTunePicksACandidateAndCachesTheWinner) {
  EngineOptions options = SmallEngineOptions();
  options.tune_block_sizes = {8, 16, 32};
  Engine engine(SmallCluster(), options);
  const std::vector<int64_t> seqlens = {48, 33, 24};

  const AutoTuneResult cold = engine.AutoTune(seqlens, MaskSpec::Causal()).value();
  EXPECT_FALSE(cold.tuned_from_cache);
  ASSERT_EQ(cold.candidates.size(), 3u);
  EXPECT_TRUE(cold.best_block_size == 8 || cold.best_block_size == 16 ||
              cold.best_block_size == 32);
  EXPECT_EQ(cold.plan->plan.layout.block_size, cold.best_block_size);
  // The winner sits in the plan cache under its fixed-block signature.
  const PlanHandle replanned =
      engine.PlanWithBlockSize(seqlens, MaskSpec::Causal(), cold.best_block_size).value();
  EXPECT_EQ(cold.plan.get(), replanned.get());

  const AutoTuneResult warm = engine.AutoTune(seqlens, MaskSpec::Causal()).value();
  EXPECT_TRUE(warm.tuned_from_cache);
  EXPECT_EQ(warm.best_block_size, cold.best_block_size);
  EXPECT_EQ(warm.plan.get(), cold.plan.get());

  const PlanCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.tune_misses, 1);
  EXPECT_EQ(stats.tune_hits, 1);
}

TEST(DcpExecutorIncremental, ReusesBuffersAcrossEqualSignaturesAndStaysCorrect) {
  Engine engine(SmallCluster(), SmallEngineOptions());
  const std::vector<int64_t> seqlens = {40, 25, 18};
  const PlanHandle handle = engine.Plan(seqlens, MaskSpec::Causal()).value();

  DcpExecutor executor;
  executor.Prepare(handle);
  EXPECT_EQ(executor.prepare_count(), 1);
  EXPECT_EQ(executor.buffer_reuse_count(), 0);

  Rng rng(9);
  auto run_and_check = [&]() {
    std::vector<SeqTensors> inputs;
    for (int64_t len : seqlens) {
      inputs.push_back(SeqTensors::Random(4, 2, len, 8, rng));
    }
    std::vector<Tensor> outputs = DcpAttention::Forward(executor, inputs);
    for (size_t s = 0; s < inputs.size(); ++s) {
      Tensor reference = ReferenceAttentionForward(inputs[s], handle->masks[s]);
      EXPECT_LT(Tensor::MaxAbsDiff(outputs[s], reference), 1e-4f) << "sequence " << s;
    }
  };
  run_and_check();

  // Same signature (cache hit of the same batch): buffers reused, results still exact.
  executor.Prepare(engine.Plan(seqlens, MaskSpec::Causal()).value());
  EXPECT_EQ(executor.buffer_reuse_count(), 1);
  run_and_check();

  // A different signature (new block size) must rebuild the buffers.
  const PlanHandle other =
      engine.PlanWithBlockSize(seqlens, MaskSpec::Causal(), 24).value();
  executor.Prepare(other);
  EXPECT_EQ(executor.buffer_reuse_count(), 1);
  EXPECT_EQ(executor.prepare_count(), 3);

  // The paper-facade Prepare carries no signature: never reused, still correct.
  executor.Prepare(handle->plan, handle->masks);
  executor.Prepare(handle->plan, handle->masks);
  EXPECT_EQ(executor.buffer_reuse_count(), 1);
  run_and_check();
}

TEST(DcpExecutorIncremental, HandlesOutliveTheEngineAndTheCache) {
  // Plans are shared immutable values: a handle stays valid after eviction and even
  // after the engine itself is gone (the lookahead queue depends on this).
  PlanHandle handle;
  {
    EngineOptions options = SmallEngineOptions();
    options.plan_cache_capacity = 1;
    options.plan_cache_shards = 1;
    Engine engine(SmallCluster(), options);
    handle = engine.Plan({40, 25}, MaskSpec::Causal()).value();
    (void)engine.Plan({41}, MaskSpec::Causal()).value();  // Evicts the first plan.
  }
  EXPECT_TRUE(ValidatePlanRequest({40, 25}, MaskSpec::Causal(), SmallCluster(),
                                  SmallEngineOptions().planner)
                  .ok());
  DcpExecutor executor;
  executor.Prepare(handle);
  EXPECT_TRUE(executor.ready());
  EXPECT_EQ(executor.plan().layout.seqlens, (std::vector<int64_t>{40, 25}));
}

TEST(EngineCacheStats, CoherentUnderConcurrentPlanCallers) {
  // Service worker threads hammer Plan() while another thread polls cache_stats().
  // The snapshot must be coherent (all shard locks held at once): lookups never run
  // backwards between snapshots, entries never exceed capacity, and the final counters
  // account for every call exactly.
  ClusterSpec cluster;
  cluster.num_nodes = 1;
  cluster.devices_per_node = 2;
  EngineOptions options = SmallEngineOptions();
  options.plan_cache_capacity = 8;
  options.plan_cache_shards = 4;
  Engine engine(cluster, options);

  constexpr int kThreads = 4;
  constexpr int kItersPerThread = 40;
  constexpr int kDistinctShapes = 12;  // > capacity: constant eviction churn.

  std::atomic<bool> stop{false};
  std::atomic<int> poll_failures{0};
  std::thread poller([&] {
    int64_t last_lookups = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const PlanCacheStats stats = engine.cache_stats();
      const int64_t lookups = stats.hits + stats.misses;
      if (lookups < last_lookups || stats.entries < 0 ||
          stats.entries > options.plan_cache_capacity || stats.hits < 0 ||
          stats.misses < 0 || stats.evictions < 0) {
        ++poll_failures;
      }
      last_lookups = lookups;
    }
  });

  std::vector<std::thread> planners;
  for (int t = 0; t < kThreads; ++t) {
    planners.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const int shape = (t * kItersPerThread + i) % kDistinctShapes;
        const std::vector<int64_t> seqlens = {48 + 8 * shape, 32};
        StatusOr<PlanHandle> plan = engine.Plan(seqlens, MaskSpec::Causal());
        ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      }
    });
  }
  for (std::thread& thread : planners) {
    thread.join();
  }
  stop.store(true, std::memory_order_release);
  poller.join();

  EXPECT_EQ(poll_failures.load(), 0);
  const PlanCacheStats final_stats = engine.cache_stats();
  EXPECT_EQ(final_stats.hits + final_stats.misses, kThreads * kItersPerThread);
  EXPECT_LE(final_stats.entries, options.plan_cache_capacity);
  // Every cached-then-evicted plan came from a miss that won its insert race.
  EXPECT_LE(final_stats.entries + final_stats.evictions, final_stats.misses);
}

}  // namespace
}  // namespace dcp
