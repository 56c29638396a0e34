// DcpDataLoader concurrency invariants (paper §6.1): look-ahead planning on a thread
// pool must be invisible in the results. For any planner_threads setting the loader
// must deliver the identical sequence of PlannedIterations (same batches, same plans,
// byte-for-byte), and the look-ahead window must never be exceeded — planning overlaps
// execution, it does not run ahead of the configured kappa.
#include "core/dataloader.h"

#include <vector>

#include <gtest/gtest.h>

#include "tests/plan_test_util.h"

namespace dcp {
namespace {

DatasetConfig SmallDataset() {
  DatasetConfig config;
  config.kind = DatasetKind::kLongDataCollections;
  config.max_seq_len = 1024;
  config.min_seq_len = 64;
  config.seed = 91;
  return config;
}

PlannerOptions SmallPlanner() {
  PlannerOptions options;
  options.block_size = 128;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 16;
  return options;
}

// One loader's first `iterations` results, as (seqlens, timeless plan) pairs.
struct IterationRecord {
  std::vector<int64_t> seqlens;
  BatchPlan plan;

  bool operator==(const IterationRecord&) const = default;
};

std::vector<IterationRecord> Drain(int planner_threads, int lookahead, int iterations) {
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  BatchingConfig batching;
  batching.token_budget = 2048;
  DcpDataLoader loader(BatchStream{LengthSampler(SmallDataset()), batching},
                       MaskSpec::Causal(), cluster, SmallPlanner(), lookahead,
                       planner_threads);
  std::vector<IterationRecord> records;
  for (int i = 0; i < iterations; ++i) {
    // The window is full after construction and refilled after every Next(): pending
    // plans never exceed lookahead + 1 (the +1 being the iteration about to be consumed).
    EXPECT_LE(loader.PendingPlans(), lookahead + 1)
        << "lookahead window exceeded at iteration " << i;
    PlannedIteration it = loader.Next();
    // Wall clock is the one legitimately thread-dependent field.
    records.push_back({it.batch.seqlens, plan_test::Timeless(it.plan())});
    EXPECT_LE(loader.PendingPlans(), lookahead + 1);
  }
  return records;
}

TEST(DcpDataLoaderConcurrency, IdenticalIterationsForAnyPlannerThreads) {
  const int kIterations = 5;
  const std::vector<IterationRecord> one = Drain(/*planner_threads=*/1, /*lookahead=*/2,
                                                 kIterations);
  ASSERT_EQ(static_cast<int>(one.size()), kIterations);
  for (int threads : {2, 4}) {
    const std::vector<IterationRecord> many = Drain(threads, /*lookahead=*/2, kIterations);
    ASSERT_EQ(one.size(), many.size());
    for (size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(one[i].seqlens, many[i].seqlens)
          << "batch diverged at iteration " << i << " with " << threads << " threads";
      EXPECT_EQ(one[i].plan, many[i].plan)
          << "plan diverged at iteration " << i << " with " << threads << " threads";
    }
  }
}

TEST(DcpDataLoaderConcurrency, LookaheadWindowIsExactAndBounded) {
  ClusterSpec cluster;
  cluster.num_nodes = 1;
  cluster.devices_per_node = 2;
  BatchingConfig batching;
  batching.token_budget = 1024;
  for (int lookahead : {0, 1, 3}) {
    DcpDataLoader loader(BatchStream{LengthSampler(SmallDataset()), batching},
                         MaskSpec::Causal(), cluster, SmallPlanner(), lookahead,
                         /*planner_threads=*/2);
    EXPECT_EQ(loader.PendingPlans(), lookahead + 1);
    for (int i = 0; i < 3; ++i) {
      (void)loader.Next();
      EXPECT_EQ(loader.PendingPlans(), lookahead + 1) << "after Next() " << i;
    }
  }
}

}  // namespace
}  // namespace dcp
