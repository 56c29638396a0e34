// Randomized stress sweep of the full pipeline, plus plan-portability checks: a plan can
// be serialized, deserialized, and executed with identical numerics (the paper ships
// serialized plans from planner machines to workers), and hand-broken plans are rejected.
#include <utility>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/planner.h"
#include "runtime/executor.h"
#include "runtime/reference_attention.h"

namespace dcp {
namespace {

class ExecutorRandomSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorRandomSweep, RandomBatchesMatchReference) {
  Rng rng(GetParam());
  // Random geometry.
  ClusterSpec cluster;
  cluster.num_nodes = 1 + static_cast<int>(rng.NextBounded(3));
  cluster.devices_per_node = 1 + static_cast<int>(rng.NextBounded(3));
  PlannerOptions options;
  options.block_size = static_cast<int64_t>(4 + rng.NextBounded(29));
  options.num_groups = 1 + static_cast<int>(rng.NextBounded(2));
  options.heads_per_group = 1 + static_cast<int>(rng.NextBounded(3));
  options.head_dim = 4 + static_cast<int>(rng.NextBounded(3)) * 4;
  options.divisions = 1 + static_cast<int>(rng.NextBounded(5));
  const int num_seqs = 1 + static_cast<int>(rng.NextBounded(5));
  std::vector<int64_t> seqlens;
  for (int s = 0; s < num_seqs; ++s) {
    seqlens.push_back(rng.NextInt(3, 90));
  }
  // Random mask with random parameters.
  MaskSpec spec = MaskSpec::ForKind(
      AllMaskKinds()[static_cast<size_t>(rng.NextBounded(AllMaskKinds().size()))]);
  spec.sink_tokens = rng.NextInt(1, 6);
  spec.window_tokens = rng.NextInt(2, 20);
  spec.icl_block_tokens = rng.NextInt(3, 12);
  spec.num_answers = static_cast<int>(rng.NextInt(1, 4));

  std::vector<SequenceMask> masks = BuildBatchMasks(spec, seqlens);
  BatchPlan plan = PlanBatch(seqlens, masks, cluster, options);

  std::vector<SeqTensors> inputs;
  std::vector<Tensor> douts;
  const int heads = options.num_groups * options.heads_per_group;
  for (int64_t len : seqlens) {
    inputs.push_back(
        SeqTensors::Random(heads, options.num_groups, len, options.head_dim, rng));
    douts.push_back(Tensor::Random({heads, len, options.head_dim}, rng));
  }
  NumericExecutor executor(&plan, &masks);
  executor.LoadInputs(inputs);
  executor.RunForward();
  std::vector<Tensor> outputs = executor.GatherOutputs();
  executor.LoadOutputGrads(douts);
  executor.RunBackward();
  std::vector<SeqGrads> grads = executor.GatherInputGrads();
  for (size_t s = 0; s < seqlens.size(); ++s) {
    Tensor ref_out = ReferenceAttentionForward(inputs[s], masks[s]);
    ASSERT_LT(Tensor::MaxAbsDiff(outputs[s], ref_out), 1e-4f)
        << "seed " << GetParam() << " seq " << s;
    SeqGrads ref_grads = ReferenceAttentionBackward(inputs[s], masks[s], ref_out, douts[s]);
    ASSERT_LT(Tensor::MaxAbsDiff(grads[s].dq, ref_grads.dq), 3e-4f);
    ASSERT_LT(Tensor::MaxAbsDiff(grads[s].dk, ref_grads.dk), 3e-4f);
    ASSERT_LT(Tensor::MaxAbsDiff(grads[s].dv, ref_grads.dv), 3e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutorRandomSweep,
                         ::testing::Range<uint64_t>(1, 21),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(PlanPortability, DeserializedPlanExecutesIdentically) {
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  PlannerOptions options;
  options.block_size = 16;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 8;
  const std::vector<int64_t> seqlens = {55, 32, 20};
  std::vector<SequenceMask> masks = BuildBatchMasks(MaskSpec::Lambda(4, 12), seqlens);
  BatchPlan original = PlanBatch(seqlens, masks, cluster, options);
  StatusOr<BatchPlan> decoded = DeserializePlanBinary(SerializePlanBinary(original));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const BatchPlan restored = std::move(decoded).value();

  Rng rng(17);
  std::vector<SeqTensors> inputs;
  for (int64_t len : seqlens) {
    inputs.push_back(SeqTensors::Random(4, 2, len, options.head_dim, rng));
  }
  NumericExecutor a(&original, &masks);
  a.LoadInputs(inputs);
  a.RunForward();
  NumericExecutor b(&restored, &masks);
  b.LoadInputs(inputs);
  b.RunForward();
  std::vector<Tensor> out_a = a.GatherOutputs();
  std::vector<Tensor> out_b = b.GatherOutputs();
  for (size_t s = 0; s < seqlens.size(); ++s) {
    EXPECT_EQ(Tensor::MaxAbsDiff(out_a[s], out_b[s]), 0.0f);
  }
}

TEST(ExecutorFailureInjection, MissingSendIsDetectedAsDeadlock) {
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 1;
  PlannerOptions options;
  options.block_size = 16;
  options.num_groups = 1;
  options.heads_per_group = 1;
  options.head_dim = 8;
  const std::vector<int64_t> seqlens = {64};
  std::vector<SequenceMask> masks = BuildBatchMasks(MaskSpec::Causal(), seqlens);
  BatchPlan plan = PlanBatch(seqlens, masks, cluster, options);
  // Break the plan: drop every send-side CommLaunch.
  bool dropped = false;
  for (DevicePlan& dev : plan.devices) {
    auto& instrs = dev.instructions;
    for (auto it = instrs.begin(); it != instrs.end();) {
      if (it->kind == InstrKind::kCommLaunch && it->is_send) {
        it = instrs.erase(it);
        dropped = true;
      } else {
        ++it;
      }
    }
  }
  ASSERT_TRUE(dropped) << "plan unexpectedly has no communication";
  NumericExecutor executor(&plan, &masks);
  Rng rng(5);
  std::vector<SeqTensors> inputs = {SeqTensors::Random(1, 1, 64, 8, rng)};
  executor.LoadInputs(inputs);
  EXPECT_DEATH(executor.RunForward(), "deadlock");
}

TEST(PlanStats, OwnedBytesBalanceIsReported) {
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  PlannerOptions options;
  options.block_size = 16;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 8;
  const std::vector<int64_t> seqlens = {64, 64, 64, 64};
  std::vector<SequenceMask> masks = BuildBatchMasks(MaskSpec::Causal(), seqlens);
  BatchPlan plan = PlanBatch(seqlens, masks, cluster, options);
  EXPECT_GT(plan.stats.min_device_owned_bytes, 0);
  EXPECT_GE(plan.stats.max_device_owned_bytes, plan.stats.min_device_owned_bytes);
  // Four equal sequences over four devices: near-perfect memory balance.
  EXPECT_LE(static_cast<double>(plan.stats.max_device_owned_bytes),
            1.5 * static_cast<double>(plan.stats.min_device_owned_bytes));
}

}  // namespace
}  // namespace dcp
