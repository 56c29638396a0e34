// Property-based differential harness for the whole planning stack: generate seeded
// random (seqlens, masks, cluster shapes, block sizes), plan each batch, and check the
// two properties every plan must satisfy regardless of what the partitioner/refinement
// internals do:
//   1. structural validity — ValidatePlan accepts the plan (block refs in range, comm
//      pairs matched, chunks partition the batch, attention tiles unique), and
//   2. numerical equivalence — executing the plan across simulated devices reproduces
//      the single-device reference attention, forward and backward.
// This is the oracle the large-k partitioner work (bucketed gain queues, parallel
// coarsening, SIMD scans) is validated against: any placement the planner emits must
// execute to the same numbers.
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/planner.h"
#include "runtime/executor.h"
#include "runtime/plan_validate.h"
#include "runtime/reference_attention.h"
#include "tests/plan_test_util.h"

namespace dcp {
namespace {

using plan_test::GeneratedCase;
using plan_test::GenerateCase;
using plan_test::MakeOptions;
using plan_test::SmallMaskSpec;
using plan_test::Timeless;

TEST(PropertyPlans, RandomizedPlansValidateAndMatchReference) {
  Rng rng(20240707);
  for (int iteration = 0; iteration < 8; ++iteration) {
    const GeneratedCase c = GenerateCase(rng);
    SCOPED_TRACE("iteration " + std::to_string(iteration) + " mask " +
                 MaskKindName(c.mask_kind) + " block " + std::to_string(c.block_size) +
                 " cluster " + std::to_string(c.num_nodes) + "x" +
                 std::to_string(c.devices_per_node) + " seqs " +
                 std::to_string(c.seqlens.size()));

    ClusterSpec cluster;
    cluster.num_nodes = c.num_nodes;
    cluster.devices_per_node = c.devices_per_node;
    const MaskSpec spec = SmallMaskSpec(c.mask_kind);
    std::vector<SequenceMask> masks = BuildBatchMasks(spec, c.seqlens);
    const PlannerOptions options = MakeOptions(c);

    BatchPlan plan = PlanBatch(c.seqlens, masks, cluster, options);

    // Property 1: structural validity, re-checked through the public validator.
    const PlanValidation validation = ValidatePlan(plan);
    ASSERT_TRUE(validation.ok) << validation.Summary();
    ASSERT_EQ(plan.num_devices(), cluster.num_devices());
    for (DeviceId home : plan.chunk_home) {
      ASSERT_GE(home, 0);
      ASSERT_LT(home, cluster.num_devices());
    }

    // Property 2: the numeric executor reproduces the single-device reference.
    Rng data_rng(1000 + static_cast<uint64_t>(iteration));
    std::vector<SeqTensors> inputs;
    std::vector<Tensor> douts;
    for (int64_t len : c.seqlens) {
      inputs.push_back(SeqTensors::Random(options.num_groups * options.heads_per_group,
                                          options.num_groups, len, options.head_dim,
                                          data_rng));
      douts.push_back(Tensor::Random(
          {options.num_groups * options.heads_per_group, len, options.head_dim},
          data_rng));
    }

    NumericExecutor executor(&plan, &masks);
    executor.LoadInputs(inputs);
    executor.RunForward();
    std::vector<Tensor> outputs = executor.GatherOutputs();
    ASSERT_EQ(outputs.size(), c.seqlens.size());
    for (size_t s = 0; s < c.seqlens.size(); ++s) {
      Tensor reference = ReferenceAttentionForward(inputs[s], masks[s]);
      EXPECT_LT(Tensor::MaxAbsDiff(outputs[s], reference), 1e-4f)
          << "forward mismatch on sequence " << s;
    }

    executor.LoadOutputGrads(douts);
    executor.RunBackward();
    std::vector<SeqGrads> grads = executor.GatherInputGrads();
    for (size_t s = 0; s < c.seqlens.size(); ++s) {
      Tensor reference = ReferenceAttentionForward(inputs[s], masks[s]);
      SeqGrads expect =
          ReferenceAttentionBackward(inputs[s], masks[s], reference, douts[s]);
      EXPECT_LT(Tensor::MaxAbsDiff(grads[s].dq, expect.dq), 2e-4f) << "dq seq " << s;
      EXPECT_LT(Tensor::MaxAbsDiff(grads[s].dk, expect.dk), 2e-4f) << "dk seq " << s;
      EXPECT_LT(Tensor::MaxAbsDiff(grads[s].dv, expect.dv), 2e-4f) << "dv seq " << s;
    }
  }
}

TEST(PropertyPlans, PlansAreDeterministicAndSerializable) {
  // Same inputs => member-wise identical plans, and the binary round trip preserves
  // every member.
  Rng rng(77);
  const GeneratedCase c = GenerateCase(rng);
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  std::vector<SequenceMask> masks = BuildBatchMasks(SmallMaskSpec(c.mask_kind), c.seqlens);
  const PlannerOptions options = MakeOptions(c);

  const BatchPlan first = Timeless(PlanBatch(c.seqlens, masks, cluster, options));
  const BatchPlan second = Timeless(PlanBatch(c.seqlens, masks, cluster, options));
  EXPECT_EQ(first, second);

  StatusOr<BatchPlan> round_trip = DeserializePlanBinary(SerializePlanBinary(first));
  ASSERT_TRUE(round_trip.ok()) << round_trip.status().ToString();
  EXPECT_EQ(round_trip.value(), first);
  EXPECT_TRUE(ValidatePlan(round_trip.value()).ok);
}

}  // namespace
}  // namespace dcp
