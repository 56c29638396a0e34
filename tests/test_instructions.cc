#include "runtime/instructions.h"

#include <gtest/gtest.h>

#include "core/planner.h"
#include "masks/mask.h"
#include "tests/plan_test_util.h"

namespace dcp {
namespace {

BatchPlan MakeTestPlan() {
  ClusterSpec cluster;
  cluster.num_nodes = 2;
  cluster.devices_per_node = 2;
  const std::vector<int64_t> seqlens = {40, 23, 64};
  MaskSpec spec = MaskSpec::SharedQuestion();
  std::vector<SequenceMask> masks = BuildBatchMasks(spec, seqlens);
  PlannerOptions options;
  options.block_size = 16;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 8;
  return PlanBatch(seqlens, masks, cluster, options);
}

TEST(PlanSerialization, RoundTripPreservesEverything) {
  BatchPlan plan = MakeTestPlan();
  // Distinct values for fields a small plan leaves at zero, so a codec that dropped
  // them could not pass by accident.
  plan.stats.max_device_owned_bytes = 12345;
  plan.stats.min_device_owned_bytes = 678;
  plan.stats.planning_seconds = 0.125;
  const std::string bytes = SerializePlanBinary(plan);
  StatusOr<BatchPlan> restored = DeserializePlanBinary(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value(), plan);
  // The binary form re-serializes bit-identically.
  EXPECT_EQ(SerializePlanBinary(restored.value()), bytes);
}

// Plan equality is the round-trip oracle, so it must see a change at every nesting
// level: layout, stats, chunk homes, slots, local chunks, and each instruction item.
TEST(PlanSerialization, EqualityCoversEveryNestedMember) {
  const BatchPlan plan = plan_test::Timeless(MakeTestPlan());
  ASSERT_EQ(plan, plan_test::Timeless(MakeTestPlan()));
  const auto differs = [&plan](auto mutate) {
    BatchPlan copy = plan;
    mutate(copy);
    return !(copy == plan);
  };
  // The first instruction on any device whose `items` vector is non-empty.
  const auto first_with = [](BatchPlan& p, auto items) -> Instruction& {
    for (DevicePlan& dev : p.devices) {
      for (Instruction& instr : dev.instructions) {
        if (!(instr.*items).empty()) {
          return instr;
        }
      }
    }
    return p.devices[0].instructions[0];
  };
  EXPECT_TRUE(differs([](BatchPlan& p) { p.layout.head_dim += 1; }));
  EXPECT_TRUE(differs([](BatchPlan& p) { p.stats.partition_cost += 1.0; }));
  EXPECT_TRUE(differs([](BatchPlan& p) { p.chunk_home.back() += 1; }));
  EXPECT_TRUE(differs([](BatchPlan& p) { p.devices[0].num_slots[0] += 1; }));
  EXPECT_TRUE(differs([](BatchPlan& p) { p.devices[0].local_chunks[0].kv_slot += 1; }));
  EXPECT_TRUE(differs([](BatchPlan& p) { p.devices[0].instructions[0].host_overhead = 1; }));
  EXPECT_TRUE(differs([&](BatchPlan& p) {
    first_with(p, &Instruction::attn_items).attn_items.at(0).dkv.slot += 1;
  }));
  EXPECT_TRUE(differs([&](BatchPlan& p) {
    first_with(p, &Instruction::reduce_items).reduce_items.at(0).token_count += 1;
  }));
  EXPECT_TRUE(differs([&](BatchPlan& p) {
    first_with(p, &Instruction::blocks).blocks.at(0).bytes += 1;
  }));
  EXPECT_TRUE(differs([](BatchPlan& p) {
    p.devices[0].instructions[0].copy_items.push_back(CopyItem{});
  }));
}

TEST(PlanToString, MentionsDevicesAndInstructionKinds) {
  BatchPlan plan = MakeTestPlan();
  const std::string text = PlanToString(plan);
  EXPECT_NE(text.find("BatchPlan: 4 devices"), std::string::npos);
  EXPECT_NE(text.find("device 0"), std::string::npos);
  EXPECT_NE(text.find("BlockwiseAttention"), std::string::npos);
}

TEST(Names, AllEnumsHaveNames) {
  EXPECT_EQ(BufKindName(BufKind::kQ), "Q");
  EXPECT_EQ(BufKindName(BufKind::kDKV), "dKV");
  EXPECT_EQ(InstrKindName(InstrKind::kCommLaunch), "CommLaunch");
  EXPECT_EQ(ReduceModeName(ReduceMode::kFinalize), "Finalize");
}

}  // namespace
}  // namespace dcp
