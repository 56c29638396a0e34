// Shared randomized-plan generators for the property-based test suites: seeded random
// (seqlens, mask, cluster shape, block size) cases whose plans exercise every mask kind,
// multi-node clusters, and ragged chunk boundaries. Used by test_property_plans.cc (plan
// validity + numeric equivalence) and test_plan_store.cc (serialization round-trips and
// corruption injection). Also the one plan-equality helper (Timeless) shared by the
// tests and bench_report, and a gtest printer so failed plan comparisons stay readable.
#ifndef DCP_TESTS_PLAN_TEST_UTIL_H_
#define DCP_TESTS_PLAN_TEST_UTIL_H_

#include <ostream>
#include <vector>

#include "common/rng.h"
#include "core/planner.h"
#include "masks/mask.h"
#include "runtime/instructions.h"

namespace dcp {

// gtest's printer for BatchPlan (found by ADL): EXPECT_EQ on two plans prints their
// summaries instead of a raw byte dump.
inline void PrintTo(const BatchPlan& plan, std::ostream* os) { *os << PlanToString(plan); }

namespace plan_test {

struct GeneratedCase {
  std::vector<int64_t> seqlens;
  MaskKind mask_kind = MaskKind::kCausal;
  int64_t block_size = 16;
  int num_nodes = 1;
  int devices_per_node = 1;
  int divisions = 3;
  uint64_t planner_seed = 1;
};

inline GeneratedCase GenerateCase(Rng& rng) {
  GeneratedCase c;
  const int num_seqs = 1 + static_cast<int>(rng.NextBounded(4));
  for (int s = 0; s < num_seqs; ++s) {
    c.seqlens.push_back(8 + static_cast<int64_t>(rng.NextBounded(73)));  // 8..80.
  }
  const auto& kinds = AllMaskKinds();
  c.mask_kind = kinds[static_cast<size_t>(rng.NextBounded(kinds.size()))];
  const int64_t block_sizes[] = {8, 16, 24};
  c.block_size = block_sizes[rng.NextBounded(3)];
  c.num_nodes = 1 + static_cast<int>(rng.NextBounded(2));
  c.devices_per_node = 1 + static_cast<int>(rng.NextBounded(3));
  c.divisions = 2 + static_cast<int>(rng.NextBounded(3));
  c.planner_seed = 1 + rng.NextU64() % 1000;
  return c;
}

inline PlannerOptions MakeOptions(const GeneratedCase& c) {
  PlannerOptions options;
  options.block_size = c.block_size;
  options.num_groups = 2;
  options.heads_per_group = 2;
  options.head_dim = 8;
  options.divisions = c.divisions;
  options.seed = c.planner_seed;
  return options;
}

inline MaskSpec SmallMaskSpec(MaskKind kind) {
  MaskSpec spec = MaskSpec::ForKind(kind);
  // Shrink mask parameters so short test sequences still exercise sparsity.
  spec.sink_tokens = 4;
  spec.window_tokens = 13;
  spec.icl_block_tokens = 8;
  return spec;
}

// `plan` with planning_seconds zeroed: the one field that legitimately differs between
// two runs of the deterministic planner (wall clock), so plans from different processes,
// tiers or replicas compare with == on every other member.
inline BatchPlan Timeless(BatchPlan plan) {
  plan.stats.planning_seconds = 0.0;
  return plan;
}

}  // namespace plan_test
}  // namespace dcp

#endif  // DCP_TESTS_PLAN_TEST_UTIL_H_
