#include <string>
#include <vector>

#include "bench_util.h"
#include "core/block_gen.h"
#include "core/hypergraph_build.h"
#include "core/placement.h"
#include "core/plan_compile.h"
#include "core/schedule.h"
#include "masks/mask.h"
#include "runtime/plan_validate.h"

namespace perfbench {

StageReplay::StageReplay(const dcp::ClusterSpec& cluster,
                         const dcp::PlannerOptions& options, const std::string& store_dir,
                         SpanRecorder& spans, Checks& checks)
    : cluster_(cluster), options_(options), spans_(spans), checks_(checks) {
  if (store_dir.empty()) return;
  ResetDir(store_dir);
  dcp::StatusOr<std::unique_ptr<dcp::PlanStore>> opened = dcp::PlanStore::Open(store_dir);
  checks_.Expect(opened.ok(), "replay store open: " + opened.status().ToString());
  if (opened.ok()) store_ = std::move(opened).value();
}

StageReplay::~StageReplay() = default;

std::string StageReplay::Replay(const std::vector<int64_t>& seqlens,
                                const dcp::MaskSpec& mask, const dcp::PlanSignature& sig,
                                const dcp::BatchPlan& engine_plan, uint64_t request) {
  SpanRecorder& spans = spans_;
  const int64_t root = spans.Add(Span{"batch", "", request, -1, NowNs(), 0});
  const std::vector<dcp::SequenceMask> masks = Timed(
      spans, "masks", request, root, [&] { return dcp::BuildBatchMasks(mask, seqlens); });
  const dcp::BlockGraph graph = Timed(spans, "block_gen", request, root, [&] {
    return dcp::GenerateBlocks(options_.MakeLayout(seqlens), masks);
  });
  const dcp::BuiltHypergraph built = Timed(
      spans, "hypergraph_build", request, root,
      [&] { return dcp::BuildPlacementHypergraph(graph); });
  // The same placement options PlanBatch derives from the planner options.
  dcp::PlacementOptions placement_options;
  placement_options.num_nodes = cluster_.num_nodes;
  placement_options.devices_per_node = cluster_.devices_per_node;
  placement_options.eps_inter = options_.eps_inter;
  placement_options.eps_intra = options_.eps_intra;
  placement_options.eps_data = options_.eps_data;
  placement_options.hierarchical = options_.hierarchical;
  placement_options.use_multilevel = options_.use_multilevel;
  placement_options.seed = options_.seed;
  placement_options.vcycles = options_.partition_vcycles;
  placement_options.vcycle_iterations = options_.partition_vcycle_iterations;
  placement_options.refinement_passes = options_.partition_refinement_passes;
  placement_options.initial_tries = options_.partition_initial_tries;
  placement_options.coarsen_until_per_part = options_.partition_coarsen_until_per_part;
  placement_options.coarsening_grain = options_.partition_coarsening_grain;
  const dcp::PlacementResult placement = Timed(spans, "placement", request, root, [&] {
    return dcp::PlaceBlocks(graph, built, placement_options);
  });
  dcp::ScheduleOptions schedule_options;
  schedule_options.divisions = options_.divisions;
  const dcp::ScheduleResult schedule = Timed(spans, "schedule", request, root, [&] {
    return dcp::ScheduleBlocks(graph, placement, cluster_.num_devices(), schedule_options);
  });
  dcp::BatchPlan plan = Timed(spans, "plan_compile", request, root, [&] {
    return dcp::CompilePlan(graph, placement, schedule, cluster_);
  });
  plan.stats.partition_cost = placement.device_level_cost;
  const dcp::PlanValidation validation = Timed(
      spans, "plan_validate", request, root, [&] { return dcp::ValidatePlan(plan); });
  checks_.Expect(validation.ok, "composed plan fails ValidatePlan: " + validation.Summary());
  if (store_ != nullptr) {
    const dcp::Status put = Timed(spans, "plan_store.put", request, root,
                                  [&] { return store_->Put(sig, plan); });
    checks_.Expect(put.ok(), "PlanStore::Put: " + put.ToString());
  }
  spans.SetEnd(root, NowNs());
  coarsen_ms_.push_back(placement.stages.coarsen * 1e3);
  initial_ms_.push_back(placement.stages.initial * 1e3);
  refine_ms_.push_back(placement.stages.refine * 1e3);

  // planning_seconds is wall time: carry the engine's value so it cancels out.
  plan.stats.planning_seconds = engine_plan.stats.planning_seconds;
  std::string record = dcp::PlanStore::EncodeRecord(sig, plan);
  checks_.Expect(record == dcp::PlanStore::EncodeRecord(sig, engine_plan),
                 "composed plan differs from Engine::Plan on request " +
                     std::to_string(request));
  return record;
}

void StageReplay::Emit(Report& report) const {
  const auto p50 = [&](const char* span) { return Percentile(spans_.DurationsMs(span), 50); };
  report.Set("masks.ms_p50", p50("masks"), "ms");
  report.Set("block_gen.ms_p50", p50("block_gen"), "ms");
  report.Set("hypergraph_build.ms_p50", p50("hypergraph_build"), "ms");
  report.Set("placement.ms_p50", p50("placement"), "ms");
  report.Set("placement.coarsen_ms_p50", Percentile(coarsen_ms_, 50), "ms");
  report.Set("placement.initial_ms_p50", Percentile(initial_ms_, 50), "ms");
  report.Set("placement.refine_ms_p50", Percentile(refine_ms_, 50), "ms");
  report.Set("schedule.ms_p50", p50("schedule"), "ms");
  report.Set("plan_compile.ms_p50", p50("plan_compile"), "ms");
  report.Set("plan_validate.ms_p50", p50("plan_validate"), "ms");
  // 0 when the workload has no store: the layer is not exercised.
  report.Set("plan_store.put_ms_p50", p50("plan_store.put"), "ms");
}

}  // namespace perfbench
