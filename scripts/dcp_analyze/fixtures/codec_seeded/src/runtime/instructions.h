// Seeded codec fixture: the binary plan serializer drops total_bytes and the
// plan-request view decoder drops trace_id — each direction must be flagged
// independently, anchored at the field's declaration line (trace_id once per
// request struct declaring it).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace dcp {

struct PlanStats {
  int64_t total_bytes = 0;
  int64_t num_chunks = 0;
};

struct BatchPlan {
  PlanStats stats;
};

struct PlanServiceRequest {
  std::string tenant;
  uint64_t trace_id = 0;
};

struct PlanServiceRequestView {
  std::string_view tenant;
  uint64_t trace_id = 0;
};

std::string SerializePlanBinary(const BatchPlan& plan);
bool DeserializePlanBinary(const std::string& bytes, BatchPlan* plan);
std::string SerializePlanServiceRequest(const PlanServiceRequest& request);
bool DeserializePlanServiceRequestView(std::string_view bytes,
                                       PlanServiceRequestView* request);

}  // namespace dcp
