#include "runtime/instructions.h"

namespace dcp {

std::string SerializePlanBinary(const BatchPlan& plan) {
  std::string out;
  out += std::to_string(plan.stats.total_bytes);
  out += std::to_string(plan.stats.num_chunks);
  return out;
}

bool DeserializePlanBinary(const std::string& bytes, BatchPlan* plan) {
  plan->stats.total_bytes = 0;
  plan->stats.num_chunks = 0;
  (void)bytes;
  return true;
}

std::string SerializePlanServiceRequest(const PlanServiceRequest& request) {
  std::string out = request.tenant;
  out += std::to_string(request.trace_id);
  return out;
}

bool DeserializePlanServiceRequestView(std::string_view bytes,
                                       PlanServiceRequestView* request) {
  request->tenant = bytes;
  request->trace_id = 0;
  return true;
}

}  // namespace dcp
