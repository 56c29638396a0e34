#include "service/frame.h"

namespace dcp {

void Handle(FrameType type) {
  switch (type) {
    case FrameType::kPlanRequest:
      Send(FrameType::kPlanResponse);
      break;
    case FrameType::kMetricsRequest:
      Send(FrameType::kMetricsResponse);
      break;
    default:
      Send(FrameType::kError);
      break;
  }
}

}  // namespace dcp
