// Clean dispatch fixture: every request has an arm and a produced reply;
// every non-request enumerator is produced somewhere.
#pragma once

#include <cstdint>

namespace dcp {

enum class FrameType : uint8_t {
  kPlanRequest = 1,
  kPlanResponse = 2,
  kError = 5,
  kMetricsRequest = 8,
  kMetricsResponse = 9,
};

}  // namespace dcp
