// Wire framing for the planning service: every message travels as one
// length-prefixed, CRC32-trailed frame,
//
//   offset 0   u32 magic       "DCPf" (0x66504344, little-endian)
//          4   u32 frame type  (FrameType below; unknown values are rejected)
//          8   u64 length      payload bytes (bounded before any allocation)
//         16   payload         message body (runtime/instructions.h service codecs)
//   16+len     u32 CRC32       over the 16-byte header + payload
//
// The same layered validation as PlanStore records: header bounds first, checksum
// before any payload byte is interpreted, then the bounds-checked message codec.
// A malformed frame is a recoverable DATA_LOSS — the server counts it, answers with an
// error frame when the stream still permits one, and drops the connection (framing sync
// is gone); it never aborts. Compiled plans inside kPlanResponse payloads are PlanStore
// record bytes, so the service wire format and the persistence format are one format.
#ifndef DCP_SERVICE_FRAME_H_
#define DCP_SERVICE_FRAME_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "service/transport.h"

namespace dcp {

enum class FrameType : uint32_t {
  kPlanRequest = 1,
  kPlanResponse = 2,
  // 3 and 4 are retired (a stats RPC, superseded by the metrics scrape below) and stay
  // unassigned: a peer still sending them gets kErrorResponse, never a new meaning.
  // A connection-level failure (malformed frame, unknown type): payload is a
  // PlanServiceResponse carrying only the status. The sender closes afterwards.
  kErrorResponse = 5,
  // Anti-entropy gossip between replicas: a PlanSyncRequest listing held signatures,
  // answered with a PlanSyncResponse shipping the records the requester lacked.
  kSyncRequest = 6,
  kSyncResponse = 7,
  // Live observability scrape: a PlanServiceMetricsRequest (optional name-prefix
  // filter), answered with a PlanServiceMetricsResponse carrying the registry
  // rendered in Prometheus text exposition format.
  kMetricsRequest = 8,
  kMetricsResponse = 9,
};

struct Frame {
  FrameType type = FrameType::kErrorResponse;
  std::string payload;
};

// Default cap on a single frame payload. Compiled plans for production batches are
// single-digit MiB; anything near the cap is corruption, not traffic.
constexpr uint64_t kMaxFramePayloadBytes = uint64_t{1} << 30;

std::string EncodeFrame(FrameType type, std::string_view payload);

// Reads one frame. UNAVAILABLE on a clean peer close between frames; DATA_LOSS on a
// torn/corrupt/oversized/unknown-type frame (the stream can no longer be trusted).
StatusOr<Frame> ReadFrame(Socket& socket,
                          uint64_t max_payload_bytes = kMaxFramePayloadBytes);

Status WriteFrame(Socket& socket, FrameType type, std::string_view payload);

// A frame split for scatter-gather writes: the wire bytes are exactly
// head ++ *body ++ crc, where `head` is the 16-byte frame header plus the leading
// payload bytes and `body` is a shared immutable payload tail that is never copied —
// the server points it at a cached PlanStore record and writev's all three segments.
// `body` may be null (the whole payload lives in `head`).
struct FrameParts {
  std::string head;
  std::shared_ptr<const std::string> body;
  std::array<char, 4> crc = {0, 0, 0, 0};

  size_t body_size() const { return body == nullptr ? 0 : body->size(); }
  size_t TotalBytes() const { return head.size() + body_size() + crc.size(); }
};

// Builds the parts for payload = payload_head ++ *payload_body. The CRC is computed
// incrementally over header + both payload segments — `payload_body`'s bytes are read
// once and copied never.
FrameParts EncodeFrameParts(FrameType type, std::string_view payload_head,
                            std::shared_ptr<const std::string> payload_body = nullptr);

// Contiguous wire bytes for `parts` (tests and non-vectored writers).
std::string FlattenFrameParts(const FrameParts& parts);

// Incremental frame decoder for non-blocking reads: Append() whatever recv produced,
// then pop complete frames with Next(). Validation order matches ReadFrame — header
// bounds as soon as 16 bytes exist (a bad magic or an implausible length fails before
// any payload arrives), checksum once the full frame is buffered. A failure is sticky:
// the stream is desynced, so every later Next() returns the same DATA_LOSS.
class FrameAssembler {
 public:
  explicit FrameAssembler(uint64_t max_payload_bytes = kMaxFramePayloadBytes);

  void Append(const char* data, size_t n);

  // One complete frame, NOT_FOUND when more bytes are needed, DATA_LOSS (sticky) on a
  // corrupt stream.
  StatusOr<Frame> Next();

  // Bytes of an incomplete frame still buffered — a peer that closed with this nonzero
  // tore a frame mid-flight.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }
  bool failed() const { return failed_; }

 private:
  const uint64_t max_payload_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // Parsed prefix of buffer_, compacted lazily.
  bool failed_ = false;
  Status error_ = Status::Ok();
};

}  // namespace dcp

#endif  // DCP_SERVICE_FRAME_H_
