// The DCP instruction set (paper §5): five instruction kinds operating on block buffers.
// Execution plans built from these instructions are consumed by both the numeric executor
// (real tensor math) and the discrete-event simulator (timing) — the same plan, two
// backends.
#ifndef DCP_RUNTIME_INSTRUCTIONS_H_
#define DCP_RUNTIME_INSTRUCTIONS_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/status.h"
#include "common/types.h"
#include "masks/mask_spec.h"
#include "runtime/layout.h"

namespace dcp {

// Buffer kinds a block reference can point into. Forward uses Q/KV/O/Acc; backward
// additionally uses the gradient and stats buffers.
enum class BufKind : uint8_t {
  kQ = 0,     // Query blocks (local + received remote).
  kKV,        // Key/value blocks (local + received remote).
  kO,         // Final normalized outputs (local chunks only).
  kAcc,       // Online-softmax accumulators: unnormalized O plus (m, l) stats.
  kDO,        // Incoming output gradients.
  kDQ,        // Query-gradient accumulators.
  kDKV,       // Key/value-gradient accumulators.
  kDelta,     // Per-(head, token) rowsum(dO * O), needed by the backward kernel.
  kNumKinds,
};
inline constexpr int kNumBufKinds = static_cast<int>(BufKind::kNumKinds);
std::string BufKindName(BufKind kind);

struct BlockRef {
  BufKind kind = BufKind::kQ;
  int32_t slot = 0;

  bool operator==(const BlockRef&) const = default;
};

enum class InstrKind : uint8_t {
  kBlockwiseAttention = 0,
  kBlockwiseReduction,
  kBlockwiseCopy,
  kCommLaunch,
  kCommWait,
};
std::string InstrKindName(InstrKind kind);

// One attention tile: Q block x KV block -> accumulator, with the mask evaluated through
// the sequence's range pairs. `backward` items additionally read dO/delta and accumulate
// into dQ/dKV accumulators.
struct AttentionWorkItem {
  BlockRef q;
  BlockRef kv;
  BlockRef acc;  // Forward: kAcc accumulator of the q chunk (on this device).
  SeqId seq = 0;
  GroupId group = 0;
  int64_t q_begin = 0;  // Token ranges in sequence coordinates.
  int64_t q_end = 0;
  int64_t kv_begin = 0;
  int64_t kv_end = 0;
  bool full = false;  // Dense tile: kernel may skip mask checks.

  // Backward-only operands (unused when the instruction's `backward` flag is false).
  BlockRef dout;   // kDO block of the q chunk.
  BlockRef delta;  // kDelta block of the q chunk.
  BlockRef dq;     // kDQ accumulator of the q chunk.
  BlockRef dkv;    // kDKV accumulator of the kv chunk.

  bool operator==(const AttentionWorkItem&) const = default;
};

enum class ReduceMode : uint8_t {
  kMergeSoftmax = 0,  // Merge a partial (U, m, l) accumulator into another.
  kFinalize,          // O = U / l from an accumulator into a kO block.
  kSum,               // Elementwise sum (gradient partials).
  kComputeDelta,      // delta = rowsum(dO * O) for one chunk.
};
std::string ReduceModeName(ReduceMode mode);

struct ReduceItem {
  ReduceMode mode = ReduceMode::kMergeSoftmax;
  BlockRef dst;
  BlockRef src0;
  BlockRef src1;          // kComputeDelta uses src0=dO, src1=O.
  int64_t token_count = 0;  // Valid tokens in the (possibly ragged) chunk.

  bool operator==(const ReduceItem&) const = default;
};

struct CopyItem {
  BlockRef dst;
  BlockRef src;
  int64_t token_count = 0;

  bool operator==(const CopyItem&) const = default;
};

struct TransferBlock {
  BlockRef ref;
  Bytes bytes = 0;          // Wire size (training dtype).
  int64_t token_count = 0;  // Valid tokens, for numeric payload sizing.

  bool operator==(const TransferBlock&) const = default;
};

struct Instruction {
  InstrKind kind = InstrKind::kBlockwiseAttention;

  // kBlockwiseAttention.
  std::vector<AttentionWorkItem> attn_items;
  bool backward = false;

  // kBlockwiseReduction.
  std::vector<ReduceItem> reduce_items;

  // kBlockwiseCopy.
  std::vector<CopyItem> copy_items;

  // kCommLaunch / kCommWait. A transfer is a matched (send, recv) CommLaunch pair sharing
  // `transfer_id`; CommWait blocks on that id.
  int32_t transfer_id = -1;
  DeviceId peer = kInvalidDevice;
  bool is_send = false;
  std::vector<TransferBlock> blocks;

  // Cost annotations for the simulator (numeric executor ignores them).
  Flops flops = 0.0;
  Bytes comm_bytes = 0;
  Bytes mem_bytes = 0;  // HBM traffic of reductions/copies (memory-bound ops).
  // Extra fixed host-side cost in seconds (e.g. TransformerEngine's per-step varlen
  // argument construction); added to the launch overhead by the simulator.
  double host_overhead = 0.0;

  bool operator==(const Instruction&) const = default;
};

// Where a locally-owned data chunk lives in the device buffers, and which tokens it holds.
// Used to scatter model inputs into buffers and gather outputs back.
struct LocalChunk {
  SeqId seq = 0;
  ChunkId chunk = 0;
  GroupId group = 0;
  int32_t q_slot = 0;    // kQ (and same slot index in kO / kDQ / kDO / kDelta / kAcc).
  int32_t kv_slot = 0;   // kKV (and kDKV).

  bool operator==(const LocalChunk&) const = default;
};

struct DevicePlan {
  std::vector<Instruction> instructions;
  std::vector<Instruction> backward_instructions;
  std::array<int32_t, kNumBufKinds> num_slots = {};
  std::vector<LocalChunk> local_chunks;

  bool operator==(const DevicePlan&) const = default;
};

// Summary statistics the planner computes for a plan (used by benches and tests).
struct PlanStats {
  Bytes total_comm_bytes = 0;       // Forward, sum over transfers.
  Bytes inter_node_comm_bytes = 0;  // Forward, transfers crossing node boundaries.
  Bytes max_device_comm_bytes = 0;  // Max per-device send+recv volume (forward).
  Flops total_flops = 0.0;
  Flops max_device_flops = 0.0;
  // Memory balance (paper: data-block balance implies activation-memory balance): bytes of
  // locally-owned data blocks per device, max and min across devices.
  Bytes max_device_owned_bytes = 0;
  Bytes min_device_owned_bytes = 0;
  double planning_seconds = 0.0;
  double partition_cost = 0.0;  // Connectivity objective value at device level.

  bool operator==(const PlanStats&) const = default;
};

struct BatchPlan {
  BatchLayout layout;
  std::vector<DevicePlan> devices;
  std::vector<DeviceId> chunk_home;  // Per global chunk id: owning device.
  PlanStats stats;

  // Member-wise equality over every field, so a codec that drops or corrupts any member
  // fails a round-trip comparison.
  bool operator==(const BatchPlan&) const = default;

  int num_devices() const { return static_cast<int>(devices.size()); }
};

// Human-readable dump (debugging aid, also exercised in tests).
std::string PlanToString(const BatchPlan& plan, int max_instructions_per_device = 16);

// Compact binary plan serialization (paper §3.1: plans are serialized by the planner and
// shipped to devices): the one plan codec, used by PlanStore records and, inside them,
// by the planning service's wire format. Doubles are exact (bit_cast, no decimal
// round-trip), so DeserializePlanBinary(SerializePlanBinary(p)) == p. The decoder is
// bounds-checked end to end: item counts are validated against the remaining payload
// before any allocation, enums are range-checked, and trailing bytes are rejected —
// malformed bytes come back as a recoverable DATA_LOSS Status, never an abort.
std::string SerializePlanBinary(const BatchPlan& plan);
StatusOr<BatchPlan> DeserializePlanBinary(std::string_view bytes);

// --- Planning-service wire messages -----------------------------------------------
//
// Request/response bodies for dcp::PlanService (src/service/), encoded with the same
// varint/zigzag ByteWriter/ByteReader machinery as the binary plan codec above, and
// validated with the same rigor: every count is bounded against the remaining payload,
// enums are range-checked, and trailing bytes are rejected — a malformed message is a
// recoverable DATA_LOSS Status, never an abort. The compiled plan itself travels inside
// PlanServiceResponse as PlanStore record bytes (core/plan_store.h documents that
// layout), so the service's wire format is exactly the persistence format.

// Where the service found the plan it returned. The client adds a fourth tier (its own
// LRU) that never reaches the wire.
enum class PlanServeSource : uint8_t {
  kPlanned = 0,        // The tenant engine ran the full planner.
  kMemoryCache,        // Served from the tenant engine's in-memory LRU.
  kStoreCache,         // Served from the tenant engine's persistent plan store.
  kClientCache,        // Client-side only: served from the PlanClient LRU, no RPC.
  kReplicaCache,       // Served from records another replica shipped via anti-entropy.
};
std::string PlanServeSourceName(PlanServeSource source);

struct PlanServiceRequest {
  std::string tenant;
  std::vector<int64_t> seqlens;
  MaskSpec mask_spec;
  // Explicit block size, or 0 to plan under the tenant's configured policy (fixed
  // engine block size, or per-signature auto-tune when the tenant enables it).
  int64_t block_size = 0;
  // Remaining time budget in milliseconds, or 0 for no deadline. Relative on purpose:
  // client and server clocks need not agree. The server timestamps arrival and sheds
  // the request (DEADLINE_EXCEEDED, no planning) once the budget has already expired —
  // planning dead work would only steal workers from live requests.
  int64_t deadline_ms = 0;
  // Trace id for per-request phase tracing (0 = untraced), the body's fixed-width
  // trailer.
  uint64_t trace_id = 0;
};

struct PlanServiceResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;  // Error detail when code != kOk.
  PlanServeSource source = PlanServeSource::kPlanned;
  // The served plan's canonical signature (PlanSignature lanes) and its PlanStore
  // record bytes (magic + version + signature + sections + CRC32); both empty/zero on
  // error. The record's embedded signature is cross-checked against these lanes by the
  // client before the plan is trusted.
  uint64_t signature_lo = 0;
  uint64_t signature_hi = 0;
  std::string record;
};

// Anti-entropy exchange between replicas: the caller lists the plan signatures it
// already holds for one tenant, the callee replies with full PlanStore records (the
// wire format IS the persistence format) for a bounded number of signatures the caller
// lacks. Signatures travel as raw (lo, hi) lanes so this layer stays below core/.
struct PlanSyncRequest {
  std::string tenant;
  std::vector<std::pair<uint64_t, uint64_t>> have;
};

struct PlanSyncResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::vector<std::string> records;  // Validated by the receiver before adoption.
};

// Live metrics scrape (v3): the caller optionally narrows the families by name
// prefix; the callee replies with its process-global registry rendered in Prometheus
// text exposition format. Text on purpose — the scrape format is the stable contract,
// so the wire layer needs no per-instrument schema.
struct PlanServiceMetricsRequest {
  std::string name_prefix;  // Empty: every family.
};

struct PlanServiceMetricsResponse {
  StatusCode code = StatusCode::kOk;
  std::string message;
  std::string text;  // Prometheus text exposition.
};

std::string SerializePlanServiceMetricsRequest(const PlanServiceMetricsRequest& request);
StatusOr<PlanServiceMetricsRequest> DeserializePlanServiceMetricsRequest(
    std::string_view bytes);
std::string SerializePlanServiceMetricsResponse(
    const PlanServiceMetricsResponse& response);
StatusOr<PlanServiceMetricsResponse> DeserializePlanServiceMetricsResponse(
    std::string_view bytes);

std::string SerializePlanSyncRequest(const PlanSyncRequest& request);
StatusOr<PlanSyncRequest> DeserializePlanSyncRequest(std::string_view bytes);
std::string SerializePlanSyncResponse(const PlanSyncResponse& response);
StatusOr<PlanSyncResponse> DeserializePlanSyncResponse(std::string_view bytes);

std::string SerializePlanServiceRequest(const PlanServiceRequest& request);
std::string SerializePlanServiceResponse(const PlanServiceResponse& response);
StatusOr<PlanServiceResponse> DeserializePlanServiceResponse(std::string_view bytes);

// Zero-copy view of a decoded plan request: `tenant` aliases the wire payload and
// `seqlens` lives in a caller-supplied arena, so decoding costs exactly one arena
// allocation (the seqlens array — its count is on the wire before its elements, so the
// array is sized exactly) instead of two heap strings plus a vector per request. The
// payload bytes and the arena must both outlive the view.
struct PlanServiceRequestView {
  std::string_view tenant;
  std::span<const int64_t> seqlens;
  MaskSpec mask_spec;
  int64_t block_size = 0;
  int64_t deadline_ms = 0;
  uint64_t trace_id = 0;  // 0 when untraced.
};

// The one plan-request decoder, the inverse of SerializePlanServiceRequest: every count
// is bounded, the deadline must be non-negative, and a body at any version but the
// current service message version is DATA_LOSS.
StatusOr<PlanServiceRequestView> DeserializePlanServiceRequestView(
    std::string_view bytes, Arena* arena);

// Serializes every response field except the record bytes themselves, ending with the
// record-length prefix for a record of `record_size` bytes: head ++ record_bytes is
// byte-identical to SerializePlanServiceResponse on the same response carrying those
// bytes. The server writev's [frame header + this head][shared record][crc] so a cached
// record is framed without copying. `response.record` must be empty.
std::string SerializePlanServiceResponseHead(const PlanServiceResponse& response,
                                             size_t record_size);

}  // namespace dcp

#endif  // DCP_RUNTIME_INSTRUCTIONS_H_
