#include "service/plan_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "core/plan_store.h"
#include "masks/mask.h"
#include "service/frame.h"

namespace dcp {
namespace {

uint64_t SplitMix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

bool IsRetryableStatus(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kDataLoss;
}

int RetryBackoffMs(const RetryPolicy& policy, int retry) {
  int64_t backoff = std::max(1, policy.initial_backoff_ms);
  for (int i = 1; i < retry && backoff < policy.max_backoff_ms; ++i) {
    backoff *= 2;
  }
  backoff = std::min<int64_t>(backoff, std::max(1, policy.max_backoff_ms));
  const uint64_t jitter =
      SplitMix64(policy.jitter_seed ^ static_cast<uint64_t>(retry)) %
      static_cast<uint64_t>(backoff / 2 + 1);
  return static_cast<int>(backoff - backoff / 2 + static_cast<int64_t>(jitter));
}

PlanSignature PlanRequestCacheKey(const std::string& tenant,
                                  const std::vector<int64_t>& seqlens,
                                  const MaskSpec& mask_spec, int64_t block_size) {
  PlanSignatureBuilder b;
  b.Add(0x70636c69656e7431ULL);  // "pclient1": never aliases a server PlanSignature.
  for (char c : tenant) {
    b.Add(static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
  b.Add(tenant.size());
  b.AddSpan(seqlens);
  b.Add(static_cast<uint64_t>(mask_spec.kind));
  b.AddSigned(mask_spec.sink_tokens);
  b.AddSigned(mask_spec.window_tokens);
  b.AddSigned(mask_spec.icl_block_tokens);
  b.AddSigned(mask_spec.window_blocks);
  b.AddSigned(mask_spec.sink_blocks);
  b.AddSigned(mask_spec.test_blocks);
  b.AddSigned(mask_spec.num_answers);
  b.AddDouble(mask_spec.answer_fraction);
  b.AddSigned(block_size);
  return b.Finish();
}

PlanClient::PlanClient(ServiceAddress address, PlanClientOptions options)
    : address_(std::move(address)), options_(std::move(options)) {
  pool_ = std::make_unique<ThreadPool>(std::max(1, options_.planner_threads));
  metrics_ = metrics::Registry::NewAttached({{"tenant", options_.tenant}});
  for (int s = 0; s < 5; ++s) {
    serve_latency_us_[s] = metrics_->GetHistogram(
        "dcp_client_plan_latency_us",
        {{"source", PlanServeSourceName(static_cast<PlanServeSource>(s))}},
        "Client-observed plan latency by serve source, microseconds.");
  }
}

PlanClient::~PlanClient() = default;

StatusOr<std::unique_ptr<PlanClient>> PlanClient::Connect(const ServiceAddress& address,
                                                          PlanClientOptions options) {
  std::unique_ptr<PlanClient> client(new PlanClient(address, std::move(options)));
  StatusOr<Socket> socket =
      ConnectSocket(address, client->options_.connect_timeout_ms);
  if (!socket.ok()) {
    return socket.status();
  }
  client->socket_ = std::move(socket).value();
  client->socket_.set_io_timeout_ms(client->options_.io_timeout_ms);
  client->connected_ = true;
  return client;
}

Status PlanClient::EnsureConnectedLocked() {
  if (connected_) {
    return Status::Ok();
  }
  StatusOr<Socket> socket = ConnectSocket(address_, options_.connect_timeout_ms);
  if (!socket.ok()) {
    return socket.status();
  }
  socket_ = std::move(socket).value();
  socket_.set_io_timeout_ms(options_.io_timeout_ms);
  connected_ = true;
  MutexLock lock(stats_mu_);
  ++stats_.reconnects;
  return Status::Ok();
}

StatusOr<Frame> PlanClient::Roundtrip(FrameType request_type,
                                      const std::string& payload,
                                      FrameType expected_response) {
  const uint64_t max_payload = options_.max_frame_payload_bytes == 0
                                   ? kMaxFramePayloadBytes
                                   : options_.max_frame_payload_bytes;
  MutexLock lock(io_mu_);
  const int max_attempts = std::max(1, options_.retry.max_attempts);
  Status failure = Status::Ok();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff with deterministic jitter before every retry; the retry
      // runs on a fresh connection (the failed socket was closed below).
      std::this_thread::sleep_for(
          std::chrono::milliseconds(RetryBackoffMs(options_.retry, attempt)));
      MutexLock stats_lock(stats_mu_);
      ++stats_.retries;
    }
    Status connect = EnsureConnectedLocked();
    if (!connect.ok()) {
      failure = connect;
      if (!IsRetryableStatus(failure)) {
        break;
      }
      continue;
    }
    {
      MutexLock stats_lock(stats_mu_);
      ++stats_.rpcs_sent;
    }
    Status sent = WriteFrame(socket_, request_type, payload);
    StatusOr<Frame> reply = sent.ok() ? ReadFrame(socket_, max_payload)
                                      : StatusOr<Frame>(sent);
    if (reply.ok()) {
      if (reply.value().type == expected_response ||
          reply.value().type == FrameType::kErrorResponse) {
        if (reply.value().type == FrameType::kErrorResponse) {
          // The server rejected the stream (it saw a malformed frame); the connection
          // is about to close on its side.
          connected_ = false;
          socket_.Close();
        }
        return reply;
      }
      // A response of the wrong type means the stream is out of sync; drop it.
      failure = Status::DataLoss("unexpected response frame type " +
                                 std::to_string(static_cast<uint32_t>(
                                     reply.value().type)));
    } else {
      failure = reply.status();
    }
    {
      MutexLock stats_lock(stats_mu_);
      ++stats_.rpc_errors;
    }
    connected_ = false;
    socket_.Close();
    // Only transport-level failures are worth (and safe to) chase: the RPC is
    // idempotent, but an application rejection would fail identically every attempt.
    if (!IsRetryableStatus(failure)) {
      break;
    }
  }
  return failure;
}

Status PlanClient::DecodeErrorFrame(const Frame& frame) {
  StatusOr<PlanServiceResponse> error = DeserializePlanServiceResponse(frame.payload);
  if (!error.ok()) {
    return error.status();
  }
  if (error.value().code == StatusCode::kOk) {
    return Status::DataLoss("error frame carried an OK status");
  }
  return Status(error.value().code, error.value().message);
}

PlanSignature PlanClient::CacheKey(const std::vector<int64_t>& seqlens,
                                   const MaskSpec& mask_spec,
                                   int64_t block_size) const {
  return PlanRequestCacheKey(options_.tenant, seqlens, mask_spec, block_size);
}

PlanHandle PlanClient::CacheLookup(const PlanSignature& key) {
  MutexLock lock(cache_mu_);
  const auto it = cache_.find(key);
  if (it == cache_.end()) {
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void PlanClient::CacheInsert(const PlanSignature& key, PlanHandle handle) {
  if (options_.cache_capacity <= 0) {
    return;
  }
  MutexLock lock(cache_mu_);
  if (cache_.find(key) != cache_.end()) {
    return;  // A concurrent caller already planted it.
  }
  lru_.emplace_front(key, std::move(handle));
  cache_.emplace(key, lru_.begin());
  while (static_cast<int>(lru_.size()) > options_.cache_capacity) {
    cache_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

StatusOr<PlanHandle> PlanClient::PlanWithBlockSize(const std::vector<int64_t>& seqlens,
                                                   const MaskSpec& mask_spec,
                                                   int64_t block_size) {
  // Latency is attributed to the serve source only once it is known (the cache
  // probe resolves it immediately; an RPC resolves it from the response).
  const bool timed = metrics::RecordingEnabled();
  const int64_t start_us = timed ? metrics::MonotonicMicros() : 0;
  const PlanSignature key = CacheKey(seqlens, mask_spec, block_size);
  if (PlanHandle cached = CacheLookup(key)) {
    {
      MutexLock lock(cache_mu_);
      last_source_ = PlanServeSource::kClientCache;
    }
    {
      MutexLock lock(stats_mu_);
      ++stats_.cache_hits;
    }
    if (timed) {
      const int64_t probe_us = metrics::MonotonicMicros() - start_us;
      metrics::RecordPhase(metrics::TracePhase::kCacheProbe, probe_us);
      serve_latency_us_[static_cast<int>(PlanServeSource::kClientCache)]->Record(
          probe_us);
    }
    return cached;
  }

  PlanServiceRequest request;
  request.tenant = options_.tenant;
  request.seqlens = seqlens;
  request.mask_spec = mask_spec;
  request.block_size = block_size;
  request.deadline_ms = options_.deadline_ms;
  // Propagate the ambient trace id (or mint one) so the server's trace ring and
  // slow-request log correlate with this caller. v2 servers ignore the trailer.
  metrics::Trace* trace = metrics::TraceContext::Current();
  request.trace_id = trace != nullptr ? trace->trace_id : metrics::NextTraceId();
  StatusOr<Frame> reply =
      Roundtrip(FrameType::kPlanRequest, SerializePlanServiceRequest(request),
                FrameType::kPlanResponse);
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply.value().type == FrameType::kErrorResponse) {
    return DecodeErrorFrame(reply.value());
  }
  StatusOr<PlanServiceResponse> response =
      DeserializePlanServiceResponse(reply.value().payload);
  if (!response.ok()) {
    return response.status();
  }
  if (response.value().code != StatusCode::kOk) {
    return Status(response.value().code, response.value().message);
  }

  // The plan arrives as a PlanStore record: CRC-validated, signature-embedded. Decode
  // and cross-check before trusting a single field.
  StatusOr<std::pair<PlanSignature, BatchPlan>> record =
      PlanStore::DecodeRecord(response.value().record);
  if (!record.ok()) {
    return record.status();
  }
  PlanSignature sig;
  sig.lo = response.value().signature_lo;
  sig.hi = response.value().signature_hi;
  if (!(record.value().first == sig)) {
    return Status::DataLoss("response record signature " +
                            record.value().first.ToHex() +
                            " does not match response header " + sig.ToHex());
  }

  auto compiled = std::make_shared<CompiledPlan>();
  compiled->signature = sig;
  compiled->plan = std::move(record).value().second;
  // Masks are derived deterministically from the request, exactly as the engine's
  // store-hit path rebuilds them: rebuilding is O(sequences), shipping them is not.
  compiled->masks = BuildBatchMasks(mask_spec, seqlens);
  PlanHandle handle = std::move(compiled);
  CacheInsert(key, handle);
  {
    MutexLock lock(cache_mu_);
    last_source_ = response.value().source;
  }
  const int source_index = static_cast<int>(response.value().source);
  if (timed && source_index >= 0 && source_index < 5) {
    serve_latency_us_[source_index]->Record(metrics::MonotonicMicros() - start_us);
  }
  return handle;
}

StatusOr<PlanHandle> PlanClient::Plan(const std::vector<int64_t>& seqlens,
                                      const MaskSpec& mask_spec) {
  return PlanWithBlockSize(seqlens, mask_spec, /*block_size=*/0);
}

StatusOr<PlanHandle> PlanClient::PlanForLoader(const std::vector<int64_t>& seqlens,
                                               const MaskSpec& mask_spec) {
  return PlanWithBlockSize(seqlens, mask_spec, /*block_size=*/0);
}

PlanServeSource PlanClient::last_source() const {
  MutexLock lock(cache_mu_);
  return last_source_;
}

StatusOr<PlanServiceMetricsResponse> PlanClient::ServerMetrics(
    const std::string& name_prefix) {
  PlanServiceMetricsRequest request;
  request.name_prefix = name_prefix;
  StatusOr<Frame> reply =
      Roundtrip(FrameType::kMetricsRequest,
                SerializePlanServiceMetricsRequest(request),
                FrameType::kMetricsResponse);
  if (!reply.ok()) {
    return reply.status();
  }
  if (reply.value().type == FrameType::kErrorResponse) {
    return DecodeErrorFrame(reply.value());
  }
  StatusOr<PlanServiceMetricsResponse> response =
      DeserializePlanServiceMetricsResponse(reply.value().payload);
  if (!response.ok()) {
    return response.status();
  }
  if (response.value().code != StatusCode::kOk) {
    return Status(response.value().code, response.value().message);
  }
  return response;
}

PlanClientStats PlanClient::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

void PlanClient::ClearCache() {
  MutexLock lock(cache_mu_);
  lru_.clear();
  cache_.clear();
}

}  // namespace dcp
