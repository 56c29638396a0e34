// Wire-level tests for the planning service: ServiceAddress parsing, the
// length-prefixed CRC32 framing over real sockets, and the request/response message
// codecs — round-trips, truncation at every prefix, and bit-flip robustness. The
// invariant under test is the same one the plan store enforces on disk: malformed
// bytes are a recoverable DATA_LOSS, never an abort and never a silently-wrong message.
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "service/frame.h"
#include "service/plan_server.h"
#include "service/transport.h"

namespace dcp {
namespace {

TEST(ServiceAddress, ParsesTcpAndUnix) {
  StatusOr<ServiceAddress> tcp = ServiceAddress::Parse("tcp:127.0.0.1:7070");
  ASSERT_TRUE(tcp.ok());
  EXPECT_EQ(tcp.value().kind, ServiceAddress::Kind::kTcp);
  EXPECT_EQ(tcp.value().host, "127.0.0.1");
  EXPECT_EQ(tcp.value().port, 7070);
  EXPECT_EQ(tcp.value().ToString(), "tcp:127.0.0.1:7070");

  StatusOr<ServiceAddress> unix_addr = ServiceAddress::Parse("unix:/tmp/dcp.sock");
  ASSERT_TRUE(unix_addr.ok());
  EXPECT_EQ(unix_addr.value().kind, ServiceAddress::Kind::kUnix);
  EXPECT_EQ(unix_addr.value().path, "/tmp/dcp.sock");
  EXPECT_EQ(unix_addr.value().ToString(), "unix:/tmp/dcp.sock");
}

TEST(ServiceAddress, RejectsMalformedSpecs) {
  for (const char* spec :
       {"", "tcp:", "tcp:127.0.0.1", "tcp:127.0.0.1:", "tcp::7070", "tcp:host:badport",
        "tcp:127.0.0.1:99999999", "unix:", "http://x", "127.0.0.1:7070"}) {
    EXPECT_FALSE(ServiceAddress::Parse(spec).ok()) << spec;
  }
}

PlanServiceRequest MakeRequest() {
  PlanServiceRequest request;
  request.tenant = "prod";
  request.seqlens = {64, 32, 17};
  request.mask_spec = MaskSpec::Lambda(4, 13);
  request.block_size = 16;
  return request;
}

void ExpectRequestMatches(const PlanServiceRequest& a, const PlanServiceRequestView& b) {
  EXPECT_EQ(a.tenant, b.tenant);
  EXPECT_EQ(a.seqlens, std::vector<int64_t>(b.seqlens.begin(), b.seqlens.end()));
  EXPECT_TRUE(a.mask_spec == b.mask_spec);
  EXPECT_EQ(a.block_size, b.block_size);
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
  EXPECT_EQ(a.trace_id, b.trace_id);
}

TEST(ServiceMessages, PlanRequestRoundTripsForEveryMaskKind) {
  for (MaskKind kind : AllMaskKinds()) {
    PlanServiceRequest request = MakeRequest();
    request.mask_spec = MaskSpec::ForKind(kind);
    const std::string bytes = SerializePlanServiceRequest(request);
    Arena arena;
    StatusOr<PlanServiceRequestView> decoded =
        DeserializePlanServiceRequestView(bytes, &arena);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectRequestMatches(request, decoded.value());
  }
}

TEST(ServiceMessages, PlanRequestTruncationAlwaysRejected) {
  const std::string bytes = SerializePlanServiceRequest(MakeRequest());
  for (size_t len = 0; len < bytes.size(); ++len) {
    Arena arena;
    EXPECT_FALSE(
        DeserializePlanServiceRequestView(std::string_view(bytes).substr(0, len), &arena)
            .ok())
        << "prefix of " << len << " bytes decoded";
  }
  // Trailing garbage is rejected too.
  Arena arena;
  EXPECT_FALSE(DeserializePlanServiceRequestView(bytes + "x", &arena).ok());
}

TEST(ServiceMessages, PlanRequestBitFlipsNeverCrash) {
  const std::string bytes = SerializePlanServiceRequest(MakeRequest());
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = bytes;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      // Must return (ok or not), never abort; a flip that survives decoding must be a
      // flip that changed a value, not the structure.
      Arena arena;
      (void)DeserializePlanServiceRequestView(corrupt, &arena);
    }
  }
}

TEST(ServiceMessages, PlanResponseRoundTripsAndValidates) {
  PlanServiceResponse response;
  response.code = StatusCode::kOk;
  response.source = PlanServeSource::kStoreCache;
  response.signature_lo = 0x1234567890abcdefULL;
  response.signature_hi = 0xfedcba0987654321ULL;
  response.record = std::string("record-bytes\x00\x7f\xff", 15);
  const std::string bytes = SerializePlanServiceResponse(response);
  StatusOr<PlanServiceResponse> decoded = DeserializePlanServiceResponse(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().code, response.code);
  EXPECT_EQ(decoded.value().source, response.source);
  EXPECT_EQ(decoded.value().signature_lo, response.signature_lo);
  EXPECT_EQ(decoded.value().signature_hi, response.signature_hi);
  EXPECT_EQ(decoded.value().record, response.record);

  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DeserializePlanServiceResponse(bytes.substr(0, len)).ok());
  }
  EXPECT_FALSE(DeserializePlanServiceResponse(bytes + "y").ok());

  // Error responses carry the status code + message through the codec.
  PlanServiceResponse error;
  error.code = StatusCode::kUnavailable;
  error.message = "server overloaded";
  StatusOr<PlanServiceResponse> decoded_error =
      DeserializePlanServiceResponse(SerializePlanServiceResponse(error));
  ASSERT_TRUE(decoded_error.ok());
  EXPECT_EQ(decoded_error.value().code, StatusCode::kUnavailable);
  EXPECT_EQ(decoded_error.value().message, "server overloaded");
}

// A connected AF_UNIX socket pair wrapped in the transport's Socket class, for framing
// tests without a listener.
std::pair<Socket, Socket> MakeSocketPair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {Socket(fds[0]), Socket(fds[1])};
}

TEST(ServiceFrame, RoundTripsOverSocket) {
  auto [a, b] = MakeSocketPair();
  const std::string payload = "hello plan service \x01\x02\x00 frame";
  ASSERT_TRUE(WriteFrame(a, FrameType::kPlanRequest, payload).ok());
  StatusOr<Frame> frame = ReadFrame(b);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame.value().type, FrameType::kPlanRequest);
  EXPECT_EQ(frame.value().payload, payload);

  // Empty payloads frame fine too.
  ASSERT_TRUE(WriteFrame(b, FrameType::kMetricsRequest, "").ok());
  StatusOr<Frame> empty = ReadFrame(a);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().payload, "");
}

TEST(ServiceFrame, CorruptFramesRejectedAsDataLoss) {
  const std::string encoded = EncodeFrame(FrameType::kPlanRequest, "payload-bytes");
  // Flip every bit of the frame: the reader must reject (header damage) or fail the
  // CRC (payload damage) — it must never return a frame with altered bytes.
  for (size_t byte = 0; byte < encoded.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = encoded;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      auto [a, b] = MakeSocketPair();
      ASSERT_TRUE(a.SendAll(corrupt).ok());
      a.Close();  // Flush + EOF so length-extending flips read as truncation.
      StatusOr<Frame> frame = ReadFrame(b);
      EXPECT_FALSE(frame.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
    }
  }
}

TEST(ServiceFrame, TruncationAndCleanCloseDistinguished) {
  const std::string encoded = EncodeFrame(FrameType::kPlanRequest, "payload");
  // Close mid-frame at every prefix: DATA_LOSS (torn frame).
  for (size_t len = 1; len < encoded.size(); ++len) {
    auto [a, b] = MakeSocketPair();
    ASSERT_TRUE(a.SendAll(encoded.substr(0, len)).ok());
    a.Close();
    StatusOr<Frame> frame = ReadFrame(b);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss) << "prefix " << len;
  }
  // Clean close between frames: UNAVAILABLE (peer hung up, nothing torn).
  auto [a, b] = MakeSocketPair();
  a.Close();
  StatusOr<Frame> frame = ReadFrame(b);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(ServiceFrame, OversizedLengthRejectedBeforeAllocation) {
  // Hand-build a header claiming a 1 EiB payload; the reader must reject on the
  // length field without trying to read or allocate it.
  std::string header = EncodeFrame(FrameType::kPlanRequest, "");
  header.resize(16);  // Keep only the header (drop the CRC).
  for (int i = 0; i < 8; ++i) {
    header[8 + i] = static_cast<char>(0xff);
  }
  auto [a, b] = MakeSocketPair();
  ASSERT_TRUE(a.SendAll(header).ok());
  StatusOr<Frame> frame = ReadFrame(b);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(ServiceTransport, ListenerRoundTripAndEphemeralPort) {
  StatusOr<Listener> listener = Listener::Bind(ServiceAddress::Tcp("127.0.0.1", 0));
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  EXPECT_GT(listener.value().bound_address().port, 0);

  StatusOr<Socket> client = ConnectSocket(listener.value().bound_address());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  StatusOr<Socket> served = listener.value().Accept(/*timeout_ms=*/2000);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  ASSERT_TRUE(WriteFrame(client.value(), FrameType::kMetricsRequest, "ping").ok());
  StatusOr<Frame> frame = ReadFrame(served.value());
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().payload, "ping");
}

TEST(ServiceAddress, PortZeroRejectedAtParseWithActionableMessage) {
  // tcp:host:0 used to parse fine and then bind an ephemeral port the operator never
  // learns (or dial port 0 and fail deep in connect); it must die at parse instead.
  const StatusOr<ServiceAddress> port0 = ServiceAddress::Parse("tcp:127.0.0.1:0");
  ASSERT_FALSE(port0.ok());
  EXPECT_EQ(port0.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(port0.status().message().find("1..65535"), std::string::npos)
      << port0.status().message();
}

TEST(ServiceAddress, PortRangeBoundaries) {
  StatusOr<ServiceAddress> top = ServiceAddress::Parse("tcp:127.0.0.1:65535");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top.value().port, 65535);
  EXPECT_FALSE(ServiceAddress::Parse("tcp:127.0.0.1:65536").ok());
  EXPECT_FALSE(ServiceAddress::Parse("tcp:127.0.0.1:-1").ok());
}

TEST(ServiceFrame, FramePartsMatchContiguousEncodingWithoutCopyingTheBody) {
  const std::string head_payload = "response-head";
  auto body = std::make_shared<const std::string>("shared record bytes \x00\x7f", 22);
  FrameParts parts = EncodeFrameParts(FrameType::kPlanResponse, head_payload, body);
  // The body rides by reference: same string object, not a copy.
  EXPECT_EQ(parts.body.get(), body.get());
  // head ++ *body ++ crc is bit-identical to the contiguous encoder on the
  // concatenated payload, so readers cannot tell the two writers apart.
  EXPECT_EQ(FlattenFrameParts(parts),
            EncodeFrame(FrameType::kPlanResponse, head_payload + *body));
  // Body-less parts (error responses) flatten correctly too.
  FrameParts head_only = EncodeFrameParts(FrameType::kErrorResponse, head_payload);
  EXPECT_EQ(FlattenFrameParts(head_only),
            EncodeFrame(FrameType::kErrorResponse, head_payload));
}

TEST(ServiceMessages, ResponseHeadPlusRecordMatchesFullSerialization) {
  PlanServiceResponse full;
  full.code = StatusCode::kOk;
  full.source = PlanServeSource::kMemoryCache;
  full.signature_lo = 0x1122334455667788ULL;
  full.signature_hi = 0x99aabbccddeeff00ULL;
  full.record = std::string("record\x00\xff payload", 16);

  PlanServiceResponse head_response = full;
  head_response.record.clear();
  const std::string head =
      SerializePlanServiceResponseHead(head_response, full.record.size());
  EXPECT_EQ(head + full.record, SerializePlanServiceResponse(full));
}

TEST(ServiceMessages, RequestViewDecodesIdenticallyInOneArenaBlock) {
  PlanServiceRequest request = MakeRequest();
  request.seqlens = {4096, 1, 777, 65536, 3};
  request.deadline_ms = 250;
  const std::string bytes = SerializePlanServiceRequest(request);

  Arena arena;
  StatusOr<PlanServiceRequestView> view =
      DeserializePlanServiceRequestView(bytes, &arena);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  ExpectRequestMatches(request, view.value());
  // Zero-copy decode: the tenant aliases the wire bytes and the seqlens are one
  // exactly-sized arena array — one block, no per-field heap allocations.
  EXPECT_GE(view.value().tenant.data(), bytes.data());
  EXPECT_LT(view.value().tenant.data(), bytes.data() + bytes.size());
  EXPECT_EQ(arena.block_count(), 1u);
}

TEST(ServiceFrame, AssemblerReassemblesFramesFedByteByByte) {
  const std::string first = EncodeFrame(FrameType::kPlanRequest, "alpha");
  const std::string second = EncodeFrame(FrameType::kMetricsRequest, "");
  const std::string third =
      EncodeFrame(FrameType::kPlanResponse, std::string(1000, 'r'));
  const std::string stream = first + second + third;

  FrameAssembler assembler;
  std::vector<Frame> frames;
  for (size_t i = 0; i < stream.size(); ++i) {
    assembler.Append(stream.data() + i, 1);
    while (true) {
      StatusOr<Frame> frame = assembler.Next();
      if (!frame.ok()) {
        EXPECT_EQ(frame.status().code(), StatusCode::kNotFound);
        break;
      }
      frames.push_back(std::move(frame).value());
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kPlanRequest);
  EXPECT_EQ(frames[0].payload, "alpha");
  EXPECT_EQ(frames[1].type, FrameType::kMetricsRequest);
  EXPECT_EQ(frames[1].payload, "");
  EXPECT_EQ(frames[2].payload, std::string(1000, 'r'));
  EXPECT_EQ(assembler.buffered_bytes(), 0u);
  EXPECT_FALSE(assembler.failed());
}

TEST(ServiceFrame, AssemblerFailureIsSticky) {
  std::string corrupt = EncodeFrame(FrameType::kPlanRequest, "payload");
  corrupt[corrupt.size() - 1] ^= 0x01;  // Break the CRC.
  FrameAssembler assembler;
  assembler.Append(corrupt.data(), corrupt.size());
  StatusOr<Frame> frame = assembler.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  EXPECT_TRUE(assembler.failed());
  // A desynced stream stays failed: even appending a pristine frame cannot recover.
  const std::string good = EncodeFrame(FrameType::kPlanRequest, "good");
  assembler.Append(good.data(), good.size());
  StatusOr<Frame> after = assembler.Next();
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), StatusCode::kDataLoss);
}

TEST(ServiceFrame, AssemblerRejectsBadHeaderBeforePayloadArrives) {
  // 16 header bytes claiming an oversized payload must fail immediately — the
  // assembler must not wait for (or buffer toward) a petabyte that never comes.
  std::string header = EncodeFrame(FrameType::kPlanRequest, "");
  header.resize(16);
  for (int i = 0; i < 8; ++i) {
    header[8 + i] = static_cast<char>(0xff);
  }
  FrameAssembler assembler(/*max_payload_bytes=*/1 << 20);
  assembler.Append(header.data(), header.size());
  StatusOr<Frame> frame = assembler.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
}

TEST(ServiceMessages, PlanRequestTraceIdRoundTripsAndOnlyTheCurrentVersionParses) {
  PlanServiceRequest request = MakeRequest();
  request.trace_id = 0xabcdef0123456789ULL;
  const std::string bytes = SerializePlanServiceRequest(request);
  Arena arena;
  StatusOr<PlanServiceRequestView> decoded =
      DeserializePlanServiceRequestView(bytes, &arena);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectRequestMatches(request, decoded.value());

  // Every writer in the tree emits version 3, so a body at any other version is
  // DATA_LOSS — including a v2-shaped body (the v3 body minus its trace-id trailer).
  std::string v2 = bytes.substr(0, bytes.size() - 8);
  v2[0] = 2;
  for (const std::string& other : {v2, std::string(1, '\x02') + bytes.substr(1),
                                   std::string(1, '\x01') + bytes.substr(1),
                                   std::string(1, '\x04') + bytes.substr(1)}) {
    Arena scratch;
    StatusOr<PlanServiceRequestView> rejected =
        DeserializePlanServiceRequestView(other, &scratch);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kDataLoss);
  }
}

TEST(ServiceMessages, MetricsMessagesRoundTripAndRejectTruncation) {
  PlanServiceMetricsRequest request;
  request.name_prefix = "dcp_server_";
  const std::string request_bytes = SerializePlanServiceMetricsRequest(request);
  StatusOr<PlanServiceMetricsRequest> decoded_request =
      DeserializePlanServiceMetricsRequest(request_bytes);
  ASSERT_TRUE(decoded_request.ok()) << decoded_request.status().ToString();
  EXPECT_EQ(decoded_request.value().name_prefix, request.name_prefix);
  for (size_t len = 0; len < request_bytes.size(); ++len) {
    EXPECT_FALSE(
        DeserializePlanServiceMetricsRequest(request_bytes.substr(0, len)).ok());
  }
  EXPECT_FALSE(DeserializePlanServiceMetricsRequest(request_bytes + "x").ok());
  // The prefix is a metric name, not a document: oversized prefixes rejected.
  PlanServiceMetricsRequest oversized;
  oversized.name_prefix.assign(10000, 'a');
  EXPECT_FALSE(DeserializePlanServiceMetricsRequest(
                   SerializePlanServiceMetricsRequest(oversized))
                   .ok());

  PlanServiceMetricsResponse response;
  response.code = StatusCode::kOk;
  response.text = "# HELP dcp_x_total x\n# TYPE dcp_x_total counter\ndcp_x_total 7\n";
  const std::string response_bytes = SerializePlanServiceMetricsResponse(response);
  StatusOr<PlanServiceMetricsResponse> decoded_response =
      DeserializePlanServiceMetricsResponse(response_bytes);
  ASSERT_TRUE(decoded_response.ok()) << decoded_response.status().ToString();
  EXPECT_EQ(decoded_response.value().code, StatusCode::kOk);
  EXPECT_EQ(decoded_response.value().text, response.text);
  for (size_t len = 0; len < response_bytes.size(); ++len) {
    EXPECT_FALSE(
        DeserializePlanServiceMetricsResponse(response_bytes.substr(0, len)).ok());
  }
  EXPECT_FALSE(DeserializePlanServiceMetricsResponse(response_bytes + "y").ok());

  // Error shape: a non-OK code with a message and no text.
  PlanServiceMetricsResponse error;
  error.code = StatusCode::kFailedPrecondition;
  error.message = "metrics disabled";
  StatusOr<PlanServiceMetricsResponse> decoded_error =
      DeserializePlanServiceMetricsResponse(
          SerializePlanServiceMetricsResponse(error));
  ASSERT_TRUE(decoded_error.ok());
  EXPECT_EQ(decoded_error.value().code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(decoded_error.value().message, "metrics disabled");
  EXPECT_TRUE(decoded_error.value().text.empty());
}

TEST(ServiceTransport, ConnectToDeadEndpointIsUnavailable) {
  // Bind (grabbing a port) and immediately close, then connect to the dead port.
  StatusOr<Listener> listener = Listener::Bind(ServiceAddress::Tcp("127.0.0.1", 0));
  ASSERT_TRUE(listener.ok());
  const ServiceAddress address = listener.value().bound_address();
  listener.value().Close();
  StatusOr<Socket> client = ConnectSocket(address);
  ASSERT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace dcp
