// dcp::PlanServer — the serving half of the planning service (dcp::PlanService = this
// server + the TenantRegistry engine pool + PlanClient). The paper overlaps planning
// with training because planning is the shared CPU-bound bottleneck (§6.1); at
// production scale that planner belongs in its own process so many trainer ranks (and
// many jobs) share one warm plan cache instead of each re-planning identical batch
// shapes.
//
// Threading model — event-driven, bounded thread count independent of connections:
//   - a fixed pool of `io_threads` loop threads, each multiplexing its share of the
//     connections through a Poller (epoll on Linux, poll fallback). Loop 0 also owns
//     the non-blocking listener: accept errors are transient operational conditions
//     (EMFILE, ECONNABORTED), answered with backoff + retry, never loop exit.
//   - non-blocking reads into a per-connection FrameAssembler; complete frames are
//     admitted (overload / per-tenant quota) on the loop thread and executed on a
//     ThreadPool of `workers` that does the actual planning.
//   - responses are queued on a per-connection outbox and drained by the owning loop
//     with writev: the frame header + payload head ride one iovec, the cached PlanStore
//     record bytes ride another, so the hit path never copies the record. A reader that
//     stops draining is bounded by `max_output_queue_bytes` and then closed (slow
//     readers shed whole connections, never individual responses, so the strict
//     request-response ordering of the protocol survives).
//
// A malformed frame (bad magic/CRC/length) is counted, answered with an error frame,
// and the connection is drained then dropped — framing sync is gone — but the server
// keeps serving every other connection.
#ifndef DCP_SERVICE_PLAN_SERVER_H_
#define DCP_SERVICE_PLAN_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "runtime/instructions.h"
#include "service/event_loop.h"
#include "service/fault_injection.h"
#include "service/frame.h"
#include "service/tenant_registry.h"
#include "service/transport.h"

namespace dcp {

struct PlanServerOptions {
  int workers = 2;
  // IO loop threads. Each multiplexes its share of all connections, so the server's
  // thread count is workers + io_threads + (gossip ? 1 : 0) regardless of how many
  // clients connect.
  int io_threads = 2;
  // listen(2) backlog; <= 0 uses SOMAXCONN. A connection burst deeper than the backlog
  // is SYN-dropped by the kernel and surfaces as client connect timeouts.
  int listen_backlog = 0;
  // Per-connection response outbox bound. A connection whose peer stops draining
  // responses is closed once this many queued bytes accumulate (slow-reader shedding);
  // the buffers a dead-slow reader pins are otherwise unbounded.
  size_t max_output_queue_bytes = size_t{8} << 20;
  // Test/diagnostic knob: use the portable poll(2) backend even where epoll exists,
  // so the fallback stays continuously exercised.
  bool force_poll_backend = false;
  // In-flight request bound (queued + executing). At the bound, requests are rejected
  // with UNAVAILABLE ("overloaded") instead of queued. 0 rejects everything — useful
  // for drain/maintenance mode and for testing client backoff paths.
  int max_queue = 64;
  // Per-tenant in-flight bound (0 disables): one tenant's burst gets UNAVAILABLE for
  // that tenant only, while every other tenant keeps planning. Enforced on the loop
  // thread (the request is decoded before admission), counted per tenant in
  // dcp_server_tenant_shed_quota_total{tenant}.
  int max_inflight_per_tenant = 0;
  // Cap on inbound REQUEST frames. Requests (tenant + seqlens + mask params) are a few
  // KB; only responses carry compiled plans. The frame header commits the claimed
  // length before the checksum can be verified, so a small request cap is what stops a
  // malicious 16-byte header from committing a giant allocation per connection.
  uint64_t max_frame_payload_bytes = uint64_t{1} << 20;
  // Encoded-record LRU: compiled plans are immutable per signature, so the wire bytes
  // (PlanStore record: serialize + CRC) are computed once and replayed on every
  // subsequent hit — the record encode would otherwise dominate the server-cache-hit
  // RPC latency. 0 disables (every response re-encodes).
  int record_cache_capacity = 256;
  // Anti-entropy gossip: every gossip_interval_ms (0 disables), a background task
  // exchanges per-tenant signature indexes with each peer replica and pulls the
  // records it lacks, so a plan computed once becomes warm fleet-wide.
  std::vector<ServiceAddress> peers;
  int gossip_interval_ms = 0;
  int max_sync_records_per_exchange = 64;
  // Records adopted from peers (and servable without replanning), LRU-bounded. The
  // key — the plan signature — fully determines the plan bytes, so the tier is shared
  // across tenants by construction.
  int replica_record_cache_capacity = 1024;
  // Per-request phase tracing: every completed plan request leaves a trace
  // (queue-wait / cache-probe / store-read / plan stages / encode / write-drain)
  // in a bounded in-memory ring, newest first. Requests slower than
  // slow_request_log_ms end to end (arrival to last response byte handed to the
  // kernel) are additionally logged to stderr with their phase breakdown; 0
  // disables the slow log.
  int trace_ring_capacity = 256;
  int64_t slow_request_log_ms = 1000;
  // When set, this server consults the injector at FaultPoint::kServe before planning
  // (straggler delays, chaos-mode failures), at kAccept on each accept attempt
  // (simulated EMFILE/ECONNABORTED pressure), and at kSyncRecord when shipping gossip
  // records (stale-record corruption). Transport-level faults attach via the global
  // injector instead (see service/fault_injection.h).
  std::shared_ptr<FaultInjector> fault_injector;
};

struct PlanServerStats {
  int64_t connections_accepted = 0;
  int64_t requests_received = 0;   // Well-formed request frames (plan + sync + metrics).
  int64_t responses_sent = 0;
  int64_t plan_ok = 0;
  int64_t plan_errors = 0;         // Plan requests answered with a non-OK status.
  int64_t rejected_overload = 0;
  int64_t malformed_frames = 0;
  int64_t shed_quota = 0;          // Rejected over a tenant's in-flight quota.
  int64_t shed_deadline = 0;       // Dropped unplanned: the deadline had expired.
  int64_t replica_cache_hits = 0;  // Plan requests served from gossip-adopted records.
  int64_t sync_records_shipped = 0;
  int64_t sync_records_adopted = 0;
  int64_t sync_records_rejected = 0;  // Peer records that failed validation.
  // Transient accept failures (injected or real EMFILE/ENFILE/ECONNABORTED) answered
  // with backoff + retry instead of killing the accept path.
  int64_t accept_soft_errors = 0;
  // Plan responses whose record bytes were written straight from the shared cached
  // record (writev), with zero copies of the record on the serve path.
  int64_t zero_copy_serves = 0;
  // Connections closed because the peer stopped draining and the outbox hit
  // max_output_queue_bytes.
  int64_t slow_reader_closes = 0;
};

class PlanServer {
 public:
  PlanServer(std::shared_ptr<TenantRegistry> registry, PlanServerOptions options);
  ~PlanServer();

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  // Binds `address` and starts the IO loops + worker pool. For tcp:...:0 the
  // ephemeral port is visible through bound_address().
  Status Start(const ServiceAddress& address);
  const ServiceAddress& bound_address() const { return bound_; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  // Stops accepting, joins the IO loops, and drains in-flight work. Idempotent; also
  // run by the destructor.
  void Stop();

  PlanServerStats stats() const;
  // Recent completed plan-request traces, newest first (see trace_ring_capacity).
  std::vector<metrics::Trace> recent_traces() const { return trace_ring_.Snapshot(); }

  TenantRegistry& registry() { return *registry_; }

  // IO loop threads actually running (0 when stopped). Published atomically in
  // Start()/Stop() so stats pollers never race Stop() clearing loops_.
  int io_thread_count() const {
    return io_thread_count_.load(std::memory_order_acquire);
  }
  // The readiness backend the loops selected; meaningful only while running.
  // Same publication discipline as io_thread_count().
  Poller::Backend poller_backend() const {
    return static_cast<Poller::Backend>(
        poller_backend_.load(std::memory_order_acquire));
  }

 private:
  // Write-drain bookkeeping riding 1:1 with one outbox entry. The trace (null for
  // non-plan frames) is finalized — write-drain phase, total latency into the
  // serve-source histogram, ring push, slow log — when its frame's last byte is
  // handed to the kernel, or when the connection dies with the frame still queued.
  // No default member initializers: the enclosing class's QueueResponse default
  // argument value-initializes one, which the language forbids before PlanServer is
  // complete if NSDMIs are present — construct with {} everywhere instead.
  struct PendingResponseTrace {
    std::shared_ptr<metrics::Trace> trace;
    metrics::Histogram* latency_hist;  // Resolved by the enqueuing worker.
    int64_t enqueue_us;
    bool armed() const { return trace != nullptr; }
  };

  // One accepted connection. The fields below `mu` are shared between the owning loop
  // thread and worker threads; everything above it is loop-thread-only.
  struct Connection {
    explicit Connection(uint64_t max_payload_bytes) : assembler(max_payload_bytes) {}

    Socket socket;
    int fd = -1;
    int loop_index = 0;
    FrameAssembler assembler;
    bool read_open = true;          // recv still expected; cleared on EOF/desync.
    bool close_after_drain = false; // Malformed stream: close once the outbox drains.
    bool registered_write = false;  // Poller currently watches writability.
    size_t front_offset = 0;        // Bytes of outbox.front() already written.

    // Innermost: QueueResponse takes it last, nothing is acquired under it.
    // dcp-analyze: allow(lock-order): leaf lock.
    Mutex mu;
    // Only the loop thread pops; workers only push.
    std::deque<FrameParts> outbox DCP_GUARDED_BY(mu);
    // Element i annotates outbox[i]; pushed and popped in lockstep with it.
    std::deque<PendingResponseTrace> outbox_traces DCP_GUARDED_BY(mu);
    size_t outbox_bytes DCP_GUARDED_BY(mu) = 0;
    // A pointer to this conn sits in the loop's notify queue.
    bool notified DCP_GUARDED_BY(mu) = false;
    // No more responses accepted; loop closes when it sees it.
    bool dead DCP_GUARDED_BY(mu) = false;
    // Worker jobs still holding this connection; it is only freed at zero, so a
    // response enqueue can never race connection destruction.
    std::atomic<int> pending_jobs{0};
  };

  // One IO thread's state. `conns`/`graveyard` are owned by the loop thread alone;
  // `mu` guards the two cross-thread queues.
  struct IoLoop {
    explicit IoLoop(bool prefer_epoll) : poller(prefer_epoll) {}

    int index = 0;
    Poller poller;
    int wake_fd = -1;  // eventfd; workers and Stop() write, the loop drains.
    std::thread thread;
    // Live per-loop gauges (labeled loop="<index>"): frames and bytes currently
    // queued across this loop's connection outboxes. Adjusted wherever outbox
    // entries are pushed, drained, or discarded.
    metrics::Gauge* queue_depth = nullptr;
    metrics::Gauge* output_queue_bytes = nullptr;

    // Innermost: held only around queue push/swap, nothing acquired under it.
    // dcp-analyze: allow(lock-order): leaf lock.
    Mutex mu;
    // Conns with freshly queued responses.
    std::vector<Connection*> notify_queue DCP_GUARDED_BY(mu);
    // Routed by the accept loop.
    std::vector<std::unique_ptr<Connection>> incoming DCP_GUARDED_BY(mu);

    std::unordered_map<int, std::unique_ptr<Connection>> conns;
    // Closed conns still pinned by worker jobs or a queued notification.
    std::vector<std::unique_ptr<Connection>> graveyard;

    // Accept backoff state (loop 0 only).
    bool accept_paused = false;
    int64_t accept_resume_ms = 0;
    int64_t accept_backoff_ms = 1;
  };

  // A decoded plan request in flight to a worker: the wire payload plus the arena the
  // request view's spans point into, so the worker plans straight off the wire bytes.
  struct PlanJob;


  struct ServeResult {
    PlanServiceResponse response;  // record always empty; the bytes travel separately.
    std::shared_ptr<const std::string> record;  // Null for error responses.
  };

  void IoLoopMain(IoLoop& loop);
  void Wake(IoLoop& loop);
  void DrainWake(IoLoop& loop);
  void DoAccept(IoLoop& loop);
  void PauseAccept(IoLoop& loop);
  void ResumeAccept(IoLoop& loop);
  void AdoptConnection(IoLoop& loop, std::unique_ptr<Connection> conn);
  void AdoptIncoming(IoLoop& loop);
  void ProcessNotifies(IoLoop& loop);
  void OnReadable(IoLoop& loop, Connection* conn);
  void ProcessInbound(IoLoop& loop, Connection* conn);
  // Admission (overload, per-tenant quota) + dispatch of one well-formed frame.
  void HandleInboundFrame(IoLoop& loop, Connection* conn, Frame frame);
  void FlushWrites(IoLoop& loop, Connection* conn);
  void CloseConn(IoLoop& loop, Connection* conn);
  // Closes the connection once nothing more can or should be written.
  void MaybeFinish(IoLoop& loop, Connection* conn);
  void Reap(IoLoop& loop);

  // Queues one encoded frame for the owning loop to write; sheds the connection if the
  // outbox bound is exceeded. Callable from any thread.
  void QueueResponse(Connection* conn, FrameParts parts,
                     PendingResponseTrace trace = PendingResponseTrace());
  // Frames a plan response as head + shared record bytes (zero-copy on the hit path).
  void QueuePlanResponse(Connection* conn, const PlanServiceResponse& response,
                         std::shared_ptr<const std::string> record,
                         std::shared_ptr<metrics::Trace> trace = nullptr);
  // Closes out a drained (or discarded) response's trace: write-drain phase, total
  // latency, histogram record, ring push, slow-request log.
  void FinalizeResponseTrace(PendingResponseTrace& pending, bool drained);

  // Decodes and executes one non-plan request frame on a worker thread.
  void HandleFrame(Connection* conn, Frame frame);
  // One admitted plan request on a worker thread: chaos delay, deadline shed, plan,
  // respond, release the tenant quota slot.
  void HandlePlanJob(Connection* conn, const std::shared_ptr<PlanJob>& job);
  ServeResult HandlePlanRequest(const std::string& tenant,
                                std::span<const int64_t> seqlens,
                                const MaskSpec& mask_spec, int64_t block_size);
  PlanSyncResponse HandleSyncRequest(const PlanSyncRequest& request);
  // The PlanStore record bytes for `handle`, from the encoded-record LRU when present.
  std::shared_ptr<const std::string> EncodedRecordFor(const PlanHandle& handle);

  // Gossip-adopted record tier.
  std::shared_ptr<const std::string> ReplicaRecordLookup(const PlanSignature& sig);
  void ReplicaRecordAdopt(const PlanSignature& sig,
                          std::shared_ptr<const std::string> record);
  std::vector<std::pair<uint64_t, uint64_t>> LocalSignatureIndex(Engine& engine);
  void GossipLoop();
  void GossipWithPeer(const ServiceAddress& peer);

  const std::shared_ptr<TenantRegistry> registry_;
  const PlanServerOptions options_;

  Listener listener_;
  ServiceAddress bound_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<IoLoop>> loops_;
  std::atomic<uint64_t> next_loop_{0};  // Round-robin connection routing.
  std::thread gossip_thread_;
  std::atomic<bool> running_{false};
  std::atomic<int> in_flight_{0};
  // Snapshots of loops_ facts for lock-free stats pollers (see io_thread_count()).
  std::atomic<int> io_thread_count_{0};
  std::atomic<int> poller_backend_{static_cast<int>(Poller::Backend::kPoll)};

  Mutex gossip_mu_;  // Pairs with gossip_cv_ for an interruptible interval sleep.
  CondVar gossip_cv_;

  Mutex record_cache_mu_;
  std::list<std::pair<PlanSignature, std::shared_ptr<const std::string>>> record_lru_
      DCP_GUARDED_BY(record_cache_mu_);
  std::unordered_map<
      PlanSignature,
      std::list<std::pair<PlanSignature, std::shared_ptr<const std::string>>>::iterator,
      PlanSignatureHash>
      record_cache_ DCP_GUARDED_BY(record_cache_mu_);

  // Records other replicas computed, pulled by gossip; signature-keyed, LRU-bounded.
  Mutex replica_cache_mu_;
  std::list<std::pair<PlanSignature, std::shared_ptr<const std::string>>> replica_lru_
      DCP_GUARDED_BY(replica_cache_mu_);
  std::unordered_map<
      PlanSignature,
      std::list<std::pair<PlanSignature, std::shared_ptr<const std::string>>>::iterator,
      PlanSignatureHash>
      replica_cache_ DCP_GUARDED_BY(replica_cache_mu_);

  // Per-tenant in-flight counts (admission quota); keyed only for registered tenants.
  Mutex quota_mu_ DCP_ACQUIRED_BEFORE(stats_mu_);
  std::unordered_map<std::string, int> tenant_inflight_ DCP_GUARDED_BY(quota_mu_);

  // Tentpole observability (common/metrics.h): every server counter lives in a
  // child registry attached to the process-global one, and PlanServerStats is a
  // thin view assembled from the counters' atomic cells — stats() and the scrape
  // can never disagree. Pointers resolved once in the constructor.
  std::shared_ptr<metrics::Registry> metrics_;
  struct ServerCounters {
    metrics::Counter* connections_accepted = nullptr;
    metrics::Counter* requests_received = nullptr;
    metrics::Counter* responses_sent = nullptr;
    metrics::Counter* plan_ok = nullptr;
    metrics::Counter* plan_errors = nullptr;
    metrics::Counter* rejected_overload = nullptr;
    metrics::Counter* malformed_frames = nullptr;
    metrics::Counter* shed_quota = nullptr;
    metrics::Counter* shed_deadline = nullptr;
    metrics::Counter* replica_cache_hits = nullptr;
    metrics::Counter* sync_records_shipped = nullptr;
    metrics::Counter* sync_records_adopted = nullptr;
    metrics::Counter* sync_records_rejected = nullptr;
    metrics::Counter* accept_soft_errors = nullptr;
    metrics::Counter* zero_copy_serves = nullptr;
    metrics::Counter* slow_reader_closes = nullptr;
  };
  ServerCounters counters_;
  metrics::TraceRing trace_ring_;

  // Per-tenant request counters, registry-backed (labeled tenant="<name>"); the map
  // only caches the pointer lookups. Keyed only for registered tenants.
  struct TenantCounters {
    metrics::Counter* requests = nullptr;
    metrics::Counter* plan_errors = nullptr;
    metrics::Counter* shed_quota = nullptr;
  };
  TenantCounters& TenantCountersFor(const std::string& tenant);
  metrics::Histogram* ServeHistogramFor(const std::string& tenant,
                                        PlanServeSource source);
  mutable Mutex stats_mu_;
  std::unordered_map<std::string, TenantCounters> tenant_counters_
      DCP_GUARDED_BY(stats_mu_);
};

}  // namespace dcp

#endif  // DCP_SERVICE_PLAN_SERVER_H_
