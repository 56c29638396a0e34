// dcpctl — command-line front end to the DCP session engine, simulator, and planning
// service. Useful for poking at parallelization configurations without writing code:
//
//   dcpctl plan     --seqlens 65536,32768,8192 --mask lambda --nodes 4 --devices 8
//   dcpctl simulate --seqlens 65536,32768      --mask causal --block 2048
//   dcpctl tune     --seqlens 40960,24576      --mask shared_question
//   dcpctl plan     --seqlens 65536,32768 --store /var/dcp/plans   # warm-start cache
//   dcpctl cache stats  --store /var/dcp/plans
//   dcpctl cache export --store /var/dcp/plans --out plans.bundle
//   dcpctl cache import --store /var/dcp/plans --in  plans.bundle
//   dcpctl serve  --listen tcp:0.0.0.0:7070 --nodes 4 --devices 8 --tenant prod
//   dcpctl serve  --listen tcp:0.0.0.0:7071 --peer tcp:10.0.0.7:7070 --quota 32
//   dcpctl serve  --listen tcp:0.0.0.0:7070 --chaos 42        # fault-injection drill
//   dcpctl remote plan  --connect tcp:10.0.0.7:7070 --tenant prod --seqlens 65536,32768
//   dcpctl remote plan  --replica tcp:10.0.0.7:7070 --replica tcp:10.0.0.8:7070
//                       --tenant prod --seqlens 65536,32768   # failover + hedging
//   dcpctl remote metrics --connect tcp:10.0.0.7:7070 --prefix dcp_server_tenant_
//
// `plan` prints the plan summary, per-device stats, and the engine's plan-cache
// counters; `simulate` prices fw+bw and prints the decomposition; `tune` runs the
// paper's block-size search through Engine::AutoTune; `cache` inspects and ships the
// persistent plan store (export/import move plan records between machines as a single
// bundle file — corrupt records are counted and skipped, never fatal). `serve` runs a
// multi-tenant dcp::PlanServer until SIGINT/SIGTERM — each `--tenant NAME` registers a
// tenant with the cluster/planner/store flags in effect at that point on the command
// line (no `--tenant` serves a single tenant named "default"); `remote plan|metrics`
// talk to a running server through dcp::PlanClient — the metrics scrape is the server's
// stats view, with per-tenant series labeled tenant="<name>". Malformed numeric flags and
// planner-rejected inputs exit with code 2 and a usage message instead of aborting.
#include <csignal>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/engine.h"
#include "core/plan_store.h"
#include "masks/mask.h"
#include "runtime/plan_validate.h"
#include "runtime/sim_engine.h"
#include "service/fault_injection.h"
#include "service/plan_client.h"
#include "service/plan_server.h"
#include "service/replica_set.h"
#include "service/tenant_registry.h"
#include "service/transport.h"

using namespace dcp;

namespace {

constexpr const char kUsage[] =
    "usage: dcpctl plan|simulate|tune [--seqlens a,b,c] "
    "[--mask causal|lambda|blockwise|shared_question] "
    "[--nodes N] [--devices D] [--block B] [--store DIR] [--verbose]\n"
    "       dcpctl cache stats|export|import --store DIR [--out FILE] [--in FILE]\n"
    "       dcpctl serve --listen tcp:HOST:PORT|unix:PATH [--workers N] [--queue N]\n"
    "                    [--io-threads N] [--backlog N] [--peer ADDR]... [--gossip-ms N]\n"
    "                    [--quota N] [--chaos [SEED]]\n"
    "                    [cluster/planner flags] [--tenant NAME]...   (flags before\n"
    "                    each --tenant configure that tenant; none = one 'default')\n"
    "       dcpctl remote plan --connect tcp:HOST:PORT|unix:PATH [--tenant NAME]\n"
    "                    [--seqlens a,b,c] [--mask M] [--block B]\n"
    "       dcpctl remote plan --replica ADDR [--replica ADDR]... [--hedge-ms N]\n"
    "                    [--timeout-ms N] [--tenant NAME] [--seqlens a,b,c] [--mask M]\n"
    "       dcpctl remote metrics --connect ADDR [--prefix NAME] [--watch [--watch-ms N]]\n"
    "                    (server + per-tenant counters; tenants labeled tenant=\"NAME\")\n"
    "       dcpctl serve ... [--metrics-dump-ms N]   (periodic Prometheus dump to stderr)\n";

[[noreturn]] void UsageError(const std::string& detail) {
  std::fprintf(stderr, "dcpctl: %s\n%s", detail.c_str(), kUsage);
  std::exit(2);
}

// Strict base-10 parse of a whole string; rejects empty, trailing junk, and overflow.
bool ParseInt64(const std::string& text, int64_t* out) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return false;
  }
  *out = value;
  return true;
}

std::vector<int64_t> ParseSeqlens(const std::string& csv) {
  std::vector<int64_t> out;
  size_t pos = 0;
  while (pos <= csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) {
      comma = csv.size();
    }
    const std::string item = csv.substr(pos, comma - pos);
    int64_t value = 0;
    if (!ParseInt64(item, &value)) {
      UsageError("--seqlens expects a comma-separated list of integers, got '" + item +
                 "' in '" + csv + "'");
    }
    out.push_back(value);
    pos = comma + 1;
  }
  return out;
}

MaskSpec ParseMask(const std::string& name) {
  if (name == "causal") {
    return MaskSpec::Causal();
  }
  if (name == "lambda") {
    return MaskSpec::Lambda();
  }
  if (name == "causal_blockwise" || name == "blockwise") {
    return MaskSpec::CausalBlockwise();
  }
  if (name == "shared_question" || name == "sharedq") {
    return MaskSpec::SharedQuestion();
  }
  UsageError("unknown mask '" + name + "' (causal|lambda|blockwise|shared_question)");
}

struct Args {
  std::string command;
  std::string subcommand;  // For `cache` and `remote`.
  std::vector<int64_t> seqlens = {65536, 32768, 16384, 16384};
  MaskSpec mask = MaskSpec::Causal();
  int64_t nodes = 4;
  int64_t devices = 8;
  int64_t block = 2048;
  std::string store;     // Plan-store directory (empty = no persistence).
  std::string out_file;  // cache export target.
  std::string in_file;   // cache import source.
  bool verbose = false;
  // Planning service.
  std::string listen;            // serve: address to bind.
  std::string connect;           // remote: address to dial.
  std::string tenant = "default";  // remote: tenant to plan under.
  int64_t workers = 2;
  int64_t queue = 64;
  int64_t io_threads = 2;  // serve: event-loop threads multiplexing all connections.
  int64_t backlog = 0;     // serve: listen(2) backlog (0 = SOMAXCONN).
  std::vector<std::string> peers;  // serve: anti-entropy gossip partners.
  int64_t gossip_ms = 0;           // serve: gossip interval (0 = gossip off).
  int64_t quota = 0;               // serve: per-tenant in-flight cap (0 = off).
  bool chaos = false;              // serve: arm the fault-injection harness.
  int64_t chaos_seed = -1;         // serve: explicit seed (-1 = DCP_FAULT_SEED/clock).
  std::vector<std::string> replicas;  // remote plan: fleet addresses for a ReplicaSet.
  int64_t hedge_ms = 0;               // remote plan: hedge delay ceiling (0 = default).
  int64_t timeout_ms = 0;             // remote plan: per-request deadline (0 = default).
  std::string metrics_prefix = "dcp_";  // remote metrics: series name filter.
  bool watch = false;                   // remote metrics: re-scrape until interrupted.
  int64_t watch_ms = 2000;              // remote metrics: scrape interval under --watch.
  int64_t metrics_dump_ms = 0;          // serve: periodic stderr dump (0 = off).
  std::vector<TenantConfig> tenants;  // serve: built from --tenant flags in order.
  // serve: a cluster/planner/store flag appeared after the last --tenant. Those flags
  // would apply to no tenant; silently dropping them would make an operator believe
  // (say) persistence is on when it is not — rejected with usage instead.
  bool tenant_flags_dangling = false;
};

ClusterSpec MakeCluster(const Args& args) {
  ClusterSpec cluster;
  cluster.num_nodes = static_cast<int>(args.nodes);
  cluster.devices_per_node = static_cast<int>(args.devices);
  return cluster;
}

EngineOptions MakeEngineOptions(const Args& args) {
  EngineOptions engine_options;
  engine_options.planner.block_size = args.block;
  engine_options.planner.num_groups = 2;
  engine_options.planner.heads_per_group = 4;
  engine_options.planner.head_dim = 128;
  engine_options.plan_store_path = args.store;
  return engine_options;
}

void CheckClusterBounds(const Args& args) {
  // 4096 x 4096 keeps num_nodes * devices_per_node comfortably inside int.
  if (args.nodes < 1 || args.nodes > 4096 || args.devices < 1 || args.devices > 4096) {
    UsageError("--nodes and --devices must be in [1, 4096]");
  }
}

Args Parse(int argc, char** argv) {
  Args args;
  if (argc < 2) {
    UsageError("missing command");
  }
  args.command = argv[1];
  int first_flag = 2;
  if (args.command == "cache") {
    if (argc < 3 || argv[2][0] == '-') {
      UsageError("cache requires a subcommand (stats|export|import)");
    }
    args.subcommand = argv[2];
    first_flag = 3;
  }
  if (args.command == "remote") {
    if (argc < 3 || argv[2][0] == '-') {
      UsageError("remote requires a subcommand (plan|metrics)");
    }
    args.subcommand = argv[2];
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; ++i) {
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        UsageError(std::string("missing value for ") + argv[i]);
      }
      return argv[++i];
    };
    auto next_int = [&](const char* flag) -> int64_t {
      const std::string flag_name = flag;  // `next()` advances i; capture the name first.
      const std::string text = next();
      int64_t value = 0;
      if (!ParseInt64(text, &value)) {
        UsageError(flag_name + " expects an integer, got '" + text + "'");
      }
      return value;
    };
    if (std::strcmp(argv[i], "--seqlens") == 0) {
      args.seqlens = ParseSeqlens(next());
    } else if (std::strcmp(argv[i], "--mask") == 0) {
      args.mask = ParseMask(next());
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      args.nodes = next_int("--nodes");
      args.tenant_flags_dangling = true;
    } else if (std::strcmp(argv[i], "--devices") == 0) {
      args.devices = next_int("--devices");
      args.tenant_flags_dangling = true;
    } else if (std::strcmp(argv[i], "--block") == 0) {
      args.block = next_int("--block");
      args.tenant_flags_dangling = true;
    } else if (std::strcmp(argv[i], "--store") == 0) {
      args.store = next();
      args.tenant_flags_dangling = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      args.out_file = next();
    } else if (std::strcmp(argv[i], "--in") == 0) {
      args.in_file = next();
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      args.verbose = true;
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      args.listen = next();
    } else if (std::strcmp(argv[i], "--connect") == 0) {
      args.connect = next();
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      args.workers = next_int("--workers");
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      args.queue = next_int("--queue");
    } else if (std::strcmp(argv[i], "--io-threads") == 0) {
      args.io_threads = next_int("--io-threads");
    } else if (std::strcmp(argv[i], "--backlog") == 0) {
      args.backlog = next_int("--backlog");
    } else if (std::strcmp(argv[i], "--peer") == 0) {
      args.peers.push_back(next());
    } else if (std::strcmp(argv[i], "--gossip-ms") == 0) {
      args.gossip_ms = next_int("--gossip-ms");
    } else if (std::strcmp(argv[i], "--quota") == 0) {
      args.quota = next_int("--quota");
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      args.chaos = true;
      // Optional positional seed: `--chaos 42`. Without one the seed comes from
      // DCP_FAULT_SEED (or the clock), and is printed for reproduction either way.
      int64_t seed = 0;
      if (i + 1 < argc && ParseInt64(argv[i + 1], &seed)) {
        args.chaos_seed = seed;
        ++i;
      }
    } else if (std::strcmp(argv[i], "--replica") == 0) {
      args.replicas.push_back(next());
    } else if (std::strcmp(argv[i], "--hedge-ms") == 0) {
      args.hedge_ms = next_int("--hedge-ms");
    } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
      args.timeout_ms = next_int("--timeout-ms");
    } else if (std::strcmp(argv[i], "--prefix") == 0) {
      args.metrics_prefix = next();
    } else if (std::strcmp(argv[i], "--watch") == 0) {
      args.watch = true;
    } else if (std::strcmp(argv[i], "--watch-ms") == 0) {
      args.watch_ms = next_int("--watch-ms");
    } else if (std::strcmp(argv[i], "--metrics-dump-ms") == 0) {
      args.metrics_dump_ms = next_int("--metrics-dump-ms");
    } else if (std::strcmp(argv[i], "--tenant") == 0) {
      const std::string name = next();
      if (args.command == "serve") {
        // Snapshot the cluster/planner/store flags seen so far into this tenant.
        CheckClusterBounds(args);
        args.tenants.push_back({name, MakeCluster(args), MakeEngineOptions(args)});
        args.tenant_flags_dangling = false;
      } else {
        args.tenant = name;
      }
    } else {
      UsageError(std::string("unknown flag ") + argv[i]);
    }
  }
  return args;
}

void PrintCacheStats(const Engine& engine) {
  const PlanCacheStats stats = engine.cache_stats();
  std::printf("plan cache: %lld hits, %lld misses, %lld evictions, %lld cached plans "
              "(hit rate %.0f%%)\n",
              static_cast<long long>(stats.hits), static_cast<long long>(stats.misses),
              static_cast<long long>(stats.evictions),
              static_cast<long long>(stats.entries), stats.HitRate() * 100.0);
  if (engine.plan_store() != nullptr) {
    std::printf("plan store: %lld disk hits, %lld writes, %lld corrupt skipped (%s)\n",
                static_cast<long long>(stats.store_hits),
                static_cast<long long>(stats.store_writes),
                static_cast<long long>(stats.store_corrupt_skipped),
                engine.plan_store()->directory().c_str());
  }
}

int RunCache(const Args& args) {
  if (args.store.empty()) {
    UsageError("cache commands require --store DIR");
  }
  StatusOr<std::unique_ptr<PlanStore>> store_or = PlanStore::Open(args.store);
  if (!store_or.ok()) {
    std::fprintf(stderr, "dcpctl: %s\n", store_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<PlanStore> store = std::move(store_or).value();

  if (args.subcommand == "stats") {
    int valid = 0;
    int corrupt = 0;
    int64_t total_tokens = 0;
    for (const PlanSignature& sig : store->Signatures()) {
      StatusOr<BatchPlan> plan = store->Load(sig);
      if (!plan.ok()) {
        std::printf("  %s  CORRUPT: %s\n", sig.ToHex().c_str(),
                    plan.status().ToString().c_str());
        ++corrupt;
        continue;
      }
      ++valid;
      total_tokens += plan.value().layout.TotalTokens();
      if (args.verbose) {
        std::printf("  %s  %d devices, %d seqs, block %lld, %lld tokens\n",
                    sig.ToHex().c_str(), plan.value().num_devices(),
                    plan.value().layout.num_sequences(),
                    static_cast<long long>(plan.value().layout.block_size),
                    static_cast<long long>(plan.value().layout.TotalTokens()));
      }
    }
    std::printf("plan store %s: %d valid records (%lld planned tokens), %d corrupt\n",
                store->directory().c_str(), valid,
                static_cast<long long>(total_tokens), corrupt);
    return corrupt == 0 ? 0 : 1;
  }
  if (args.subcommand == "export") {
    if (args.out_file.empty()) {
      UsageError("cache export requires --out FILE");
    }
    StatusOr<int> n = store->ExportBundle(args.out_file);
    if (!n.ok()) {
      std::fprintf(stderr, "dcpctl: %s\n", n.status().ToString().c_str());
      return 1;
    }
    std::printf("exported %d plan records to %s (%lld corrupt skipped)\n", n.value(),
                args.out_file.c_str(),
                static_cast<long long>(store->stats().corrupt_skipped));
    return 0;
  }
  if (args.subcommand == "import") {
    if (args.in_file.empty()) {
      UsageError("cache import requires --in FILE");
    }
    StatusOr<int> n = store->ImportBundle(args.in_file);
    if (!n.ok()) {
      std::fprintf(stderr, "dcpctl: %s\n", n.status().ToString().c_str());
      return 1;
    }
    std::printf("imported %d plan records into %s (%lld corrupt skipped)\n", n.value(),
                store->directory().c_str(),
                static_cast<long long>(store->stats().corrupt_skipped));
    return 0;
  }
  UsageError("unknown cache subcommand '" + args.subcommand + "'");
}

volatile std::sig_atomic_t g_stop_requested = 0;
void HandleStopSignal(int) { g_stop_requested = 1; }

int RunServe(const Args& args) {
  if (args.listen.empty()) {
    UsageError("serve requires --listen tcp:HOST:PORT or unix:PATH");
  }
  StatusOr<ServiceAddress> address = ServiceAddress::Parse(args.listen);
  if (!address.ok()) {
    UsageError(address.status().ToString());
  }
  if (args.workers < 1 || args.queue < 0) {
    UsageError("--workers must be >= 1 and --queue >= 0");
  }
  if (args.io_threads < 1 || args.backlog < 0) {
    UsageError("--io-threads must be >= 1 and --backlog >= 0");
  }

  auto registry = std::make_shared<TenantRegistry>();
  std::vector<TenantConfig> tenants = args.tenants;
  if (tenants.empty()) {
    CheckClusterBounds(args);
    tenants.push_back({"default", MakeCluster(args), MakeEngineOptions(args)});
  } else if (args.tenant_flags_dangling) {
    UsageError("cluster/planner/store flags after the last --tenant apply to no "
               "tenant; place them before the --tenant they configure");
  }
  for (const TenantConfig& tenant : tenants) {
    const Status registered = registry->Register(tenant);
    if (!registered.ok()) {
      UsageError(registered.ToString());
    }
    std::printf("tenant %-16s %d x %d devices, block %lld%s%s\n", tenant.name.c_str(),
                tenant.cluster.num_nodes, tenant.cluster.devices_per_node,
                static_cast<long long>(tenant.options.planner.block_size),
                tenant.options.plan_store_path.empty() ? "" : ", store ",
                tenant.options.plan_store_path.c_str());
  }

  PlanServerOptions server_options;
  server_options.workers = static_cast<int>(args.workers);
  server_options.max_queue = static_cast<int>(args.queue);
  server_options.max_inflight_per_tenant = static_cast<int>(args.quota);
  server_options.io_threads = static_cast<int>(args.io_threads);
  server_options.listen_backlog = static_cast<int>(args.backlog);
  for (const std::string& peer : args.peers) {
    StatusOr<ServiceAddress> parsed = ServiceAddress::Parse(peer);
    if (!parsed.ok()) {
      UsageError("--peer " + peer + ": " + parsed.status().ToString());
    }
    server_options.peers.push_back(parsed.value());
  }
  if (!server_options.peers.empty() && args.gossip_ms <= 0) {
    server_options.gossip_interval_ms = 500;  // Peers without an interval: sane default.
  } else {
    server_options.gossip_interval_ms = static_cast<int>(args.gossip_ms);
  }

  // `--chaos` arms the fault-injection harness on this process: the injector drives
  // both the serve-side fault point and (via the global hook) every transport socket,
  // so an operator can rehearse client failover against a deliberately flaky server.
  std::shared_ptr<FaultInjector> chaos;
  if (args.chaos) {
    const uint64_t seed = args.chaos_seed >= 0
                              ? static_cast<uint64_t>(args.chaos_seed)
                              : FaultSeedFromEnv(0x646370636f73ULL);
    chaos = std::make_shared<FaultInjector>(seed);
    FaultRates wire;
    wire.fail = 0.02;
    wire.tear = 0.02;
    chaos->SetRates(FaultPoint::kSend, wire);
    chaos->SetRates(FaultPoint::kRecv, wire);
    FaultRates serve;
    serve.fail = 0.02;
    serve.delay = 0.05;
    serve.delay_ms = 50;
    chaos->SetRates(FaultPoint::kServe, serve);
    server_options.fault_injector = chaos;
    InstallGlobalFaultInjector(chaos);
    std::printf("chaos: fault injection armed, seed %llu (re-run with --chaos %llu "
                "to reproduce)\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seed));
  }
  PlanServer server(registry, server_options);
  const Status started = server.Start(address.value());
  if (!started.ok()) {
    std::fprintf(stderr, "dcpctl: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("dcp plan service listening on %s (%lld workers, %d io threads, "
              "queue %lld%s)\n",
              server.bound_address().ToString().c_str(),
              static_cast<long long>(args.workers), server.io_thread_count(),
              static_cast<long long>(args.queue),
              args.quota > 0 ? ", per-tenant quota on" : "");
  for (const ServiceAddress& peer : server_options.peers) {
    std::printf("gossip: replicating plan records with %s every %d ms\n",
                peer.ToString().c_str(), server_options.gossip_interval_ms);
  }

  if (args.metrics_dump_ms > 0) {
    std::printf("metrics: dumping dcp_* series to stderr every %lld ms\n",
                static_cast<long long>(args.metrics_dump_ms));
  }
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  int64_t since_dump_ms = 0;
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (args.metrics_dump_ms > 0 && (since_dump_ms += 100) >= args.metrics_dump_ms) {
      since_dump_ms = 0;
      const std::string text = metrics::Registry::Global().RenderPrometheus("dcp_");
      std::fprintf(stderr, "# --- metrics dump ---\n%s", text.c_str());
    }
  }
  const PlanServerStats stats = server.stats();
  server.Stop();
  InstallGlobalFaultInjector(nullptr);
  std::printf("\nshutting down: %lld connections, %lld requests, %lld plans served, "
              "%lld plan errors, %lld overload rejections, %lld malformed frames\n",
              static_cast<long long>(stats.connections_accepted),
              static_cast<long long>(stats.requests_received),
              static_cast<long long>(stats.plan_ok),
              static_cast<long long>(stats.plan_errors),
              static_cast<long long>(stats.rejected_overload),
              static_cast<long long>(stats.malformed_frames));
  if (stats.shed_quota > 0 || stats.shed_deadline > 0) {
    std::printf("shed: %lld over-quota, %lld past-deadline\n",
                static_cast<long long>(stats.shed_quota),
                static_cast<long long>(stats.shed_deadline));
  }
  if (!server_options.peers.empty()) {
    std::printf("gossip: %lld records shipped, %lld adopted, %lld rejected\n",
                static_cast<long long>(stats.sync_records_shipped),
                static_cast<long long>(stats.sync_records_adopted),
                static_cast<long long>(stats.sync_records_rejected));
  }
  if (chaos != nullptr) {
    std::printf("chaos: %lld fault decisions, %lld injected\n",
                static_cast<long long>(chaos->decisions()),
                static_cast<long long>(chaos->injected()));
  }
  return 0;
}

// `remote plan` over a replica fleet: route through a ReplicaSet (failover + hedging +
// cooldown) instead of a single PlanClient, and print per-replica health afterwards.
int RunRemoteReplicated(const Args& args) {
  std::vector<ServiceAddress> addresses;
  for (const std::string& replica : args.replicas) {
    StatusOr<ServiceAddress> parsed = ServiceAddress::Parse(replica);
    if (!parsed.ok()) {
      UsageError("--replica " + replica + ": " + parsed.status().ToString());
    }
    addresses.push_back(parsed.value());
  }
  ReplicaSetOptions set_options;
  set_options.tenant = args.tenant;
  if (args.timeout_ms > 0) {
    set_options.request_timeout_ms = static_cast<int>(args.timeout_ms);
    set_options.connect_timeout_ms = static_cast<int>(args.timeout_ms);
  }
  if (args.hedge_ms > 0) {
    set_options.hedge_max_delay_ms = static_cast<int>(args.hedge_ms);
  }
  StatusOr<std::unique_ptr<ReplicaSet>> set_or =
      ReplicaSet::Create(addresses, set_options);
  if (!set_or.ok()) {
    std::fprintf(stderr, "dcpctl: %s\n", set_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<ReplicaSet> set = std::move(set_or).value();

  StatusOr<PlanHandle> handle =
      set->PlanWithBlockSize(args.seqlens, args.mask, args.block);
  if (!handle.ok()) {
    std::fprintf(stderr, "dcpctl: %s\n", handle.status().ToString().c_str());
    return 1;
  }
  const BatchPlan& plan = handle.value()->plan;
  const PlanValidation validation = ValidatePlan(plan);
  std::printf("%s\n", PlanToString(plan, args.verbose ? 64 : 4).c_str());
  std::printf("validation: %s\n", validation.Summary().c_str());
  const ReplicaSetStats stats = set->stats();
  std::printf("fleet: %lld rpcs, %lld failovers, %lld hedges (%lld wins, %lld waste) "
              "for tenant %s, signature %s\n",
              static_cast<long long>(stats.rpcs_sent),
              static_cast<long long>(stats.failovers),
              static_cast<long long>(stats.hedges_sent),
              static_cast<long long>(stats.hedge_wins),
              static_cast<long long>(stats.hedge_waste), args.tenant.c_str(),
              handle.value()->signature.ToHex().c_str());
  for (size_t i = 0; i < set->replica_count(); ++i) {
    const ReplicaHealth health = set->health(i);
    std::printf("replica %-24s %s, %lld rpcs, %lld failures, "
                "p50/p95/p99 %lld/%lld/%lld ms (%lld samples), hedge delay %lld ms\n",
                health.address.ToString().c_str(),
                health.available ? "available" : "cooling down",
                static_cast<long long>(health.rpcs),
                static_cast<long long>(health.failures),
                static_cast<long long>(health.p50_ms),
                static_cast<long long>(health.p95_ms),
                static_cast<long long>(health.p99_ms),
                static_cast<long long>(health.latency_samples),
                static_cast<long long>(health.p99_estimate_ms));
  }
  return validation.ok ? 0 : 1;
}

// `remote metrics`: scrape the server's registry as Prometheus text, once or (with
// --watch) repeatedly until interrupted.
int RunRemoteMetrics(PlanClient& client, const Args& args) {
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  do {
    StatusOr<PlanServiceMetricsResponse> metrics =
        client.ServerMetrics(args.metrics_prefix);
    if (!metrics.ok()) {
      std::fprintf(stderr, "dcpctl: %s\n", metrics.status().ToString().c_str());
      return 1;
    }
    if (args.watch) {
      std::printf("# --- scrape of %s (prefix '%s') ---\n", args.connect.c_str(),
                  args.metrics_prefix.c_str());
    }
    std::fputs(metrics.value().text.c_str(), stdout);
    std::fflush(stdout);
    if (args.watch && g_stop_requested == 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(std::max<int64_t>(100, args.watch_ms)));
    }
  } while (args.watch && g_stop_requested == 0);
  return 0;
}

int RunRemote(const Args& args) {
  if (args.subcommand == "plan" && !args.replicas.empty()) {
    return RunRemoteReplicated(args);
  }
  if (!args.replicas.empty()) {
    UsageError("--replica only applies to `remote plan`; use --connect for metrics");
  }
  if (args.connect.empty()) {
    UsageError("remote commands require --connect tcp:HOST:PORT or unix:PATH");
  }
  StatusOr<ServiceAddress> address = ServiceAddress::Parse(args.connect);
  if (!address.ok()) {
    UsageError(address.status().ToString());
  }
  PlanClientOptions client_options;
  client_options.tenant = args.tenant;
  StatusOr<std::unique_ptr<PlanClient>> client_or =
      PlanClient::Connect(address.value(), client_options);
  if (!client_or.ok()) {
    std::fprintf(stderr, "dcpctl: %s\n", client_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<PlanClient> client = std::move(client_or).value();

  if (args.subcommand == "plan") {
    StatusOr<PlanHandle> handle =
        client->PlanWithBlockSize(args.seqlens, args.mask, args.block);
    if (!handle.ok()) {
      std::fprintf(stderr, "dcpctl: %s\n", handle.status().ToString().c_str());
      return 1;
    }
    const BatchPlan& plan = handle.value()->plan;
    const PlanValidation validation = ValidatePlan(plan);
    std::printf("%s\n", PlanToString(plan, args.verbose ? 64 : 4).c_str());
    std::printf("validation: %s\n", validation.Summary().c_str());
    std::printf("served from: %s (tenant %s, signature %s)\n",
                PlanServeSourceName(client->last_source()).c_str(),
                args.tenant.c_str(), handle.value()->signature.ToHex().c_str());
    return validation.ok ? 0 : 1;
  }
  if (args.subcommand == "metrics") {
    return RunRemoteMetrics(*client, args);
  }
  UsageError("unknown remote subcommand '" + args.subcommand + "'");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  if (args.command == "cache") {
    return RunCache(args);
  }
  if (args.command == "serve") {
    return RunServe(args);
  }
  if (args.command == "remote") {
    return RunRemote(args);
  }
  CheckClusterBounds(args);
  const ClusterSpec cluster = MakeCluster(args);
  const EngineOptions engine_options = MakeEngineOptions(args);

  // Reject bad shapes before the engine spins anything up, with exit code 2 and usage.
  const Status valid =
      ValidatePlanRequest(args.seqlens, args.mask, cluster, engine_options.planner);
  if (!valid.ok()) {
    UsageError(valid.ToString());
  }
  Engine engine(cluster, engine_options);

  if (args.command == "plan") {
    const PlanHandle handle = engine.Plan(args.seqlens, args.mask).value();
    const BatchPlan& plan = handle->plan;
    const PlanValidation validation = ValidatePlan(plan);
    std::printf("%s\n", PlanToString(plan, args.verbose ? 64 : 4).c_str());
    std::printf("validation: %s\n", validation.Summary().c_str());
    std::printf("planning: %.1f ms, comm %.1f MiB (%.1f inter-node), "
                "owned-bytes balance %.2f\n",
                plan.stats.planning_seconds * 1e3,
                static_cast<double>(plan.stats.total_comm_bytes) / (1 << 20),
                static_cast<double>(plan.stats.inter_node_comm_bytes) / (1 << 20),
                static_cast<double>(plan.stats.max_device_owned_bytes) /
                    std::max<Bytes>(1, plan.stats.min_device_owned_bytes));
    PrintCacheStats(engine);
    return validation.ok ? 0 : 1;
  }
  if (args.command == "simulate") {
    const PlanHandle handle = engine.Plan(args.seqlens, args.mask).value();
    SimEngine sim{CostModel(cluster)};
    const SimResult fw = sim.Simulate(handle->plan, false);
    const SimResult bw = sim.Simulate(handle->plan, true);
    std::printf("attention fw %.3f ms, bw %.3f ms\n", fw.makespan * 1e3,
                bw.makespan * 1e3);
    std::printf("fw: compute %.3f ms, exposed comm %.3f ms, overlapped %.3f ms\n",
                fw.MeanAttentionCompute() * 1e3, fw.MeanExposedComm() * 1e3,
                fw.MeanOverlappedComm() * 1e3);
    return 0;
  }
  if (args.command == "tune") {
    const AutoTuneResult result = engine.AutoTune(args.seqlens, args.mask).value();
    for (const auto& [block, seconds] : result.candidates) {
      std::printf("block %5lld: fw+bw %.3f ms%s\n", static_cast<long long>(block),
                  seconds * 1e3, block == result.best_block_size ? "  <= best" : "");
    }
    if (result.tuned_from_cache) {
      std::printf("block %5lld: recorded winner (tune cache)\n",
                  static_cast<long long>(result.best_block_size));
    }
    return 0;
  }
  UsageError("unknown command '" + args.command + "'");
}
