// The repo benchmark driver:
//
//   dcp_perfbench --workload cold_causal|cold_sparse|warm_serve --seed N --seconds S
//                 --trace 0|1 --out-dir DIR
//
// Prints every metric as "name value unit", then one JSON result line. The untraced
// run (--trace 0) reports the end-to-end metrics; the traced run (--trace 1) reports
// the per-layer ones and dumps its spans to DIR. Exits 1 when a correctness check
// failed, 2 on bad usage, 3 when the load generator missed its schedule (an invalid
// run, not a slow one).
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"

namespace {

const std::vector<std::string> kEndToEnd = {
    "setup_s",     "train_tokens_per_s", "attn_fwbw_ms", "plan_ms_p50",
    "plan_ms_p95", "serve_ms_p50",       "serve_ms_p95", "peak_rss_mb"};

// Grouped by layer, in the order of the README's layer map.
const std::vector<std::string> kPerLayer = {
    "masks.ms_p50", "block_gen.ms_p50", "hypergraph_build.ms_p50", "block_gen.comp_blocks",
    "placement.ms_p50", "placement.coarsen_ms_p50", "placement.initial_ms_p50",
    "placement.refine_ms_p50", "placement.connectivity",
    "schedule.ms_p50", "plan_compile.ms_p50", "plan_validate.ms_p50",
    "plan_compile.instructions",
    "plan.comm_mb", "plan.inter_node_comm_mb", "plan.max_device_comm_mb",
    "plan.flops_imbalance", "plan.mem_imbalance", "sim.exposed_comm_ms",
    "sim.attn_compute_ms",
    "baseline.mlm_attn_fwbw_ms", "baseline.speedup_vs_mlm",
    "plan_store.put_ms_p50", "plan_store.decode_ms_p50", "plan_store.record_kb",
    "engine.misses", "engine.hit_ratio",
    "serve.memory_ms_p50", "serve.store_ms_p50", "serve.server_ms_mean",
    "serve.share_memory", "serve.share_store", "serve.share_planned", "client.retries",
    "client.rpc_errors",
    "loadgen.late_ms_p95", "trace.unattributed_share", "trace.overhead_share",
    "error_rate"};

int Usage(const char* why) {
  std::cerr << "dcp_perfbench: " << why
            << "\nusage: dcp_perfbench --workload cold_causal|cold_sparse|warm_serve "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.process_start_ns = perfbench::NowNs();
  if (argc % 2 == 0) return Usage("every flag takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") opt.workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stoi(value);
      else if (flag == "--trace") opt.trace = std::stoi(value) != 0;
      else if (flag == "--out-dir") opt.out_dir = value;
      else return Usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (opt.out_dir.empty() || opt.seconds < 1) return Usage("missing --out-dir or --seconds");
  const bool cold = opt.workload == "cold_causal" || opt.workload == "cold_sparse";
  if (!cold && opt.workload != "warm_serve") return Usage("unknown --workload");
  std::filesystem::create_directories(opt.out_dir);

  // The planner fans its partitioner portfolio out on the global pool, and the calling
  // thread drains tasks beside the pool's workers. A pool of one worker per core would
  // run one thread more than there are cores, so plan times would also time the
  // scheduler; one worker fewer fills the cores exactly. Plans are bit-identical on
  // any pool size.
  dcp::ThreadPool planner_pool(
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()) - 1));
  dcp::ScopedThreadPoolOverride planner_pool_override(&planner_pool);

  perfbench::Report report;
  perfbench::Checks checks;
  perfbench::SpanRecorder spans;
  const perfbench::RunResult run = cold ? perfbench::RunCold(opt, report, checks, spans)
                                        : perfbench::RunWarm(opt, report, checks, spans);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  const std::vector<std::string>& names = opt.trace ? kPerLayer : kEndToEnd;
  for (const std::string& name : names) {
    if (name != "error_rate") {
      checks.Expect(report.Has(name), "metric " + name + " was not measured");
    }
  }
  if (opt.trace) {
    const std::string path = opt.out_dir + "/spans-" + opt.workload + ".jsonl";
    checks.Expect(spans.WriteJsonl(path), "cannot write " + path);
  }
  const int64_t failed = run.failed_requests + checks.failed();
  const int64_t attempted = run.attempted > 0 ? run.attempted : 1;
  report.Set("error_rate", static_cast<double>(failed) / static_cast<double>(attempted),
             "ratio");

  report.PrintLines();
  if (opt.trace) {
    std::printf("baseline.speedup_vs_mlm %.3fx on %s; paper: %s\n",
                report.Value("baseline.speedup_vs_mlm"), opt.workload.c_str(),
                opt.workload == "cold_sparse" ? "1.00-1.46x with sparse masks"
                                              : "up to 1.16x with the causal mask");
  }
  if (run.invalid) {
    std::cerr << "dcp_perfbench: invalid run: load generator lateness p95 over its bound\n";
    return 3;
  }
  std::printf("%s\n", report.Json(failed == 0, attempted, failed, names).c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}
