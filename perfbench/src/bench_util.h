// Shared pieces of the repo benchmark: run options, timing through
// metrics::MonotonicNanos, percentile summaries, the in-memory span recorder used by
// traced runs, correctness-check bookkeeping, plan-outcome pricing, and the metric
// report printed at exit.
#ifndef DCP_PERFBENCH_BENCH_UTIL_H_
#define DCP_PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/thread_annotations.h"
#include "core/plan_signature.h"
#include "core/plan_store.h"
#include "core/planner.h"
#include "data/batching.h"
#include "data/dataset.h"
#include "e2e/model_spec.h"
#include "masks/mask_spec.h"
#include "runtime/cluster.h"
#include "runtime/instructions.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir;        // Scratch for plan stores and the span dump.
  int64_t process_start_ns = 0;
};

inline int64_t NowNs() { return dcp::metrics::MonotonicNanos(); }
inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

// Linear-interpolated percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

// Removes and recreates `dir` (a scratch directory under Options::out_dir).
void ResetDir(const std::string& dir);

// 131072-token batches of `kind` lengths (capped at 131072), seeded.
dcp::BatchStream MakeStream(dcp::DatasetKind kind, uint64_t seed);

// FNV-1a over the generated sequence lengths, printed as `inputs.fingerprint <hex>`
// so the determinism self-test can tell two seeds' inputs apart.
class InputFingerprint {
 public:
  void Add(const std::vector<int64_t>& seqlens);
  void Print() const;

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

// One timed interval. Spans of one request share `request`; `parent` indexes the
// recorder (-1 for a root).
struct Span {
  std::string name;
  std::string label;
  uint64_t request = 0;
  int64_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double ms() const { return NsToMs(end_ns - start_ns); }
};

// Spans live in memory for the whole run and are written out once at exit, so the
// measured region pays one mutex-guarded push per span and no IO.
class SpanRecorder {
 public:
  // Returns the span's index (a parent handle for its children).
  int64_t Add(Span span);
  void SetEnd(int64_t index, int64_t end_ns);

  std::vector<double> DurationsMs(const std::string& name,
                                  const std::string& label = "") const;
  // Σ duration of spans named `name` (any label), in ns.
  int64_t TotalNs(const std::string& name) const;
  // 1 - Σ child self time / Σ root time over roots named `root`.
  double UnattributedShare(const std::string& root) const;
  // One JSON object per line; returns false on an IO error.
  bool WriteJsonl(const std::string& path) const;

 private:
  mutable dcp::Mutex mu_;
  std::vector<Span> spans_ DCP_GUARDED_BY(mu_);
};

// Runs `fn` inside a child span of `parent` and returns its result.
template <typename Fn>
auto Timed(SpanRecorder& recorder, const char* name, uint64_t request, int64_t parent,
           Fn&& fn) {
  const int64_t start = NowNs();
  auto result = fn();
  recorder.Add(Span{name, "", request, parent, start, NowNs()});
  return result;
}

class Report;

// Correctness bookkeeping shared by every generator thread. A failed check counts in
// `failed` and in error_rate, and makes the process exit non-zero.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  int64_t failed() const;

 private:
  mutable dcp::Mutex mu_;
  int64_t failed_ DCP_GUARDED_BY(mu_) = 0;
};

// Every plan, whatever its origin, must pass the structural validator.
void ExpectValid(Checks& checks, const dcp::BatchPlan& plan, const std::string& what);

// Modelled outcome of a fixed prefix of the workload's batches: GPT-8B iteration time
// (e2e/iteration_model), simulated attention fw+bw (runtime/sim_engine), the plan's
// comm/balance counts and its size (tiles, connectivity, instructions, record bytes),
// plus the TransformerEngine (MLM) baseline priced the same way
// when `with_baseline` is set. Deterministic per seed: the prefix never depends on
// timing.
class Outcome {
 public:
  Outcome(dcp::ClusterSpec cluster, bool with_baseline)
      : cluster_(cluster), with_baseline_(with_baseline) {}

  void Add(const std::vector<int64_t>& seqlens, const dcp::MaskSpec& mask,
           const dcp::PlannerOptions& options, const dcp::BatchPlan& plan);
  // Sets train_tokens_per_s, attn_fwbw_ms, every plan.* / sim.* / baseline.* metric
  // and the plan-size counts.
  void Emit(Report& report) const;
  int batches() const { return batches_; }

 private:
  dcp::ClusterSpec cluster_;
  dcp::ModelSpec model_ = dcp::ModelSpec::Gpt8B();
  bool with_baseline_;
  int batches_ = 0;
  double tokens_ = 0, iteration_s_ = 0, attn_fwbw_s_ = 0;
  double comm_mb_ = 0, inter_node_mb_ = 0, max_device_mb_ = 0;
  double flops_imbalance_ = 0, mem_imbalance_ = 0;
  double exposed_comm_s_ = 0, attn_compute_s_ = 0;
  double tiles_ = 0, connectivity_ = 0, instructions_ = 0, record_kb_ = 0;
  double mlm_attn_fwbw_s_ = 0, mlm_iteration_s_ = 0;
};

// Metrics set by a workload, printed as "name = value unit" lines and then as the
// closing JSON object (only the names the run's mode reports).
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  double Value(const std::string& name) const {
    return Has(name) ? values_.at(name).first : 0.0;
  }
  void PrintLines() const;
  // The result line: `names` selects and orders the metrics.
  std::string Json(bool correct, int64_t attempted, int64_t failed,
                   const std::vector<std::string>& names) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
  std::vector<std::string> order_;
};

// The traced replay of a planning request: PlanBatch's stages called one by one
// (BuildBatchMasks -> GenerateBlocks -> BuildPlacementHypergraph -> PlaceBlocks ->
// ScheduleBlocks -> CompilePlan -> ValidatePlan -> PlanStore::Put), each a child span
// of one `batch` root, then checked byte-equal to the plan Engine::Plan returned for
// the same request.
class StageReplay {
 public:
  // With a non-empty `store_dir`, each composed plan is also Put into a store there,
  // inside the root span, so every Put writes a fresh record.
  StageReplay(const dcp::ClusterSpec& cluster, const dcp::PlannerOptions& options,
              const std::string& store_dir, SpanRecorder& spans, Checks& checks);
  ~StageReplay();

  // Returns the composed plan's store record.
  std::string Replay(const std::vector<int64_t>& seqlens, const dcp::MaskSpec& mask,
                     const dcp::PlanSignature& sig, const dcp::BatchPlan& engine_plan,
                     uint64_t request);
  // Sets the planner-stage metrics and plan_store.put_ms_p50.
  void Emit(Report& report) const;

 private:
  dcp::ClusterSpec cluster_;
  dcp::PlannerOptions options_;
  SpanRecorder& spans_;
  Checks& checks_;
  std::unique_ptr<dcp::PlanStore> store_;
  // Partitioner sub-stage times per request (PlacementResult::stages), in ms.
  std::vector<double> coarsen_ms_, initial_ms_, refine_ms_;
};

// Run-level tallies a workload fills in for main().
struct RunResult {
  int64_t attempted = 0;        // Measured requests.
  int64_t failed_requests = 0;  // Requests that returned a non-OK status.
  bool invalid = false;         // The load generator missed its schedule.
};

// A run whose generator lateness p95 exceeds this is invalid, not slow. It is a quarter
// of the 40 ms between two sends on one warm_serve connection, so a generator within
// the bound still offers the intended rate; host scheduling delays wake-ups by a few ms.
inline constexpr double kLateBoundMs = 10.0;
// Sets loadgen.late_ms_p95 and marks `run` invalid when it exceeds kLateBoundMs.
void ReportLateness(Report& report, const std::vector<double>& late_ms, RunResult& run);

RunResult RunCold(const Options& options, Report& report, Checks& checks,
                  SpanRecorder& spans);
RunResult RunWarm(const Options& options, Report& report, Checks& checks,
                  SpanRecorder& spans);

// Reports setup_s as the median of the timed set-up repetitions.
void ReportSetup(Report& report, const std::vector<int64_t>& setup_ns);
// Reports plan_ms_p50/p95 or serve_ms_p50/p95 (`prefix`) from latency samples.
void ReportLatency(Report& report, const std::string& prefix,
                   const std::vector<double>& ms);

}  // namespace perfbench

#endif  // DCP_PERFBENCH_BENCH_UTIL_H_
