#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <unordered_map>

#include "baselines/static_planner.h"
#include "core/plan_store.h"
#include "e2e/iteration_model.h"
#include "runtime/cost_model.h"
#include "runtime/plan_validate.h"
#include "runtime/sim_engine.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

dcp::BatchStream MakeStream(dcp::DatasetKind kind, uint64_t seed) {
  dcp::DatasetConfig data;
  data.kind = kind;
  data.max_seq_len = 131072;
  data.seed = seed;
  return dcp::BatchStream(dcp::LengthSampler(data), dcp::BatchingConfig{131072});
}

void InputFingerprint::Add(const std::vector<int64_t>& seqlens) {
  for (int64_t len : seqlens) {
    hash_ = (hash_ ^ static_cast<uint64_t>(len)) * 1099511628211ull;
  }
}

void InputFingerprint::Print() const {
  std::printf("inputs.fingerprint %016llx\n", static_cast<unsigned long long>(hash_));
}

int64_t SpanRecorder::Add(Span span) {
  dcp::MutexLock lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::SetEnd(int64_t index, int64_t end_ns) {
  dcp::MutexLock lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end_ns;
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name,
                                              const std::string& label) const {
  dcp::MutexLock lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && (label.empty() || span.label == label)) {
      out.push_back(span.ms());
    }
  }
  return out;
}

int64_t SpanRecorder::TotalNs(const std::string& name) const {
  dcp::MutexLock lock(mu_);
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end_ns - span.start_ns;
  }
  return total;
}

double SpanRecorder::UnattributedShare(const std::string& root) const {
  dcp::MutexLock lock(mu_);
  // Children of one root run one after another, so each child's self time is its
  // whole duration (no span here has grandchildren).
  std::unordered_map<int64_t, int64_t> child_ns;
  for (const Span& span : spans_) {
    if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  int64_t root_total = 0;
  int64_t attributed = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != root || spans_[i].parent >= 0) continue;
    root_total += spans_[i].end_ns - spans_[i].start_ns;
    const auto it = child_ns.find(static_cast<int64_t>(i));
    if (it != child_ns.end()) attributed += it->second;
  }
  if (root_total <= 0) return 0.0;
  return 1.0 - static_cast<double>(attributed) / static_cast<double>(root_total);
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  dcp::MutexLock lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"label\":\"" << s.label
        << "\",\"request\":" << s.request << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

void Checks::Expect(bool ok, const std::string& what) {
  if (ok) return;
  dcp::MutexLock lock(mu_);
  if (failed_ < 20) std::cerr << "CHECK FAILED: " << what << "\n";
  ++failed_;
}

int64_t Checks::failed() const {
  dcp::MutexLock lock(mu_);
  return failed_;
}

void ExpectValid(Checks& checks, const dcp::BatchPlan& plan, const std::string& what) {
  const dcp::PlanValidation validation = dcp::ValidatePlan(plan);
  checks.Expect(validation.ok, what + " fails ValidatePlan: " + validation.Summary());
}

void Outcome::Add(const std::vector<int64_t>& seqlens, const dcp::MaskSpec& mask,
                  const dcp::PlannerOptions& options, const dcp::BatchPlan& plan) {
  const dcp::SimEngine sim{dcp::CostModel(cluster_)};
  const dcp::SimResult fwbw = sim.SimulateFwBw(plan);
  const dcp::PlanStats& stats = plan.stats;
  ++batches_;
  for (int64_t len : seqlens) tokens_ += static_cast<double>(len);
  iteration_s_ += dcp::ModelIteration(model_, cluster_, plan).Total();
  attn_fwbw_s_ += fwbw.makespan;
  comm_mb_ += static_cast<double>(stats.total_comm_bytes) * 1e-6;
  inter_node_mb_ += static_cast<double>(stats.inter_node_comm_bytes) * 1e-6;
  max_device_mb_ += static_cast<double>(stats.max_device_comm_bytes) * 1e-6;
  flops_imbalance_ += stats.total_flops > 0
                          ? stats.max_device_flops * plan.num_devices() / stats.total_flops
                          : 1.0;
  mem_imbalance_ += stats.min_device_owned_bytes > 0
                        ? static_cast<double>(stats.max_device_owned_bytes) /
                              static_cast<double>(stats.min_device_owned_bytes)
                        : 1.0;
  for (const dcp::DevicePlan& device : plan.devices) {
    instructions_ += static_cast<double>(device.instructions.size() +
                                         device.backward_instructions.size());
    for (const dcp::Instruction& instr : device.instructions) {
      // Each forward attention tile runs exactly once across the cluster.
      if (instr.kind == dcp::InstrKind::kBlockwiseAttention) {
        tiles_ += static_cast<double>(instr.attn_items.size());
      }
    }
  }
  connectivity_ += stats.partition_cost;
  record_kb_ +=
      static_cast<double>(dcp::PlanStore::EncodeRecord(dcp::PlanSignature{}, plan).size()) /
      1024.0;
  exposed_comm_s_ += fwbw.MeanExposedComm();
  attn_compute_s_ += fwbw.MeanAttentionCompute();
  if (with_baseline_) {
    const dcp::BaselineResult mlm = dcp::PlanBaseline(
        dcp::BaselineKind::kTransformerEngine, seqlens, mask, cluster_, options);
    mlm_attn_fwbw_s_ += sim.SimulateFwBw(mlm.plan).makespan;
    mlm_iteration_s_ += dcp::ModelIteration(model_, cluster_, mlm.plan).Total();
  }
}

void Outcome::Emit(Report& report) const {
  const double n = batches_ > 0 ? batches_ : 1;
  report.Set("train_tokens_per_s", iteration_s_ > 0 ? tokens_ / iteration_s_ : 0.0,
             "tokens/s");
  report.Set("attn_fwbw_ms", attn_fwbw_s_ / n * 1e3, "ms");
  report.Set("plan.comm_mb", comm_mb_ / n, "MB");
  report.Set("plan.inter_node_comm_mb", inter_node_mb_ / n, "MB");
  report.Set("plan.max_device_comm_mb", max_device_mb_ / n, "MB");
  report.Set("plan.flops_imbalance", flops_imbalance_ / n, "ratio");
  report.Set("plan.mem_imbalance", mem_imbalance_ / n, "ratio");
  report.Set("sim.exposed_comm_ms", exposed_comm_s_ / n * 1e3, "ms");
  report.Set("sim.attn_compute_ms", attn_compute_s_ / n * 1e3, "ms");
  report.Set("block_gen.comp_blocks", tiles_ / n, "count");
  report.Set("placement.connectivity", connectivity_ / n, "count");
  report.Set("plan_compile.instructions", instructions_ / n, "count");
  report.Set("plan_store.record_kb", record_kb_ / n, "KB");
  if (with_baseline_) {
    report.Set("baseline.mlm_attn_fwbw_ms", mlm_attn_fwbw_s_ / n * 1e3, "ms");
    report.Set("baseline.speedup_vs_mlm",
               iteration_s_ > 0 ? mlm_iteration_s_ / iteration_s_ : 0.0, "x");
  }
}

void Report::Set(const std::string& name, double value, const std::string& unit) {
  if (values_.count(name) == 0) order_.push_back(name);
  values_[name] = {value, unit};
}

void Report::PrintLines() const {
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    std::printf("%-32s %.10g %s\n", name.c_str(), value, unit.c_str());
  }
}

std::string Report::Json(bool correct, int64_t attempted, int64_t failed,
                         const std::vector<std::string>& names) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < names.size(); ++i) {
    const auto it = values_.find(names[i]);
    const double value = it == values_.end() ? 0.0 : it->second.first;
    const std::string unit = it == values_.end() ? "" : it->second.second;
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + names[i] + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  return out;
}

void ReportSetup(Report& report, const std::vector<int64_t>& setup_ns) {
  std::vector<double> seconds;
  for (int64_t ns : setup_ns) seconds.push_back(static_cast<double>(ns) * 1e-9);
  report.Set("setup_s", Percentile(seconds, 50), "s");
}

void ReportLateness(Report& report, const std::vector<double>& late_ms, RunResult& run) {
  const double p95 = Percentile(late_ms, 95);
  report.Set("loadgen.late_ms_p95", p95, "ms");
  if (p95 > kLateBoundMs) run.invalid = true;
}

void ReportLatency(Report& report, const std::string& prefix,
                   const std::vector<double>& ms) {
  report.Set(prefix + "_p50", Percentile(ms, 50), "ms");
  report.Set(prefix + "_p95", Percentile(ms, 95), "ms");
  report.Set(prefix + ".samples", static_cast<double>(ms.size()), "count");
}

}  // namespace perfbench
