// Shared pieces of the benchmark binary: arguments, exact order
// statistics over the benchmark's own samples, the in-memory span log of
// traced runs, per-op plan accumulators, and the result record printed as
// the run's last line.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "models/convnet.h"
#include "plan/plan.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Where a traced run writes its span file and per-op table.
  std::string out_dir = ".";
};

double ms_between(Clock::time_point a, Clock::time_point b);

// Exact order statistics: nearest-rank percentiles of the samples, never
// histogram buckets. Samples keep their insertion order.
class Samples {
 public:
  void add(double x) {
    v_.push_back(x);
    dirty_ = true;
  }
  void reserve(size_t n) { v_.reserve(n); }
  size_t size() const { return v_.size(); }
  const std::vector<double>& values() const { return v_; }
  double mean() const;
  // Nearest-rank percentile, q in (0, 1].
  double percentile(double q) const;
  // Samples strictly above the q-percentile: a tail percentile is only
  // reported when at least ten samples lie beyond it.
  size_t beyond(double q) const;

 private:
  const std::vector<double>& sorted() const;
  std::vector<double> v_;
  mutable std::vector<double> sorted_;
  mutable bool dirty_ = false;
};

// One interval of a traced run. Spans of one request or batch share `id`;
// `parent` is the id of the span that caused it (0 = none).
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  double t0_us = 0.0;  // since the log's epoch
  double t1_us = 0.0;
  int thread = 0;
};

// In-memory span log; spans are written to disk only when the run ends.
// Recording is off (a null check) in untraced runs.
class SpanLog {
 public:
  explicit SpanLog(size_t capacity);
  void add(const char* name, uint64_t id, uint64_t parent,
           Clock::time_point t0, Clock::time_point t1, int thread);
  size_t size() const;
  // Writes {"spans": [...]} as JSON; returns false on I/O failure.
  bool write(const std::string& path) const;

 private:
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

// Null unless the run is traced.
extern SpanLog* g_spans;

inline void trace_span(const char* name, uint64_t id, uint64_t parent,
                       Clock::time_point t0, Clock::time_point t1,
                       int thread) {
  if (g_spans != nullptr) g_spans->add(name, id, parent, t0, t1, thread);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run produced. Any failed check makes the run
// incorrect; the reasons go to stderr.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;        // end-to-end (untraced runs)
  std::vector<Metric> layer_metrics;  // per-layer (traced runs)
  // Pre-rendered JSON values keyed by name, for the run's meta line.
  std::vector<std::pair<std::string, std::string>> meta;

  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void meta_num(const std::string& key, double value);
  void meta_str(const std::string& key, const std::string& value);
  // Where tail_metric reports: an end-to-end metric, a per-layer metric,
  // or a figure of the meta line.
  enum class To { kEndToEnd, kLayer, kMeta };
  // Reports a percentile of the samples, failing the run when a tail
  // percentile (q >= 0.9) has fewer than ten samples beyond it.
  void tail_metric(To to, const std::string& name, const Samples& s, double q,
                   const std::string& unit);
};

// Per-op plan figures accumulated over the passes of a traced run: the
// per-op table reads the plan's public accessors after every pass.
struct OpAccumulator {
  std::vector<int64_t> macs;       // executed MACs, summed over passes
  std::vector<int64_t> raw_groups;
  std::vector<int64_t> groups;
  int64_t passes = 0;
  void record(const antidote::plan::InferencePlan& plan);
};

// Median achieved GMAC/s of direct gemm_nn / igemm_u8s8_dequant calls on
// the plan's largest conv shape at batch `n`, timed for about `seconds`.
struct KernelPeaks {
  double gemm_gmacs = 0.0;
  double igemm_gmacs = 0.0;
  int m = 0, n = 0, k = 0;
};
KernelPeaks measure_kernel_peaks(const antidote::plan::InferencePlan& plan,
                                 int batch, double seconds);

// Writes one row per plan op (ms, MACs, GMAC/s, % of the matching
// measured peak, estimated bytes, raw -> coarsened groups) as JSON.
bool write_op_table(const std::string& path,
                    const antidote::plan::InferencePlan& plan,
                    const OpAccumulator& acc, int batch,
                    const KernelPeaks& peaks);

// Bitwise comparison of two logits tensors.
bool bitwise_equal(const antidote::Tensor& a, const antidote::Tensor& b);

// Max relative logit deviation and top-1 agreement of int8 logits against
// the f32 reference on the same batch (dense, no gates).
struct Int8Parity {
  double max_rel_diff = 0.0;
  double top1_agreement = 0.0;
};
Int8Parity int8_parity(antidote::models::ConvNet& net,
                       const antidote::Tensor& batch);

Result run_offline(const Args& args);
Result run_serve(const Args& args);

}  // namespace perfbench
