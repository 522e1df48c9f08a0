// Probes around single layers: the per-op plan accumulator, the kernel
// peak measurements that serve as roofline denominators, the per-op
// table of a traced run and the int8 parity check of serving set-up.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "base/rng.h"
#include "bench.h"
#include "nn/execution_context.h"
#include "nn/int8_kernels.h"
#include "tensor/gemm.h"

namespace perfbench {

using antidote::plan::InferencePlan;
using antidote::plan::OpKind;
using antidote::plan::PlanOp;

void OpAccumulator::record(const InferencePlan& plan) {
  const size_t n = plan.ops().size();
  if (macs.size() != n) {
    macs.assign(n, 0);
    raw_groups.assign(n, 0);
    groups.assign(n, 0);
  }
  for (size_t i = 0; i < n; ++i) {
    const PlanOp& op = plan.ops()[i];
    macs[i] += op.last_macs;
    raw_groups[i] += op.last_groups_raw;
    groups[i] += op.last_groups;
  }
  ++passes;
}

namespace {

// The conv op with the most dense MACs, and the GEMM it issues: m filters,
// k patch rows, n output columns (one tile when the op is tiled, else all
// positions of the batch).
const PlanOp* largest_conv(const InferencePlan& plan) {
  const PlanOp* best = nullptr;
  for (const PlanOp& op : plan.ops()) {
    if (op.kind != OpKind::kConv) continue;
    if (best == nullptr || op.dense_macs > best->dense_macs) best = &op;
  }
  return best;
}

template <typename Fn>
double median_gmacs(double macs, double seconds, const Fn& call) {
  call();  // warm caches and scratch
  Samples rates;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    const Clock::time_point t0 = Clock::now();
    call();
    const Clock::time_point t1 = Clock::now();
    rates.add(macs / (ms_between(t0, t1) * 1e6));
  } while (Clock::now() < end || rates.size() < 5);
  return rates.percentile(0.5);
}

}  // namespace

KernelPeaks measure_kernel_peaks(const InferencePlan& plan, int batch,
                                 double seconds) {
  KernelPeaks peaks;
  const PlanOp* op = largest_conv(plan);
  if (op == nullptr) return peaks;
  peaks.m = op->out_shape[0];
  peaks.k = static_cast<int>(op->geom.patch_rows());
  peaks.n = static_cast<int>(op->tile_pos > 0
                                 ? op->tile_pos
                                 : op->geom.out_positions() * batch);
  const int m = peaks.m, n = peaks.n, k = peaks.k;
  const double macs = static_cast<double>(m) * n * k;

  antidote::Rng rng(7);
  std::vector<float> a(static_cast<size_t>(m) * k);
  std::vector<float> b(static_cast<size_t>(k) * n);
  std::vector<float> c(static_cast<size_t>(m) * n);
  for (float& v : a) v = rng.uniform_float(-1.f, 1.f);
  for (float& v : b) v = rng.uniform_float(-1.f, 1.f);

  antidote::Workspace ws;
  const Clock::time_point g0 = Clock::now();
  peaks.gemm_gmacs = median_gmacs(macs, seconds, [&] {
    ws.reset();
    antidote::gemm_nn(m, n, k, 1.f, a.data(), b.data(), 0.f, c.data(), &ws);
  });
  trace_span("probe.gemm_nn", 0, 0, g0, Clock::now(), 0);

  const int64_t k4 = antidote::nn::int8_align4(k);
  std::vector<int8_t> qw(static_cast<size_t>(m * k4));
  std::vector<float> wscale(static_cast<size_t>(m));
  std::vector<int32_t> wsum(static_cast<size_t>(m));
  std::vector<uint8_t> qb(static_cast<size_t>(k4 * n));
  antidote::nn::quantize_weights_rowwise(a.data(), m, k, qw.data(), k4,
                                         wscale.data(), wsum.data());
  const float act_scale =
      antidote::nn::quantize_activations(b.data(), k, n, qb.data());
  const Clock::time_point i0 = Clock::now();
  peaks.igemm_gmacs = median_gmacs(macs, seconds, [&] {
    antidote::nn::igemm_u8s8_dequant(m, n, k4, qw.data(), k4, qb.data(),
                                     wsum.data(), wscale.data(), act_scale,
                                     c.data(), n);
  });
  trace_span("probe.igemm_u8s8_dequant", 0, 0, i0, Clock::now(), 0);
  return peaks;
}

bool write_op_table(const std::string& path, const InferencePlan& plan,
                    const OpAccumulator& acc, int batch,
                    const KernelPeaks& peaks) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<antidote::plan::OpCost> costs = plan.cost_snapshot();
  const bool int8 = plan.regime() == antidote::plan::NumericRegime::kInt8;
  const double peak = int8 ? peaks.igemm_gmacs : peaks.gemm_gmacs;
  const double passes = static_cast<double>(std::max<int64_t>(acc.passes, 1));
  std::fprintf(f,
               "{\"batch\": %d, \"passes\": %lld, \"regime\": \"%s\", "
               "\"peak_gmacs\": %.6g, \"peak_kernel\": \"%s\", "
               "\"peak_shape\": [%d, %d, %d],\n \"ops\": [\n",
               batch, static_cast<long long>(acc.passes),
               antidote::plan::regime_name(plan.regime()), peak,
               int8 ? "igemm_u8s8_dequant" : "gemm_nn", peaks.m, peaks.n,
               peaks.k);
  const size_t n = plan.ops().size();
  for (size_t i = 0; i < n; ++i) {
    const PlanOp& op = plan.ops()[i];
    const double macs =
        i < acc.macs.size() ? static_cast<double>(acc.macs[i]) / passes : 0.0;
    const double gmacs = op.ewma_ms > 0.0 ? macs / (op.ewma_ms * 1e6) : 0.0;
    const double bytes =
        i < costs.size() ? costs[i].bytes_per_mac * macs : 0.0;
    const double raw =
        i < acc.raw_groups.size() ? acc.raw_groups[i] / passes : 0.0;
    const double coarse = i < acc.groups.size() ? acc.groups[i] / passes : 0.0;
    std::fprintf(f,
                 "  {\"op\": %zu, \"name\": \"%s\", \"kind\": \"%s\", "
                 "\"ms\": %.6g, \"macs\": %.6g, \"dense_macs\": %lld, "
                 "\"gmacs\": %.6g, \"pct_of_peak\": %.6g, "
                 "\"est_bytes\": %.6g, \"tile_pos\": %lld, "
                 "\"raw_groups\": %.4g, \"coarsened_groups\": %.4g}%s\n",
                 i, op.name.c_str(), antidote::plan::op_kind_name(op.kind),
                 op.ewma_ms, macs,
                 static_cast<long long>(op.dense_macs * batch), gmacs,
                 peak > 0.0 && op.kind == OpKind::kConv ? 100.0 * gmacs / peak
                                                       : 0.0,
                 bytes, static_cast<long long>(op.tile_pos), raw, coarse,
                 i + 1 < n ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

Int8Parity int8_parity(antidote::models::ConvNet& net,
                       const antidote::Tensor& batch) {
  antidote::nn::ExecutionContext ctx;
  const auto run = [&] {
    ctx.begin_pass();
    antidote::Tensor y = net.forward(batch, ctx);
    return std::vector<float>(y.data(), y.data() + y.size());
  };
  net.set_numeric_regime(antidote::plan::NumericRegime::kF32);
  const std::vector<float> ref = run();
  net.set_numeric_regime(antidote::plan::NumericRegime::kInt8);
  const std::vector<float> q = run();
  const int rows = batch.dim(0);
  const int classes = static_cast<int>(ref.size()) / rows;
  double max_diff = 0.0, max_ref = 0.0;
  int agree = 0;
  for (int r = 0; r < rows; ++r) {
    const float* fr = ref.data() + static_cast<size_t>(r) * classes;
    const float* qr = q.data() + static_cast<size_t>(r) * classes;
    int f_arg = 0, q_arg = 0;
    for (int c = 0; c < classes; ++c) {
      max_diff = std::max(max_diff, std::abs(double(fr[c]) - qr[c]));
      max_ref = std::max(max_ref, std::abs(double(fr[c])));
      if (fr[c] > fr[f_arg]) f_arg = c;
      if (qr[c] > qr[q_arg]) q_arg = c;
    }
    agree += f_arg == q_arg ? 1 : 0;
  }
  Int8Parity p;
  p.max_rel_diff = std::isfinite(max_diff) ? max_diff / std::max(1e-12, max_ref)
                                           : INFINITY;
  p.top1_agreement = static_cast<double>(agree) / rows;
  return p;
}

}  // namespace perfbench
