// Offline workloads: one caller in a closed loop over ConvNet::forward(x,
// ctx) on batches generated from the seed before the clock starts.
//
//   offline_masked_c32  vgg16 width 0.5 at 32x32, batch 8, uniform channel
//                       drop 0.3 / spatial drop 0.2: mask grouping, union
//                       coarsening and group dispatch set the cost; tiling
//                       declines at this resolution.
//   offline_dense_r224  vgg16 width 0.25 at 224x224, batch 2, no gates:
//                       tiled lowering, dense kernels and intra-op
//                       parallel_for do all the work.
#include <algorithm>
#include <cmath>
#include <memory>

#include "base/rng.h"
#include "bench.h"
#include "core/engine.h"
#include "models/factory.h"
#include "nn/execution_context.h"

namespace perfbench {

namespace {

using antidote::Rng;
using antidote::Tensor;

struct OfflineSpec {
  float width;
  int resolution;
  int batch;
  int pool_images;  // distinct images the batches are drawn from
  bool masked;
};

constexpr float kChannelDrop = 0.3f;
constexpr float kSpatialDrop = 0.2f;
constexpr uint64_t kModelSeed = 9;  // weights are fixed; inputs follow --seed
constexpr int kSetups = 15;         // set-ups per run; the median is reported
constexpr int kParityBatches = 2;   // batches checked against the module walk
constexpr double kProbeSeconds = 0.3;
constexpr int kThroughputWindows = 5;
// Enough forward calls for ten samples beyond a p95; a slow host runs past
// --seconds rather than report an unsupported percentile.
constexpr int kMinTimedPasses = 200;

OfflineSpec spec_for(const std::string& workload) {
  if (workload == "offline_masked_c32") return {0.5f, 32, 8, 256, true};
  return {0.25f, 224, 2, 16, false};
}

// Everything one set-up builds: the model, its gates and a reserved plan.
struct Instance {
  std::unique_ptr<antidote::models::ConvNet> net;
  std::unique_ptr<antidote::core::DynamicPruningEngine> engine;
  antidote::nn::ExecutionContext ctx;
};

std::unique_ptr<Instance> set_up(const OfflineSpec& spec, const Tensor& first) {
  auto inst = std::make_unique<Instance>();
  Rng rng(kModelSeed);
  inst->net = antidote::models::make_model("vgg16", 10, spec.width, rng);
  inst->net->set_training(false);
  if (spec.masked) {
    inst->engine = std::make_unique<antidote::core::DynamicPruningEngine>(
        *inst->net, antidote::core::PruneSettings::uniform(
                        inst->net->num_blocks(), kChannelDrop, kSpatialDrop));
  }
  antidote::plan::InferencePlan& plan =
      inst->net->inference_plan(3, spec.resolution, spec.resolution);
  plan.reserve(inst->ctx.workspace(), spec.batch);
  inst->ctx.begin_pass();
  inst->net->forward(first, inst->ctx);
  return inst;
}

// Figures of one measured window of the closed loop.
struct Window {
  Samples batch_ms;
  double seconds = 0.0;
  int64_t images = 0;
  int64_t ok = 0;  // passes whose logits are all finite
  double kept_macs = 0.0, dense_macs = 0.0;
  // Per-layer reads, taken only when `probe` is set.
  Samples gmacs;
  double channel_keep = 0.0, spatial_keep = 0.0;
  double coarsen_extra = 0.0;
  int64_t capped = 0;
  OpAccumulator ops;
};

// Runs the closed loop for `seconds`, and for at least `min_passes`.
Window run_window(Instance& inst, const std::vector<Tensor>& batches,
                  size_t& next, double seconds, int min_passes, bool probe) {
  Window w;
  antidote::plan::InferencePlan& plan = *inst.net->current_plan();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  uint64_t pass = 0;
  Clock::time_point t1 = start;
  while (t1 < end || pass < static_cast<uint64_t>(min_passes)) {
    const Tensor& x = batches[next++ % batches.size()];
    const Clock::time_point t0 = Clock::now();
    inst.ctx.begin_pass();
    const Tensor y = inst.net->forward(x, inst.ctx);
    t1 = Clock::now();
    const double ms = ms_between(t0, t1);
    w.batch_ms.add(ms);
    w.images += x.dim(0);
    w.ok += std::all_of(y.data(), y.data() + y.size(),
                        [](float v) { return std::isfinite(v); });
    const double macs = static_cast<double>(plan.last_macs());
    w.kept_macs += macs;
    w.dense_macs += static_cast<double>(plan.dense_macs_per_sample()) *
                    x.dim(0);
    ++pass;
    if (!probe) continue;
    trace_span("ConvNet::forward", pass, 0, t0, t1, 0);
    w.gmacs.add(macs / (ms * 1e6));
    w.coarsen_extra += plan.last_coarsen_extra_mac_frac();
    w.capped += plan.last_capped_samples();
    if (inst.engine) {
      const auto keep = inst.engine->last_keep_stats();
      w.channel_keep += keep.mean_channel_keep;
      w.spatial_keep += keep.mean_spatial_keep;
    } else {
      w.channel_keep += 1.0;
      w.spatial_keep += 1.0;
    }
    w.ops.record(plan);
  }
  w.seconds = std::chrono::duration<double>(t1 - start).count();
  return w;
}

// Median over kThroughputWindows consecutive slices of the loop of each
// slice's images per second: a slow spell of the host moves one slice.
double median_throughput(const Window& w) {
  const std::vector<double>& ms = w.batch_ms.values();
  const int64_t batch = w.images / static_cast<int64_t>(ms.size());
  std::vector<double> rates;
  for (int k = 0; k < kThroughputWindows; ++k) {
    const size_t b = k * ms.size() / kThroughputWindows;
    const size_t e = (k + 1) * ms.size() / kThroughputWindows;
    double sum_ms = 0.0;
    for (size_t i = b; i < e; ++i) sum_ms += ms[i];
    rates.push_back(static_cast<double>(batch) * (e - b) / (sum_ms / 1e3));
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

double mean_groups(const OpAccumulator& acc, bool raw) {
  const std::vector<int64_t>& g = raw ? acc.raw_groups : acc.groups;
  double sum = 0.0;
  int64_t ops = 0;
  for (size_t i = 0; i < g.size(); ++i) {
    if (acc.groups[i] == 0) continue;  // the op never ran masked
    sum += static_cast<double>(g[i]);
    ops += 1;
  }
  return ops > 0 ? sum / (static_cast<double>(ops) * acc.passes) : 0.0;
}

}  // namespace

Result run_offline(const Args& args) {
  Result r;
  const OfflineSpec spec = spec_for(args.workload);
  const int hw = spec.resolution;

  // Inputs: a pool of distinct images, dealt into batches of distinct
  // images by a seeded permutation. All of it exists before any clock.
  Rng rng(args.seed);
  const Tensor pool =
      Tensor::randn({spec.pool_images, 3, hw, hw}, rng);
  const int64_t image = static_cast<int64_t>(3) * hw * hw;
  std::vector<int> order = rng.permutation(spec.pool_images);
  std::vector<Tensor> batches;
  for (int b = 0; b + spec.batch <= spec.pool_images; b += spec.batch) {
    Tensor x({spec.batch, 3, hw, hw});
    for (int i = 0; i < spec.batch; ++i) {
      std::copy_n(pool.data() + order[static_cast<size_t>(b + i)] * image,
                  image, x.data() + i * image);
    }
    batches.push_back(std::move(x));
  }

  Samples setup_s;
  std::unique_ptr<Instance> inst;
  for (int s = 0; s < kSetups; ++s) {
    inst.reset();
    const Clock::time_point t0 = Clock::now();
    inst = set_up(spec, batches[0]);
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
  }
  antidote::plan::InferencePlan& plan = *inst->net->current_plan();

  // Warm-up: every batch once, so pack caches and the arena are settled.
  size_t next = 0;
  for (size_t i = 0; i < batches.size(); ++i) {
    inst->ctx.begin_pass();
    inst->net->forward(batches[next++ % batches.size()], inst->ctx);
  }
  const int64_t growths_before = inst->ctx.workspace().grow_count();
  const double arena_mib =
      static_cast<double>(inst->ctx.workspace().capacity_bytes()) /
      (1024.0 * 1024.0);

  r.meta_str("model", "vgg16");
  r.meta_num("width", spec.width);
  r.meta_num("resolution", hw);
  r.meta_num("batch", spec.batch);
  r.meta_num("channel_drop", spec.masked ? kChannelDrop : 0.0);
  r.meta_num("spatial_drop", spec.masked ? kSpatialDrop : 0.0);
  r.meta_str("regime", "f32");
  r.meta_str("coarsen", "auto");
  r.meta_str("tile", "auto");
  r.meta_num("model_seed", static_cast<double>(kModelSeed));

  Window timed;
  Window traced;
  if (!args.trace) {
    timed = run_window(*inst, batches, next, args.seconds, kMinTimedPasses,
                       false);
  } else {
    // An untraced reference window, then the traced window the per-layer
    // figures come from; their throughput difference is the tracing
    // overhead.
    timed = run_window(*inst, batches, next, args.seconds / 4,
                       kThroughputWindows * 2, false);
    SpanLog spans(1 << 16);
    g_spans = &spans;
    const int64_t hits0 = plan.pack_cache_hits();
    const int64_t misses0 = plan.pack_cache_misses();
    const int64_t byp0 = plan.pack_cache_bypass();
    traced = run_window(*inst, batches, next, args.seconds, kMinTimedPasses,
                        true);
    const int64_t hits = plan.pack_cache_hits() - hits0;
    const int64_t misses = plan.pack_cache_misses() - misses0;
    const double passes = static_cast<double>(traced.ops.passes);
    const KernelPeaks peaks =
        measure_kernel_peaks(plan, spec.batch, kProbeSeconds);
    g_spans = nullptr;

    const double gmacs = traced.gmacs.percentile(0.5);
    r.tail_metric(Result::To::kLayer, "plan.forward_ms.p50", traced.batch_ms,
                  0.5, "ms");
    r.tail_metric(Result::To::kLayer, "plan.forward_ms.p95", traced.batch_ms,
                  0.95, "ms");
    r.layer("plan.batch_size.mean", traced.images / passes, "count");
    r.layer("plan.kept_mac_frac", traced.kept_macs / traced.dense_macs,
            "ratio");
    r.layer("plan.gmacs", gmacs, "GMAC/s");
    r.layer("plan.mask_groups_raw.mean", mean_groups(traced.ops, true),
            "count");
    r.layer("plan.mask_groups.mean", mean_groups(traced.ops, false),
            "count");
    r.layer("plan.coarsen_extra_mac_pct",
            100.0 * traced.coarsen_extra / passes, "%");
    r.layer("plan.pack_cache_hit_pct",
            hits + misses > 0 ? 100.0 * hits / (hits + misses) : 100.0, "%");
    r.layer("plan.pack_cache_bypass",
            static_cast<double>(plan.pack_cache_bypass() - byp0) / passes,
            "per_pass");
    r.layer("plan.capped_samples", traced.capped / passes, "per_pass");
    r.layer("core.channel_keep", traced.channel_keep / passes, "ratio");
    r.layer("core.spatial_keep", traced.spatial_keep / passes, "ratio");
    r.layer("tensor.gemm_peak_gmacs", peaks.gemm_gmacs, "GMAC/s");
    r.layer("nn.igemm_peak_gmacs", peaks.igemm_gmacs, "GMAC/s");
    r.layer("plan.peak_frac", gmacs / peaks.gemm_gmacs, "ratio");
    const double untraced_ips = median_throughput(timed);
    const double traced_ips = median_throughput(traced);
    r.layer("bench.trace_overhead_pct",
            100.0 * (untraced_ips - traced_ips) / untraced_ips, "%");
    r.meta_num("untraced_images_per_s", untraced_ips);
    // No request goes through the serving layer: its counts read 0, the
    // bypass case.
    for (const char* name :
         {"serving.shed_pct", "serving.rejected_pct", "serving.expired_pct",
          "serving.capped_pct", "serving.hostile_shed_pct",
          "serving.hostile_capped_pct"}) {
      r.layer(name, 0.0, "%");
    }
    r.layer("serving.controller_offset", 0.0, "offset");
    r.layer("serving.backlog_end.lo", 0.0, "count");
    r.layer("serving.backlog_end.hi", 0.0, "count");
    r.meta_num("peak_shape_m", peaks.m);
    r.meta_num("peak_shape_n", peaks.n);
    r.meta_num("peak_shape_k", peaks.k);
    r.meta_num("spans", static_cast<double>(spans.size()));

    const std::string ops_path = args.out_dir + "/ops_" + args.workload +
                                 ".json";
    const std::string spans_path = args.out_dir + "/spans_" + args.workload +
                                   ".json";
    r.check(write_op_table(ops_path, plan, traced.ops, spec.batch, peaks),
            "cannot write " + ops_path);
    r.check(spans.write(spans_path), "cannot write " + spans_path);
    r.meta_str("op_table", ops_path);
    r.meta_str("span_file", spans_path);
  }
  const int64_t growths = inst->ctx.workspace().grow_count() - growths_before;
  r.check(growths == 0, "warm arena grew " + std::to_string(growths) +
                            " times during the measured loop");
  if (args.trace) {
    r.layer("plan.warm_arena_growths", static_cast<double>(growths), "count");
  }

  // Correctness: sampled batches through the plan must equal the f32
  // module walk bit for bit.
  Rng pick(args.seed ^ 0x5eedULL);
  for (int i = 0; i < kParityBatches; ++i) {
    const Tensor& x =
        batches[static_cast<size_t>(pick.next_below(batches.size()))];
    inst->ctx.begin_pass();
    const Tensor planned = inst->net->forward(x, inst->ctx);
    const Tensor copy = Tensor::from_vector(
        planned.shape(),
        std::vector<float>(planned.data(), planned.data() + planned.size()));
    const Tensor walked = inst->net->forward(x);
    r.check(bitwise_equal(copy, walked),
            "plan logits differ from the module walk");
  }

  r.attempted = static_cast<uint64_t>(timed.batch_ms.size() +
                                      traced.batch_ms.size());
  r.failed = r.attempted - static_cast<uint64_t>(timed.ok + traced.ok);
  r.check(r.failed == 0, std::to_string(r.failed) +
                             " forward calls returned non-finite logits");
  if (!args.trace) {
    r.metric("setup_s", setup_s.percentile(0.5), "s");
    r.metric("arena_mib", arena_mib, "MiB");
    r.metric("images_per_s", median_throughput(timed), "img/s");
    // Latency here is the time of one forward call on a batch; the tail is
    // its p95, the highest percentile a --seconds 40 run at one thread
    // (about 500 calls) holds ten samples beyond. The p50 goes to the meta
    // line, as on the serving workloads.
    r.tail_metric(Result::To::kMeta, "lat_p50_ms", timed.batch_ms, 0.5, "ms");
    r.tail_metric(Result::To::kEndToEnd, "lat_tail_ms", timed.batch_ms, 0.95,
                  "ms");
    r.meta_num("lat_tail_ms.percentile", 95);
    r.metric("ok_pct",
             100.0 * static_cast<double>(timed.ok) / timed.batch_ms.size(),
             "%");
    r.metric("keep_frac", timed.kept_macs / timed.dense_macs, "ratio");
  }
  return r;
}

}  // namespace perfbench
