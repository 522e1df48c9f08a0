// Serving workloads: an open loop from one generator thread into an
// in-process InferenceServer (vgg16 width 0.25 at 32x32, int8, base drops
// 0.3/0.2, latency controller, cost-aware admission and a compute cap, two
// workers, batches of up to 8).
//
//   serve_friendly  Poisson arrivals at the fixed rates kLoRps and kHiRps,
//                   then a rate ladder for the highest rate that meets the
//                   p99 limit.
//   serve_hostile   the same friendly arrivals (same seed, same generator)
//                   plus an attacker stream of AdversarialGenerator `masks`
//                   and `compute` inputs and periodic volleys of
//                   queue-capacity `burst` inputs. Metrics cover the
//                   friendly class only.
//
// Each request is timed from its due time to the moment the generator
// thread sees its result. Between submissions the generator polls the
// outstanding futures and sleeps at most kPoll; the gap between two polls
// (reported as bench.poll_gap_us.p99) is the resolution of those times.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>

#include "base/rng.h"
#include "bench.h"
#include "core/engine.h"
#include "models/vgg.h"
#include "nn/init.h"
#include "serving/adversarial.h"
#include "serving/server.h"

namespace perfbench {

namespace {

using antidote::Rng;
using antidote::Tensor;
namespace sv = antidote::serving;

// --- frozen workload constants ----------------------------------------------
constexpr float kWidth = 0.25f;
constexpr int kRes = 32;
constexpr int kClasses = 10;
constexpr int kWorkers = 2;
constexpr int kMaxBatch = 8;
constexpr int kMaxWaitUs = 2000;
constexpr size_t kQueueCapacity = 64;
constexpr float kBaseChannelDrop = 0.3f;
constexpr float kBaseSpatialDrop = 0.2f;
constexpr double kBudgetMs = 3.0;     // controller's p95 batch budget
constexpr double kAdmissionMs = 8.0;  // admission: predicted queue drain
constexpr double kComputeCap = 0.6;   // max kept-MAC fraction per request
constexpr double kDeadlineMs = 100.0;  // after the due time
// About 27% and 55% of the saturated closed-loop friendly throughput
// (about 1100 req/s) on a 4-core Xeon (AVX-512 VNNI) with this
// configuration; serve_hostile's attack adds 360 req/s, so its `hi` offers
// about 87% of that throughput. At 450/900 req/s the attack pushed `hi`
// past it, and the friendly p50 there moved by a fifth of its median
// between seeds. At 40%/80% of the open-loop slo_rate_rps (720 and 1450
// req/s) the server is bistable: most runs lock into shedding with the
// controller relaxed.
constexpr double kLoRps = 300.0;
constexpr double kHiRps = 600.0;
// The latency limit behind slo_rate_rps: at most 1% of attempted friendly
// requests may fail or take longer than this from their due time.
constexpr double kP99LimitMs = 50.0;
constexpr double kSloMissFrac = 0.01;
// The fixed-rate phases run as this many alternating lo/hi rounds.
constexpr int kRounds = 6;
// Rate ladder of the SLO search: kLadderRps * kLadderGrowth^i.
constexpr double kLadderRps = 900.0;
constexpr int kLadderSteps = 8;
constexpr double kLadderGrowth = 1.12;
// Hostile traffic on top of the friendly schedule.
constexpr double kAttackRps = 200.0;
constexpr double kVolleyPeriodMs = 400.0;
constexpr int kVolleySize = static_cast<int>(kQueueCapacity);

constexpr uint64_t kModelSeed = 9;
constexpr int kFriendlyPool = 256;
constexpr int kAttackPool = 64;
constexpr int kSetups = 15;
// Polling every 50 us instead moved the friendly p50 at `hi` by 0.20
// (IQR over median, five seeds) against 0.14 at 500 us: twenty thousand
// timer wake-ups a second disturb a shared VM more than the coarser
// resolution costs.
constexpr auto kPoll = std::chrono::microseconds(500);
// A run is invalid when the generator's p90 lateness is not small next to
// the friendly p50 at `lo`.
constexpr double kMaxLateShare = 0.2;
// The int8 parity gate: batch, input seed and budgets of the existing
// int8 accuracy gate (bench/micro_e2e.cc), on the served model.
constexpr int kParityBatch = 16;
constexpr uint64_t kParitySeed = 14;
constexpr double kProbeSeconds = 0.3;

enum Cls : uint8_t { kFriendly = 0, kMasks, kCompute, kBurst, kNumCls };

// Friendly and attack input pools, and the fingerprint -> class map the
// probed model uses to tell the classes apart inside a batch.
struct Inputs {
  std::vector<Tensor> pool[kNumCls];
  std::unordered_map<uint64_t, uint8_t> cls_of;
};

uint64_t fingerprint(const float* x, int64_t n) {
  uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < 8; ++i) {
    uint32_t bits = 0;
    std::memcpy(&bits, x + i * (n / 8), sizeof(bits));
    h = (h ^ bits) * 1099511628211ULL;
  }
  return h;
}

Inputs make_inputs(uint64_t seed, Result& r) {
  Inputs in;
  Rng rng(seed * 7919 + 1);
  for (int i = 0; i < kFriendlyPool; ++i) {
    in.pool[kFriendly].push_back(Tensor::randn({3, kRes, kRes}, rng));
  }
  const sv::AdversarialProfile profiles[] = {sv::AdversarialProfile::kMasks,
                                             sv::AdversarialProfile::kCompute,
                                             sv::AdversarialProfile::kBurst};
  for (int p = 0; p < 3; ++p) {
    sv::AdversarialGenerator gen(3, kRes, kRes, profiles[p],
                                 seed * 104729 + static_cast<uint64_t>(p));
    for (int i = 0; i < kAttackPool; ++i) {
      in.pool[kMasks + p].push_back(gen.next_input());
    }
  }
  for (uint8_t c = 0; c < kNumCls; ++c) {
    for (const Tensor& t : in.pool[c]) {
      r.check(in.cls_of.emplace(fingerprint(t.data(), t.size()), c).second,
              "input fingerprint collision");
    }
  }
  return in;
}

// One batch as the probed model saw it on its worker thread.
struct BatchRecord {
  Clock::time_point t0, t1;
  int n = 0;
  double kept_macs = 0.0;   // plan.last_macs()
  double dense_macs = 0.0;  // dense MACs of the whole batch
  double mask_groups_raw = 0.0, mask_groups = 0.0;  // mean over masked ops
  double coarsen_extra_frac = 0.0;
  int capped_samples = 0;
  // Pack-cache and arena counters of this pass alone.
  int64_t pack_hits = 0, pack_misses = 0, pack_bypass = 0;
  int64_t arena_growths = 0;
  double cls_kept[kNumCls] = {};  // summed per-sample kept-MAC fractions
  int cls_count[kNumCls] = {};
  int cls_capped[kNumCls] = {};
  int unknown = 0;  // samples matching no generated input
};

// Records each batch of one replica: called on that replica's worker
// thread right after ConvNet::forward(x, ctx), where the plan's and the
// gates' public accessors describe the pass that just ran.
class Probe {
 public:
  Probe(const Inputs* inputs, int replica)
      : inputs_(inputs), replica_(replica) {
    records_.reserve(1 << 16);
  }

  void record(antidote::models::ConvNet& net, const Tensor& x,
              antidote::nn::ExecutionContext& ctx, Clock::time_point t0,
              Clock::time_point t1);

  size_t count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
  }
  // The replica's plan and the per-op sums of its traced passes. Read
  // only while the server is idle.
  const antidote::plan::InferencePlan* plan() const { return plan_; }
  const OpAccumulator& ops() const { return ops_; }
  std::vector<BatchRecord> slice(size_t from, size_t to) const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {records_.begin() + static_cast<std::ptrdiff_t>(from),
            records_.begin() + static_cast<std::ptrdiff_t>(to)};
  }

 private:
  void map_gates(antidote::models::ConvNet& net);

  const Inputs* inputs_;
  const int replica_;
  // Gate feeding each plan op (null for ops no gate masks).
  std::vector<const antidote::core::AttentionGate*> gate_of_op_;
  double dense_per_sample_ = 0.0;
  uint64_t batches_ = 0;
  int64_t totals_[4] = {};  // cumulative counters at the previous pass
  const antidote::plan::InferencePlan* plan_ = nullptr;
  OpAccumulator ops_;  // filled while tracing
  mutable std::mutex mutex_;
  std::vector<BatchRecord> records_;
};

void Probe::map_gates(antidote::models::ConvNet& net) {
  const antidote::plan::InferencePlan& plan = *net.current_plan();
  gate_of_op_.assign(plan.ops().size(), nullptr);
  dense_per_sample_ = 0.0;
  for (size_t i = 0; i < plan.ops().size(); ++i) {
    const antidote::plan::PlanOp& op = plan.ops()[i];
    dense_per_sample_ += static_cast<double>(op.dense_macs);
    if (op.kind != antidote::plan::OpKind::kConv) continue;
    for (int s = 0; s < net.num_gate_sites(); ++s) {
      const auto* gate =
          dynamic_cast<const antidote::core::AttentionGate*>(net.gate(s));
      if (gate != nullptr && gate->consumer() == op.conv) {
        gate_of_op_[i] = gate;
      }
    }
  }
}

// Kept-MAC fraction of one sample's mask over a conv op's dense domains,
// the same accounting the plan's compute cap uses.
double mask_frac(const antidote::nn::ConvRuntimeMask& m,
                 const antidote::plan::PlanOp& op, bool positions) {
  const antidote::ConvGeom& g = op.geom;
  const int out_c = op.out_shape[0];
  const double ch = m.channels.empty()
                        ? 1.0
                        : static_cast<double>(m.channels.size()) / g.in_c;
  const double pos =
      !positions || m.positions.empty()
          ? 1.0
          : static_cast<double>(m.positions.size()) / (g.in_h * g.in_w);
  const double out =
      m.out_channels.empty()
          ? 1.0
          : static_cast<double>(m.out_channels.size()) / out_c;
  return ch * pos * out;
}

void Probe::record(antidote::models::ConvNet& net, const Tensor& x,
                   antidote::nn::ExecutionContext& ctx, Clock::time_point t0,
                   Clock::time_point t1) {
  const antidote::plan::InferencePlan& plan = *net.current_plan();
  if (gate_of_op_.size() != plan.ops().size()) map_gates(net);
  BatchRecord b;
  b.t0 = t0;
  b.t1 = t1;
  b.n = x.dim(0);
  b.kept_macs = static_cast<double>(plan.last_macs());
  b.dense_macs = dense_per_sample_ * b.n;
  b.coarsen_extra_frac = plan.last_coarsen_extra_mac_frac();
  b.capped_samples = plan.last_capped_samples();
  const int64_t totals[4] = {plan.pack_cache_hits(), plan.pack_cache_misses(),
                             plan.pack_cache_bypass(),
                             ctx.workspace().grow_count()};
  b.pack_hits = totals[0] - totals_[0];
  b.pack_misses = totals[1] - totals_[1];
  b.pack_bypass = totals[2] - totals_[2];
  b.arena_growths = totals[3] - totals_[3];
  std::copy(totals, totals + 4, totals_);
  plan_ = &plan;
  if (g_spans != nullptr) ops_.record(plan);
  int masked_ops = 0;
  for (const antidote::plan::PlanOp& op : plan.ops()) {
    if (op.last_groups == 0) continue;
    b.mask_groups_raw += op.last_groups_raw;
    b.mask_groups += op.last_groups;
    ++masked_ops;
  }
  if (masked_ops > 0) {
    b.mask_groups_raw /= masked_ops;
    b.mask_groups /= masked_ops;
  }

  const int64_t sample = x.size() / b.n;
  for (int s = 0; s < b.n; ++s) {
    const auto it =
        inputs_->cls_of.find(fingerprint(x.data() + s * sample, sample));
    if (it == inputs_->cls_of.end()) {
      ++b.unknown;
      continue;
    }
    double kept = 0.0;
    bool capped = false;
    for (size_t i = 0; i < plan.ops().size(); ++i) {
      const antidote::plan::PlanOp& op = plan.ops()[i];
      const antidote::core::AttentionGate* gate = gate_of_op_[i];
      double frac = 1.0;
      if (gate != nullptr &&
          gate->last_masks().size() == static_cast<size_t>(b.n)) {
        const bool pos = gate->spatially_aligned();
        frac = mask_frac(gate->last_masks()[static_cast<size_t>(s)], op, pos);
        if (op.last_capped > 0) {
          const double clamped = mask_frac(
              op.capped_masks[static_cast<size_t>(s)], op, pos);
          capped = capped || clamped < frac;
          frac = clamped;
        }
      }
      kept += frac * static_cast<double>(op.dense_macs);
    }
    b.cls_kept[it->second] += kept / dense_per_sample_;
    b.cls_count[it->second] += 1;
    b.cls_capped[it->second] += capped ? 1 : 0;
  }
  trace_span("ConvNet::forward", ++batches_ * 16 + replica_, 0, t0, t1,
             replica_ + 1);
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(b);
}

antidote::models::VggConfig served_config() {
  antidote::models::VggConfig cfg;
  cfg.num_classes = kClasses;
  cfg.width_mult = kWidth;
  return cfg;
}

// vgg16 whose context forward is timed and recorded by the benchmark.
class ProbedVgg final : public antidote::models::Vgg {
 public:
  explicit ProbedVgg(Probe* probe) : Vgg(served_config()), probe_(probe) {}

  using antidote::models::Vgg::forward;
  Tensor forward(const Tensor& x,
                 antidote::nn::ExecutionContext& ctx) override {
    const Clock::time_point t0 = Clock::now();
    Tensor y = antidote::models::ConvNet::forward(x, ctx);
    probe_->record(*this, x, ctx, t0, Clock::now());
    return y;
  }

 private:
  Probe* probe_;
};

antidote::core::PruneSettings base_settings() {
  return antidote::core::PruneSettings::uniform(
      static_cast<int>(served_config().layers_per_block.size()),
      kBaseChannelDrop, kBaseSpatialDrop);
}

// Probes are declared first so they outlive the server's workers.
struct Serving {
  std::vector<std::unique_ptr<Probe>> probes;
  std::unique_ptr<sv::InferenceServer> server;
};

std::unique_ptr<Serving> set_up(const Inputs& in) {
  auto s = std::make_unique<Serving>();
  for (int w = 0; w < kWorkers; ++w) {
    s->probes.push_back(std::make_unique<Probe>(&in, w));
  }
  sv::ServerConfig config;
  config.policy.max_batch = kMaxBatch;
  config.policy.max_wait = std::chrono::microseconds(kMaxWaitUs);
  config.policy.num_workers = kWorkers;
  config.queue_capacity = kQueueCapacity;
  config.prune = base_settings();
  sv::LatencyController::Config lc;
  lc.target_p95_ms = kBudgetMs;
  config.latency = lc;
  config.admission.enabled = true;
  config.admission.max_queue_ms = kAdmissionMs;
  config.compute_cap = kComputeCap;
  Serving* raw = s.get();
  s->server = std::make_unique<sv::InferenceServer>(
      [raw](int replica) {
        auto net = std::make_unique<ProbedVgg>(
            raw->probes[static_cast<size_t>(replica)].get());
        Rng rng(kModelSeed);
        antidote::nn::init_module(*net, rng);
        net->set_numeric_regime(antidote::plan::NumericRegime::kInt8);
        return net;
      },
      config);
  // First batches: every replica compiles and reserves its plan.
  std::vector<std::future<sv::InferenceResult>> first;
  for (int i = 0; i < kWorkers * kMaxBatch; ++i) {
    first.push_back(s->server->submit(in.pool[kFriendly][static_cast<size_t>(
        i % kFriendlyPool)]));
  }
  for (auto& f : first) f.get();
  return s;
}

// --- open-loop schedules ----------------------------------------------------

struct Event {
  double due_ms = 0.0;
  uint8_t cls = kFriendly;
  uint32_t input = 0;
};

// Poisson arrivals at `rate` per second. Attack arrivals alternate between
// the `masks` and `compute` pools.
void add_poisson(std::vector<Event>& ev, double rate, double seconds,
                 uint64_t seed, bool hostile) {
  Rng rng(seed);
  double t = 0.0;
  uint64_t k = 0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) * 1e3 / rate;
    if (t >= seconds * 1e3) break;
    Event e;
    e.due_ms = t;
    e.cls = static_cast<uint8_t>(
        !hostile ? kFriendly : k++ % 2 == 0 ? kMasks : kCompute);
    e.input = static_cast<uint32_t>(
        rng.next_below(hostile ? kAttackPool : kFriendlyPool));
    ev.push_back(e);
  }
}

void add_volleys(std::vector<Event>& ev, double seconds, uint64_t seed) {
  Rng rng(seed);
  for (double t = kVolleyPeriodMs / 2; t < seconds * 1e3;
       t += kVolleyPeriodMs) {
    for (int i = 0; i < kVolleySize; ++i) {
      ev.push_back({t, kBurst, static_cast<uint32_t>(
                                   rng.next_below(kAttackPool))});
    }
  }
}

// The friendly arrivals of phase `phase` (identical in both serving
// workloads for a given seed), plus the attack when `hostile`.
std::vector<Event> schedule(uint64_t seed, int phase, double rate,
                            double seconds, bool hostile) {
  std::vector<Event> ev;
  add_poisson(ev, rate, seconds, seed * 1000003ULL + phase, false);
  if (hostile) {
    add_poisson(ev, kAttackRps, seconds, seed * 2000003ULL + phase, true);
    add_volleys(ev, seconds, seed * 3000017ULL + phase);
  }
  std::stable_sort(ev.begin(), ev.end(), [](const Event& a, const Event& b) {
    return a.due_ms < b.due_ms;
  });
  return ev;
}

struct ClassCounts {
  uint64_t attempted = 0, ok = 0, shed = 0, rejected = 0, expired = 0,
           errored = 0;
};

struct PhaseStats {
  ClassCounts friendly, hostile;
  Samples latency_ms;  // friendly, answered: due -> result seen
  Samples submit_us;   // friendly try_submit calls
  Samples queue_ms, batch_size;  // friendly, from the results
  Samples gen_late_ms;   // every event: submit start - due
  Samples poll_gap_us;   // poll gaps preceding observed completions
  uint64_t slo_misses = 0;  // friendly: failed or over kP99LimitMs
  size_t backlog_end = 0;   // outstanding when the last event went out
  size_t queue_depth_end = 0;
  std::vector<BatchRecord> batches;
};

bool valid_logits(const sv::InferenceResult& res) {
  if (res.logits.size() != kClasses) return false;
  int arg = 0;
  for (int c = 0; c < kClasses; ++c) {
    if (!std::isfinite(res.logits[c])) return false;
    if (res.logits[c] > res.logits[arg]) arg = c;
  }
  return res.predicted == arg;
}

PhaseStats run_schedule(Serving& s, const Inputs& in,
                        const std::vector<Event>& ev, uint64_t& next_id,
                        Result& r) {
  PhaseStats st;
  size_t rec_from[kWorkers];
  for (int w = 0; w < kWorkers; ++w) rec_from[w] = s.probes[w]->count();
  st.latency_ms.reserve(ev.size());
  st.gen_late_ms.reserve(ev.size());

  struct Pending {
    std::future<sv::InferenceResult> f;
    Clock::time_point due;
    uint8_t cls;
    uint64_t id;
  };
  std::vector<Pending> pending;
  pending.reserve(4096);
  sv::RequestQueue& queue = s.server->queue();
  const auto at = [](Clock::time_point base, double ms) {
    return base + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(ms));
  };
  const Clock::time_point t0 = at(Clock::now(), 1.0);
  const auto deadline = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kDeadlineMs));
  size_t next = 0;
  Clock::time_point last_poll = Clock::now();

  while (next < ev.size() || !pending.empty()) {
    Clock::time_point now = Clock::now();
    while (next < ev.size() && at(t0, ev[next].due_ms) <= now) {
      const Event& e = ev[next++];
      const Clock::time_point due = at(t0, e.due_ms);
      const uint64_t id = ++next_id;
      const uint64_t shed0 = queue.shed(), rejected0 = queue.rejected();
      const Clock::time_point s0 = Clock::now();
      std::future<sv::InferenceResult> f =
          s.server->try_submit(in.pool[e.cls][e.input], due + deadline);
      const Clock::time_point s1 = Clock::now();
      trace_span("RequestQueue::try_submit", id, 0, s0, s1, 0);
      st.gen_late_ms.add(ms_between(due, s0));
      const bool friendly = e.cls == kFriendly;
      ClassCounts& c = friendly ? st.friendly : st.hostile;
      ++c.attempted;
      if (friendly) st.submit_us.add(ms_between(s0, s1) * 1e3);
      if (f.valid()) {
        pending.push_back({std::move(f), due, e.cls, id});
      } else {
        if (queue.shed() > shed0) {
          ++c.shed;
        } else if (queue.rejected() > rejected0) {
          ++c.rejected;
        } else {
          ++c.errored;
        }
        if (friendly) ++st.slo_misses;
      }
      if (next == ev.size()) {
        st.backlog_end = pending.size();
        st.queue_depth_end = queue.depth();
      }
      now = Clock::now();
    }

    // The gap since the previous poll bounds how late a completion seen
    // now was observed; one sample per poll that saw a completion.
    const double gap_us =
        std::chrono::duration<double, std::micro>(now - last_poll).count();
    last_poll = now;
    bool saw = false;
    for (size_t i = 0; i < pending.size();) {
      Pending& p = pending[i];
      if (p.f.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      const Clock::time_point seen = Clock::now();
      saw = true;
      const bool friendly = p.cls == kFriendly;
      ClassCounts& c = friendly ? st.friendly : st.hostile;
      trace_span("request", p.id, 0, p.due, seen, 0);
      try {
        const sv::InferenceResult res = p.f.get();
        if (res.expired_unexecuted) {
          ++c.expired;
          if (friendly) ++st.slo_misses;
        } else {
          r.check(valid_logits(res),
                  "answered request without finite logits or with "
                  "predicted != argmax");
          ++c.ok;
          if (friendly) {
            const double ms = ms_between(p.due, seen);
            st.latency_ms.add(ms);
            st.queue_ms.add(res.queue_ms);
            st.batch_size.add(res.batch_size);
            if (ms > kP99LimitMs) ++st.slo_misses;
          }
        }
      } catch (const std::exception& err) {
        ++c.errored;
        if (friendly) ++st.slo_misses;
        r.check(false, std::string("request failed: ") + err.what());
      }
      if (i + 1 < pending.size()) p = std::move(pending.back());
      pending.pop_back();
    }
    if (saw) st.poll_gap_us.add(gap_us);
    Clock::time_point wake = Clock::now() + kPoll;
    if (next < ev.size()) wake = std::min(wake, at(t0, ev[next].due_ms));
    std::this_thread::sleep_until(wake);
  }
  for (int w = 0; w < kWorkers; ++w) {
    const std::vector<BatchRecord> part =
        s.probes[w]->slice(rec_from[w], s.probes[w]->count());
    st.batches.insert(st.batches.end(), part.begin(), part.end());
  }
  return st;
}

double pct(uint64_t part, uint64_t whole) {
  return whole > 0 ? 100.0 * static_cast<double>(part) / whole : 0.0;
}

// Friendly share of attempted requests that missed the SLO.
double miss_frac(const PhaseStats& st) {
  return st.friendly.attempted > 0
             ? static_cast<double>(st.slo_misses) / st.friendly.attempted
             : 1.0;
}

// Highest rate meeting the SLO. A ladder step misses when more than
// kSloMissFrac of its friendly requests failed or overran the limit, or
// when more requests were outstanding at its end than arrive within one
// latency limit (a growing backlog). The first missing step brackets the
// crossing with the step before it; the rate is interpolated linearly in
// the miss share between the two.
double slo_rate(const std::vector<double>& rates,
                const std::vector<double>& misses,
                const std::vector<bool>& backlog_ok) {
  double prev_rate = 0.0, prev_miss = 0.0;
  for (size_t i = 0; i < rates.size(); ++i) {
    const double m =
        backlog_ok[i] ? misses[i] : std::max(misses[i], 2 * kSloMissFrac);
    if (m > kSloMissFrac) {
      return prev_rate + (rates[i] - prev_rate) * (kSloMissFrac - prev_miss) /
                             (m - prev_miss);
    }
    prev_rate = rates[i];
    prev_miss = m;
  }
  return rates.back();
}

struct ClassBatchSums {
  double kept = 0.0;
  int count = 0, capped = 0;
};

ClassBatchSums class_sums(const std::vector<BatchRecord>& batches,
                          bool friendly) {
  ClassBatchSums sums;
  for (const BatchRecord& b : batches) {
    for (int c = 0; c < kNumCls; ++c) {
      if ((c == kFriendly) != friendly) continue;
      sums.kept += b.cls_kept[c];
      sums.count += b.cls_count[c];
      sums.capped += b.cls_capped[c];
    }
  }
  return sums;
}

// Pools a sub-phase into `into`: counts add up, samples and batches
// append, and the backlog keeps its largest value.
void pool(PhaseStats& into, const PhaseStats& from) {
  for (auto [a, b] : {std::pair{&into.friendly, &from.friendly},
                      std::pair{&into.hostile, &from.hostile}}) {
    a->attempted += b->attempted;
    a->ok += b->ok;
    a->shed += b->shed;
    a->rejected += b->rejected;
    a->expired += b->expired;
    a->errored += b->errored;
  }
  for (auto [a, b] : {std::pair{&into.latency_ms, &from.latency_ms},
                      std::pair{&into.submit_us, &from.submit_us},
                      std::pair{&into.queue_ms, &from.queue_ms},
                      std::pair{&into.batch_size, &from.batch_size},
                      std::pair{&into.gen_late_ms, &from.gen_late_ms},
                      std::pair{&into.poll_gap_us, &from.poll_gap_us}}) {
    for (double v : b->values()) a->add(v);
  }
  into.slo_misses += from.slo_misses;
  into.backlog_end = std::max(into.backlog_end, from.backlog_end);
  into.queue_depth_end = std::max(into.queue_depth_end, from.queue_depth_end);
  into.batches.insert(into.batches.end(), from.batches.begin(),
                      from.batches.end());
}

// Everything one pass over the workload's phases measured. The fixed
// rates run as kRounds alternating rounds of a `lo` and a `hi` sub-phase,
// so a slow spell of the host lands in one round; latency figures are
// medians over the rounds, counts are pooled.
struct RunFigures {
  std::vector<PhaseStats> lo_rounds, hi_rounds;
  PhaseStats lo, hi;  // pooled over the rounds
  std::vector<double> ladder_rates, ladder_misses, ladder_p99_ms;
  std::vector<bool> ladder_backlog_ok;
  double controller_offset = 0.0, window_p95_ms = 0.0;
  double channel_keep = 0.0, spatial_keep = 0.0;
};

// Length of one sub-phase: serve_friendly gives the rounds 60% of the run
// and the ladder the rest; serve_hostile gives the rounds all of it.
double sub_phase_seconds(double seconds, bool hostile) {
  return seconds * (hostile ? 0.5 : 0.3) / kRounds;
}

RunFigures run_phases(Serving& s, const Inputs& in, uint64_t seed,
                      double seconds, bool hostile, uint64_t& next_id,
                      Result& r) {
  RunFigures f;
  const double sub_s = sub_phase_seconds(seconds, hostile);
  sv::LatencyController* lc = s.server->controller();
  for (int round = 0; round < kRounds; ++round) {
    f.lo_rounds.push_back(run_schedule(
        s, in, schedule(seed, 1 + 2 * round, kLoRps, sub_s, hostile), next_id,
        r));
    lc->reset_keep_summary();
    f.hi_rounds.push_back(run_schedule(
        s, in, schedule(seed, 2 + 2 * round, kHiRps, sub_s, hostile), next_id,
        r));
    const sv::LatencyController::KeepSummary keep = lc->keep_summary();
    f.channel_keep += keep.mean_channel_keep / kRounds;
    f.spatial_keep += keep.mean_spatial_keep / kRounds;
    pool(f.lo, f.lo_rounds.back());
    pool(f.hi, f.hi_rounds.back());
  }
  f.controller_offset = lc->offset();
  f.window_p95_ms = lc->p95_ms();
  if (!hostile) {
    const double step_s = seconds * 0.4 / kLadderSteps;
    double rate = kLadderRps;
    for (int i = 0; i < kLadderSteps; ++i, rate *= kLadderGrowth) {
      const PhaseStats st = run_schedule(
          s, in, schedule(seed, 100 + i, rate, step_s, false), next_id, r);
      f.ladder_rates.push_back(rate);
      f.ladder_misses.push_back(miss_frac(st));
      f.ladder_p99_ms.push_back(st.latency_ms.percentile(0.99));
      f.ladder_backlog_ok.push_back(
          static_cast<double>(st.backlog_end) <= rate * kP99LimitMs / 1e3);
    }
  }
  return f;
}

// Median over the rounds of one latency percentile; every round's tail
// must have at least ten samples beyond it.
double round_median(const std::vector<PhaseStats>& rounds, double q,
                    const std::string& name, Result& r) {
  std::vector<double> per;
  for (const PhaseStats& st : rounds) {
    if (q >= 0.9) {
      r.check(st.latency_ms.beyond(q) >= 10,
              name + ": a round has fewer than ten samples beyond it");
    }
    per.push_back(st.latency_ms.percentile(q));
    r.meta_num(name + ".round" + std::to_string(per.size() - 1), per.back());
    r.meta_num(name + ".round" + std::to_string(per.size() - 1) + ".samples",
               static_cast<double>(st.latency_ms.size()));
  }
  std::sort(per.begin(), per.end());
  return per[per.size() / 2];
}

}  // namespace

Result run_serve(const Args& args) {
  Result r;
  const bool hostile = args.workload == "serve_hostile";
  const Inputs in = make_inputs(args.seed, r);

  // Int8 parity of the served model against f32, dense: the set-up gate
  // of the quantized regime.
  {
    auto net = std::make_unique<antidote::models::Vgg>(served_config());
    Rng rng(kModelSeed);
    antidote::nn::init_module(*net, rng);
    net->set_training(false);
    Rng batch_rng(kParitySeed);
    const Tensor batch =
        Tensor::randn({kParityBatch, 3, kRes, kRes}, batch_rng);
    const Int8Parity parity = int8_parity(*net, batch);
    r.check(parity.max_rel_diff <= 0.05,
            "int8 max relative logit deviation " +
                std::to_string(parity.max_rel_diff) + " > 0.05");
    r.check(parity.top1_agreement >= 0.85,
            "int8 top-1 agreement " + std::to_string(parity.top1_agreement) +
                " < 0.85");
    r.meta_num("int8_max_rel_diff", parity.max_rel_diff);
    r.meta_num("int8_top1_agreement", parity.top1_agreement);
    // The same comparison on this run's seeded friendly inputs, recorded
    // but not gated: on some seeds it exceeds the 0.05 budget.
    Tensor seeded({kParityBatch, 3, kRes, kRes});
    const int64_t image = 3 * kRes * kRes;
    for (int i = 0; i < kParityBatch; ++i) {
      std::memcpy(seeded.data() + i * image,
                  in.pool[kFriendly][static_cast<size_t>(i)].data(),
                  static_cast<size_t>(image) * sizeof(float));
    }
    const Int8Parity on_seeded = int8_parity(*net, seeded);
    r.meta_num("int8_max_rel_diff.seeded_inputs", on_seeded.max_rel_diff);
    r.meta_num("int8_top1_agreement.seeded_inputs", on_seeded.top1_agreement);
  }

  Samples setup_s;
  std::unique_ptr<Serving> s;
  for (int i = 0; i < kSetups; ++i) {
    s.reset();
    const Clock::time_point t0 = Clock::now();
    s = set_up(in);
    setup_s.add(ms_between(t0, Clock::now()) / 1e3);
  }

  uint64_t next_id = 0;
  // Warm-up at `lo`, then at `hi`: the controller and the pack caches
  // settle before anything is measured.
  run_schedule(*s, in, schedule(args.seed, 0, kLoRps, 1.0, false), next_id,
               r);
  run_schedule(*s, in, schedule(args.seed, 0, kHiRps, 0.5, false), next_id,
               r);
  r.meta_num("controller_offset_after_warmup",
             s->server->controller()->offset());
  size_t warm_records[kWorkers];
  for (int w = 0; w < kWorkers; ++w) warm_records[w] = s->probes[w]->count();
  double arena_bytes = 0.0;
  for (uint64_t b : s->server->stats().snapshot().replica_arena_bytes) {
    arena_bytes += static_cast<double>(b);
  }

  // A traced run first repeats the `hi` phase untraced, as the reference
  // its tracing overhead is measured against, then runs every phase with
  // spans on.
  PhaseStats reference;
  std::unique_ptr<SpanLog> spans;
  if (args.trace) {
    reference = run_schedule(
        *s, in,
        schedule(args.seed, 2, kHiRps, sub_phase_seconds(args.seconds, hostile),
                 hostile),
        next_id, r);
    spans = std::make_unique<SpanLog>(1 << 20);
    g_spans = spans.get();
  }
  RunFigures m =
      run_phases(*s, in, args.seed, args.seconds, hostile, next_id, r);

  int64_t growths = 0;
  for (int w = 0; w < kWorkers; ++w) {
    for (const BatchRecord& b :
         s->probes[w]->slice(warm_records[w], s->probes[w]->count())) {
      growths += b.arena_growths;
    }
  }
  r.check(growths == 0, "warm arenas grew " + std::to_string(growths) +
                            " times during the measured phases");

  for (const PhaseStats* st : {&m.lo, &m.hi}) {
    for (const BatchRecord& b : st->batches) {
      r.check(b.unknown == 0, "a batch held an input the benchmark never "
                              "generated");
    }
  }
  // Open-loop honesty: the generator must run close to its schedule. The
  // rule uses its p90 lateness; the reported p99 also shows the rare
  // stalls of the whole host, which the due-time latencies include.
  Samples late;
  for (const PhaseStats* st : {&m.lo, &m.hi}) {
    for (double v : st->gen_late_ms.values()) late.add(v);
  }
  const double lat_p50_lo = m.lo.latency_ms.percentile(0.5);
  r.check(late.percentile(0.9) <= kMaxLateShare * lat_p50_lo,
          "generator ran late: p90 " + std::to_string(late.percentile(0.9)) +
              " ms against a friendly p50 of " + std::to_string(lat_p50_lo) +
              " ms at lo");

  const ClassBatchSums friendly_hi = class_sums(m.hi.batches, true);
  const double keep_frac =
      friendly_hi.count > 0 ? friendly_hi.kept / friendly_hi.count : 0.0;
  // Shed, rejected and expired requests are the server's answers to load,
  // reported through ok_pct; only requests that errored count as failed.
  for (const PhaseStats* st : {&reference, &m.lo, &m.hi}) {
    r.attempted += st->friendly.attempted + st->hostile.attempted;
    r.failed += st->friendly.errored + st->hostile.errored;
  }

  r.meta_str("model", "vgg16");
  r.meta_num("width", kWidth);
  r.meta_num("resolution", kRes);
  r.meta_str("regime", "int8");
  r.meta_num("workers", kWorkers);
  r.meta_num("max_batch", kMaxBatch);
  r.meta_num("max_wait_ms", kMaxWaitUs / 1e3);
  r.meta_num("queue_capacity", static_cast<double>(kQueueCapacity));
  r.meta_num("base_channel_drop", kBaseChannelDrop);
  r.meta_num("base_spatial_drop", kBaseSpatialDrop);
  r.meta_num("budget_p95_ms", kBudgetMs);
  r.meta_num("admission_max_queue_ms", kAdmissionMs);
  r.meta_num("compute_cap", kComputeCap);
  r.meta_num("deadline_ms", kDeadlineMs);
  r.meta_num("lo_rps", kLoRps);
  r.meta_num("hi_rps", kHiRps);
  r.meta_num("slo_p99_limit_ms", kP99LimitMs);
  r.meta_num("slo_max_miss_frac", kSloMissFrac);
  if (hostile) {
    r.meta_num("attack_rps", kAttackRps);
    r.meta_num("volley_period_ms", kVolleyPeriodMs);
    r.meta_num("volley_size", kVolleySize);
  }
  r.meta_num("generator_threads", 1);
  r.meta_num("model_seed", static_cast<double>(kModelSeed));
  r.meta_num("gen_late_ms.p90", late.percentile(0.9));
  r.meta_num("queue_depth_end.lo", static_cast<double>(m.lo.queue_depth_end));
  r.meta_num("queue_depth_end.hi", static_cast<double>(m.hi.queue_depth_end));
  r.meta_num("friendly_attempted.lo",
             static_cast<double>(m.lo.friendly.attempted));
  r.meta_num("friendly_attempted.hi",
             static_cast<double>(m.hi.friendly.attempted));
  for (size_t i = 0; i < m.ladder_rates.size(); ++i) {
    r.meta_num("ladder_rps." + std::to_string(i), m.ladder_rates[i]);
    r.meta_num("ladder_miss_frac." + std::to_string(i), m.ladder_misses[i]);
    r.meta_num("ladder_p99_ms." + std::to_string(i), m.ladder_p99_ms[i]);
  }

  if (!args.trace) {
    r.metric("setup_s", setup_s.percentile(0.5), "s");
    r.metric("arena_mib", arena_bytes / (1024.0 * 1024.0), "MiB");
    // Friendly answers per second of the fixed-rate rounds: the goodput.
    const double round_s = 2 * kRounds * sub_phase_seconds(args.seconds,
                                                           hostile);
    r.metric("images_per_s",
             static_cast<double>(m.lo.friendly.ok + m.hi.friendly.ok) /
                 round_s,
             "img/s");
    // The end-to-end latency is the p99 at `hi`. It is set by the drain of
    // the attack volleys, back-to-back batches whose time follows the
    // program; the p95 sits where that drain begins and moved twice as much
    // between seeds. The p50 waits on idle workers and the generator to
    // wake, which a shared VM delays by its own load: with up to 11% CPU
    // steal its spread over ten seeds reached 0.23 at `hi` and 0.29 at `lo`
    // (IQR over median) against 0.08 for the p99, so it goes to the meta
    // line, with `lo` over its pooled rounds.
    r.meta_num("lat_p50_ms", round_median(m.hi_rounds, 0.5, "lat_p50_ms", r));
    r.metric("lat_tail_ms", round_median(m.hi_rounds, 0.99, "lat_tail_ms", r),
             "ms");
    r.meta_num("lat_tail_ms.percentile", 99);
    r.tail_metric(Result::To::kMeta, "lat_p50_ms.lo", m.lo.latency_ms, 0.5,
                  "ms");
    r.tail_metric(Result::To::kMeta, "lat_p99_ms.lo", m.lo.latency_ms, 0.99,
                  "ms");
    r.meta_num("latency_rounds", kRounds);
    r.metric("ok_pct",
             pct(m.lo.friendly.ok + m.hi.friendly.ok,
                 m.lo.friendly.attempted + m.hi.friendly.attempted),
             "%");
    r.meta_num("ok_pct.lo", pct(m.lo.friendly.ok, m.lo.friendly.attempted));
    r.meta_num("ok_pct.hi", pct(m.hi.friendly.ok, m.hi.friendly.attempted));
    r.metric("keep_frac", keep_frac, "ratio");
    if (!hostile) {
      r.meta_num("slo_rate_rps", slo_rate(m.ladder_rates, m.ladder_misses,
                                          m.ladder_backlog_ok));
    }
    return r;
  }

  // Per-layer figures: the traced `hi` phase, friendly class. The serving
  // layer's times have no counterpart in the offline workloads, so they go
  // to the meta line; the result line holds the metrics every workload
  // reports.
  const PhaseStats& hi = m.hi;
  const ClassCounts& fc = hi.friendly;
  const ClassCounts& hc = hi.hostile;
  const ClassBatchSums hostile_hi = class_sums(hi.batches, false);
  using To = Result::To;
  r.tail_metric(To::kMeta, "serving.submit_us.p50", hi.submit_us, 0.5, "us");
  r.tail_metric(To::kMeta, "serving.submit_us.p99", hi.submit_us, 0.99, "us");
  r.tail_metric(To::kMeta, "serving.queue_wait_ms.p50", hi.queue_ms, 0.5,
                "ms");
  r.tail_metric(To::kMeta, "serving.queue_wait_ms.p99", hi.queue_ms, 0.99,
                "ms");
  r.meta_num("serving.batch_size.mean", hi.batch_size.mean());
  Samples batch_ms, batch_n;
  for (const BatchRecord& b : hi.batches) {
    batch_ms.add(ms_between(b.t0, b.t1));
    batch_n.add(b.n);
  }
  r.tail_metric(To::kLayer, "plan.forward_ms.p50", batch_ms, 0.5, "ms");
  r.tail_metric(To::kLayer, "plan.forward_ms.p95", batch_ms, 0.95, "ms");
  r.layer("plan.batch_size.mean", batch_n.mean(), "count");
  r.layer("serving.shed_pct", pct(fc.shed, fc.attempted), "%");
  r.layer("serving.rejected_pct", pct(fc.rejected, fc.attempted), "%");
  r.layer("serving.expired_pct", pct(fc.expired, fc.attempted), "%");
  r.layer("serving.capped_pct",
          pct(static_cast<uint64_t>(friendly_hi.capped),
              static_cast<uint64_t>(friendly_hi.count)),
          "%");
  r.layer("serving.hostile_shed_pct", pct(hc.shed, hc.attempted), "%");
  r.layer("serving.hostile_capped_pct",
          pct(static_cast<uint64_t>(hostile_hi.capped),
              static_cast<uint64_t>(hostile_hi.count)),
          "%");
  r.layer("serving.controller_offset", m.controller_offset, "offset");
  r.meta_num("serving.window_p95_ms", m.window_p95_ms);
  r.layer("serving.backlog_end.lo", static_cast<double>(m.lo.backlog_end),
          "count");
  r.layer("serving.backlog_end.hi", static_cast<double>(hi.backlog_end),
          "count");

  double kept = 0.0, dense = 0.0, extra = 0.0, raw = 0.0, groups = 0.0;
  int64_t capped = 0, masked = 0, hits = 0, misses = 0, bypass = 0;
  Samples gmacs;
  for (const BatchRecord& b : hi.batches) {
    hits += b.pack_hits;
    misses += b.pack_misses;
    bypass += b.pack_bypass;
    kept += b.kept_macs;
    dense += b.dense_macs;
    extra += b.coarsen_extra_frac;
    capped += b.capped_samples;
    gmacs.add(b.kept_macs / (ms_between(b.t0, b.t1) * 1e6));
    if (b.mask_groups > 0) {
      raw += b.mask_groups_raw;
      groups += b.mask_groups;
      ++masked;
    }
  }
  const double batches =
      static_cast<double>(std::max<size_t>(hi.batches.size(), 1));
  r.layer("plan.kept_mac_frac", kept / dense, "ratio");
  const double plan_gmacs = gmacs.percentile(0.5);
  r.layer("plan.gmacs", plan_gmacs, "GMAC/s");
  r.layer("plan.mask_groups_raw.mean", masked > 0 ? raw / masked : 0.0,
          "count");
  r.layer("plan.mask_groups.mean", masked > 0 ? groups / masked : 0.0, "count");
  r.layer("plan.coarsen_extra_mac_pct", 100.0 * extra / batches, "%");
  r.layer("plan.pack_cache_hit_pct",
          hits + misses > 0 ? 100.0 * hits / (hits + misses) : 100.0, "%");
  r.layer("plan.pack_cache_bypass", bypass / batches, "per_pass");
  r.layer("plan.capped_samples", static_cast<double>(capped) / batches,
          "per_pass");
  r.layer("plan.warm_arena_growths", static_cast<double>(growths), "count");
  r.layer("core.channel_keep", m.channel_keep, "ratio");
  r.layer("core.spatial_keep", m.spatial_keep, "ratio");
  r.tail_metric(To::kMeta, "bench.gen_late_ms.p99", late, 0.99, "ms");
  r.tail_metric(To::kMeta, "bench.poll_gap_us.p99", hi.poll_gap_us, 0.99,
                "us");
  r.layer("bench.trace_overhead_pct",
          100.0 * (hi.latency_ms.percentile(0.5) -
                   reference.latency_ms.percentile(0.5)) /
              reference.latency_ms.percentile(0.5),
          "%");

  // Kernel peaks on the served model's largest conv at a full batch, then
  // the per-op table of replica 0 and the span file.
  const antidote::plan::InferencePlan& plan = *s->probes[0]->plan();
  const KernelPeaks peaks =
      measure_kernel_peaks(plan, kMaxBatch, kProbeSeconds);
  g_spans = nullptr;
  r.layer("tensor.gemm_peak_gmacs", peaks.gemm_gmacs, "GMAC/s");
  r.layer("nn.igemm_peak_gmacs", peaks.igemm_gmacs, "GMAC/s");
  r.layer("plan.peak_frac", plan_gmacs / peaks.igemm_gmacs, "ratio");
  r.meta_num("peak_shape_m", peaks.m);
  r.meta_num("peak_shape_n", peaks.n);
  r.meta_num("peak_shape_k", peaks.k);
  r.meta_num("spans", static_cast<double>(spans->size()));
  const std::string ops_path = args.out_dir + "/ops_" + args.workload + ".json";
  const std::string spans_path =
      args.out_dir + "/spans_" + args.workload + ".json";
  r.check(write_op_table(ops_path, plan, s->probes[0]->ops(), kMaxBatch, peaks),
          "cannot write " + ops_path);
  r.check(spans->write(spans_path), "cannot write " + spans_path);
  r.meta_str("op_table", ops_path);
  r.meta_str("span_file", spans_path);
  return r;
}

}  // namespace perfbench
