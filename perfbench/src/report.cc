#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <numeric>

#include "bench.h"

namespace perfbench {

SpanLog* g_spans = nullptr;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

const std::vector<double>& Samples::sorted() const {
  if (dirty_ || sorted_.size() != v_.size()) {
    sorted_ = v_;
    std::sort(sorted_.begin(), sorted_.end());
    dirty_ = false;
  }
  return sorted_;
}

double Samples::mean() const {
  if (v_.empty()) return 0.0;
  return std::accumulate(v_.begin(), v_.end(), 0.0) /
         static_cast<double>(v_.size());
}

namespace {

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

}  // namespace

double Samples::percentile(double q) const { return nearest_rank(sorted(), q); }

size_t Samples::beyond(double q) const {
  const std::vector<double>& s = sorted();
  if (s.empty()) return 0;
  const double p = nearest_rank(s, q);
  return static_cast<size_t>(s.end() - std::upper_bound(s.begin(), s.end(), p));
}

SpanLog::SpanLog(size_t capacity) { spans_.reserve(capacity); }

void SpanLog::add(const char* name, uint64_t id, uint64_t parent,
                  Clock::time_point t0, Clock::time_point t1, int thread) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.t0_us = std::chrono::duration<double, std::micro>(t0 - epoch_).count();
  s.t1_us = std::chrono::duration<double, std::micro>(t1 - epoch_).count();
  s.thread = thread;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(s);
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool SpanLog::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"start_us\": %.3f, \"end_us\": %.3f, \"thread\": %d}%s\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.t0_us, s.t1_us,
                 s.thread, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
}

void Result::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_metrics.push_back({name, value, unit});
}

void Result::meta_num(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  meta.emplace_back(key, buf);
}

void Result::meta_str(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  meta.emplace_back(key, quoted + "\"");
}

void Result::tail_metric(To to, const std::string& name, const Samples& s,
                         double q, const std::string& unit) {
  if (q >= 0.9) {
    const size_t beyond = s.beyond(q);
    check(beyond >= 10, name + ": only " + std::to_string(beyond) + " of " +
                            std::to_string(s.size()) +
                            " samples beyond the percentile");
  }
  const double value = s.percentile(q);
  if (to == To::kLayer) {
    layer(name, value, unit);
  } else if (to == To::kEndToEnd) {
    metric(name, value, unit);
  } else {
    meta_num(name, value);
  }
  meta_num(name + ".samples", static_cast<double>(s.size()));
}

bool bitwise_equal(const antidote::Tensor& a, const antidote::Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

}  // namespace perfbench
