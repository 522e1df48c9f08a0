// The benchmark binary. Runs one workload and prints, as the last two
// lines of standard output, a meta line ({"meta": {...}}) and the result
// line ({"correct", "attempted", "failed", "metrics"}). perfbench/run.py
// builds this binary and calls it; see perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "base/build_info.h"
#include "base/parallel.h"
#include "bench.h"
#include "nn/conv_kernels.h"
#include "nn/int8_kernels.h"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Result;

const char* const kWorkloads[] = {"offline_masked_c32", "offline_dense_r224",
                                  "serve_friendly", "serve_hostile"};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> [--out-dir <dir>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        a.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) usage("unknown workload " + a.workload);
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

// Total and steal jiffies of all CPUs from /proc/stat (zeros when it cannot
// be read). Steal is time the hypervisor gave this VM's CPUs to others.
std::pair<double, double> cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  if (!(stat >> cpu) || cpu != "cpu") return {0.0, 0.0};
  for (int field = 0; field < 8 && stat >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {total, steal};
}

void print_metrics(const std::vector<Metric>& metrics) {
  std::printf("\"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to measure a build with assertions on\n";
  return 3;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::cerr << "perfbench: refusing to measure a " << PERFBENCH_BUILD_TYPE
              << " build; configure with CMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = antidote::global_pool().size() + 1;

  const std::pair<double, double> jiffies0 = cpu_jiffies();
  Result r;
  try {
    r = args.workload.rfind("offline_", 0) == 0 ? perfbench::run_offline(args)
                                                : perfbench::run_serve(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }

  const std::pair<double, double> jiffies1 = cpu_jiffies();
  if (jiffies1.first > jiffies0.first) {
    r.meta_num("host_steal_pct", 100.0 * (jiffies1.second - jiffies0.second) /
                                     (jiffies1.first - jiffies0.first));
  }
  r.meta_str("workload", args.workload);
  r.meta_num("seed", static_cast<double>(args.seed));
  r.meta_num("seconds", args.seconds);
  r.meta_num("trace", args.trace ? 1 : 0);
  r.meta_str("git_describe", antidote::build_git_describe());
  r.meta_str("build_type", PERFBENCH_BUILD_TYPE);
  r.meta_str("simd_isa", antidote::nn::simd_isa_name());
  r.meta_str("int8_isa", antidote::nn::int8_isa_name());
  r.meta_num("avx512_vnni", antidote::nn::cpu_supports_vnni() ? 1 : 0);
  r.meta_num("nproc", nproc);
  r.meta_num("pool_threads", threads);
  r.check(threads <= nproc, "pool threads exceed nproc");

  std::printf("{\"meta\": {");
  for (size_t i = 0; i < r.meta.size(); ++i) {
    std::printf("%s\"%s\": %s", i == 0 ? "" : ", ", r.meta[i].first.c_str(),
                r.meta[i].second.c_str());
  }
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  print_metrics(args.trace ? r.layer_metrics : r.metrics);
  std::printf("}\n");
  return 0;
}
