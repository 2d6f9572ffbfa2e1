// ttsnn_perfbench: one end-to-end workload per invocation.
//
//   ttsnn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out-dir DIR]
//   ttsnn_perfbench --self-test
//
// Prints human-readable lines, then as its LAST line one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Untraced runs report the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced, and reports the per-layer metrics instead.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "util/thread_pool.h"

namespace {

using perfbench::Args;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ttsnn_perfbench: " << why
            << "\nusage: ttsnn_perfbench --workload "
               "{train_htt_event|serve_int8_batch} "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n"
               "       ttsnn_perfbench --self-test\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = true;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (key == "--out-dir") {
        a.out_dir = value;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!have_seconds) usage("--seconds is required");
  if (!(a.seconds >= 1.0 && a.seconds <= 600.0)) usage("--seconds must be in [1, 600]");
  return a;
}

void print_json(const Result& res) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              res.correct ? "true" : "false", static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed));
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    const perfbench::Metric& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,  // failed above
                m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") {
    return perfbench::run_self_test();
  }
  const Args args = parse(argc, argv);
  try {
    std::filesystem::create_directories(args.out_dir);
    std::printf("host: nproc %u, pool workers %d; workload %s, seed %llu, "
                "%.1f s, trace %d\n",
                std::thread::hardware_concurrency(),
                ttsnn::ThreadPool::instance().workers(), args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    Result res;
    if (args.workload == "train_htt_event") {
      res = perfbench::run_train(args);
    } else if (args.workload == "serve_int8_batch") {
      res = perfbench::run_serve(args);
    } else {
      usage("unknown workload " + args.workload);
    }
    for (const perfbench::Metric& m : res.metrics) {
      if (!std::isfinite(m.value)) res.fail("metric " + m.name + " is not finite");
    }
    std::printf("operations: attempted %lld, failed %lld, error rate %.6f\n",
                static_cast<long long>(res.attempted),
                static_cast<long long>(res.failed),
                res.attempted > 0 ? static_cast<double>(res.failed) /
                                        static_cast<double>(res.attempted)
                                  : 0.0);
    std::fflush(stdout);
    print_json(res);
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "ttsnn_perfbench: run failed: " << e.what() << "\n";
    return 3;
  }
}
