#pragma once

// Shared vocabulary of the end-to-end benchmark: command-line arguments, the
// result every workload returns, and the order statistics its numbers use.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  ///< length of the measured window (required)
  bool trace = false;
  /// Directory for the checkpoint and the trace file (inside the checkout).
  std::string out_dir = ".bench_build/out";
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one invocation reports. `attempted`/`failed` count operations
/// (optimizer steps, timed batches, requests, direct engine runs, the
/// checkpoint round-trip check). Any
/// failed operation — thrown, shed, non-finite, or a wrong output — also
/// clears `correct`: every workload is sized so that none should fail.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
  /// Records a failed check: prints why, counts it, clears `correct`.
  void fail(const std::string& why);
};

/// Median of `v` (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> v);

/// Mean of the samples left after dropping the lowest and the highest 10%;
/// 0 when empty. The benchmark's
/// estimator for timed operations: on a shared VM the speed of one kernel
/// flips between two modes up to 1.6x apart every second or so, and the
/// median of such a mix jumps between the modes as their shares drift,
/// while this mean moves in proportion. The trim drops the rare stalls.
double trimmed_mean(std::vector<double> v);

/// Nearest-rank percentile q in (0, 1] of `v`; 0 when empty.
double percentile(std::vector<double> v, double q);

/// The highest tail a sample supports: the largest q of {0.999, 0.99, 0.9}
/// whose nearest-rank percentile has at least kMinBeyond samples after it.
/// `beyond` is that count; `q` stays 0 when even p90 is unsupported.
struct Tail {
  double q = 0.0;
  double value = 0.0;
  int64_t beyond = 0;
};
constexpr int64_t kMinBeyond = 10;
Tail supported_tail(std::vector<double> v);

/// SplitMix64 of (seed, stream): independent, reproducible sub-seeds, so one
/// --seed fixes every input the workloads generate.
uint64_t derive_seed(uint64_t seed, uint64_t stream);

/// Workload entry points (train.cpp, serve.cpp) and the self-test.
Result run_train(const Args& args);
Result run_serve(const Args& args);
int run_self_test();

}  // namespace perfbench
