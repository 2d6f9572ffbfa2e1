#include "probe.h"

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void release_freed_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

HostTicks host_ticks() {
  HostTicks t;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!in || !std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest columns are already inside user/nice, so they are not summed.
  uint64_t v = 0;
  for (int i = 0; i < 8 && fields >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_frac(const HostTicks& a, const HostTicks& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double host_probe_ms() {
  static std::atomic<uint64_t> sink{0};
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  const double t0 = now_s();
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink.store(x, std::memory_order_relaxed);  // keeps the chain alive
  return 1e3 * (now_s() - t0);
}

PhaseClock::PhaseClock()
    : wall0_(now_s()), cpu0_(process_cpu_s()), ticks0_(host_ticks()) {}

double PhaseClock::wall_s() const { return now_s() - wall0_; }

double PhaseClock::cpu_per_wall() const {
  const double wall = wall_s();
  return wall > 0.0 ? (process_cpu_s() - cpu0_) / wall : 0.0;
}

double PhaseClock::steal() const { return steal_frac(ticks0_, host_ticks()); }

// ---- order statistics ------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double trimmed_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 10;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

namespace {

/// 1-based nearest rank of quantile q among n samples.
int64_t nearest_rank(int64_t n, double q) {
  // The epsilon keeps q * n from rounding up past an exact integer rank.
  return std::clamp<int64_t>(
      static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9)), 1, n);
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const int64_t n = static_cast<int64_t>(v.size());
  return v[static_cast<size_t>(nearest_rank(n, q) - 1)];
}

Tail supported_tail(std::vector<double> v) {
  Tail tail;
  const int64_t n = static_cast<int64_t>(v.size());
  std::sort(v.begin(), v.end());
  for (double q : {0.999, 0.99, 0.9}) {
    if (n == 0) break;
    const int64_t rank = nearest_rank(n, q);
    if (n - rank >= kMinBeyond) {
      tail.q = q;
      tail.value = v[static_cast<size_t>(rank - 1)];
      tail.beyond = n - rank;
      break;
    }
  }
  return tail;
}

uint64_t derive_seed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void Result::fail(const std::string& why) {
  constexpr int64_t kPrinted = 20;  // the count, not the flood, is the signal
  if (failed < kPrinted) std::cout << "FAILED: " << why << "\n";
  ++failed;
  correct = false;
}

}  // namespace perfbench
