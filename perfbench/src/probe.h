#pragma once

// Process and host observations recorded beside every result: CPU time,
// peak resident set, and the host's steal share (how much of the machine a
// hypervisor gave to someone else during the run).

#include <cstdint>

namespace perfbench {

/// Monotonic clock in seconds (steady_clock).
double now_s();

/// CPU seconds used by every thread of this process so far.
double process_cpu_s();

/// Peak resident set of this process in MB (getrusage ru_maxrss).
double peak_rss_mb();

/// Hands memory the process has freed back to the OS (glibc malloc_trim;
/// a no-op elsewhere). A run sets up several times to time its set-up, and
/// glibc keeps the freed pages of its per-thread heaps resident: without
/// this, each set-up would start on top of the last one's leftovers, by an
/// amount that depends on thread timing, and peak_rss_mb would count them.
void release_freed_memory();

/// Aggregate `cpu` line of /proc/stat: total and steal jiffies. Both stay 0
/// where the file is unreadable.
struct HostTicks {
  uint64_t total = 0;
  uint64_t steal = 0;
};
HostTicks host_ticks();

/// Steal share of host CPU time between two samples (0 without /proc/stat).
double steal_frac(const HostTicks& a, const HostTicks& b);

/// Wall time of a fixed single-thread integer chain (about 2 ms on an idle
/// 4 GHz core): the host's speed right now. A shared VM's speed can swing
/// by 2x within seconds; this records that beside the numbers.
double host_probe_ms();

/// CPU-per-wall and steal share over one timed phase.
class PhaseClock {
 public:
  PhaseClock();
  double wall_s() const;
  /// Process CPU seconds / wall seconds since construction.
  double cpu_per_wall() const;
  double steal() const;

 private:
  double wall0_, cpu0_;
  HostTicks ticks0_;
};

}  // namespace perfbench
