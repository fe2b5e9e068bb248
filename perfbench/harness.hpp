// Measurement helpers for the serving benchmark that carry no dependency on
// the serving stack, so perfbench_selftest can check them on their own:
// seeded inputs and arrival schedules, the percentile rule, and readers
// for per-process CPU time and peak resident set.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "tensor/tensor.hpp"

namespace perfbench {

struct Arrival {
  double t_s = 0.0;  // due time from the start of the schedule
  int tenant = 0;
};

/// Homogeneous Poisson arrivals at `rate` per second over [0, duration_s);
/// each arrival's tenant is drawn from the cumulative `tenant_share`.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                      double duration_s,
                                      const std::vector<double>& tenant_share);

/// `n` standard-normal images of `shape` (batch dim included), drawn from
/// `seed`. Requests reuse this small pool, so the harness's memory stays
/// out of the deployment's peak resident set.
std::vector<adcnn::Tensor> input_pool(std::uint64_t seed, std::size_t n,
                                      const adcnn::Shape& shape);

/// Nearest-rank percentile of `values` (q in (0, 1]); sorts a copy.
/// Infinite entries (failed requests) sort last.
double percentile(std::vector<double> values, double q);

/// Samples strictly beyond the nearest-rank q-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The highest of p50, p90, p99, p99.9 and p99.99 that has at least ten
/// samples beyond it; 0 when even the median has fewer.
double highest_supported_percentile(std::size_t n);

/// Median (percentile 0.5) of `values`; 0 for an empty vector.
double median(std::vector<double> values);

/// CPU seconds (user + system, all threads) this process has used.
double self_cpu_s();

struct ProcUsage {
  double cpu_s = 0.0;     // utime + stime from /proc/<pid>/stat
  double peak_rss_mb = 0.0;  // VmHWM from /proc/<pid>/status
};

/// Usage of process `pid` (0 = this process); nullopt once it is gone.
std::optional<ProcUsage> proc_usage(pid_t pid);

struct HostTicks {
  double steal = 0.0;  // time the hypervisor ran something else
  double total = 0.0;  // all states, all CPUs
};

/// The host-wide CPU time counters of /proc/stat, in clock ticks.
HostTicks host_ticks();

}  // namespace perfbench
