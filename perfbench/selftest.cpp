// Self-tests of the benchmark's measurement helpers: the percentile rule,
// and that the seeded arrival schedule and input pool repeat exactly.
// Exit code 0 when every check passes; each failure is printed.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

void percentile_rule() {
  using perfbench::highest_supported_percentile;
  using perfbench::samples_beyond;
  check(samples_beyond(1000, 0.99) == 10, "p99 of 1000 leaves 10 beyond");
  check(samples_beyond(999, 0.99) == 9, "p99 of 999 leaves 9 beyond");
  check(samples_beyond(0, 0.5) == 0, "empty sample has nothing beyond");
  check(highest_supported_percentile(19) == 0.0, "19 samples support nothing");
  check(highest_supported_percentile(20) == 0.5, "20 samples support p50");
  check(highest_supported_percentile(100) == 0.9, "100 samples support p90");
  check(highest_supported_percentile(999) == 0.9, "999 samples stop at p90");
  check(highest_supported_percentile(1000) == 0.99, "1000 samples support p99");
  check(highest_supported_percentile(10000) == 0.999,
        "10000 samples support p99.9");

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  check(perfbench::percentile(v, 0.5) == 500.0, "nearest-rank p50 of 1..1000");
  check(perfbench::percentile(v, 0.99) == 990.0, "nearest-rank p99 of 1..1000");
  check(perfbench::percentile(v, 1.0) == 1000.0, "p100 is the maximum");
  check(perfbench::median({3.0}) == 3.0, "median of one sample");
  v.back() = std::numeric_limits<double>::infinity();  // a failed request
  check(std::isinf(perfbench::percentile(v, 1.0)),
        "a failed request sorts slower than any latency");
  check(perfbench::percentile(v, 0.99) == 991.0,
        "a failed request pushes the p99 up");
}

void schedule_is_seeded() {
  const std::vector<double> share{0.6, 0.3, 0.1};
  const auto a = perfbench::poisson_schedule(7, 1000.0, 2.0, share);
  const auto b = perfbench::poisson_schedule(7, 1000.0, 2.0, share);
  const auto c = perfbench::poisson_schedule(8, 1000.0, 2.0, share);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].t_s == b[i].t_s && a[i].tenant == b[i].tenant;
  }
  check(same, "same seed gives the same schedule");
  check(a.size() != c.size() || a.front().t_s != c.front().t_s,
        "another seed gives another schedule");
  check(a.size() > 1800 && a.size() < 2200, "rate 1000/s over 2 s");
  int counts[3] = {0, 0, 0};
  bool ordered = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ++counts[a[i].tenant];
    ordered = ordered && (i == 0 || a[i - 1].t_s <= a[i].t_s) && a[i].t_s < 2.0;
  }
  check(ordered, "arrivals are ordered and inside the duration");
  const double n = static_cast<double>(a.size());
  check(std::fabs(counts[0] / n - 0.6) < 0.05 &&
            std::fabs(counts[2] / n - 0.1) < 0.05,
        "tenant shares follow 60/30/10");
}

void pool_is_seeded() {
  const adcnn::Shape shape{1, 3, 8, 8};
  const auto a = perfbench::input_pool(5, 4, shape);
  const auto b = perfbench::input_pool(5, 4, shape);
  const auto c = perfbench::input_pool(6, 4, shape);
  bool same = a.size() == 4 && b.size() == 4;
  for (std::size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].shape() == shape &&
           std::memcmp(a[i].data(), b[i].data(),
                       static_cast<std::size_t>(a[i].numel()) * sizeof(float)) == 0;
  }
  check(same, "same seed gives a bit-identical input pool");
  check(std::memcmp(a[0].data(), c[0].data(),
                    static_cast<std::size_t>(a[0].numel()) * sizeof(float)) != 0,
        "another seed gives another pool");
  check(std::memcmp(a[0].data(), a[1].data(),
                    static_cast<std::size_t>(a[0].numel()) * sizeof(float)) != 0,
        "pool images differ from each other");
}

}  // namespace

int main() {
  percentile_rule();
  schedule_is_seeded();
  pool_is_seeded();
  std::printf("perfbench_selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
