#include "harness.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "tensor/rng.hpp"

namespace perfbench {

std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                      double duration_s,
                                      const std::vector<double>& tenant_share) {
  adcnn::Rng rng(seed ^ 0x9015500ull);
  // Exponential gaps from uniforms in (0, 1].
  const auto gap = [&] { return -std::log(1.0 - rng.uniform()) / rate; };
  std::vector<Arrival> out;
  for (double t = gap(); t < duration_s; t += gap()) {
    const double u = rng.uniform();
    double acc = 0.0;
    int tenant = static_cast<int>(tenant_share.size()) - 1;
    for (std::size_t i = 0; i < tenant_share.size(); ++i) {
      acc += tenant_share[i];
      if (u < acc) {
        tenant = static_cast<int>(i);
        break;
      }
    }
    out.push_back(Arrival{t, std::max(tenant, 0)});
  }
  return out;
}

std::vector<adcnn::Tensor> input_pool(std::uint64_t seed, std::size_t n,
                                      const adcnn::Shape& shape) {
  adcnn::Rng rng(seed ^ 0x1a97ull);
  std::vector<adcnn::Tensor> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool.push_back(adcnn::Tensor::randn(shape, rng));
  }
  return pool;
}

namespace {
// ceil(q * n) without letting 0.99 * 1000 round up to 991.
std::size_t nearest_rank(std::size_t n, double q) {
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                 1, n);
}
}  // namespace

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (samples_beyond(n, q) >= 10) best = q;
  }
  return best;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double self_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::optional<ProcUsage> proc_usage(pid_t pid) {
  const std::string dir =
      pid == 0 ? std::string("/proc/self") : "/proc/" + std::to_string(pid);
  std::ifstream stat(dir + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return std::nullopt;
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line, i.e. 12 and 13 after the name.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return std::nullopt;
  std::istringstream rest(line.substr(close + 1));
  std::string field;
  double ticks = 0.0;
  for (int i = 1; i <= 13 && rest >> field; ++i) {
    if (i >= 12) ticks += std::stod(field);
  }
  ProcUsage u;
  u.cpu_s = pid == 0 ? self_cpu_s()
                     : ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
  std::ifstream status(dir + "/status");
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      u.peak_rss_mb = std::stod(line.substr(6)) / 1024.0;  // kB
      break;
    }
  }
  return u;
}

HostTicks host_ticks() {
  // "cpu  user nice system idle iowait irq softirq steal guest guest_nice"
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  HostTicks h;
  double v = 0.0;
  for (int i = 1; i <= 8 && stat >> v; ++i) {
    h.total += v;  // guest time is already inside user and nice
    if (i == 8) h.steal = v;
  }
  return h;
}

}  // namespace perfbench
