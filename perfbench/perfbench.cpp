// Serving benchmark for the ADCNN stack: StreamingServer/CentralNode over
// nn, compress and core, plus net for the socket workload. It drives one
// named workload from outside the program, bit-checks every delivered
// output against a sequential infer() oracle, and prints one JSON result
// line (see run.py for the contract and BENCHMARK.json for the metrics).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//             [--commit ID]
//
// --trace 0 reports the end-to-end metrics: cold-start setup time (median
// of several cold starts, each in a fresh process), then a measured window
// of S seconds after a short warm-up. --trace 1 reports the per-layer
// metrics: a window whose half-second intervals alternate between untraced
// and traced (the benchmark records its own spans, derived from the
// InferStats each wait() returns), followed by a layer pass that times
// each module's public calls at the workload's shapes, measured batch and
// precision. The program's MetricsRegistry is attached throughout; its
// TraceRecorder is never turned on.
//
// The oracle and every cold start run in child processes of this binary
// (--role oracle, --role cold-start), so the measuring process holds only
// the deployment under test and each cold start begins with no thread
// pool, scratch or allocator state left over from earlier work.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/allocate.hpp"
#include "harness.hpp"
#include "net/cluster.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/worker.hpp"
#include "nn/conv.hpp"
#include "nn/gemm.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "nn/tiling.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "runtime/cluster.hpp"
#include "runtime/message.hpp"
#include "runtime/pipeline.hpp"
#include "tensor/rng.hpp"

extern char** environ;

#ifndef PERFBENCH_WORKER_BIN
#define PERFBENCH_WORKER_BIN ""
#endif

namespace {

using namespace adcnn;
using perfbench::median;
using perfbench::percentile;
using Clock = std::chrono::steady_clock;

// Shared by every workload (the serving settings under test).
constexpr int kNodes = 4;
constexpr int kMaxInFlight = 4;
constexpr int kMaxBatch = 4;
constexpr std::int64_t kMaxWaitUs = 500;
constexpr runtime::NodeBatchConfig kNodeBatching{4, 200};

constexpr std::size_t kPoolSize = 32;
constexpr int kColdStarts = 15;
constexpr double kWarmupS = 0.5;
/// Traced runs alternate untraced and traced intervals of this length, so
/// drift over the window cancels out of trace.overhead_frac.
constexpr double kToggleS = 0.5;
/// Open-loop validity, in mean inter-arrival gaps: a generator whose send
/// lag p99 exceeds kMaxLagP99Gaps (or whose worst lag exceeds kMaxLagGaps)
/// sent bursts the schedule did not contain, so the offered load was not
/// the one claimed and the run is rejected.
constexpr double kMaxLagP99Gaps = 10.0;
constexpr double kMaxLagGaps = 100.0;

struct Workload {
  std::string name;
  net::ModelSpec spec;
  bool sockets = false;
  /// Link sleep scale for the in-process cluster (0 = functional links).
  double time_scale = 0.0;
  /// Closed loop with this many outstanding requests; 0 = open loop.
  int clients = 0;
  /// Open-loop Poisson rate (requests per second).
  double rate = 0.0;
  /// Traffic share per tenant; more than one entry = weighted tenants.
  std::vector<double> tenant_share{1.0};
};

net::ModelSpec spec_of(const std::string& family, std::int64_t image,
                       int grid, bool int8) {
  net::ModelSpec s;
  s.family = family;
  s.image = image;
  s.grid_rows = grid;
  s.grid_cols = grid;
  s.int8 = int8;
  return s;
}

std::vector<Workload> all_workloads() {
  std::vector<Workload> ws;
  {
    Workload w;
    w.name = "resnet-inproc";
    w.spec = spec_of("resnet", 64, 2, false);
    w.clients = 8;
    ws.push_back(w);
  }
  {
    Workload w;
    w.name = "vgg-socket-poisson";
    w.spec = spec_of("vgg", 32, 4, true);
    w.sockets = true;
    // A third of the closed-loop capacity this cluster reached on a busy
    // 4-vCPU host (1000-1300/s; about 3000/s when the host is quiet).
    w.rate = 350.0;
    w.tenant_share = {0.6, 0.3, 0.1};
    ws.push_back(w);
  }
  {
    Workload w;
    w.name = "vgg-wifi-single";
    w.spec = spec_of("vgg", 32, 2, false);
    w.time_scale = 1.0;  // link airtime is modelled, then slept for real
    w.clients = 1;
    ws.push_back(w);
  }
  return ws;
}

runtime::ClusterConfig inproc_config(const Workload& w) {
  runtime::ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.bandwidth_bps = 87.72e6;  // the paper's WiFi measurement
  cfg.latency_s = 0.0005;
  cfg.time_scale = w.time_scale;
  cfg.optimize_model = true;
  if (w.spec.int8) {
    cfg.precision = nn::Precision::kInt8;
    cfg.int8_calibration = net::calibration_inputs(w.spec);
  }
  return cfg;
}

// --- deployment -------------------------------------------------------

/// One serving deployment: model, cluster and server, with the program's
/// MetricsRegistry attached as in production. Members are destroyed in
/// reverse order, so the server closes before its cluster.
class Deployment {
 public:
  explicit Deployment(const Workload& w) : pm_(w.spec.build()) {
    if (w.sockets) {
      net::DistributedConfig cfg;
      cfg.num_nodes = kNodes;
      cfg.worker_binary = PERFBENCH_WORKER_BIN;
      cfg.spec = w.spec;
      cfg.telemetry.metrics = &metrics_;
      dist_ = std::make_unique<net::DistributedCluster>(pm_, cfg);
      if (!dist_->wait_all_connected(15.0)) {
        throw std::runtime_error("socket workers never connected");
      }
    } else {
      runtime::ClusterConfig cfg = inproc_config(w);
      cfg.node_batching = kNodeBatching;
      cfg.telemetry.metrics = &metrics_;
      edge_ = std::make_unique<runtime::EdgeCluster>(pm_, cfg);
    }
    runtime::StreamingConfig scfg;
    scfg.max_in_flight = kMaxInFlight;
    scfg.batching = runtime::BatchConfig{kMaxBatch, kMaxWaitUs};
    if (w.tenant_share.size() > 1) {
      const char* names[] = {"gold", "silver", "bronze"};
      for (std::size_t i = 0; i < w.tenant_share.size(); ++i) {
        runtime::TenantConfig t;
        t.name = names[i % 3];
        t.weight = static_cast<double>(w.tenant_share.size() - i);
        scfg.tenants.push_back(t);  // unbounded queue, no SLO shedding
      }
    }
    scfg.telemetry.metrics = &metrics_;
    server_ = std::make_unique<runtime::StreamingServer>(central(), scfg);
  }

  runtime::StreamingServer& server() { return *server_; }
  core::PartitionedModel& model() { return pm_; }
  runtime::CentralNode& central() {
    return dist_ ? dist_->central() : edge_->central();
  }
  obs::MetricsRegistry& metrics() { return metrics_; }

  /// Bytes the transports counted on every downlink and uplink.
  std::int64_t wire_bytes() {
    if (dist_) {
      return metrics_.counter("net.bytes_tx").value() +
             metrics_.counter("net.bytes_rx").value();
    }
    return metrics_.counter("link.downlink_bytes").value() +
           metrics_.counter("link.uplink_bytes").value();
  }

  std::vector<pid_t> worker_pids() const {
    std::vector<pid_t> pids;
    if (dist_) {
      for (int k = 0; k < dist_->num_nodes(); ++k) {
        if (dist_->worker_pid(k) > 0) pids.push_back(dist_->worker_pid(k));
      }
    }
    return pids;
  }

 private:
  obs::MetricsRegistry metrics_;
  core::PartitionedModel pm_;
  std::unique_ptr<runtime::EdgeCluster> edge_;
  std::unique_ptr<net::DistributedCluster> dist_;
  std::unique_ptr<runtime::StreamingServer> server_;
};

/// CPU seconds, peak RSS and transport bytes of the whole deployment: this
/// process plus every worker process.
struct Usage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  std::int64_t wire_bytes = 0;
  perfbench::HostTicks host;  // recorded to tell a busy host from the program
};

Usage usage_of(Deployment& d) {
  Usage u;
  std::vector<pid_t> pids = d.worker_pids();
  pids.push_back(0);
  for (const pid_t pid : pids) {
    const auto p = perfbench::proc_usage(pid);
    if (!p) throw std::runtime_error("cannot read usage of a deployment process");
    u.cpu_s += p->cpu_s;
    u.peak_rss_mb = std::max(u.peak_rss_mb, p->peak_rss_mb);
  }
  u.wire_bytes = d.wire_bytes();
  u.host = perfbench::host_ticks();
  return u;
}

/// A tensor's shape and raw bits as text: equal fingerprints mean
/// bit-identical tensors. Child processes hand outputs over in this form.
std::string fingerprint(const Tensor& t) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s;
  for (const std::int64_t d : t.shape().dims()) s += std::to_string(d) + "x";
  s += ':';
  const auto* b = reinterpret_cast<const unsigned char*>(t.data());
  const std::size_t n = static_cast<std::size_t>(t.numel()) * sizeof(float);
  for (std::size_t i = 0; i < n; ++i) {
    s += kHex[b[i] >> 4];
    s += kHex[b[i] & 15];
  }
  return s;
}

// --- child processes ---------------------------------------------------

/// --role oracle: sequential infer() of every pool image over an in-process
/// cluster built from the same ModelSpec, precision and optimisation as the
/// deployment (links do not sleep: airtime changes when a tile arrives, not
/// what it holds). Prints one fingerprint per line.
int oracle_role(const Workload& w, const std::vector<Tensor>& pool) {
  core::PartitionedModel pm = w.spec.build();
  runtime::ClusterConfig cfg = inproc_config(w);
  cfg.time_scale = 0.0;
  runtime::EdgeCluster cluster(pm, cfg);
  for (const Tensor& x : pool) {
    std::printf("%s\n", fingerprint(cluster.infer(x)).c_str());
  }
  return 0;
}

/// --role cold-start: the first image through a fresh deployment, timed
/// from nothing in a fresh process. Prints the seconds and the output's
/// fingerprint; teardown is not part of the cold start.
int cold_start_role(const Workload& w, const std::vector<Tensor>& pool) {
  const Clock::time_point t0 = Clock::now();
  Deployment d(w);
  const Tensor out = d.server().wait(d.server().submit(0, pool[0]));
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  std::printf("%.9f %s\n", s, fingerprint(out).c_str());
  std::fflush(stdout);
  return 0;
}

/// Runs this binary again with `args` and waits for it; returns the lines
/// of its standard output, or throws when it cannot start or fails.
std::vector<std::string> run_self(const std::vector<std::string>& args) {
  char exe[PATH_MAX];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) throw std::runtime_error("cannot locate the perfbench binary");
  exe[len] = '\0';
  std::vector<std::string> strs{exe};
  strs.insert(strs.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : strs) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[4096];
  while (rc == 0) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  std::string what;
  for (const std::string& a : args) what += " " + a;
  if (rc != 0) {
    throw std::runtime_error("cannot start child" + what + ": " + std::strerror(rc));
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child" + what + " failed");
  }
  std::vector<std::string> lines;
  for (std::size_t b = 0, e; b < out.size(); b = e + 1) {
    e = out.find('\n', b);
    if (e == std::string::npos) e = out.size();
    lines.push_back(out.substr(b, e - b));
  }
  return lines;
}

std::vector<std::string> child_args(const char* role, const Workload& w,
                                    std::uint64_t seed) {
  return {"--role", role, "--workload", w.name, "--seed", std::to_string(seed)};
}

/// The oracle's fingerprint of every pool image, computed in a child.
std::vector<std::string> oracle_outputs(const Workload& w, std::uint64_t seed) {
  std::vector<std::string> lines = run_self(child_args("oracle", w, seed));
  if (lines.size() != kPoolSize) throw std::runtime_error("oracle printed too few outputs");
  return lines;
}

// --- the benchmark's own span recorder ---------------------------------

struct Span {
  std::string name;
  std::int64_t request = -1;  // -1 for layer-pass spans
  double begin_us = 0.0;      // from the start of the run
  double end_us = 0.0;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}
  double us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }
  void record(std::string name, std::int64_t request, double begin_us,
              double end_us) {
    spans_.push_back(Span{std::move(name), request, begin_us, end_us});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// --- load generation ----------------------------------------------------

struct Completed {
  std::int64_t id = 0;
  bool in_window = false;  // started inside the window
  bool traced = false;
  bool ok = false;     // wait() returned an output
  bool exact = false;  // ... bit-identical to the oracle
  bool delivered_in_window = false;  // exact, and ready inside the window
  double latency_s = std::numeric_limits<double>::infinity();
  double lag_s = 0.0;  // open loop: actual send minus scheduled send
  double since_w0_s = 0.0;  // start, from the start of the window
  double queue_s = 0.0;  // submit -> dispatch (server latency - stage sum)
};

struct DriveResult {
  std::vector<Completed> done;
  /// The InferStats of every traced request (a batch's images share one).
  std::vector<runtime::InferStats> traced_stats;
  /// Usage at the window's start and at its end.
  std::vector<Usage> marks;
  double coverage_num = 0.0, coverage_den = 0.0;
};

/// Runs the workload's load against `d` for kWarmupS + seconds. Requests
/// whose start (scheduled send in the open loop, submit in the closed
/// loop) falls inside the window after the warm-up are measured; with
/// `trace` set, every other kToggleS interval of the window is traced.
DriveResult drive(Deployment& d, const Workload& w,
                  const std::vector<Tensor>& pool,
                  const std::vector<std::string>& oracle, std::uint64_t seed,
                  double seconds, SpanRecorder* trace) {
  struct Sent {
    std::int64_t ticket = 0;
    std::int64_t id = 0;
    std::size_t pool_index = 0;
    Clock::time_point t_start, t_submit;
  };
  DriveResult r;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> sent;
  int outstanding = 0;
  bool sending_done = false;

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const Clock::time_point w0 = at(kWarmupS), w1 = at(kWarmupS + seconds);
  const auto classify = [&](Completed& c, Clock::time_point t_start) {
    c.in_window = t_start >= w0 && t_start < w1;
    if (!c.in_window) return;
    c.since_w0_s = std::chrono::duration<double>(t_start - w0).count();
    if (trace) {
      c.traced = static_cast<std::int64_t>(c.since_w0_s / kToggleS) % 2 == 1;
    }
  };
  // Usage at the window's start and end, taken by the sender thread
  // between sends.
  const Clock::time_point mark_at[2] = {w0, w1};
  const auto mark_until = [&](Clock::time_point now) {
    while (r.marks.size() < 2 && mark_at[r.marks.size()] <= now) {
      r.marks.push_back(usage_of(d));
    }
  };

  std::thread redeemer([&] {
    for (;;) {
      Sent s;
      {
        std::unique_lock lock(mu);
        cv.wait(lock, [&] { return !sent.empty() || sending_done; });
        if (sent.empty()) break;
        s = sent.front();
        sent.pop_front();
      }
      Completed c;
      c.id = s.id;
      classify(c, s.t_start);
      c.lag_s = std::chrono::duration<double>(s.t_submit - s.t_start).count();
      runtime::InferStats stats;
      double server_latency_s = 0.0;
      try {
        const Tensor out = d.server().wait(s.ticket, &stats, &server_latency_s);
        c.ok = true;
        c.exact = fingerprint(out) == oracle[s.pool_index];
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: request %lld failed: %s\n",
                     static_cast<long long>(s.id), e.what());
      }
      // The request ends when the server has its output ready, which wait()
      // reports as the submit-to-ready time: tickets are redeemed in send
      // order, and one that is ready behind a slower one is not charged for
      // waiting to be redeemed.
      const Clock::time_point t_ready =
          s.t_submit + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(server_latency_s));
      if (c.ok) {
        c.latency_s = std::chrono::duration<double>(t_ready - s.t_start).count();
        c.queue_s = std::max(0.0, server_latency_s - stats.elapsed_s);
        c.delivered_in_window = c.exact && t_ready >= w0 && t_ready < w1;
      }
      if (c.traced && c.ok) {
        // Root span around the request, children laid end to end from the
        // submit: queue, then the job's six stages as InferStats reports
        // them (shared by every image of a batch).
        const double root_b = trace->us(s.t_start), root_e = trace->us(t_ready);
        trace->record("request", c.id, root_b, root_e);
        double b = trace->us(s.t_submit);
        const std::pair<const char*, double> stages[] = {
            {"queue", c.queue_s},
            {"partition", stats.stages.partition_s},
            {"allocate", stats.stages.allocate_s},
            {"scatter", stats.stages.scatter_s},
            {"gather", stats.stages.gather_s},
            {"zero_fill", stats.stages.zero_fill_s},
            {"suffix", stats.stages.suffix_s}};
        double covered = 0.0;
        for (const auto& [name, secs] : stages) {
          const double e = b + secs * 1e6;
          trace->record(name, c.id, b, e);
          covered += std::max(0.0, std::min(e, root_e) - std::max(b, root_b));
          b = e;
        }
        r.coverage_num += covered;
        r.coverage_den += root_e - root_b;
      }
      {
        std::lock_guard lock(mu);
        --outstanding;
        if (c.traced && c.ok) r.traced_stats.push_back(std::move(stats));
        r.done.push_back(c);
      }
      cv.notify_all();
    }
  });

  const auto send = [&](std::int64_t id, int tenant, std::size_t idx,
                        Clock::time_point t_start) {
    Sent s;
    s.id = id;
    s.pool_index = idx;
    s.t_start = t_start;
    s.t_submit = Clock::now();
    s.ticket = d.server().submit(tenant, pool[idx]);
    {
      std::lock_guard lock(mu);
      sent.push_back(s);
      ++outstanding;
    }
    cv.notify_all();
  };

  adcnn::Rng picker(seed ^ 0x5e1ec7ull);
  const auto pick = [&] { return static_cast<std::size_t>(picker.uniform_int(kPoolSize)); };
  try {
    if (w.clients > 0) {
      for (std::int64_t id = 0;; ++id) {
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return outstanding < w.clients; });
        }
        const Clock::time_point now = Clock::now();
        mark_until(now);
        if (now >= w1) break;
        send(id, 0, pick(), now);
      }
    } else {
      const auto schedule = perfbench::poisson_schedule(
          seed, w.rate, kWarmupS + seconds, w.tenant_share);
      for (std::size_t i = 0; i <= schedule.size(); ++i) {
        // Marks due before this send (or, after the last, up to the end).
        const Clock::time_point due =
            i < schedule.size() ? at(schedule[i].t_s) : w1;
        while (r.marks.size() < 2 && mark_at[r.marks.size()] <= due) {
          std::this_thread::sleep_until(mark_at[r.marks.size()]);
          mark_until(mark_at[r.marks.size()]);
        }
        if (i == schedule.size()) break;
        std::this_thread::sleep_until(due);
        send(static_cast<std::int64_t>(i), schedule[i].tenant, pick(), due);
      }
    }
  } catch (...) {
    {
      std::lock_guard lock(mu);
      sending_done = true;
    }
    cv.notify_all();
    redeemer.join();
    throw;
  }
  {
    std::lock_guard lock(mu);
    sending_done = true;
  }
  cv.notify_all();
  redeemer.join();
  return r;
}

// --- result assembly -----------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t mismatches = 0;
  std::vector<Metric> metrics;
};

/// Counts mismatches over every request, and attempts and failures over
/// the requests started in the window; returns the exact deliveries made
/// in the window.
std::int64_t count_window(const DriveResult& r, Outcome* o) {
  std::int64_t delivered = 0;
  for (const Completed& c : r.done) {
    if (c.ok && !c.exact) ++o->mismatches;
    if (c.delivered_in_window) ++delivered;
    if (!c.in_window) continue;
    ++o->attempted;
    if (!c.exact) ++o->failed;
  }
  return delivered;
}

void check_open_loop_lag(const Workload& w, const DriveResult& r,
                         std::map<std::string, double>* extra) {
  if (w.clients > 0) return;
  std::vector<double> lags;
  for (const Completed& c : r.done) {
    if (c.in_window) lags.push_back(c.lag_s);
  }
  const double p99 = percentile(lags, 0.99);
  const double mx = lags.empty() ? 0.0 : *std::max_element(lags.begin(), lags.end());
  (*extra)["generator_lag_p99_ms"] = p99 * 1e3;
  (*extra)["generator_lag_max_ms"] = mx * 1e3;
  if (p99 * w.rate > kMaxLagP99Gaps || mx * w.rate > kMaxLagGaps) {
    throw std::runtime_error(
        "invalid run: open-loop generator lag p99 " + std::to_string(p99 * 1e3) +
        " ms, max " + std::to_string(mx * 1e3) + " ms; the bound is " +
        std::to_string(kMaxLagP99Gaps) + " and " + std::to_string(kMaxLagGaps) +
        " mean inter-arrival gaps");
  }
}

Outcome end_to_end(const Workload& w, std::uint64_t seed, double seconds,
                   const std::vector<Tensor>& pool,
                   const std::vector<std::string>& oracle,
                   std::map<std::string, double>* extra) {
  Outcome o;
  std::vector<double> setups;
  const auto cold_starts = [&](int n) {
    for (int i = 0; i < n; ++i) {
      // "<seconds> <fingerprint>"
      const std::string line = run_self(child_args("cold-start", w, seed)).at(0);
      const std::size_t sp = line.find(' ');
      setups.push_back(std::stod(line.substr(0, sp)));
      if (sp == std::string::npos || line.substr(sp + 1) != oracle[0]) {
        ++o.mismatches;
      }
    }
  };
  // Half the cold starts before the window and half after it, so a
  // passing change in host speed does not bias them all one way.
  cold_starts(kColdStarts / 2 + 1);
  DriveResult r;
  {
    Deployment d(w);
    r = drive(d, w, pool, oracle, seed, seconds, nullptr);
    const auto q = d.metrics().snapshot().quantiles;
    if (const auto it = q.find("batch.size_q"); it != q.end()) {
      (*extra)["batch_images_mean"] = it->second.total.mean();
    }
  }
  cold_starts(kColdStarts / 2);
  const std::int64_t delivered = count_window(r, &o);
  check_open_loop_lag(w, r, extra);

  // Every request of the window; a failed or mismatched one counts as
  // slower than any latency limit.
  std::vector<double> lat;
  for (const Completed& c : r.done) {
    if (c.in_window) {
      lat.push_back(c.exact ? c.latency_s : std::numeric_limits<double>::infinity());
    }
  }
  if (perfbench::samples_beyond(lat.size(), 0.9) < 10) {
    throw std::runtime_error("invalid run: too few requests to support a p90");
  }
  const Usage& u0 = r.marks.front();
  const Usage& u1 = r.marks.back();
  const double per_image = static_cast<double>(std::max<std::int64_t>(delivered, 1));
  // The tail is printed but not gated: on a host whose hypervisor lends the
  // CPUs to other guests, other guests' load reaches the tail first and
  // moves it by more than any bound the benchmark may set (see README).
  (*extra)["samples"] = static_cast<double>(lat.size());
  (*extra)["highest_supported_percentile"] =
      perfbench::highest_supported_percentile(lat.size());
  (*extra)["latency_p90_ms"] = percentile(lat, 0.9) * 1e3;
  (*extra)["latency_p99_ms"] = percentile(lat, 0.99) * 1e3;
  (*extra)["host_steal_frac"] =
      (u1.host.steal - u0.host.steal) / std::max(u1.host.total - u0.host.total, 1.0);
  (*extra)["setup_min_s"] = *std::min_element(setups.begin(), setups.end());
  (*extra)["setup_max_s"] = *std::max_element(setups.begin(), setups.end());

  o.metrics = {
      {"setup_s", median(setups), "s"},
      {"throughput_ips", static_cast<double>(delivered) / seconds, "1/s"},
      {"latency_p50_ms", percentile(lat, 0.5) * 1e3, "ms"},
      {"success_rate",
       static_cast<double>(o.attempted - o.failed) /
           static_cast<double>(std::max<std::int64_t>(o.attempted, 1)),
       "frac"},
      {"wire_bytes_per_image",
       static_cast<double>(u1.wire_bytes - u0.wire_bytes) / per_image, "B"},
      {"cpu_ms_per_image", (u1.cpu_s - u0.cpu_s) * 1e3 / per_image, "ms"},
      {"peak_rss_mb", u1.peak_rss_mb, "MB"},
  };
  return o;
}

// --- layer pass ------------------------------------------------------------

/// Median seconds per call of `fn`, after one warm-up call; each timed call
/// is also recorded as a span named `name`.
double time_call(SpanRecorder& trace, const std::string& name,
                 const std::function<void()>& fn) {
  fn();
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < 15 || (total < 0.03 && samples.size() < 2000)) {
    const Clock::time_point b = Clock::now();
    fn();
    const Clock::time_point e = Clock::now();
    trace.record(name, -1, trace.us(b), trace.us(e));
    samples.push_back(std::chrono::duration<double>(e - b).count());
    total += samples.back();
  }
  return median(samples);
}

/// Rows [begin, end) of the batch dimension.
Tensor batch_rows(const Tensor& x, std::int64_t begin, std::int64_t end) {
  std::vector<std::int64_t> dims = x.shape().dims();
  const std::int64_t per = x.numel() / dims[0];
  dims[0] = end - begin;
  Tensor out{Shape(dims)};
  std::memcpy(out.data(), x.data() + begin * per,
              static_cast<std::size_t>((end - begin) * per) * sizeof(float));
  return out;
}

Tensor stack(const std::vector<Tensor>& images, int n) {
  std::vector<std::int64_t> dims = images[0].shape().dims();
  const std::int64_t per = images[0].numel();
  dims[0] = n;
  Tensor out{Shape(dims)};
  for (int i = 0; i < n; ++i) {
    std::memcpy(out.data() + i * per, images[static_cast<std::size_t>(i)].data(),
                static_cast<std::size_t>(per) * sizeof(float));
  }
  return out;
}

std::vector<std::uint8_t> tensor_bytes(const Tensor& t) {
  std::vector<std::uint8_t> b(static_cast<std::size_t>(t.numel()) * sizeof(float));
  std::memcpy(b.data(), t.data(), b.size());
  return b;
}

enum class Kind { kConv, kLinear, kOther };

Kind kind_of(nn::Layer& layer) {
  if (dynamic_cast<nn::Conv2d*>(&layer) || dynamic_cast<nn::Residual*>(&layer)) {
    return Kind::kConv;
  }
  if (dynamic_cast<nn::Linear*>(&layer)) return Kind::kLinear;
  return Kind::kOther;
}

/// Times every non-no-op top-level layer of [begin, end) on `x`, adding
/// each to `layers` (as nn.layer.<index>.<name>_ms per `per` units) and to
/// the per-kind sums.
void time_layers(SpanRecorder& trace, nn::Model& model, Tensor x, int begin,
                   int end, double per, std::map<Kind, double>* kinds,
                   std::vector<std::pair<std::string, double>>* layers) {
  for (int i = begin; i < end; ++i) {
    nn::Layer& layer = model.net.at(static_cast<std::size_t>(i));
    if (layer.is_noop()) continue;
    const std::string name =
        "nn.layer." + std::to_string(i) + "." + layer.name() + "_ms";
    const Tensor in = x;
    const double s =
        time_call(trace, name, [&] { x = model.forward_range(in, i, i + 1); });
    (*kinds)[kind_of(layer)] += s * 1e3 / per;
    layers->emplace_back(name, s * 1e3 / per);
  }
}

/// Median round trip of `payload` framed over a loopback TCP connection
/// through net's FramedConn, echoed by a peer thread.
double loopback_rtt_s(SpanRecorder& trace, std::span<const std::uint8_t> payload) {
  net::Endpoint ep;  // tcp:127.0.0.1, ephemeral port
  net::Listener listener(ep);
  std::thread echo([&] {
    try {
      auto sock = listener.accept(Clock::now() + std::chrono::seconds(5));
      if (!sock) return;
      net::FramedConn conn(std::move(*sock));
      while (auto f = conn.recv_frame(Clock::now() + std::chrono::seconds(5))) {
        if (f->type == net::FrameType::kShutdown) break;
        if (!conn.send_frame(f->type, f->payload)) break;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: loopback echo: %s\n", e.what());
    }
  });
  std::string error;
  net::Socket sock =
      net::connect_to(listener.bound(), Clock::now() + std::chrono::seconds(5), &error);
  if (!sock.valid()) {
    echo.join();
    throw std::runtime_error("loopback connect failed: " + error);
  }
  net::FramedConn conn(std::move(sock));
  bool alive = true;
  const double s = time_call(trace, "net.rtt", [&] {
    alive = alive && conn.send_frame(net::FrameType::kTileResult, payload) &&
            conn.recv_frame(Clock::now() + std::chrono::seconds(5)).has_value();
  });
  conn.send_frame(net::FrameType::kShutdown, {});
  echo.join();
  if (!alive) throw std::runtime_error("loopback echo connection died");
  return s;
}

/// Times each module's public calls on the deployment's model and the
/// workload's inputs and precision, for jobs of `batch` images: the mean
/// batch the traced window measured.
std::vector<Metric> layer_pass(const Workload& w, Deployment& d,
                               const std::vector<Tensor>& pool, int batch,
                               SpanRecorder& trace,
                               std::vector<std::pair<std::string, double>>* layers) {
  core::PartitionedModel& pm = d.model();
  nn::Model& model = pm.model;
  const int B = batch;
  const std::int64_t rows = pm.grid.rows, cols = pm.grid.cols;
  const std::int64_t T = rows * cols;
  const Tensor tiles = nn::TileSplit::split(stack(pool, B), rows, cols);
  const auto n_tiles = static_cast<double>(tiles.shape()[0]);
  // Tiles per prefix call: a job's tiles spread over the nodes, coalesced
  // up to the node batch in-process; socket workers run one tile per call.
  const std::int64_t node_tiles =
      w.sockets ? 1
                : std::min<std::int64_t>(kNodeBatching.max_batch,
                                         (B * T + kNodes - 1) / kNodes);

  // Prefix at the Conv nodes' precision, one node batch of tiles.
  std::map<Kind, double> pre_kinds, suf_kinds;
  double prefix_s = 0.0;
  Tensor prefix_out;
  {
    std::optional<nn::ScopedInt8Compute> int8;
    if (w.spec.int8) int8.emplace();
    const Tensor node_batch = batch_rows(tiles, 0, node_tiles);
    time_layers(trace, model, node_batch, pm.prefix_begin(), pm.prefix_end(),
                static_cast<double>(node_tiles), &pre_kinds, layers);
    prefix_s = time_call(trace, "nn.prefix", [&] {
      (void)model.forward_range(node_batch, pm.prefix_begin(), pm.prefix_end());
    });
    prefix_out = model.forward_range(tiles, pm.prefix_begin(), pm.prefix_end());
  }

  // Codec and wire messages per tile, on the real prefix outputs.
  const compress::TileCodec codec(pm.clip_range, pm.bits);
  std::vector<Tensor> out_tiles, in_tiles;
  std::vector<std::vector<std::uint8_t>> encoded, task_wire, result_wire;
  std::vector<runtime::TileTask> tasks;
  std::vector<runtime::TileResult> results;
  double raw_bytes = 0.0, wire_bytes = 0.0;
  for (std::int64_t t = 0; t < tiles.shape()[0]; ++t) {
    in_tiles.push_back(batch_rows(tiles, t, t + 1));
    out_tiles.push_back(batch_rows(prefix_out, t, t + 1));
    encoded.push_back(codec.encode(out_tiles.back()));
    raw_bytes += static_cast<double>(out_tiles.back().numel()) * sizeof(float);
    wire_bytes += static_cast<double>(encoded.back().size());
    runtime::TileTask task;
    task.tile_id = t;
    task.shape = in_tiles.back().shape();
    task.payload = tensor_bytes(in_tiles.back());
    task_wire.push_back(runtime::serialize(task));
    tasks.push_back(std::move(task));
    runtime::TileResult result;
    result.tile_id = t;
    result.shape = out_tiles.back().shape();
    result.payload = encoded.back();
    result_wire.push_back(runtime::serialize(result));
    results.push_back(std::move(result));
  }
  const double encode_s = time_call(trace, "compress.encode", [&] {
    for (const Tensor& t : out_tiles) (void)codec.encode(t);
  });
  std::vector<Tensor> decoded(out_tiles.size());
  const double decode_s = time_call(trace, "compress.decode", [&] {
    for (std::size_t t = 0; t < out_tiles.size(); ++t) {
      decoded[t] = codec.decode(encoded[t], out_tiles[t].shape());
    }
  });
  const double message_s = time_call(trace, "runtime.message", [&] {
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      (void)runtime::deserialize_task(runtime::serialize(tasks[t]));
      (void)runtime::deserialize_result(runtime::serialize(results[t]));
    }
  });
  const double frame_s = time_call(trace, "net.frame", [&] {
    net::FrameReassembler rx;
    for (std::size_t t = 0; t < task_wire.size(); ++t) {
      rx.push(net::encode_frame(net::FrameType::kTileTask, task_wire[t]));
      rx.push(net::encode_frame(net::FrameType::kTileResult, result_wire[t]));
      (void)rx.next();
      (void)rx.next();
    }
  });
  const double rtt_s = loopback_rtt_s(trace, result_wire.front());

  // Suffix at the central node (always fp32) on the decoded, merged batch.
  Tensor gathered(Shape{tiles.shape()[0], decoded[0].shape()[1],
                        decoded[0].shape()[2], decoded[0].shape()[3]});
  const std::int64_t per = decoded[0].numel();
  for (std::size_t t = 0; t < decoded.size(); ++t) {
    std::memcpy(gathered.data() + static_cast<std::int64_t>(t) * per,
                decoded[t].data(), static_cast<std::size_t>(per) * sizeof(float));
  }
  const Tensor merged = nn::TileSplit::merge(gathered, rows, cols);
  time_layers(trace, model, merged, pm.suffix_begin(), pm.suffix_end(), B,
              &suf_kinds, layers);
  const double suffix_s = time_call(trace, "nn.suffix", [&] {
    (void)model.forward_range(merged, pm.suffix_begin(), pm.suffix_end());
  });

  // Algorithm 3 for one job against the deployment's speeds.
  core::AllocRequest req;
  req.speeds = d.central().collector().speeds();
  req.tiles = B * T;
  const double alloc_s = time_call(trace, "core.allocate",
                                   [&] { (void)core::allocate_tiles(req); });

  const double per_tile = 1e6 / n_tiles;
  return {
      {"nn.prefix_ms_per_tile", prefix_s * 1e3 / static_cast<double>(node_tiles), "ms"},
      {"nn.prefix.conv_ms_per_tile", pre_kinds[Kind::kConv], "ms"},
      {"nn.prefix.other_ms_per_tile", pre_kinds[Kind::kOther], "ms"},
      {"nn.suffix_ms_per_image", suffix_s * 1e3 / B, "ms"},
      {"nn.suffix.conv_ms_per_image", suf_kinds[Kind::kConv], "ms"},
      {"nn.suffix.linear_ms_per_image", suf_kinds[Kind::kLinear], "ms"},
      {"nn.suffix.other_ms_per_image", suf_kinds[Kind::kOther], "ms"},
      {"compress.encode_us_per_tile", encode_s * per_tile, "us"},
      {"compress.decode_us_per_tile", decode_s * per_tile, "us"},
      {"compress.wire_bytes_per_tile", wire_bytes / n_tiles, "B"},
      {"compress.ratio", raw_bytes / wire_bytes, "x"},
      {"runtime.message_us_per_tile", message_s * per_tile, "us"},
      {"core.allocate_us_per_job", alloc_s * 1e6, "us"},
      {"net.frame_us_per_tile", frame_s * per_tile, "us"},
      {"net.rtt_p50_us", rtt_s * 1e6, "us"},
  };
}

Outcome per_layer(const Workload& w, std::uint64_t seed, double seconds,
                  const std::vector<Tensor>& pool,
                  const std::vector<std::string>& oracle, SpanRecorder& trace,
                  std::vector<std::pair<std::string, double>>* layers,
                  std::map<std::string, double>* extra) {
  Outcome o;
  Deployment d(w);
  DriveResult r = drive(d, w, pool, oracle, seed, seconds, &trace);
  count_window(r, &o);
  check_open_loop_lag(w, r, extra);

  // Stage numbers per job (a batch shares one InferStats) and per request.
  const std::int64_t tiles_per_image =
      d.model().grid.rows * d.model().grid.cols;
  std::vector<double> queue;
  double exact_traced = 0.0, exact_untraced = 0.0;
  for (const Completed& c : r.done) {
    if (!c.in_window) continue;
    if (c.exact) (c.traced ? exact_traced : exact_untraced) += 1.0;
    if (c.traced && c.ok) queue.push_back(c.queue_s * 1e3);
  }
  std::set<std::int64_t> jobs;
  std::vector<double> scatter, gather, suffix;
  double batch_images = 0.0, missing = 0.0, retried = 0.0;
  for (const runtime::InferStats& st : r.traced_stats) {
    if (!jobs.insert(st.image_id).second) continue;
    batch_images += static_cast<double>(st.tiles_total / tiles_per_image);
    scatter.push_back(st.stages.scatter_s * 1e3);
    gather.push_back(st.stages.gather_s * 1e3);
    suffix.push_back(st.stages.suffix_s * 1e3);
    missing += static_cast<double>(st.tiles_missing);
    retried += static_cast<double>(st.tiles_retried);
  }
  if (jobs.empty()) throw std::runtime_error("traced window delivered nothing");
  const double n_jobs = static_cast<double>(jobs.size());
  const double mean_batch = batch_images / n_jobs;
  double traced_s = 0.0;  // odd intervals are traced; the last may be short
  for (int k = 1; k * kToggleS < seconds; k += 2) {
    traced_s += std::min(kToggleS, seconds - k * kToggleS);
  }
  const Usage& u0 = r.marks.front();
  const Usage& u1 = r.marks.back();
  const auto rtt = d.metrics().snapshot().quantiles;
  if (const auto it = rtt.find("net.rtt_q"); it != rtt.end()) {
    (*extra)["heartbeat_rtt_p50_us"] = it->second.total.p50 * 1e6;
  }

  o.metrics = {
      {"runtime.queue_ms", median(queue), "ms"},
      {"runtime.batch_images", mean_batch, "count"},
      {"runtime.scatter_ms", median(scatter), "ms"},
      {"runtime.gather_ms", median(gather), "ms"},
      {"runtime.suffix_ms", median(suffix), "ms"},
      {"runtime.tiles_missing", missing, "count"},
      {"runtime.tiles_retried", retried, "count"},
      {"net.bytes_per_image",
       static_cast<double>(u1.wire_bytes - u0.wire_bytes) /
           std::max(1.0, exact_traced + exact_untraced),
       "B"},
      {"trace.coverage", r.coverage_num / std::max(r.coverage_den, 1e-9), "frac"},
      {"trace.overhead_frac",
       1.0 - (exact_traced / std::max(traced_s, 1e-9)) /
                 std::max(exact_untraced / (seconds - traced_s), 1e-9),
       "frac"},
  };
  const int batch = std::max(1, static_cast<int>(std::lround(mean_batch)));
  (*extra)["layer_pass_batch"] = batch;
  for (Metric& m : layer_pass(w, d, pool, batch, trace, layers)) {
    o.metrics.push_back(std::move(m));
  }
  return o;
}

// --- output --------------------------------------------------------------

/// What the numbers depend on besides the code: host, threads, kernels.
void write_env(obs::JsonWriter& j, const Workload& w, std::uint64_t seed,
               double seconds, bool traced, const std::string& commit) {
  j.begin_object();
  j.kv("commit", commit);
  j.kv("workload", w.name);
  j.kv("seed", static_cast<std::uint64_t>(seed));
  j.kv("seconds", seconds);
  j.kv("trace", traced);
  j.kv("hw_concurrency",
       static_cast<std::int64_t>(std::thread::hardware_concurrency()));
  const char* threads = std::getenv("ADCNN_THREADS");
  j.kv("adcnn_threads", threads ? threads : "unset");
  j.kv("int8_kernel", nn::int8_kernel_name());
  j.kv("link_time", w.sockets ? "measured: loopback TCP sockets"
                   : w.time_scale > 0 ? "modelled: 87.72 Mbps, 0.5 ms, slept"
                                      : "none: functional links");
  j.end_object();
}

void write_record(const std::string& path, const Workload& w,
                  std::uint64_t seed, double seconds, bool traced,
                  const std::string& commit, const Outcome& o, const std::map<std::string, double>& extra,
                  const std::vector<std::pair<std::string, double>>& layers) {
  obs::JsonWriter j;
  j.begin_object();
  j.key("env");
  write_env(j, w, seed, seconds, traced, commit);
  j.kv("mismatches", o.mismatches);
  j.key("metrics").begin_object();
  for (const Metric& m : o.metrics) j.kv(m.name, m.value);
  j.end_object();
  j.key("extra").begin_object();
  for (const auto& [k, v] : extra) j.kv(k, v);
  j.end_object();
  j.key("layers").begin_object();
  for (const auto& [k, v] : layers) j.kv(k, v);
  j.end_object();
  j.end_object();
  std::ofstream f(path, std::ios::binary);
  f << j.take() << "\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

/// Chrome trace-event JSON of every recorded span.
void write_spans(const std::string& path, const SpanRecorder& trace) {
  std::ofstream f(path, std::ios::binary);
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : trace.spans()) {
    obs::JsonWriter j;
    j.begin_object();
    j.kv("name", s.name);
    j.kv("cat", s.request >= 0 ? "request" : "layer");
    j.kv("ph", "X");
    j.kv("ts", s.begin_us);
    j.kv("dur", s.end_us - s.begin_us);
    j.kv("pid", 0);
    j.kv("tid", s.request >= 0 ? 1 : 2);
    if (s.request >= 0) j.key("args").begin_object().kv("request", s.request).end_object();
    j.end_object();
    f << (first ? "" : ",") << j.take();
    first = false;
  }
  f << "]}\n";
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::string result_json(const Outcome& o) {
  obs::JsonWriter j;
  j.begin_object();
  j.kv("correct", o.mismatches == 0);
  j.kv("attempted", o.attempted);
  j.kv("failed", o.failed);
  j.key("metrics").begin_object();
  for (const Metric& m : o.metrics) {
    j.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit).end_object();
  }
  j.end_object();
  j.end_object();
  return j.take();
}

int usage_error(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR] [--commit ID]\n"
               "       perfbench --role oracle|cold-start --workload NAME "
               "--seed N\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir, role = "run", commit = "unknown";
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace_flag = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") workload = v;
      else if (k == "--seed") seed = std::stoull(v);
      else if (k == "--seconds") seconds = std::stod(v);
      else if (k == "--trace") trace_flag = std::stoi(v);
      else if (k == "--out") out_dir = v;
      else if (k == "--commit") commit = v;
      else if (k == "--role") role = v;
      else return usage_error(("unknown flag " + k).c_str());
    } catch (const std::exception&) {
      return usage_error(("bad value for " + k).c_str());
    }
  }
  if (argc % 2 == 0) return usage_error("flags take one value each");
  const auto ws = all_workloads();
  const auto w = std::find_if(ws.begin(), ws.end(),
                              [&](const Workload& x) { return x.name == workload; });
  if (w == ws.end()) return usage_error("unknown --workload");
  if (role != "run" && role != "oracle" && role != "cold-start") {
    return usage_error("unknown --role");
  }
  if (role == "run" && (!(seconds > 0.0) || (trace_flag != 0 && trace_flag != 1))) {
    return usage_error("--seconds must be > 0 and --trace 0 or 1");
  }

  try {
    // A cold start needs only the first image (the pool is one stream, so
    // it is the same image), and makes no more before its clock starts.
    const std::vector<Tensor> pool = perfbench::input_pool(
        seed, role == "cold-start" ? 1 : kPoolSize,
        Shape{1, w->spec.channels, w->spec.image, w->spec.image});
    if (role == "oracle") return oracle_role(*w, pool);
    if (role == "cold-start") return cold_start_role(*w, pool);
    const std::vector<std::string> oracle = oracle_outputs(*w, seed);
    obs::JsonWriter env;
    write_env(env, *w, seed, seconds, trace_flag == 1, commit);
    std::printf("# env %s\n", env.take().c_str());

    std::map<std::string, double> extra;
    std::vector<std::pair<std::string, double>> layers;
    SpanRecorder trace(Clock::now());
    const Outcome o =
        trace_flag == 1
            ? per_layer(*w, seed, seconds, pool, oracle, trace, &layers, &extra)
            : end_to_end(*w, seed, seconds, pool, oracle, &extra);

    for (const auto& [k, v] : extra) std::printf("# %s %.6g\n", k.c_str(), v);
    for (const auto& [k, v] : layers) std::printf("# %s %.6g\n", k.c_str(), v);
    std::printf("# mismatches %lld\n", static_cast<long long>(o.mismatches));
    if (!out_dir.empty()) {
      const std::string stem = out_dir + "/" + w->name + "-seed" +
                               std::to_string(seed) + "-trace" +
                               std::to_string(trace_flag);
      write_record(stem + ".json", *w, seed, seconds, trace_flag == 1, commit,
                   o, extra, layers);
      if (trace_flag == 1) write_spans(stem + ".trace.json", trace);
    }
    std::printf("%s\n", result_json(o).c_str());
    std::fflush(stdout);
    return o.mismatches == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
