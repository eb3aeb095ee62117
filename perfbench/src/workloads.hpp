#pragma once
// The four perfbench workloads (README.md explains why each exists). Every
// workload runs in its own process: set-up (timed several times), an
// untimed warm-up, one timed window of jobs, then the output checks.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = "data";
  std::string out_dir = ".";
  std::string rev;
};

/// One timed window of jobs.
struct Window {
  std::vector<double> job_ms;  ///< per completed job
  double wall_s = 0;  ///< the window less its probes (daemon: its bursts)
  double cpu_ms = 0;  ///< process CPU spent in the window, less the probes'
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;    ///< errors and wrong outputs
  std::uint64_t within_limit = 0;
  /// daemon_mix only: split by request class.
  std::vector<double> warm_ms, cold_ms;
  /// wide_buffer only: each sweep's shared build, not part of any job.
  std::vector<double> build_ms;
  /// The host's speed through the window.
  SpeedTrace speed{ProbeKind::kGraph, 1};
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds everything the jobs need, replacing any earlier set-up. This
  /// is what setup_s times.
  virtual void setup() = 0;
  /// Tears down the previous set-up before the next one is timed.
  virtual void release() {}
  /// Untimed work between set-up and the window (a warm-up job or sweep).
  virtual void warm_up() {}
  /// Runs jobs for about `seconds`; every job's output is checked against
  /// the window's first output of the same input.
  virtual Window run(double seconds) = 0;
  /// Reference checks after the window (unpermuted order, in-process
  /// recompute); returns the number of mismatching jobs.
  virtual std::uint64_t verify() = 0;
  /// A job slower than this counts as a miss in goodput_rps.
  virtual double latency_limit_ms() const = 0;
  /// daemon_mix only: tracesel/service numbers from the daemon's stats and
  /// telemetry verbs, counted since set-up ended.
  virtual std::map<std::string, double> service_metrics() { return {}; }
  /// Human-readable lines describing the inputs.
  virtual std::vector<std::string> describe() const = 0;

  SpanRecorder spans;
};

std::unique_ptr<Workload> make_workload(const Options& options);

/// The pre-flight: fig2 at 2 instances into a 2-bit buffer must give the
/// paper's I = 1.073. Returns false (with a message) on mismatch.
bool preflight(const std::string& data_dir, std::string* message);

}  // namespace perfbench
