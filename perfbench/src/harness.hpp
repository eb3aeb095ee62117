#pragma once
// perfbench harness helpers: sample statistics with the percentile rule,
// seeded input generation from data/t2.flow, the benchmark's own in-memory
// span recorder, and the machine stamp. Everything here is independent of
// the workloads so tests/harness_test.cpp can check it in isolation.

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- sample statistics -------------------------------------------------

/// Arithmetic mean; 0 when empty.
double mean(const std::vector<double>& samples);

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> samples);

/// Nearest-rank percentile `p` in (0, 100]: the smallest sample with at
/// least p% of the samples at or below it. 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Number of samples strictly beyond the nearest-rank percentile `p`.
std::size_t samples_beyond(std::size_t n, double p);

/// The percentile rule: the highest of {90, 99, 99.9} that has at least
/// ten samples beyond it, or nullopt when even p90 has fewer.
std::optional<double> tail_percentile(std::size_t n);


// --- seeded inputs -----------------------------------------------------

/// A flow spec split into its message declarations and its flow blocks, so
/// generators can re-emit any subset of flows in any order with every
/// message of the source still declared.
struct SpecSource {
  std::vector<std::string> declarations;  ///< `message` / `subgroup` lines
  struct FlowBlock {
    std::string name;
    std::string text;  ///< `flow NAME { ... }` including the closing brace
  };
  std::vector<FlowBlock> flows;

  std::vector<std::string> flow_names() const;
};

/// Splits spec text; throws std::runtime_error on an unterminated flow.
SpecSource split_spec(std::string_view text);

/// Re-emits `source` with exactly the named flows, in the given order.
/// Throws std::out_of_range for an unknown flow name.
std::string make_spec(const SpecSource& source,
                      const std::vector<std::string>& flow_names);

/// Reads a whole file; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

/// spec_build input: every flow of `source` except PIOW and NCUD, in
/// declaration order (the reference) or in an order the seed permutes.
std::vector<std::string> spec_build_flows(const SpecSource& source);
std::vector<std::string> spec_build_flows(const SpecSource& source,
                                          std::uint64_t seed);

/// wide_buffer input: every flow in a seed-permuted order, and the sweep's
/// buffer widths in a seed-permuted order.
struct WidePlan {
  std::vector<std::string> flows;
  std::vector<std::uint32_t> widths;
};
inline constexpr std::uint32_t kWideWidths[] = {64, 96, 128, 160};
WidePlan wide_buffer_plan(const SpecSource& source, std::uint64_t seed);

/// daemon_mix input: a hot set of requests, fresh cold requests, and the
/// Poisson schedule that interleaves them. The workload sends each slice
/// of the schedule as one closed-loop burst.
struct DaemonRequest {
  std::string spec_text;
  std::uint32_t buffer_width = 0;
};
struct Arrival {
  std::int64_t due_ns = 0;  ///< offset from the start of the schedule
  bool hot = false;
  std::size_t index = 0;  ///< into DaemonPlan::hot or DaemonPlan::cold
};
struct DaemonPlan {
  std::vector<DaemonRequest> hot;
  std::vector<DaemonRequest> cold;
  std::vector<Arrival> arrivals;
};
struct DaemonMix {
  double rate_per_s = 0;  ///< requests per second of schedule
  double seconds = 0;     ///< schedule length
};
inline constexpr double kHotFraction = 0.75;  ///< arrivals from the hot set
inline constexpr std::size_t kHotCount = 16;
/// Cold requests never repeat one another or the hot set: each is a
/// distinct (flow subset, flow order, buffer width) triple.
DaemonPlan daemon_plan(const SpecSource& source, const DaemonMix& mix,
                       std::uint64_t seed);

// --- spans -------------------------------------------------------------

/// The benchmark's own spans around its calls into the product. Kept in
/// memory while the workload runs and written out at the end. Disabled
/// recorders cost one branch per scope. When the product's obs layer is
/// on, each scope also collects the obs spans that completed on its
/// thread while it was open, so its self time (duration minus the time
/// covered by child spans, own or obs) is exact.
class SpanRecorder {
 public:
  struct Record {
    const char* name = nullptr;  ///< static storage duration required
    std::int64_t start_ns = 0;   ///< steady clock
    std::int64_t dur_ns = 0;
    std::int64_t self_ns = 0;
    std::uint32_t thread = 0;
    std::uint32_t tag = 0;  ///< caller-defined (case id, request class)
  };

  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name, std::uint32_t tag);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_ = nullptr;
    const char* name_ = nullptr;
    std::uint32_t tag_ = 0;
    std::int64_t start_ns_ = 0;
    std::size_t obs_mark_ = 0;
    Scope* parent_ = nullptr;  ///< enclosing scope on this thread
    std::vector<std::pair<std::int64_t, std::int64_t>> children_;
  };

  void set_enabled(bool on) { enabled_ = on; }
  Scope scope(const char* name, std::uint32_t tag = 0) {
    return Scope(enabled_ ? this : nullptr, name, tag);
  }

  std::vector<Record> records() const;

  /// Chrome trace-event JSON of the recorded spans (one lane).
  std::string chrome_json() const;

 private:
  void add(Record r);

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

std::int64_t now_ns();

/// Self time of every obs span, keyed by name, summed: duration minus the
/// union of its same-thread children. Used for the per-layer self times.
struct NamedTotal {
  std::string name;
  double total_ms = 0;
};
std::vector<NamedTotal> obs_self_times();
/// Summed duration of every obs span, keyed by name.
std::vector<NamedTotal> obs_span_totals();

/// Union length of half-open [start, end) intervals.
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv);

/// The number stored under top-level key `key` of a flat JSON object as
/// text (the daemon's stats and telemetry frames); nullopt when absent or
/// not a number.
std::optional<double> json_number(std::string_view json, std::string_view key);

// --- host speed --------------------------------------------------------

/// The shared host runs the benchmark's vCPUs at a speed that drifts by
/// tens of percent from one minute to the next. A probe of fixed work,
/// compiled from the benchmark's own sources so that no change to the
/// product moves it, runs right after every job and measures that speed.
/// A run's mean job time divided by its speed factor is its job time at
/// the reference speed: a change to the product moves it, the host's drift
/// mostly does not. Each workload probes with the kind of work its jobs do
/// and on as many threads as they keep busy (README.md, Host speed).
enum class ProbeKind {
  kGraph,   ///< intern keys, grow adjacency lists, chase edges: the builds
  kSearch,  ///< enumerate subsets of a small gain table: the Step 1/2 search
};

/// Runs the probe work of `kind` once on each of `threads` threads at the
/// same time and returns the mean per-thread time in ms.
double probe_ms(ProbeKind kind, unsigned threads);

/// The speed probes of one window or set-up phase.
class SpeedTrace {
 public:
  SpeedTrace(ProbeKind kind, unsigned threads)
      : kind_(kind), threads_(threads) {}

  /// Probes right after `work_ns` of jobs, for a third of that time and at
  /// least once, so the samples follow the host over the whole window.
  void probe_after(std::int64_t work_ns);
  /// Probes once.
  void probe();

  /// Mean probe time over the probe's time at the reference speed: 1 at
  /// that speed, above 1 when the host runs slower; 1 without samples.
  double factor() const;
  /// Wall time spent probing.
  std::int64_t probe_ns() const { return probe_ns_; }
  /// CPU time the probes' threads spent.
  double probe_cpu_ms() const;

 private:
  ProbeKind kind_;
  unsigned threads_;
  std::vector<double> ms_;
  std::int64_t probe_ns_ = 0;
};

/// Per-thread probe time at the reference speed: about what the probe took
/// on the reference machine when the benchmark was defined.
double probe_reference_ms(ProbeKind kind);

// --- machine stamp -----------------------------------------------------

struct MachineStamp {
  unsigned nproc = 0;
  std::string compiler;
  std::string build_type;
  std::string rev;
  bool optimized = false;
  std::string sanitizer;  ///< "none", "address", "thread"

  /// Unoptimized or sanitized builds must never be recorded as a baseline.
  bool baseline_ok() const { return optimized && sanitizer == "none"; }
  std::string to_string() const;
};

MachineStamp machine_stamp(std::string rev);

/// Peak resident set of this process in MB (getrusage).
double peak_rss_mb();
/// User + system CPU of this process in ms.
double cpu_ms();

/// Batch workloads and the daemon use one worker per hardware thread,
/// capped at four.
unsigned bench_jobs();

}  // namespace perfbench
