#include "workloads.hpp"

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "debug/serialize.hpp"
#include "flow/parser.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "tracesel/query_core.hpp"
#include "tracesel/session.hpp"

namespace perfbench {
namespace {

using tracesel::JobRequest;
using tracesel::QueryCore;
namespace flow = tracesel::flow;
namespace selection = tracesel::selection;
namespace service = tracesel::service;

template <typename T>
std::string join(const std::vector<T>& items) {
  std::ostringstream out;
  for (std::size_t i = 0; i < items.size(); ++i) out << (i ? "," : "") << items[i];
  return out.str();
}

double ms_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

struct Summary {
  double gain = 0;
  double coverage = 0;
  std::uint32_t used_width = 0;
};

bool same_answer(const Summary& a, const Summary& b) {
  return std::abs(a.gain - b.gain) <= 1e-9 &&
         std::abs(a.coverage - b.coverage) <= 1e-9 &&
         a.used_width == b.used_width;
}

/// Parse -> interleave -> gain-engine build, through the product's public
/// entry points.
std::unique_ptr<tracesel::Workload> build(SpanRecorder& spans,
                                          const std::string& spec_text,
                                          std::uint32_t instances) {
  flow::ParsedSpec parsed;
  {
    auto s = spans.scope("flow.parse");
    parsed = flow::parse_flow_spec(spec_text);
  }
  auto w = QueryCore::workload_from_spec(std::move(parsed));
  {
    auto s = spans.scope("flow.interleave");
    QueryCore::interleave(*w, instances, flow::InterleaveOptions{});
  }
  {
    auto s = spans.scope("selection.engine_build");
    QueryCore::ensure_selectors(*w);
  }
  return w;
}

/// Select -> report bytes on a built workload.
std::string select_report(SpanRecorder& spans, const tracesel::Workload& w,
                          std::uint32_t width, Summary* summary) {
  selection::SelectorConfig config;
  config.buffer_width = width;
  config.jobs = bench_jobs();
  selection::SelectionResult r;
  {
    auto s = spans.scope("selection.select");
    r = QueryCore::select(w, config, /*flow_constraint=*/false);
  }
  std::string report;
  {
    auto s = spans.scope("selection.report");
    report = selection::to_json(*w.catalog, r).dump(2);
  }
  if (summary != nullptr) *summary = {r.gain, r.coverage, r.used_width};
  return report;
}

/// One whole selection job: parse -> interleave -> gain-engine build ->
/// select -> report bytes.
std::string select_job(SpanRecorder& spans, const std::string& spec_text,
                       std::uint32_t instances, std::uint32_t width,
                       Summary* summary) {
  auto job = spans.scope("bench.job");
  auto w = build(spans, spec_text, instances);
  std::string report = select_report(spans, *w, width, summary);
  {
    auto s = spans.scope("flow.release");
    w.reset();
  }
  return report;
}

/// Records one batch job's latency and checks its report against the
/// first report seen for the same input (repeats must be byte-identical).
void record_job(Window& win, std::int64_t t0, const std::string& report,
                std::string& expected, double limit_ms) {
  const double ms = ms_between(t0, now_ns());
  ++win.attempted;
  if (expected.empty()) expected = report;
  if (report != expected) {
    ++win.failed;
    return;
  }
  win.job_ms.push_back(ms);
  if (ms <= limit_ms) ++win.within_limit;
}

/// A batch window's wall time from `start`, less the time its speed
/// probes took, so jobs_per_s counts only the jobs' time.
double batch_wall_s(std::int64_t start, const SpeedTrace& speed) {
  return ms_between(start + speed.probe_ns(), now_ns()) / 1e3;
}

SpecSource load_t2(const Options& o) {
  return split_spec(read_file(o.data_dir + "/t2.flow"));
}

// --- spec_build ----------------------------------------------------------

class SpecBuild final : public Workload {
 public:
  explicit SpecBuild(Options o) : o_(std::move(o)) {}

  void setup() override {
    source_ = load_t2(o_);
    flows_ = spec_build_flows(source_, o_.seed);
    spec_ = make_spec(source_, flows_);
  }

  /// The first job pays for fresh heap pages; its report is the one every
  /// later job must repeat.
  void warm_up() override {
    expected_ = select_job(spans, spec_, kInstances, kBuffer, &summary_);
  }

  /// The job is a serial build: one thread of graph work.
  Window run(double seconds) override {
    Window win;
    win.speed = SpeedTrace(ProbeKind::kGraph, 1);
    const double cpu0 = cpu_ms();
    const std::int64_t start = now_ns();
    do {
      const std::int64_t t0 = now_ns();
      Summary s;
      const std::string report =
          select_job(spans, spec_, kInstances, kBuffer, &s);
      record_job(win, t0, report, expected_, latency_limit_ms());
      summary_ = s;
      win.speed.probe_after(now_ns() - t0);
    } while (ms_between(start, now_ns()) < seconds * 1e3);
    win.wall_s = batch_wall_s(start, win.speed);
    win.cpu_ms = cpu_ms() - cpu0 - win.speed.probe_cpu_ms();
    jobs_ += win.attempted;
    return win;
  }

  std::uint64_t verify() override {
    SpanRecorder off;
    Summary ref;
    select_job(off, make_spec(source_, spec_build_flows(source_)), kInstances,
               kBuffer, &ref);
    return same_answer(summary_, ref) ? 0 : jobs_;
  }

  /// About twice the slowest job of a 15 s run on the reference machine.
  double latency_limit_ms() const override { return 1600; }

  std::vector<std::string> describe() const override {
    return {"input: t2.flow minus PIOW and NCUD, flows " + join(flows_) +
            ", 2 instances, buffer 32, jobs " + std::to_string(bench_jobs())};
  }

 private:
  static constexpr std::uint32_t kInstances = 2;
  static constexpr std::uint32_t kBuffer = 32;
  Options o_;
  SpecSource source_;
  std::vector<std::string> flows_;
  std::string spec_;
  std::string expected_;
  Summary summary_;
  std::uint64_t jobs_ = 0;
};

// --- wide_buffer ---------------------------------------------------------

class WideBuffer final : public Workload {
 public:
  explicit WideBuffer(Options o) : o_(std::move(o)) {}

  void setup() override {
    source_ = load_t2(o_);
    plan_ = wide_buffer_plan(source_, o_.seed);
    spec_ = make_spec(source_, plan_.flows);
  }

  void warm_up() override {
    Window discard;
    sweep(discard);
  }

  /// The jobs are the parallel Step 1/2 search: search work on every
  /// worker thread.
  Window run(double seconds) override {
    Window win;
    win.speed = SpeedTrace(ProbeKind::kSearch, bench_jobs());
    const double cpu0 = cpu_ms();
    const std::int64_t start = now_ns();
    do {  // whole sweeps only, so every width weighs the same
      const std::int64_t t0 = now_ns();
      sweep(win);
      win.speed.probe_after(now_ns() - t0);
    } while (ms_between(start, now_ns()) < seconds * 1e3);
    win.wall_s = batch_wall_s(start, win.speed);
    win.cpu_ms = cpu_ms() - cpu0 - win.speed.probe_cpu_ms();
    jobs_ += win.attempted;
    return win;
  }

  std::uint64_t verify() override {
    const std::string unpermuted = read_file(o_.data_dir + "/t2.flow");
    SpanRecorder off;
    std::uint64_t failed = 0;
    for (const auto& [width, got] : summary_) {
      Summary ref;
      select_job(off, unpermuted, 1, width, &ref);
      if (!same_answer(got, ref)) failed += jobs_ / plan_.widths.size();
    }
    return failed;
  }

  /// About twice the reference machine's p99 (200 ms).
  double latency_limit_ms() const override { return 400; }

  /// One build shared by the sweep's jobs and timed apart from them, so a
  /// job is one width's search and report.
  void sweep(Window& win) {
    const std::int64_t b0 = now_ns();
    std::unique_ptr<tracesel::Workload> w;
    {
      auto s = spans.scope("bench.build");
      w = build(spans, spec_, 1);
    }
    win.build_ms.push_back(ms_between(b0, now_ns()));
    for (std::uint32_t width : plan_.widths) {
      const std::int64_t t0 = now_ns();
      Summary s;
      std::string report;
      {
        auto job = spans.scope("bench.job");
        report = select_report(spans, *w, width, &s);
      }
      record_job(win, t0, report, expected_[width], latency_limit_ms());
      summary_[width] = s;
    }
    auto s = spans.scope("flow.release");
    w.reset();
  }

  std::vector<std::string> describe() const override {
    return {"input: t2.flow flows " + join(plan_.flows) +
            ", 1 instance, buffers " + join(plan_.widths) + ", jobs " +
            std::to_string(bench_jobs())};
  }

 private:
  Options o_;
  SpecSource source_;
  WidePlan plan_;
  std::string spec_;
  std::map<std::uint32_t, std::string> expected_;
  std::map<std::uint32_t, Summary> summary_;
  std::uint64_t jobs_ = 0;  ///< timed jobs, all widths
};

// --- debug_cases ---------------------------------------------------------

/// Capture faults at this rate, with captures deemed unusable past this
/// invalid-record fraction, make recapture retries happen in every sweep
/// (seeds 1-12: 57 retries over 60 case runs, 12 of them degraded).
constexpr double kDebugFaultRate = 0.1;
constexpr double kDebugUnusable = 0.02;

class DebugCases final : public Workload {
 public:
  explicit DebugCases(Options o) : o_(std::move(o)) {}

  void release() override { session_.reset(); }

  void setup() override {
    session_.reset();
    auto s = spans.scope("soc.design");
    session_ = std::make_unique<tracesel::Session>(tracesel::Session::t2());
    session_->jobs(bench_jobs());
  }

  /// One sweep per case-study seed, so every report the window checks
  /// against is already known.
  void warm_up() override {
    Window discard;
    for (int k = 0; k < kSeedsPerRun; ++k) sweep(discard);
  }

  /// A case study builds and walks graphs, in parts on every worker of
  /// the session.
  Window run(double seconds) override {
    Window win;
    win.speed = SpeedTrace(ProbeKind::kGraph, bench_jobs());
    const double cpu0 = cpu_ms();
    const std::int64_t start = now_ns();
    do {
      const std::int64_t t0 = now_ns();
      sweep(win);
      win.speed.probe_after(now_ns() - t0);
    } while (ms_between(start, now_ns()) < seconds * 1e3);
    win.wall_s = batch_wall_s(start, win.speed);
    win.cpu_ms = cpu_ms() - cpu0 - win.speed.probe_cpu_ms();
    jobs_ += win.attempted;
    return win;
  }

  /// A fresh session must reproduce every (case, seed) report: nothing a
  /// job leaves behind in the shared session may change a later answer.
  std::uint64_t verify() override {
    auto fresh = tracesel::Session::t2();
    fresh.jobs(bench_jobs());
    SpanRecorder off;
    std::uint64_t failed = 0;
    for (const auto& [key, report] : expected_)
      if (case_report(fresh, key.first, key.second, off) != report)
        failed += jobs_ / expected_.size();
    return failed;
  }

  /// About twice the reference machine's p99 (75 ms, case 5).
  double latency_limit_ms() const override { return 150; }

  /// The five cases with the next of the run's case-study seeds.
  void sweep(Window& win) {
    const std::uint64_t seed = case_seed(sweeps_++ % kSeedsPerRun);
    for (int c = 1; c <= kCases; ++c) {
      const std::int64_t t0 = now_ns();
      const std::string report = case_report(*session_, c, seed, spans);
      record_job(win, t0, report, expected_[{c, seed}], latency_limit_ms());
    }
  }

  std::vector<std::string> describe() const override {
    return {"input: T2 case studies 1-5, case-study seeds " +
            std::to_string(case_seed(0)) + "-" +
            std::to_string(case_seed(kSeedsPerRun - 1)) +
            ", capture-fault rate " + join(std::vector{kDebugFaultRate}) +
            ", jobs " + std::to_string(bench_jobs())};
  }

 private:
  static constexpr int kCases = 5;
  /// Sweeps take turns over this many case-study seeds, so a run's mean
  /// does not rest on one seed's faults and retries.
  static constexpr int kSeedsPerRun = 4;

  std::uint64_t case_seed(int k) const {
    return o_.seed * kSeedsPerRun + static_cast<std::uint64_t>(k);
  }

  std::string case_report(tracesel::Session& session, int c,
                          std::uint64_t seed, SpanRecorder& rec) const {
    auto job = rec.scope("bench.job", static_cast<std::uint32_t>(c));
    tracesel::debug::CaseStudyOptions opt;
    opt.seed = seed;
    opt.faults.rate = kDebugFaultRate;
    opt.faults.seed = seed;
    opt.unusable_threshold = kDebugUnusable;
    tracesel::debug::CaseStudyResult r;
    {
      auto s = rec.scope("debug.case_study", static_cast<std::uint32_t>(c));
      r = session.run_case_study(c, opt);
    }
    auto s = rec.scope("selection.report", static_cast<std::uint32_t>(c));
    tracesel::debug::WorkbenchResult wr;
    wr.selection = r.selection;
    wr.golden = r.golden;
    wr.buggy = r.buggy;
    wr.observation = r.observation;
    wr.report = r.report;
    wr.localization = r.localization;
    wr.fault_stats = r.fault_stats;
    wr.capture_attempts = r.capture_attempts;
    wr.capture_degraded = r.capture_degraded;
    wr.ranked_causes = r.ranked_causes;
    wr.robust_localization = r.robust_localization;
    return tracesel::debug::to_json(session.design().catalog(), wr).dump(2);
  }

  Options o_;
  std::unique_ptr<tracesel::Session> session_;
  std::map<std::pair<int, std::uint64_t>, std::string> expected_;
  std::uint64_t sweeps_ = 0;
  std::uint64_t jobs_ = 0;  ///< timed jobs, all cases
};

// --- daemon_mix ----------------------------------------------------------

/// Requests per second of the window. The plan's Poisson schedule at this
/// rate fixes which requests a window serves; they are released in bursts
/// of kDaemonBurst and sent closed-loop: each of the four callers sends
/// its next request when its reply arrives. An open loop at this rate left
/// the vCPUs idle between requests, and then every request paid the
/// shared host's wake-up latency: the median warm read took 0.45-0.91 ms
/// across seeds (README.md, "Why daemon_mix sends in closed-loop bursts").
constexpr int kDaemonRate = 250;
constexpr std::int64_t kDaemonBurst = 200'000'000;  // ns of schedule
/// Inside the cold jobs' latencies (0.5-50 ms), so goodput_rps moves with
/// the cold path's speed and with queueing, not only with failures.
constexpr int kDaemonLimitMs = 10;

class DaemonMixWorkload final : public Workload {
 public:
  explicit DaemonMixWorkload(Options o) : o_(std::move(o)) {}
  ~DaemonMixWorkload() override { stop(); }

  /// The old daemon's shutdown waits out its accept poll (up to 100 ms);
  /// that is no part of starting the next one.
  void release() override { stop(); }

  void setup() override {
    stop();
    source_ = load_t2(o_);
    DaemonMix mix;
    mix.rate_per_s = kDaemonRate;
    mix.seconds = o_.seconds;
    plan_ = daemon_plan(source_, mix, o_.seed);
    cold_reports_.assign(plan_.cold.size(), {});
    next_window_ns_ = 0;

    service::ServerOptions opt;
    opt.socket_path = o_.out_dir + "/perfbench-" +
                      std::to_string(::getpid()) + ".sock";
    opt.runners = bench_jobs();
    opt.max_queue = 1u << 16;  // never shed at the offered load
    shutdown_ = opt.shutdown;
    server_ = std::make_unique<service::Server>(std::move(opt));
    const auto started = server_->start();
    if (!started.ok())
      throw std::runtime_error("daemon start: " + started.error().to_string());
    serve_thread_ = std::thread([this] { server_->serve(); });
    clients_.clear();
    for (unsigned i = 0; i < bench_jobs(); ++i) {
      auto c = service::Client::connect(server_->socket_path());
      if (!c.ok())
        throw std::runtime_error("connect: " + c.error().to_string());
      clients_.push_back(std::move(c).value());
    }
    // Prime the hot set: one cold compute per hot request, spread over the
    // client connections, so later hot requests are result-cache reads.
    hot_reports_.assign(plan_.hot.size(), {});
    std::vector<std::thread> primers;
    std::atomic<bool> ok{true};
    for (std::size_t t = 0; t < clients_.size(); ++t)
      primers.emplace_back([&, t] {
        for (std::size_t j = t; j < plan_.hot.size(); j += clients_.size()) {
          auto out = clients_[t].submit(request(plan_.hot[j]));
          if (!out.ok() || !out.value().ok()) ok = false;
          else hot_reports_[j] = out.value().report_json;
        }
      });
    for (auto& p : primers) p.join();
    if (!ok) throw std::runtime_error("daemon_mix: priming the hot set failed");
    // Stats after priming, so hit ratios exclude set-up traffic.
    auto stats = clients_.front().stats();
    primed_stats_ = stats.ok() ? stats.value() : std::string();
  }

  Window run(double seconds) override {
    // This window serves the requests scheduled in [next_window_ns_, end),
    // one burst per kDaemonBurst of schedule. A burst goes out closed-loop
    // over the client connections; then the main thread probes the host's
    // speed for a third of the burst's time, with graph work (a cold job's)
    // on as many threads as a burst keeps busy, and waits for the next
    // burst.
    const std::int64_t first = next_window_ns_;
    const std::int64_t end = first + static_cast<std::int64_t>(seconds * 1e9);
    next_window_ns_ = end;
    Window win;
    win.speed = SpeedTrace(ProbeKind::kGraph, bench_jobs());
    const double cpu0 = cpu_ms();
    const std::int64_t t0 = now_ns();
    std::int64_t busy_ns = 0;
    std::size_t i = 0;
    while (i < plan_.arrivals.size() && plan_.arrivals[i].due_ns < first) ++i;
    for (std::int64_t from = first; from < end; from += kDaemonBurst) {
      const std::int64_t to = std::min(end, from + kDaemonBurst);
      std::size_t stop = i;
      while (stop < plan_.arrivals.size() && plan_.arrivals[stop].due_ns < to)
        ++stop;
      const std::int64_t b0 = now_ns();
      burst(i, stop, win);
      const std::int64_t burst_ns = now_ns() - b0;
      busy_ns += burst_ns;
      win.speed.probe_after(burst_ns);
      i = stop;
      const std::int64_t next = t0 + (to - first);
      if (next > now_ns())
        std::this_thread::sleep_for(std::chrono::nanoseconds(next - now_ns()));
    }
    win.wall_s = static_cast<double>(busy_ns) / 1e9;
    win.cpu_ms = cpu_ms() - cpu0 - win.speed.probe_cpu_ms();
    return win;
  }

  /// Every report the daemon served must equal an in-process
  /// QueryCore::run of the same request.
  std::uint64_t verify() override {
    std::atomic<std::uint64_t> failed{0};
    std::vector<std::uint64_t> hot_uses(plan_.hot.size(), 0);
    for (const Arrival& a : plan_.arrivals)
      if (a.hot && a.due_ns < next_window_ns_) ++hot_uses[a.index];
    std::atomic<std::size_t> next{0};
    const std::size_t total = plan_.hot.size() + plan_.cold.size();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < bench_jobs(); ++t)
      workers.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= total) return;
          const bool hot = i < plan_.hot.size();
          const std::size_t j = hot ? i : i - plan_.hot.size();
          const std::string& served = hot ? hot_reports_[j] : cold_reports_[j];
          if (!hot && served.empty()) continue;  // failed or not yet due
          if (reference(hot ? plan_.hot[j] : plan_.cold[j]) != served)
            failed += hot ? std::max<std::uint64_t>(1, hot_uses[j]) : 1;
        }
      });
    for (auto& w : workers) w.join();
    return failed;
  }

  double latency_limit_ms() const override { return kDaemonLimitMs; }

  std::map<std::string, double> service_metrics() override {
    auto stats = clients_.front().stats();
    auto tele = clients_.front().telemetry();
    const std::string s = stats.ok() ? stats.value() : std::string();
    const std::string t = tele.ok() ? tele.value() : std::string();
    const auto delta = [&](const char* key) {
      return json_number(s, key).value_or(0) -
             json_number(primed_stats_, key).value_or(0);
    };
    const auto ratio = [&](const char* hits, const char* misses) {
      const double h = delta(hits), m = delta(misses);
      return h + m > 0 ? h / (h + m) : 0.0;
    };
    return {
        {"tracesel.result_hit_ratio",
         ratio("store.result.hits", "store.result.misses")},
        {"tracesel.workload_hit_ratio",
         ratio("store.workload.hits", "store.workload.misses")},
        {"tracesel.result_entries",
         json_number(s, "store.result.entries").value_or(0)},
        {"service.utilization", json_number(t, "utilization").value_or(0)},
        {"service.shed", delta("jobs.rejected")},
        {"service.attached", delta("jobs.attached")},
    };
  }

  std::vector<std::string> describe() const override {
    return {"input: " + std::to_string(plan_.arrivals.size()) +
            " requests, " + std::to_string(kDaemonRate) +
            "/s released in closed-loop bursts, " +
            std::to_string(plan_.hot.size()) + " hot requests, " +
            std::to_string(plan_.cold.size()) + " cold, runners " +
            std::to_string(bench_jobs()) + ", limit " +
            std::to_string(kDaemonLimitMs) + " ms"};
  }

 private:
  /// Sends plan_.arrivals[begin, stop) over the client connections, each
  /// connection sending its next request when its reply arrives.
  void burst(std::size_t begin, std::size_t stop, Window& win) {
    struct Done {
      bool ok = false;
      double ms = 0;
    };
    std::vector<Done> done(stop - begin);
    std::atomic<std::size_t> next{begin};
    std::vector<std::thread> senders;
    for (std::size_t t = 0; t < clients_.size(); ++t)
      senders.emplace_back([&, t] {
        for (std::size_t i; (i = next.fetch_add(1)) < stop;) {
          const Arrival& a = plan_.arrivals[i];
          const DaemonRequest& req =
              a.hot ? plan_.hot[a.index] : plan_.cold[a.index];
          auto s = spans.scope("service.request", a.hot ? 1 : 0);
          const std::int64_t sent = now_ns();
          auto out = clients_[t].submit(request(req));
          Done& d = done[i - begin];
          d.ms = ms_between(sent, now_ns());
          if (!out.ok() || !out.value().ok()) continue;
          const std::string& report = out.value().report_json;
          if (a.hot) {
            d.ok = report == hot_reports_[a.index];
          } else {
            d.ok = !report.empty();
            cold_reports_[a.index] = report;
          }
        }
      });
    for (auto& s : senders) s.join();
    for (std::size_t i = begin; i < stop; ++i) {
      const Done& d = done[i - begin];
      ++win.attempted;
      if (!d.ok) {
        ++win.failed;
        continue;
      }
      win.job_ms.push_back(d.ms);
      (plan_.arrivals[i].hot ? win.warm_ms : win.cold_ms).push_back(d.ms);
      if (d.ms <= kDaemonLimitMs) ++win.within_limit;
    }
  }

  static JobRequest request(const DaemonRequest& r) {
    JobRequest req;
    req.spec.clear();
    req.spec_text = r.spec_text;
    req.instances = 1;
    req.buffer_width = r.buffer_width;
    return req;
  }

  static std::string reference(const DaemonRequest& r) {
    auto out = QueryCore::run(request(r), nullptr, {});
    if (!out.ok()) return "error: " + out.error().to_string();
    return selection::to_json(*out.value().workload->catalog,
                              *out.value().result)
        .dump(2);
  }

  void stop() {
    if (!server_) return;
    clients_.clear();
    shutdown_.cancel();
    if (serve_thread_.joinable()) serve_thread_.join();
    server_.reset();
  }

  Options o_;
  SpecSource source_;
  DaemonPlan plan_;
  std::vector<std::string> hot_reports_;
  std::vector<std::string> cold_reports_;
  std::int64_t next_window_ns_ = 0;
  std::string primed_stats_;
  tracesel::util::CancelToken shutdown_;
  std::unique_ptr<service::Server> server_;
  std::thread serve_thread_;
  std::vector<service::Client> clients_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "spec_build")
    return std::make_unique<SpecBuild>(options);
  if (options.workload == "wide_buffer")
    return std::make_unique<WideBuffer>(options);
  if (options.workload == "debug_cases")
    return std::make_unique<DebugCases>(options);
  if (options.workload == "daemon_mix")
    return std::make_unique<DaemonMixWorkload>(options);
  return nullptr;
}

bool preflight(const std::string& data_dir, std::string* message) {
  SpanRecorder off;
  Summary s;
  select_job(off, read_file(data_dir + "/fig2.flow"), 2, 2, &s);
  const bool ok = std::abs(s.gain - 1.073) < 5e-4;
  if (message != nullptr)
    *message = "preflight fig2 @2 buffer 2: I = " + std::to_string(s.gain) +
               (ok ? " (paper 1.073)" : " != paper 1.073");
  return ok;
}

}  // namespace perfbench
