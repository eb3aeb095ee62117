// perfbench: end-to-end and per-layer performance of tracesel jobs.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--data-dir DIR] [--out-dir DIR] [--rev REV]
//
// --trace 0 measures the end-to-end metrics with every span off. --trace 1
// spends the first half of the window untraced and the second half with the
// benchmark's own spans and the product's obs layer on, and reports the
// per-layer metrics from the traced half. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// README.md lists the workloads and metrics.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>

#include "util/atomic_file.hpp"
#include "util/json.hpp"
#include "util/obs.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace obs = tracesel::obs;

int usage() {
  std::cerr << "usage: perfbench --workload "
               "spec_build|wide_buffer|debug_cases|daemon_mix --seed N "
               "--seconds S --trace 0|1 [--data-dir DIR] [--out-dir DIR] "
               "[--rev REV]\n";
  return 1;
}

std::string number(double v) {
  std::ostringstream out;
  out.precision(10);
  out << v;
  return out.str();
}

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  using tracesel::util::Json;
  Json m = Json::object();
  for (const Metric& metric : metrics) {
    Json v = Json::object();
    v.set("value", Json::number(metric.value));
    v.set("unit", Json::string(metric.unit));
    m.set(metric.name, std::move(v));
  }
  Json out = Json::object();
  out.set("correct", Json::boolean(failed == 0));
  out.set("attempted", Json::number(attempted));
  out.set("failed", Json::number(failed));
  out.set("metrics", std::move(m));
  return out.dump();
}

/// The window's mean job time at the reference host speed.
double mean_at_reference_speed(const Window& win) {
  return mean(win.job_ms) / win.speed.factor();
}

void print_metric(const Metric& m) {
  std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
            << '\n';
}

/// The traced half's per-layer metrics. Own-span times are means per call;
/// obs times and counts are totals per computing job.
std::vector<Metric> layer_metrics(Workload& w, const Window& untraced,
                                  const Window& traced,
                                  std::int64_t traced_from_ns,
                                  std::uint64_t computing_jobs) {
  std::vector<Metric> out;
  // Set-up spans are kept only for soc.design_ms.
  const auto records = w.spans.records();
  const auto own = [&](const char* name, int tag = -1, bool setup = false) {
    std::vector<double> ms;
    for (const auto& r : records)
      if (std::strcmp(r.name, name) == 0 &&
          (tag < 0 || r.tag == static_cast<std::uint32_t>(tag)) &&
          (r.start_ns >= traced_from_ns) != setup)
        ms.push_back(static_cast<double>(r.dur_ns) / 1e6);
    return ms;
  };
  std::map<std::string, NamedTotal> spans;
  for (NamedTotal& t : obs_span_totals()) spans[t.name] = t;
  const double jobs = std::max<double>(1, static_cast<double>(computing_jobs));
  const auto per_job = [&](std::initializer_list<const char*> names) {
    double ms = 0;
    for (const char* n : names)
      if (auto it = spans.find(n); it != spans.end()) ms += it->second.total_ms;
    return ms / jobs;
  };
  const auto own_or_obs = [&](const char* own_name, const char* obs_name) {
    const auto ms = own(own_name);
    return ms.empty() ? per_job({obs_name}) : mean(ms);
  };
  const auto& reg = obs::registry();
  const auto counter = [&](const char* name) {
    return static_cast<double>(reg.counter_value(name));
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };

  out.push_back({"flow.parse_ms", own_or_obs("flow.parse", "flow.parse"), "ms"});
  out.push_back({"flow.interleave_ms",
                 own_or_obs("flow.interleave", "interleave.build"), "ms"});
  out.push_back({"flow.interleave.graph_ms", per_job({"interleave.graph"}), "ms"});
  out.push_back(
      {"flow.interleave.weights_ms", per_job({"interleave.weights"}), "ms"});
  out.push_back({"flow.orbit_nodes", counter("interleave.nodes") / jobs, "count"});
  out.push_back({"flow.edges", counter("interleave.edges") / jobs, "count"});
  out.push_back({"flow.interner_probes",
                 counter("interleave.interner.probes") / jobs, "count"});
  out.push_back({"flow.kernel_compile_ms", per_job({"kernel.compile"}), "ms"});
  out.push_back({"flow.kernel_table_bytes",
                 static_cast<double>(reg.gauge_value("kernel.table_bytes")),
                 "bytes"});
  out.push_back({"selection.engine_build_ms",
                 own_or_obs("selection.engine_build",
                            "selection.gain.engine_build"),
                 "ms"});
  out.push_back({"selection.select_ms",
                 own_or_obs("selection.select", "selection.select"), "ms"});
  out.push_back({"selection.search_ms",
                 per_job({"selection.parallel.search",
                          "selection.step1.enumerate", "selection.step2.score",
                          "selection.search.greedy", "selection.search.knapsack",
                          "selection.search.beam"}),
                 "ms"});
  out.push_back(
      {"selection.packing_ms", per_job({"selection.step3.packing"}), "ms"});
  out.push_back({"selection.combinations",
                 counter("selection.combinations") / jobs, "count"});
  out.push_back(
      {"selection.gain_evals", counter("selection.gain.evals") / jobs, "count"});
  out.push_back({"selection.memo_hit_ratio",
                 ratio(counter("selection.memo.hits"),
                       counter("selection.memo.hits") +
                           counter("selection.memo.misses")),
                 "ratio"});
  out.push_back({"selection.report_ms", mean(own("selection.report")), "ms"});
  out.push_back({"soc.design_ms", mean(own("soc.design", -1, true)), "ms"});
  out.push_back({"debug.case_study_ms", mean(own("debug.case_study")), "ms"});
  for (int c = 1; c <= 5; ++c)
    out.push_back({"debug.case" + std::to_string(c) + "_ms",
                   mean(own("debug.case_study", c)), "ms"});
  out.push_back({"debug.localize_ms", per_job({"debug.localize"}), "ms"});
  out.push_back({"debug.simulate_ms", per_job({"debug.simulate"}), "ms"});
  out.push_back({"debug.capture_ms", per_job({"debug.capture"}), "ms"});
  out.push_back({"debug.root_cause_ms", per_job({"debug.root_cause"}), "ms"});
  out.push_back({"debug.recapture_ratio",
                 ratio(counter("debug.capture.retries"),
                       counter("debug.capture.attempts")),
                 "ratio"});

  const auto service = w.service_metrics();
  const auto svc = [&](const char* name) {
    const auto it = service.find(name);
    return it == service.end() ? 0.0 : it->second;
  };
  out.push_back({"tracesel.result_hit_ratio",
                 svc("tracesel.result_hit_ratio"), "ratio"});
  out.push_back({"tracesel.workload_hit_ratio",
                 svc("tracesel.workload_hit_ratio"), "ratio"});
  // The stats verb does not carry kernel-cache counts; obs does.
  out.push_back({"tracesel.kernel_hit_ratio",
                 ratio(counter("store.kernel.hits"),
                       counter("store.kernel.hits") +
                           counter("store.kernel.misses")),
                 "ratio"});
  out.push_back(
      {"tracesel.result_entries", svc("tracesel.result_entries"), "count"});
  out.push_back({"service.warm_ms_p50", median(traced.warm_ms), "ms"});
  out.push_back({"service.cold_ms_p50", median(traced.cold_ms), "ms"});
  out.push_back({"service.queue_peak_depth",
                 static_cast<double>(reg.gauge_value("svc.queue.peak_depth")),
                 "count"});
  out.push_back({"service.utilization", svc("service.utilization"), "ratio"});
  out.push_back({"service.shed", svc("service.shed"), "count"});
  out.push_back({"service.attached", svc("service.attached"), "count"});

  out.push_back({"bench.cpu_ms_per_job",
                 untraced.cpu_ms /
                     std::max<double>(1, static_cast<double>(untraced.attempted)),
                 "ms"});
  const double base = mean_at_reference_speed(untraced);
  out.push_back(
      {"bench.trace_overhead_pct",
       base > 0 ? (mean_at_reference_speed(traced) - base) / base * 100 : 0,
       "%"});

  // Self time per layer: own spans by their name's layer, obs spans by
  // their subsystem prefix.
  std::map<std::string, double> self_ms;
  const auto layer_of = [](std::string_view name) -> std::string {
    const std::string_view head = name.substr(0, name.find('.'));
    if (head == "flow" || head == "parse" || head == "interleave" ||
        head == "kernel")
      return "flow";
    if (head == "selection") return "selection";
    if (head == "soc" || head == "debug") return "soc_debug";
    if (head == "session" || head == "store" || head == "tracesel")
      return "tracesel";
    if (head == "svc" || head == "service") return "service";
    return "bench";
  };
  for (const auto& r : records)
    if (r.start_ns >= traced_from_ns)
      self_ms[layer_of(r.name)] += static_cast<double>(r.self_ns) / 1e6;
  for (const NamedTotal& t : obs_self_times())
    self_ms[layer_of(t.name)] += t.total_ms;
  const double attempted =
      std::max<double>(1, static_cast<double>(traced.attempted));
  for (const char* layer :
       {"flow", "selection", "soc_debug", "tracesel", "service", "bench"})
    out.push_back({std::string("layer.") + layer + ".self_ms",
                   self_ms[layer] / attempted, "ms"});
  return out;
}

bool write_text(const std::string& path, const std::string& text) {
  return tracesel::util::atomic_write_file(path, text).ok();
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if ((v = next()) == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atof(v);
    } else if (arg == "--trace") {
      trace = std::atoi(v);
    } else if (arg == "--data-dir") {
      o.data_dir = v;
    } else if (arg == "--out-dir") {
      o.out_dir = v;
    } else if (arg == "--rev") {
      o.rev = v;
    } else {
      return usage();
    }
  }
  if ((trace != 0 && trace != 1) || o.seconds <= 0) return usage();
  o.trace = trace == 1;

  const MachineStamp stamp = machine_stamp(o.rev);
  std::cout << "perfbench workload=" << o.workload << " seed=" << o.seed
            << " seconds=" << o.seconds << " trace=" << trace << '\n'
            << "machine: " << stamp.to_string() << '\n';
  if (!stamp.baseline_ok()) {
    std::cerr << "perfbench: unoptimized or sanitized build; refusing to "
                 "report numbers that could be taken as a baseline\n";
    return 3;
  }
  auto w = make_workload(o);
  if (!w) return usage();
  std::filesystem::create_directories(o.out_dir);

  try {
    // Set-up, repeated for at least kSetups runs and kSetupBudgetS of
    // set-up time. Set-ups shorter than kBatchS are grouped into batches of
    // about kBatchS with one sample (the batch median) per batch, so a
    // microsecond set-up yields hundreds of samples, not millions. A speed
    // probe (one thread of graph work, like the set-ups' parsing and
    // building) follows each batch. setup_s is the median sample at the
    // reference speed; the last set-up stays. Warm-up and the pre-flight
    // come after, untimed.
    constexpr std::size_t kSetups = 5;
    constexpr double kSetupBudgetS = 3.0, kBatchS = 10e-3;
    std::vector<double> setup_s, batch;
    SpeedTrace setup_speed(ProbeKind::kGraph, 1);
    std::uint64_t setups = 0;
    double setup_total_s = 0;
    w->spans.set_enabled(o.trace);  // soc.design_ms comes from set-up
    while (setup_s.size() < kSetups || setup_total_s < kSetupBudgetS) {
      batch.clear();
      double batch_s = 0;
      do {
        w->release();
        const std::int64_t t0 = now_ns();
        w->setup();
        batch.push_back(static_cast<double>(now_ns() - t0) / 1e9);
        batch_s += batch.back();
      } while (batch_s < kBatchS);
      setup_s.push_back(median(batch));
      setup_total_s += batch_s;
      setups += batch.size();
      setup_speed.probe_after(static_cast<std::int64_t>(batch_s * 1e9));
    }
    const double setup_ref_s = median(setup_s) / setup_speed.factor();
    w->warm_up();
    std::uint64_t failed = 0;
    std::string preflight_msg;
    if (!preflight(o.data_dir, &preflight_msg)) ++failed;
    for (const std::string& line : w->describe()) std::cout << line << '\n';
    std::cout << preflight_msg << '\n'
              << "set-up: " << setups << " runs, median "
              << number(median(setup_s)) << " s wall, speed factor "
              << number(setup_speed.factor()) << '\n';

    std::vector<Metric> metrics;
    Window main_win;
    double rss_mb = 0;  // before verify(), which builds references
    w->spans.set_enabled(false);
    if (!o.trace) {
      main_win = w->run(o.seconds);
      rss_mb = peak_rss_mb();
    } else {
      const Window untraced = w->run(o.seconds / 2);
      obs::reset();
      obs::set_enabled(true);
      w->spans.set_enabled(true);
      const std::int64_t traced_from = now_ns();
      main_win = w->run(o.seconds / 2);
      w->spans.set_enabled(false);
      obs::set_enabled(false);
      const std::uint64_t computing =
          o.workload == "daemon_mix" ? main_win.cold_ms.size()
                                     : main_win.attempted;
      metrics = layer_metrics(*w, untraced, main_win, traced_from, computing);
      main_win.attempted += untraced.attempted;
      main_win.failed += untraced.failed;
      const std::string stem =
          o.out_dir + "/trace-" + o.workload + "-s" + std::to_string(o.seed);
      if (!write_text(stem + ".bench.json", w->spans.chrome_json()) ||
          !obs::write_chrome_trace(stem + ".obs.json") ||
          !obs::write_metrics(stem + ".metrics.json"))
        std::cerr << "perfbench: cannot write traces under " << o.out_dir
                  << '\n';
      else
        std::cout << "traces: " << stem << ".{bench,obs,metrics}.json\n";
      std::cout << "job_ms_mean untraced " << number(mean(untraced.job_ms))
                << " ms, traced " << number(mean(main_win.job_ms))
                << " ms; job_ms_p50 untraced "
                << number(median(untraced.job_ms)) << " ms, traced "
                << number(median(main_win.job_ms)) << " ms\n";
    }

    failed += main_win.failed + w->verify();
    const std::uint64_t attempted = main_win.attempted;
    const double wall = std::max(main_win.wall_s, 1e-9);
    const std::size_t n = main_win.job_ms.size();

    if (!o.trace) {
      metrics = {
          {"job_ms_ref_speed", mean_at_reference_speed(main_win), "ms"},
          {"peak_rss_mb", rss_mb, "MB"},
          {"setup_s", setup_ref_s, "s"},
      };
      // Printed, not bounded: the wall-clock figures, which drift with the
      // host's speed (README.md, Host speed), the tail where the
      // percentile rule allows, and fail_ratio, which is 0 on a correct
      // build.
      std::cout << "end-to-end (" << n << " jobs, latency limit "
                << w->latency_limit_ms() << " ms):\n";
      for (const Metric& m : metrics) print_metric(m);
      print_metric({"speed_factor", main_win.speed.factor(), "ratio"});
      print_metric({"job_ms_mean", mean(main_win.job_ms), "ms"});
      print_metric({"job_ms_p50", median(main_win.job_ms), "ms"});
      if (const auto p = tail_percentile(n))
        print_metric({"job_ms_p" + number(*p), percentile(main_win.job_ms, *p),
                      "ms"});
      print_metric({"jobs_per_s", static_cast<double>(n) / wall, "1/s"});
      print_metric({"goodput_rps",
                    static_cast<double>(main_win.within_limit) / wall, "1/s"});
      print_metric({"setup_s_wall", median(setup_s), "s"});
      print_metric({"fail_ratio",
                    attempted ? static_cast<double>(failed) / attempted : 0,
                    "ratio"});
      if (!main_win.build_ms.empty())
        print_metric({"build_ms_mean", mean(main_win.build_ms), "ms"});
    } else {
      std::cout << "per-layer (traced half, " << main_win.job_ms.size()
                << " jobs):\n";
      for (const Metric& m : metrics) print_metric(m);
    }

    std::cout << result_json(attempted, failed, metrics) << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
}
