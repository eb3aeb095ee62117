#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "util/json.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace perfbench {

// --- sample statistics -------------------------------------------------

double mean(const std::vector<double>& samples) {
  double sum = 0;
  for (double v : samples) sum += v;
  return samples.empty() ? 0 : sum / static_cast<double>(samples.size());
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

namespace {
std::size_t nearest_rank(std::size_t n, double p) {
  // The epsilon keeps e.g. 99.9% of 10000 at rank 9990 despite rounding.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}
}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

std::optional<double> tail_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 90.0})
    if (samples_beyond(n, p) >= 10) return p;
  return std::nullopt;
}

// --- seeded inputs -----------------------------------------------------

std::vector<std::string> SpecSource::flow_names() const {
  std::vector<std::string> names;
  for (const FlowBlock& f : flows) names.push_back(f.name);
  return names;
}

SpecSource split_spec(std::string_view text) {
  SpecSource out;
  std::istringstream in{std::string(text)};
  std::string line;
  SpecSource::FlowBlock* open = nullptr;
  while (std::getline(in, line)) {
    if (open != nullptr) {
      open->text += line + '\n';
      if (line.rfind('}', 0) == 0) open = nullptr;
      continue;
    }
    if (line.rfind("message ", 0) == 0 || line.rfind("subgroup ", 0) == 0) {
      out.declarations.push_back(line);
    } else if (line.rfind("flow ", 0) == 0) {
      std::istringstream words(line);
      std::string kw, name;
      words >> kw >> name;
      out.flows.push_back({name, line + '\n'});
      open = &out.flows.back();
    }
  }
  if (open != nullptr)
    throw std::runtime_error("split_spec: unterminated flow " + open->name);
  return out;
}

std::string make_spec(const SpecSource& source,
                      const std::vector<std::string>& flow_names) {
  std::string out;
  for (const std::string& d : source.declarations) out += d + '\n';
  for (const std::string& name : flow_names) {
    const auto it =
        std::find_if(source.flows.begin(), source.flows.end(),
                     [&](const SpecSource::FlowBlock& f) { return f.name == name; });
    if (it == source.flows.end())
      throw std::out_of_range("make_spec: no flow named " + name);
    out += '\n' + it->text;
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::vector<std::string> spec_build_flows(const SpecSource& source) {
  std::vector<std::string> names = source.flow_names();
  std::erase(names, std::string("PIOW"));
  std::erase(names, std::string("NCUD"));
  return names;
}

std::vector<std::string> spec_build_flows(const SpecSource& source,
                                          std::uint64_t seed) {
  std::vector<std::string> names = spec_build_flows(source);
  tracesel::util::Rng rng(seed ^ 0x5bec0001ull);
  rng.shuffle(names);
  return names;
}

WidePlan wide_buffer_plan(const SpecSource& source, std::uint64_t seed) {
  WidePlan plan{source.flow_names(),
                {std::begin(kWideWidths), std::end(kWideWidths)}};
  tracesel::util::Rng rng(seed ^ 0x5bec0002ull);
  rng.shuffle(plan.flows);
  rng.shuffle(plan.widths);
  return plan;
}

DaemonPlan daemon_plan(const SpecSource& source, const DaemonMix& mix,
                       std::uint64_t seed) {
  tracesel::util::Rng rng(seed ^ 0x5bec0003ull);
  const std::vector<std::string> all = source.flow_names();
  std::set<std::pair<std::string, std::uint32_t>> seen;
  // One inline t2.flow subset at 1 instance: 4-6 flows in a random order
  // and a buffer width in [16, 80] (about 0.5-50 ms of compute); redrawn
  // until it is new.
  const auto fresh = [&] {
    for (;;) {
      std::vector<std::string> names = all;
      rng.shuffle(names);
      names.resize(rng.between(4, 6));
      DaemonRequest r{make_spec(source, names),
                      static_cast<std::uint32_t>(rng.between(16, 80))};
      if (seen.emplace(r.spec_text, r.buffer_width).second) return r;
    }
  };
  DaemonPlan plan;
  for (std::size_t i = 0; i < kHotCount; ++i) plan.hot.push_back(fresh());
  double t = 0;
  for (;;) {
    t += -std::log(1.0 - rng.unit()) / mix.rate_per_s;
    if (t >= mix.seconds) break;
    Arrival a;
    a.due_ns = static_cast<std::int64_t>(t * 1e9);
    a.hot = rng.chance(kHotFraction);
    if (a.hot) {
      a.index = rng.index(plan.hot.size());
    } else {
      a.index = plan.cold.size();
      plan.cold.push_back(fresh());
    }
    plan.arrivals.push_back(a);
  }
  return plan;
}

// --- spans -------------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0, end = INT64_MIN;
  for (const auto& [a, b] : iv) {
    const std::int64_t from = std::max(a, end);
    if (b > from) total += b - from;
    end = std::max(end, b);
  }
  return total;
}

namespace {
thread_local SpanRecorder::Scope* t_current = nullptr;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}
}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* rec, const char* name,
                           std::uint32_t tag)
    : rec_(rec), name_(name), tag_(tag) {
  if (rec_ == nullptr) return;
  parent_ = t_current;
  t_current = this;
  if (tracesel::obs::enabled()) obs_mark_ = tracesel::obs::thread_events_mark();
  start_ns_ = now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  const std::int64_t end = now_ns();
  t_current = parent_;
  // Obs spans that completed on this thread while the scope was open; the
  // outermost of them (parent not in the window) are direct children.
  if (tracesel::obs::enabled()) {
    const auto events = tracesel::obs::thread_events_since(obs_mark_);
    std::set<std::uint64_t> ids;
    for (const auto& e : events) ids.insert(e.span_id);
    const std::int64_t epoch = tracesel::obs::trace_epoch_ns();
    for (const auto& e : events)
      if (ids.count(e.parent_id) == 0) {
        const auto from = epoch + static_cast<std::int64_t>(e.ts_ns);
        children_.emplace_back(from,
                               from + static_cast<std::int64_t>(e.dur_ns));
      }
  }
  Record r;
  r.name = name_;
  r.start_ns = start_ns_;
  r.dur_ns = end - start_ns_;
  r.self_ns = r.dur_ns - covered_ns(std::move(children_));
  r.thread = thread_index();
  r.tag = tag_;
  if (parent_ != nullptr) parent_->children_.emplace_back(start_ns_, end);
  rec_->add(r);
}

void SpanRecorder::add(Record r) {
  std::lock_guard<std::mutex> lk(mu_);
  records_.push_back(r);
}

std::vector<SpanRecorder::Record> SpanRecorder::records() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

std::string SpanRecorder::chrome_json() const {
  using tracesel::util::Json;
  const std::vector<Record> recs = records();
  std::int64_t base = INT64_MAX;
  for (const Record& r : recs) base = std::min(base, r.start_ns);
  Json events = Json::array();
  for (const Record& r : recs) {
    Json args = Json::object();
    args.set("self_us", Json::number(static_cast<double>(r.self_ns) / 1e3));
    args.set("tag", Json::number(std::uint64_t{r.tag}));
    Json e = Json::object();
    e.set("name", Json::string(r.name));
    e.set("ph", Json::string("X"));
    e.set("pid", Json::number(std::uint64_t{1}));
    e.set("tid", Json::number(std::uint64_t{r.thread}));
    e.set("ts", Json::number(static_cast<double>(r.start_ns - base) / 1e3));
    e.set("dur", Json::number(static_cast<double>(r.dur_ns) / 1e3));
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json out = Json::object();
  out.set("traceEvents", std::move(events));
  return out.dump(1) + '\n';
}

namespace {
std::vector<NamedTotal> to_named(const std::map<std::string, NamedTotal>& m) {
  std::vector<NamedTotal> out;
  for (const auto& [name, t] : m) out.push_back(t);
  return out;
}
}  // namespace

std::vector<NamedTotal> obs_span_totals() {
  std::map<std::string, NamedTotal> totals;
  for (const auto& e : tracesel::obs::trace_events()) {
    NamedTotal& t = totals[e.name];
    t.name = e.name;
    t.total_ms += static_cast<double>(e.dur_ns) / 1e6;
  }
  return to_named(totals);
}

std::vector<NamedTotal> obs_self_times() {
  const auto events = tracesel::obs::trace_events();
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < events.size(); ++i) by_id[events[i].span_id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      events.size());
  for (const auto& e : events) {
    const auto it = by_id.find(e.parent_id);
    if (it == by_id.end() || events[it->second].tid != e.tid) continue;
    const auto from = static_cast<std::int64_t>(e.ts_ns);
    children[it->second].emplace_back(
        from, from + static_cast<std::int64_t>(e.dur_ns));
  }
  std::map<std::string, NamedTotal> totals;
  for (std::size_t i = 0; i < events.size(); ++i) {
    NamedTotal& t = totals[events[i].name];
    t.name = events[i].name;
    const std::int64_t self = static_cast<std::int64_t>(events[i].dur_ns) -
                              covered_ns(std::move(children[i]));
    t.total_ms += static_cast<double>(self) / 1e6;
  }
  return to_named(totals);
}

std::optional<double> json_number(std::string_view json,
                                  std::string_view key) {
  const std::string quoted = '"' + std::string(key) + '"';
  std::size_t at = json.find(quoted);
  if (at == std::string_view::npos) return std::nullopt;
  at = json.find_first_not_of(" \t\n", at + quoted.size());
  if (at == std::string_view::npos || json[at] != ':') return std::nullopt;
  const std::string rest(json.substr(at + 1, 64));
  char* end = nullptr;
  const double v = std::strtod(rest.c_str(), &end);
  if (end == rest.c_str()) return std::nullopt;
  return v;
}

// --- machine stamp -----------------------------------------------------

MachineStamp machine_stamp(std::string rev) {
  MachineStamp s;
  s.nproc = std::max(1u, std::thread::hardware_concurrency());
#if defined(__clang__)
  s.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  s.compiler = "gcc " __VERSION__;
#else
  s.compiler = "unknown";
#endif
#ifdef PERFBENCH_BUILD_TYPE
  s.build_type = PERFBENCH_BUILD_TYPE;
#else
  s.build_type = "unknown";
#endif
#ifdef __OPTIMIZE__
  s.optimized = true;
#endif
  s.sanitizer = "none";
#if defined(__SANITIZE_ADDRESS__)
  s.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  s.sanitizer = "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  s.sanitizer = "address";
#elif __has_feature(thread_sanitizer)
  s.sanitizer = "thread";
#endif
#endif
  s.rev = rev.empty() ? "unknown" : std::move(rev);
  return s;
}

std::string MachineStamp::to_string() const {
  std::ostringstream out;
  out << "nproc=" << nproc << " compiler=\"" << compiler
      << "\" build=" << build_type << " optimized=" << (optimized ? "yes" : "no")
      << " sanitizer=" << sanitizer << " rev=" << rev;
  return out.str();
}

// --- host speed --------------------------------------------------------

namespace {
std::atomic<std::uint64_t> probe_sink{0};

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

/// Builds a 12k-node graph the way interleave and the gain engine build
/// theirs (a hash-map interner, small adjacency vectors), walks its edges
/// at random, and frees it.
std::uint64_t graph_work(std::uint64_t x) {
  constexpr std::uint32_t kNodes = 12'000;
  std::unordered_map<std::uint64_t, std::uint32_t> index;
  std::vector<std::vector<std::uint32_t>> adjacency(kNodes);
  std::vector<std::uint64_t> keys(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    keys[i] = xorshift(x);
    index.emplace(keys[i], i);
    for (int e = 0; e < 3; ++e)
      adjacency[i].push_back(static_cast<std::uint32_t>(xorshift(x) % (i + 1)));
  }
  std::uint64_t acc = 0;
  for (std::uint32_t i = 0; i < 4 * kNodes; ++i) {
    const std::uint32_t node = index.find(keys[xorshift(x) % kNodes])->second;
    for (std::uint32_t to : adjacency[node]) acc += adjacency[to].front();
  }
  return acc;
}

/// Scores every 4-subset of an 80-entry gain table whose widths fit a
/// budget, keeping the best, the way Step 1/2 scores message combinations.
std::uint64_t search_work(std::uint64_t x) {
  constexpr int kItems = 80;
  double gain[kItems];
  std::uint32_t width[kItems];
  for (int i = 0; i < kItems; ++i) {
    gain[i] = static_cast<double>(xorshift(x) % 1000) / 1000.0;
    width[i] = 1 + static_cast<std::uint32_t>(xorshift(x) % 32);
  }
  double best = 0;
  for (int a = 0; a < kItems; ++a)
    for (int b = a + 1; b < kItems; ++b)
      for (int c = b + 1; c < kItems; ++c)
        for (int d = c + 1; d < kItems; ++d) {
          if (width[a] + width[b] + width[c] + width[d] > 64) continue;
          best = std::max(best, gain[a] + gain[b] * 0.9 + gain[c] * 0.8 +
                                    gain[d] * 0.7);
        }
  return static_cast<std::uint64_t>(best * 1e6);
}

double probe_once(ProbeKind kind, std::uint64_t seed) {
  const std::int64_t t0 = now_ns();
  probe_sink += kind == ProbeKind::kGraph ? graph_work(seed) : search_work(seed);
  return static_cast<double>(now_ns() - t0) / 1e6;
}
}  // namespace

double probe_ms(ProbeKind kind, unsigned threads) {
  threads = std::max(1u, threads);
  std::vector<double> ms(threads);
  std::vector<std::thread> helpers;
  for (unsigned t = 1; t < threads; ++t)
    helpers.emplace_back([&ms, kind, t] {
      ms[t] = probe_once(kind, 0x9E3779B97F4A7C15ull + t);
    });
  ms[0] = probe_once(kind, 0x9E3779B97F4A7C15ull);
  for (auto& h : helpers) h.join();
  return mean(ms);
}

double probe_reference_ms(ProbeKind kind) {
  return kind == ProbeKind::kGraph ? 5.5 : 4.5;
}

void SpeedTrace::probe() {
  const std::int64_t t0 = now_ns();
  ms_.push_back(probe_ms(kind_, threads_));
  probe_ns_ += now_ns() - t0;
}

void SpeedTrace::probe_after(std::int64_t work_ns) {
  const std::int64_t until = now_ns() + work_ns / 3;
  do probe();
  while (now_ns() < until);
}

double SpeedTrace::probe_cpu_ms() const {
  double sum = 0;
  for (double ms : ms_) sum += ms;
  return sum * std::max(1u, threads_);
}

double SpeedTrace::factor() const {
  return ms_.empty() ? 1.0 : mean(ms_) / probe_reference_ms(kind_);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

unsigned bench_jobs() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

}  // namespace perfbench
