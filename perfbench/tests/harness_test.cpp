// Tests of the perfbench helpers: the percentile rule, seeded input
// generation, and that generated specs parse with t2.flow's messages.

#include <gtest/gtest.h>

#include <set>

#include "flow/parser.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

const std::string kDataDir = PERFBENCH_DATA_DIR;

SpecSource t2_source() { return split_spec(read_file(kDataDir + "/t2.flow")); }

TEST(PercentileRule, TailNeedsTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(0).has_value());
  EXPECT_FALSE(tail_percentile(99).has_value());
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(999), 90.0);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(9999), 99.0);
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(99, 90), 9u);
  EXPECT_EQ(samples_beyond(20, 50), 10u);
}

TEST(PercentileRule, NearestRankMedianAndMean) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 90), 90);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(median(v), 50.5);
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({}), 0);
  EXPECT_EQ(mean(v), 50.5);
  EXPECT_EQ(mean({}), 0);
}

TEST(SeededInputs, SameSeedSameInputs) {
  const SpecSource src = t2_source();
  EXPECT_EQ(spec_build_flows(src, 7), spec_build_flows(src, 7));
  EXPECT_EQ(wide_buffer_plan(src, 7).flows, wide_buffer_plan(src, 7).flows);
  EXPECT_EQ(wide_buffer_plan(src, 7).widths, wide_buffer_plan(src, 7).widths);

  DaemonMix mix;
  mix.rate_per_s = 100;
  mix.seconds = 2;
  const DaemonPlan a = daemon_plan(src, mix, 7), b = daemon_plan(src, mix, 7);
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].due_ns, b.arrivals[i].due_ns);
    EXPECT_EQ(a.arrivals[i].hot, b.arrivals[i].hot);
    EXPECT_EQ(a.arrivals[i].index, b.arrivals[i].index);
  }
  ASSERT_EQ(a.cold.size(), b.cold.size());
  for (std::size_t i = 0; i < a.cold.size(); ++i)
    EXPECT_EQ(a.cold[i].spec_text, b.cold[i].spec_text);
}

TEST(SeededInputs, SeedsPermuteAndDiffer) {
  const SpecSource src = t2_source();
  std::set<std::vector<std::string>> orders;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto flows = spec_build_flows(src, seed);
    EXPECT_EQ(flows.size(), src.flows.size() - 2);
    EXPECT_EQ(std::count(flows.begin(), flows.end(), "PIOW"), 0);
    EXPECT_EQ(std::count(flows.begin(), flows.end(), "NCUD"), 0);
    orders.insert(flows);
  }
  EXPECT_GT(orders.size(), 5u);
}

TEST(SeededInputs, DaemonPlanShapeAndFreshColdRequests) {
  const SpecSource src = t2_source();
  DaemonMix mix;
  mix.rate_per_s = 200;
  mix.seconds = 5;
  const DaemonPlan plan = daemon_plan(src, mix, 3);
  EXPECT_EQ(plan.hot.size(), kHotCount);
  // Poisson at 200/s over 5 s: 1000 expected arrivals.
  EXPECT_GT(plan.arrivals.size(), 850u);
  EXPECT_LT(plan.arrivals.size(), 1150u);
  std::size_t hot = 0;
  std::int64_t last = -1;
  for (const Arrival& a : plan.arrivals) {
    EXPECT_GT(a.due_ns, last);
    EXPECT_LT(a.due_ns, 5'000'000'000);
    last = a.due_ns;
    hot += a.hot ? 1 : 0;
  }
  const double share = static_cast<double>(hot) / plan.arrivals.size();
  EXPECT_NEAR(share, kHotFraction, 0.05);
  std::set<std::pair<std::string, std::uint32_t>> distinct;
  for (const auto& r : plan.hot) distinct.emplace(r.spec_text, r.buffer_width);
  for (const auto& r : plan.cold) distinct.emplace(r.spec_text, r.buffer_width);
  EXPECT_EQ(distinct.size(), plan.hot.size() + plan.cold.size());
}

/// Every generated spec declares exactly t2.flow's messages (names, widths,
/// endpoints, subgroups) and parses.
void expect_t2_messages(const std::string& text) {
  const auto ref = tracesel::flow::parse_flow_spec_file(kDataDir + "/t2.flow");
  const auto got = tracesel::flow::parse_flow_spec(text);
  ASSERT_EQ(got.catalog.size(), ref.catalog.size());
  for (std::size_t i = 0; i < ref.catalog.size(); ++i) {
    const auto id = static_cast<tracesel::flow::MessageId>(i);
    const auto& a = ref.catalog.get(id);
    const auto& b = got.catalog.get(id);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.source_ip, b.source_ip);
    EXPECT_EQ(a.dest_ip, b.dest_ip);
    EXPECT_EQ(a.subgroups.size(), b.subgroups.size());
  }
}

TEST(GeneratedSpecs, ParseWithT2Messages) {
  const SpecSource src = t2_source();
  ASSERT_EQ(src.flows.size(), 7u);
  expect_t2_messages(make_spec(src, src.flow_names()));
  const auto five = make_spec(src, spec_build_flows(src, 11));
  expect_t2_messages(five);
  EXPECT_EQ(tracesel::flow::parse_flow_spec(five).flows.size(), 5u);
  expect_t2_messages(make_spec(src, wide_buffer_plan(src, 11).flows));
  DaemonMix mix;
  mix.rate_per_s = 50;
  mix.seconds = 1;
  const DaemonPlan plan = daemon_plan(src, mix, 11);
  for (const auto& r : plan.hot) expect_t2_messages(r.spec_text);
  for (const auto& r : plan.cold) expect_t2_messages(r.spec_text);
}

TEST(GeneratedSpecs, UnknownFlowIsAnError) {
  EXPECT_THROW(make_spec(t2_source(), {"NOPE"}), std::out_of_range);
}

TEST(Helpers, CoveredIntervalsAndJsonNumbers) {
  EXPECT_EQ(covered_ns({{0, 10}, {5, 15}, {20, 25}}), 20);
  EXPECT_EQ(covered_ns({}), 0);
  const std::string j = R"({"a": 1, "store.result.hits": 42, "u": 0.5})";
  EXPECT_EQ(json_number(j, "store.result.hits"), 42);
  EXPECT_EQ(json_number(j, "u"), 0.5);
  EXPECT_FALSE(json_number(j, "missing").has_value());
}

TEST(HostSpeed, ProbesFollowTheWorkForAThirdOfItsTime) {
  for (ProbeKind kind : {ProbeKind::kGraph, ProbeKind::kSearch}) {
    SpeedTrace trace(kind, 2);
    EXPECT_EQ(trace.factor(), 1.0);  // no samples yet
    trace.probe_after(0);            // still probes once
    const std::int64_t once = trace.probe_ns();
    EXPECT_GT(once, 0);
    EXPECT_GT(trace.factor(), 0.0);
    trace.probe_after(60'000'000);
    EXPECT_GE(trace.probe_ns() - once, 20'000'000);
  }
}

}  // namespace
}  // namespace perfbench
