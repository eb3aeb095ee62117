// Symmetry-reduced engine vs the unreduced product: the reduction must be
// an *exact* quotient. Every weighted quantity (product sizes, occurrence
// counts, path counts, Step 2 info gain, Def. 7 coverage, selection) has to
// be bit-identical to the full product, and the built-in cross-check mode
// (which rebuilds the unreduced product and compares) must pass on every
// spec we ship: Fig. 2, the USB netlist flows, and T2 sub-specs at three
// instances per flow.

#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "flow/execution.hpp"
#include "flow/interleaved_flow.hpp"
#include "netlist/usb_design.hpp"
#include "selection/coverage.hpp"
#include "selection/info_gain.hpp"
#include "selection/localization.hpp"
#include "selection/selector.hpp"
#include "soc/t2_design.hpp"
#include "testutil.hpp"
#include "util/obs.hpp"
#include "util/rng.hpp"

namespace tracesel {
namespace {

using flow::InterleavedFlow;
using flow::InterleaveOptions;
using test::CoherenceFixture;

InterleaveOptions reduced_checked() {
  InterleaveOptions opt;
  opt.cross_check = true;  // throws std::logic_error on any mismatch
  return opt;
}

InterleaveOptions unreduced() {
  InterleaveOptions opt;
  opt.symmetry_reduction = false;
  return opt;
}

/// Exhaustive agreement check between a reduced and an unreduced build of
/// the same instances, over every public weighted quantity.
void expect_engines_agree(const InterleavedFlow& red,
                          const InterleavedFlow& full) {
  ASSERT_TRUE(red.reduced());
  ASSERT_FALSE(full.reduced());
  EXPECT_EQ(red.num_product_states(), full.num_product_states());
  EXPECT_EQ(red.num_product_edges(), full.num_product_edges());
  EXPECT_EQ(full.num_product_states(), full.num_nodes());
  EXPECT_EQ(full.num_product_edges(), full.num_edges());
  EXPECT_LE(red.num_nodes(), full.num_nodes());

  // Same indexed-message alphabet with identical occurrence counts.
  auto red_ims = red.indexed_messages();
  auto full_ims = full.indexed_messages();
  ASSERT_EQ(red_ims.size(), full_ims.size());
  for (const auto& im : full_ims) {
    EXPECT_EQ(red.occurrences(im), full.occurrences(im))
        << im.index << ":" << im.message;
  }

  // Orbit weights partition the concrete state set.
  std::uint64_t weight_sum = 0;
  for (flow::NodeId n = 0; n < red.num_nodes(); ++n)
    weight_sum += red.node_weight(n);
  EXPECT_EQ(weight_sum, full.num_product_states());

  // Execution counts are exact (both well below 2^53 here).
  EXPECT_DOUBLE_EQ(red.count_paths(), full.count_paths());

  // Step 2 info gain: identical per-label contributions and totals.
  const selection::InfoGainEngine er(red);
  const selection::InfoGainEngine ef(full);
  EXPECT_EQ(er.max_gain(), ef.max_gain());
  for (const auto& im : full_ims) {
    EXPECT_EQ(er.contribution(im), ef.contribution(im))
        << im.index << ":" << im.message;
  }
}

TEST(SymmetryReduction, CrossCheckPassesOnFigure2) {
  const CoherenceFixture fx;
  const auto u = InterleavedFlow::build(
      flow::make_instances({&fx.flow_}, 2), reduced_checked());
  EXPECT_TRUE(u.reduced());
  EXPECT_EQ(u.num_nodes(), 9u);            // orbit representatives
  EXPECT_EQ(u.num_product_states(), 15u);  // Fig. 2 concrete product
  EXPECT_EQ(u.num_product_edges(), 18u);
}

TEST(SymmetryReduction, CrossCheckPassesOnUsbDesign) {
  const netlist::UsbDesign usb;
  const auto u = usb.interleaving(2, reduced_checked());
  EXPECT_TRUE(u.reduced());
  EXPECT_LT(u.num_nodes(), u.num_product_states());
}

TEST(SymmetryReduction, CrossCheckPassesOnThreeInstanceT2SubSpec) {
  const soc::T2Design design;
  const auto u = InterleavedFlow::build(
      flow::make_instances({&design.pior(), &design.piow()}, 3),
      reduced_checked());
  EXPECT_TRUE(u.reduced());
  // 3! * 3! concrete tuples collapse per fully-mixed orbit: the quotient
  // is substantially smaller than the product it represents exactly.
  EXPECT_LT(u.num_nodes() * 4, u.num_product_states());
}

TEST(SymmetryReduction, EnginesAgreeOnFigure2) {
  const CoherenceFixture fx;
  const auto instances = flow::make_instances({&fx.flow_}, 2);
  expect_engines_agree(InterleavedFlow::build(instances),
                       InterleavedFlow::build(instances, unreduced()));
}

TEST(SymmetryReduction, EnginesAgreeOnThreeInstanceT2SubSpec) {
  const soc::T2Design design;
  const auto instances =
      flow::make_instances({&design.pior(), &design.piow()}, 3);
  expect_engines_agree(InterleavedFlow::build(instances),
                       InterleavedFlow::build(instances, unreduced()));
}

TEST(SymmetryReduction, CoverageIdenticalAcrossEngines) {
  const soc::T2Design design;
  const auto instances =
      flow::make_instances({&design.pior(), &design.piow()}, 3);
  const auto red = InterleavedFlow::build(instances);
  const auto full = InterleavedFlow::build(instances, unreduced());
  // Growing alphabet prefix: coverage must match bit-for-bit at every step.
  std::vector<flow::MessageId> prefix;
  for (const flow::MessageId m : design.pior().messages()) {
    prefix.push_back(m);
    EXPECT_EQ(selection::flow_spec_coverage(red, prefix),
              selection::flow_spec_coverage(full, prefix));
  }
}

TEST(SymmetryReduction, SelectionIdenticalAcrossEngines) {
  const soc::T2Design design;
  const auto instances =
      flow::make_instances({&design.pior(), &design.piow()}, 3);
  const auto red = InterleavedFlow::build(instances);
  const auto full = InterleavedFlow::build(instances, unreduced());
  const selection::MessageSelector sr(design.catalog(), red);
  const selection::MessageSelector sf(design.catalog(), full);
  for (const std::uint32_t budget : {8u, 16u, 32u}) {
    selection::SelectorConfig cfg;
    cfg.buffer_width = budget;
    const auto a = sr.select(cfg);
    const auto b = sf.select(cfg);
    EXPECT_EQ(a.combination.messages, b.combination.messages) << budget;
    EXPECT_EQ(a.combination.width, b.combination.width) << budget;
    EXPECT_EQ(a.gain, b.gain) << budget;
    EXPECT_EQ(a.gain_unpacked, b.gain_unpacked) << budget;
    EXPECT_EQ(a.coverage, b.coverage) << budget;
    EXPECT_EQ(a.coverage_unpacked, b.coverage_unpacked) << budget;
    EXPECT_EQ(a.used_width, b.used_width) << budget;
    EXPECT_EQ(a.packed, b.packed) << budget;
  }
}

TEST(SymmetryReduction, LocalizationAgreesThroughConcreteFallback) {
  const CoherenceFixture fx;
  const auto instances = flow::make_instances({&fx.flow_}, 2);
  const auto red = InterleavedFlow::build(instances);
  const auto full = InterleavedFlow::build(instances, unreduced());
  util::Rng rng(7);
  const std::vector<flow::MessageId> selected{fx.reqE, fx.ack};
  for (int i = 0; i < 5; ++i) {
    const auto e = flow::random_execution(full, rng);
    if (!e.completed) continue;
    const auto obs = flow::project(e.trace(), selected);
    const auto lr = selection::localize(red, selected, obs);
    const auto lf = selection::localize(full, selected, obs);
    EXPECT_EQ(lr.consistent_paths, lf.consistent_paths);
    EXPECT_EQ(lr.total_paths, lf.total_paths);
    EXPECT_EQ(lr.fraction, lf.fraction);
    EXPECT_EQ(red.count_consistent_paths_multiset(selected, obs),
              full.count_consistent_paths_multiset(selected, obs));
  }
}

TEST(SymmetryReduction, RandomExecutionsOnReducedEngineAreConcrete) {
  const CoherenceFixture fx;
  const auto red = fx.two_instance_interleaving();
  ASSERT_TRUE(red.reduced());
  util::Rng rng(11);
  for (int i = 0; i < 5; ++i) {
    const auto e = flow::random_execution(red, rng);
    EXPECT_TRUE(flow::is_valid_execution(red, e));
  }
}

TEST(SymmetryReduction, HeterogeneousInstanceCountsStayExact) {
  // 3 x PIOR, 2 x PIOW, 1 x Mon: groups of different sizes, with the
  // singleton group contributing no symmetry at all.
  const soc::T2Design design;
  std::vector<flow::IndexedFlow> instances;
  for (std::uint32_t i = 1; i <= 3; ++i)
    instances.push_back({&design.pior(), i});
  for (std::uint32_t i = 1; i <= 2; ++i)
    instances.push_back({&design.piow(), i});
  instances.push_back({&design.mondo(), 1});
  const auto u = InterleavedFlow::build(instances, reduced_checked());
  EXPECT_TRUE(u.reduced());
  EXPECT_LT(u.num_nodes(), u.num_product_states());
}

TEST(SymmetryReduction, ParallelHistogramsMatchUnreduced) {
  // 117k orbit nodes (891k concrete states): above the reduced-histogram
  // pass's serial threshold, so its node chunks fan out over a thread pool.
  // Groups of two plus a singleton keep the orbit combinatorics mixed.
  const soc::T2Design design;
  std::vector<flow::IndexedFlow> instances;
  for (const flow::Flow* f :
       {&design.pior(), &design.ncuu(), &design.mondo(), &design.dmar()})
    for (std::uint32_t i = 1; i <= 2; ++i) instances.push_back({f, i});
  instances.push_back({&design.dmaw(), 1});

  obs::set_enabled(true);
  obs::reset();
  const auto red = InterleavedFlow::build(instances);
  const auto hr = red.label_target_histograms();
  obs::set_enabled(false);
  EXPECT_GE(obs::registry().counter_value("interleave.histograms.chunks"),
            2u);

  const auto full = InterleavedFlow::build(instances, unreduced());
  const auto hf = full.label_target_histograms();
  ASSERT_EQ(hr.size(), hf.size());
  for (std::size_t i = 0; i < hr.size(); ++i) {
    EXPECT_EQ(hr[i].label, hf[i].label) << i;
    EXPECT_EQ(hr[i].classes, hf[i].classes)
        << hr[i].label.index << ":" << hr[i].label.message;
  }

  // Worker scheduling must not leak into the gains: two runs of the pass
  // give the same contributions, bit for bit, as the unreduced product.
  const selection::InfoGainEngine first(red);
  const selection::InfoGainEngine second(red);
  const selection::InfoGainEngine oracle(full);
  EXPECT_EQ(first.max_gain(), second.max_gain());
  EXPECT_EQ(first.max_gain(), oracle.max_gain());
  for (const auto& im : full.indexed_messages()) {
    EXPECT_EQ(first.contribution(im), second.contribution(im))
        << im.index << ":" << im.message;
    EXPECT_EQ(first.contribution(im), oracle.contribution(im))
        << im.index << ":" << im.message;
  }
}

TEST(SymmetryReduction, SelectorCandidatesAreTheEdgeAlphabet) {
  // MessageSelector takes its candidates from indexed_messages(); they must
  // be exactly the distinct messages labeling an edge, on either engine.
  const CoherenceFixture fx;
  const netlist::UsbDesign usb;
  const soc::T2Design design;
  auto check = [](const flow::MessageCatalog& catalog,
                  const InterleavedFlow& u) {
    std::set<flow::MessageId> alphabet;
    for (const auto& e : u.edges()) alphabet.insert(e.label.message);
    const selection::MessageSelector selector(catalog, u);
    EXPECT_EQ(selector.candidates(),
              std::vector<flow::MessageId>(alphabet.begin(), alphabet.end()))
        << u.instances().size() << " instances, reduced " << u.reduced();
  };
  for (const InterleaveOptions& opt : {InterleaveOptions{}, unreduced()}) {
    for (std::uint32_t n = 1; n <= 3; ++n) {
      check(fx.catalog,
            InterleavedFlow::build(flow::make_instances({&fx.flow_}, n), opt));
      check(usb.catalog(), usb.interleaving(n, opt));
      check(design.catalog(),
            InterleavedFlow::build(
                flow::make_instances({&design.pior(), &design.piow()}, n),
                opt));
    }
    check(design.catalog(),
          InterleavedFlow::build(
              flow::make_instances(
                  {&design.pior(), &design.piow(), &design.ncuu(),
                   &design.ncud(), &design.mondo(), &design.dmar(),
                   &design.dmaw()},
                  1),
              opt));
  }
}

TEST(SymmetryReduction, MaxNodesGuardThrowsWithReduction) {
  const soc::T2Design design;
  InterleaveOptions opt;  // reduction on
  opt.max_nodes = 10;
  EXPECT_THROW(
      InterleavedFlow::build(
          flow::make_instances({&design.pior(), &design.piow()}, 3), opt),
      std::length_error);
}

TEST(SymmetryReduction, MaxNodesGuardThrowsWithoutReduction) {
  const CoherenceFixture fx;
  InterleaveOptions opt = unreduced();
  opt.max_nodes = 10;  // Fig. 2 needs 15 concrete nodes
  EXPECT_THROW(
      InterleavedFlow::build(flow::make_instances({&fx.flow_}, 2), opt),
      std::length_error);
}

TEST(SymmetryReduction, MaxNodesAdmitsReducedBuildThatFitsOnlyReduced) {
  // Fig. 2 reduced needs 9 nodes, unreduced 15: a cap of 12 separates the
  // engines — the whole point of the reduction.
  const CoherenceFixture fx;
  InterleaveOptions opt;
  opt.max_nodes = 12;
  const auto u = InterleavedFlow::build(
      flow::make_instances({&fx.flow_}, 2), opt);
  EXPECT_EQ(u.num_product_states(), 15u);
  opt.symmetry_reduction = false;
  EXPECT_THROW(
      InterleavedFlow::build(flow::make_instances({&fx.flow_}, 2), opt),
      std::length_error);
}

TEST(SymmetryReduction, SingleInstancesProduceNoReductionButStillWork) {
  const soc::T2Design design;
  const auto u = InterleavedFlow::build(
      flow::make_instances({&design.pior(), &design.piow()}, 1),
      reduced_checked());
  // All groups are singletons: the quotient *is* the product.
  EXPECT_EQ(u.num_nodes(), u.num_product_states());
  EXPECT_EQ(u.num_edges(), u.num_product_edges());
}

}  // namespace
}  // namespace tracesel
