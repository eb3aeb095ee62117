#include "selection/coverage.hpp"

namespace tracesel::selection {

namespace {

/// visible[n] != 0 iff node n is the target of an edge labeled with a
/// selected message: one pass over the edges with a dense is-selected
/// table indexed by message id.
std::vector<char> visible_nodes(const flow::InterleavedFlow& u,
                                std::span<const flow::MessageId> selected) {
  // indexed_messages() is sorted message-first and holds every edge label,
  // so its last entry bounds the ids the edge pass can look up.
  const auto& labels = u.indexed_messages();
  std::vector<char> is_selected(
      labels.empty() ? 0 : std::size_t{labels.back().message} + 1, 0);
  for (const flow::MessageId m : selected)
    if (m < is_selected.size()) is_selected[m] = 1;
  std::vector<char> visible(u.num_nodes(), 0);
  // Branch-free: which edges are selected follows no pattern a branch
  // predictor could learn.
  for (const auto& e : u.edges())
    visible[e.to] |= is_selected[e.label.message];
  return visible;
}

}  // namespace

std::vector<flow::NodeId> visible_states(
    const flow::InterleavedFlow& u,
    std::span<const flow::MessageId> selected) {
  const std::vector<char> visible = visible_nodes(u, selected);
  std::vector<flow::NodeId> out;
  for (flow::NodeId n = 0; n < u.num_nodes(); ++n)
    if (visible[n]) out.push_back(n);
  return out;
}

double flow_spec_coverage(const flow::InterleavedFlow& u,
                          std::span<const flow::MessageId> selected) {
  if (u.num_nodes() == 0) return 0.0;
  // Def. 7 ranges over the concrete product. Visibility is
  // orbit-invariant (the selected set is index-agnostic, so if one member
  // of an orbit is the target of a selected-labeled edge, all are), which
  // makes the weighted materialized count exact — and bit-identical to the
  // unreduced division, where every weight is 1.
  const std::vector<char> visible = visible_nodes(u, selected);
  std::uint64_t visible_weight = 0;
  for (flow::NodeId n = 0; n < u.num_nodes(); ++n)
    visible_weight += visible[n] * u.node_weight(n);  // branch-free too
  return static_cast<double>(visible_weight) /
         static_cast<double>(u.num_product_states());
}

}  // namespace tracesel::selection
