#include "selection/multi_scenario.hpp"

#include <algorithm>
#include <stdexcept>

#include "selection/coverage.hpp"
#include "selection/knapsack.hpp"
#include "util/thread_pool.hpp"

namespace tracesel::selection {

MultiScenarioSelector::MultiScenarioSelector(
    const flow::MessageCatalog& catalog,
    std::vector<WeightedScenario> scenarios, std::size_t jobs)
    : catalog_(&catalog), scenarios_(std::move(scenarios)) {
  if (scenarios_.empty())
    throw std::invalid_argument("MultiScenarioSelector: no scenarios");
  for (const WeightedScenario& s : scenarios_) {
    if (s.interleaving == nullptr)
      throw std::invalid_argument("MultiScenarioSelector: null interleaving");
    if (s.weight <= 0.0)
      throw std::invalid_argument(
          "MultiScenarioSelector: weights must be positive");
    for (const auto& e : s.interleaving->edges()) {
      if (std::find(candidates_.begin(), candidates_.end(),
                    e.label.message) == candidates_.end())
        candidates_.push_back(e.label.message);
    }
  }
  std::sort(candidates_.begin(), candidates_.end());

  // Each engine depends only on its own interleaving, so construction is
  // embarrassingly parallel; each worker writes its own slot.
  engines_.resize(scenarios_.size());
  const auto build = [this](std::size_t i) {
    engines_[i] =
        std::make_unique<InfoGainEngine>(*scenarios_[i].interleaving);
  };
  if (util::ThreadPool::resolve_jobs(jobs) == 1) {
    for (std::size_t i = 0; i < scenarios_.size(); ++i) build(i);
  } else {
    util::ThreadPool pool(util::ThreadPool::resolve_jobs(jobs));
    pool.parallel_for(0, scenarios_.size(), build);
  }
}

double MultiScenarioSelector::contribution(flow::MessageId m) const {
  double total = 0.0;
  for (std::size_t i = 0; i < engines_.size(); ++i)
    total += scenarios_[i].weight * engines_[i]->message_contribution(m);
  return total;
}

MultiScenarioResult MultiScenarioSelector::select(
    std::uint32_t buffer_width, bool packing) const {
  SelectorConfig config;
  config.buffer_width = buffer_width;
  config.packing = packing;
  return select(config);
}

MultiScenarioResult MultiScenarioSelector::select(
    const SelectorConfig& config) const {
  const std::uint32_t buffer_width = config.buffer_width;
  const bool packing = config.packing;
  MultiScenarioResult result;
  result.buffer_width = buffer_width;

  // ---- exact knapsack over the weighted aggregate gain ----
  std::vector<double> values;
  std::vector<std::uint32_t> widths;
  for (const flow::MessageId m : candidates_) {
    values.push_back(contribution(m));
    widths.push_back(catalog_->get(m).trace_width());
  }
  const auto pick = solve_knapsack(values, widths, buffer_width);
  if (!pick)
    throw std::runtime_error(
        "MultiScenarioSelector: no message fits the trace buffer");
  for (const std::size_t i : pick->items)
    result.combination.messages.push_back(candidates_[i]);
  result.combination.width = pick->width;
  result.used_width = result.combination.width;

  // ---- greedy subgroup packing with the aggregate objective ----
  std::vector<flow::MessageId> observable = result.combination.messages;
  if (packing) {
    std::uint32_t leftover = buffer_width - result.combination.width;
    for (;;) {
      flow::MessageId best_parent = flow::kInvalidMessage;
      const flow::Subgroup* best_sg = nullptr;
      double best_gain = 0.0;
      for (const flow::MessageId m : candidates_) {
        if (std::find(observable.begin(), observable.end(), m) !=
            observable.end())
          continue;
        const double g = contribution(m);
        if (g <= 0.0) continue;
        for (const flow::Subgroup& sg : catalog_->get(m).subgroups) {
          if (sg.width > leftover) continue;
          if (g > best_gain ||
              (g == best_gain && best_sg != nullptr &&
               sg.width < best_sg->width)) {
            best_parent = m;
            best_sg = &sg;
            best_gain = g;
          }
        }
      }
      if (best_sg == nullptr) break;
      result.packed.push_back(
          PackedGroup{best_parent, best_sg->name, best_sg->width});
      result.used_width += best_sg->width;
      leftover -= best_sg->width;
      observable.push_back(best_parent);
    }
  }

  // ---- metrics ----
  for (const flow::MessageId m : observable)
    result.weighted_gain += contribution(m);
  // Per-scenario coverage is independent across scenarios; each worker
  // writes its own slot, so the vector is identical for every job count.
  result.per_scenario_coverage.resize(scenarios_.size());
  const auto cover = [&](std::size_t i) {
    result.per_scenario_coverage[i] =
        flow_spec_coverage(*scenarios_[i].interleaving, observable);
  };
  if (util::ThreadPool::resolve_jobs(config.jobs) == 1) {
    for (std::size_t i = 0; i < scenarios_.size(); ++i) cover(i);
  } else {
    util::ThreadPool pool(util::ThreadPool::resolve_jobs(config.jobs));
    pool.parallel_for(0, scenarios_.size(), cover);
  }
  return result;
}

}  // namespace tracesel::selection
