#include "flow/interleaved_flow.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "flow/kernel.hpp"
#include "util/obs.hpp"
#include "util/thread_pool.hpp"

namespace tracesel::flow {

namespace {

// Orbit weights need n_g! for every same-flow group; 20! is the largest
// factorial representable in 64 bits.
constexpr std::uint32_t kMaxGroupSize = 20;

std::uint64_t factorial(std::uint32_t n) {
  std::uint64_t f = 1;
  for (std::uint32_t i = 2; i <= n; ++i) f *= i;
  return f;
}

std::uint64_t checked_u64(unsigned __int128 v, const char* what) {
  if (v > static_cast<unsigned __int128>(~std::uint64_t{0}))
    throw std::overflow_error(std::string("InterleavedFlow: ") + what +
                              " exceeds 64 bits");
  return static_cast<std::uint64_t>(v);
}

// Orbit graphs below this many nodes run the reduced-histogram pass as one
// chunk on the calling thread; larger ones split into chunks of
// kHistogramChunkNodes nodes over a ThreadPool. Chunks merge by integer
// addition, so neither constant can change the result.
constexpr std::size_t kHistogramSerialNodes = std::size_t{1} << 16;
constexpr std::size_t kHistogramChunkNodes = std::size_t{1} << 14;

/// The reduced engine's in-edge class histograms (DESIGN.md §9) over flat
/// tables built once per call. count() is const and keeps all of its
/// scratch local, so node-range chunks run concurrently on one instance.
///
/// For a concrete state x in orbit B whose group-g index-i component sits
/// in state v, the number of concrete in-edges labeled <m,i> contributed by
/// group g depends only on (B, g, v): every legal flow-g transition
/// q -> m -> v whose predecessor orbit (one v swapped back to q) is
/// reachable adds one. Legality of the move is orbit-level too: the
/// predecessor's other components hold no atomic state iff
/// atomics(B) == [v atomic]. The concrete states of B with the index-i slot
/// of group g at v number W(B) * mu_g(v) / n_g — exactly divisible — and
/// slots of distinct groups are independent, so per-(m,i) class counts come
/// from a product over the groups that can emit <m,i>.
class ReducedHistogramPass {
 public:
  ReducedHistogramPass(const std::vector<InstanceGroup>& groups,
                       const std::vector<IndexedFlow>& instances,
                       const KeyCodec& codec, const KeyInterner& interner,
                       const std::vector<std::uint64_t>& node_weight)
      : codec_(&codec), interner_(&interner), node_weight_(&node_weight) {
    // Dense message ids: every message some group's transitions carry.
    for (const InstanceGroup& g : groups)
      for (const Transition& t : g.flow->transitions())
        messages_.push_back(t.message);
    std::sort(messages_.begin(), messages_.end());
    messages_.erase(std::unique(messages_.begin(), messages_.end()),
                    messages_.end());
    const auto dense = [&](MessageId m) {
      return static_cast<std::uint32_t>(
          std::lower_bound(messages_.begin(), messages_.end(), m) -
          messages_.begin());
    };

    // Per group: local message ids, the CSR of in-transitions by target
    // state, and the largest per-state in-count of each local message.
    std::vector<std::vector<std::uint32_t>> max_in(groups.size());
    std::vector<std::vector<std::uint32_t>> local_of(groups.size());
    for (std::uint32_t g = 0; g < groups.size(); ++g) {
      const Flow& f = *groups[g].flow;
      Group grp;
      grp.positions = &groups[g].positions;
      for (const Transition& t : f.transitions())
        grp.message.push_back(dense(t.message));
      std::sort(grp.message.begin(), grp.message.end());
      grp.message.erase(std::unique(grp.message.begin(), grp.message.end()),
                        grp.message.end());
      local_of[g].assign(messages_.size(), 0);
      for (std::uint32_t lm = 0; lm < grp.message.size(); ++lm)
        local_of[g][grp.message[lm]] = lm;

      grp.in_off.assign(f.num_states() + 1, 0);
      for (const Transition& t : f.transitions()) ++grp.in_off[t.to + 1];
      for (std::size_t s = 0; s < f.num_states(); ++s)
        grp.in_off[s + 1] += grp.in_off[s];
      grp.in.resize(f.transitions().size());
      std::vector<std::uint32_t> fill(grp.in_off.begin(), grp.in_off.end() - 1);
      for (const Transition& t : f.transitions())
        grp.in[fill[t.to]++] = {t.from, local_of[g][dense(t.message)]};

      max_in[g].assign(grp.message.size(), 0);
      std::vector<std::uint32_t> per_state(grp.message.size());
      for (std::size_t v = 0; v < f.num_states(); ++v) {
        std::fill(per_state.begin(), per_state.end(), 0);
        for (std::uint32_t t = grp.in_off[v]; t < grp.in_off[v + 1]; ++t)
          ++per_state[grp.in[t].second];
        for (std::size_t lm = 0; lm < per_state.size(); ++lm)
          max_in[g][lm] = std::max(max_in[g][lm], per_state[lm]);
      }

      grp.atomic.resize(f.num_states());
      for (StateId s = 0; s < f.num_states(); ++s)
        grp.atomic[s] = f.is_atomic(s) ? 1 : 0;
      grp.counters = num_counters_;
      num_counters_ += grp.positions->size() * grp.message.size();
      grp.memo = num_memo_;
      num_memo_ += f.num_states();
      groups_.push_back(std::move(grp));
    }

    // Plan: per dense message, one entry per index it can carry, listing the
    // groups that can emit <m, index>. Labels come out ascending — message
    // first, then index — which is IndexedMessage order.
    plan_off_.push_back(0);
    class_off_.push_back(0);
    for (std::uint32_t dm = 0; dm < messages_.size(); ++dm) {
      std::vector<std::uint32_t> candidates;
      std::vector<std::uint32_t> indices;
      for (std::uint32_t g = 0; g < groups_.size(); ++g) {
        if (!std::binary_search(groups_[g].message.begin(),
                                groups_[g].message.end(), dm))
          continue;
        candidates.push_back(g);
        for (std::uint32_t p : groups[g].positions)
          indices.push_back(instances[p].index);
      }
      std::sort(indices.begin(), indices.end());
      indices.erase(std::unique(indices.begin(), indices.end()),
                    indices.end());
      for (std::uint32_t idx : indices) {
        PlanEntry entry;
        entry.label = static_cast<std::uint32_t>(labels_.size());
        entry.first = static_cast<std::uint32_t>(plan_groups_.size());
        std::size_t max_c = 0;
        for (std::uint32_t g : candidates) {
          const auto& pos = groups[g].positions;
          if (std::none_of(pos.begin(), pos.end(), [&](std::uint32_t p) {
                return instances[p].index == idx;
              }))
            continue;
          const std::uint32_t lm = local_of[g][dm];
          plan_groups_.push_back({g, lm});
          max_c += max_in[g][lm];
        }
        entry.last = static_cast<std::uint32_t>(plan_groups_.size());
        labels_.push_back(IndexedMessage{messages_[dm], idx});
        class_off_.push_back(class_off_.back() + max_c + 1);
        plan_.push_back(entry);
      }
      plan_off_.push_back(static_cast<std::uint32_t>(plan_.size()));
    }
  }

  /// Class counts of the nodes [begin, end): slot class_off_[label] + c
  /// holds how many concrete states have exactly c in-edges labeled
  /// labels_[label]. Slots of disjoint ranges add up to the whole graph's.
  std::vector<std::uint64_t> count(std::size_t begin, std::size_t end) const {
    std::vector<std::uint64_t> classes(class_off_.back(), 0);
    std::vector<StateId> cur(codec_->components());
    std::vector<std::uint64_t> key(codec_->words());
    std::vector<StateId> pred;  // one group's sorted predecessor states

    // runs[run_off[g] ..): the distinct states of group g in the current
    // node with multiplicities; counter[run.counters + lm] is the per-slot
    // in-edge count of local message lm into the run's state.
    struct Run {
      StateId v;
      std::uint32_t mu;
      std::size_t counters;
    };
    std::vector<Run> runs;
    std::vector<std::size_t> run_off(groups_.size() + 1);
    std::vector<std::uint32_t> counter(num_counters_, 0);
    // Predecessor reachability, memoized per (node, run) by stamp.
    std::vector<std::uint64_t> memo_stamp(num_memo_, 0);
    std::vector<std::uint8_t> memo_reachable(num_memo_, 0);
    std::uint64_t stamp = 0;
    std::vector<std::uint8_t> is_active(messages_.size(), 0);
    std::vector<std::uint32_t> active;

    auto reachable = [&](const std::uint64_t* node_key, const Group& grp,
                         std::size_t j, StateId q) {
      const auto& pos = *grp.positions;
      pred.clear();
      for (std::uint32_t p : pos) pred.push_back(cur[p]);
      pred[j] = q;
      for (; j > 0 && pred[j - 1] > pred[j]; --j)
        std::swap(pred[j - 1], pred[j]);
      for (; j + 1 < pred.size() && pred[j + 1] < pred[j]; ++j)
        std::swap(pred[j], pred[j + 1]);
      std::copy(node_key, node_key + key.size(), key.begin());
      for (std::size_t s = 0; s < pos.size(); ++s)
        codec_->set(key.data(), pos[s], pred[s]);
      return interner_->find(key.data()) != kInvalidNode;
    };

    // Enumerates the joint state profiles of the index slots across the
    // plan entry's groups; each profile is a class of identical concrete
    // states with kacc members and c in-edges.
    auto emit = [&](auto&& self, const PlanEntry& entry, std::uint32_t gi,
                    unsigned __int128 kacc, std::uint64_t c) -> void {
      if (gi == entry.last) {
        if (c > 0)
          classes[class_off_[entry.label] + c] +=
              checked_u64(kacc, "class count");
        return;
      }
      const auto [g, lm] = plan_groups_[gi];
      const unsigned __int128 n_g = groups_[g].positions->size();
      for (std::size_t r = run_off[g]; r < run_off[g + 1]; ++r) {
        const unsigned __int128 k2 = kacc * runs[r].mu;
        if (k2 % n_g != 0)
          throw std::logic_error(
              "InterleavedFlow: orbit class count not divisible by group "
              "size (internal invariant violated)");
        self(self, entry, gi + 1, k2 / n_g, c + counter[runs[r].counters + lm]);
      }
    };

    for (std::size_t n = begin; n < end; ++n) {
      const std::uint64_t* node_key =
          interner_->key(static_cast<std::uint32_t>(n));
      codec_->decode(node_key, cur.data());
      std::uint32_t atomics = 0;
      for (const Group& grp : groups_)
        for (std::uint32_t p : *grp.positions) atomics += grp.atomic[cur[p]];

      runs.clear();
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        const Group& grp = groups_[g];
        const auto& pos = *grp.positions;
        run_off[g] = runs.size();
        for (std::size_t j = 0; j < pos.size(); ++j) {
          const StateId v = cur[pos[j]];
          if (runs.size() > run_off[g] && runs.back().v == v) {
            ++runs.back().mu;
            continue;
          }
          const std::size_t ctr =
              grp.counters + (runs.size() - run_off[g]) * grp.message.size();
          runs.push_back(Run{v, 1, ctr});
          std::fill_n(counter.begin() + static_cast<std::ptrdiff_t>(ctr),
                      grp.message.size(), 0u);
          // All in-moves into v are illegal unless v's holder is the only
          // atomic component of the predecessor.
          if (atomics != grp.atomic[v]) continue;
          ++stamp;
          for (std::uint32_t t = grp.in_off[v]; t < grp.in_off[v + 1]; ++t) {
            const auto [q, lm] = grp.in[t];
            const std::size_t slot = grp.memo + q;
            if (memo_stamp[slot] != stamp) {
              memo_stamp[slot] = stamp;
              memo_reachable[slot] = reachable(node_key, grp, j, q) ? 1 : 0;
            }
            if (memo_reachable[slot] == 0) continue;
            ++counter[ctr + lm];
            const std::uint32_t dm = grp.message[lm];
            if (is_active[dm] == 0) {
              is_active[dm] = 1;
              active.push_back(dm);
            }
          }
        }
      }
      run_off[groups_.size()] = runs.size();

      const std::uint64_t w = (*node_weight_)[n];
      for (std::uint32_t dm : active) {
        is_active[dm] = 0;
        for (std::uint32_t p = plan_off_[dm]; p < plan_off_[dm + 1]; ++p)
          emit(emit, plan_[p], plan_[p].first, w, 0);
      }
      active.clear();
    }
    return classes;
  }

  /// The histograms of a whole graph's class counts: labels ascending,
  /// classes ascending by c, empty labels and classes dropped.
  std::vector<InterleavedFlow::LabelClassHistogram> histograms(
      const std::vector<std::uint64_t>& classes) const {
    std::vector<InterleavedFlow::LabelClassHistogram> out;
    for (std::size_t l = 0; l < labels_.size(); ++l) {
      InterleavedFlow::LabelClassHistogram h{labels_[l], {}};
      for (std::size_t c = 1; c < class_off_[l + 1] - class_off_[l]; ++c)
        if (const std::uint64_t k = classes[class_off_[l] + c]; k > 0)
          h.classes.emplace_back(c, k);
      if (!h.classes.empty()) out.push_back(std::move(h));
    }
    return out;
  }

 private:
  struct Group {
    const std::vector<std::uint32_t>* positions = nullptr;
    std::vector<std::uint32_t> message;  ///< local -> dense message id
    std::vector<std::uint32_t> in_off;   ///< CSR offsets by target state
    /// (source state, local message) of each in-transition.
    std::vector<std::pair<StateId, std::uint32_t>> in;
    std::vector<std::uint8_t> atomic;  ///< by state
    std::size_t counters = 0;          ///< first counter of this group
    std::size_t memo = 0;              ///< first memo slot (one per state)
  };
  /// One label <m, index>: its groups are plan_groups_[first, last).
  struct PlanEntry {
    std::uint32_t label = 0;
    std::uint32_t first = 0;
    std::uint32_t last = 0;
  };

  const KeyCodec* codec_;
  const KeyInterner* interner_;
  const std::vector<std::uint64_t>* node_weight_;
  std::vector<MessageId> messages_;  ///< dense id -> MessageId, ascending
  std::vector<Group> groups_;
  std::size_t num_counters_ = 0;
  std::size_t num_memo_ = 0;
  std::vector<std::uint32_t> plan_off_;  ///< per dense message, into plan_
  std::vector<PlanEntry> plan_;
  /// (group, local message) pairs of every plan entry.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> plan_groups_;
  std::vector<IndexedMessage> labels_;  ///< label id -> <m, index>
  std::vector<std::size_t> class_off_;  ///< label id -> first class slot
};

}  // namespace

std::vector<IndexedFlow> make_instances(const std::vector<const Flow*>& flows,
                                        std::uint32_t instances_per_flow) {
  if (instances_per_flow == 0)
    throw std::invalid_argument("make_instances: zero instances per flow");
  std::vector<IndexedFlow> out;
  out.reserve(flows.size() * instances_per_flow);
  for (const Flow* f : flows) {
    if (f == nullptr)
      throw std::invalid_argument("make_instances: null flow");
    for (std::uint32_t i = 1; i <= instances_per_flow; ++i)
      out.push_back(IndexedFlow{f, i});
  }
  return out;
}

InterleavedFlow InterleavedFlow::build(std::vector<IndexedFlow> instances,
                                       std::size_t max_nodes) {
  InterleaveOptions options;
  options.max_nodes = max_nodes;
  return build(std::move(instances), options);
}

InterleavedFlow InterleavedFlow::build(std::vector<IndexedFlow> instances,
                                       const InterleaveOptions& options) {
  // Degrading instead of throwing is opt-in via the memory budget: without
  // one, an over-cap unreduced build keeps its historical contract and
  // throws std::length_error.
  const bool may_fall_back =
      !options.symmetry_reduction && options.mem_budget_mb > 0;
  try {
    InterleavedFlow u = may_fall_back ? build_impl(instances, options)
                                      : build_impl(std::move(instances),
                                                   options);
    if (u.degraded()) OBS_COUNT("resilience.degradations", 1);
    return u;
  } catch (const std::length_error&) {
    if (!may_fall_back) throw;
    // The unreduced product blew the (possibly budget-lowered) node cap:
    // retry with the symmetry-reduced engine, which answers every weighted
    // query identically from far fewer materialized nodes. Reduction has
    // its own preconditions (group size <= 20, symmetric atomic rule) — if
    // they fail, the original capacity error is the honest diagnosis.
    InterleaveOptions reduced = options;
    reduced.symmetry_reduction = true;
    try {
      InterleavedFlow u = build_impl(std::move(instances), reduced);
      if (!u.degradation_.empty()) u.degradation_ += "; ";
      u.degradation_ +=
          "fell back to the symmetry-reduced engine (unreduced product "
          "exceeds the node cap)";
      OBS_COUNT("resilience.degradations", 1);
      return u;
    } catch (const std::invalid_argument&) {
      throw std::length_error(
          "InterleavedFlow: reachable product exceeds max_nodes and the "
          "symmetry-reduced fallback is not applicable");
    }
  }
}

InterleavedFlow InterleavedFlow::build_impl(std::vector<IndexedFlow> instances,
                                            const InterleaveOptions& options) {
  OBS_SPAN("interleave.build");
  if (instances.empty())
    throw std::invalid_argument("InterleavedFlow: no instances");
  for (const IndexedFlow& inst : instances) {
    if (inst.flow == nullptr)
      throw std::invalid_argument("InterleavedFlow: null flow instance");
    // The product construction assumes a unique initial state per component;
    // multi-initial flows can be modeled with a shared pre-initial state.
    if (inst.flow->initial_states().size() != 1)
      throw std::invalid_argument("InterleavedFlow: flow '" +
                                  inst.flow->name() +
                                  "' must have exactly one initial state");
  }
  if (!legally_indexed(instances))
    throw std::invalid_argument(
        "InterleavedFlow: instances are not legally indexed (duplicate "
        "<flow, index> pair, Def. 4)");

  InterleavedFlow u;
  u.instances_ = std::move(instances);
  u.options_ = options;
  u.reduced_ = options.symmetry_reduction;
  u.groups_ = group_instances(u.instances_);
  u.group_of_.resize(u.instances_.size());
  for (std::uint32_t g = 0; g < u.groups_.size(); ++g) {
    if (u.reduced_ && u.groups_[g].positions.size() > kMaxGroupSize)
      throw std::invalid_argument(
          "InterleavedFlow: more than 20 instances of flow '" +
          u.groups_[g].flow->name() +
          "' — orbit weights would overflow; disable symmetry_reduction");
    for (std::uint32_t p : u.groups_[g].positions) u.group_of_[p] = g;
  }

  u.codec_ = KeyCodec(u.instances_);
  u.interner_ = KeyInterner(u.codec_.words());

  if (options.mem_budget_mb > 0) {
    // Deterministic per-node storage estimate: packed key words + one
    // open-addressing slot + ~4 outgoing edges with CSR overhead. Derived
    // from counts only (never runtime RSS) so the same spec hits the same
    // cap on every run and bit-identity of results is preserved.
    const std::size_t per_node = u.codec_.words() * 8 + 16 +
                                 4 * (sizeof(Edge) + 8);
    const std::size_t budget_nodes =
        std::max<std::size_t>(1024, options.mem_budget_mb * (std::size_t{1}
                                                             << 20) /
                                        per_node);
    if (budget_nodes < u.options_.max_nodes) {
      u.options_.max_nodes = budget_nodes;
      u.degradation_ = "node cap lowered to " + std::to_string(budget_nodes) +
                       " by the " + std::to_string(options.mem_budget_mb) +
                       " MiB memory budget";
    }
  }

  u.build_graph();
  u.finalize_weights_and_occurrences();
  OBS_COUNT("interleave.builds", 1);
  OBS_COUNT("interleave.nodes", u.num_nodes_);
  OBS_COUNT("interleave.edges", u.edges_.size());
  OBS_COUNT("interleave.interner.probes", u.interner_.probes());
  OBS_GAUGE_MAX("interleave.product_states", u.product_states_);
  OBS_GAUGE_MAX("interleave.product_edges", u.product_edges_);
  if (u.reduced_ && options.cross_check) u.verify_against_unreduced();
  return u;
}

void InterleavedFlow::build_graph() {
  OBS_SPAN("interleave.graph");
  const std::size_t k = instances_.size();
  const std::size_t words = codec_.words();

  std::vector<StateId> cur(k);
  std::vector<StateId> nxt(k);
  std::vector<std::uint64_t> kw(words);
  std::vector<StateId> scratch;  // group-sort buffer

  auto sort_group = [&](std::vector<StateId>& tuple, std::uint32_t g) {
    const auto& pos = groups_[g].positions;
    if (pos.size() < 2) return;
    scratch.clear();
    for (std::uint32_t p : pos) scratch.push_back(tuple[p]);
    std::sort(scratch.begin(), scratch.end());
    for (std::size_t j = 0; j < pos.size(); ++j) tuple[pos[j]] = scratch[j];
  };

  auto intern = [&](const std::vector<StateId>& tuple) -> NodeId {
    codec_.encode(tuple.data(), kw.data());
    bool inserted = false;
    const NodeId id = interner_.intern(kw.data(), inserted);
    if (inserted && interner_.size() > options_.max_nodes)
      throw std::length_error(
          "InterleavedFlow: reachable product exceeds max_nodes");
    return id;
  };

  for (std::size_t i = 0; i < k; ++i)
    cur[i] = instances_[i].flow->initial_states().front();
  if (reduced_)
    for (std::uint32_t g = 0; g < groups_.size(); ++g) sort_group(cur, g);
  initial_.push_back(intern(cur));

  // Expansion multiplicity per position: under reduction, each run of equal
  // states within a group is expanded once from its first position, standing
  // for `run length` concrete movers per concrete source state.
  std::vector<std::uint32_t> mult(k, 1);
  out_offset_.assign(1, 0);

  // Nodes are interned in discovery order, which is exactly the expansion
  // order, so a plain id sweep doubles as the worklist and the edge list
  // comes out sorted by source — the CSR offsets need no second pass.
  for (NodeId n = 0; static_cast<std::size_t>(n) < interner_.size(); ++n) {
    if ((n & 1023) == 0 && options_.cancel.cancelled())
      throw util::CancelledError("interleave.build");
    codec_.decode(interner_.key(n), cur.data());

    // Which components sit in atomic states? If any does, only it may move
    // (generalized Def. 5 rules i/ii).
    std::size_t atomic_holder = k;  // k == none
    if (reduced_) {
      std::size_t atomics = 0;
      for (std::size_t i = 0; i < k; ++i) {
        if (instances_[i].flow->is_atomic(cur[i])) {
          if (atomic_holder == k) atomic_holder = i;
          ++atomics;
        }
      }
      if (atomics > 1)
        throw std::invalid_argument(
            "InterleavedFlow: reached a product state with two atomic "
            "components — the atomic-holder rule is not symmetric here; "
            "disable symmetry_reduction");
      for (std::uint32_t g = 0; g < groups_.size(); ++g) {
        const auto& pos = groups_[g].positions;
        for (std::size_t j = 0; j < pos.size(); ++j) {
          if (j > 0 && cur[pos[j]] == cur[pos[j - 1]]) {
            mult[pos[j]] = 0;
            std::size_t f = j;  // first position of this run
            while (f > 0 && cur[pos[f]] == cur[pos[f - 1]]) --f;
            ++mult[pos[f]];
          } else {
            mult[pos[j]] = 1;
          }
        }
      }
    } else {
      for (std::size_t i = 0; i < k; ++i) {
        if (instances_[i].flow->is_atomic(cur[i])) {
          atomic_holder = i;
          break;  // by construction at most one component is atomic
        }
      }
    }

    for (std::size_t i = 0; i < k; ++i) {
      if (atomic_holder != k && atomic_holder != i) continue;
      const std::uint32_t m = reduced_ ? mult[i] : 1;
      if (m == 0) continue;
      const Flow& f = *instances_[i].flow;
      for (std::uint32_t ti : f.outgoing(cur[i])) {
        const Transition& t = f.transitions()[ti];
        nxt = cur;
        nxt[i] = t.to;
        if (reduced_) sort_group(nxt, group_of_[i]);
        const NodeId tgt = intern(nxt);
        edges_.push_back(Edge{n,
                              IndexedMessage{t.message, instances_[i].index},
                              tgt, static_cast<std::uint32_t>(i)});
        if (reduced_) edge_mult_.push_back(m);
      }
    }
    out_offset_.push_back(static_cast<std::uint32_t>(edges_.size()));
  }
  num_nodes_ = interner_.size();
}

void InterleavedFlow::finalize_weights_and_occurrences() {
  OBS_SPAN("interleave.weights");
  const std::size_t k = instances_.size();
  std::vector<StateId> cur(k);

  stop_mask_.assign(num_nodes_, false);
  if (reduced_) node_weight_.resize(num_nodes_);

  for (NodeId n = 0; static_cast<std::size_t>(n) < num_nodes_; ++n) {
    codec_.decode(interner_.key(n), cur.data());
    bool all_stop = true;
    for (std::size_t i = 0; i < k; ++i) {
      if (!instances_[i].flow->is_stop(cur[i])) {
        all_stop = false;
        break;
      }
    }
    if (all_stop) {
      stop_mask_[n] = true;
      stop_.push_back(n);
    }
    if (reduced_) {
      // Orbit weight: number of concrete tuples the sorted representative
      // stands for = prod_g n_g! / prod_runs len!.
      std::uint64_t w = 1;
      for (const InstanceGroup& grp : groups_) {
        const auto& pos = grp.positions;
        w *= factorial(static_cast<std::uint32_t>(pos.size()));
        std::uint32_t run = 1;
        for (std::size_t j = 1; j <= pos.size(); ++j) {
          if (j < pos.size() && cur[pos[j]] == cur[pos[j - 1]]) {
            ++run;
          } else {
            w /= factorial(run);
            run = 1;
          }
        }
      }
      node_weight_[n] = w;
    }
  }

  if (!reduced_) {
    product_states_ = num_nodes_;
    product_edges_ = edges_.size();
    for (const Edge& e : edges_) {
      auto [it, fresh] = occurrence_counts_.try_emplace(e.label, 0u);
      if (fresh) indexed_messages_.push_back(e.label);
      ++it->second;
    }
    std::sort(indexed_messages_.begin(), indexed_messages_.end());
    return;
  }

  unsigned __int128 states = 0;
  for (std::uint64_t w : node_weight_) states += w;
  product_states_ = checked_u64(states, "product state count");

  // Concrete edges represented by quotient edge e: W(from) * mu(e). Each
  // group's total per message splits evenly over its n_g indices (every
  // class count is divisible by n_g — DESIGN.md §9).
  // per_gm is a flat group x message table; a zero entry is a (group,
  // message) pair no edge carries (every edge adds W(from) * mu >= 1).
  MessageId max_message = 0;
  for (const Edge& e : edges_)
    max_message = std::max(max_message, e.label.message);
  const std::size_t stride = static_cast<std::size_t>(max_message) + 1;
  std::vector<unsigned __int128> per_gm(groups_.size() * stride, 0);
  unsigned __int128 total_edges = 0;
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    const unsigned __int128 c =
        static_cast<unsigned __int128>(node_weight_[edges_[e].from]) *
        edge_mult_[e];
    total_edges += c;
    per_gm[group_of_[edges_[e].instance] * stride + edges_[e].label.message] +=
        c;
  }
  product_edges_ = checked_u64(total_edges, "product edge count");

  for (std::size_t gm = 0; gm < per_gm.size(); ++gm) {
    const unsigned __int128 total = per_gm[gm];
    if (total == 0) continue;
    const InstanceGroup& grp = groups_[gm / stride];
    const unsigned __int128 n_g = grp.positions.size();
    if (total % n_g != 0)
      throw std::logic_error(
          "InterleavedFlow: orbit occurrence total not divisible by group "
          "size (internal invariant violated)");
    const std::uint64_t per_index =
        checked_u64(total / n_g, "occurrence count");
    const auto m = static_cast<MessageId>(gm % stride);
    for (std::uint32_t p : grp.positions)
      occurrence_counts_[IndexedMessage{m, instances_[p].index}] += per_index;
  }
  for (const auto& [im, cnt] : occurrence_counts_)
    indexed_messages_.push_back(im);
  std::sort(indexed_messages_.begin(), indexed_messages_.end());
}

InterleavedFlow::OutgoingRange InterleavedFlow::outgoing(NodeId n) const {
  if (static_cast<std::size_t>(n) >= num_nodes_)
    throw std::out_of_range("InterleavedFlow: bad node id");
  return OutgoingRange(out_offset_[n], out_offset_[n + 1]);
}

std::vector<StateId> InterleavedFlow::node_key(NodeId n) const {
  if (static_cast<std::size_t>(n) >= num_nodes_)
    throw std::out_of_range("InterleavedFlow: bad node id");
  std::vector<StateId> key(instances_.size());
  codec_.decode(interner_.key(n), key.data());
  return key;
}

std::string InterleavedFlow::node_name(NodeId n) const {
  const auto key = node_key(n);
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < key.size(); ++i) {
    if (i) os << ',';
    os << instances_[i].flow->state_name(key[i]) << ':'
       << instances_[i].index;
  }
  os << ')';
  return os.str();
}

std::size_t InterleavedFlow::occurrences(const IndexedMessage& im) const {
  const auto it = occurrence_counts_.find(im);
  return it == occurrence_counts_.end() ? 0 : it->second;
}

const InterleavedFlow& InterleavedFlow::concrete() const {
  if (!reduced_) return *this;
  std::lock_guard<std::mutex> lock(*concrete_.mutex);
  if (!concrete_.flow) {
    InterleaveOptions opt = options_;
    opt.symmetry_reduction = false;
    opt.cross_check = false;
    // build_impl, not build: the fallback logic would hand back another
    // *reduced* engine when the unreduced product is over budget, and a
    // reduced flow cached as its own concrete() would answer
    // symmetry-breaking queries wrong.
    concrete_.flow =
        std::make_unique<InterleavedFlow>(build_impl(instances_, opt));
  }
  return *concrete_.flow;
}

const kernel::Program& InterleavedFlow::program() const {
  return *shared_program();
}

std::shared_ptr<const kernel::Program> InterleavedFlow::shared_program()
    const {
  std::lock_guard<std::mutex> lock(*kernel_.mutex);
  if (!kernel_.program)
    kernel_.program = std::make_shared<const kernel::Program>(
        kernel::Program::compile(*this));
  return kernel_.program;
}

void InterleavedFlow::adopt_program(
    std::shared_ptr<const kernel::Program> program) const {
  if (!program) return;
  std::lock_guard<std::mutex> lock(*kernel_.mutex);
  if (!kernel_.program) kernel_.program = std::move(program);
}

double InterleavedFlow::count_paths() const {
  if (options_.kernel == KernelMode::kCompiled)
    return program().count_paths();
  // Executions end at a stop tuple (Def. 2). In all flows in this repo stop
  // states are sinks, so "reaches a stop node" and "ends at a stop node"
  // coincide; we count the latter by backward DP over the DAG. Under
  // reduction every edge counts mu concrete successors per concrete source,
  // and every concrete member of an orbit has the same path count, so the
  // weighted DP equals the concrete total exactly (DESIGN.md §9).
  std::vector<double> memo(num_nodes(), -1.0);
  // Iterative post-order to avoid recursion depth issues on deep products.
  std::vector<std::pair<NodeId, bool>> stack;
  double total = 0.0;
  for (NodeId r : initial_) {
    stack.emplace_back(r, false);
    while (!stack.empty()) {
      auto [n, processed] = stack.back();
      stack.pop_back();
      if (memo[n] >= 0.0) continue;
      if (!processed) {
        stack.emplace_back(n, true);
        for (std::uint32_t e : outgoing(n)) {
          const NodeId m = edges_[e].to;
          if (memo[m] < 0.0) stack.emplace_back(m, false);
        }
      } else {
        double paths = stop_mask_[n] ? 1.0 : 0.0;
        for (std::uint32_t e : outgoing(n))
          paths += static_cast<double>(edge_multiplicity(e)) *
                   memo[edges_[e].to];
        memo[n] = paths;
      }
    }
    total += memo[r];
  }
  return total;
}

double InterleavedFlow::count_consistent_paths(
    const std::vector<MessageId>& selected,
    const std::vector<IndexedMessage>& observed) const {
  // Observation names concrete instance indices, which breaks the
  // permutation symmetry — answer on the unreduced product.
  if (reduced_) return concrete().count_consistent_paths(selected, observed);
  if (options_.kernel == KernelMode::kCompiled)
    return program().count_consistent_paths(selected, observed);

  // f(n, j) = number of stop-terminated paths from n whose projection onto
  // `selected` extends observed[j..] as a prefix. Memoized on (node, j).
  std::vector<bool> is_selected;
  {
    MessageId max_id = 0;
    for (MessageId m : selected) max_id = std::max(max_id, m);
    for (const Edge& e : edges_) max_id = std::max(max_id, e.label.message);
    is_selected.assign(static_cast<std::size_t>(max_id) + 1, false);
    for (MessageId m : selected) is_selected[m] = true;
  }
  const std::size_t olen = observed.size();
  for (const IndexedMessage& im : observed) {
    if (im.message >= is_selected.size() || !is_selected[im.message])
      throw std::invalid_argument(
          "count_consistent_paths: observed trace contains a message outside "
          "the selected combination");
  }

  // Distinct observed labels get small ids; every edge is classified once
  // up front so the DP inner loop does integer compares, not label
  // comparisons or searches.
  std::vector<IndexedMessage> kinds;
  std::vector<std::int32_t> obs_kind(olen);
  for (std::size_t j = 0; j < olen; ++j) {
    const auto it = std::find(kinds.begin(), kinds.end(), observed[j]);
    if (it == kinds.end()) {
      obs_kind[j] = static_cast<std::int32_t>(kinds.size());
      kinds.push_back(observed[j]);
    } else {
      obs_kind[j] = static_cast<std::int32_t>(it - kinds.begin());
    }
  }
  // -2: invisible edge; -1: visible but never observed; >=0: kind id.
  std::vector<std::int32_t> edge_code(edges_.size());
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (!is_selected[edges_[e].label.message]) {
      edge_code[e] = -2;
      continue;
    }
    const auto it = std::find(kinds.begin(), kinds.end(), edges_[e].label);
    edge_code[e] =
        it == kinds.end() ? -1 : static_cast<std::int32_t>(it - kinds.begin());
  }

  const std::size_t width = olen + 1;
  std::vector<double> memo(num_nodes() * width, -1.0);
  auto slot = [&](NodeId n, std::size_t j) -> double& {
    return memo[static_cast<std::size_t>(n) * width + j];
  };

  struct Item {
    NodeId n;
    std::uint32_t j;
    bool processed;
  };
  std::vector<Item> stack;
  double total = 0.0;
  for (NodeId r : initial_) {
    stack.push_back(Item{r, 0, false});
    while (!stack.empty()) {
      const Item it = stack.back();
      stack.pop_back();
      if (slot(it.n, it.j) >= 0.0) continue;
      // Successor (node, j') for an edge given matching rules.
      auto next_j = [&](std::uint32_t e) -> std::optional<std::uint32_t> {
        const std::int32_t code = edge_code[e];
        if (code == -2) return it.j;  // invisible step
        if (it.j < olen) {
          if (code == obs_kind[it.j]) return it.j + 1;
          return std::nullopt;  // visible mismatch kills the path
        }
        return it.j;  // prefix fully matched; extra visible messages fine
      };
      if (!it.processed) {
        stack.push_back(Item{it.n, it.j, true});
        for (std::uint32_t e : outgoing(it.n)) {
          if (auto j2 = next_j(e)) {
            if (slot(edges_[e].to, *j2) < 0.0)
              stack.push_back(Item{edges_[e].to, *j2, false});
          }
        }
      } else {
        double paths = 0.0;
        if (stop_mask_[it.n] && it.j == olen) paths += 1.0;
        for (std::uint32_t e : outgoing(it.n)) {
          if (auto j2 = next_j(e)) paths += slot(edges_[e].to, *j2);
        }
        slot(it.n, it.j) = paths;
      }
    }
    total += slot(r, 0);
  }
  return total;
}

double InterleavedFlow::count_consistent_paths_multiset(
    const std::vector<MessageId>& selected,
    const std::vector<IndexedMessage>& observed) const {
  if (reduced_)
    return concrete().count_consistent_paths_multiset(selected, observed);

  std::vector<bool> is_selected;
  {
    MessageId max_id = 0;
    for (MessageId m : selected) max_id = std::max(max_id, m);
    for (const Edge& e : edges_) max_id = std::max(max_id, e.label.message);
    is_selected.assign(static_cast<std::size_t>(max_id) + 1, false);
    for (MessageId m : selected) is_selected[m] = true;
  }

  // Distinct observed indexed messages with multiplicities; a consumption
  // state is a vector of per-kind counts, encoded in mixed radix.
  std::vector<IndexedMessage> kinds;
  std::vector<std::uint32_t> need;
  for (const IndexedMessage& im : observed) {
    if (im.message >= is_selected.size() || !is_selected[im.message])
      throw std::invalid_argument(
          "count_consistent_paths_multiset: observed trace contains a "
          "message outside the selected combination");
    const auto it = std::find(kinds.begin(), kinds.end(), im);
    if (it == kinds.end()) {
      kinds.push_back(im);
      need.push_back(1);
    } else {
      ++need[static_cast<std::size_t>(it - kinds.begin())];
    }
  }
  std::size_t num_cstates = 1;
  for (std::uint32_t c : need) {
    num_cstates *= c + 1;
    // The consumption lattice is exponential in distinct observed kinds;
    // refuse queries whose memo would not fit in memory rather than
    // crash allocating it. Ordered-semantics counting stays linear.
    if (num_cstates > (std::size_t{1} << 22) ||
        num_cstates * num_nodes() > (std::size_t{1} << 26))
      throw std::length_error(
          "count_consistent_paths_multiset: observation has too many "
          "distinct indexed messages for multiset counting; use the "
          "ordered variant");
  }
  const std::size_t full = num_cstates - 1;  // all radixes at max

  // radix stride per kind.
  std::vector<std::size_t> stride(kinds.size());
  {
    std::size_t s = 1;
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      stride[i] = s;
      s *= need[i] + 1;
    }
  }
  auto digit = [&](std::size_t cstate, std::size_t i) {
    return (cstate / stride[i]) % (need[i] + 1);
  };

  // Classify every edge once: -2 invisible, -1 visible non-observed kind,
  // >= 0 the observed kind consumed — the DP inner loop stops doing a
  // std::find over kinds per edge visit.
  std::vector<std::int32_t> edge_code(edges_.size());
  for (std::size_t e = 0; e < edges_.size(); ++e) {
    if (!is_selected[edges_[e].label.message]) {
      edge_code[e] = -2;
      continue;
    }
    const auto it = std::find(kinds.begin(), kinds.end(), edges_[e].label);
    edge_code[e] =
        it == kinds.end() ? -1 : static_cast<std::int32_t>(it - kinds.begin());
  }

  std::vector<double> memo(num_nodes() * num_cstates, -1.0);
  auto slot = [&](NodeId n, std::size_t c) -> double& {
    return memo[static_cast<std::size_t>(n) * num_cstates + c];
  };

  // Successor consumption state for taking edge e in state c, or nullopt if
  // the edge is inconsistent with the observation.
  auto next_c = [&](std::uint32_t e,
                    std::size_t c) -> std::optional<std::size_t> {
    const std::int32_t code = edge_code[e];
    if (code == -2) return c;
    if (c == full) return c;  // prefix complete; visible suffix unrestricted
    if (code == -1) return std::nullopt;  // visible non-observed kind
    const std::size_t i = static_cast<std::size_t>(code);
    if (digit(c, i) >= need[i]) return std::nullopt;  // kind already consumed
    return c + stride[i];
  };

  struct Item {
    NodeId n;
    std::size_t c;
    bool processed;
  };
  std::vector<Item> stack;
  double total = 0.0;
  for (NodeId r : initial_) {
    stack.push_back(Item{r, 0, false});
    while (!stack.empty()) {
      const Item it = stack.back();
      stack.pop_back();
      if (slot(it.n, it.c) >= 0.0) continue;
      if (!it.processed) {
        stack.push_back(Item{it.n, it.c, true});
        for (std::uint32_t e : outgoing(it.n)) {
          if (auto c2 = next_c(e, it.c)) {
            if (slot(edges_[e].to, *c2) < 0.0)
              stack.push_back(Item{edges_[e].to, *c2, false});
          }
        }
      } else {
        double paths = 0.0;
        if (stop_mask_[it.n] && it.c == full) paths += 1.0;
        for (std::uint32_t e : outgoing(it.n)) {
          if (auto c2 = next_c(e, it.c)) paths += slot(edges_[e].to, *c2);
        }
        slot(it.n, it.c) = paths;
      }
    }
    total += slot(r, 0);
  }
  return total;
}

std::vector<InterleavedFlow::LabelClassHistogram>
InterleavedFlow::label_target_histograms() const {
  OBS_SPAN("interleave.histograms");
  // Both engines produce the same integers in the same canonical order:
  // unreduced engines count in-edges (the compiled kernel's counting sort
  // or the generic map), reduced ones run the orbit pass, whose node chunks
  // only add integers into per-(label, c) slots — so the merged histogram
  // is exact and independent of chunking and worker count, and the
  // InfoGainEngine's floating-point sum over it is bit-identical.
  if (!reduced_ && options_.kernel == KernelMode::kCompiled)
    return program().label_target_histograms();
  return reduced_ ? histograms_reduced() : histograms_unreduced();
}

std::vector<InterleavedFlow::LabelClassHistogram>
InterleavedFlow::histograms_unreduced() const {
  // cnt[y][x] = number of edges labeled y that lead to product state x.
  std::map<IndexedMessage, std::unordered_map<NodeId, std::uint64_t>> cnt;
  for (const Edge& e : edges_) ++cnt[e.label][e.to];
  std::vector<LabelClassHistogram> out;
  out.reserve(cnt.size());
  for (const auto& [label, targets] : cnt) {
    std::map<std::uint64_t, std::uint64_t> classes;
    for (const auto& [node, c] : targets) ++classes[c];
    out.push_back(LabelClassHistogram{
        label, {classes.begin(), classes.end()}});
  }
  return out;
}

std::vector<InterleavedFlow::LabelClassHistogram>
InterleavedFlow::histograms_reduced() const {
  const ReducedHistogramPass pass(groups_, instances_, codec_, interner_,
                                  node_weight_);
  const std::size_t chunks =
      num_nodes_ < kHistogramSerialNodes
          ? 1
          : (num_nodes_ + kHistogramChunkNodes - 1) / kHistogramChunkNodes;
  OBS_COUNT("interleave.histograms.chunks", chunks);
  if (chunks == 1) return pass.histograms(pass.count(0, num_nodes_));
  util::ThreadPool pool(
      std::min(chunks, util::ThreadPool::resolve_jobs(0)));
  return pass.histograms(pool.parallel_reduce(
      0, num_nodes_, kHistogramChunkNodes, std::vector<std::uint64_t>{},
      [&](std::size_t b, std::size_t e) { return pass.count(b, e); },
      [](std::vector<std::uint64_t> acc, std::vector<std::uint64_t> part) {
        if (acc.empty()) return part;
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += part[i];
        return acc;
      }));
}

void InterleavedFlow::verify_against_unreduced() const {
  OBS_SPAN("interleave.cross_check");
  InterleaveOptions opt = options_;
  opt.symmetry_reduction = false;
  opt.cross_check = false;
  const InterleavedFlow full = build_impl(instances_, opt);
  auto fail = [](const std::string& what) {
    throw std::logic_error(
        "InterleavedFlow cross-check: reduced engine disagrees with the "
        "unreduced product on " +
        what);
  };

  if (num_product_states() != full.num_product_states())
    fail("the product state count");
  if (num_product_edges() != full.num_product_edges())
    fail("the product edge count");
  unsigned __int128 stop_weight = 0;
  for (NodeId n : stop_) stop_weight += node_weight(n);
  if (stop_weight != static_cast<unsigned __int128>(full.stop_nodes().size()))
    fail("the stop state count");
  if (indexed_messages_ != full.indexed_messages())
    fail("the indexed message set");
  for (const IndexedMessage& im : indexed_messages_) {
    if (occurrences(im) != full.occurrences(im))
      fail("occurrences of an indexed message");
  }
  if (count_paths() != full.count_paths()) fail("the execution count");
  const auto a = label_target_histograms();
  const auto b = full.label_target_histograms();
  if (a.size() != b.size()) fail("the in-edge histogram label set");
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].classes != b[i].classes)
      fail("an in-edge class histogram");
  }
}

}  // namespace tracesel::flow
