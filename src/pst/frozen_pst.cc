#include "pst/frozen_pst.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace cluseq {

namespace {

constexpr uint32_t kUnset = std::numeric_limits<uint32_t>::max();

// Transient trie mirrored from the live Pst (plus closure nodes), as flat
// parallel arrays indexed by a dense scratch id. Children extend the
// context one symbol further into the past, exactly like the live trie, so
// a node's parent is the one-symbol-shorter suffix of its label.
//
// The live nodes are mirrored breadth-first, so the live children of node
// h hold the contiguous, symbol-sorted id range
// [child_begin[h], child_begin[h + 1]). Closure nodes (appended after every
// live node) are rare — only leaf pruning creates them — and live in a side
// map keyed by (parent, symbol).
class ScratchTrie {
 public:
  ScratchTrie(const Pst& pst, uint64_t significance_threshold) {
    const size_t reserve = pst.NumNodes();
    for (auto* v : {&parent_, &edge_, &last_, &depth_}) v->reserve(reserve);
    live_.reserve(reserve);
    significant_.reserve(reserve);
    child_begin_.reserve(reserve + 1);
    live_.push_back(kPstRoot);
    Append(0, 0);
    // Visit order is id order, so node h's children are appended as one
    // run while h is visited; Children() is already sorted by symbol. The
    // visit order jumps around the live node arena, so the loop prefetches
    // the node a few visits ahead and, once that header has arrived, its
    // child list.
    constexpr uint32_t kNodeLead = 16;
    constexpr uint32_t kChildLead = 8;
    for (uint32_t h = 0; h < live_.size(); ++h) {
      if (h + kNodeLead < live_.size()) {
        __builtin_prefetch(&pst.Children(live_[h + kNodeLead]));
      }
      if (h + kChildLead < live_.size()) {
        __builtin_prefetch(pst.Children(live_[h + kChildLead]).data());
      }
      significant_.push_back(pst.NodeCount(live_[h]) >=
                             significance_threshold);
      child_begin_.push_back(static_cast<uint32_t>(live_.size()));
      for (const auto& [symbol, live_child] : pst.Children(live_[h])) {
        live_.push_back(live_child);
        Append(h, symbol);
      }
    }
    num_live_ = static_cast<uint32_t>(live_.size());
    child_begin_.push_back(num_live_);
  }

  size_t size() const { return parent_.size(); }
  /// Backing live node, or kNoPstNode for a closure node.
  PstNodeId live(uint32_t u) const {
    return u < num_live_ ? live_[u] : kNoPstNode;
  }
  /// Whether u is a live node whose count reaches the significance
  /// threshold (closure nodes carry no counts).
  bool significant(uint32_t u) const {
    return u < num_live_ && significant_[u];
  }
  uint32_t parent(uint32_t u) const { return parent_[u]; }
  /// Newest symbol of the label (the one the context ends in).
  SymbolId last(uint32_t u) const { return last_[u]; }
  uint32_t depth(uint32_t u) const { return depth_[u]; }
  /// The node whose label is label(u) minus its newest symbol. Valid after
  /// CloseUnderDropLast().
  uint32_t drop_last(uint32_t u) const { return drop_last_[u]; }

  /// Closes the label set under dropping the newest symbol, creating
  /// count-less closure nodes as needed. The trie's label set is always
  /// suffix-closed (ancestors), but leaf pruning can leave "ba" in the tree
  /// with "b" gone; transitions are only well-defined once the label set is
  /// also closed under taking label prefixes. Since
  /// label(u)[:-1] = edge(u) · label(parent(u))[:-1] and every parent has a
  /// smaller id than its child, one ascending pass resolves every node —
  /// including the closure nodes it appends, whose parents also precede
  /// them.
  void CloseUnderDropLast() {
    drop_last_.assign(size(), 0);
    for (uint32_t u = 0; u < size(); ++u) {
      if (depth_[u] <= 1) continue;  // Label minus its only symbol: root.
      const uint32_t mp = drop_last_[parent_[u]];
      uint32_t t = FindChild(mp, edge_[u]);
      if (t == kUnset) {
        t = static_cast<uint32_t>(size());
        Append(mp, edge_[u]);
        closure_children_.emplace(Key(mp, edge_[u]), t);
        drop_last_.push_back(0);
      }
      drop_last_[u] = t;
    }
  }

 private:
  static uint64_t Key(uint32_t parent, SymbolId symbol) {
    return (static_cast<uint64_t>(parent) << 32) | symbol;
  }

  // Appends the child of `parent` along `symbol` (the oldest symbol of the
  // child's label).
  void Append(uint32_t parent, SymbolId symbol) {
    const bool root = parent_.empty();
    const uint32_t depth = root ? 0 : depth_[parent] + 1;
    parent_.push_back(parent);
    edge_.push_back(symbol);
    last_.push_back(depth <= 1 ? symbol : last_[parent]);
    depth_.push_back(depth);
  }

  uint32_t FindChild(uint32_t u, SymbolId symbol) const {
    if (u < num_live_) {
      const SymbolId* first = edge_.data() + child_begin_[u];
      const SymbolId* last = edge_.data() + child_begin_[u + 1];
      const SymbolId* it = std::lower_bound(first, last, symbol);
      if (it != last && *it == symbol) {
        return static_cast<uint32_t>(it - edge_.data());
      }
    }
    if (closure_children_.empty()) return kUnset;
    const auto it = closure_children_.find(Key(u, symbol));
    return it == closure_children_.end() ? kUnset : it->second;
  }

  std::vector<PstNodeId> live_;     // Live nodes only.
  std::vector<char> significant_;   // Live nodes only.
  std::vector<uint32_t> parent_;
  std::vector<SymbolId> edge_;      // Oldest symbol of the label.
  std::vector<SymbolId> last_;
  std::vector<uint32_t> depth_;
  std::vector<uint32_t> child_begin_;  // Live nodes only, plus an end mark.
  std::vector<uint32_t> drop_last_;
  uint32_t num_live_ = 0;
  std::unordered_map<uint64_t, uint32_t> closure_children_;
};

}  // namespace

FrozenPst::FrozenPst(const Pst& pst, const BackgroundModel& background) {
  alphabet_size_ = pst.alphabet_size();
  max_depth_ = pst.options().max_depth;
  const size_t a_size = alphabet_size_;

  // Phases 1–2: mirror every live node breadth-first, then complete the
  // label set with closure nodes.
  ScratchTrie nodes(pst, pst.options().significance_threshold);
  nodes.CloseUnderDropLast();

  // Phase 3: number states depth-major so a scoring walk, which can only
  // move between adjacent depths, touches adjacent table rows. A stable
  // counting sort by depth: within a depth, states keep scratch-id order.
  const size_t n = nodes.size();
  uint32_t deepest = 0;
  for (uint32_t u = 0; u < n; ++u) deepest = std::max(deepest, nodes.depth(u));
  // level_begin[d] = first state at depth d; level_begin[deepest + 1] = n.
  std::vector<uint32_t> level_begin(deepest + 2, 0);
  for (uint32_t u = 0; u < n; ++u) ++level_begin[nodes.depth(u) + 1];
  for (uint32_t d = 0; d <= deepest; ++d) {
    level_begin[d + 1] += level_begin[d];
  }
  std::vector<uint32_t> order(n);
  std::vector<State> state_of(n);
  depth_.resize(n);
  {
    std::vector<uint32_t> fill = level_begin;
    for (uint32_t u = 0; u < n; ++u) {
      const uint32_t pos = fill[nodes.depth(u)]++;
      order[pos] = u;
      state_of[u] = pos;
      depth_[pos] = nodes.depth(u);
    }
  }

  // Phase 4: transitions.
  //
  //   step(u, a) = state of the longest tracked suffix of label(u)·a
  //              = node(label(u)·a) if tracked, else step(parent(u), a)
  //
  // — the textbook failure-link recurrence, with the parent playing the
  // suffix-link role (in a reversed-context trie the one-shorter suffix IS
  // the parent). Every tracked y other than the root is node(label(u)·a)
  // for exactly one pair: u = drop_last(y), a = last(y). So each row starts
  // as a copy of its parent's row and is then overridden at its tracked
  // extensions, level by level: a row is final before the next level
  // copies it.
  next_.resize(n * a_size);
  std::fill_n(next_.begin(), a_size, kRootState);
  for (uint32_t d = 0; d <= deepest; ++d) {
    for (uint32_t pos = level_begin[d]; d > 0 && pos < level_begin[d + 1];
         ++pos) {
      const size_t parent = state_of[nodes.parent(order[pos])];
      std::copy_n(next_.begin() + static_cast<ptrdiff_t>(parent * a_size),
                  a_size,
                  next_.begin() + static_cast<ptrdiff_t>(pos) *
                                      static_cast<ptrdiff_t>(a_size));
    }
    if (d == deepest) break;
    for (uint32_t pos = level_begin[d + 1]; pos < level_begin[d + 2]; ++pos) {
      const uint32_t y = order[pos];
      next_[static_cast<size_t>(state_of[nodes.drop_last(y)]) * a_size +
            nodes.last(y)] = pos;
    }
  }

  // Phase 5: prediction rows, shallow-to-deep so every node's trie parent
  // is already resolved. in_r marks nodes whose entire suffix chain exists
  // and is significant — precisely the nodes the live PredictionNode() walk
  // can reach; pred is the (scratch id of the) node a live walk with this
  // state's context would land on. States sharing a prediction node share a
  // log-ratio row, copied from row_of[pred] instead of recomputed.
  log_ratio_.resize(n * a_size);
  const double neg_inf = -std::numeric_limits<double>::infinity();
  max_symbol_log_ratio_.assign(a_size, neg_inf);
  std::vector<char> in_r(n, 0);
  std::vector<uint32_t> pred(n, 0);
  std::vector<State> row_of(n, kUnset);
  in_r[0] = 1;
  for (uint32_t pos = 0; pos < n; ++pos) {
    const uint32_t u = order[pos];
    if (u != 0) {
      const uint32_t p = nodes.parent(u);
      in_r[u] = in_r[p] && nodes.significant(u);
      pred[u] = in_r[u] ? u : pred[p];
    }
    double* ratio_row = log_ratio_.data() + static_cast<size_t>(pos) * a_size;
    State& source = row_of[pred[u]];
    if (source != kUnset) {
      std::copy_n(log_ratio_.data() + static_cast<size_t>(source) * a_size,
                  a_size, ratio_row);
      continue;
    }
    source = pos;
    const PstNodeId pred_live = nodes.live(pred[u]);
    for (SymbolId a = 0; a < a_size; ++a) {
      // Same operations as the live path (NodeProbability → log → minus
      // background) so frozen scoring is bit-for-bit identical.
      const double p = pst.NodeProbability(pred_live, a);
      const double log_p = p > 0.0 ? std::log(p) : neg_inf;
      ratio_row[a] = log_p - background.LogProbability(a);
      // A copied row repeats a computed one, so the per-symbol maxima need
      // only the computed rows.
      if (ratio_row[a] > max_symbol_log_ratio_[a]) {
        max_symbol_log_ratio_[a] = ratio_row[a];
      }
    }
  }

  static obs::Counter& freezes =
      obs::MetricsRegistry::Get().GetCounter("frozen_pst.freezes");
  static obs::Counter& states =
      obs::MetricsRegistry::Get().GetCounter("frozen_pst.states");
  freezes.Increment();
  states.Add(n);
}

}  // namespace cluseq
