#include "pst/pst.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <limits>

#include "obs/metrics.h"

namespace cluseq {

namespace {

obs::Counter& PrunedByStrategyCounter(PruneStrategy strategy) {
  static obs::Counter& smallest = obs::MetricsRegistry::Get().GetCounter(
      "pst.pruned.smallest_count_first");
  static obs::Counter& longest = obs::MetricsRegistry::Get().GetCounter(
      "pst.pruned.longest_label_first");
  static obs::Counter& expected = obs::MetricsRegistry::Get().GetCounter(
      "pst.pruned.expected_vector_first");
  switch (strategy) {
    case PruneStrategy::kSmallestCountFirst:
      return smallest;
    case PruneStrategy::kLongestLabelFirst:
      return longest;
    case PruneStrategy::kExpectedVectorFirst:
      return expected;
  }
  return smallest;
}

// Binary search in a sorted association vector.
template <typename V>
const std::pair<SymbolId, V>* FindEntry(
    const std::vector<std::pair<SymbolId, V>>& vec, SymbolId key) {
  auto it = std::lower_bound(
      vec.begin(), vec.end(), key,
      [](const std::pair<SymbolId, V>& e, SymbolId k) { return e.first < k; });
  if (it == vec.end() || it->first != key) return nullptr;
  return &*it;
}

}  // namespace

Status PstOptions::Validate() const {
  if (max_depth == 0) {
    return Status::InvalidArgument("max_depth must be >= 1");
  }
  if (significance_threshold == 0) {
    return Status::InvalidArgument("significance_threshold must be >= 1");
  }
  if (smoothing_p_min < 0.0 || smoothing_p_min >= 1.0) {
    return Status::InvalidArgument("smoothing_p_min must be in [0, 1)");
  }
  return Status::OK();
}

Pst::Pst(size_t alphabet_size, PstOptions options)
    : alphabet_size_(alphabet_size), options_(options) {
  // The smoothed probabilities must satisfy n * p_min < 1; clamp so even a
  // uniform CPD keeps (1 - n*p_min) positive.
  if (alphabet_size_ > 0 && options_.smoothing_p_min > 0.0) {
    options_.smoothing_p_min = std::min(
        options_.smoothing_p_min, 0.5 / static_cast<double>(alphabet_size_));
  }
  nodes_.emplace_back();  // Root: empty label, depth 0.
  approx_bytes_ = sizeof(Node);
}

PstNodeId Pst::GetOrCreateChild(PstNodeId id, SymbolId symbol) {
  Node& node = nodes_[id];
  auto it = std::lower_bound(
      node.children.begin(), node.children.end(), symbol,
      [](const std::pair<SymbolId, PstNodeId>& e, SymbolId k) {
        return e.first < k;
      });
  if (it != node.children.end() && it->first == symbol) return it->second;

  PstNodeId child_id;
  if (!free_list_.empty()) {
    child_id = free_list_.back();
    free_list_.pop_back();
    nodes_[child_id] = Node();
  } else {
    child_id = static_cast<PstNodeId>(nodes_.size());
    nodes_.emplace_back();
    // nodes_ may have reallocated; `node` reference is refreshed below.
  }
  Node& parent = nodes_[id];
  Node& child = nodes_[child_id];
  child.parent = id;
  child.edge_symbol = symbol;
  child.depth = parent.depth + 1;
  auto insert_at = std::lower_bound(
      parent.children.begin(), parent.children.end(), symbol,
      [](const std::pair<SymbolId, PstNodeId>& e, SymbolId k) {
        return e.first < k;
      });
  parent.children.insert(insert_at, {symbol, child_id});
  approx_bytes_ += sizeof(Node) + sizeof(std::pair<SymbolId, PstNodeId>);
  ++live_nodes_;
  static obs::Counter& created =
      obs::MetricsRegistry::Get().GetCounter("pst.nodes_created");
  created.Increment();
  return child_id;
}

void Pst::BumpNext(PstNodeId id, SymbolId s) {
  Node& node = nodes_[id];
  auto it = std::lower_bound(
      node.next.begin(), node.next.end(), s,
      [](const std::pair<SymbolId, uint64_t>& e, SymbolId k) {
        return e.first < k;
      });
  if (it != node.next.end() && it->first == s) {
    ++it->second;
  } else {
    node.next.insert(it, {s, 1});
    approx_bytes_ += sizeof(std::pair<SymbolId, uint64_t>);
  }
}

void Pst::InsertSequence(std::span<const SymbolId> symbols) {
  const size_t l = symbols.size();
  static obs::Counter& insert_symbols =
      obs::MetricsRegistry::Get().GetCounter("pst.insert_symbols");
  insert_symbols.Add(l);
  for (size_t i = 0; i < l; ++i) {
    const SymbolId next = symbols[i];
    PstNodeId cur = kPstRoot;
    ++nodes_[kPstRoot].count;
    BumpNext(kPstRoot, next);
    const size_t max_d = std::min(i, options_.max_depth);
    for (size_t d = 1; d <= max_d; ++d) {
      cur = GetOrCreateChild(cur, symbols[i - d]);
      ++nodes_[cur].count;
      BumpNext(cur, next);
    }
  }
  if (options_.max_memory_bytes > 0 &&
      approx_bytes_ > options_.max_memory_bytes) {
    PruneToBudget();
  }
}

PstNodeId Pst::PredictionNode(std::span<const SymbolId> context) const {
  PstNodeId cur = kPstRoot;
  const size_t len = context.size();
  const size_t max_d = std::min(len, options_.max_depth);
  for (size_t d = 1; d <= max_d; ++d) {
    PstNodeId child = Child(cur, context[len - d]);
    if (child == kNoPstNode ||
        nodes_[child].count < options_.significance_threshold) {
      break;  // Any further advance reaches an insignificant node.
    }
    cur = child;
  }
  return cur;
}

PstNodeId Pst::DeepestExistingNode(std::span<const SymbolId> context) const {
  PstNodeId cur = kPstRoot;
  const size_t len = context.size();
  const size_t max_d = std::min(len, options_.max_depth);
  for (size_t d = 1; d <= max_d; ++d) {
    PstNodeId child = Child(cur, context[len - d]);
    if (child == kNoPstNode) break;
    cur = child;
  }
  return cur;
}

double Pst::NodeProbability(PstNodeId id, SymbolId next) const {
  const Node& node = nodes_[id];
  double raw;
  if (node.count == 0) {
    raw = alphabet_size_ > 0 ? 1.0 / static_cast<double>(alphabet_size_) : 0.0;
  } else {
    const auto* entry = FindEntry(node.next, next);
    raw = entry == nullptr
              ? 0.0
              : static_cast<double>(entry->second) /
                    static_cast<double>(node.count);
  }
  const double p_min = options_.smoothing_p_min;
  if (p_min <= 0.0) return raw;
  // Adjusted probability estimation (paper §5.2).
  return (1.0 - static_cast<double>(alphabet_size_) * p_min) * raw + p_min;
}

double Pst::ConditionalProbability(std::span<const SymbolId> context,
                                   SymbolId next) const {
  return NodeProbability(PredictionNode(context), next);
}

double Pst::LogConditionalProbability(std::span<const SymbolId> context,
                                      SymbolId next) const {
  double p = ConditionalProbability(context, next);
  return p > 0.0 ? std::log(p) : -std::numeric_limits<double>::infinity();
}

double Pst::LogSequenceProbability(std::span<const SymbolId> symbols) const {
  double sum = 0.0;
  for (size_t i = 0; i < symbols.size(); ++i) {
    sum += LogConditionalProbability(symbols.subspan(0, i), symbols[i]);
  }
  return sum;
}

PstNodeId Pst::Child(PstNodeId id, SymbolId symbol) const {
  const auto* entry = FindEntry(nodes_[id].children, symbol);
  return entry == nullptr ? kNoPstNode : entry->second;
}

std::vector<SymbolId> Pst::NodeLabel(PstNodeId id) const {
  // Walking leaf-to-root yields the context in natural order: the deepest
  // edge is the symbol furthest before the prediction point.
  std::vector<SymbolId> label;
  PstNodeId cur = id;
  while (cur != kPstRoot && cur != kNoPstNode) {
    label.push_back(nodes_[cur].edge_symbol);
    cur = nodes_[cur].parent;
  }
  return label;
}

uint64_t Pst::NextCount(PstNodeId id, SymbolId s) const {
  const auto* entry = FindEntry(nodes_[id].next, s);
  return entry == nullptr ? 0 : entry->second;
}

size_t Pst::NodeBytes(const Node& node) const {
  return sizeof(Node) +
         node.children.size() * sizeof(std::pair<SymbolId, PstNodeId>) +
         node.next.size() * sizeof(std::pair<SymbolId, uint64_t>);
}

double Pst::CpdDistanceToParent(const Node& node) const {
  if (node.parent == kNoPstNode) return 0.0;
  const Node& parent = nodes_[node.parent];
  if (node.count == 0 || parent.count == 0) return 0.0;
  // L1 (variational) distance over the union of observed next symbols.
  double dist = 0.0;
  size_t i = 0, j = 0;
  const auto& a = node.next;
  const auto& b = parent.next;
  const double ca = static_cast<double>(node.count);
  const double cb = static_cast<double>(parent.count);
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].first < b[j].first)) {
      dist += static_cast<double>(a[i].second) / ca;
      ++i;
    } else if (i >= a.size() || b[j].first < a[i].first) {
      dist += static_cast<double>(b[j].second) / cb;
      ++j;
    } else {
      dist += std::abs(static_cast<double>(a[i].second) / ca -
                       static_cast<double>(b[j].second) / cb);
      ++i;
      ++j;
    }
  }
  return dist;
}

double Pst::PruneScore(const Node& node) const {
  // Lower score == pruned earlier.
  switch (options_.prune_strategy) {
    case PruneStrategy::kSmallestCountFirst:
      return static_cast<double>(node.count);
    case PruneStrategy::kLongestLabelFirst:
      // Deeper leaves first; ties broken by count so the shallow frequent
      // structure survives longest.
      return -(static_cast<double>(node.depth) * 1e12 -
               static_cast<double>(node.count));
    case PruneStrategy::kExpectedVectorFirst:
      // Insignificant leaves go first (ordered by count); significant leaves
      // follow, ordered by how little their CPD differs from the parent's.
      if (node.count < options_.significance_threshold) {
        return static_cast<double>(node.count);
      }
      return 1e15 + CpdDistanceToParent(node) * 1e12;
  }
  return 0.0;
}

void Pst::RemoveLeaf(PstNodeId id) {
  Node& node = nodes_[id];
  Node& parent = nodes_[node.parent];
  auto it = std::lower_bound(
      parent.children.begin(), parent.children.end(), node.edge_symbol,
      [](const std::pair<SymbolId, PstNodeId>& e, SymbolId k) {
        return e.first < k;
      });
  if (it != parent.children.end() && it->first == node.edge_symbol) {
    parent.children.erase(it);
    approx_bytes_ -= sizeof(std::pair<SymbolId, PstNodeId>);
  }
  approx_bytes_ -= NodeBytes(node) -
                   node.children.size() *
                       sizeof(std::pair<SymbolId, PstNodeId>);
  node = Node();
  node.dead = true;
  free_list_.push_back(id);
  --live_nodes_;
}

void Pst::PruneToBudget(size_t target_bytes) {
  size_t target =
      target_bytes > 0 ? target_bytes : options_.max_memory_bytes;
  if (target == 0 || approx_bytes_ <= target) return;
  // Prune slightly past the budget so insertion doesn't immediately
  // re-trigger; the slack is bounded so explicit small shaves stay small.
  const size_t slack = std::min<size_t>(target / 10, 16 * 1024);
  const size_t goal = target - std::min(slack, target);

  // Min-heap of prunable leaves; parents are pushed as they become leaves,
  // so the globally lowest-scoring leaf is always removed next. A node's
  // score is stable once it is a leaf (it depends only on its own count,
  // depth, and its parent's CPD).
  using Entry = std::pair<double, PstNodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap;
  for (PstNodeId id = 1; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (!node.dead && node.children.empty()) {
      heap.emplace(PruneScore(node), id);
    }
  }
  size_t removed = 0;
  while (approx_bytes_ > goal && !heap.empty()) {
    auto [score, id] = heap.top();
    heap.pop();
    Node& node = nodes_[id];
    if (node.dead || !node.children.empty()) continue;  // Stale entry.
    PstNodeId parent = node.parent;
    RemoveLeaf(id);
    ++removed;
    if (parent != kPstRoot && parent != kNoPstNode &&
        nodes_[parent].children.empty()) {
      heap.emplace(PruneScore(nodes_[parent]), parent);
    }
  }
  if (removed > 0) {
    static obs::Counter& prune_events =
        obs::MetricsRegistry::Get().GetCounter("pst.prune_events");
    static obs::Counter& pruned =
        obs::MetricsRegistry::Get().GetCounter("pst.nodes_pruned");
    prune_events.Increment();
    pruned.Add(removed);
    PrunedByStrategyCounter(options_.prune_strategy).Add(removed);
  }
}

void Pst::Clear() {
  nodes_.clear();
  free_list_.clear();
  nodes_.emplace_back();
  approx_bytes_ = sizeof(Node);
  live_nodes_ = 1;
}

PstStats Pst::Stats() const {
  PstStats stats;
  for (PstNodeId id = 0; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.dead) continue;
    ++stats.num_nodes;
    if (node.count >= options_.significance_threshold) {
      ++stats.num_significant_nodes;
    }
    stats.max_depth = std::max(stats.max_depth,
                               static_cast<size_t>(node.depth));
    if (stats.nodes_per_depth.size() <= node.depth) {
      stats.nodes_per_depth.resize(node.depth + 1, 0);
    }
    ++stats.nodes_per_depth[node.depth];
  }
  stats.approx_bytes = approx_bytes_;
  stats.total_symbols = nodes_[kPstRoot].count;
  return stats;
}

Status Pst::MergeFrom(const Pst& other) {
  if (other.alphabet_size_ != alphabet_size_) {
    return Status::InvalidArgument("alphabet size mismatch in PST merge");
  }
  // Walk `other` pre-order, mirroring each live node into this tree.
  struct Frame {
    PstNodeId theirs;
    PstNodeId ours;
  };
  std::vector<Frame> stack = {{kPstRoot, kPstRoot}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const Node& theirs = other.nodes_[frame.theirs];
    Node& ours = nodes_[frame.ours];
    ours.count += theirs.count;
    for (const auto& [sym, cnt] : theirs.next) {
      auto it = std::lower_bound(
          ours.next.begin(), ours.next.end(), sym,
          [](const std::pair<SymbolId, uint64_t>& e, SymbolId k) {
            return e.first < k;
          });
      if (it != ours.next.end() && it->first == sym) {
        it->second += cnt;
      } else {
        ours.next.insert(it, {sym, cnt});
        approx_bytes_ += sizeof(std::pair<SymbolId, uint64_t>);
      }
    }
    if (theirs.depth >= options_.max_depth) continue;
    for (const auto& [sym, their_child] : theirs.children) {
      PstNodeId our_child = GetOrCreateChild(frame.ours, sym);
      stack.push_back({their_child, our_child});
    }
  }
  if (options_.max_memory_bytes > 0 &&
      approx_bytes_ > options_.max_memory_bytes) {
    PruneToBudget();
  }
  return Status::OK();
}

std::vector<PstContextInfo> Pst::TopContexts(size_t limit) const {
  std::vector<std::pair<uint64_t, PstNodeId>> ranked;
  for (PstNodeId id = 1; id < nodes_.size(); ++id) {
    const Node& node = nodes_[id];
    if (node.dead) continue;
    ranked.emplace_back(node.count, id);
  }
  std::sort(ranked.begin(), ranked.end(),
            [this](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return nodes_[a.second].depth < nodes_[b.second].depth;
            });
  if (ranked.size() > limit) ranked.resize(limit);
  std::vector<PstContextInfo> out;
  out.reserve(ranked.size());
  for (const auto& [count, id] : ranked) {
    PstContextInfo info;
    info.context = NodeLabel(id);
    info.count = count;
    const Node& node = nodes_[id];
    for (const auto& [sym, cnt] : node.next) {
      double p = node.count == 0 ? 0.0
                                 : static_cast<double>(cnt) /
                                       static_cast<double>(node.count);
      if (p > info.most_likely_probability) {
        info.most_likely_probability = p;
        info.most_likely_next = sym;
      }
    }
    out.push_back(std::move(info));
  }
  return out;
}

}  // namespace cluseq
