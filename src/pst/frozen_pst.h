// FrozenPst: an immutable, cache-friendly compilation of a trained Pst.
//
// A live Pst is a mutable trie: querying P(s | context) walks from the root
// along the reversed context, chasing per-node heap vectors — O(L) pointer
// hops per position, repeated from scratch at every position of every
// scored sequence. Within one scoring pass, however, the tree is read-only,
// and the short-memory/context-tree literature treats such a model as a
// *finite-state automaton*: the prediction node for position i+1 is
// reachable from position i's state in amortized O(1).
//
// FrozenPst compiles exactly that automaton:
//
//   * States are the live trie's nodes plus, when leaf pruning has removed
//     intermediate history, a small set of *closure* states. The trie's
//     node labels are suffix-closed by construction (every trie ancestor of
//     a node is a suffix of its label), but pruning can break closure under
//     dropping the *most recent* symbol — e.g. the tree may know context
//     "ba" while "b" was pruned away. The automaton needs the label set
//     closed under both operations for its transition function to be
//     well-defined, so freezing completes the set (closure states carry no
//     counts of their own; they only route transitions).
//   * Layout is a flat structure of arrays: states are numbered in
//     depth-major (BFS) order, and each state owns one contiguous row of
//     the transition table and one of the log-ratio table, so a scoring
//     walk reads adjacent cache lines instead of chasing per-node vectors.
//   * The transition Step(u, a) moves to the state of the longest tracked
//     suffix of `label(u)·a` — the suffix-link (failure) recurrence of
//     Aho-Corasick, specialized to reversed-context tries where the suffix
//     link of a node is simply its parent.
//   * Each state's log-ratio row is precomputed from its *prediction node*
//     (the longest suffix whose whole chain is significant — the node the
//     live walk would land on): LogRatio(u, s) = log P̂(s | ctx(u)) − log
//     p(s), with smoothing applied exactly as in Pst::NodeProbability. The
//     similarity DP's X_i becomes a single table load.
//
// Scoring a sequence is then a linear automaton scan:
//
//   FrozenPst::State st = FrozenPst::kRootState;
//   for (SymbolId s : symbols) {
//     x = frozen.LogRatio(st, s);   // log [P̂(s|ctx) / p(s)]
//     st = frozen.Step(st, s);      // absorb s into the context
//   }
//
// Equivalence: for any Pst (including post-PruneToBudget and merged trees)
// the scan produces bit-for-bit the same per-position log ratios as the
// live root-walk path; tests/frozen_pst_equivalence_test.cc holds the
// property. The BackgroundModel's log p(s) is baked into the tables, so a
// frozen model is a self-contained scoring artifact (a FrozenBank packs a
// set of them; see pst/bank_serialization.h for the on-disk form).

#ifndef CLUSEQ_PST_FROZEN_PST_H_
#define CLUSEQ_PST_FROZEN_PST_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "pst/pst.h"
#include "seq/background_model.h"

namespace cluseq {

class FrozenPst {
 public:
  /// Automaton state: an index into the flat state tables.
  using State = uint32_t;

  /// The root state (empty context). State numbering is depth-major, so the
  /// root is always state 0.
  static constexpr State kRootState = 0;

  /// Empty (unusable) instance; meaningful only as a move-assignment target
  /// or container element.
  FrozenPst() = default;

  /// Compiles `pst` + `background` into scoring shape. Both must share the
  /// alphabet; the inputs are only read during construction and may be
  /// destroyed or mutated afterwards.
  FrozenPst(const Pst& pst, const BackgroundModel& background);

  FrozenPst(const FrozenPst&) = default;
  FrozenPst& operator=(const FrozenPst&) = default;
  FrozenPst(FrozenPst&&) = default;
  FrozenPst& operator=(FrozenPst&&) = default;

  /// Consumes one symbol of context: the state of the longest tracked
  /// suffix of ctx(state)·symbol. O(1): one table load.
  State Step(State state, SymbolId symbol) const {
    return next_[static_cast<size_t>(state) * alphabet_size_ + symbol];
  }

  /// log [P̂(symbol | ctx(state)) / p(symbol)], the similarity DP's X term.
  /// -inf only when smoothing is off and the empirical probability is zero.
  double LogRatio(State state, SymbolId symbol) const {
    return log_ratio_[static_cast<size_t>(state) * alphabet_size_ + symbol];
  }

  /// Context length represented by a state.
  size_t StateDepth(State state) const { return depth_[state]; }

  size_t num_states() const { return depth_.size(); }
  size_t alphabet_size() const { return alphabet_size_; }
  /// Context length bound L inherited from the source tree.
  size_t max_depth() const { return max_depth_; }
  bool empty() const { return depth_.empty(); }

  /// Bytes held by the flat tables (the dominant cost). Reports size(), not
  /// capacity(): the tables are written once at freeze time and never grow,
  /// so capacity slack from construction is transient allocator detail, not
  /// model footprint (capacity() over-reported after vector growth).
  size_t ApproxMemoryBytes() const {
    return next_.size() * sizeof(State) +
           log_ratio_.size() * sizeof(double) +
           depth_.size() * sizeof(uint32_t);
  }

  /// Raw state-major tables — one row of alphabet_size() entries per state.
  /// Read-only views for engines that repack the model (FrozenBank) or
  /// serialize it; entry [state * alphabet_size + s] corresponds to
  /// Step(state, s) / LogRatio(state, s).
  std::span<const State> transition_table() const { return next_; }
  std::span<const double> log_ratio_table() const { return log_ratio_; }

  /// max over all states u of LogRatio(u, s) — the tightest per-symbol cap
  /// on the similarity DP's X term that holds regardless of context.
  /// Precomputed at freeze time; the prefilter's admissible upper bounds
  /// (see core/prefilter.h) are built from these. -inf entries mean the
  /// model can never emit the symbol (smoothing off, zero counts).
  std::span<const double> max_symbol_log_ratio() const {
    return max_symbol_log_ratio_;
  }

 private:
  size_t alphabet_size_ = 0;
  size_t max_depth_ = 0;
  // Flat state-major tables, one row of `alphabet_size_` entries per state.
  std::vector<State> next_;
  std::vector<double> log_ratio_;
  // Per-state context length (diagnostics).
  std::vector<uint32_t> depth_;
  // Derived bound metadata (see accessors above).
  std::vector<double> max_symbol_log_ratio_;
};

}  // namespace cluseq

#endif  // CLUSEQ_PST_FROZEN_PST_H_
