#include "core/online_scorer.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "core/prefilter.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace cluseq {

OnlineScorer::OnlineScorer(const BackgroundModel& background)
    : background_(background) {}

size_t OnlineScorer::AddModel(const Pst* pst) {
  return AddModel(std::make_shared<const FrozenPst>(*pst, background_));
}

size_t OnlineScorer::AddModel(std::shared_ptr<const FrozenPst> model) {
  models_.push_back(std::move(model));
  rows_.push_back(0);  // Model-local root row.
  y_.push_back(0.0);
  z_.push_back(-std::numeric_limits<double>::infinity());
  started_.push_back(0);
  bank_stale_ = true;
  return models_.size() - 1;
}

void OnlineScorer::EnsureBank() {
  if (!bank_stale_) return;
  // Appending models reuses the existing models' rows in place; the live
  // rows_ offsets are model-local and unaffected either way.
  bank_.Assemble(models_);
  bank_stale_ = false;
  static obs::Counter& rebuilds =
      obs::MetricsRegistry::Get().GetCounter("online_scorer.bank_rebuilds");
  rebuilds.Increment();
}

void OnlineScorer::Push(SymbolId symbol) {
  EnsureBank();
  static obs::Counter& push_symbols =
      obs::MetricsRegistry::Get().GetCounter("online_scorer.push_symbols");
  push_symbols.Increment();
  // One interleaved step over every model: log X_i straight from the
  // arena (the row already encodes the relevant context, background ratio
  // included), then the §4.3 restart-or-extend update per model lane.
  bank_.StepAll(symbol, rows_.data(), y_.data(), z_.data(),
                started_.data());
  ++position_;
}

OnlineScorer::Score OnlineScorer::ScoreOf(size_t index) const {
  Score s;
  s.log_sim = z_[index];
  s.current_log_sim = started_[index] ? y_[index] : 0.0;
  s.model = static_cast<int32_t>(index);
  return s;
}

OnlineScorer::Score OnlineScorer::BestScore() const {
  Score best;
  for (size_t i = 0; i < models_.size(); ++i) {
    Score s = ScoreOf(i);
    if (best.model < 0 || s.log_sim > best.log_sim) best = s;
  }
  return best;
}

OnlineScorer::Score OnlineScorer::BestCurrentScore() const {
  Score best;
  for (size_t i = 0; i < models_.size(); ++i) {
    Score s = ScoreOf(i);
    if (best.model < 0 || s.current_log_sim > best.current_log_sim) {
      best = s;
    }
  }
  return best;
}

void OnlineScorer::BatchClassify(const SequenceStore& store,
                                 size_t num_threads, std::vector<Score>* out,
                                 bool prefilter) {
  const size_t n = store.size();
  out->assign(n, Score{});
  if (models_.empty() || n == 0) return;
  EnsureBank();
  static obs::Counter& batch_records =
      obs::MetricsRegistry::Get().GetCounter("online_scorer.batch_records");
  batch_records.Add(n);
  num_threads = ResolveThreads(num_threads);
  // Scan cost is linear in record length; weighted chunking keeps one long
  // record from parking the other workers.
  const ScanPrefilter bank_prefilter(&bank_, ScanPrefilter::kDefaultL15Prefix,
                                     prefilter);
  ParallelForWeighted(
      n, num_threads,
      [&store](size_t i) -> uint64_t { return store.Length(i); },
      [&](size_t i) {
        Score best;
        best.model = bank_prefilter.BestModel(store.Symbols(i), &best.log_sim);
        if (best.model < 0) {
          // Every model scored -inf: report model 0 with that -inf score.
          best.model = 0;
          best.log_sim = -std::numeric_limits<double>::infinity();
        }
        best.current_log_sim = best.log_sim;
        (*out)[i] = best;
      });
}

void OnlineScorer::Reset() {
  position_ = 0;
  std::fill(rows_.begin(), rows_.end(), 0u);
  std::fill(y_.begin(), y_.end(), 0.0);
  std::fill(z_.begin(), z_.end(),
            -std::numeric_limits<double>::infinity());
  std::fill(started_.begin(), started_.end(), uint8_t{0});
}

}  // namespace cluseq
