// Layer-by-layer replay of one CLUSEQ iteration on a fixed state, timed
// from outside through the benchmark's own trace spans.
//
// Each step calls one public function of one layer, exactly as the
// iteration does, so its span time is that layer's cost at this state:
// rebuild the cluster PSTs from their members (pst), freeze them (pst),
// assemble the scoring bank at the default and the unigram signature budget
// (pst bank), save and reload it as .fbank, scan it exhaustively and
// through the prefilter (core.prefilter), run the §4.6 adjuster over the
// n·k scores (core.threshold) and, when asked, draw new seeds
// (core.seeding).

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "seq/background_model.h"
#include "seq/sequence_store.h"

namespace perfbench {

struct ReplaySpec {
  /// Sequences the models are built from, and each model's members.
  const cluseq::SequenceStore* train = nullptr;
  std::vector<std::vector<size_t>> members;
  /// When set (one per model), each member contributes the segment that
  /// maximizes its similarity to this snapshot — the purification rebuild
  /// the iteration runs. When empty, members contribute whole sequences.
  std::vector<std::shared_ptr<const cluseq::FrozenPst>> segment_models;
  const cluseq::BackgroundModel* background = nullptr;
  cluseq::PstOptions pst;
  size_t signature_budget_bytes = 0;
  size_t l15_prefix = 0;

  /// Sequences the scan steps score, and which of them.
  const cluseq::SequenceStore* queries = nullptr;
  std::vector<size_t> query_ids;
  double log_t = 0.0;         ///< Join threshold of the prefiltered scan.
  double censor_floor = 0.0;  ///< Adjuster histogram floor.
  size_t histogram_buckets = 100;

  /// Where the .fbank round trip writes.
  std::string bank_path;

  /// Seeding replay: SelectSeeds over every train sequence with the
  /// replayed models as the existing clusters. Skipped when seeds == 0.
  size_t seeds = 0;
  double sample_multiplier = 5.0;
  uint64_t rng_seed = 42;
};

/// Runs the replay with tracing on and adds the per-layer metrics (see
/// README.md) to `out`. Starts and stops the global TraceRecorder.
Status ReplayLayers(const ReplaySpec& spec, Metrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
