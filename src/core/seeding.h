// Seed selection for new cluster generation (paper §4.1).
//
// To generate k_n new clusters, m >= k_n unclustered sequences are sampled
// at random; a PST is built for each sample; then a greedy farthest-first
// procedure runs k_n steps, each time choosing the remaining sample whose
// *highest* similarity to any cluster already in T (existing clusters plus
// seeds chosen so far) is lowest, so new seeds are as dissimilar as possible
// from everything already represented.
//
// Robustness addition (documented in DESIGN.md): plain farthest-first is
// outlier-seeking — a random outlier is by construction the sample least
// similar to everything, so with even a few percent outliers the seeds are
// dominated by them, the seeded clusters die in consolidation, and the
// growth factor collapses. Before the greedy phase, samples whose best
// *peer* similarity (how well any other sample's model explains them) falls
// in the bottom quartile are marked ineligible; they are used only if the
// eligible pool runs out. Genuine cluster members always have similar peers
// in the sample, outliers do not.

#ifndef CLUSEQ_CORE_SEEDING_H_
#define CLUSEQ_CORE_SEEDING_H_

#include <memory>
#include <vector>

#include "pst/frozen_bank.h"
#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "seq/background_model.h"
#include "seq/sequence_store.h"
#include "util/rng.h"

namespace cluseq {

/// Selects up to `num_seeds` sequence indices (drawn from `unclustered`) to
/// seed new clusters. `sample_size` is the paper's m; it is clamped to the
/// number of unclustered sequences. `existing_models` are the compiled
/// snapshots of the clusters already in T. `num_threads` parallelizes the
/// similarity evaluations. The sample-vs-sample and sample-vs-existing
/// matrices are scored with one ScanPrefilter argmax scan per sequence over
/// a FrozenBank; `prefilter` selects its pruned or exhaustive mode. The
/// seed selection only consumes per-sample maxima, which both modes report
/// exactly, so the chosen seeds are identical. `existing_bank`, when
/// non-null, must hold `existing_models` in order; the existing clusters
/// are then scored through it instead of a bank packed here (the clusterer
/// passes the bank its re-cluster scan reuses). Returns fewer than
/// `num_seeds` indices only when there are not enough unclustered
/// sequences.
std::vector<size_t> SelectSeeds(
    const SequenceStore& db, const std::vector<size_t>& unclustered,
    size_t num_seeds, size_t sample_size,
    const std::vector<std::shared_ptr<const FrozenPst>>& existing_models,
    const BackgroundModel& background, const PstOptions& pst_options,
    size_t num_threads, Rng* rng, bool prefilter = true,
    const FrozenBank* existing_bank = nullptr);

}  // namespace cluseq

#endif  // CLUSEQ_CORE_SEEDING_H_
