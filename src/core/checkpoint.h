// Crash-safe checkpointing of a CLUSEQ clustering run (DESIGN.md §16).
//
// A checkpoint captures the complete cross-iteration state of
// CluseqClusterer at an iteration boundary — threshold, RNG, cluster
// trees/members/contributions, the previous iteration's fingerprint — so a
// run killed at ANY point (including mid-save) can resume and produce a
// final clustering bit-for-bit identical to an uninterrupted run. Only
// state that feeds the next iteration is stored; everything derivable
// (background model, frozen snapshots, the scan bank) is recomputed on
// resume, which keeps files small and makes snapshot/tree skew impossible.
//
// File format `cluseq.ckpt.v1` (little-endian, one file per boundary):
//
//   magic "CKPT" | u32 version | u64 file_bytes | u32 section_count |
//   u32 flags | section table [2 × {u64 offset, u64 size, u32 crc32c,
//   u32 pad}] | u32 header_crc32c        (76-byte header)
//   section 0: meta  — identity fingerprints + build string
//   section 1: state — the iteration-boundary algorithm state
//
// Durability model (same bar as the .sqdb and PST formats, DESIGN.md §11):
// files are written via WriteFileAtomic, so a torn save never becomes
// visible at a final path; the header CRC is verified before any field is
// parsed and each section CRC before that section is decoded; every count
// is capped by the bytes that could plausibly back it before any
// allocation; the exact size equation rejects truncation and trailing
// junk. Any mismatch is Status::Corruption and bumps
// persistence.corruption_detected. The directory keeps the newest TWO
// checkpoints (WriteCheckpointRetainTwo), so a crash mid-save — which can
// at worst orphan a .tmp file — always leaves the previous complete
// checkpoint loadable.
//
// Identity: meta records fingerprints of the algorithmic options and of
// the corpus (SequenceStore::ContentFingerprint — strengthened by the
// .sqdb data CRC for on-disk stores). Resume against a different corpus or
// different algorithmic options fails with FailedPrecondition instead of
// silently producing garbage. Pure performance switches (num_threads,
// prefilter, verbose) are deliberately NOT fingerprinted: results are
// bit-for-bit identical across them, so a run may resume at a different
// thread count.

#ifndef CLUSEQ_CORE_CHECKPOINT_H_
#define CLUSEQ_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluseq.h"
#include "util/rng.h"
#include "util/status.h"

namespace cluseq {

/// Serialized form of one cluster's cross-iteration state.
struct CheckpointClusterState {
  /// One counted segment of a contributing sequence (Cluster::Segment plus
  /// the sequence it belongs to). Stored sorted by seq_index so the encoded
  /// bytes are a canonical function of the cluster state.
  struct Contribution {
    uint64_t seq_index = 0;
    uint64_t begin = 0;
    uint64_t end = 0;
  };

  uint32_t id = 0;
  int64_t seed_index = -1;
  std::vector<uint64_t> members;  ///< In the cluster's stored order.
  std::vector<Contribution> contributions;
  std::string pst_blob;  ///< SavePst stream (self-checksummed).
};

/// Complete iteration-boundary state of a clustering run.
struct ClustererCheckpoint {
  // --- meta section: identity -----------------------------------------
  uint64_t options_fingerprint = 0;
  uint64_t corpus_fingerprint = 0;
  uint64_t num_sequences = 0;
  uint64_t total_symbols = 0;
  std::string build;  ///< BuildVersionString() of the writer (≤ 256 bytes).

  // --- state section: the algorithm at an iteration boundary ----------
  /// Number of completed iterations (0 = initialized, loop not yet run).
  uint64_t iteration = 0;
  double log_t = 0.0;
  uint32_t next_cluster_id = 0;
  uint64_t prev_new = 0;
  uint64_t prev_consolidated = 0;
  bool adjuster_frozen = false;
  bool have_prev_fingerprint = false;
  std::vector<uint64_t> prev_fingerprint;
  Rng::State rng;
  std::vector<int32_t> prev_best_cluster;  ///< One per sequence, or empty.
  std::vector<double> best_log_sim;        ///< One per sequence, or empty.
  std::vector<uint64_t> unclustered;
  std::vector<CheckpointClusterState> clusters;
};

/// Fingerprint of the algorithmic CluseqOptions fields (everything that can
/// change the clustering; perf switches excluded — see the header comment).
uint64_t FingerprintOptions(const CluseqOptions& options);

/// Serializes `ckpt` into the cluseq.ckpt.v1 byte layout.
Status EncodeCheckpoint(const ClustererCheckpoint& ckpt, std::string* out);

/// Parses and fully validates a cluseq.ckpt.v1 byte string. Never partial:
/// on any failure `*out` is untouched and the status is Corruption.
Status DecodeCheckpoint(std::string_view bytes, ClustererCheckpoint* out);

/// Reads + decodes one checkpoint file.
Status LoadCheckpointFile(const std::string& path, ClustererCheckpoint* out);

/// Canonical file path for the checkpoint at `iteration` inside `dir`.
std::string CheckpointFilePath(const std::string& dir, uint64_t iteration);

/// Checkpoint files in `dir`, newest (highest iteration) first. Files not
/// matching the ckpt_<iter>.ckpt pattern are ignored. NotFound when the
/// directory exists but holds no checkpoints (or does not exist).
Status ListCheckpointFiles(const std::string& dir,
                           std::vector<std::string>* newest_first);

/// Atomically writes the encoded checkpoint for `iteration` into `dir`
/// (creating it if needed), then prunes all but the newest two files.
/// Records checkpoint.bytes_written and fires the test hook on success.
Status WriteCheckpointRetainTwo(const std::string& dir, uint64_t iteration,
                                std::string_view encoded);

/// Loads the newest loadable checkpoint from `dir`. A corrupt newest file
/// falls back to the previous one with a kWarning log (strict=false) or
/// fails with the corruption status (strict=true). NotFound when `dir` has
/// no checkpoint files at all. `loaded_path` (optional) receives the file
/// actually loaded.
Status LoadLatestCheckpoint(const std::string& dir, bool strict,
                            ClustererCheckpoint* out,
                            std::string* loaded_path = nullptr);

/// Test hook: called after each successful WriteCheckpointRetainTwo with
/// the iteration and final path — the chaos harness SIGKILLs itself here
/// to probe every save boundary. Pass nullptr to clear. Not thread-safe;
/// set before the run starts.
using CheckpointSaveHook = void (*)(uint64_t iteration,
                                    const std::string& path);
void SetCheckpointSaveHookForTest(CheckpointSaveHook hook);

}  // namespace cluseq

#endif  // CLUSEQ_CORE_CHECKPOINT_H_
