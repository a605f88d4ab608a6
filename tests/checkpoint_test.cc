// Checkpoint format and resume correctness (core/checkpoint.h):
// round-trips, the full corruption sweeps (every single-bit flip, every
// truncation offset), torn writes mid-save, retention, the fall-back /
// --strict policy, read-path fault injection, and identity rejection
// (wrong corpus, wrong algorithmic options). The chaos kill sweep lives in
// chaos_resume_test.cc; cancellation in cancellation_test.cc.

#include "core/checkpoint.h"

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluseq.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "pst/pst.h"
#include "pst/pst_serialization.h"
#include "seq/sequence_database.h"
#include "synth/dataset.h"
#include "util/fault_injection.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace cluseq {
namespace {

SequenceDatabase PlantedDb(uint64_t seed = 11) {
  SyntheticDatasetOptions opts;
  opts.num_clusters = 3;
  opts.sequences_per_cluster = 10;
  opts.alphabet_size = 8;
  opts.avg_length = 60;
  opts.outlier_fraction = 0.1;
  opts.spread = 0.25;
  opts.seed = seed;
  return MakeSyntheticDataset(opts);
}

CluseqOptions FastOptions() {
  CluseqOptions o;
  o.initial_clusters = 2;
  o.similarity_threshold = 1.05;
  o.significance_threshold = 4;
  o.min_unique_members = 3;
  o.max_iterations = 10;
  o.pst.max_depth = 4;
  o.pst.smoothing_p_min = 1e-4;
  o.rng_seed = 7;
  return o;
}

std::string MakeTempDir(const char* tag) {
  std::string tmpl = ::testing::TempDir() + tag + "_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return made;
}

/// A small but fully-populated checkpoint with a real (loadable) PST blob.
ClustererCheckpoint SampleCheckpoint() {
  ClustererCheckpoint ckpt;
  ckpt.options_fingerprint = 0x1234;
  ckpt.corpus_fingerprint = 0x5678;
  ckpt.num_sequences = 6;
  ckpt.total_symbols = 300;
  ckpt.build = "test-build";
  ckpt.iteration = 3;
  ckpt.log_t = 1.75;
  ckpt.next_cluster_id = 5;
  ckpt.prev_new = 2;
  ckpt.prev_consolidated = 1;
  ckpt.adjuster_frozen = true;
  ckpt.have_prev_fingerprint = true;
  ckpt.prev_fingerprint = {9, 8, 7};
  Rng rng(99);
  (void)rng.Uniform(1000);
  ckpt.rng = rng.SaveState();
  ckpt.prev_best_cluster = {0, 1, -1, 0, 1, 1};
  ckpt.best_log_sim = {0.5,
                       1.5,
                       -std::numeric_limits<double>::infinity(),
                       0.25,
                       2.0,
                       1.0};
  ckpt.unclustered = {2};

  PstOptions pst_options;
  pst_options.max_depth = 2;
  pst_options.significance_threshold = 1;
  Pst pst(4, pst_options);
  pst.InsertSequence(std::vector<SymbolId>{0, 1, 2, 3, 0, 1, 2, 3, 1, 1});
  std::ostringstream pst_out;
  EXPECT_TRUE(SavePst(pst, pst_out).ok());

  CheckpointClusterState a;
  a.id = 1;
  a.seed_index = 0;
  a.members = {0, 3};
  a.contributions = {{0, 0, 10}, {3, 2, 9}};
  a.pst_blob = pst_out.str();
  CheckpointClusterState b;
  b.id = 4;
  b.seed_index = 4;
  b.members = {1, 4, 5};
  b.contributions = {{1, 0, 5}, {4, 0, 10}, {5, 1, 7}};
  b.pst_blob = pst_out.str();
  ckpt.clusters = {a, b};
  return ckpt;
}

void ExpectEqual(const ClustererCheckpoint& x, const ClustererCheckpoint& y) {
  EXPECT_EQ(x.options_fingerprint, y.options_fingerprint);
  EXPECT_EQ(x.corpus_fingerprint, y.corpus_fingerprint);
  EXPECT_EQ(x.num_sequences, y.num_sequences);
  EXPECT_EQ(x.total_symbols, y.total_symbols);
  EXPECT_EQ(x.build, y.build);
  EXPECT_EQ(x.iteration, y.iteration);
  EXPECT_EQ(x.log_t, y.log_t);
  EXPECT_EQ(x.next_cluster_id, y.next_cluster_id);
  EXPECT_EQ(x.prev_new, y.prev_new);
  EXPECT_EQ(x.prev_consolidated, y.prev_consolidated);
  EXPECT_EQ(x.adjuster_frozen, y.adjuster_frozen);
  EXPECT_EQ(x.have_prev_fingerprint, y.have_prev_fingerprint);
  EXPECT_EQ(x.prev_fingerprint, y.prev_fingerprint);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(x.rng.s[i], y.rng.s[i]);
  EXPECT_EQ(x.rng.has_cached_normal, y.rng.has_cached_normal);
  EXPECT_EQ(x.prev_best_cluster, y.prev_best_cluster);
  EXPECT_EQ(x.best_log_sim, y.best_log_sim);
  EXPECT_EQ(x.unclustered, y.unclustered);
  ASSERT_EQ(x.clusters.size(), y.clusters.size());
  for (size_t c = 0; c < x.clusters.size(); ++c) {
    EXPECT_EQ(x.clusters[c].id, y.clusters[c].id);
    EXPECT_EQ(x.clusters[c].seed_index, y.clusters[c].seed_index);
    EXPECT_EQ(x.clusters[c].members, y.clusters[c].members);
    ASSERT_EQ(x.clusters[c].contributions.size(),
              y.clusters[c].contributions.size());
    for (size_t i = 0; i < x.clusters[c].contributions.size(); ++i) {
      EXPECT_EQ(x.clusters[c].contributions[i].seq_index,
                y.clusters[c].contributions[i].seq_index);
      EXPECT_EQ(x.clusters[c].contributions[i].begin,
                y.clusters[c].contributions[i].begin);
      EXPECT_EQ(x.clusters[c].contributions[i].end,
                y.clusters[c].contributions[i].end);
    }
    EXPECT_EQ(x.clusters[c].pst_blob, y.clusters[c].pst_blob);
  }
}

/// Exact equality across every algorithm-visible result field: the
/// bit-for-bit contract the checkpoint/resume machinery promises.
void ExpectIdenticalResults(const ClusteringResult& a,
                            const ClusteringResult& b) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c], b.clusters[c]) << "cluster " << c;
  }
  EXPECT_EQ(a.best_cluster, b.best_cluster);
  ASSERT_EQ(a.best_log_sim.size(), b.best_log_sim.size());
  for (size_t i = 0; i < a.best_log_sim.size(); ++i) {
    EXPECT_EQ(a.best_log_sim[i], b.best_log_sim[i]) << "sequence " << i;
  }
  EXPECT_EQ(a.final_log_threshold, b.final_log_threshold);
  EXPECT_EQ(a.num_unclustered, b.num_unclustered);
}

// --- format round-trip and corruption sweeps ----------------------------

TEST(CheckpointFormatTest, EncodeDecodeRoundTrip) {
  const ClustererCheckpoint ckpt = SampleCheckpoint();
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(ckpt, &bytes).ok());
  ClustererCheckpoint back;
  ASSERT_TRUE(DecodeCheckpoint(bytes, &back).ok());
  ExpectEqual(ckpt, back);

  // Canonical bytes: encoding the decoded state reproduces the file.
  std::string again;
  ASSERT_TRUE(EncodeCheckpoint(back, &again).ok());
  EXPECT_EQ(bytes, again);
}

TEST(CheckpointFormatTest, EmptyStateRoundTrips) {
  // Boundary 0 of a run that has not clustered anything yet.
  ClustererCheckpoint ckpt;
  ckpt.num_sequences = 4;
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(ckpt, &bytes).ok());
  ClustererCheckpoint back;
  ASSERT_TRUE(DecodeCheckpoint(bytes, &back).ok());
  ExpectEqual(ckpt, back);
}

TEST(CheckpointFormatTest, TruncationAtEveryOffsetIsRejected) {
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  for (size_t len = 0; len < bytes.size(); ++len) {
    ClustererCheckpoint out;
    Status st = DecodeCheckpoint(std::string_view(bytes).substr(0, len), &out);
    EXPECT_TRUE(st.IsCorruption())
        << "truncated to " << len << ": " << st.ToString();
  }
}

TEST(CheckpointFormatTest, AppendedGarbageIsRejected) {
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  ClustererCheckpoint out;
  EXPECT_TRUE(DecodeCheckpoint(bytes + std::string(5, '\0'), &out)
                  .IsCorruption());
}

TEST(CheckpointFormatTest, EverySingleBitFlipIsRejected) {
  std::string clean;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &clean).ok());
  ASSERT_LT(clean.size(), 16384u) << "fixture too big, this sweep will crawl";
  std::string bytes = clean;
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
      ClustererCheckpoint out;
      Status st = DecodeCheckpoint(bytes, &out);
      EXPECT_TRUE(st.IsCorruption())
          << "byte " << byte << " bit " << bit << ": " << st.ToString();
      bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
    }
  }
  EXPECT_EQ(bytes, clean);
}

TEST(CheckpointFormatTest, CorruptionBumpsTheDetectionCounter) {
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x40;
  obs::Counter& counter = obs::MetricsRegistry::Get().GetCounter(
      "persistence.corruption_detected");
  const uint64_t before = counter.Value();
  ClustererCheckpoint out;
  EXPECT_TRUE(DecodeCheckpoint(bytes, &out).IsCorruption());
  EXPECT_GT(counter.Value(), before);
}

TEST(CheckpointFormatTest, FingerprintIgnoresPerfSwitchesOnly) {
  const CluseqOptions base = FastOptions();
  const uint64_t fp = FingerprintOptions(base);

  // Pure performance switches must not change the fingerprint: resuming at
  // a different thread count or prefilter setting is legal.
  CluseqOptions perf = base;
  perf.num_threads = 7;
  perf.prefilter = !perf.prefilter;
  perf.verbose = !perf.verbose;
  perf.checkpoint_every = 5;
  perf.checkpoint_strict = true;
  EXPECT_EQ(FingerprintOptions(perf), fp);

  // Every algorithmic knob must.
  CluseqOptions o = base;
  o.rng_seed += 1;
  EXPECT_NE(FingerprintOptions(o), fp);
  o = base;
  o.similarity_threshold += 0.01;
  EXPECT_NE(FingerprintOptions(o), fp);
  o = base;
  o.initial_clusters += 1;
  EXPECT_NE(FingerprintOptions(o), fp);
  o = base;
  o.significance_threshold += 1;
  EXPECT_NE(FingerprintOptions(o), fp);
  o = base;
  o.visit_order = VisitOrder::kRandom;
  EXPECT_NE(FingerprintOptions(o), fp);
  o = base;
  o.pst.max_depth += 1;
  EXPECT_NE(FingerprintOptions(o), fp);
  o = base;
  o.max_iterations += 1;
  EXPECT_NE(FingerprintOptions(o), fp);
}

// --- directory-level behavior -------------------------------------------

TEST(CheckpointDirTest, RetentionKeepsOnlyTheNewestTwo) {
  const std::string dir = MakeTempDir("cluseq_ckpt_retain");
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  for (uint64_t iter = 1; iter <= 5; ++iter) {
    ASSERT_TRUE(WriteCheckpointRetainTwo(dir, iter, bytes).ok());
  }
  std::vector<std::string> files;
  ASSERT_TRUE(ListCheckpointFiles(dir, &files).ok());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], CheckpointFilePath(dir, 5));
  EXPECT_EQ(files[1], CheckpointFilePath(dir, 4));
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirTest, ListIgnoresForeignFilesAndReportsNotFound) {
  const std::string dir = MakeTempDir("cluseq_ckpt_list");
  ASSERT_TRUE(WriteFileAtomic(dir + "/notes.txt", "hi").ok());
  ASSERT_TRUE(WriteFileAtomic(dir + "/ckpt_junk.ckpt", "hi").ok());
  std::vector<std::string> files;
  EXPECT_TRUE(ListCheckpointFiles(dir, &files).IsNotFound());
  EXPECT_TRUE(ListCheckpointFiles(dir + "/missing", &files).IsNotFound());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirTest, SaveHookFiresAfterEachSuccessfulWrite) {
  static uint64_t last_iteration;
  static int fired;
  last_iteration = 0;
  fired = 0;
  SetCheckpointSaveHookForTest(+[](uint64_t iteration, const std::string&) {
    last_iteration = iteration;
    ++fired;
  });
  const std::string dir = MakeTempDir("cluseq_ckpt_hook");
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  ASSERT_TRUE(WriteCheckpointRetainTwo(dir, 9, bytes).ok());
  SetCheckpointSaveHookForTest(nullptr);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(last_iteration, 9u);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirTest, TornSaveAtEveryCutLeavesThePreviousLoadable) {
  const std::string dir = MakeTempDir("cluseq_ckpt_torn");
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  ASSERT_TRUE(WriteCheckpointRetainTwo(dir, 1, bytes).ok());

  // A save killed at any point of its write must fail cleanly and leave
  // the iteration-1 file the newest loadable checkpoint (offset spread:
  // every offset would be minutes of fsync traffic).
  for (size_t cut = 0; cut < bytes.size(); cut += 37) {
    FaultPlan plan;
    plan.write_limit = cut;
    {
      ScopedFaultPlan guard(plan);
      EXPECT_TRUE(WriteCheckpointRetainTwo(dir, 2, bytes).IsIOError())
          << "cut " << cut;
    }
    ClustererCheckpoint out;
    std::string loaded_path;
    ASSERT_TRUE(LoadLatestCheckpoint(dir, /*strict=*/true, &out, &loaded_path)
                    .ok())
        << "cut " << cut;
    EXPECT_EQ(loaded_path, CheckpointFilePath(dir, 1));
  }
  {
    FaultPlan plan;
    plan.fail_rename = true;
    ScopedFaultPlan guard(plan);
    EXPECT_TRUE(WriteCheckpointRetainTwo(dir, 2, bytes).IsIOError());
  }
  ClustererCheckpoint out;
  EXPECT_TRUE(LoadLatestCheckpoint(dir, /*strict=*/true, &out).ok());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirTest, CorruptNewestFallsBackAndIsUnlinked) {
  const std::string dir = MakeTempDir("cluseq_ckpt_fallback");
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  ASSERT_TRUE(WriteCheckpointRetainTwo(dir, 1, bytes).ok());
  std::string rotten = bytes;
  rotten[rotten.size() / 3] ^= 0x08;
  ASSERT_TRUE(WriteCheckpointRetainTwo(dir, 2, rotten).ok());

  // strict: the corruption surfaces; the file stays for forensics.
  ClustererCheckpoint out;
  EXPECT_TRUE(LoadLatestCheckpoint(dir, /*strict=*/true, &out).IsCorruption());
  EXPECT_TRUE(FileExists(CheckpointFilePath(dir, 2)));

  // default: fall back to the previous file and unlink the corrupt newest
  // so it cannot outrank later saves of a resumed run.
  std::string loaded_path;
  ASSERT_TRUE(
      LoadLatestCheckpoint(dir, /*strict=*/false, &out, &loaded_path).ok());
  EXPECT_EQ(loaded_path, CheckpointFilePath(dir, 1));
  EXPECT_FALSE(FileExists(CheckpointFilePath(dir, 2)));

  // Only one file and it is corrupt: nothing to fall back to.
  ASSERT_TRUE(WriteFileAtomic(CheckpointFilePath(dir, 3), rotten).ok());
  ::unlink(CheckpointFilePath(dir, 1).c_str());
  EXPECT_TRUE(
      LoadLatestCheckpoint(dir, /*strict=*/false, &out).IsCorruption());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointDirTest, ReadFaultsSurfaceAsErrorsNotGarbage) {
  const std::string dir = MakeTempDir("cluseq_ckpt_read");
  std::string bytes;
  ASSERT_TRUE(EncodeCheckpoint(SampleCheckpoint(), &bytes).ok());
  ASSERT_TRUE(WriteCheckpointRetainTwo(dir, 1, bytes).ok());
  const std::string path = CheckpointFilePath(dir, 1);

  {
    // An EINTR storm is absorbed by the bounded-retry read loop.
    FaultPlan plan;
    plan.transient_eintr_reads = 3;
    ScopedFaultPlan guard(plan);
    ClustererCheckpoint out;
    EXPECT_TRUE(LoadCheckpointFile(path, &out).ok());
  }
  {
    // A file that goes unreadable mid-load is an IO error, not corruption.
    FaultPlan plan;
    plan.read_limit = bytes.size() / 2;
    ScopedFaultPlan guard(plan);
    ClustererCheckpoint out;
    EXPECT_TRUE(LoadCheckpointFile(path, &out).IsIOError());
  }
  {
    // Bit rot between platter and read buffer is caught by the checksums.
    FaultPlan plan;
    plan.read_flip_offset = bytes.size() / 2;
    plan.read_flip_mask = 0x20;
    ScopedFaultPlan guard(plan);
    ClustererCheckpoint out;
    EXPECT_TRUE(LoadCheckpointFile(path, &out).IsCorruption());
  }
  std::filesystem::remove_all(dir);
}

// --- clusterer integration ----------------------------------------------

TEST(CheckpointResumeTest, CheckpointedRunMatchesPlainRunExactly) {
  SequenceDatabase db = PlantedDb();
  ClusteringResult plain;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &plain).ok());
  ASSERT_GT(plain.iterations, 1u);

  const std::string dir = MakeTempDir("cluseq_ckpt_run");
  CluseqOptions with_ckpt = FastOptions();
  with_ckpt.checkpoint_dir = dir;
  with_ckpt.checkpoint_every = 1;
  CluseqClusterer clusterer(db, with_ckpt);
  ClusteringResult checkpointed;
  ASSERT_TRUE(clusterer.Run(&checkpointed).ok());
  ExpectIdenticalResults(plain, checkpointed);
  EXPECT_FALSE(checkpointed.interrupted);
  EXPECT_FALSE(checkpointed.resumed_from_checkpoint);

  // The report records the saves. This fixture converges before
  // max_iterations, and the fixed-point iteration breaks out before its
  // boundary is captured, so with checkpoint_every=1 the saved boundaries
  // are 0 .. iterations-1: `iterations` saves, newest = iterations - 1.
  ASSERT_LT(checkpointed.iterations, with_ckpt.max_iterations);
  const obs::RunReport* report = clusterer.report();
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->checkpoint_enabled);
  EXPECT_EQ(report->checkpoint_saves, checkpointed.iterations);
  EXPECT_EQ(report->checkpoint_last_iteration, checkpointed.iterations - 1);

  std::vector<std::string> files;
  ASSERT_TRUE(ListCheckpointFiles(dir, &files).ok());
  EXPECT_EQ(files.size(), 2u);

  // Resuming from the completed run's final checkpoint re-detects the
  // fixed point and lands on the identical clustering.
  CluseqOptions resume = with_ckpt;
  resume.resume = true;
  ClusteringResult resumed;
  ASSERT_TRUE(RunCluseq(db, resume, &resumed).ok());
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  ExpectIdenticalResults(plain, resumed);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, EveryZeroCadenceWritesOnlyBoundaryAndFinal) {
  SequenceDatabase db = PlantedDb();
  const std::string dir = MakeTempDir("cluseq_ckpt_cadence");
  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  o.checkpoint_every = 3;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  std::vector<std::string> files;
  ASSERT_TRUE(ListCheckpointFiles(dir, &files).ok());
  EXPECT_LE(files.size(), 2u);
  // Boundaries 1 .. iterations-1 are captured (the fixed-point iteration
  // breaks before its capture); flushes land on the cadence, so the newest
  // file is the largest multiple of 3 at or below iterations - 1.
  ASSERT_LT(result.iterations, o.max_iterations);
  ClustererCheckpoint newest;
  ASSERT_TRUE(LoadCheckpointFile(files[0], &newest).ok());
  EXPECT_EQ(newest.iteration,
            ((result.iterations - 1) / o.checkpoint_every) *
                o.checkpoint_every);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, ResumeRequiresDirAndEveryZeroDisables) {
  SequenceDatabase db = PlantedDb();
  CluseqOptions o = FastOptions();
  o.resume = true;  // Without checkpoint_dir: invalid.
  ClusteringResult result;
  EXPECT_TRUE(RunCluseq(db, o, &result).IsInvalidArgument());

  const std::string dir = MakeTempDir("cluseq_ckpt_disabled");
  o = FastOptions();
  o.checkpoint_dir = dir;
  o.checkpoint_every = 0;  // Directory set but cadence 0: fully disabled.
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  std::vector<std::string> files;
  EXPECT_TRUE(ListCheckpointFiles(dir, &files).IsNotFound());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, ResumeFromEmptyDirectoryStartsFresh) {
  SequenceDatabase db = PlantedDb();
  ClusteringResult plain;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &plain).ok());

  const std::string dir = MakeTempDir("cluseq_ckpt_fresh");
  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir + "/nonexistent";
  o.resume = true;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());
  EXPECT_FALSE(result.resumed_from_checkpoint);
  ExpectIdenticalResults(plain, result);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, WrongCorpusIsRejected) {
  SequenceDatabase db = PlantedDb(11);
  const std::string dir = MakeTempDir("cluseq_ckpt_corpus");
  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());

  SequenceDatabase other = PlantedDb(12);
  o.resume = true;
  EXPECT_TRUE(RunCluseq(other, o, &result).IsFailedPrecondition());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, WrongAlgorithmicOptionsAreRejected) {
  SequenceDatabase db = PlantedDb();
  const std::string dir = MakeTempDir("cluseq_ckpt_opts");
  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());

  CluseqOptions changed = o;
  changed.resume = true;
  changed.rng_seed += 1;
  EXPECT_TRUE(RunCluseq(db, changed, &result).IsFailedPrecondition());

  // Perf switches are not identity: resuming with them flipped is fine.
  CluseqOptions perf = o;
  perf.resume = true;
  perf.num_threads = 3;
  perf.prefilter = !perf.prefilter;
  ClusteringResult resumed;
  ASSERT_TRUE(RunCluseq(db, perf, &resumed).ok());
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, StrictResumeSurfacesACorruptNewest) {
  SequenceDatabase db = PlantedDb();
  const std::string dir = MakeTempDir("cluseq_ckpt_strict");
  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  ClusteringResult result;
  ASSERT_TRUE(RunCluseq(db, o, &result).ok());

  std::vector<std::string> files;
  ASSERT_TRUE(ListCheckpointFiles(dir, &files).ok());
  ASSERT_EQ(files.size(), 2u);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(files[0], &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x01;
  ASSERT_TRUE(WriteFileAtomic(files[0], bytes).ok());

  CluseqOptions strict = o;
  strict.resume = true;
  strict.checkpoint_strict = true;
  EXPECT_TRUE(RunCluseq(db, strict, &result).IsCorruption());

  // Non-strict: falls back to the previous checkpoint and completes with
  // the exact uninterrupted clustering.
  ClusteringResult plain;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &plain).ok());
  CluseqOptions lax = o;
  lax.resume = true;
  ClusteringResult resumed;
  ASSERT_TRUE(RunCluseq(db, lax, &resumed).ok());
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  ExpectIdenticalResults(plain, resumed);
  std::filesystem::remove_all(dir);
}

TEST(CheckpointResumeTest, ResumeFromEveryIterationMatchesExactly) {
  // The in-process half of the chaos argument: resume from the checkpoint
  // of EVERY iteration boundary (as if killed right after that save) and
  // demand the bit-for-bit final clustering. chaos_resume_test.cc does the
  // same through real SIGKILLed processes.
  SequenceDatabase db = PlantedDb();
  ClusteringResult plain;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &plain).ok());
  ASSERT_GT(plain.iterations, 2u);

  // A converged run saves boundaries 0 .. iterations-1 (the fixed-point
  // iteration breaks before its capture), so that range is every file a
  // kill could leave as the newest.
  for (uint64_t boundary = 0; boundary < plain.iterations; ++boundary) {
    const std::string dir = MakeTempDir("cluseq_ckpt_every");
    // Recreate the exact file a run killed after `boundary` would leave:
    // run once with checkpointing and keep only that boundary's file.
    static uint64_t target;
    static std::string kept_bytes;
    target = boundary;
    kept_bytes.clear();
    SetCheckpointSaveHookForTest(
        +[](uint64_t iteration, const std::string& path) {
          if (iteration == target) {
            EXPECT_TRUE(ReadFileToString(path, &kept_bytes).ok());
          }
        });
    CluseqOptions o = FastOptions();
    o.checkpoint_dir = dir;
    ClusteringResult full;
    ASSERT_TRUE(RunCluseq(db, o, &full).ok());
    SetCheckpointSaveHookForTest(nullptr);
    ASSERT_FALSE(kept_bytes.empty()) << "boundary " << boundary;

    std::filesystem::remove_all(dir);
    ASSERT_TRUE(EnsureDirectory(dir).ok());
    ASSERT_TRUE(
        WriteFileAtomic(CheckpointFilePath(dir, boundary), kept_bytes).ok());
    CluseqOptions resume = o;
    resume.resume = true;
    ClusteringResult resumed;
    ASSERT_TRUE(RunCluseq(db, resume, &resumed).ok()) << "boundary "
                                                      << boundary;
    EXPECT_TRUE(resumed.resumed_from_checkpoint);
    ExpectIdenticalResults(plain, resumed);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace cluseq
