// Cooperative cancellation (util/cancellation.h + the Run() poll points):
// token semantics, the --max_seconds-style soft deadline, interrupted
// results with and without checkpointing, and the guarantee that a run
// cancelled at any iteration resumes to the exact clustering an
// uninterrupted run produces. The SIGKILL chaos sweep is in
// chaos_resume_test.cc; format-level corruption in checkpoint_test.cc.

#include "util/cancellation.h"

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/cluseq.h"
#include "obs/metrics.h"
#include "obs/run_report.h"
#include "seq/sequence_database.h"
#include "synth/dataset.h"

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

void ExpectIdenticalResults(const ClusteringResult& x,
                            const ClusteringResult& y) {
  EXPECT_EQ(x.clusters, y.clusters);
  EXPECT_EQ(x.best_cluster, y.best_cluster);
  EXPECT_EQ(x.best_log_sim, y.best_log_sim);
  EXPECT_EQ(x.final_log_threshold, y.final_log_threshold);
  EXPECT_EQ(x.num_unclustered, y.num_unclustered);
}

// Shared with the save hook (a C function pointer, so no captures).
CancellationToken* g_hook_token = nullptr;
uint64_t g_cancel_at_save = 0;
uint64_t g_hook_saves_seen = 0;

void CancelAtNthSave(uint64_t /*iteration*/, const std::string& /*path*/) {
  if (g_hook_saves_seen++ == g_cancel_at_save && g_hook_token != nullptr) {
    g_hook_token->RequestCancel();
  }
}

/// Installs CancelAtNthSave for one test body and always clears it.
class ScopedCancelHook {
 public:
  ScopedCancelHook(CancellationToken* token, uint64_t cancel_at) {
    g_hook_token = token;
    g_cancel_at_save = cancel_at;
    g_hook_saves_seen = 0;
    SetCheckpointSaveHookForTest(&CancelAtNthSave);
  }
  ~ScopedCancelHook() {
    SetCheckpointSaveHookForTest(nullptr);
    g_hook_token = nullptr;
  }
};

TEST(CancellationTokenTest, LatchesAndReports) {
  CancellationToken token;
  EXPECT_FALSE(token.cancel_requested());
  EXPECT_FALSE(token.Cancelled());
  token.RequestCancel();
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_TRUE(token.Cancelled());
  token.RequestCancel();  // Idempotent.
  EXPECT_TRUE(token.Cancelled());
}

TEST(CancellationTokenTest, ZeroTimeoutExpiresImmediately) {
  CancellationToken token;
  token.SetTimeout(0.0);
  EXPECT_TRUE(token.Cancelled());
  // The deadline alone never reports as an explicit request.
  EXPECT_FALSE(token.cancel_requested());

  CancellationToken negative;
  negative.SetTimeout(-5.0);
  EXPECT_TRUE(negative.Cancelled());
}

TEST(CancellationTokenTest, DistantTimeoutDoesNotFire) {
  CancellationToken token;
  token.SetTimeout(3600.0);
  EXPECT_FALSE(token.Cancelled());
  token.RequestCancel();  // An explicit request still wins instantly.
  EXPECT_TRUE(token.Cancelled());
}

TEST(CancellationRunTest, InterruptWithoutCheckpointingReportsLastBoundary) {
  SequenceDatabase db = PlantedDb();
  CancellationToken token;
  token.RequestCancel();

  CluseqOptions o = FastOptions();
  o.cancellation = &token;
  CluseqClusterer clusterer(db, o);
  ClusteringResult result;
  ASSERT_TRUE(clusterer.Run(&result).ok());

  // Cancelled before iteration 0 ran: the only completed boundary is the
  // empty pre-loop state.
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_EQ(result.num_unclustered, db.size());
  ASSERT_EQ(result.best_cluster.size(), db.size());
  for (int32_t c : result.best_cluster) EXPECT_EQ(c, -1);

  const obs::RunReport* report = clusterer.report();
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->interrupted);
  EXPECT_FALSE(report->checkpoint_enabled);
  EXPECT_EQ(report->checkpoint_saves, 0u);
}

TEST(CancellationRunTest, PreCancelledCheckpointedRunResumesToFullResult) {
  SequenceDatabase db = PlantedDb();
  ClusteringResult plain;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &plain).ok());

  const std::string dir = MakeTempDir("cancel_pre");
  CancellationToken token;
  token.RequestCancel();

  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  o.checkpoint_every = 1;
  o.cancellation = &token;
  ClusteringResult interrupted;
  ASSERT_TRUE(RunCluseq(db, o, &interrupted).ok());
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_EQ(interrupted.iterations, 0u);

  // The boundary-0 checkpoint was flushed, so a resumed run replays the
  // whole clustering and lands exactly where the plain run did.
  CluseqOptions resume = FastOptions();
  resume.checkpoint_dir = dir;
  resume.checkpoint_every = 1;
  resume.resume = true;
  ClusteringResult resumed;
  ASSERT_TRUE(RunCluseq(db, resume, &resumed).ok());
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  ExpectIdenticalResults(resumed, plain);
  std::filesystem::remove_all(dir);
}

TEST(CancellationRunTest, CancelAtEverySaveResumesIdentically) {
  SequenceDatabase db = PlantedDb();
  ClusteringResult plain;
  ASSERT_TRUE(RunCluseq(db, FastOptions(), &plain).ok());

  // With checkpoint_every=1 a converged run saves boundaries
  // 0 .. iterations-1 (the fixed-point iteration breaks before its
  // capture); request cancellation inside each save hook in turn and
  // demand the resumed run always reaches the plain result bit-for-bit.
  for (uint64_t cancel_at = 0; cancel_at < plain.iterations; ++cancel_at) {
    SCOPED_TRACE("cancel_at=" + std::to_string(cancel_at));
    const std::string dir = MakeTempDir("cancel_sweep");
    CancellationToken token;
    CluseqOptions o = FastOptions();
    o.checkpoint_dir = dir;
    o.checkpoint_every = 1;
    o.cancellation = &token;

    ClusteringResult interrupted;
    {
      ScopedCancelHook hook(&token, cancel_at);
      CluseqClusterer clusterer(db, o);
      ASSERT_TRUE(clusterer.Run(&interrupted).ok());
      ASSERT_TRUE(interrupted.interrupted);
      const obs::RunReport* report = clusterer.report();
      ASSERT_NE(report, nullptr);
      EXPECT_TRUE(report->interrupted);
      EXPECT_TRUE(report->checkpoint_enabled);
    }
    // The interrupted result is a prefix state: the boundary it reported
    // is the iteration the resumed run starts from.
    EXPECT_LE(interrupted.iterations, plain.iterations);

    CluseqOptions resume = FastOptions();
    resume.checkpoint_dir = dir;
    resume.checkpoint_every = 1;
    resume.resume = true;
    ClusteringResult resumed;
    ASSERT_TRUE(RunCluseq(db, resume, &resumed).ok());
    EXPECT_FALSE(resumed.interrupted);
    EXPECT_TRUE(resumed.resumed_from_checkpoint);
    EXPECT_EQ(resumed.iterations, plain.iterations);
    ExpectIdenticalResults(resumed, plain);
    std::filesystem::remove_all(dir);
  }
}

TEST(CancellationRunTest, InterruptedRunServesNoClassify) {
  // Cancelled after iteration 1's boundary: the clusterer still holds live
  // clusters, but an interrupted run never serves them — Classify reports
  // no model rather than scoring trees the run abandoned.
  SequenceDatabase db = PlantedDb();
  const std::string dir = MakeTempDir("cancel_classify");
  CancellationToken token;
  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  o.checkpoint_every = 1;
  o.cancellation = &token;
  ScopedCancelHook hook(&token, /*cancel_at=*/1);
  CluseqClusterer clusterer(db, o);
  ClusteringResult result;
  ASSERT_TRUE(clusterer.Run(&result).ok());
  ASSERT_TRUE(result.interrupted);
  ASSERT_FALSE(clusterer.clusters().empty());
  for (size_t s = 0; s < db.size(); ++s) {
    double log_sim = 0.0;
    EXPECT_EQ(clusterer.Classify(db[s], &log_sim), -1) << "sequence " << s;
    EXPECT_EQ(log_sim, -std::numeric_limits<double>::infinity())
        << "sequence " << s;
  }
  std::filesystem::remove_all(dir);
}

TEST(CancellationRunTest, ResumeBumpsTheResumesCounter) {
  SequenceDatabase db = PlantedDb();
  const std::string dir = MakeTempDir("cancel_counter");
  obs::Counter& resumes =
      obs::MetricsRegistry::Get().GetCounter("checkpoint.resumes");
  const uint64_t before = resumes.Value();

  CluseqOptions o = FastOptions();
  o.checkpoint_dir = dir;
  o.checkpoint_every = 1;
  ClusteringResult first;
  ASSERT_TRUE(RunCluseq(db, o, &first).ok());
  EXPECT_EQ(resumes.Value(), before);  // A fresh run is not a resume.

  o.resume = true;
  ClusteringResult resumed;
  ASSERT_TRUE(RunCluseq(db, o, &resumed).ok());
  EXPECT_TRUE(resumed.resumed_from_checkpoint);
  EXPECT_EQ(resumes.Value(), before + 1);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cluseq
