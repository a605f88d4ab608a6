// Prefilter A/B: the multi-level pruned scan (ScanPrefilter, whose
// survivors run FrozenBank::ScanCandidates) against the exhaustive ScanAll
// oracle on the same bank, same threshold, same corpus, at
// k = {64, 256, 1024, 4096, 8192} cluster models.
//
// The workload mirrors a mid-run CLUSEQ iteration honestly: one depth-5 PST
// per ground-truth synthetic cluster (trained on that cluster's members),
// and a threshold set to the median per-sequence best score from the exact
// scan — so roughly half the corpus joins something, and the other half is
// what the prefilter should be skipping. Both arms run on all hardware
// threads.
//
// At k >= 4096 the exhaustive arm would dominate the bench's own runtime
// (n·k pairs), so those points train one sequence per cluster and run the
// oracle — threshold derivation, equivalence gate, and off-arm timing — on
// a deterministic ~512-sequence stride subset, while the prefiltered arm
// still covers every sequence. Per-sequence costs (what the near-constant
// claim is about) stay directly comparable across all k.
//
// Before timing, every covered sequence's on/off results are checked for
// the prefilter contract: identical join sets, bit-identical results on
// joined pairs, identical per-sequence maxima, and an identical
// first-strict-max argmax; any mismatch fails the bench.
//
// Emitted per k: scan times, speedup, the pruning funnel (skip ratio,
// level-1.5 truncated-DP drops, pairs that reached the exact sparse DP,
// residual rescans), and per-sequence on-arm cost. `near_constant_ratio_k4096` = per-seq cost at k=4096 over k=1024 —
// the headline "near-constant in k" number CI gates on — plus the
// `prefilter.bound_slack` histogram buckets from the run.
//
// skip_ratio is reported as measured — if the bounds are too loose to skip
// anything on this corpus, the JSON says so rather than hiding it.
//
// Emits BENCH_prefilter.json. Usage: micro_prefilter [--scale=F] [--seed=N]
// [--csv]

#include "bench/bench_common.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "util/stopwatch.h"

using namespace cluseq;
using namespace cluseq_bench;

namespace {

struct KPoint {
  size_t k = 0;
  size_t n = 0;
  double per_seq_on_us = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintHeader("Prefilter A/B — pruned vs exhaustive cluster scan",
              "scan-phase perf target (not a paper table); admissible-bound "
              "pruning in front of FrozenBank::ScanAll");

  const size_t threads = HardwareThreads();
  std::printf("hardware threads: %zu, SIMD: %s\n\n", threads,
              FrozenBank::SimdAvailable() ? "avx2" : "scalar");

  ReportTable table({"k", "n", "oracle_n", "tier", "log_t", "off (s)",
                     "on (s)", "speedup", "skip%", "per-seq on (us)"});
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<KPoint> points;
  bool all_identical = true;

  for (size_t k : {size_t{64}, size_t{256}, size_t{1024}, size_t{4096},
                   size_t{8192}}) {
    const bool big = k >= 4096;
    SyntheticDatasetOptions synth;
    synth.num_clusters = k;
    synth.sequences_per_cluster = big ? 1 : Scaled(3, args.scale);
    synth.alphabet_size = 20;
    synth.avg_length = 120;
    synth.outlier_fraction = 0.05;
    synth.seed = args.seed + k;
    const SequenceDatabase db = MakeSyntheticDataset(synth);
    const size_t n = db.size();

    // One model per ground-truth cluster, trained on its members — the
    // same shape the clusterer's bank has mid-run.
    PstOptions pst_options;
    pst_options.max_depth = 5;
    pst_options.significance_threshold = 4;
    const BackgroundModel background = BackgroundModel::FromDatabase(db);
    std::vector<Pst> psts(k, Pst(db.alphabet().size(), pst_options));
    for (size_t i = 0; i < n; ++i) {
      const Label label = db.LabelOf(i);
      if (label == kNoLabel) continue;
      psts[static_cast<size_t>(label) % k].InsertSequence(db.Symbols(i));
    }
    std::vector<std::shared_ptr<const FrozenPst>> models(k);
    ParallelFor(k, threads, [&](size_t m) {
      models[m] = std::make_shared<const FrozenPst>(psts[m], background);
    });
    const FrozenBank bank(models);

    // Oracle coverage: every sequence at small k, a deterministic stride
    // subset at big k (the exhaustive arm is the bench bottleneck there).
    std::vector<size_t> oracle;
    const size_t oracle_target = big ? std::min<size_t>(n, 512) : n;
    const size_t stride = std::max<size_t>(1, n / oracle_target);
    for (size_t s = 0; s < n && oracle.size() < oracle_target; s += stride) {
      oracle.push_back(s);
    }
    const size_t on_count = oracle.size();
    const auto oracle_cost = [&](size_t j) -> uint64_t {
      return db.Length(oracle[j]);
    };

    // Exact reference scan; its per-sequence best scores set the threshold.
    std::vector<SimilarityResult> off_sims(on_count * k);
    ParallelForWeighted(on_count, threads, oracle_cost, [&](size_t j) {
      bank.ScanAll(db.Symbols(oracle[j]), off_sims.data() + j * k);
    });
    std::vector<double> best(on_count);
    for (size_t j = 0; j < on_count; ++j) {
      double b = off_sims[j * k].log_sim;
      for (size_t m = 1; m < k; ++m) {
        b = std::max(b, off_sims[j * k + m].log_sim);
      }
      best[j] = b;
    }
    std::vector<double> sorted_best = best;
    std::sort(sorted_best.begin(), sorted_best.end());
    const double log_t = std::max(0.0, sorted_best[on_count / 2]);

    // Correctness gate (untimed): the prefilter contract versus the oracle
    // on every covered sequence.
    const ScanPrefilter prefilter(&bank);
    std::atomic<bool> identical{true};
    ParallelForWeighted(on_count, threads, oracle_cost, [&](size_t j) {
      const size_t s = oracle[j];
      thread_local std::vector<SimilarityResult> row;
      if (row.size() < k) row.resize(k);
      prefilter.ScanAllWithThreshold(db.Symbols(s), log_t, row.data());
      double on_best = -1e300;
      double off_best = -1e300;
      for (size_t m = 0; m < k; ++m) {
        const SimilarityResult& off = off_sims[j * k + m];
        const SimilarityResult& on = row[m];
        const bool off_joins = off.log_sim >= log_t;
        const bool on_joins = on.log_sim >= log_t;
        if (off_joins != on_joins ||
            (off_joins &&
             (on.log_sim != off.log_sim || on.best_begin != off.best_begin ||
              on.best_end != off.best_end))) {
          identical.store(false);
        }
        on_best = std::max(on_best, on.log_sim);
        off_best = std::max(off_best, off.log_sim);
      }
      if (on_best != off_best) identical.store(false);
      // Argmax path: pruned BestModel vs the exhaustive first-strict-max.
      double pf_best = 0.0;
      const int32_t pf_pos = prefilter.BestModel(db.Symbols(s), &pf_best);
      double ex_best = -std::numeric_limits<double>::infinity();
      int32_t ex_pos = -1;
      for (size_t m = 0; m < k; ++m) {
        if (off_sims[j * k + m].log_sim > ex_best) {
          ex_best = off_sims[j * k + m].log_sim;
          ex_pos = static_cast<int32_t>(m);
        }
      }
      if (pf_pos != ex_pos || (ex_pos >= 0 && pf_best != ex_best)) {
        identical.store(false);
      }
    });
    if (!identical.load()) {
      std::fprintf(stderr,
                   "EQUIVALENCE VIOLATION at k=%zu: prefiltered scan "
                   "disagrees with the exhaustive oracle\n",
                   k);
      all_identical = false;
    }

    // Timed A/B (one warm pass each already happened above). The off arm
    // times the oracle subset; the on arm covers every sequence.
    Stopwatch off_timer;
    ParallelForWeighted(on_count, threads, oracle_cost, [&](size_t j) {
      bank.ScanAll(db.Symbols(oracle[j]), off_sims.data() + j * k);
    });
    const double off_seconds = off_timer.ElapsedSeconds();

    const auto cost = [&db](size_t s) -> uint64_t { return db.Length(s); };
    std::atomic<uint64_t> skipped{0};
    std::atomic<uint64_t> l15_pruned{0};
    std::atomic<uint64_t> rescans{0};
    Stopwatch on_timer;
    ParallelForWeighted(n, threads, cost, [&](size_t s) {
      thread_local std::vector<SimilarityResult> row;
      if (row.size() < k) row.resize(k);
      PrefilterScanStats stats;
      prefilter.ScanAllWithThreshold(db.Symbols(s), log_t, row.data(),
                                     &stats);
      skipped.fetch_add(stats.candidates_skipped, std::memory_order_relaxed);
      l15_pruned.fetch_add(stats.l15_pruned, std::memory_order_relaxed);
      rescans.fetch_add(stats.residual_rescans, std::memory_order_relaxed);
    });
    const double on_seconds = on_timer.ElapsedSeconds();

    const double pairs = static_cast<double>(n) * static_cast<double>(k);
    const double per_seq_off =
        off_seconds / static_cast<double>(on_count);
    const double per_seq_on = on_seconds / static_cast<double>(n);
    const double speedup = per_seq_off / per_seq_on;
    const double skip_ratio = static_cast<double>(skipped.load()) / pairs;

    KPoint p;
    p.k = k;
    p.n = n;
    p.per_seq_on_us = per_seq_on * 1e6;
    points.push_back(p);

    table.AddRow({std::to_string(k), std::to_string(n),
                  std::to_string(on_count), bank.signature_tier_name(),
                  FormatDouble(log_t, 2), FormatDouble(off_seconds, 4),
                  FormatDouble(on_seconds, 4), FormatDouble(speedup, 2) + "x",
                  FormatDouble(100.0 * skip_ratio, 1),
                  FormatDouble(p.per_seq_on_us, 1)});

    const std::string tag = "k" + std::to_string(k);
    metrics.emplace_back(tag + "_num_sequences", static_cast<double>(n));
    metrics.emplace_back(tag + "_oracle_sequences",
                         static_cast<double>(on_count));
    metrics.emplace_back(tag + "_log_t", log_t);
    metrics.emplace_back(tag + "_scan_off_seconds", off_seconds);
    metrics.emplace_back(tag + "_scan_on_seconds", on_seconds);
    metrics.emplace_back(tag + "_per_seq_on_us", p.per_seq_on_us);
    metrics.emplace_back(tag + "_speedup", speedup);
    metrics.emplace_back(tag + "_skip_ratio", skip_ratio);
    // The pruning funnel, outermost level first. dp_candidates is what
    // actually reached the sparse DP (per covered pair).
    metrics.emplace_back(tag + "_l15_pruned",
                         static_cast<double>(l15_pruned.load()));
    metrics.emplace_back(
        tag + "_dp_candidates",
        pairs - static_cast<double>(skipped.load()));
    metrics.emplace_back(tag + "_residual_rescans",
                         static_cast<double>(rescans.load()));
  }

  EmitTable(table, args.csv);
  double speedup_k256 = 0.0;
  for (const auto& [key, value] : metrics) {
    if (key == "k256_speedup") speedup_k256 = value;
  }
  metrics.emplace_back("speedup_k256", speedup_k256);
  // The headline scaling claim: per-sequence prefiltered cost at k=4096
  // within a small factor of k=1024 (4x the models, ~flat cost).
  double per_seq_1024 = 0.0, per_seq_4096 = 0.0;
  for (const KPoint& p : points) {
    if (p.k == 1024) per_seq_1024 = p.per_seq_on_us;
    if (p.k == 4096) per_seq_4096 = p.per_seq_on_us;
  }
  const double near_constant =
      per_seq_1024 > 0.0 ? per_seq_4096 / per_seq_1024 : 0.0;
  metrics.emplace_back("near_constant_ratio_k4096", near_constant);
  // The run's bound-slack histogram (how far above the exact best score
  // the winning bound sat): the distribution that sized the default
  // level-1.5 prefix and the adjust window.
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Get().Snapshot();
  for (const auto& hist : snapshot.histograms) {
    if (hist.name != "prefilter.bound_slack") continue;
    for (size_t b = 0; b < hist.counts.size(); ++b) {
      const std::string le =
          b < hist.bounds.size() ? FormatDouble(hist.bounds[b], 1) : "inf";
      metrics.emplace_back("bound_slack_le_" + le,
                           static_cast<double>(hist.counts[b]));
    }
    metrics.emplace_back("bound_slack_count",
                         static_cast<double>(hist.total_count));
  }
  if (!WriteBenchJson("prefilter", metrics,
                      {{"identical", all_identical}})) {
    std::fprintf(stderr, "failed to write BENCH_prefilter.json\n");
    return 1;
  }
  std::printf("\nprefilter-on vs -off outputs identical: %s\n",
              all_identical ? "yes" : "NO");
  std::printf("scan-phase speedup at k=256: %.2fx\n", speedup_k256);
  std::printf("per-seq cost ratio k4096/k1024: %.2f\n", near_constant);
  std::printf("metrics -> BENCH_prefilter.json\n");
  return all_identical ? 0 : 1;
}
