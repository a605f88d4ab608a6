// The two clustering workloads: whole CluseqClusterer::Run calls on a
// seeded synthetic corpus read back from .sqdb, followed by classifying
// the corpus against the clusters found (the serving call a user makes
// next). Every timed run is a forked child, so its peak RSS is its own.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/cluseq.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay.h"
#include "seq/seqdb_reader.h"
#include "seq/seqdb_writer.h"
#include "synth/dataset.h"

namespace perfbench {

using cluseq::ClusteringResult;
using cluseq::CluseqClusterer;
using cluseq::CluseqOptions;
using cluseq::SeqDbReader;
using cluseq::SyntheticDatasetOptions;

namespace {

// Timed runs per invocation, at least (more while --seconds lasts).
constexpr size_t kMinRuns = 3;
// Queries per serving measurement after each clustering run.
constexpr size_t kClassifyQueries = 100000;

struct ClusterWorkload {
  SyntheticDatasetOptions synth;
  CluseqOptions options;
};

// Fingerprint of everything a clustering run decides.
double ResultFingerprint(const ClusteringResult& r) {
  Fingerprint fp;
  fp.Add(r.clusters.size());
  for (const auto& members : r.clusters) {
    fp.Add(members.size());
    for (size_t s : members) fp.Add(s);
  }
  for (int32_t b : r.best_cluster) {
    fp.Add(static_cast<uint64_t>(static_cast<int64_t>(b)));
  }
  for (double v : r.best_log_sim) fp.AddDouble(v);
  fp.AddDouble(r.final_log_threshold);
  fp.Add(r.iterations);
  return fp.Value();
}

// Classifies every corpus sequence against the finished clusters on the
// pool, enough rounds for at least kClassifyQueries queries.
void ClassifyCorpus(const CluseqClusterer& clusterer, const SeqDbReader& db,
                    const ClusteringResult& result, Metrics* m) {
  const size_t n = db.size();
  const size_t rounds = (kClassifyQueries + n - 1) / n;
  std::vector<int32_t> pred(n, -1);
  std::vector<double> value(n, 0.0);
  MeasureServing(
      n * rounds, [&](size_t i) -> uint64_t { return db.Length(i % n); },
      [&](size_t i) {
        double log_sim = 0.0;
        const int32_t c = clusterer.Classify(db.Symbols(i % n), &log_sim);
        if (i < n) {
          pred[i] = c;
          value[i] = log_sim;
        }
      },
      m);
  Fingerprint fp;
  for (size_t s = 0; s < n; ++s) {
    fp.Add(static_cast<uint64_t>(static_cast<int64_t>(pred[s])));
    fp.AddDouble(value[s]);
  }
  const std::vector<int32_t> labels =
      MajorityLabels(db, result.best_cluster, result.clusters.size());
  (*m)["classify_fp"] = fp.Value();
  (*m)["classify_accuracy"] = LabelAccuracy(db, pred, labels);
}

// One whole run: cluster, evaluate, classify. With `trace`, the run is
// traced and the layers are replayed on its converged state.
Status ClusterOnce(const SeqDbReader& db, const CluseqOptions& options,
                   bool trace, const std::string& bank_path, Metrics* m) {
  cluseq::obs::MetricsRegistry& registry = cluseq::obs::MetricsRegistry::Get();
  const uint64_t joins0 = registry.Snapshot().CounterValue("cluseq.joins");
  cluseq::obs::TraceRecorder& recorder = cluseq::obs::TraceRecorder::Get();
  if (trace) recorder.Start();
  CluseqClusterer clusterer(db, options);
  ClusteringResult result;
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  Status st = clusterer.Run(&result);
  const double wall = NowSeconds() - t0;
  const double cpu = ProcessCpuSeconds() - cpu0;
  if (trace) recorder.Stop();
  if (!st.ok()) return st;
  if (result.clusters.empty()) {
    return Status::Internal("run ended with no clusters");
  }
  (*m)["wall_s"] = wall;
  (*m)["cpu_s"] = cpu;
  (*m)["fp"] = ResultFingerprint(result);
  (*m)["iterations"] = static_cast<double>(result.iterations);
  (*m)["clusters"] = static_cast<double>(result.clusters.size());
  const cluseq::EvaluationSummary eval =
      cluseq::Evaluate(db, result.best_cluster);
  (*m)["nmi"] = eval.nmi;
  (*m)["correct_frac"] = eval.correct_fraction;
  ClassifyCorpus(clusterer, db, result, m);
  if (!trace) return Status::OK();

  // Phase accounting for the traced run: IterationStats sums, the self
  // times of the program's own spans, and what no phase claims.
  Metrics& r = *m;
  double seed_s = 0, scan_s = 0, join_s = 0, consolidate_s = 0;
  size_t refrozen = 0, max_clusters = 0;
  for (const cluseq::IterationStats& it : result.iteration_stats) {
    seed_s += it.seed_seconds;
    scan_s += it.scan_seconds;
    join_s += it.join_seconds;
    consolidate_s += it.consolidate_seconds;
    refrozen += it.refrozen_clusters;
    max_clusters = std::max(max_clusters, it.clusters_after);
  }
  const auto events = recorder.Collect();
  const std::map<std::string, double> self = SpanSelfSeconds(events);
  const std::map<std::string, double> total = SpanTotalSeconds(events);
  const auto get = [](const std::map<std::string, double>& map,
                      const char* name) {
    const auto it = map.find(name);
    return it == map.end() ? 0.0 : it->second;
  };
  r["run.iterations"] = static_cast<double>(result.iterations);
  r["run.max_clusters"] = static_cast<double>(max_clusters);
  r["run.refrozen_clusters"] = static_cast<double>(refrozen);
  r["run.joins"] = static_cast<double>(
      registry.Snapshot().CounterValue("cluseq.joins") - joins0);
  r["run.seed_s"] = seed_s;
  r["run.scan_s"] = scan_s;
  r["run.join_s"] = join_s;
  r["run.consolidate_s"] = consolidate_s;
  r["run.rebuild_psts_s"] = get(self, "cluseq.rebuild_psts");
  r["run.estimate_threshold_s"] = get(self, "cluseq.estimate_threshold");
  r["run.prefilter_scan_s"] = get(self, "cluseq.prefilter_scan");
  r["run.adjust_t_s"] = get(self, "cluseq.adjust_t");
  r["run.select_seeds_s"] = get(self, "seeding.select_seeds");
  r["run.scan_freeze_assemble_s"] = get(self, "cluseq.scan");
  r["run.unattributed_s"] =
      wall - (seed_s + scan_s + join_s + consolidate_s +
              get(total, "cluseq.adjust_t") +
              get(total, "cluseq.estimate_threshold"));

  ReplaySpec spec;
  spec.train = &db;
  spec.queries = &db;
  spec.background = &clusterer.background();
  spec.pst = options.pst;
  spec.pst.significance_threshold = options.significance_threshold;
  spec.signature_budget_bytes = options.signature_budget_bytes;
  spec.l15_prefix = options.prefilter_prefix;
  for (const cluseq::Cluster& c : clusterer.clusters()) {
    spec.members.push_back(c.members());
    spec.segment_models.push_back(
        c.frozen() != nullptr ? c.frozen()
                              : std::make_shared<const cluseq::FrozenPst>(
                                    c.pst(), clusterer.background()));
  }
  for (size_t i = 0; i < db.size(); ++i) spec.query_ids.push_back(i);
  spec.log_t = result.final_log_threshold;
  spec.censor_floor = result.final_log_threshold - options.adjust_bound_window;
  spec.histogram_buckets = options.histogram_buckets;
  spec.bank_path = bank_path;
  spec.seeds = options.initial_clusters;
  spec.sample_multiplier = options.sample_multiplier;
  spec.rng_seed = options.rng_seed;
  return ReplayLayers(spec, m);
}

Status RunClusterWorkload(const ClusterWorkload& w, const Invocation& inv,
                          Outcome* out) {
  const std::string corpus_path = inv.work_dir + "/corpus.sqdb";
  {
    const cluseq::SequenceDatabase generated =
        RelabelSymbols(cluseq::MakeSyntheticDataset(w.synth), inv.seed);
    Status st = cluseq::WriteSeqDb(generated, corpus_path);
    if (!st.ok()) return st;
  }

  // Set-up: opening the corpus (index + data CRC verification), repeated.
  std::vector<double> opens;
  SeqDbReader db;
  for (int i = 0; i < 31; ++i) {
    SeqDbReader reader;
    const double t0 = NowSeconds();
    Status st = SeqDbReader::Open(corpus_path, &reader);
    opens.push_back(NowSeconds() - t0);
    if (!st.ok()) return st;
    if (i == 0) db = std::move(reader);
  }
  size_t symbols = 0;
  for (size_t i = 0; i < db.size(); ++i) symbols += db.Length(i);
  Metrics& e2e = out->metrics;
  Metrics& detail = out->detail;
  e2e["setup_s"] = Median(opens);

  // Timed runs.
  std::vector<Metrics> runs;
  const double start = NowSeconds();
  while (runs.size() < kMinRuns || NowSeconds() - start < inv.seconds) {
    Metrics m;
    ++out->attempted;
    if (!RunInChild("timed run",
                    [&](Metrics* r) {
                      return ClusterOnce(db, w.options, false, "", r);
                    },
                    &m)) {
      ++out->failed;
      if (out->failed > 1) break;
      continue;
    }
    runs.push_back(std::move(m));
  }
  if (runs.empty()) return Status::Internal("no timed run succeeded");
  const auto column = [&](const char* name) {
    std::vector<double> v;
    for (const Metrics& m : runs) v.push_back(m.at(name));
    return v;
  };
  e2e["cluster_s"] = Median(column("wall_s"));
  e2e["peak_rss_mb"] = Median(column("peak_rss_mb"));
  e2e["nmi"] = Median(column("nmi"));
  e2e["correct_frac"] = Median(column("correct_frac"));
  e2e["classify_seq_per_s"] = Median(column("classify_seq_per_s"));
  e2e["classify_p50_us"] = Median(column("classify_p50_us"));
  e2e["classify_p99_us"] = Median(column("classify_p99_us"));
  e2e["classify_accuracy"] = Median(column("classify_accuracy"));
  detail["timed_runs"] = static_cast<double>(runs.size());
  detail["iterations"] = runs.front().at("iterations");
  detail["clusters"] = runs.front().at("clusters");
  detail["sequences"] = static_cast<double>(db.size());
  for (size_t i = 0; i < runs.size(); ++i) {
    detail["cluster_s." + std::to_string(i)] = runs[i].at("wall_s");
  }

  // Correctness gate (untimed): every timed run, the exhaustive oracle
  // (prefilter off) and a 1-thread run of the same options must decide
  // the same clustering and the same classifications.
  const double want_fp = runs.front().at("fp");
  const double want_classify = runs.front().at("classify_fp");
  const auto agrees = [&](const Metrics& m) {
    return m.at("fp") == want_fp && m.at("classify_fp") == want_classify;
  };
  for (const Metrics& m : runs) {
    if (!agrees(m)) ++out->failed;
  }
  const auto gate_run = [&](const char* what, const CluseqOptions& options,
                            bool trace, Metrics* m) {
    ++out->attempted;
    if (!RunInChild(what,
                    [&](Metrics* r) {
                      return ClusterOnce(db, options, trace,
                                         inv.work_dir + "/replay.fbank", r);
                    },
                    m) ||
        !agrees(*m)) {
      std::fprintf(stderr, "perfbench: %s disagrees with the timed runs\n",
                   what);
      ++out->failed;
      return false;
    }
    return true;
  };
  CluseqOptions oracle = w.options;
  oracle.prefilter = false;
  Metrics oracle_run;
  gate_run("oracle run", oracle, false, &oracle_run);
  CluseqOptions serial = w.options;
  serial.num_threads = 1;
  Metrics serial_run;
  const bool serial_ok = gate_run("1-thread run", serial, false, &serial_run);
  if (!inv.trace) return Status::OK();

  // Traced pass: per-layer metrics replace the end-to-end ones. Tracing
  // must not change the result either.
  Metrics traced;
  if (!gate_run("traced run", w.options, true, &traced) && traced.empty()) {
    return Status::Internal("traced run failed");
  }
  Metrics layers;
  layers["seq.open_s"] = Median(opens);
  layers["seq.records"] = static_cast<double>(db.size());
  layers["seq.symbols"] = static_cast<double>(symbols);
  for (const auto& [name, value] : traced) {
    if (name.find('.') != std::string::npos) layers[name] = value;
  }
  const double cluster_s = e2e.at("cluster_s");
  layers["run.cpu_s"] = Median(column("cpu_s"));
  layers["run.par_eff"] =
      layers["run.cpu_s"] / (cluster_s * static_cast<double>(kThreads));
  layers["run.speedup_4t"] =
      serial_ok ? serial_run.at("wall_s") / cluster_s : 0.0;
  layers["trace.overhead_frac"] = traced.at("wall_s") / cluster_s - 1.0;
  detail["traced_cluster_s"] = traced.at("wall_s");
  out->metrics = std::move(layers);
  return Status::OK();
}

}  // namespace

Status RunClusterFewLarge(const Invocation& inv, Outcome* out) {
  // The quick-start corpus: `cluseq_cli generate --kind=synthetic
  // --scale=0.3 --seed=7` (10 sources × 35 sequences, 20 symbols, average
  // length 300, 5% outliers), clustered with default options.
  ClusterWorkload w;
  w.synth.num_clusters = 10;
  w.synth.sequences_per_cluster = 35;
  w.synth.avg_length = 300;
  w.synth.seed = 7;
  w.options.num_threads = kThreads;
  return RunClusterWorkload(w, inv, out);
}

Status RunClusterManySmall(const Invocation& inv, Outcome* out) {
  // Many small sources: 256 × 10 sequences of length ~150 plus 5%
  // outliers, k = 256, depth 6, c = 10 with clusters of fewer than 4
  // unique members dismissed, fixed log t = 20 with the §4.6 adjuster off,
  // at most 12 iterations.
  ClusterWorkload w;
  w.synth.num_clusters = 256;
  w.synth.sequences_per_cluster = 10;
  w.synth.avg_length = 150;
  w.synth.seed = 1;
  w.options.num_threads = kThreads;
  w.options.initial_clusters = 256;
  w.options.significance_threshold = 10;
  w.options.min_unique_members = 4;
  w.options.pst.max_depth = 6;
  w.options.auto_initial_threshold = false;
  w.options.similarity_threshold = std::exp(20.0);
  w.options.adjust_threshold = false;
  w.options.max_iterations = 12;
  return RunClusterWorkload(w, inv, out);
}

}  // namespace perfbench
