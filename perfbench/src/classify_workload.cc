// The read-only serving workload: one PST per source label over a
// 1024-source corpus, saved once as .fbank; every timed pass loads the
// bank and scores ~100k held-out queries with ScanPrefilter::BestModel on
// the pool. Nothing is written to a PST after the build.

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <vector>

#include "bench.h"
#include "core/prefilter.h"
#include "eval/metrics.h"
#include "obs/trace.h"
#include "pst/bank_serialization.h"
#include "pst/frozen_bank.h"
#include "pst/frozen_pst.h"
#include "pst/pst.h"
#include "replay.h"
#include "seq/background_model.h"
#include "seq/seqdb_reader.h"
#include "seq/seqdb_writer.h"
#include "synth/dataset.h"
#include "util/thread_pool.h"

namespace perfbench {

using cluseq::FrozenBank;
using cluseq::FrozenPst;
using cluseq::Pst;
using cluseq::ScanPrefilter;
using cluseq::SeqDbReader;

namespace {

constexpr size_t kSources = 1024;
constexpr size_t kTrainPerSource = 3;
constexpr size_t kQueriesPerSource = 94;
// Every this-many-th query is checked against the exhaustive scan and
// feeds the layer replay.
constexpr size_t kOracleStride = 64;
// Model builds and serving passes per invocation, at least: cluster_s is
// the median over the builds, setup_s and the classify_* metrics medians
// over the passes.
constexpr size_t kMinRounds = 5;

cluseq::PstOptions ModelOptions() {
  cluseq::PstOptions options;
  options.max_depth = 5;
  options.significance_threshold = 4;
  return options;
}

// Members of each label's model, in label order.
std::vector<std::vector<size_t>> MembersByLabel(const SeqDbReader& train) {
  std::vector<std::vector<size_t>> members(kSources);
  for (size_t i = 0; i < train.size(); ++i) {
    const cluseq::Label label = train.LabelOf(i);
    if (label != cluseq::kNoLabel && static_cast<size_t>(label) < kSources) {
      members[static_cast<size_t>(label)].push_back(i);
    }
  }
  return members;
}

// Builds one model per label, freezes it and assembles the bank: the
// "clustering" of this workload, whose clusters are the source labels.
// Writes the bank to `bank_path` unless it is empty.
Status BuildBank(const std::string& train_path, const std::string& bank_path,
                 Metrics* m) {
  SeqDbReader train;
  Status st = SeqDbReader::Open(train_path, &train);
  if (!st.ok()) return st;
  const double t0 = NowSeconds();
  const cluseq::BackgroundModel background =
      cluseq::BackgroundModel::FromDatabase(train);
  const std::vector<std::vector<size_t>> members = MembersByLabel(train);
  std::vector<std::shared_ptr<const FrozenPst>> models(kSources);
  cluseq::ParallelFor(kSources, kThreads, [&](size_t c) {
    Pst pst(train.alphabet().size(), ModelOptions());
    for (size_t s : members[c]) pst.InsertSequence(train.Symbols(s));
    models[c] = std::make_shared<const FrozenPst>(pst, background);
  });
  const FrozenBank bank(std::move(models));
  (*m)["build_s"] = NowSeconds() - t0;
  return bank_path.empty() ? Status::OK()
                           : cluseq::SaveFrozenBankToFile(bank, bank_path);
}

struct Serving {
  SeqDbReader queries;
  FrozenBank bank;
  double open_s = 0.0;
  double load_s = 0.0;
};

Status OpenServing(const std::string& queries_path,
                   const std::string& bank_path, Serving* s) {
  double t0 = NowSeconds();
  Status st = SeqDbReader::Open(queries_path, &s->queries);
  s->open_s = NowSeconds() - t0;
  if (!st.ok()) return st;
  t0 = NowSeconds();
  st = cluseq::LoadFrozenBankFromFile(bank_path, &s->bank);
  s->load_s = NowSeconds() - t0;
  if (!st.ok()) return st;
  if (s->bank.num_models() != kSources) {
    return Status::Internal("bank has the wrong number of models");
  }
  return Status::OK();
}

// One serving pass: load, then the argmax of every query on the pool.
Status ClassifyPass(const std::string& queries_path,
                    const std::string& bank_path, Metrics* m) {
  Serving s;
  Status st = OpenServing(queries_path, bank_path, &s);
  if (!st.ok()) return st;
  const SeqDbReader& q = s.queries;
  const size_t n = q.size();
  const ScanPrefilter prefilter(&s.bank);
  std::vector<int32_t> pred(n, -1);
  std::vector<double> value(n, 0.0);
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  MeasureServing(
      n, [&](size_t i) -> uint64_t { return q.Length(i); },
      [&](size_t i) { pred[i] = prefilter.BestModel(q.Symbols(i), &value[i]); },
      m);
  const double wall = NowSeconds() - t0;
  Fingerprint fp;
  for (size_t i = 0; i < n; ++i) {
    fp.Add(static_cast<uint64_t>(static_cast<int64_t>(pred[i])));
    fp.AddDouble(value[i]);
  }
  std::vector<int32_t> identity(kSources);
  for (size_t c = 0; c < kSources; ++c) identity[c] = static_cast<int32_t>(c);
  const cluseq::EvaluationSummary eval = cluseq::Evaluate(q, pred);
  Metrics& r = *m;
  r["open_s"] = s.open_s;
  r["setup_s"] = s.open_s + s.load_s;
  r["wall_s"] = wall;
  r["cpu_s"] = ProcessCpuSeconds() - cpu0;
  r["fp"] = fp.Value();
  r["classify_accuracy"] = LabelAccuracy(q, pred, identity);
  r["nmi"] = eval.nmi;
  r["correct_frac"] = eval.correct_fraction;
  return Status::OK();
}

std::vector<size_t> OracleSubset(size_t n) {
  std::vector<size_t> ids;
  for (size_t i = 0; i < n; i += kOracleStride) ids.push_back(i);
  return ids;
}

// Correctness gate: on a stride subset, the pruned argmax must equal the
// exhaustive FrozenBank::ScanAll argmax (first strict maximum) and value.
// Also times that subset at 1 and at kThreads threads.
Status GateSubset(const std::string& queries_path, const std::string& bank_path,
                  Metrics* m) {
  Serving s;
  Status st = OpenServing(queries_path, bank_path, &s);
  if (!st.ok()) return st;
  const SeqDbReader& q = s.queries;
  const std::vector<size_t> ids = OracleSubset(q.size());
  const ScanPrefilter prefilter(&s.bank);
  std::atomic<uint64_t> mismatches{0};
  cluseq::ParallelFor(ids.size(), kThreads, [&](size_t j) {
    const auto symbols = q.Symbols(ids[j]);
    double pruned_value = 0.0;
    const int32_t pruned = prefilter.BestModel(symbols, &pruned_value);
    const std::vector<cluseq::SimilarityResult> all = s.bank.ScanAll(symbols);
    int32_t best = -1;
    double best_value = -std::numeric_limits<double>::infinity();
    for (size_t c = 0; c < all.size(); ++c) {
      if (all[c].log_sim > best_value) {
        best_value = all[c].log_sim;
        best = static_cast<int32_t>(c);
      }
    }
    if (pruned != best || (best >= 0 && pruned_value != best_value)) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const auto time_subset = [&](size_t threads) {
    const double t0 = NowSeconds();
    cluseq::ParallelForWeighted(
        ids.size(), threads,
        [&](size_t j) -> uint64_t { return q.Length(ids[j]); },
        [&](size_t j) {
          double v = 0.0;
          prefilter.BestModel(q.Symbols(ids[j]), &v);
        });
    return NowSeconds() - t0;
  };
  // Parallel, serial, parallel again: the two parallel timings bracket
  // any warm-up the serial one would otherwise be charged or spared.
  const double parallel = time_subset(kThreads);
  const double serial = time_subset(1);
  (*m)["speedup_4t"] = serial / (0.5 * (parallel + time_subset(kThreads)));
  (*m)["checked"] = static_cast<double>(ids.size());
  (*m)["mismatches"] = static_cast<double>(mismatches.load());
  return Status::OK();
}

// Traced pass: a traced serving pass (for the tracing overhead), then the
// layer replay of the bank build and the scans on the oracle subset.
Status TracedPass(const std::string& train_path,
                  const std::string& queries_path,
                  const std::string& bank_path, const std::string& replay_path,
                  Metrics* m) {
  cluseq::obs::TraceRecorder& recorder = cluseq::obs::TraceRecorder::Get();
  recorder.Start();
  Metrics pass;
  Status st = ClassifyPass(queries_path, bank_path, &pass);
  recorder.Stop();
  if (!st.ok()) return st;
  (*m)["traced_wall_s"] = pass.at("wall_s");

  SeqDbReader train;
  st = SeqDbReader::Open(train_path, &train);
  if (!st.ok()) return st;
  Serving s;
  st = OpenServing(queries_path, bank_path, &s);
  if (!st.ok()) return st;
  const cluseq::BackgroundModel background =
      cluseq::BackgroundModel::FromDatabase(train);
  ReplaySpec spec;
  spec.train = &train;
  spec.members = MembersByLabel(train);
  spec.background = &background;
  spec.pst = ModelOptions();
  spec.signature_budget_bytes = FrozenBank::kDefaultSignatureBudgetBytes;
  spec.l15_prefix = ScanPrefilter::kDefaultL15Prefix;
  spec.queries = &s.queries;
  spec.query_ids = OracleSubset(s.queries.size());
  // The threshold scan joins at the median best score of the subset, as
  // the prefilter micro bench does.
  std::vector<double> best(spec.query_ids.size());
  const ScanPrefilter prefilter(&s.bank);
  for (size_t j = 0; j < best.size(); ++j) {
    prefilter.BestModel(s.queries.Symbols(spec.query_ids[j]), &best[j]);
  }
  spec.log_t = std::max(0.0, Median(best));
  spec.censor_floor = spec.log_t - 64.0;  // CLUSEQ's default adjust window.
  spec.bank_path = replay_path;
  return ReplayLayers(spec, m);
}

// Clustering-run phases: this workload has none.
const char* const kRunMetrics[] = {
    "run.iterations", "run.max_clusters", "run.refrozen_clusters",
    "run.joins", "run.seed_s", "run.scan_s", "run.join_s",
    "run.consolidate_s", "run.rebuild_psts_s", "run.estimate_threshold_s",
    "run.prefilter_scan_s", "run.adjust_t_s", "run.select_seeds_s",
    "run.scan_freeze_assemble_s", "run.unattributed_s"};

}  // namespace

Status RunClassifyBank(const Invocation& inv, Outcome* out) {
  const std::string train_path = inv.work_dir + "/train.sqdb";
  const std::string queries_path = inv.work_dir + "/queries.sqdb";
  const std::string bank_path = inv.work_dir + "/bank.fbank";
  {
    // 1024 sources × 97 sequences of length ~120 plus 5% outliers; the
    // first 3 of each source train its model, the rest (and the outliers)
    // are the held-out queries.
    cluseq::SyntheticDatasetOptions synth;
    synth.num_clusters = kSources;
    synth.sequences_per_cluster = kTrainPerSource + kQueriesPerSource;
    synth.avg_length = 120;
    synth.seed = inv.seed;
    const cluseq::SequenceDatabase all = cluseq::MakeSyntheticDataset(synth);
    cluseq::SequenceDatabase train(all.alphabet());
    cluseq::SequenceDatabase queries(all.alphabet());
    std::vector<size_t> seen(kSources, 0);
    for (size_t i = 0; i < all.size(); ++i) {
      const cluseq::Label label = all.LabelOf(i);
      const auto symbols = all.Symbols(i);
      cluseq::Sequence seq(std::vector<cluseq::SymbolId>(symbols.begin(),
                                                         symbols.end()),
                           std::string(all.Id(i)), label);
      if (label != cluseq::kNoLabel &&
          seen[static_cast<size_t>(label)]++ < kTrainPerSource) {
        train.Add(std::move(seq));
      } else {
        queries.Add(std::move(seq));
      }
    }
    Status st = cluseq::WriteSeqDb(train, train_path);
    if (st.ok()) st = cluseq::WriteSeqDb(queries, queries_path);
    if (!st.ok()) return st;
  }

  size_t queries = 0;
  {
    SeqDbReader q;
    Status st = SeqDbReader::Open(queries_path, &q);
    if (!st.ok()) return st;
    queries = q.size();
  }
  // Timed model builds and serving passes, interleaved so that both
  // medians span the whole invocation. The first build writes the bank
  // every pass loads.
  std::vector<double> builds;
  std::vector<Metrics> passes;
  const double start = NowSeconds();
  while (builds.size() < kMinRounds || NowSeconds() - start < inv.seconds) {
    Metrics build;
    const std::string save_to = builds.empty() ? bank_path : std::string();
    if (!RunInChild("bank build",
                    [&](Metrics* r) {
                      return BuildBank(train_path, save_to, r);
                    },
                    &build)) {
      return Status::Internal("bank build failed");
    }
    builds.push_back(build.at("build_s"));
    if (builds.size() == 1) {
      out->detail["build_rss_mb"] = build.at("peak_rss_mb");
    }
    Metrics m;
    out->attempted += queries;
    if (!RunInChild("serving pass",
                    [&](Metrics* r) {
                      return ClassifyPass(queries_path, bank_path, r);
                    },
                    &m)) {
      out->failed += queries;
      if (out->failed > queries) break;
      continue;
    }
    passes.push_back(std::move(m));
  }
  if (passes.empty()) return Status::Internal("no serving pass succeeded");
  const auto column = [&](const char* name) {
    std::vector<double> v;
    for (const Metrics& m : passes) v.push_back(m.at(name));
    return v;
  };
  // Every pass must decide identically.
  for (const Metrics& m : passes) {
    if (m.at("fp") != passes.front().at("fp")) out->failed += queries;
  }
  Metrics& e2e = out->metrics;
  e2e["setup_s"] = Median(column("setup_s"));
  e2e["cluster_s"] = Median(builds);
  e2e["peak_rss_mb"] = Median(column("peak_rss_mb"));
  e2e["nmi"] = Median(column("nmi"));
  e2e["correct_frac"] = Median(column("correct_frac"));
  e2e["classify_seq_per_s"] = Median(column("classify_seq_per_s"));
  e2e["classify_p50_us"] = Median(column("classify_p50_us"));
  e2e["classify_p99_us"] = Median(column("classify_p99_us"));
  e2e["classify_accuracy"] = Median(column("classify_accuracy"));
  out->detail["passes"] = static_cast<double>(passes.size());
  out->detail["queries"] = static_cast<double>(queries);
  for (size_t i = 0; i < builds.size(); ++i) {
    out->detail["build_s." + std::to_string(i)] = builds[i];
  }
  for (size_t i = 0; i < passes.size(); ++i) {
    out->detail["setup_s." + std::to_string(i)] = passes[i].at("setup_s");
    out->detail["wall_s." + std::to_string(i)] = passes[i].at("wall_s");
  }

  Metrics gate;
  const bool gate_ok = RunInChild(
      "oracle subset",
      [&](Metrics* r) { return GateSubset(queries_path, bank_path, r); },
      &gate);
  if (!gate_ok) return Status::Internal("oracle subset failed");
  out->attempted += static_cast<uint64_t>(gate.at("checked"));
  out->failed += static_cast<uint64_t>(gate.at("mismatches"));
  if (!inv.trace) return Status::OK();

  Metrics traced;
  if (!RunInChild("traced pass",
                  [&](Metrics* r) {
                    return TracedPass(train_path, queries_path, bank_path,
                                      inv.work_dir + "/replay.fbank", r);
                  },
                  &traced)) {
    return Status::Internal("traced pass failed");
  }
  Metrics layers;
  layers["seq.open_s"] = Median(column("open_s"));
  layers["seq.records"] = static_cast<double>(queries);
  {
    SeqDbReader q;
    Status st = SeqDbReader::Open(queries_path, &q);
    if (!st.ok()) return st;
    layers["seq.symbols"] = static_cast<double>(q.TotalSymbols());
  }
  for (const auto& [name, value] : traced) {
    if (name.find('.') != std::string::npos) layers[name] = value;
  }
  for (const char* name : kRunMetrics) layers[name] = 0.0;
  const double wall = Median(column("wall_s"));
  layers["run.cpu_s"] = Median(column("cpu_s"));
  layers["run.par_eff"] =
      layers["run.cpu_s"] / (wall * static_cast<double>(kThreads));
  layers["run.speedup_4t"] = gate.at("speedup_4t");
  layers["trace.overhead_frac"] = traced.at("traced_wall_s") / wall - 1.0;
  out->detail["traced_wall_s"] = traced.at("traced_wall_s");
  out->metrics = std::move(layers);
  return Status::OK();
}

}  // namespace perfbench
