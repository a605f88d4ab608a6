#include "replay.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>

#include "core/prefilter.h"
#include "core/seeding.h"
#include "core/similarity.h"
#include "core/threshold.h"
#include "obs/trace.h"
#include "pst/bank_serialization.h"
#include "pst/frozen_bank.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

using cluseq::FrozenBank;
using cluseq::FrozenPst;
using cluseq::Pst;
using cluseq::ScanPrefilter;
using cluseq::SimilarityResult;

namespace {

// CPU seconds over (wall seconds × threads): 1.0 = every thread busy.
double ParallelEfficiency(double cpu_s, double wall_s) {
  return wall_s > 0.0 ? cpu_s / (wall_s * static_cast<double>(kThreads))
                      : 0.0;
}

}  // namespace

Status ReplayLayers(const ReplaySpec& spec, Metrics* out) {
  const cluseq::SequenceStore& train = *spec.train;
  const cluseq::SequenceStore& queries = *spec.queries;
  const size_t k = spec.members.size();
  const size_t nq = spec.query_ids.size();
  if (k == 0 || nq == 0) {
    return Status::InvalidArgument("replay needs models and queries");
  }
  const auto query_cost = [&](size_t j) -> uint64_t {
    return queries.Length(spec.query_ids[j]);
  };
  Metrics& m = *out;
  cluseq::obs::TraceRecorder& recorder = cluseq::obs::TraceRecorder::Get();
  recorder.Start();

  // pst: rebuild every model from its members.
  std::vector<Pst> psts(k, Pst(train.alphabet().size(), spec.pst));
  {
    CLUSEQ_TRACE_SPAN("bench.replay.rebuild");
    struct Item {
      uint32_t model;
      uint32_t member;
    };
    std::vector<Item> items;
    std::vector<std::vector<std::pair<size_t, size_t>>> segments(k);
    for (size_t c = 0; c < k; ++c) {
      segments[c].resize(spec.members[c].size());
      for (size_t i = 0; i < spec.members[c].size(); ++i) {
        items.push_back({static_cast<uint32_t>(c), static_cast<uint32_t>(i)});
      }
    }
    const bool by_segment = !spec.segment_models.empty();
    cluseq::ParallelForWeighted(
        items.size(), kThreads,
        [&](size_t i) -> uint64_t {
          return train.Length(spec.members[items[i].model][items[i].member]);
        },
        [&](size_t i) {
          const Item& it = items[i];
          const size_t s = spec.members[it.model][it.member];
          if (by_segment) {
            const SimilarityResult sim = cluseq::ComputeSimilarity(
                *spec.segment_models[it.model], train.Symbols(s));
            segments[it.model][it.member] = {sim.best_begin, sim.best_end};
          } else {
            segments[it.model][it.member] = {0, train.Length(s)};
          }
        });
    cluseq::ParallelForWeighted(
        k, kThreads,
        [&](size_t c) -> uint64_t { return spec.members[c].size() + 1; },
        [&](size_t c) {
          for (size_t i = 0; i < spec.members[c].size(); ++i) {
            const auto symbols = train.Symbols(spec.members[c][i]);
            const auto [begin, end] = segments[c][i];
            psts[c].InsertSequence(symbols.subspan(begin, end - begin));
          }
        });
  }
  size_t nodes = 0;
  for (const Pst& pst : psts) nodes += pst.NumNodes();
  m["pst.nodes"] = static_cast<double>(nodes);

  // pst: freeze each tree into its scoring automaton.
  std::vector<std::shared_ptr<const FrozenPst>> snapshots(k);
  {
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    CLUSEQ_TRACE_SPAN("bench.replay.freeze");
    cluseq::ParallelForWeighted(
        k, kThreads,
        [&](size_t c) -> uint64_t { return psts[c].NumNodes() + 1; },
        [&](size_t c) {
          snapshots[c] =
              std::make_shared<const FrozenPst>(psts[c], *spec.background);
        });
    m["pst.freeze_par_eff"] =
        ParallelEfficiency(ProcessCpuSeconds() - cpu0, NowSeconds() - t0);
  }
  size_t states = 0;
  for (const auto& s : snapshots) states += s->num_states();
  m["pst.freeze_states"] = static_cast<double>(states);

  // pst bank: assembly with signatures at the default budget, then at the
  // unigram tier (budget 0); the gap is the cap-table build.
  FrozenBank bank;
  bank.set_signature_budget_bytes(spec.signature_budget_bytes);
  {
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    {
      CLUSEQ_TRACE_SPAN("bench.replay.assemble");
      bank.Assemble(snapshots);
    }
    m["pst.assemble_par_eff"] =
        ParallelEfficiency(ProcessCpuSeconds() - cpu0, NowSeconds() - t0);
  }
  {
    FrozenBank unigram;
    unigram.set_signature_budget_bytes(0);
    CLUSEQ_TRACE_SPAN("bench.replay.assemble_unigram");
    unigram.Assemble(snapshots);
  }

  // pst bank: the .fbank serving artifact round trip.
  Status st = cluseq::SaveFrozenBankToFile(bank, spec.bank_path);
  if (!st.ok()) return st;
  {
    std::error_code ec;
    m["pst.bank_bytes"] =
        static_cast<double>(std::filesystem::file_size(spec.bank_path, ec));
  }
  {
    FrozenBank loaded;
    CLUSEQ_TRACE_SPAN("bench.replay.bank_load");
    st = cluseq::LoadFrozenBankFromFile(spec.bank_path, &loaded);
  }
  if (!st.ok()) return st;

  // pst bank: exhaustive banked scan; its n·k scores feed the adjuster.
  std::vector<SimilarityResult> sims(nq * k);
  {
    CLUSEQ_TRACE_SPAN("bench.replay.scanall");
    cluseq::ParallelForWeighted(nq, kThreads, query_cost, [&](size_t j) {
      bank.ScanAll(queries.Symbols(spec.query_ids[j]), sims.data() + j * k);
    });
  }

  // core.prefilter: the pruned threshold scan and the argmax scan.
  const ScanPrefilter prefilter(&bank, spec.l15_prefix);
  {
    std::atomic<uint64_t> total{0}, skipped{0}, l15{0}, early{0}, rescans{0};
    std::vector<SimilarityResult> pruned(nq * k);
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    {
      CLUSEQ_TRACE_SPAN("bench.replay.prefilter_scan");
      cluseq::ParallelForWeighted(nq, kThreads, query_cost, [&](size_t j) {
        cluseq::PrefilterScanStats stats;
        prefilter.ScanAllWithThreshold(queries.Symbols(spec.query_ids[j]),
                                       spec.log_t, pruned.data() + j * k,
                                       &stats);
        total.fetch_add(stats.models_total, std::memory_order_relaxed);
        skipped.fetch_add(stats.candidates_skipped, std::memory_order_relaxed);
        l15.fetch_add(stats.l15_pruned, std::memory_order_relaxed);
        early.fetch_add(stats.dp_early_exits, std::memory_order_relaxed);
        rescans.fetch_add(stats.residual_rescans, std::memory_order_relaxed);
      });
    }
    m["prefilter.scan_par_eff"] =
        ParallelEfficiency(ProcessCpuSeconds() - cpu0, NowSeconds() - t0);
    m["prefilter.skip_ratio"] =
        total.load() == 0 ? 0.0
                          : static_cast<double>(skipped.load()) /
                                static_cast<double>(total.load());
    m["prefilter.l15_pruned"] = static_cast<double>(l15.load());
    m["prefilter.dp_early_exits"] = static_cast<double>(early.load());
    m["prefilter.residual_rescans"] = static_cast<double>(rescans.load());
  }
  {
    CLUSEQ_TRACE_SPAN("bench.replay.prefilter_best");
    cluseq::ParallelForWeighted(nq, kThreads, query_cost, [&](size_t j) {
      double best = 0.0;
      prefilter.BestModel(queries.Symbols(spec.query_ids[j]), &best);
    });
  }

  // core.threshold: one §4.6 adjustment over the n·k scores.
  {
    std::vector<double> log_sims(sims.size());
    for (size_t i = 0; i < sims.size(); ++i) log_sims[i] = sims[i].log_sim;
    cluseq::ThresholdAdjuster adjuster(spec.histogram_buckets, 0.0);
    CLUSEQ_TRACE_SPAN("bench.replay.adjust");
    adjuster.Adjust(log_sims, spec.log_t, spec.censor_floor);
  }

  // core.seeding: one seed draw with the replayed models as the existing
  // clusters, over the whole corpus as the unclustered pool.
  size_t sample_size = 0;
  if (spec.seeds > 0) {
    std::vector<size_t> pool(train.size());
    for (size_t i = 0; i < pool.size(); ++i) pool[i] = i;
    sample_size = static_cast<size_t>(
        std::ceil(spec.sample_multiplier * static_cast<double>(spec.seeds)));
    sample_size = std::min(sample_size, pool.size());
    cluseq::Rng rng(spec.rng_seed);
    CLUSEQ_TRACE_SPAN("bench.replay.select_seeds");
    cluseq::SelectSeeds(train, pool, spec.seeds, sample_size, snapshots,
                        *spec.background, spec.pst, kThreads, &rng);
  }
  m["seeding.sample_size"] = static_cast<double>(sample_size);

  recorder.Stop();
  const std::map<std::string, double> spans =
      SpanTotalSeconds(recorder.Collect());
  const auto span = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second;
  };
  const double us_per_query = 1e6 / static_cast<double>(nq);
  m["pst.rebuild_s"] = span("bench.replay.rebuild");
  m["pst.freeze_s"] = span("bench.replay.freeze");
  m["pst.assemble_s"] = span("bench.replay.assemble");
  m["pst.assemble_unigram_s"] = span("bench.replay.assemble_unigram");
  m["pst.bank_load_s"] = span("bench.replay.bank_load");
  m["pst.scanall_us_per_seq"] = span("bench.replay.scanall") * us_per_query;
  m["prefilter.scan_us_per_seq"] =
      span("bench.replay.prefilter_scan") * us_per_query;
  m["prefilter.best_us_per_seq"] =
      span("bench.replay.prefilter_best") * us_per_query;
  m["threshold.adjust_s"] = span("bench.replay.adjust");
  m["seeding.select_s"] = span("bench.replay.select_seeds");
  return Status::OK();
}

}  // namespace perfbench
