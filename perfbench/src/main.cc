// End-to-end benchmark of the CLUSEQ library.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Generates the workload's inputs from the seed under --work-dir (removed
// again at exit), runs it, checks its outputs, and prints as its last line
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The lines before it record the machine and the per-run
// detail. Exits 1 when the outputs are wrong, 2 on a usage or run error.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>

#include "bench.h"

namespace {

using perfbench::Invocation;
using perfbench::Metrics;
using perfbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// What --trace 0 prints (BENCHMARK.json "end_to_end").
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"cluster_s", "s"},
    {"peak_rss_mb", "MB"},
    {"nmi", "ratio"},
    {"correct_frac", "ratio"},
    {"classify_seq_per_s", "1/s"},
    {"classify_p50_us", "us"},
    {"classify_p99_us", "us"},
    {"classify_accuracy", "ratio"},
};

// What --trace 1 prints (BENCHMARK.json "per_layer").
constexpr MetricDef kPerLayer[] = {
    {"seq.open_s", "s"},
    {"seq.records", "count"},
    {"seq.symbols", "count"},
    {"pst.rebuild_s", "s"},
    {"pst.nodes", "count"},
    {"pst.freeze_s", "s"},
    {"pst.freeze_states", "count"},
    {"pst.freeze_par_eff", "ratio"},
    {"pst.assemble_s", "s"},
    {"pst.assemble_unigram_s", "s"},
    {"pst.assemble_par_eff", "ratio"},
    {"pst.bank_bytes", "bytes"},
    {"pst.bank_load_s", "s"},
    {"pst.scanall_us_per_seq", "us"},
    {"seeding.select_s", "s"},
    {"seeding.sample_size", "count"},
    {"prefilter.scan_us_per_seq", "us"},
    {"prefilter.best_us_per_seq", "us"},
    {"prefilter.skip_ratio", "ratio"},
    {"prefilter.l15_pruned", "count"},
    {"prefilter.dp_early_exits", "count"},
    {"prefilter.residual_rescans", "count"},
    {"prefilter.scan_par_eff", "ratio"},
    {"threshold.adjust_s", "s"},
    {"run.iterations", "count"},
    {"run.max_clusters", "count"},
    {"run.refrozen_clusters", "count"},
    {"run.joins", "count"},
    {"run.seed_s", "s"},
    {"run.scan_s", "s"},
    {"run.join_s", "s"},
    {"run.consolidate_s", "s"},
    {"run.rebuild_psts_s", "s"},
    {"run.estimate_threshold_s", "s"},
    {"run.prefilter_scan_s", "s"},
    {"run.adjust_t_s", "s"},
    {"run.select_seeds_s", "s"},
    {"run.scan_freeze_assemble_s", "s"},
    {"run.unattributed_s", "s"},
    {"run.cpu_s", "s"},
    {"run.par_eff", "ratio"},
    {"run.speedup_4t", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

// The result object's "metrics": exactly the mode's metrics, in table
// order, each with its unit. Returns false when the workload produced a
// different set.
bool MetricsJson(const Metrics& metrics, std::span<const MetricDef> defs,
                 std::string* json) {
  if (metrics.size() != defs.size()) return false;
  *json = "{";
  char buf[256];
  for (const MetricDef& def : defs) {
    const auto it = metrics.find(def.name);
    if (it == metrics.end()) return false;
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json->size() > 1 ? ", " : "", def.name, it->second,
                  def.unit);
    json->append(buf);
  }
  json->append("}");
  return true;
}

std::string DetailJson(const Metrics& detail) {
  std::string json = "{";
  char buf[256];
  for (const auto& [name, value] : detail) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g",
                  json.size() > 1 ? ", " : "", name.c_str(), value);
    json.append(buf);
  }
  json.append("}");
  return json;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<cluster_few_large|cluster_many_small|classify_bank> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Invocation inv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      inv.workload = value;
    } else if (flag == "--seed") {
      inv.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      inv.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      inv.trace = std::string_view(value) == "1";
    } else if (flag == "--work-dir") {
      inv.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (inv.workload.empty() || inv.work_dir.empty() || inv.seconds <= 0.0) {
    return Usage();
  }
  perfbench::Status (*run)(const Invocation&, Outcome*) = nullptr;
  if (inv.workload == "cluster_few_large") {
    run = perfbench::RunClusterFewLarge;
  } else if (inv.workload == "cluster_many_small") {
    run = perfbench::RunClusterManySmall;
  } else if (inv.workload == "classify_bank") {
    run = perfbench::RunClassifyBank;
  } else {
    return Usage();
  }

  std::error_code ec;
  std::filesystem::remove_all(inv.work_dir, ec);
  std::filesystem::create_directories(inv.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", inv.work_dir.c_str());
    return 2;
  }
  std::printf("machine %s\n", perfbench::MachineJson().c_str());
  Outcome outcome;
  const perfbench::Status st = run(inv, &outcome);
  std::filesystem::remove_all(inv.work_dir, ec);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s: %s\n", inv.workload.c_str(),
                 st.ToString().c_str());
    return 2;
  }
  std::string metrics;
  if (!MetricsJson(outcome.metrics,
                   inv.trace ? std::span<const MetricDef>(kPerLayer)
                             : std::span<const MetricDef>(kEndToEnd),
                   &metrics)) {
    std::fprintf(stderr, "perfbench: %s produced the wrong metric set\n",
                 inv.workload.c_str());
    return 2;
  }
  const bool correct = outcome.failed == 0 && outcome.attempted > 0;
  std::printf("detail %s\n", DetailJson(outcome.detail).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
