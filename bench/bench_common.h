// Shared helpers for the experiment harnesses (one binary per paper
// table/figure; see DESIGN.md §4 for the experiment index).
//
// Every harness accepts:
//   --scale=<f>   multiplies dataset sizes toward (or past) paper scale
//   --csv         additionally emit CSV rows
//   --seed=<n>    dataset + algorithm seed

#ifndef CLUSEQ_BENCH_BENCH_COMMON_H_
#define CLUSEQ_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "cluseq/cluseq.h"

namespace cluseq_bench {

struct BenchArgs {
  double scale = 1.0;
  bool csv = false;
  uint64_t seed = 42;
  std::string axis;  // Used by the scalability bench.
};

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (cluseq::ParseFlag(arg, "scale", &value)) {
      if (!cluseq::ParseDouble(value, &args.scale)) {
        std::fprintf(stderr, "--scale: expected a number, got '%s'\n",
                     value.c_str());
        std::exit(2);
      }
    } else if (arg == "--csv") {
      args.csv = true;
    } else if (cluseq::ParseFlag(arg, "seed", &value)) {
      if (!cluseq::ParseUint64(value, &args.seed)) {
        std::fprintf(stderr,
                     "--seed: expected a non-negative integer, got '%s'\n",
                     value.c_str());
        std::exit(2);
      }
    } else if (cluseq::ParseFlag(arg, "axis", &value)) {
      args.axis = value;
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' "
                   "(supported: --scale=F --csv --seed=N --axis=S)\n",
                   argv[i]);
      std::exit(2);
    }
  }
  return args;
}

inline size_t Scaled(size_t base, double scale) {
  double v = static_cast<double>(base) * scale;
  return v < 1.0 ? 1 : static_cast<size_t>(v);
}

/// CLUSEQ configuration tuned for the scaled synthetic workloads: c and the
/// consolidation minimum shrink with the data so significance stays
/// attainable (the paper's c = 30 presumes 1000-symbol sequences and
/// thousands of members).
inline cluseq::CluseqOptions ScaledCluseqOptions(double scale) {
  cluseq::CluseqOptions o;
  o.initial_clusters = 5;
  o.similarity_threshold = 1.05;
  o.significance_threshold = scale >= 2.0 ? 8 : 5;
  o.min_unique_members = 4;
  o.pst.max_depth = 6;
  o.max_iterations = 15;
  return o;
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==== %s ====\n", title);
  std::printf("reproduces: %s\n\n", paper_ref);
}

inline void EmitTable(const cluseq::ReportTable& table, bool csv) {
  table.Print(std::cout);
  if (csv) {
    std::printf("\n-- csv --\n");
    table.PrintCsv(std::cout);
  }
}

/// Best-effort `git describe` of the working tree the bench ran in. Empty
/// (and the envelope key omitted) when git or the repo is unavailable —
/// CI artifact directories and tarball builds are normal, not errors.
/// Delegates to the library's util/build_info so the bench envelope,
/// `cluseq version`, and checkpoint metadata all report the same string.
inline std::string GitDescribe() { return cluseq::GitDescribe(); }

/// Writes a flat metrics object to BENCH_<name>.json in the working
/// directory, so successive runs leave a machine-readable trajectory next
/// to the human-readable tables. Uses the library's obs::JsonWriter — the
/// same serializer behind --metrics_json/--trace_json — so escaping and
/// number formatting (%.17g, enough to round-trip a double) cannot drift
/// between the bench harnesses and the run reports.
///
/// Every file carries the `cluseq.bench.v1` envelope consumed by
/// `cluseq_cli report-diff` and the CI perf gate: schema, bench name, a
/// best-effort git describe, the machine's hardware thread count, and a
/// `degraded` flag (single-core runner — timing-derived metrics measure
/// scheduling overhead, not scaling, and CI treats them as warn-only).
inline bool WriteBenchJson(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics,
    const std::vector<std::pair<std::string, bool>>& flags = {}) {
  std::ofstream out("BENCH_" + name + ".json");
  if (!out) return false;
  cluseq::obs::JsonWriter writer(out);
  writer.BeginObject();
  writer.KeyValue("schema", std::string_view("cluseq.bench.v1"));
  writer.KeyValue("name", std::string_view(name));
  const std::string git = GitDescribe();
  if (!git.empty()) writer.KeyValue("git", std::string_view(git));
  writer.KeyValue("hardware_threads",
                  uint64_t{cluseq::HardwareThreads()});
  writer.KeyValue("degraded", cluseq::HardwareThreads() == 1);
  for (const auto& [key, value] : flags) {
    writer.KeyValue(key, value);
  }
  for (const auto& [key, value] : metrics) {
    writer.KeyValue(key, value);
  }
  writer.EndObject();
  return static_cast<bool>(out);
}

}  // namespace cluseq_bench

#endif  // CLUSEQ_BENCH_BENCH_COMMON_H_
