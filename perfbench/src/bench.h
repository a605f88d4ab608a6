// Shared plumbing for the end-to-end benchmark: the metric map, forked
// measurement children, order statistics, trace self-time accounting and
// the machine record.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "seq/sequence_database.h"
#include "seq/sequence_store.h"
#include "util/status.h"

namespace perfbench {

using cluseq::Status;

/// Metric name -> value. Children report through one of these; the parent
/// aggregates them into the final result line. Per-layer metric names are
/// the only ones with a '.' (layer.metric).
using Metrics = std::map<std::string, double>;

/// What one invocation was asked to do (the command-line arguments).
struct Invocation {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< Scratch directory for generated inputs.
};

/// What one invocation reports: `metrics` are printed on the result line;
/// `detail` (per-run samples, diagnostics) only goes to the result file.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  Metrics detail;
};

/// Every benchmark workload runs CLUSEQ at this width, the core count of
/// the machine the README baselines come from. The machine record says
/// how many cores the box actually has.
inline constexpr size_t kThreads = 4;

/// Runs `body` in a forked child so that the child's resident-memory high
/// water mark belongs to that body alone (ru_maxrss only ever grows over a
/// process's life). The child's metrics come back over a pipe, plus
/// "peak_rss_mb". Returns false when the child failed, crashed or returned
/// a non-OK status (printed to stderr).
bool RunInChild(const char* what, const std::function<Status(Metrics*)>& body,
                Metrics* out);

/// Closed-loop serving measurement: calls `query(i)` for every i in [0, n)
/// on kThreads workers, in kServingBatches consecutive batches, timing
/// each call inside its worker. Each metric is the median over batches of
/// that batch's value, so one stalled batch does not move it:
/// "classify_seq_per_s", "classify_p50_us", "classify_p99_us".
void MeasureServing(size_t n, const std::function<uint64_t(size_t)>& cost,
                    const std::function<void(size_t)>& query, Metrics* out);
inline constexpr size_t kServingBatches = 5;

/// Median (mean of the two middle values for an even count).
double Median(std::vector<double> values);

/// Seconds of CPU time consumed by every thread of this process.
double ProcessCpuSeconds();

/// Seconds on the steady clock since an arbitrary epoch.
double NowSeconds();

/// Summed self time (span duration minus the time its direct children on
/// the same thread cover) per span name, over the given events.
std::map<std::string, double> SpanSelfSeconds(
    const std::vector<cluseq::obs::TraceEvent>& events);

/// Summed total duration per span name.
std::map<std::string, double> SpanTotalSeconds(
    const std::vector<cluseq::obs::TraceEvent>& events);

/// 53-bit FNV-1a accumulator, small enough to travel through a double.
class Fingerprint {
 public:
  void Add(uint64_t v);
  void AddDouble(double v);
  double Value() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Fraction of labeled sequences whose predicted label matches, where a
/// prediction is mapped through `cluster_label` (-1 = no label).
double LabelAccuracy(const cluseq::SequenceStore& db,
                     std::span<const int32_t> assignment,
                     std::span<const int32_t> cluster_label);

/// Majority true label per cluster of an assignment (-1 when a cluster has
/// no labeled member).
std::vector<int32_t> MajorityLabels(const cluseq::SequenceStore& db,
                                    std::span<const int32_t> assignment,
                                    size_t num_clusters);

/// A copy of `db` whose symbols go through a seeded random permutation of
/// the alphabet. CLUSEQ's trajectory is invariant under relabelling (the
/// same scores in the same order, bit for bit), so every seed poses the
/// same clustering problem in different bytes.
cluseq::SequenceDatabase RelabelSymbols(const cluseq::SequenceStore& db,
                                        uint64_t seed);

/// One-line JSON description of the machine and build.
std::string MachineJson();

// Workloads (cluster_workloads.cc, classify_workload.cc).
Status RunClusterFewLarge(const Invocation& inv, Outcome* out);
Status RunClusterManySmall(const Invocation& inv, Outcome* out);
Status RunClassifyBank(const Invocation& inv, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
