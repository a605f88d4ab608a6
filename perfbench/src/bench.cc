#include "bench.h"

#include <cpuid.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <numeric>
#include <unordered_map>

#include "obs/perf_counters.h"
#include "pst/frozen_bank.h"
#include "util/build_info.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

bool WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

std::string ReadAll(int fd) {
  std::string data;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    data.append(buf, static_cast<size_t>(n));
  }
  return data;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  const size_t last = model.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : model.substr(first, last - first + 1);
}

// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

}  // namespace

bool RunInChild(const char* what, const std::function<Status(Metrics*)>& body,
                Metrics* out) {
  int fds[2];
  if (::pipe(fds) != 0) {
    std::fprintf(stderr, "perfbench: pipe failed for %s\n", what);
    return false;
  }
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    std::fprintf(stderr, "perfbench: fork failed for %s\n", what);
    return false;
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      Metrics metrics;
      const Status st = body(&metrics);
      if (st.ok()) {
        struct rusage usage;
        ::getrusage(RUSAGE_SELF, &usage);
        metrics["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
        std::string text;
        char line[256];
        for (const auto& [name, value] : metrics) {
          std::snprintf(line, sizeof(line), "%s %.17g\n", name.c_str(), value);
          text += line;
        }
        if (!WriteAll(fds[1], text)) code = 3;
      } else {
        std::fprintf(stderr, "perfbench: %s: %s\n", what,
                     st.ToString().c_str());
        code = 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s threw: %s\n", what, e.what());
      code = 2;
    }
    ::close(fds[1]);
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(fds[1]);
  const std::string text = ReadAll(fds[0]);
  ::close(fds[0]);
  int wstatus = 0;
  while (::waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    std::fprintf(stderr, "perfbench: %s child failed (status %d)\n", what,
                 wstatus);
    return false;
  }
  out->clear();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    const size_t space = line.find(' ');
    if (space != std::string::npos) {
      (*out)[line.substr(0, space)] =
          std::strtod(line.c_str() + space + 1, nullptr);
    }
    pos = end + 1;
  }
  return true;
}

void MeasureServing(size_t n, const std::function<uint64_t(size_t)>& cost,
                    const std::function<void(size_t)>& query, Metrics* out) {
  std::vector<double> latency_us(n, 0.0);
  std::vector<double> rate, p50, p99;
  for (size_t b = 0; b < kServingBatches; ++b) {
    const size_t begin = n * b / kServingBatches;
    const size_t end = n * (b + 1) / kServingBatches;
    const double t0 = NowSeconds();
    cluseq::ParallelForWeighted(
        end - begin, kThreads,
        [&](size_t j) -> uint64_t { return cost(begin + j); },
        [&](size_t j) {
          const double q0 = NowSeconds();
          query(begin + j);
          latency_us[begin + j] = (NowSeconds() - q0) * 1e6;
        });
    const double wall = NowSeconds() - t0;
    const std::vector<double> batch(latency_us.begin() + begin,
                                    latency_us.begin() + end);
    rate.push_back(static_cast<double>(end - begin) / wall);
    p50.push_back(Quantile(batch, 0.50));
    p99.push_back(Quantile(batch, 0.99));
  }
  (*out)["classify_seq_per_s"] = Median(rate);
  (*out)["classify_p50_us"] = Median(p50);
  (*out)["classify_p99_us"] = Median(p99);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ProcessCpuSeconds() {
  struct timespec ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double NowSeconds() {
  struct timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::map<std::string, double> SpanSelfSeconds(
    const std::vector<cluseq::obs::TraceEvent>& events) {
  std::unordered_map<uint32_t, std::vector<const cluseq::obs::TraceEvent*>>
      by_thread;
  for (const auto& e : events) by_thread[e.tid].push_back(&e);
  std::map<std::string, double> self;
  for (auto& [tid, list] : by_thread) {
    // Parents first: earlier start, and the longer span on a tie.
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<size_t> stack;
    std::vector<double> child_us(list.size(), 0.0);
    for (size_t i = 0; i < list.size(); ++i) {
      const auto* e = list[i];
      while (!stack.empty()) {
        const auto* top = list[stack.back()];
        if (e->ts_us < top->ts_us + top->dur_us) break;
        stack.pop_back();
      }
      if (!stack.empty()) child_us[stack.back()] += e->dur_us;
      stack.push_back(i);
    }
    for (size_t i = 0; i < list.size(); ++i) {
      self[list[i]->name] +=
          std::max(0.0, list[i]->dur_us - child_us[i]) * 1e-6;
    }
  }
  return self;
}

std::map<std::string, double> SpanTotalSeconds(
    const std::vector<cluseq::obs::TraceEvent>& events) {
  std::map<std::string, double> total;
  for (const auto& e : events) total[e.name] += e.dur_us * 1e-6;
  return total;
}

void Fingerprint::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::AddDouble(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  Add(bits);
}

double Fingerprint::Value() const {
  return static_cast<double>(h_ & ((uint64_t{1} << 53) - 1));
}

std::vector<int32_t> MajorityLabels(const cluseq::SequenceStore& db,
                                    std::span<const int32_t> assignment,
                                    size_t num_clusters) {
  std::vector<std::map<int32_t, size_t>> counts(num_clusters);
  for (size_t i = 0; i < assignment.size(); ++i) {
    const cluseq::Label label = db.LabelOf(i);
    if (assignment[i] < 0 || label == cluseq::kNoLabel) continue;
    ++counts[static_cast<size_t>(assignment[i])][static_cast<int32_t>(label)];
  }
  std::vector<int32_t> majority(num_clusters, -1);
  for (size_t c = 0; c < num_clusters; ++c) {
    size_t best = 0;
    for (const auto& [label, count] : counts[c]) {
      if (count > best) {
        best = count;
        majority[c] = label;
      }
    }
  }
  return majority;
}

double LabelAccuracy(const cluseq::SequenceStore& db,
                     std::span<const int32_t> assignment,
                     std::span<const int32_t> cluster_label) {
  size_t labeled = 0;
  size_t correct = 0;
  for (size_t i = 0; i < assignment.size(); ++i) {
    const cluseq::Label label = db.LabelOf(i);
    if (label == cluseq::kNoLabel) continue;
    ++labeled;
    const int32_t a = assignment[i];
    if (a >= 0 && static_cast<size_t>(a) < cluster_label.size() &&
        cluster_label[static_cast<size_t>(a)] == static_cast<int32_t>(label)) {
      ++correct;
    }
  }
  return labeled == 0 ? 0.0
                      : static_cast<double>(correct) /
                            static_cast<double>(labeled);
}

cluseq::SequenceDatabase RelabelSymbols(const cluseq::SequenceStore& db,
                                        uint64_t seed) {
  std::vector<cluseq::SymbolId> perm(db.alphabet().size());
  std::iota(perm.begin(), perm.end(), cluseq::SymbolId{0});
  cluseq::Rng rng(seed);
  rng.Shuffle(perm);
  cluseq::SequenceDatabase out(db.alphabet());
  for (size_t i = 0; i < db.size(); ++i) {
    std::vector<cluseq::SymbolId> symbols;
    symbols.reserve(db.Length(i));
    for (cluseq::SymbolId s : db.Symbols(i)) symbols.push_back(perm[s]);
    out.Add(cluseq::Sequence(std::move(symbols), std::string(db.Id(i)),
                             db.LabelOf(i)));
  }
  return out;
}

std::string MachineJson() {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const bool perf = cluseq::obs::PerfCounterSet::Process().available();
  std::string json = "{\"nproc\": " + std::to_string(nproc);
  json += ", \"cpu_model\": \"" + JsonEscape(CpuModel()) + "\"";
  json += ", \"simd\": \"";
  json += cluseq::FrozenBank::SimdAvailable() ? "avx2" : "scalar";
  json += "\", \"perf_counters\": ";
  json += perf ? "true" : "false";
  json += ", \"build_type\": \"" + JsonEscape(PERFBENCH_BUILD_TYPE) + "\"";
  json += ", \"git_describe\": \"" +
          JsonEscape(cluseq::BuildVersionString()) + "\"";
  json += ", \"threads\": " + std::to_string(kThreads) + "}";
  return json;
}

}  // namespace perfbench
