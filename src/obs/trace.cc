#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <sstream>
#include <tuple>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace cluseq {
namespace obs {

// Events land in a per-thread buffer so recording never contends on a
// global lock. Each buffer carries the generation it was filled under;
// Start() bumps the generation, which lazily discards stale events (and
// resets the per-thread sampling state) the next time their owning thread
// samples or records.
struct TraceRecorder::ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  uint64_t generation = 0;
  uint32_t tid = 0;
  // Sampling state, reset whenever the generation changes.
  uint64_t spans_seen = 0;   // kEveryNth position counter.
  uint64_t rng_state = 0;    // kProbabilistic splitmix64 state.
  bool rng_seeded = false;
};

namespace {

// Flushes the thread's buffer into the recorder when the thread exits, so
// short-lived workers (ParallelFor joins its threads per call) do not lose
// events. The recorder outlives every thread (leaked singleton).
struct ThreadBufferHandle {
  TraceRecorder::ThreadBuffer* buffer = nullptr;
  std::function<void(TraceRecorder::ThreadBuffer*)> on_exit;
  ~ThreadBufferHandle() {
    if (buffer && on_exit) on_exit(buffer);
  }
};

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Seeds a thread's sampling RNG from (policy seed, thread index): the
// stream each thread draws is a pure function of the two, which is what
// makes `prob:p,seed=n` reproducible at a fixed thread count.
uint64_t SeedForThread(uint64_t seed, uint32_t tid) {
  uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (uint64_t{tid} + 1));
  SplitMix64(&state);  // One warmup round decorrelates small seeds.
  return state;
}

}  // namespace

Status SamplingPolicy::Parse(std::string_view spec, SamplingPolicy* out) {
  SamplingPolicy policy;
  if (spec == "always") {
    policy.mode = Mode::kAlways;
  } else if (spec == "never" || spec == "off") {
    policy.mode = Mode::kNever;
  } else if (spec.starts_with("prob:")) {
    policy.mode = Mode::kProbabilistic;
    std::string_view rest = spec.substr(5);
    std::string_view prob = rest;
    const size_t comma = rest.find(',');
    if (comma != std::string_view::npos) {
      prob = rest.substr(0, comma);
      std::string_view seed = rest.substr(comma + 1);
      if (!seed.starts_with("seed=") ||
          !ParseUint64(seed.substr(5), &policy.seed)) {
        return Status::InvalidArgument(
            "trace_sample: expected prob:P,seed=N, got '" +
            std::string(spec) + "'");
      }
    }
    if (!ParseDouble(prob, &policy.probability) ||
        policy.probability < 0.0 || policy.probability > 1.0) {
      return Status::InvalidArgument(
          "trace_sample: probability must be in [0, 1], got '" +
          std::string(spec) + "'");
    }
  } else if (spec.starts_with("every:")) {
    policy.mode = Mode::kEveryNth;
    if (!ParseUint64(spec.substr(6), &policy.every_nth) ||
        policy.every_nth == 0) {
      return Status::InvalidArgument(
          "trace_sample: every:N needs N >= 1, got '" + std::string(spec) +
          "'");
    }
  } else if (spec.starts_with("rate:")) {
    policy.mode = Mode::kRateLimited;
    if (!ParseDouble(spec.substr(5), &policy.max_per_sec) ||
        policy.max_per_sec <= 0.0) {
      return Status::InvalidArgument(
          "trace_sample: rate:R needs R > 0, got '" + std::string(spec) +
          "'");
    }
  } else {
    return Status::InvalidArgument(
        "trace_sample: unknown policy '" + std::string(spec) +
        "' (use always, never, prob:P[,seed=N], every:N, rate:R)");
  }
  *out = policy;
  return Status::OK();
}

std::string SamplingPolicy::ToString() const {
  switch (mode) {
    case Mode::kAlways:
      return "always";
    case Mode::kNever:
      return "never";
    case Mode::kProbabilistic:
      return StringPrintf("prob:%g,seed=%llu", probability,
                          static_cast<unsigned long long>(seed));
    case Mode::kEveryNth:
      return StringPrintf("every:%llu",
                          static_cast<unsigned long long>(every_nth));
    case Mode::kRateLimited:
      return StringPrintf("rate:%g", max_per_sec);
  }
  return "unknown";
}

TraceRecorder& TraceRecorder::Get() {
  // Leaked on purpose: thread-exit hooks may run arbitrarily late.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double TraceRecorder::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

TraceRecorder::ThreadBuffer& TraceRecorder::BufferForThisThread() {
  thread_local ThreadBufferHandle handle;
  if (handle.buffer == nullptr) {
    auto* buffer = new ThreadBuffer();
    buffer->tid = ThreadIndex();
    {
      std::lock_guard<std::mutex> lock(mu_);
      buffer->generation = generation_;
      live_buffers_.push_back(buffer);
    }
    handle.buffer = buffer;
    handle.on_exit = [this](ThreadBuffer* b) {
      std::lock_guard<std::mutex> lock(mu_);
      {
        std::lock_guard<std::mutex> buffer_lock(b->mu);
        if (b->generation == generation_) {
          flushed_.insert(flushed_.end(), b->events.begin(), b->events.end());
        }
      }
      std::erase(live_buffers_, b);
      delete b;
    };
  }
  return *handle.buffer;
}

void TraceRecorder::SyncBufferLocked(ThreadBuffer& buffer,
                                     uint64_t generation) {
  if (buffer.generation == generation) return;
  buffer.events.clear();
  buffer.generation = generation;
  buffer.spans_seen = 0;
  buffer.rng_seeded = false;
}

void TraceRecorder::Start(const SamplingPolicy& policy) {
  std::lock_guard<std::mutex> lock(mu_);
  ++generation_;
  flushed_.clear();
  rate_windows_.clear();
  policy_ = policy;
  // Live buffers are invalidated lazily: their generation no longer
  // matches, so Sample()/Record() reset them on next use and Collect()
  // skips them. A `never` policy keeps the gate closed: spans stay at the
  // one-relaxed-load cost and nothing records.
  enabled_.store(policy.mode != SamplingPolicy::Mode::kNever,
                 std::memory_order_relaxed);
}

void TraceRecorder::Stop() {
  enabled_.store(false, std::memory_order_relaxed);
}

bool TraceRecorder::Sample(const char* name) {
  SamplingPolicy policy;
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    policy = policy_;
    generation = generation_;
  }
  switch (policy.mode) {
    case SamplingPolicy::Mode::kAlways:
      return true;
    case SamplingPolicy::Mode::kNever:
      return false;  // Unreachable in practice: Start(never) keeps the
                     // enabled gate closed.
    case SamplingPolicy::Mode::kProbabilistic: {
      ThreadBuffer& buffer = BufferForThisThread();
      std::lock_guard<std::mutex> lock(buffer.mu);
      SyncBufferLocked(buffer, generation);
      if (!buffer.rng_seeded) {
        buffer.rng_state = SeedForThread(policy.seed, buffer.tid);
        buffer.rng_seeded = true;
      }
      // 53 uniform bits -> [0, 1); strictly-less keeps p=0 at "none" and
      // p=1 at "all".
      const double draw = static_cast<double>(
                              SplitMix64(&buffer.rng_state) >> 11) *
                          0x1.0p-53;
      return draw < policy.probability;
    }
    case SamplingPolicy::Mode::kEveryNth: {
      ThreadBuffer& buffer = BufferForThisThread();
      std::lock_guard<std::mutex> lock(buffer.mu);
      SyncBufferLocked(buffer, generation);
      const bool keep = buffer.spans_seen % policy.every_nth == 0;
      ++buffer.spans_seen;
      return keep;
    }
    case SamplingPolicy::Mode::kRateLimited: {
      const auto second =
          static_cast<int64_t>(NowMicros() / 1e6);
      std::lock_guard<std::mutex> lock(mu_);
      if (generation != generation_) return false;  // Raced a Start().
      auto it = rate_windows_.find(name);
      if (it == rate_windows_.end()) {
        it = rate_windows_.emplace(std::string(name),
                                   std::make_pair(second, uint64_t{0}))
                 .first;
      }
      if (it->second.first != second) {
        it->second.first = second;
        it->second.second = 0;
      }
      if (static_cast<double>(it->second.second) >= policy.max_per_sec) {
        return false;
      }
      ++it->second.second;
      return true;
    }
  }
  return true;
}

void TraceRecorder::Record(const char* name, double ts_us, double dur_us) {
  if (!enabled()) return;
  ThreadBuffer& buffer = BufferForThisThread();
  uint64_t generation;
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation = generation_;
  }
  std::lock_guard<std::mutex> lock(buffer.mu);
  SyncBufferLocked(buffer, generation);
  buffer.events.push_back(TraceEvent{name, ts_us, dur_us, buffer.tid});
}

std::vector<TraceEvent> TraceRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> events = flushed_;
  for (ThreadBuffer* buffer : live_buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    if (buffer->generation == generation_) {
      events.insert(events.end(), buffer->events.begin(),
                    buffer->events.end());
    }
  }
  return events;
}

void TraceRecorder::WriteJson(std::ostream& out) const {
  std::vector<TraceEvent> events = Collect();
  // Deterministic serialization order: collection order depends on which
  // buffer a thread landed in, sorting by (ts_us, tid) does not.
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return std::tie(a.ts_us, a.tid) <
                            std::tie(b.ts_us, b.tid);
                   });
  std::vector<uint32_t> tids;
  for (const TraceEvent& event : events) tids.push_back(event.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());

  JsonWriter writer(out);
  writer.BeginObject();
  writer.KeyValue("displayTimeUnit", std::string_view("ms"));
  writer.Key("traceEvents");
  writer.BeginArray();
  // Chrome trace "M" metadata names each thread track ("t<N>", our stable
  // ThreadIndex numbering) so Perfetto shows labeled rows instead of bare
  // tids.
  for (uint32_t tid : tids) {
    writer.BeginObject();
    writer.KeyValue("name", std::string_view("thread_name"));
    writer.KeyValue("ph", std::string_view("M"));
    writer.KeyValue("pid", uint64_t{1});
    writer.KeyValue("tid", uint64_t{tid});
    writer.Key("args");
    writer.BeginObject();
    writer.KeyValue("name", "t" + std::to_string(tid));
    writer.EndObject();
    writer.EndObject();
  }
  for (const TraceEvent& event : events) {
    writer.BeginObject();
    writer.KeyValue("name", std::string_view(event.name));
    writer.KeyValue("cat", std::string_view("cluseq"));
    writer.KeyValue("ph", std::string_view("X"));
    writer.KeyValue("ts", event.ts_us);
    writer.KeyValue("dur", event.dur_us);
    writer.KeyValue("pid", uint64_t{1});
    writer.KeyValue("tid", uint64_t{event.tid});
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
}

Status TraceRecorder::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  WriteJson(out);
  out.flush();
  if (!out) return Status::IOError("failed writing " + path);
  return Status::OK();
}

}  // namespace obs
}  // namespace cluseq
