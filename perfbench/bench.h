#pragma once

// Shared pieces of the end-to-end benchmark: workload specs, the
// span recorder that attributes time to layers from outside the program,
// and the result record the phases fill in.
//
// Every workload is the same pipeline with different inputs and shapes:
//
//   setup   generate inputs from the seed and ingest them (vocabulary,
//           encoded corpus or CSR + degree vocabulary)
//   train   core::GraphWord2Vec::train on H simulated hosts, repeated;
//           quality is evaluated after each epoch until the target is hit
//   serve   publish the trained embeddings (serve::EmbeddingSnapshot +
//           SnapshotStore) and drive closed-loop Zipf ANN queries through
//           serve::QueryEngine on 2 ranks while a publisher republishes
//
// so every end-to-end metric exists on every workload; the workloads differ
// in which stage dominates.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace gw2v::perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class InputKind { kWords, kNodes };

struct WorkloadSpec {
  std::string name;
  InputKind kind = InputKind::kWords;

  // kWords: synthetic text (synth::CorpusSpec).
  std::uint32_t fillerVocab = 0;
  std::uint64_t totalTokens = 0;

  // kNodes: planted-community graph + random walks.
  unsigned communities = 0;  // of 16 nodes, 6 intra + 1 inter edges per node
  unsigned walksPerNode = 0;
  unsigned walkLength = 0;
  float walkQ = 1.0f;
  /// Held-out edges scored per quality evaluation (a fixed sample).
  unsigned heldEvalEdges = 0;

  // Training.
  unsigned hosts = 1;
  std::uint32_t dim = 64;
  unsigned negatives = 15;
  double subsample = 1e-3;
  unsigned syncRoundsPerEpoch = 0;  // 0 = the trainer's default rule
  /// Quality (ratio) the time-to-target clock stops at, and the floor the
  /// final model must reach for the run to count as correct.
  double qualityTarget = 0.0;
  double qualityFloor = 0.0;

  // Serving (2 ranks, 2 closed-loop clients, nprobe 8, 1% of rows
  // republished every 100 ms on every workload).
  std::uint32_t annLists = 0;
  double zipfExponent = 0.99;
  /// Rank-0 result cache on (ServeOptions default size) or off.
  bool serveCache = true;

  /// Share of --seconds spent on repeated training; the rest serves.
  double trainShare = 0.5;
};

/// The registered workloads, in BENCHMARK.json order. `scale` < 1 shrinks
/// the inputs for the self-tests (1 = the measured shapes). Node walks are
/// always pulled through text::streamSource rings, one producer per host.
std::vector<WorkloadSpec> allWorkloads(double scale);

/// In-memory span recorder. Spans wrap calls into the program's layers from
/// the benchmark's own code; nothing inside the program is instrumented.
/// Durations are always measured (the end-to-end metrics need some of them);
/// spans are only stored while the tracer is active.
class Tracer {
 public:
  explicit Tracer(bool traceRun) : traceRun_(traceRun), active_(traceRun) {}

  /// True for a --trace 1 run (per-layer metrics are printed).
  bool traceRun() const noexcept { return traceRun_; }

  /// Stop or resume storing spans within a trace run, so that traced and
  /// untraced repetitions can alternate and the overhead be measured.
  void setActive(bool on) noexcept { active_.store(on && traceRun_); }
  bool active() const noexcept { return active_.load(); }

  class Span {
   public:
    Span(Tracer& t, const char* name) : t_(t), name_(name), start_(Clock::now()) {}
    ~Span() {
      if (!done_) stop();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Close the span early; returns its duration in seconds.
    double stop();

   private:
    Tracer& t_;
    const char* name_;
    Clock::time_point start_;
    bool done_ = false;
  };

  /// Chrome trace-event JSON (one track per recording thread).
  void writeChromeTrace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    double startUs;
    double durUs;
    unsigned thread;
  };
  void add(const char* name, Clock::time_point start, Clock::time_point end);

  const bool traceRun_;
  std::atomic<bool> active_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Record> records_;
  std::map<std::thread::id, unsigned> threadIds_;
};

/// One named metric as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a run reports: metrics by name plus the attempted/failed tally that
/// feeds the error rate and the exit status.
struct Outcome {
  std::map<std::string, Metric> endToEnd;
  std::map<std::string, Metric> perLayer;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // first few messages, for stderr

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 16) failures.push_back(what);
  }
};

/// Median of a sample (the mean of the middle two for even sizes).
double median(std::vector<double> v);

/// Exact q-quantile (nearest rank) of a sample.
double quantile(std::vector<double> v, double q);

/// Peak resident set size of this process so far, MiB.
double peakRssMib();

/// User + system CPU seconds of this process so far.
double processCpuSeconds();

}  // namespace gw2v::perfbench
