// End-to-end benchmark: runs one workload's pipeline (setup, training,
// serving) on inputs generated from --seed and prints every metric as the
// last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {value, unit}}}
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (and
// writes a Chrome trace of the benchmark's spans to --trace-out). Exit
// status is 0 only when every output check passed. perfbench/run.py builds
// this binary and is the entry point; see perfbench/README.md.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "phases.h"
#include "util/simd.h"

namespace gw2v::perfbench {

double Tracer::Span::stop() {
  const auto end = Clock::now();
  done_ = true;
  if (t_.active()) t_.add(name_, start_, end);
  return secondsBetween(start_, end);
}

void Tracer::add(const char* name, Clock::time_point start, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, _] =
      threadIds_.emplace(std::this_thread::get_id(), static_cast<unsigned>(threadIds_.size()));
  records_.push_back(Record{name, 1e6 * secondsBetween(origin_, start),
                            1e6 * secondsBetween(start, end), it->second});
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write trace " + path);
  f << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    char line[256];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f}%s\n",
                  r.name, r.thread, r.startUs, r.durUs, i + 1 < records_.size() ? "," : "");
    f << line;
  }
  f << "]}\n";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size() - 1), q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

double peakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double processCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace gw2v::perfbench

namespace {

using namespace gw2v::perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string traceOut;
  std::string sourceDigest = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench_e2e: %s\n"
               "usage: perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1\n"
               "                        [--scale F] [--trace-out PATH] [--source-digest HEX]\n",
               why.c_str());
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = v == "1";
      else if (flag == "--scale") a.scale = std::stod(v);
      else if (flag == "--trace-out") a.traceOut = v;
      else if (flag == "--source-digest") a.sourceDigest = v;
      else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {  // std::stoull / std::stod
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0.0) || !(a.scale > 0.0)) usage("--seconds and --scale must be positive");
  return a;
}

bool optimizedUnsanitizedRelease() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || !defined(__OPTIMIZE__)
  return false;
#else
  return std::string(PERFBENCH_BUILD_TYPE) == "Release" && std::string(PERFBENCH_SANITIZE).empty();
#endif
}

void printMetrics(const std::map<std::string, Metric>& metrics, std::string& json) {
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    json += buf;
    first = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  // A fixed mmap threshold returns every large buffer (replicas, sync
  // payloads, snapshots) to the OS when freed. glibc's default raises the
  // threshold after such frees and then serves them from fragmenting
  // per-thread arenas, which made peak RSS swing by hundreds of MiB with
  // allocation timing instead of tracking live data.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  if (!optimizedUnsanitizedRelease()) {
    std::fprintf(stderr, "perfbench_e2e: refusing to report from a %s%s build\n",
                 PERFBENCH_BUILD_TYPE, std::string(PERFBENCH_SANITIZE).empty() ? "" : " sanitized");
    return 2;
  }
  const auto workloads = allWorkloads(args.scale);
  const auto spec = std::find_if(workloads.begin(), workloads.end(),
                                 [&](const WorkloadSpec& w) { return w.name == args.workload; });
  if (spec == workloads.end()) usage("unknown workload " + args.workload);

  std::printf(
      "stamp: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"scale\": %g, \"source_digest\": \"%s\", \"nproc\": %u, \"simd_tier\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\"}\n",
      spec->name.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.scale, args.sourceDigest.c_str(),
      std::thread::hardware_concurrency(),
      gw2v::util::simd::tierName(gw2v::util::simd::activeTier()), PERFBENCH_BUILD_TYPE,
      PERFBENCH_COMPILER);
  std::fflush(stdout);

  Tracer tracer(args.trace);
  Outcome out;
  try {
    const auto start = Clock::now();
    const Prepared in = runSetup(*spec, args.seed, tracer, out);
    const double trainBudget = spec->trainShare * args.seconds;
    auto model = runTraining(*spec, args.seed, in, trainBudget, tracer, out);
    if (args.trace) runCoreProbe(*spec, args.seed, in, tracer, out);
    const double serveBudget = (1.0 - spec->trainShare) * args.seconds;
    runServing(*spec, args.seed, std::move(model), in.vocab(), serveBudget, tracer, out);
    out.endToEnd["peak_rss_mib"] = Metric{peakRssMib(), "MiB"};
    out.perLayer["bench.cpu_s"] = Metric{processCpuSeconds(), "s"};
    std::printf("bench: wall_s=%.3f\n", secondsBetween(start, Clock::now()));
    if (args.trace && !args.traceOut.empty()) tracer.writeChromeTrace(args.traceOut);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }

  for (const auto& f : out.failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());
  const bool correct = out.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  printMetrics(args.trace ? out.perLayer : out.endToEnd, json);
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
