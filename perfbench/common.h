// Shared pieces of the lplow benchmark binary: the run arguments, the
// report every workload fills, raw-sample percentiles, and the process
// probes (CPU time, peak RSS).
//
// Every percentile here comes from the raw per-request samples the
// workload itself timed (nearest rank over the sorted values), never from
// the library's log2 histograms, and each is reported with its sample count
// and the number of samples beyond it.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/trace.h"
#include "src/runtime/wire.h"
#include "src/workload/replay.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Latency limit (ms) behind slo_share for this workload.
  double slo_ms = 0;
  std::string report_path;
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Sample count, samples beyond the percentile, ... (printed only).
  std::string detail;
};

/// What a workload hands back. `metrics` are the end-to-end metrics in an
/// untraced run; in a traced run they are the counters the trace summariser
/// cannot read off spans (model bytes, walls, ...).
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The checker detected a deliberately corrupted output.
  bool self_test_ok = false;
  std::vector<Metric> metrics;
  /// Thread and connection layout, phase shapes, check results.
  std::vector<std::string> notes;
  /// Traced runs: root spans whose coverage by child spans is
  /// trace.covered_share, and the trace JSON to summarise.
  std::vector<std::string> job_spans;
  std::string trace_json;

  void Add(std::string name, double value, std::string unit,
           std::string detail = "") {
    metrics.push_back({std::move(name), value, std::move(unit),
                       std::move(detail)});
  }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank percentile over raw samples.
struct Percentile {
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;  // Samples strictly after the percentile's rank.

  std::string Detail() const;
};

Percentile RawPercentile(std::vector<double> samples, double q);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// CPU seconds used by the whole process so far (all threads).
double ProcessCpuSeconds();

/// Peak resident set size of this process, MB.
double PeakRssMb();

/// Calls `setup` `reps` times and returns the median wall seconds.
template <typename Fn>
double MedianSetupSeconds(int reps, Fn&& setup) {
  std::vector<double> walls;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    setup();
    walls.push_back(SecondsSince(t0));
  }
  return Median(walls);
}

/// 64-bit FNV-1a over bytes: the response fingerprint workload::Replay
/// reports per job, which the replay workload checks its responses against.
uint64_t Fnv1a(const std::vector<uint8_t>& bytes);

/// The traffic-replay soak's recording shape (bench/bench_replay_soak.cc):
/// 256 Zipf-skewed tenants, Zipf kinds over all six problems, four size
/// classes from 24 constraints up.
lplow::workload::RecordOptions SoakShape(uint64_t seed, size_t num_jobs);

/// Serves one SolveRequest payload in-process. A request that cannot be
/// served comes back as the error response the daemon would send for it.
std::vector<uint8_t> ServeInProcess(
    uint64_t job_id, const std::vector<uint8_t>& request,
    const lplow::runtime::wire::ServeOptions& options = {});

std::string Fmt(double v, int precision = 6);
/// "a b c" with Fmt on each value.
std::string FmtList(const std::vector<double>& values);

Report RunModelsAtScale(const Args& args);
Report RunReplayMix(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
