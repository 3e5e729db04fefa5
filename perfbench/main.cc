// perfbench: the lplow benchmark binary. perfbench/run.py builds it
// and calls it once per run:
//
//   perfbench --workload <models-at-scale|replay-mix>
//             --seed N --seconds S --trace 0|1 --slo-ms X
//             --report out.json [--trace-out trace.json]
//
// It prints a machine descriptor and one line per metric, and writes the
// report (metrics, attempted/failed counts, notes) as JSON for run.py.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench/common.h"
#include "src/engine/scan_kernel.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::string Percentile::Detail() const {
  return "n=" + std::to_string(samples) + " beyond=" + std::to_string(beyond);
}

Percentile RawPercentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  // Integer ceil(q * n) on q in permille, so 0.99 * 100 ranks 99, not 100.
  const size_t permille = static_cast<size_t>(std::llround(q * 1000));
  const size_t rank =
      std::clamp<size_t>((permille * samples.size() + 999) / 1000, 1,
                         samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB.
}

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

lplow::workload::RecordOptions SoakShape(uint64_t seed, size_t num_jobs) {
  lplow::workload::RecordOptions opt;
  opt.seed = seed;
  opt.num_jobs = num_jobs;
  opt.num_tenants = 256;
  opt.tenant_zipf_s = 1.1;
  opt.kind_zipf_s = 1.0;
  opt.size_zipf_s = 1.3;
  opt.base_constraints = 24;
  opt.size_classes = 4;
  return opt;
}

std::vector<uint8_t> ServeInProcess(
    uint64_t job_id, const std::vector<uint8_t>& request,
    const lplow::runtime::wire::ServeOptions& options) {
  namespace wire = lplow::runtime::wire;
  auto served = wire::ServeSolveRequestPayload(request, options);
  return served.ok() ? std::move(*served)
                     : wire::EncodeSolveErrorResponsePayload(job_id,
                                                             served.status());
}

std::string Fmt(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

std::string FmtList(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    if (!out.empty()) out += ' ';
    out += Fmt(v, 4);
  }
  return out;
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
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
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --slo-ms X --report PATH [--trace-out PATH]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--slo-ms") {
      args.slo_ms = std::atof(value.c_str());
    } else if (key == "--report") {
      args.report_path = value;
    } else if (key == "--trace-out") {
      args.trace_path = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (args.report_path.empty()) return Usage("--report is required");
  if (args.seconds <= 0 || args.slo_ms <= 0) {
    return Usage("--seconds and --slo-ms must be positive");
  }
  if (args.trace && args.trace_path.empty()) {
    return Usage("--trace 1 needs --trace-out");
  }

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "machine: nproc=" << nproc << " cpu=\"" << CpuModel()
            << "\" scan_kernel=" << lplow::engine::ScanKernelName()
            << " compiler=\"gcc " << __VERSION__ << "\" build="
            << PERFBENCH_BUILD_TYPE << "\n"
            << "run: workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " slo_ms=" << args.slo_ms << "\n";

  Report report;
  if (args.workload == "models-at-scale") {
    report = RunModelsAtScale(args);
  } else if (args.workload == "replay-mix") {
    report = RunReplayMix(args);
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }

  // ok_share is 1 - failed_share: the share of attempted operations answered
  // correctly (a metric that is never 0 on a healthy run).
  const double failed_share =
      static_cast<double>(report.failed) /
      static_cast<double>(std::max<uint64_t>(1, report.attempted));
  if (!args.trace) {
    report.Add("ok_share", 1.0 - failed_share, "share",
               std::to_string(report.failed) + " failed of " +
                   std::to_string(report.attempted));
    report.Add("peak_rss_MB", PeakRssMb(), "MB");
  }
  for (const std::string& note : report.notes) {
    std::cout << "note: " << note << "\n";
  }
  std::cout << "checks: attempted=" << report.attempted
            << " failed=" << report.failed << " failed_share=" << failed_share
            << " checker_self_test=" << (report.self_test_ok ? "ok" : "MISSED")
            << "\n";
  for (const Metric& m : report.metrics) {
    std::cout << "metric: " << m.name << " = " << Fmt(m.value, 9) << " "
              << m.unit << (m.detail.empty() ? "" : "  (" + m.detail + ")")
              << "\n";
  }

  if (args.trace) {
    std::ofstream trace_out(args.trace_path);
    trace_out << report.trace_json;
    if (!trace_out) return Usage("cannot write --trace-out");
  }
  std::ofstream out(args.report_path);
  out << "{\"workload\":" << JsonString(args.workload)
      << ",\"seed\":" << args.seed << ",\"trace\":" << (args.trace ? 1 : 0)
      << ",\"attempted\":" << report.attempted
      << ",\"failed\":" << report.failed
      << ",\"self_test_ok\":" << (report.self_test_ok ? "true" : "false")
      << ",\"machine\":{\"nproc\":" << nproc
      << ",\"cpu\":" << JsonString(CpuModel())
      << ",\"scan_kernel\":" << JsonString(lplow::engine::ScanKernelName())
      << ",\"compiler\":" << JsonString(std::string("gcc ") + __VERSION__)
      << ",\"build\":" << JsonString(PERFBENCH_BUILD_TYPE) << "}"
      << ",\"metrics\":{";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out << (i ? "," : "") << JsonString(m.name)
        << ":{\"value\":" << JsonNumber(m.value)
        << ",\"unit\":" << JsonString(m.unit)
        << ",\"detail\":" << JsonString(m.detail) << "}";
  }
  out << "},\"job_spans\":[";
  for (size_t i = 0; i < report.job_spans.size(); ++i) {
    out << (i ? "," : "") << JsonString(report.job_spans[i]);
  }
  out << "],\"notes\":[";
  for (size_t i = 0; i < report.notes.size(); ++i) {
    out << (i ? "," : "") << JsonString(report.notes[i]);
  }
  out << "]}\n";
  if (!out) return Usage("cannot write --report");
  return 0;
}
