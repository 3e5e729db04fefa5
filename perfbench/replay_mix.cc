// replay-mix: the recorded Zipf mix over all six problem kinds, recorded
// with the soak's shape (20k jobs, 256 tenants, the soak's Zipf exponents)
// and submitted as one burst to an in-process ShardedSolverService of one
// shard with one worker per core. It is an offline batch, so its headline is
// throughput. Direct basis solves dominate it; the wire codec runs
// in-process, and the engine scan and sockets are absent.
//
// One shard, not one per core: with per-tenant routing the burst's makespan
// is the hottest shard's load, which depends on which Zipf-hot tenants a
// seed's routing puts together (4 single-worker shards gave 2280-3770
// jobs/s over ten seeds on a 4-core host), so throughput would measure the
// draw, not the solvers. The hot-tenant imbalance is still reported, as
// service.shard_skew: the execute time each of nproc shards would carry
// under the service's job-id routing.
//
// One pass = one burst of the whole recording. The reference every response
// is checked against is workload::Replay of the same recording on the same
// service, run first, so the bursts start warm; recording is the cold cost
// (setup_s). Replay's per-job response hashes are the same for every service
// topology (tests/replay_test.cc), and equal per-job hashes imply an equal
// transcript. Each burst is followed by a closed-loop pass that replays the
// recording again with one blocking caller per core.

#include <algorithm>
#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/common.h"
#include "src/runtime/metrics.h"
#include "src/runtime/sharded_solver_service.h"
#include "src/runtime/trace.h"
#include "src/runtime/wire.h"
#include "src/workload/replay.h"

namespace perfbench {
namespace {

using namespace lplow;
namespace trace = runtime::trace;
namespace wire = runtime::wire;

constexpr int kSetupReps = 5;
constexpr size_t kJobs = 20000;

struct Slot {
  uint64_t hash = 0;
  bool ok = false;
  double serve_s = 0;
};

/// Serves one recorded request in-process. With a recorder, the serve runs
/// under a service.execute span (the sharded service records its queue-wait
/// and execute spans only on its Execute path, so the burst's Submit path
/// gets them from here) and the daemon decode/solve/encode spans nest
/// under it. `route` is the shard the job would route to at nproc shards.
Slot Serve(const workload::RecordedJob& job, trace::TraceRecorder* rec,
           trace::SpanContext parent, uint64_t route) {
  const Clock::time_point t0 = Clock::now();
  std::vector<uint8_t> response;
  {
    trace::TraceSpan span(rec, "service.execute", parent);
    span.Arg("route", route);
    span.Arg("kind", static_cast<uint64_t>(job.kind));
    wire::ServeOptions options;
    options.trace = rec;
    options.parent = span.context();
    response = ServeInProcess(job.job_id, job.request, options);
  }
  Slot slot;
  slot.serve_s = SecondsSince(t0);
  slot.hash = Fnv1a(response);
  auto head = wire::PeekSolveResponseHead(response);
  slot.ok = head.ok() && head->status.ok();
  return slot;
}

uint64_t CountFailures(const std::vector<Slot>& slots,
                       const std::vector<uint64_t>& reference) {
  uint64_t failed = 0;
  for (size_t i = 0; i < slots.size(); ++i) {
    failed += !slots[i].ok || slots[i].hash != reference[i];
  }
  return failed;
}

}  // namespace

Report RunReplayMix(const Args& args) {
  Report report;
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());

  workload::RecordedWorkload mix;
  const double setup_s = MedianSetupSeconds(kSetupReps, [&] {
    mix = workload::RecordWorkload(SoakShape(args.seed, kJobs));
  });
  const size_t n = mix.jobs.size();

  runtime::MetricsRegistry registry;
  trace::TraceRecorder recorder(/*enabled=*/true);
  runtime::ShardedSolverService::Options sopt;
  sopt.num_shards = 1;
  sopt.threads_per_shard = threads;
  sopt.metrics = &registry;
  sopt.trace = args.trace ? &recorder : nullptr;
  runtime::ShardedSolverService service(sopt);

  // One burst: every job submitted at once, then drained.
  auto burst = [&](bool traced, std::vector<Slot>* slots) {
    trace::TraceRecorder* rec = traced ? &recorder : nullptr;
    slots->assign(n, Slot{});
    std::vector<std::future<void>> futures;
    futures.reserve(n);
    const Clock::time_point t0 = Clock::now();
    {
      trace::TraceSpan burst_span(rec, "bench.burst");
      const trace::SpanContext parent = burst_span.context();
      for (size_t i = 0; i < n; ++i) {
        const workload::RecordedJob& job = mix.jobs[i];
        const uint64_t route = runtime::StableJobHash(job.job_id) % threads;
        const uint64_t enqueue_us = rec ? trace::TraceRecorder::NowMicros() : 0;
        futures.push_back(service.Submit(job.job_id, "replay", [&, i, route,
                                                                 enqueue_us] {
          if (rec != nullptr) {
            rec->RecordComplete("service.queue_wait", enqueue_us,
                                trace::TraceRecorder::NowMicros(), parent);
          }
          (*slots)[i] = Serve(mix.jobs[i], rec, parent, route);
        }));
      }
      service.Drain();
    }
    const double wall = SecondsSince(t0);
    for (auto& f : futures) f.get();
    return wall;
  };

  // One closed-loop pass over the recording: one blocking caller per core.
  auto closed_pass = [&](std::vector<Slot>* slots) {
    slots->assign(n, Slot{});
    std::atomic<size_t> next{0};
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> callers;
    for (size_t c = 0; c < threads; ++c) {
      callers.emplace_back([&] {
        for (size_t i = next++; i < n; i = next++) {
          const workload::RecordedJob& job = mix.jobs[i];
          service
              .Submit(job.job_id, "replay-closed",
                      [&, i] {
                        (*slots)[i] = Serve(mix.jobs[i], nullptr, {}, 0);
                      })
              .get();
        }
      });
    }
    for (auto& c : callers) c.join();
    return SecondsSince(t0);
  };

  workload::ReplayOptions ropt;
  ropt.metrics = &registry;
  const workload::ReplayResult replayed =
      workload::Replay(mix, &service, ropt);
  const std::vector<uint64_t>& reference = replayed.job_hashes;
  std::vector<Slot> slots, closed_slots;
  std::vector<double> walls, traced_walls, closed_walls, serve_samples;
  size_t within = 0;  // Answered correctly within the latency limit.
  // Each untraced burst is followed by a closed-loop pass, so both medians
  // sample the whole run. A traced run alternates traced and untraced
  // bursts and skips the closed loop; its figures come from the bursts.
  const Clock::time_point t0 = Clock::now();
  while (walls.empty() || (args.trace && traced_walls.empty()) ||
         SecondsSince(t0) < args.seconds) {
    const bool traced = args.trace && walls.size() > traced_walls.size();
    (traced ? traced_walls : walls).push_back(burst(traced, &slots));
    report.attempted += n;
    report.failed += CountFailures(slots, reference);
    if (traced) continue;
    for (size_t i = 0; i < n; ++i) {
      const Slot& s = slots[i];
      serve_samples.push_back(s.serve_s);
      within +=
          s.ok && s.hash == reference[i] && s.serve_s * 1e3 <= args.slo_ms;
    }
    if (args.trace) continue;
    closed_walls.push_back(closed_pass(&closed_slots));
    report.attempted += n;
    report.failed += CountFailures(closed_slots, reference);
  }
  // The checker's self-test: one flipped response byte must count.
  {
    std::vector<Slot> corrupted = slots;
    std::vector<uint8_t> bytes =
        ServeInProcess(mix.jobs[0].job_id, mix.jobs[0].request);
    bytes.back() ^= 0x01;
    corrupted[0].hash = Fnv1a(bytes);
    report.self_test_ok = CountFailures(corrupted, reference) ==
                          CountFailures(slots, reference) + 1;
  }

  const double wall = Median(walls);
  report.notes.push_back(
      "threads: 1 shard x " + std::to_string(threads) +
      " workers; burst: 1 submitting thread (blocked in Drain while workers "
      "run); closed loop: " + std::to_string(threads) +
      " callers, each blocked on its job; 0 connections");
  report.notes.push_back("shape: " + std::to_string(n) + " jobs, 256 tenants, "
                         "Zipf tenant 1.1 / kind 1.0 / size 1.3, base 24, 4 "
                         "size classes; request " +
                         Fmt(static_cast<double>(mix.request_bytes) / 1024.0) +
                         " KB");
  report.notes.push_back(
      "passes: bursts=[" + FmtList(walls) + "] s" +
      (args.trace ? " traced=[" + FmtList(traced_walls) + "] s"
                  : std::string()) +
      "; closed=[" + FmtList(closed_walls) + "] s");
  report.notes.push_back("reference: workload::Replay on the same service, "
                         "transcript " + std::to_string(
                             replayed.transcript_hash) +
                         "; every job checked against its response hash");

  if (!args.trace) {
    const Percentile p50 = RawPercentile(serve_samples, 0.50);
    const Percentile p99 = RawPercentile(serve_samples, 0.99);
    report.Add("setup_s", setup_s, "s",
               "median of " + std::to_string(kSetupReps) + " recordings");
    report.Add("solve_wall_s", wall, "s",
               "burst wall, median of " + std::to_string(walls.size()));
    report.Add("comm_KB",
               static_cast<double>(mix.request_bytes + replayed.response_bytes) /
                   1024.0,
               "KB", "wire request + response payload per burst");
    report.Add("rounds", static_cast<double>(n), "count",
               "shard dispatches per burst");
    report.Add("jobs_per_s", static_cast<double>(n) / wall, "1/s",
               "burst throughput");
    report.Add("rpc_p50_ms", p50.value * 1e3, "ms",
               "per-job serve, " + p50.Detail());
    report.Add("rpc_p99_ms", p99.value * 1e3, "ms",
               "per-job serve, " + p99.Detail());
    report.Add("slo_share",
               static_cast<double>(within) /
                   static_cast<double>(
                       std::max<size_t>(1, serve_samples.size())),
               "share",
               "jobs served correctly within " + Fmt(args.slo_ms) + " ms");
    report.Add("rpc_per_s", static_cast<double>(n) / Median(closed_walls),
               "1/s",
               "closed loop, " + std::to_string(threads) +
                   " callers, median of " +
                   std::to_string(closed_walls.size()) + " passes");
  } else {
    report.Add("passes_traced", static_cast<double>(traced_walls.size()),
               "count");
    report.Add("trace.overhead_share", Median(traced_walls) / wall - 1.0,
               "share");
    report.Add("service.route_shards", static_cast<double>(threads), "count");
    report.job_spans = {"service.execute"};
    report.trace_json = recorder.ToChromeJson();
  }
  return report;
}

}  // namespace perfbench
