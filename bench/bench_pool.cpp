//===- bench/bench_pool.cpp - EnginePool serving throughput ---------------===//
///
/// \file
/// Throughput of the concurrent serving pool (support/pool.h): jobs/sec
/// at 1/2/4/8 workers over three request mixes.
///
///   ctak-cpu    pure-CPU continuation captures (the paper's ctak), no
///               wait time. Scales only with physical cores.
///   marks-cpu   pure-CPU continuation-mark churn (wcm + lookups).
///               Scales only with physical cores.
///   marks-heavy the serving mix: the same mark churn plus a short
///               simulated backend wait ((sleep-ms 3), standing in for a
///               database or upstream RPC). This is the deployment shape
///               EnginePool exists for, and the one where worker overlap
///               pays even on a single core: while one engine's request
///               waits, the other workers' requests run.
///
/// Each (mix, worker-count) cell builds a fresh pool, pushes a fixed
/// batch of jobs, and times submit-to-last-future-resolved wall clock.
/// The JSON blob (BENCH_pool.json, schema cmarks-bench-v1) keys cells as
/// benchmark = mix, variant = "workers-N", with the pool's aggregated
/// engine counters attached; jobs/sec and the 4-vs-1 speedup per mix are
/// also printed for eyeballing.
///
//===----------------------------------------------------------------------===//

#include "bench_harness.h"
#include "support/pool.h"
#include "support/rng.h"
#include "support/timing.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace cmk;
using namespace cmkbench;

namespace {

struct Mix {
  const char *Name;
  const char *Source; ///< One request's program text.
  long Jobs;          ///< Batch size before scaling.
};

const Mix Mixes[] = {
    {"ctak-cpu",
     "(ctak 15 10 5)",
     60},
    {"marks-cpu",
     "(let loop ((i 0) (acc 0))"
     "  (if (= i 120) acc"
     "      (with-continuation-mark 'k i"
     "        (loop (+ i 1)"
     "              (+ acc (car (continuation-mark-set->list"
     "                           (current-continuation-marks) 'k)))))))",
     150},
    {"marks-heavy",
     "(begin"
     "  (sleep-ms 3)" // Simulated backend wait (DB/upstream call).
     "  (let loop ((i 0) (acc 0))"
     "    (if (= i 60) acc"
     "        (with-continuation-mark 'k i"
     "          (loop (+ i 1)"
     "                (+ acc (car (continuation-mark-set->list"
     "                             (current-continuation-marks) 'k))))))))",
     200},
};

/// ctak needs a definition in every worker engine; submitted as a plain
/// job to each worker would be racy (no affinity), so it rides along in
/// every request instead. Cheap: define is a couple of instructions.
const char *CtakPrelude =
    "(define (ctak x y z)"
    "  (call/cc (lambda (k) (ctak-aux k x y z))))"
    "(define (ctak-aux k x y z)"
    "  (if (not (< y x))"
    "      (k z)"
    "      (ctak-aux k"
    "                (call/cc (lambda (k) (ctak-aux k (- x 1) y z)))"
    "                (call/cc (lambda (k) (ctak-aux k (- y 1) z x)))"
    "                (call/cc (lambda (k) (ctak-aux k (- z 1) x y))))))";

/// Times one batch of Jobs identical requests on a pool of W workers.
/// Returns the wall-clock of submit..last-resolve, the pool's final
/// aggregated engine counters, and per-job latency percentiles
/// (job_p50_ms / job_p99_ms / queue_wait_p50_ms / queue_wait_p99_ms)
/// from the pool's telemetry histograms.
Measurement runBatch(const Mix &M, unsigned W, long Jobs,
                     bool Fibers = false) {
  RunStats Wall;
  VMStats Counters;
  PoolTelemetry Telemetry;
  std::string Source = M.Source;
  if (std::string(M.Name) == "ctak-cpu")
    Source = std::string(CtakPrelude) + Source;
  for (int R = 0; R < runCount(); ++R) {
    PoolOptions Opts;
    Opts.Workers = W;
    Opts.QueueCapacity = static_cast<size_t>(Jobs) + 8;
    // Fiber mode (DESIGN.md section 16): jobs multiplex cooperatively
    // over the workers; a request's simulated backend wait parks its
    // fiber instead of pinning the worker thread.
    Opts.EnableFibers = Fibers;
    Opts.MaxFibersPerWorker = 256;
    EnginePool Pool(Opts);
    // Warm-up barrier: engines are constructed lazily on their worker
    // threads (prelude load included), which must not be billed to the
    // batch. One sleep job per worker spreads across all of them (a
    // worker is pinned to its job for the whole sleep), so every engine
    // is built and warm before the clock starts.
    {
      std::vector<std::future<JobResult>> Warm;
      for (unsigned I = 0; I < W; ++I)
        Warm.push_back(Pool.submit("(sleep-ms 15)"));
      for (auto &F : Warm)
        F.get();
    }
    std::vector<std::future<JobResult>> Futures;
    Futures.reserve(static_cast<size_t>(Jobs));
    uint64_t T0 = nowNanos();
    for (long I = 0; I < Jobs; ++I)
      Futures.push_back(Pool.submit(Source));
    for (auto &F : Futures) {
      JobResult JR = F.get();
      if (!JR.Ok) {
        std::fprintf(stderr, "bench_pool: job failed: %s\n",
                     JR.Error.c_str());
        std::exit(1);
      }
    }
    uint64_t T1 = nowNanos();
    Wall.addSampleNanos(T1 - T0);
    Pool.shutdown();
    Telemetry = Pool.telemetry(); // Last run's telemetry represents the cell.
    Counters = Telemetry.Stats.Engines;
  }
  Measurement Out{{Wall.averageMillis(), Wall.stddevMillis()}, Counters, {}};
  // Histogram samples are microseconds; export milliseconds to match the
  // blob's other timing fields. The warm-up jobs are included — they are
  // a negligible, constant W samples against the batch.
  Out.Extras = {
      {"job_p50_ms", Telemetry.RunUs.percentile(50) / 1000.0},
      {"job_p99_ms", Telemetry.RunUs.percentile(99) / 1000.0},
      {"queue_wait_p50_ms", Telemetry.QueueWaitUs.percentile(50) / 1000.0},
      {"queue_wait_p99_ms", Telemetry.QueueWaitUs.percentile(99) / 1000.0},
  };
  return Out;
}

/// Chaos mix: the resilience-shaped cell. A seeded hostile blend —
/// mostly healthy mark-churn requests (retries armed) plus timeout
/// spinners, catchable heap eaters, and reserve escalators that poison
/// their worker engine and force a supervised restart — timed exactly
/// like the other cells. Hostile failures are the point of the mix, so
/// a failed job is never fatal to the benchmark; what the cell reports
/// is throughput *under* chaos plus goodput_pct / worker_restarts /
/// shed / expired extras.
Measurement runChaosBatch(unsigned W, long Jobs) {
  RunStats Wall;
  VMStats Counters;
  PoolTelemetry Telemetry;
  uint64_t Healthy = 0, HealthyOk = 0;
  for (int R = 0; R < runCount(); ++R) {
    PoolOptions Opts;
    Opts.Workers = W;
    Opts.QueueCapacity = static_cast<size_t>(Jobs) + 8;
    EnginePool Pool(Opts);
    {
      std::vector<std::future<JobResult>> Warm;
      for (unsigned I = 0; I < W; ++I)
        Warm.push_back(Pool.submit("(sleep-ms 15)"));
      for (auto &F : Warm)
        F.get();
    }
    std::vector<std::pair<bool, std::future<JobResult>>> Futures;
    Futures.reserve(static_cast<size_t>(Jobs));
    uint64_t T0 = nowNanos();
    for (long I = 0; I < Jobs; ++I) {
      // The mix is a pure function of (run, index): reruns replay it.
      Rng Roll(static_cast<uint64_t>(R) * 0x9e3779b97f4a7c15ULL +
               static_cast<uint64_t>(I));
      uint64_t P = Roll.nextBelow(1000);
      SubmitOptions SO;
      std::string Source;
      bool IsHealthy = false;
      if (P < 40) { // Spinner: evicted by its timeout.
        Source = "(let loop () (loop))";
        EngineLimits L;
        L.TimeoutMs = 25;
        SO.limits(L);
      } else if (P < 90) { // Heap eater: catchable budget trip.
        Source = "(let loop ((a '())) (loop (cons (make-vector 1024 0) a)))";
        EngineLimits L;
        L.HeapBytes = 4u << 20;
        L.TimeoutMs = 2000;
        SO.limits(L);
      } else if (P < 120) { // Escalator: fatal; forces a worker restart.
        Source =
            "(define sink '())"
            "(with-handlers ([exn:heap-limit? (lambda (e)"
            "                   (let loop ()"
            "                     (set! sink (cons (make-vector 4096 0) sink))"
            "                     (loop)))])"
            "  (let loop ()"
            "    (set! sink (cons (make-vector 4096 0) sink))"
            "    (loop)))";
        EngineLimits L;
        L.HeapBytes = 4u << 20;
        L.HeapHeadroomBytes = 256u << 10;
        L.TimeoutMs = 5000;
        SO.limits(L);
      } else { // Healthy mark churn, retries armed for transients.
        IsHealthy = true;
        Source = Mixes[1].Source;
        EngineLimits L;
        L.TimeoutMs = 2000;
        SO.limits(L);
        RetryPolicy RP;
        RP.MaxAttempts = 3;
        RP.BaseBackoffMs = 1;
        RP.MaxBackoffMs = 8;
        SO.retry(RP);
      }
      Futures.emplace_back(IsHealthy, Pool.submit(std::move(Source), SO));
    }
    for (auto &KV : Futures) {
      JobResult JR = KV.second.get();
      if (KV.first) {
        ++Healthy;
        if (JR.Ok)
          ++HealthyOk;
      }
    }
    uint64_t T1 = nowNanos();
    Wall.addSampleNanos(T1 - T0);
    Pool.shutdown();
    Telemetry = Pool.telemetry(); // Last run's telemetry represents the cell.
    Counters = Telemetry.Stats.Engines;
  }
  Measurement Out{{Wall.averageMillis(), Wall.stddevMillis()}, Counters, {}};
  const PoolStats &S = Telemetry.Stats;
  Out.Extras = {
      {"job_p50_ms", Telemetry.RunUs.percentile(50) / 1000.0},
      {"job_p99_ms", Telemetry.RunUs.percentile(99) / 1000.0},
      {"queue_wait_p99_ms", Telemetry.QueueWaitUs.percentile(99) / 1000.0},
      {"goodput_pct",
       Healthy ? 100.0 * static_cast<double>(HealthyOk) /
                     static_cast<double>(Healthy)
               : 100.0},
      {"worker_restarts", static_cast<double>(S.WorkerRestarts)},
      {"jobs_shed",
       static_cast<double>(S.ByOutcome[static_cast<int>(JobOutcome::Shed)])},
      {"jobs_expired",
       static_cast<double>(S.ByOutcome[static_cast<int>(JobOutcome::Expired)])},
      {"retries", static_cast<double>(S.RetriesAttempted)},
  };
  return Out;
}

/// CI artifact hook: when CMARKS_BENCH_METRICS_JSON / _METRICS_PROM /
/// _PROFILE name files, run one fully-instrumented marks-heavy batch
/// (trace ring + 97 Hz sampler on every worker) and write the pool's
/// metrics / profile artifacts there for tools/metrics_report.py and
/// tools/profile_report.py to validate.
void emitArtifacts() {
  const char *JsonPath = std::getenv("CMARKS_BENCH_METRICS_JSON");
  const char *PromPath = std::getenv("CMARKS_BENCH_METRICS_PROM");
  const char *ProfPath = std::getenv("CMARKS_BENCH_PROFILE");
  if (!JsonPath && !PromPath && !ProfPath)
    return;

  const Mix &M = Mixes[2]; // marks-heavy: the serving-shaped mix.
  long Jobs = scaled(M.Jobs);
  PoolOptions Opts;
  Opts.Workers = 4;
  Opts.QueueCapacity = static_cast<size_t>(Jobs) + 8;
  Opts.TraceCapacity = 32 * 1024;
  if (ProfPath)
    Opts.ProfileHz = 97;
  EnginePool Pool(Opts);
  std::vector<std::future<JobResult>> Futures;
  Futures.reserve(static_cast<size_t>(Jobs));
  for (long I = 0; I < Jobs; ++I)
    Futures.push_back(Pool.submit(M.Source));
  for (auto &F : Futures)
    F.get();
  Pool.shutdown();

  auto WriteTo = [](const char *Path, const std::string &Body) {
    if (!writeFile(Path, Body)) {
      std::fprintf(stderr, "bench_pool: cannot write %s\n", Path);
      std::exit(1);
    }
    std::printf("  [artifact: %s]\n", Path);
  };
  if (JsonPath)
    WriteTo(JsonPath, Pool.metricsJson());
  if (PromPath)
    WriteTo(PromPath, Pool.metricsText());
  if (ProfPath)
    WriteTo(ProfPath, Pool.profileCollapsed());
}

} // namespace

int main() {
  const unsigned WorkerCounts[] = {1, 2, 4, 8};
  JsonReport Json("pool");

  printTitle("EnginePool serving throughput (jobs/sec)");
  printNote("one private engine per worker; batch timed submit->resolve");
  printNote("marks-heavy includes a 3ms simulated backend wait per request,");
  printNote("so it scales with worker overlap even on a single core; the");
  printNote("-cpu mixes scale only with physical cores");

  // Blocking marks-heavy cells, kept per worker count for the fiber
  // comparison below (equal workers, same mix, same batch).
  double BlockingHeavyMs[9] = {0};

  for (const Mix &M : Mixes) {
    long Jobs = scaled(M.Jobs);
    std::printf("\n  %s (%ld jobs/batch)\n", M.Name, Jobs);
    double OneWorkerMs = 0;
    for (unsigned W : WorkerCounts) {
      Measurement R = runBatch(M, W, Jobs);
      if (W == 1)
        OneWorkerMs = R.T.AvgMs;
      if (std::string(M.Name) == "marks-heavy")
        BlockingHeavyMs[W] = R.T.AvgMs;
      double JobsPerSec =
          R.T.AvgMs > 0 ? 1000.0 * static_cast<double>(Jobs) / R.T.AvgMs : 0;
      double Speedup = R.T.AvgMs > 0 ? OneWorkerMs / R.T.AvgMs : 0;
      std::printf("    workers=%u %9.1f ms  +/-%-6.1f %9.0f jobs/s  x%.2f\n",
                  W, R.T.AvgMs, R.T.StdevMs, JobsPerSec, Speedup);
      Json.add(M.Name, "workers-" + std::to_string(W), R);
    }
  }

  {
    // Fiber-mode marks-heavy: the tentpole comparison. At equal workers
    // the cooperative pool overlaps every request's backend wait, so
    // jobs/sec should exceed the blocking pool by the ratio of wait time
    // to CPU time per request (>= 5x with the 3ms wait in this mix).
    const Mix &M = Mixes[2];
    long Jobs = scaled(M.Jobs);
    std::printf("\n  marks-heavy-fibers (%ld jobs/batch; cooperative pool, "
                "same mix)\n",
                Jobs);
    for (unsigned W : WorkerCounts) {
      Measurement R = runBatch(M, W, Jobs, /*Fibers=*/true);
      double JobsPerSec =
          R.T.AvgMs > 0 ? 1000.0 * static_cast<double>(Jobs) / R.T.AvgMs : 0;
      double VsBlocking = R.T.AvgMs > 0 && W < 9 && BlockingHeavyMs[W] > 0
                              ? BlockingHeavyMs[W] / R.T.AvgMs
                              : 0;
      R.Extras.push_back({"vs_blocking_speedup", VsBlocking});
      std::printf("    workers=%u %9.1f ms  +/-%-6.1f %9.0f jobs/s  "
                  "x%.2f vs blocking\n",
                  W, R.T.AvgMs, R.T.StdevMs, JobsPerSec, VsBlocking);
      Json.add("marks-heavy-fibers", "workers-" + std::to_string(W), R);
    }
  }
  {
    long Jobs = scaled(120);
    std::printf("\n  chaos-mix (%ld jobs/batch; hostile blend, see header)\n",
                Jobs);
    double OneWorkerMs = 0;
    for (unsigned W : WorkerCounts) {
      Measurement R = runChaosBatch(W, Jobs);
      if (W == 1)
        OneWorkerMs = R.T.AvgMs;
      double JobsPerSec =
          R.T.AvgMs > 0 ? 1000.0 * static_cast<double>(Jobs) / R.T.AvgMs : 0;
      double Speedup = R.T.AvgMs > 0 ? OneWorkerMs / R.T.AvgMs : 0;
      std::printf("    workers=%u %9.1f ms  +/-%-6.1f %9.0f jobs/s  x%.2f  "
                  "goodput=%.1f%% restarts=%.0f\n",
                  W, R.T.AvgMs, R.T.StdevMs, JobsPerSec, Speedup,
                  R.Extras[3].second, R.Extras[4].second);
      Json.add("chaos-mix", "workers-" + std::to_string(W), R);
    }
  }
  emitArtifacts();
  return 0;
}
