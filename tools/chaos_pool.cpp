//===- tools/chaos_pool.cpp - Pool chaos/resilience harness ----*- C++ -*-===//
///
/// \file
/// Drives an EnginePool through a seeded hostile traffic mix — healthy
/// marks-heavy jobs (with retries armed), spinner hogs, catchable heap
/// eaters, and reserve escalators that poison their worker engine — and
/// asserts the resilience invariants the serving layer promises:
///
///   - zero hung submitters or workers (a watchdog turns a hang into a
///     loud exit instead of a stuck CI job),
///   - every submitted job resolves with exactly one typed outcome, and
///     the client-observed outcome counts match the pool's telemetry
///     exactly (full accounting),
///   - goodput: >= 90% (configurable) of the *healthy* jobs succeed even
///     while the hostile mix trips limits and forces engine rebuilds,
///   - when escalators are in the mix, at least one supervised worker
///     restart is observable in telemetry AND in the merged trace.
///
/// Built with -DCMARKS_FAULTS=ON the same binary doubles as the chaos
/// leg of the fault campaign: --fault-spec=SPEC (or CMARKS_FAULT_SPEC)
/// arms deterministic fault schedules inside every worker engine, and
/// the per-worker salt (FaultInjector::reseed) keeps the fleet from
/// injecting in lockstep. tools/fault_sweep.py --pool sweeps this
/// binary across the standard schedules; .github/workflows/ci.yml runs
/// `chaos_pool --smoke` under ASan, and soak.yml runs a nightly
/// fresh-seed campaign.
///
/// Exit codes: 0 all invariants held, 1 an invariant failed, 2 usage or
/// watchdog timeout.
///
//===----------------------------------------------------------------------===//

#include "support/pool.h"
#include "support/rng.h"
#include "support/timing.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace cmk;

namespace {

struct ChaosOptions {
  uint64_t Jobs = 600;
  unsigned Workers = 4;
  unsigned Submitters = 3;
  uint64_t Seed = 1;
  uint64_t DeadlineMs = 0;      ///< 0 = no per-job deadline.
  uint64_t QueueWaitBudgetMs = 0; ///< 0 = admission control off.
  uint32_t Breaker = 6;         ///< Consecutive-fatal circuit breaker.
  bool Fibers = false;          ///< Run the mix on a fiber-mode pool.
  uint64_t GoodputPct = 90;     ///< Minimum healthy-job success rate.
  uint64_t WatchdogSec = 300;   ///< Hang -> diagnostics + exit 2.
  unsigned HostilePermille[3] = {60, 50, 30}; ///< spinner/eater/escalator.
  std::string FaultSpec;        ///< --fault-spec: exported to the env.
  std::string ReportFile;       ///< cmarks-chaos-v1 JSON.
  std::string TraceFile;        ///< Merged Perfetto timeline.
  std::string MetricsFile;      ///< Pool cmarks-metrics-v1 JSON.
};

/// Job archetypes in the mix. Healthy jobs count toward goodput; the
/// hostile kinds are *supposed* to fail in their specific way.
enum JobKind : int { Healthy = 0, Spinner, HeapEater, Escalator, NumKinds };

const char *kindName(int K) {
  switch (K) {
  case Healthy:
    return "healthy";
  case Spinner:
    return "spinner";
  case HeapEater:
    return "heap-eater";
  case Escalator:
    return "escalator";
  }
  return "?";
}

/// Healthy: a marks-heavy workload (wcm + first-mark lookups + a capture)
/// sized to run in roughly a millisecond.
std::string healthySource(uint64_t N) {
  return "(let loop ((i 120) (acc " + std::to_string(N % 97) + "))"
         "  (if (= i 0)"
         "      (call/cc (lambda (k) (k acc)))"
         "      (loop (- i 1)"
         "            (+ acc (with-continuation-mark 'chaos i"
         "                     (continuation-mark-set-first #f 'chaos))))))";
}

/// Spinner: infinite loop; its tight per-job timeout evicts it.
const char *spinnerSource() { return "(let loop () (loop))"; }

/// Heap eater: allocates until the (catchable) budget trip ends the run;
/// the engine recovers and keeps serving.
const char *heapEaterSource() {
  return "(let loop ((a '())) (loop (cons (make-vector 1024 0) a)))";
}

/// Reserve escalator: allocates *live* data through the trip handler, so
/// the run burns past the headroom slab into the fatal ResourceExhausted
/// — the engine-poisoning failure worker supervision exists for.
const char *escalatorSource() {
  return "(define chaos-sink '())"
         "(with-handlers ([exn:heap-limit? (lambda (e)"
         "                   (let loop ()"
         "                     (set! chaos-sink"
         "                           (cons (make-vector 4096 0) chaos-sink))"
         "                     (loop)))])"
         "  (let loop ()"
         "    (set! chaos-sink (cons (make-vector 4096 0) chaos-sink))"
         "    (loop)))";
}

struct PlannedJob {
  int Kind;
  std::string Source;
  SubmitOptions SO;
};

PlannedJob planJob(uint64_t Index, const ChaosOptions &C, Rng &R) {
  PlannedJob P;
  uint64_t Roll = R.nextBelow(1000);
  if (Roll < C.HostilePermille[0]) {
    P.Kind = Spinner;
    P.Source = spinnerSource();
    EngineLimits L;
    L.TimeoutMs = 40;
    P.SO.limits(L);
  } else if (Roll < C.HostilePermille[0] + C.HostilePermille[1]) {
    P.Kind = HeapEater;
    P.Source = heapEaterSource();
    EngineLimits L;
    L.HeapBytes = 4u << 20;
    L.TimeoutMs = 2000; // Backstop: the budget trip is the expected exit.
    P.SO.limits(L);
  } else if (Roll < C.HostilePermille[0] + C.HostilePermille[1] +
                        C.HostilePermille[2]) {
    P.Kind = Escalator;
    P.Source = escalatorSource();
    EngineLimits L;
    L.HeapBytes = 4u << 20;
    L.HeapHeadroomBytes = 256u << 10;
    L.TimeoutMs = 5000;
    P.SO.limits(L);
  } else {
    P.Kind = Healthy;
    P.Source = healthySource(Index);
    EngineLimits L;
    L.TimeoutMs = 2000; // Generous: healthy jobs run in ~1ms.
    P.SO.limits(L);
    RetryPolicy RP;
    RP.MaxAttempts = 3;
    RP.BaseBackoffMs = 1;
    RP.MaxBackoffMs = 8;
    P.SO.retry(RP);
  }
  if (C.DeadlineMs)
    P.SO.deadlineMs(C.DeadlineMs);
  return P;
}

/// Client-side outcome ledger: one slot per JobOutcome value, per kind.
struct Ledger {
  uint64_t ByOutcome[NumJobOutcomes] = {0};
  uint64_t ByKind[NumKinds] = {0};
  uint64_t KindOk[NumKinds] = {0};
  /// Per kind: refused without running (shed/expired/rejected) — load
  /// management, not a verdict on the job itself.
  uint64_t KindManaged[NumKinds] = {0};
  uint64_t AttemptsGe2 = 0;
};

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End != S && *End == '\0';
}

void usage() {
  std::printf(
      "chaos_pool: EnginePool resilience harness\n"
      "usage: chaos_pool [options]\n"
      "  --smoke            quick CI mix (200 jobs, 4 workers, seed 1)\n"
      "  --jobs=N           total jobs to submit (default 600)\n"
      "  --workers=N        pool workers (default 4)\n"
      "  --submitters=N     concurrent submitter threads (default 3)\n"
      "  --seed=N           mix selection seed (default 1)\n"
      "  --deadline-ms=N    per-job deadline (default off)\n"
      "  --queue-budget-ms=N  arm admission control at this queue-wait\n"
      "                     p99 budget (default off)\n"
      "  --breaker=N        consecutive-fatal circuit breaker (default 6)\n"
      "  --fibers           serve the mix cooperatively (EnableFibers): the\n"
      "                     hostile jobs' limits must still hit only them\n"
      "  --goodput=PCT      minimum healthy success rate (default 90)\n"
      "  --watchdog-sec=N   hang watchdog (default 300)\n"
      "  --fault-spec=SPEC  set CMARKS_FAULT_SPEC for the worker engines\n"
      "                     (active in -DCMARKS_FAULTS=ON builds)\n"
      "  --report=FILE      write a cmarks-chaos-v1 JSON report\n"
      "  --trace=FILE       write the merged Perfetto timeline\n"
      "  --metrics=FILE     write the pool cmarks-metrics-v1 snapshot\n"
      "  -h, --help         this message\n"
      "Exit codes: 0 invariants held, 1 invariant failed, 2 usage/hang.\n");
}

} // namespace

int main(int Argc, char **Argv) {
  ChaosOptions C;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    uint64_t N = 0;
    if (Arg == "-h" || Arg == "--help") {
      usage();
      return 0;
    } else if (Arg == "--smoke") {
      C.Jobs = 200;
      C.Workers = 4;
      C.Submitters = 3;
      C.WatchdogSec = 180;
    } else if (Arg.rfind("--jobs=", 0) == 0 && parseU64(Arg.c_str() + 7, N)) {
      C.Jobs = N;
    } else if (Arg.rfind("--workers=", 0) == 0 &&
               parseU64(Arg.c_str() + 10, N) && N > 0) {
      C.Workers = static_cast<unsigned>(N);
    } else if (Arg.rfind("--submitters=", 0) == 0 &&
               parseU64(Arg.c_str() + 13, N) && N > 0) {
      C.Submitters = static_cast<unsigned>(N);
    } else if (Arg.rfind("--seed=", 0) == 0 && parseU64(Arg.c_str() + 7, N)) {
      C.Seed = N;
    } else if (Arg.rfind("--deadline-ms=", 0) == 0 &&
               parseU64(Arg.c_str() + 14, N)) {
      C.DeadlineMs = N;
    } else if (Arg.rfind("--queue-budget-ms=", 0) == 0 &&
               parseU64(Arg.c_str() + 18, N)) {
      C.QueueWaitBudgetMs = N;
    } else if (Arg.rfind("--breaker=", 0) == 0 &&
               parseU64(Arg.c_str() + 10, N)) {
      C.Breaker = static_cast<uint32_t>(N);
    } else if (Arg == "--fibers") {
      C.Fibers = true;
    } else if (Arg.rfind("--goodput=", 0) == 0 &&
               parseU64(Arg.c_str() + 10, N) && N <= 100) {
      C.GoodputPct = N;
    } else if (Arg.rfind("--watchdog-sec=", 0) == 0 &&
               parseU64(Arg.c_str() + 15, N) && N > 0) {
      C.WatchdogSec = N;
    } else if (Arg.rfind("--fault-spec=", 0) == 0) {
      C.FaultSpec = Arg.substr(13);
    } else if (Arg.rfind("--report=", 0) == 0) {
      C.ReportFile = Arg.substr(9);
    } else if (Arg.rfind("--trace=", 0) == 0) {
      C.TraceFile = Arg.substr(8);
    } else if (Arg.rfind("--metrics=", 0) == 0) {
      C.MetricsFile = Arg.substr(10);
    } else {
      std::fprintf(stderr, "chaos_pool: bad option %s (try --help)\n",
                   Arg.c_str());
      return 2;
    }
  }

  // Worker engines read CMARKS_FAULT_SPEC at construction; export the
  // spec before the pool exists. (setenv, not putenv: the string's
  // lifetime must outlive the engines.)
  if (!C.FaultSpec.empty())
    setenv("CMARKS_FAULT_SPEC", C.FaultSpec.c_str(), 1);

  // Hang watchdog: the whole point of the harness is "zero hung
  // submitters"; if that invariant breaks, fail loudly instead of
  // letting CI time the job out with no diagnostics.
  std::mutex WatchMu;
  std::condition_variable WatchCv;
  bool RunDone = false;
  std::thread Watchdog([&] {
    std::unique_lock<std::mutex> L(WatchMu);
    if (!WatchCv.wait_for(L, std::chrono::seconds(C.WatchdogSec),
                          [&] { return RunDone; })) {
      std::fprintf(stderr,
                   "chaos_pool: HUNG after %llu s (submitter or worker "
                   "stuck); aborting\n",
                   static_cast<unsigned long long>(C.WatchdogSec));
      _exit(2);
    }
  });

  PoolOptions PO;
  PO.Workers = C.Workers;
  PO.QueueCapacity = 128;
  PO.BreakerThreshold = C.Breaker;
  PO.QueueWaitBudgetMs = C.QueueWaitBudgetMs;
  // A --smoke run records 130-140k events across all workers, and one
  // worker may run most of the jobs; rings that each hold a whole run keep
  // every event in the merged trace (the failure artifact).
  PO.TraceCapacity = 2 * TraceBuffer::DefaultCapacity;
  PO.EnableFibers = C.Fibers;
  uint64_t T0 = nowNanos();
  uint64_t Restarts = 0, BreakerOpens = 0, Retries = 0;
  Ledger Total;
  uint64_t EscalatorsSubmitted = 0;
  PoolTelemetry T;
  {
    EnginePool Pool(PO);

    std::vector<std::thread> Submitters;
    std::vector<Ledger> Ledgers(C.Submitters);
    std::atomic<uint64_t> NextIndex{0};
    for (unsigned S = 0; S < C.Submitters; ++S) {
      Submitters.emplace_back([&, S] {
        Ledger &L = Ledgers[S];
        // Bounded batches: collect a window of futures, then drain it, so
        // a submitter never holds thousands of pending futures.
        std::vector<std::pair<int, std::future<JobResult>>> Window;
        auto Drain = [&] {
          for (auto &KV : Window) {
            JobResult R = KV.second.get();
            ++L.ByOutcome[static_cast<int>(R.Outcome)];
            ++L.ByKind[KV.first];
            if (R.Ok)
              ++L.KindOk[KV.first];
            if (R.Outcome == JobOutcome::Shed ||
                R.Outcome == JobOutcome::Expired ||
                R.Outcome == JobOutcome::Rejected)
              ++L.KindManaged[KV.first];
            if (R.Attempts >= 2)
              ++L.AttemptsGe2;
          }
          Window.clear();
        };
        for (;;) {
          uint64_t I = NextIndex.fetch_add(1);
          if (I >= C.Jobs)
            break;
          // Per-job rng: the mix is a pure function of (seed, index), so
          // a failing run replays exactly regardless of thread timing.
          Rng R(C.Seed * 0x9e3779b97f4a7c15ULL + I);
          PlannedJob P = planJob(I, C, R);
          Window.emplace_back(P.Kind,
                              Pool.submit(std::move(P.Source), P.SO));
          if (Window.size() >= 32)
            Drain();
        }
        Drain();
      });
    }
    for (std::thread &Th : Submitters)
      Th.join();

    Pool.shutdown(/*Drain=*/true);
    T = Pool.telemetry();
    Restarts = T.Stats.WorkerRestarts;
    BreakerOpens = T.Stats.BreakerOpens;
    Retries = T.Stats.RetriesAttempted;
    for (const Ledger &L : Ledgers) {
      for (int I = 0; I < NumJobOutcomes; ++I)
        Total.ByOutcome[I] += L.ByOutcome[I];
      for (int K = 0; K < NumKinds; ++K) {
        Total.ByKind[K] += L.ByKind[K];
        Total.KindOk[K] += L.KindOk[K];
        Total.KindManaged[K] += L.KindManaged[K];
      }
      Total.AttemptsGe2 += L.AttemptsGe2;
    }
    EscalatorsSubmitted = Total.ByKind[Escalator];

    if (!C.TraceFile.empty() && !Pool.dumpTrace(C.TraceFile))
      std::fprintf(stderr, "chaos_pool: cannot write trace to %s\n",
                   C.TraceFile.c_str());
    if (!C.MetricsFile.empty() &&
        !writeFile(C.MetricsFile, Pool.metricsJson()))
      std::fprintf(stderr, "chaos_pool: cannot write metrics to %s\n",
                   C.MetricsFile.c_str());

    // --- Invariant checks (while the trace is still reachable) ----------
    int Failures = 0;
    auto Check = [&](bool Cond, const char *What) {
      if (!Cond) {
        ++Failures;
        std::fprintf(stderr, "chaos_pool: FAIL %s\n", What);
      }
    };

    // 1. Full accounting: every submitted job resolved with exactly one
    //    outcome, and the client ledger matches the pool's telemetry
    //    outcome by outcome (rejections come only from a breaker-forced
    //    pool-off here, since every future is drained before the drain
    //    shutdown).
    uint64_t ClientTotal = 0;
    for (int I = 0; I < NumJobOutcomes; ++I) {
      ClientTotal += Total.ByOutcome[I];
      if (Total.ByOutcome[I] != T.Stats.ByOutcome[I]) {
        ++Failures;
        std::fprintf(stderr,
                     "chaos_pool: FAIL %s count %llu != telemetry %llu\n",
                     jobOutcomeName(static_cast<JobOutcome>(I)),
                     static_cast<unsigned long long>(Total.ByOutcome[I]),
                     static_cast<unsigned long long>(T.Stats.ByOutcome[I]));
      }
    }
    Check(ClientTotal == C.Jobs, "every job resolves exactly once");

    // 2. Goodput: healthy traffic survives the hostile mix. Jobs the
    //    pool refused without running (shed under an armed admission
    //    budget, expired past a configured deadline) are load-management
    //    working as designed, not lost goodput.
    uint64_t HealthyOk = Total.KindOk[Healthy];
    uint64_t HealthyRan =
        Total.ByKind[Healthy] - Total.KindManaged[Healthy];
    double Goodput =
        HealthyRan ? 100.0 * static_cast<double>(HealthyOk) /
                         static_cast<double>(HealthyRan)
                   : 100.0;
    if (Goodput < static_cast<double>(C.GoodputPct)) {
      ++Failures;
      std::fprintf(stderr,
                   "chaos_pool: FAIL goodput %.1f%% < %llu%% (healthy ok "
                   "%llu / ran %llu)\n",
                   Goodput, static_cast<unsigned long long>(C.GoodputPct),
                   static_cast<unsigned long long>(HealthyOk),
                   static_cast<unsigned long long>(HealthyRan));
    }

    // 3. Supervision actually exercised and observable end to end —
    //    judged on escalators that *ran*; ones refused at the door by
    //    admission control or deadlines never reached an engine.
    uint64_t EscalatorsRan =
        EscalatorsSubmitted - Total.KindManaged[Escalator];
    if (EscalatorsRan > 0) {
      Check(Restarts >= 1 || BreakerOpens >= 1,
            "escalators forced at least one supervised restart");
      std::string Trace = Pool.traceJson();
      Check(Trace.find("\"name\":\"worker-restart\"") != std::string::npos ||
                BreakerOpens >= 1,
            "worker-restart span present in the merged trace");
    }

    // 4. No worker retired more than once.
    Check(BreakerOpens <= C.Workers, "at most one breaker open per worker");

    uint64_t ElapsedMs = (nowNanos() - T0) / 1000000;
    std::printf("chaos_pool: %llu jobs / %u %s workers / seed %llu in %llu "
                "ms\n  outcomes:",
                static_cast<unsigned long long>(C.Jobs), C.Workers,
                C.Fibers ? "fiber" : "blocking",
                static_cast<unsigned long long>(C.Seed),
                static_cast<unsigned long long>(ElapsedMs));
    for (int I = 0; I < NumJobOutcomes; ++I)
      std::printf(" %s=%llu", jobOutcomeName(static_cast<JobOutcome>(I)),
                  static_cast<unsigned long long>(Total.ByOutcome[I]));
    std::printf(
        "\n  mix: healthy=%llu spinner=%llu eater=%llu escalator=%llu\n"
        "  goodput=%.1f%% restarts=%llu breaker-opens=%llu retries=%llu "
        "retried-jobs=%llu\n",
        static_cast<unsigned long long>(Total.ByKind[Healthy]),
        static_cast<unsigned long long>(Total.ByKind[Spinner]),
        static_cast<unsigned long long>(Total.ByKind[HeapEater]),
        static_cast<unsigned long long>(Total.ByKind[Escalator]), Goodput,
        static_cast<unsigned long long>(Restarts),
        static_cast<unsigned long long>(BreakerOpens),
        static_cast<unsigned long long>(Retries),
        static_cast<unsigned long long>(Total.AttemptsGe2));

    if (!C.ReportFile.empty()) {
      std::FILE *F = std::fopen(C.ReportFile.c_str(), "w");
      if (!F) {
        std::fprintf(stderr, "chaos_pool: cannot write report to %s\n",
                     C.ReportFile.c_str());
      } else {
        std::fprintf(F, "{\n  \"schema\": \"cmarks-chaos-v1\",\n");
        std::fprintf(F, "  \"jobs\": %llu,\n  \"workers\": %u,\n",
                     static_cast<unsigned long long>(C.Jobs), C.Workers);
        std::fprintf(F, "  \"seed\": %llu,\n  \"elapsed_ms\": %llu,\n",
                     static_cast<unsigned long long>(C.Seed),
                     static_cast<unsigned long long>(ElapsedMs));
        std::fprintf(F, "  \"fault_spec\": \"%s\",\n", C.FaultSpec.c_str());
        std::fprintf(F, "  \"outcomes\": {");
        for (int I = 0; I < NumJobOutcomes; ++I)
          std::fprintf(F, "%s\"%s\": %llu", I ? ", " : "",
                       jobOutcomeName(static_cast<JobOutcome>(I)),
                       static_cast<unsigned long long>(Total.ByOutcome[I]));
        std::fprintf(F, "},\n  \"mix\": {");
        for (int K = 0; K < NumKinds; ++K)
          std::fprintf(F, "%s\"%s\": %llu", K ? ", " : "", kindName(K),
                       static_cast<unsigned long long>(Total.ByKind[K]));
        std::fprintf(F,
                     "},\n  \"goodput_pct\": %.2f,\n"
                     "  \"worker_restarts\": %llu,\n"
                     "  \"breaker_opens\": %llu,\n"
                     "  \"retries\": %llu,\n"
                     "  \"faults_injected\": %llu,\n"
                     "  \"failures\": %d\n}\n",
                     Goodput, static_cast<unsigned long long>(Restarts),
                     static_cast<unsigned long long>(BreakerOpens),
                     static_cast<unsigned long long>(Retries),
                     static_cast<unsigned long long>(
                         T.Stats.Engines.FaultsInjected),
                     Failures);
        std::fclose(F);
      }
    }

    {
      std::lock_guard<std::mutex> L(WatchMu);
      RunDone = true;
    }
    WatchCv.notify_all();
    Watchdog.join();
    return Failures ? 1 : 0;
  }
}
