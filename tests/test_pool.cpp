//===- tests/test_pool.cpp - Concurrent multi-engine serving pool ---------===//
//
// EnginePool behavior: result correctness against serial execution,
// worker isolation of marks/parameters, resource-limit trips on one job
// not poisoning siblings, clean shutdown with jobs in flight, and the
// raw concurrent-engines smoke the ThreadSanitizer CI leg runs (which
// caught the shared procedure-name scratch buffer; see DESIGN.md §11).
//
//===----------------------------------------------------------------------===//

#include "support/pool.h"

#include "test_helpers.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace cmk;

namespace {

/// Jobs that resolved with outcome \p O.
uint64_t jobs(const PoolStats &S, JobOutcome O) {
  return S.ByOutcome[static_cast<int>(O)];
}

/// A small job vocabulary: self-contained expressions (no global state)
/// so serial and pooled evaluation must agree exactly.
std::vector<std::string> mixedJobs() {
  return {
      "(+ 1 2)",
      "(let loop ((i 100) (a 0)) (if (= i 0) a (loop (- i 1) (+ a i))))",
      "(with-continuation-mark 'k 7 (continuation-mark-set-first #f 'k))",
      "(let loop ((i 50) (a '())) (if (= i 0) (length a)"
      "  (loop (- i 1) (cons (with-continuation-mark 'm i"
      "    (continuation-mark-set-first #f 'm)) a))))",
      "(call/cc (lambda (k) (+ 1 (k 41))))",
      "(dynamic-wind (lambda () 'pre) (lambda () 'body) (lambda () 'post))",
      "(list (modulo 7.0 -2.0) (/ 1 0.0) (quotient -7 2))",
      "(apply + (list 1 2 3 4 5))",
      "(reverse '(a b c))",
      "(let ((v (make-vector 5 1))) (vector-set! v 2 9) (vector-ref v 2))",
  };
}

TEST(PoolTest, ResultsMatchSerialExecution) {
  std::vector<std::string> Jobs = mixedJobs();
  // Serial reference: one engine, in order.
  std::vector<std::string> Expected;
  {
    SchemeEngine Serial;
    for (const std::string &J : Jobs) {
      Expected.push_back(Serial.evalToString(J));
      ASSERT_TRUE(Serial.ok()) << Serial.lastError();
    }
  }
  PoolOptions O;
  O.Workers = 4;
  EnginePool Pool(O);
  // Several rounds so every worker sees several job kinds.
  std::vector<std::future<JobResult>> Futures;
  std::vector<std::string> Want;
  for (int Round = 0; Round < 5; ++Round)
    for (size_t I = 0; I < Jobs.size(); ++I) {
      Futures.push_back(Pool.submit(Jobs[I]));
      Want.push_back(Expected[I]);
    }
  for (size_t I = 0; I < Futures.size(); ++I) {
    JobResult R = Futures[I].get();
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, Want[I]);
  }
  PoolStats S = Pool.stats();
  EXPECT_EQ(jobs(S, JobOutcome::Ok), Futures.size());
  EXPECT_EQ(jobs(S, JobOutcome::Error), 0u);
  EXPECT_EQ(jobs(S, JobOutcome::Rejected), 0u);
}

TEST(PoolTest, WorkerIsolationOfMarksAndParameters) {
  PoolOptions O;
  O.Workers = 4;
  EnginePool Pool(O);
  // Every job binds the same mark key and a fresh parameter to its own
  // index; concurrent jobs on sibling workers must never observe each
  // other's bindings.
  std::vector<std::future<JobResult>> Futures;
  for (int I = 0; I < 64; ++I) {
    std::string N = std::to_string(I);
    Futures.push_back(Pool.submit(
        "(let ((p (make-parameter 'unset)))"
        "  (parameterize ((p " + N + "))"
        "    (list (p)"
        "          (with-continuation-mark 'shared-key " + N +
        "            (continuation-mark-set-first #f 'shared-key)))))"));
  }
  for (int I = 0; I < 64; ++I) {
    JobResult R = Futures[I].get();
    std::string N = std::to_string(I);
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, "(" + N + " " + N + ")");
  }
}

TEST(PoolTest, LimitTripOnOneJobDoesNotPoisonSiblings) {
  PoolOptions O;
  O.Workers = 2;
  EnginePool Pool(O);

  EngineLimits Tight;
  Tight.TimeoutMs = 50; // Stuck-job eviction: trips at a VM safe point.
  std::future<JobResult> Hog = Pool.submit("(let loop () (loop))", Tight);

  EngineLimits Heap;
  Heap.HeapBytes = 4u << 20;
  std::future<JobResult> Eater = Pool.submit(
      "(let loop ((a '())) (loop (cons (make-vector 1024 0) a)))", Heap);

  std::vector<std::future<JobResult>> Good;
  for (int I = 0; I < 20; ++I)
    Good.push_back(Pool.submit("(* 6 7)"));

  JobResult HogR = Hog.get();
  EXPECT_FALSE(HogR.Ok);
  EXPECT_EQ(HogR.Kind, ErrorKind::Timeout);

  JobResult EaterR = Eater.get();
  EXPECT_FALSE(EaterR.Ok);
  EXPECT_EQ(EaterR.Kind, ErrorKind::HeapLimit);

  for (auto &F : Good) {
    JobResult R = F.get();
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, "42");
  }

  // The workers that absorbed the trips keep serving correctly.
  for (int I = 0; I < 8; ++I) {
    JobResult R = Pool.submit("(+ 40 2)").get();
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, "42");
  }
  PoolStats S = Pool.stats();
  EXPECT_EQ(jobs(S, JobOutcome::TrippedTimeout), 1u);
  EXPECT_EQ(jobs(S, JobOutcome::TrippedHeap), 1u);
  EXPECT_GE(S.Engines.LimitTimeoutTrips, 1u);
  EXPECT_GE(S.Engines.LimitHeapTrips, 1u);
}

TEST(PoolTest, DrainShutdownFinishesQueuedJobs) {
  std::vector<std::future<JobResult>> Futures;
  {
    PoolOptions O;
    O.Workers = 2;
    EnginePool Pool(O);
    for (int I = 0; I < 12; ++I)
      Futures.push_back(Pool.submit("(begin (sleep-ms 5) " +
                                    std::to_string(I) + ")"));
    Pool.shutdown(/*Drain=*/true);
  } // Destructor after shutdown: must be a no-op, not a double join.
  for (int I = 0; I < 12; ++I) {
    JobResult R = Futures[I].get();
    EXPECT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.Output, std::to_string(I));
  }
}

TEST(PoolTest, ImmediateShutdownRejectsQueuedJobsButResolvesAllFutures) {
  PoolOptions O;
  O.Workers = 1;
  EnginePool Pool(O);
  std::vector<std::future<JobResult>> Futures;
  for (int I = 0; I < 10; ++I)
    Futures.push_back(Pool.submit("(begin (sleep-ms 20) 'slow)"));
  Pool.shutdown(/*Drain=*/false);
  unsigned Completed = 0, Rejected = 0;
  for (auto &F : Futures) {
    JobResult R = F.get(); // Every future resolves: no broken promises.
    if (R.Ok) {
      ++Completed;
      EXPECT_EQ(R.Outcome, JobOutcome::Ok);
      EXPECT_EQ(R.Output, "slow");
    } else {
      ++Rejected;
      EXPECT_EQ(R.Outcome, JobOutcome::Rejected);
      EXPECT_NE(R.Error.find("shut down"), std::string::npos) << R.Error;
    }
  }
  EXPECT_EQ(Completed + Rejected, 10u);
  EXPECT_GE(Rejected, 1u); // A 1-worker pool cannot have run all ten.
  EXPECT_EQ(jobs(Pool.stats(), JobOutcome::Rejected), Rejected);
}

TEST(PoolTest, SubmitAfterShutdownIsRejected) {
  PoolOptions O;
  O.Workers = 1;
  EnginePool Pool(O);
  Pool.shutdown();
  JobResult R = Pool.submit("(+ 1 2)").get();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Outcome, JobOutcome::Rejected);
  EXPECT_NE(R.Error.find("shut down"), std::string::npos);
}

TEST(PoolTest, InterruptAllEvictsRunningJobs) {
  PoolOptions O;
  O.Workers = 2;
  EnginePool Pool(O);
  std::vector<std::future<JobResult>> Spinners;
  for (int I = 0; I < 2; ++I)
    Spinners.push_back(Pool.submit("(let loop () (loop))"));
  // interruptAll only reaches evaluations that are actually running: a
  // worker still constructing its engine (or not yet past the dequeue)
  // never sees a one-shot request, and a pending interrupt is cleared
  // when the next run re-arms governance. So do what a real operator
  // does with a stuck worker: keep asking until the jobs are gone.
  bool Evicted = false;
  for (int I = 0; I < 1200 && !Evicted; ++I) {
    Pool.interruptAll();
    Evicted = true;
    for (auto &F : Spinners)
      if (F.wait_for(std::chrono::milliseconds(50)) !=
          std::future_status::ready)
        Evicted = false;
  }
  ASSERT_TRUE(Evicted);
  for (auto &F : Spinners) {
    JobResult R = F.get();
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Kind, ErrorKind::Interrupt);
  }
  // And the engines are reusable afterwards.
  EXPECT_EQ(Pool.submit("(+ 1 1)").get().Output, "2");
}

TEST(PoolTest, AggregatedStatsCoverAllWorkers) {
  PoolOptions O;
  O.Workers = 2;
  EnginePool Pool(O);
  std::vector<std::future<JobResult>> Futures;
  for (int I = 0; I < 16; ++I)
    Futures.push_back(Pool.submit("(call/cc (lambda (k) (k 42)))"));
  for (auto &F : Futures)
    EXPECT_EQ(F.get().Output, "42");
  PoolStats S = Pool.stats();
  EXPECT_EQ(S.JobsSubmitted, 16u);
  EXPECT_EQ(jobs(S, JobOutcome::Ok), 16u);
  // Cheap-tier counter: every job captured one continuation, and the
  // aggregate sums across both workers' engines.
  EXPECT_GE(S.Engines.ContinuationCaptures, 16u);
}

// --- Serving telemetry ----------------------------------------------------

TEST(PoolTest, TelemetryHistogramsCoverEveryRetiredJob) {
  PoolOptions O;
  O.Workers = 2;
  EnginePool Pool(O);
  std::vector<std::future<JobResult>> Futures;
  for (int I = 0; I < 20; ++I)
    Futures.push_back(Pool.submit("(+ 1 " + std::to_string(I) + ")"));
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().Ok);
  Pool.shutdown();
  PoolTelemetry T = Pool.telemetry();
  EXPECT_EQ(jobs(T.Stats, JobOutcome::Ok), 20u);
  EXPECT_EQ(T.QueueWaitUs.count(), 20u);
  EXPECT_EQ(T.RunUs.count(), 20u);
  // The outcome table partitions the resolved jobs.
  uint64_t Resolved = 0;
  for (uint64_t N : T.Stats.ByOutcome)
    Resolved += N;
  EXPECT_EQ(Resolved, 20u);
}

TEST(PoolTest, QueueWaitP99GrowsUnderBackpressure) {
  // One worker, a burst of jobs that each run for a measurable time: job
  // N queues behind N-1 full runs, so the queue-wait p99 (the last job's
  // wait) must exceed the median run time by a wide margin. This is the
  // signal an operator alerts on: run latency flat, queue wait climbing.
  PoolOptions O;
  O.Workers = 1;
  EnginePool Pool(O);
  const std::string Slow =
      "(let loop ((i 400000) (a 0)) (if (= i 0) a (loop (- i 1) (+ a 1))))";
  std::vector<std::future<JobResult>> Futures;
  for (int I = 0; I < 8; ++I)
    Futures.push_back(Pool.submit(Slow));
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().Ok);
  Pool.shutdown();
  PoolTelemetry T = Pool.telemetry();
  ASSERT_EQ(T.RunUs.count(), 8u);
  EXPECT_GT(T.RunUs.percentile(50), 0u);
  EXPECT_GT(T.QueueWaitUs.percentile(99), T.RunUs.percentile(50));
  // The head-of-line job never waited; the tail did: the wait
  // distribution must actually spread.
  EXPECT_GT(T.QueueWaitUs.percentile(99), T.QueueWaitUs.percentile(10));
}

TEST(PoolTest, MetricsExportBothFormats) {
  PoolOptions O;
  O.Workers = 2;
  EnginePool Pool(O);
  std::vector<std::future<JobResult>> Futures;
  for (int I = 0; I < 10; ++I)
    Futures.push_back(Pool.submit("(* 6 7)"));
  for (auto &F : Futures)
    EXPECT_EQ(F.get().Output, "42");
  Pool.shutdown();
  std::string Json = Pool.metricsJson();
  EXPECT_NE(Json.find("\"schema\": \"cmarks-metrics-v1\""), std::string::npos);
  EXPECT_NE(Json.find("\"component\": \"pool\""), std::string::npos);
  EXPECT_NE(Json.find("cmarks_pool_jobs_total"), std::string::npos);
  EXPECT_NE(Json.find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(Json.find("cmarks_pool_job_run_seconds"), std::string::npos);
  std::string Prom = Pool.metricsText();
  EXPECT_NE(Prom.find("# TYPE cmarks_pool_job_run_seconds summary"),
            std::string::npos);
  EXPECT_NE(Prom.find("cmarks_pool_workers 2"), std::string::npos);
  EXPECT_NE(Prom.find("cmarks_pool_jobs_submitted_total 10"),
            std::string::npos);
  // The resilience families export unconditionally (zero-valued here) so
  // dashboards and metrics_report.py --require can count on them.
  EXPECT_NE(Prom.find("cmarks_pool_worker_restarts_total 0"),
            std::string::npos);
  EXPECT_NE(Prom.find("cmarks_pool_breaker_opens_total 0"),
            std::string::npos);
  EXPECT_NE(Prom.find("cmarks_pool_jobs_shed_total 0"), std::string::npos);
  EXPECT_NE(Prom.find("cmarks_pool_jobs_expired_total 0"),
            std::string::npos);
  EXPECT_NE(Prom.find("cmarks_pool_retries_total 0"), std::string::npos);
  EXPECT_NE(Prom.find("cmarks_pool_live_workers"), std::string::npos);
  // One jobs_total series per outcome, exported even at zero; rejected
  // jobs are counted by their own family instead.
  for (int I = 0; I < NumJobOutcomes; ++I) {
    JobOutcome Out = static_cast<JobOutcome>(I);
    std::string Series = std::string("cmarks_pool_jobs_total{outcome=\"") +
                         jobOutcomeName(Out) + "\"} ";
    size_t Count = 0;
    for (size_t At = Prom.find(Series); At != std::string::npos;
         At = Prom.find(Series, At + 1))
      ++Count;
    EXPECT_EQ(Count, Out == JobOutcome::Rejected ? 0u : 1u) << Series;
  }
  EXPECT_NE(Prom.find("cmarks_pool_jobs_total{outcome=\"ok\"} 10"),
            std::string::npos);
  EXPECT_NE(Prom.find("cmarks_pool_jobs_rejected_total 0"), std::string::npos);
  // No graceful-degradation series.
  for (const std::string *Doc : {&Prom, &Json}) {
    EXPECT_EQ(Doc->find("cmarks_pool_pressure_active"), std::string::npos);
    EXPECT_EQ(Doc->find("cmarks_pool_jobs_degraded_total"), std::string::npos);
  }
}

TEST(PoolTest, JobSpansCarryIdsAcrossWorkersInMergedTrace) {
  PoolOptions O;
  O.Workers = 2;
  O.TraceCapacity = 4096;
  EnginePool Pool(O);
  std::vector<std::future<JobResult>> Futures;
  for (int I = 0; I < 6; ++I)
    Futures.push_back(Pool.submit("(list " + std::to_string(I) + ")"));
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().Ok);
  Pool.shutdown();
  std::string Trace = Pool.traceJson();
  // One merged timeline: pool process name, one named thread per worker,
  // and every job's span labeled with its pool-assigned id.
  EXPECT_NE(Trace.find("\"name\":\"cmarks-pool\""), std::string::npos);
  EXPECT_NE(Trace.find("\"name\":\"worker-0\""), std::string::npos);
  EXPECT_NE(Trace.find("\"name\":\"worker-1\""), std::string::npos);
  for (int I = 1; I <= 6; ++I)
    EXPECT_NE(Trace.find("\"name\":\"job-" + std::to_string(I) + "\""),
              std::string::npos)
        << "missing span for job " << I;
  EXPECT_NE(Trace.find("\"cat\":\"job\""), std::string::npos);
}

TEST(PoolTest, PoolProfilerAggregatesAcrossWorkers) {
  PoolOptions O;
  O.Workers = 2;
  O.ProfileHz = 2000;
  EnginePool Pool(O);
  const std::string Hot =
      "(define (spin n a) (if (= n 0) a (spin (- n 1) (+ a 1))))"
      "(spin 2000000 0)";
  std::vector<std::future<JobResult>> Futures;
  for (int I = 0; I < 8; ++I)
    Futures.push_back(Pool.submit(Hot));
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().Ok);
  Pool.shutdown();
  PoolTelemetry T = Pool.telemetry();
  EXPECT_GT(T.ProfileSamples, 0u);
  std::string Collapsed = Pool.profileCollapsed();
  EXPECT_NE(Collapsed.find("spin"), std::string::npos) << Collapsed;
}

// --- Resilience: supervision, deadlines, retries, load shedding -----------

/// A program that burns through the PR 3 recovery slab: everything it
/// allocates stays live in a global (so no collection can rescue it),
/// and the heap-limit handler keeps allocating after the catchable trip
/// — the run escalates to the fatal (beyond-reserve) ResourceExhausted,
/// the engine-poisoning signal the pool supervises on.
const char *reserveBurner() {
  return "(define sink '())"
         "(with-handlers ([exn:heap-limit? (lambda (e)"
         "                   (let loop ()"
         "                     (set! sink (cons (make-vector 4096 0) sink))"
         "                     (loop)))])"
         "  (let loop ()"
         "    (set! sink (cons (make-vector 4096 0) sink))"
         "    (loop)))";
}

EngineLimits fatalLimits() {
  EngineLimits L;
  L.HeapBytes = 4u << 20;
  L.HeapHeadroomBytes = 256u << 10;
  return L;
}

TEST(PoolTest, FatalJobTriggersSupervisedWorkerRestart) {
  PoolOptions O;
  O.Workers = 1;
  O.TraceCapacity = 4096;
  EnginePool Pool(O);
  EXPECT_EQ(Pool.submit("'warm").get().Output, "warm");

  JobResult R = Pool.submit(reserveBurner(), fatalLimits()).get();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Outcome, JobOutcome::TrippedHeap);
  EXPECT_NE(R.Error.find("beyond reserved headroom"), std::string::npos)
      << R.Error;

  // The replacement engine serves correctly afterwards.
  JobResult After = Pool.submit("(* 6 7)").get();
  EXPECT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(After.Output, "42");

  Pool.shutdown();
  PoolStats S = Pool.stats();
  EXPECT_EQ(S.WorkerRestarts, 1u);
  EXPECT_EQ(S.BreakerOpens, 0u);
  EXPECT_EQ(jobs(S, JobOutcome::TrippedHeap), 1u);
  EXPECT_EQ(jobs(S, JobOutcome::Ok), 2u);

  // The restart is observable in the merged timeline too: a
  // "worker-restart" span in the replacement incarnation's track.
  std::string Trace = Pool.traceJson();
  EXPECT_NE(Trace.find("\"name\":\"worker-restart\""), std::string::npos);
  EXPECT_NE(Trace.find("\"name\":\"worker-0\""), std::string::npos);
  EXPECT_NE(Trace.find("\"name\":\"worker-0/r1\""), std::string::npos);
  EXPECT_NE(Pool.metricsText().find("cmarks_pool_worker_restarts_total 1"),
            std::string::npos);
}

TEST(PoolTest, WorkerRestartDropsEngineSegmentPool) {
  // A worker engine that has parked recycled segments in its pool is
  // replaced after a fatal job: teardown must free the pooled chunks with
  // the engine (the ASan CI leg turns any strand into a leak report), and
  // the replacement starts with an empty pool yet recycles on its own.
  PoolOptions O;
  O.Workers = 1;
  EnginePool Pool(O);
  // Seed the worker's pool: deep non-tail recursion churns segments.
  JobResult Churn = Pool.submit(
      "(define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1))))) (deep 20000)")
      .get();
  EXPECT_TRUE(Churn.Ok) << Churn.Error;

  JobResult Fatal = Pool.submit(reserveBurner(), fatalLimits()).get();
  EXPECT_FALSE(Fatal.Ok);

  // The replacement engine churns and serves correctly.
  JobResult After = Pool.submit(
      "(define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1))))) (deep 20000)")
      .get();
  EXPECT_TRUE(After.Ok) << After.Error;
  EXPECT_EQ(After.Output, "20000");
  Pool.shutdown();
  EXPECT_EQ(Pool.stats().WorkerRestarts, 1u);
}

TEST(PoolTest, CircuitBreakerRetiresWorkerAfterConsecutiveFatalFailures) {
  PoolOptions O;
  O.Workers = 1;
  O.BreakerThreshold = 2;
  EnginePool Pool(O);
  EXPECT_EQ(Pool.submit("'warm").get().Output, "warm");

  JobResult R1 = Pool.submit(reserveBurner(), fatalLimits()).get();
  JobResult R2 = Pool.submit(reserveBurner(), fatalLimits()).get();
  EXPECT_EQ(R1.Outcome, JobOutcome::TrippedHeap);
  EXPECT_EQ(R2.Outcome, JobOutcome::TrippedHeap);

  // The second consecutive fatal opened the breaker: the lone worker
  // retired and the pool turned itself off rather than rebuild-looping.
  // Submits resolve as rejections, never hangs.
  JobResult R3 = Pool.submit("'after-breaker").get();
  EXPECT_EQ(R3.Outcome, JobOutcome::Rejected);

  PoolTelemetry T = Pool.telemetry();
  EXPECT_EQ(T.Stats.WorkerRestarts, 1u); // Fatal #1 rebuilt; #2 opened it.
  EXPECT_EQ(T.Stats.BreakerOpens, 1u);
  EXPECT_EQ(T.LiveWorkers, 0u);
  Pool.shutdown(); // Still idempotent on a self-stopped pool.
}

TEST(PoolTest, DeadlineExpiresJobStuckInQueue) {
  PoolOptions O;
  O.Workers = 1;
  EnginePool Pool(O);
  EXPECT_EQ(Pool.submit("'warm").get().Output, "warm");
  std::future<JobResult> Hog = Pool.submit("(begin (sleep-ms 150) 'hog)");
  // FIFO: this job cannot be dequeued before the hog finishes, which is
  // long past its 30ms deadline — it must be shed from the queue unrun.
  std::future<JobResult> Doomed =
      Pool.submit("'never", SubmitOptions().deadlineMs(30));
  JobResult R = Doomed.get();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Outcome, JobOutcome::Expired);
  EXPECT_EQ(R.Attempts, 0u);
  EXPECT_EQ(Hog.get().Output, "hog");
  EXPECT_EQ(jobs(Pool.stats(), JobOutcome::Expired), 1u);
  EXPECT_NE(Pool.metricsText().find("cmarks_pool_jobs_expired_total 1"),
            std::string::npos);
}

TEST(PoolTest, DeadlineBoundsRunTimeViaTimeoutConversion) {
  PoolOptions O;
  O.Workers = 1;
  EnginePool Pool(O);
  EXPECT_EQ(Pool.submit("'warm").get().Output, "warm");
  // No explicit TimeoutMs: the remaining deadline becomes the timeout at
  // dequeue, so even an infinite loop retires near the deadline.
  std::future<JobResult> F =
      Pool.submit("(let loop () (loop))", SubmitOptions().deadlineMs(150));
  JobResult R = F.get();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Outcome, JobOutcome::TrippedTimeout);
  EXPECT_EQ(R.Kind, ErrorKind::Timeout);
}

TEST(PoolTest, TimeoutBudgetsOnCpuTimeInBlockingModeToo) {
  // One meaning for per-job limits in every pool mode: a blocking job's
  // wait holds its worker but, as in fiber mode, not its run-time budget;
  // its deadline stays wall-clock.
  PoolOptions O;
  O.Workers = 1;
  O.DefaultJobLimits.TimeoutMs = 50;
  EnginePool Pool(O);
  JobResult R = Pool.submit("(begin (sleep-ms 150) 'ok)").get();
  EXPECT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  EXPECT_EQ(R.Output, "ok");
  JobResult Late = Pool.submit("(begin (sleep-ms 5000) 'late)",
                               SubmitOptions().deadlineMs(60))
                       .get();
  EXPECT_EQ(Late.Outcome, JobOutcome::TrippedTimeout) << Late.Error;
}

TEST(PoolTest, HeapBudgetIsTheJobsOwnNotTheEngines) {
  // A job's heap budget counts what the job holds, not the engine's
  // prelude and globals: a budget below the engine's own footprint still
  // lets a small job run, and a large one still trips.
  PoolOptions O;
  O.Workers = 1;
  EnginePool Pool(O);
  EngineLimits L;
  L.HeapBytes = 512u << 10;
  const std::string Build = "(let loop ((i 0) (a '())) (if (= i N) (length a)"
                            " (loop (+ i 1) (cons i a))))";
  auto Sized = [&](const char *N) {
    std::string S = Build;
    return S.replace(S.find('N'), 1, N);
  };
  JobResult Small = Pool.submit(Sized("1000"), L).get();
  EXPECT_EQ(Small.Outcome, JobOutcome::Ok) << Small.Error;
  EXPECT_EQ(Small.Output, "1000");
  JobResult Big = Pool.submit(Sized("100000"), L).get();
  EXPECT_EQ(Big.Outcome, JobOutcome::TrippedHeap) << Big.Error;
}

TEST(PoolTest, RetryBackoffIsDeterministicAndCapped) {
  RetryPolicy P;
  P.BaseBackoffMs = 4;
  P.MaxBackoffMs = 32;
  P.Jitter = true;
  for (uint32_t A = 1; A <= 8; ++A) {
    uint64_t B1 = retryBackoffMs(P, 42, A);
    uint64_t B2 = retryBackoffMs(P, 42, A);
    EXPECT_EQ(B1, B2) << "attempt " << A; // Pure: replays see the same sleeps.
    uint64_t Raw = std::min<uint64_t>(32, 4ull << (A - 1));
    EXPECT_GE(B1, Raw / 2) << "attempt " << A;
    EXPECT_LE(B1, Raw) << "attempt " << A;
  }
  // Different job ids draw different jitter (de-synchronized thundering
  // herds), still deterministically.
  bool Differs = false;
  for (uint64_t J = 0; J < 8 && !Differs; ++J)
    Differs = retryBackoffMs(P, J, 3) != retryBackoffMs(P, J + 100, 3);
  EXPECT_TRUE(Differs);
  // Without jitter: pure capped exponential.
  P.Jitter = false;
  EXPECT_EQ(retryBackoffMs(P, 7, 1), 4u);
  EXPECT_EQ(retryBackoffMs(P, 7, 2), 8u);
  EXPECT_EQ(retryBackoffMs(P, 7, 4), 32u);
  EXPECT_EQ(retryBackoffMs(P, 7, 9), 32u);
}

TEST(PoolTest, RetryPolicyReRunsInterruptedJobs) {
  PoolOptions O;
  O.Workers = 1;
  EnginePool Pool(O);
  RetryPolicy RP;
  RP.MaxAttempts = 3;
  RP.BaseBackoffMs = 1;
  EXPECT_EQ(Pool.submit("'warm").get().Output, "warm");
  // One interrupt fired mid-run evicts attempt 1 (transient); the retry
  // runs clean and succeeds. The interrupt-vs-job-start race is real, so
  // re-run the scenario until the interrupt actually lands mid-run.
  bool SawRetry = false;
  for (int Try = 0; Try < 40 && !SawRetry; ++Try) {
    std::future<JobResult> F = Pool.submit(
        "(let loop ((i 30000000)) (if (= i 0) 'done (loop (- i 1))))",
        SubmitOptions().retry(RP));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Pool.interruptAll();
    JobResult R = F.get();
    if (R.Ok && R.Attempts >= 2) {
      EXPECT_EQ(R.Output, "done");
      SawRetry = true;
    } else if (!R.Ok) {
      // Interrupts landed on every attempt: legal, try again.
      EXPECT_EQ(R.Outcome, JobOutcome::TrippedInterrupt);
    }
  }
  EXPECT_TRUE(SawRetry);
  EXPECT_GE(Pool.stats().RetriesAttempted, 1u);
}

TEST(PoolTest, AdmissionControlShedsWhenQueueWaitExceedsBudget) {
  PoolOptions O;
  O.Workers = 1;
  O.QueueWaitBudgetMs = 10;
  O.AdmissionWindow = 16;
  EnginePool Pool(O);
  EXPECT_EQ(Pool.submit("'warm").get().Output, "warm");
  // Fill the admission window with long waits: job N queues behind N-1
  // 25ms runs, so nearly every sample is far over the 10ms budget.
  std::vector<std::future<JobResult>> Burst;
  for (int I = 0; I < 10; ++I)
    Burst.push_back(Pool.submit("(begin (sleep-ms 25) 'slow)"));
  for (auto &F : Burst)
    EXPECT_TRUE(F.get().Ok);
  // The window p99 is now ~225ms >> 10ms: the door is closed.
  JobResult R = Pool.submit("'too-late").get();
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Outcome, JobOutcome::Shed);
  EXPECT_EQ(R.Id, 0u); // Never entered the queue.
  EXPECT_NE(R.Error.find("admission control"), std::string::npos) << R.Error;
  EXPECT_EQ(jobs(Pool.stats(), JobOutcome::Shed), 1u);
  EXPECT_NE(Pool.metricsText().find("cmarks_pool_jobs_shed_total"),
            std::string::npos);
}

void expectBlockedSubmitterRejectedOnShutdown(bool Drain) {
  PoolOptions O;
  O.Workers = 1;
  O.QueueCapacity = 1;
  EnginePool Pool(O);
  EXPECT_EQ(Pool.submit("'warm").get().Output, "warm");
  std::future<JobResult> Hog = Pool.submit("(begin (sleep-ms 600) 'hog)");
  // Blocks until the worker dequeues the hog, then occupies the lone slot.
  std::future<JobResult> Queued = Pool.submit("'queued");
  // This submitter blocks on backpressure: queue full, hog asleep.
  std::future<JobResult> BlockedF;
  std::thread Submitter([&] { BlockedF = Pool.submit("'blocked"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  // JobsSubmitted counts accepted jobs: 3 means 'blocked is still parked
  // in submit() (warm + hog + queued). On a pathologically slow host the
  // hog may already have finished and admitted it; then the scenario
  // didn't arm and the rejection assertion doesn't apply.
  bool WasBlocked = Pool.stats().JobsSubmitted == 3;
  Pool.shutdown(Drain);
  Submitter.join();
  JobResult R = BlockedF.get(); // Must resolve either way: never a hang.
  if (WasBlocked) {
    EXPECT_FALSE(R.Ok);
    EXPECT_EQ(R.Outcome, JobOutcome::Rejected);
  }
  EXPECT_EQ(Hog.get().Output, "hog"); // The running job always finishes.
  JobResult Q = Queued.get();
  if (Drain) {
    EXPECT_TRUE(Q.Ok) << Q.Error;
    EXPECT_EQ(Q.Output, "queued");
  } else {
    EXPECT_EQ(Q.Outcome, JobOutcome::Rejected);
  }
}

TEST(PoolTest, BlockedSubmitterIsWokenAndRejectedByDrainShutdown) {
  expectBlockedSubmitterRejectedOnShutdown(/*Drain=*/true);
}

TEST(PoolTest, BlockedSubmitterIsWokenAndRejectedByImmediateShutdown) {
  expectBlockedSubmitterRejectedOnShutdown(/*Drain=*/false);
}

TEST(PoolTest, InterruptAllRacingDrainShutdownResolvesEverything) {
  PoolOptions O;
  O.Workers = 2;
  EnginePool Pool(O);
  std::vector<std::future<JobResult>> Futures;
  for (int I = 0; I < 4; ++I)
    Futures.push_back(Pool.submit("(let loop () (loop))"));
  for (int I = 0; I < 8; ++I)
    Futures.push_back(Pool.submit("(+ 1 " + std::to_string(I) + ")"));
  // Drain shutdown cannot finish while spinners hold the workers; keep
  // firing interrupts at it until the drain completes. This is exactly
  // the operator's "graceful stop of a wedged pool" sequence.
  std::atomic<bool> Done{false};
  std::thread Stopper([&] {
    Pool.shutdown(/*Drain=*/true);
    Done.store(true);
  });
  while (!Done.load()) {
    Pool.interruptAll();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  Stopper.join();
  unsigned Ok = 0, Interrupted = 0, Rejected = 0;
  for (auto &F : Futures) {
    JobResult R = F.get(); // Every future resolves.
    switch (R.Outcome) {
    case JobOutcome::Ok:
      ++Ok;
      break;
    case JobOutcome::TrippedInterrupt:
      ++Interrupted;
      break;
    case JobOutcome::Rejected:
      ++Rejected;
      break;
    default:
      ADD_FAILURE() << "unexpected outcome " << jobOutcomeName(R.Outcome)
                    << ": " << R.Error;
    }
  }
  EXPECT_EQ(Ok + Interrupted + Rejected, Futures.size());
  EXPECT_GE(Interrupted, 2u); // The spinners only ever leave by eviction.
}

// --- Raw concurrent engines (the ThreadSanitizer smoke) -------------------
//
// Two-plus engines on two-plus threads with no pool in between: every
// mutable byte they touch must be engine-local. The arity-error jobs
// drive the procedure-name formatting path that used to share one
// function-local static buffer across all engines.

TEST(ConcurrentEnginesTest, ParallelEnginesShareNoMutableState) {
  constexpr int NThreads = 4;
  constexpr int NIters = 40;
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  Threads.reserve(NThreads);
  for (int T = 0; T < NThreads; ++T) {
    Threads.emplace_back([T, &Mismatches] {
      SchemeEngine E;
      std::string Name = "proc-" + std::to_string(T);
      E.evalOrDie("(define (" + Name + " x) x)");
      for (int I = 0; I < NIters; ++I) {
        // 1. Arity error: formats the procedure's name into the message.
        E.eval("(" + Name + ")");
        if (E.ok() || E.lastError().find(Name) == std::string::npos)
          ++Mismatches;
        // 2. Numeric edges from this PR's batch.
        if (E.evalToString("(modulo 7.0 -2.0)") != "-1.0")
          ++Mismatches;
        if (E.evalToString("(/ 1 0.0)") != "+inf.0")
          ++Mismatches;
        // 3. Marks and continuations exercise the per-engine hot paths.
        if (E.evalToString("(with-continuation-mark 'k " +
                           std::to_string(I) +
                           " (continuation-mark-set-first #f 'k))") !=
            std::to_string(I))
          ++Mismatches;
        if (E.evalToString("(call/cc (lambda (k) (k 'ok)))") != "ok")
          ++Mismatches;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);
}

} // namespace
