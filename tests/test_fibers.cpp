//===- tests/test_fibers.cpp - Cooperative fibers over one-shot conts -----===//
//
// The PR 10 fiber runtime (vm/fibers.cpp, DESIGN.md §16): spawn/yield/
// join semantics, mark/parameter/winder isolation between interleaved
// fibers (the biggest semantic risk — each fiber's continuation carries
// its own mark and winder registers), one-shot double-resume protection,
// error propagation through fiber-join, suspendable sleeps and channels,
// run-time accounting that excludes parked time, and the EnginePool
// cooperative mode where parking releases the worker.
//
//===----------------------------------------------------------------------===//

#include "support/pool.h"
#include "support/timing.h"

#include "test_helpers.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace cmk;

namespace {

// --------------------------------------------------------------- basics ----

TEST(FiberTest, SpawnJoinReturnsThunkValue) {
  SchemeEngine E;
  expectEval(E, "(fiber-join (spawn (lambda () (* 6 7))))", "42");
}

TEST(FiberTest, SpawnPassesArguments) {
  SchemeEngine E;
  expectEval(E, "(fiber-join (spawn (lambda (a b) (- a b)) 10 4))", "6");
}

TEST(FiberTest, FiberPredicateAndPrinter) {
  SchemeEngine E;
  expectEval(E, "(fiber? (spawn (lambda () 1)))", "#t");
  expectEval(E, "(fiber? 3)", "#f");
}

TEST(FiberTest, YieldInterleavesDeterministically) {
  SchemeEngine E;
  expectEval(E,
             "(define out '())"
             "(define (log x) (set! out (cons x out)))"
             "(define f1 (spawn (lambda () (log 'a1) (yield) (log 'a2))))"
             "(define f2 (spawn (lambda () (log 'b1) (yield) (log 'b2))))"
             "(fiber-join f1) (fiber-join f2)"
             "(reverse out)",
             "(a1 b1 a2 b2)");
}

TEST(FiberTest, JoinFromManyWaiters) {
  SchemeEngine E;
  expectEval(E,
             "(define src (spawn (lambda () (yield) 5)))"
             "(define a (spawn (lambda () (+ 100 (fiber-join src)))))"
             "(define b (spawn (lambda () (+ 200 (fiber-join src)))))"
             "(list (fiber-join a) (fiber-join b))",
             "(105 205)");
}

TEST(FiberTest, NestedSpawns) {
  SchemeEngine E;
  expectEval(E,
             "(fiber-join (spawn (lambda ()"
             "  (let ((inner (spawn (lambda () 21))))"
             "    (* 2 (fiber-join inner))))))",
             "42");
}

// ------------------------------------------------------------ isolation ----

TEST(FiberTest, MarkIsolationAcrossInterleavedFibers) {
  // Each fiber reads back exactly its own mark across yields, never a
  // sibling's: marks live in the captured continuation, not in any
  // VM-global register that a switch could leak.
  SchemeEngine E;
  expectEval(E,
             "(define (probe v)"
             "  (with-continuation-mark 'k v"
             "    (begin (yield)"
             "           (let ((got (continuation-mark-set-first #f 'k)))"
             "             (yield) (list got (continuation-mark-set-first #f 'k))))))"
             "(define f1 (spawn (lambda () (probe 'one))))"
             "(define f2 (spawn (lambda () (probe 'two))))"
             "(define f3 (spawn (lambda () (probe 'three))))"
             "(list (fiber-join f1) (fiber-join f2) (fiber-join f3))",
             "((one one) (two two) (three three))");
}

TEST(FiberTest, MarkListIsolationUnderDeepInterleaving) {
  SchemeEngine E;
  expectEval(
      E,
      "(define (nest n tag)"
      "  (if (= n 0)"
      "      (begin (yield)"
      "             (continuation-mark-set->list"
      "              (current-continuation-marks) tag))"
      "      (with-continuation-mark tag n (cons 'x (nest (- n 1) tag)))))"
      "(define f1 (spawn (lambda () (nest 3 'a))))"
      "(define f2 (spawn (lambda () (nest 2 'b))))"
      "(list (fiber-join f1) (fiber-join f2))",
      "((x x x 1 2 3) (x x 1 2))");
}

TEST(FiberTest, ParameterIsolationAcrossFibers) {
  // parameterize is mark-based; a fiber switch inside the extent must not
  // leak the binding into a sibling.
  SchemeEngine E;
  expectEval(E,
             "(define p (make-parameter 'root))"
             "(define (probe v)"
             "  (parameterize ((p v)) (yield) (p)))"
             "(define f1 (spawn (lambda () (probe 'one))))"
             "(define f2 (spawn (lambda () (probe 'two))))"
             "(list (fiber-join f1) (fiber-join f2) (p))",
             "(one two root)");
}

TEST(FiberTest, WinderIsolationRawSwitchesDontFireWinders) {
  // Like Racket thread swaps: the scheduler's raw switches do not run
  // dynamic-wind thunks. Winders fire when control enters/leaves the
  // extent, once each — never per switch.
  SchemeEngine E;
  expectEval(E,
             "(define out '())"
             "(define (log x) (set! out (cons x out)))"
             "(define f1 (spawn (lambda ()"
             "  (dynamic-wind"
             "    (lambda () (log 'in1))"
             "    (lambda () (yield) (yield) 'r1)"
             "    (lambda () (log 'out1))))))"
             "(define f2 (spawn (lambda ()"
             "  (dynamic-wind"
             "    (lambda () (log 'in2))"
             "    (lambda () (yield) 'r2)"
             "    (lambda () (log 'out2))))))"
             "(fiber-join f1) (fiber-join f2)"
             "(reverse out)",
             "(in1 in2 out2 out1)");
}

TEST(FiberTest, WinderEscapeInsideOneFiberStillFires) {
  // A non-local exit *within* one fiber must run its after-thunks even
  // with sibling fibers interleaved through the extent.
  SchemeEngine E;
  expectEval(E,
             "(define out '())"
             "(define (log x) (set! out (cons x out)))"
             "(define f1 (spawn (lambda ()"
             "  (call/cc (lambda (k)"
             "    (dynamic-wind"
             "      (lambda () (log 'in))"
             "      (lambda () (yield) (k 'escaped))"
             "      (lambda () (log 'out))))))))"
             "(define f2 (spawn (lambda () (yield) 'f2)))"
             "(list (fiber-join f1) (fiber-join f2) (reverse out))",
             "(escaped f2 (in out))");
}

// ---------------------------------------------------------------- errors ----

TEST(FiberTest, DoubleResumeOfParkedContinuationErrors) {
  // One-shot captures stay one-shot across a park/resume cycle: the
  // fiber grabs an explicit one-shot, yields (park + one-shot resume),
  // returns through the record, then tries to re-enter it. The second
  // use must fail with the standard one-shot error even though the
  // frames travelled through the scheduler's capture machinery.
  SchemeEngine E;
  expectError(E,
              "(define f (spawn (lambda ()"
              "  (define stash #f)"
              "  (let ((r (#%call/1cc (lambda (k) (set! stash k) 'first))))"
              "    (yield)"
              "    (if (eq? r 'first) (stash 'second) r)))))"
              "(fiber-join f)",
              "one-shot continuation used more than once");
}

TEST(FiberTest, ZombieReentryOfFinishedFiberIsRejected) {
  // call/cc promotes the scheduler's one-shots (paper section 6), so a
  // smuggled full continuation CAN jump back into a finished fiber's
  // body -- but when that zombie run reaches the boot epilogue, the
  // scheduler rejects the second retirement as a hard error instead of
  // corrupting the fiber's recorded result.
  SchemeEngine E;
  expectError(E,
              "(define stash #f)"
              "(define f (spawn (lambda ()"
              "  (call/cc (lambda (k) (set! stash k)))"
              "  (yield) 'done)))"
              "(fiber-join f)"
              "(stash 'again)",
              "not current");
}

TEST(FiberTest, JoinAfterErrorRethrows) {
  SchemeEngine E;
  expectEval(E,
             "(define f (spawn (lambda () (error \"boom\" 7))))"
             "(catch (lambda (e) (list 'caught (exn-message e) (exn-irritants e)))"
             "  (fiber-join f))",
             "(caught \"boom\" (7))");
}

TEST(FiberTest, JoinAfterErrorRethrowsToSecondJoiner) {
  // The stored result is the whole thrown value: every joiner gets the
  // same exn, no matter how late it joins.
  SchemeEngine E;
  expectEval(E,
             "(define f (spawn (lambda () (error \"boom\"))))"
             "(define (try) (catch (lambda (e) (exn-message e)) (fiber-join f)))"
             "(list (try) (try))",
             "(\"boom\" \"boom\")");
}

TEST(FiberTest, ErrorKindSurvivesJoinRethrow) {
  // A limit exn rethrown by fiber-join keeps its kind, so targeted
  // handlers (exn:timeout? etc.) still dispatch.
  SchemeEngine E;
  expectEval(E,
             "(define f (spawn (lambda ()"
             "  (throw (#%make-limit-exn 'timeout \"budget\")))))"
             "(catch (lambda (e) (list (exn:timeout? e) (exn-message e)))"
             "  (fiber-join f))",
             "(#t \"budget\")");
}

TEST(FiberTest, UncaughtThrowInRootStillFailsEval) {
  SchemeEngine E;
  expectError(E, "(fiber-join (spawn (lambda () (car 5))))", "car");
}

TEST(FiberTest, DeadlockIsAHardError) {
  // Every fiber parked, no timer: an uncatchable engine-level error, not
  // a hang.
  SchemeEngine E;
  expectError(E,
              "(define ch (make-channel 0))"
              "(channel-get ch)",
              "deadlock");
}

TEST(FiberTest, SpawnRejectsNonProcedure) {
  SchemeEngine E;
  expectError(E, "(spawn 3)", "procedure");
}

TEST(FiberTest, MarkStackModeRejectsFibers) {
  SchemeEngine E(EngineVariant::MarkStack);
  expectError(E, "(spawn (lambda () 1))", "mark-stack");
}

// -------------------------------------------------------------- channels ----

TEST(FiberTest, BoundedChannelFifo) {
  SchemeEngine E;
  expectEval(E,
             "(define ch (make-channel 2))"
             "(define p (spawn (lambda ()"
             "  (channel-put ch 1) (channel-put ch 2) (channel-put ch 3) 'p)))"
             "(list (channel-get ch) (channel-get ch) (channel-get ch)"
             "      (fiber-join p))",
             "(1 2 3 p)");
}

TEST(FiberTest, RendezvousChannelBlocksUntilPartner) {
  SchemeEngine E;
  expectEval(E,
             "(define ch (make-channel))"
             "(define out '())"
             "(define p (spawn (lambda ()"
             "  (set! out (cons 'before out))"
             "  (channel-put ch 'msg)"
             "  (set! out (cons 'after out)))))"
             "(yield)" // producer runs, parks on the empty rendezvous
             "(set! out (cons 'main out))"
             "(define got (channel-get ch))"
             "(fiber-join p)"
             "(list got (reverse out))",
             "(msg (before main after))");
}

TEST(FiberTest, ChannelManyProducersOneConsumer) {
  SchemeEngine E;
  expectEval(E,
             "(define ch (make-channel 1))"
             "(define (producer i) (spawn (lambda () (channel-put ch i))))"
             "(define ps (list (producer 1) (producer 2) (producer 3)))"
             "(define got (list (channel-get ch) (channel-get ch)"
             "                  (channel-get ch)))"
             "(for-each fiber-join ps)"
             "(apply + got)",
             "6");
}

TEST(FiberTest, ChannelPredicates) {
  SchemeEngine E;
  expectEval(E, "(channel? (make-channel 4))", "#t");
  expectEval(E, "(channel? (vector 1 2 3 4 5))", "#f");
}

// ------------------------------------------------------- sleeps & timers ----

TEST(FiberTest, SleepingFibersOverlapNotSerialize) {
  // Two 30ms sleeps in sibling fibers must overlap (cooperative parking),
  // so the pair completes far sooner than 60ms of serialized sleeping.
  SchemeEngine E;
  uint64_t T0 = nowNanos();
  expectEval(E,
             "(define a (spawn (lambda () (sleep-ms 30) 'a)))"
             "(define b (spawn (lambda () (sleep-ms 30) 'b)))"
             "(list (fiber-join a) (fiber-join b))",
             "(a b)");
  uint64_t ElapsedMs = (nowNanos() - T0) / 1000000;
  EXPECT_LT(ElapsedMs, 55u) << "sleeps serialized instead of overlapping";
}

TEST(FiberTest, TimedParkTimesOut) {
  SchemeEngine E;
  expectEval(E, "(begin (#%fiber-park-timed! 5) 'woke)", "woke");
}

TEST(FiberTest, UnparkDeliversResumeValue) {
  SchemeEngine E;
  expectEval(E,
             "(define waiter (spawn (lambda () (#%fiber-park!))))"
             "(yield)" // waiter parks
             "(#%fiber-unpark! waiter 'payload)"
             "(fiber-join waiter)",
             "payload");
}

TEST(FiberTest, UnparkOfRunnableFiberIsRejected) {
  SchemeEngine E;
  expectEval(E, "(#%fiber-unpark! (spawn (lambda () 1)) 'x)", "#f");
}

// ------------------------------------------------- run-time accounting ----

TEST(FiberTest, ParkedTimeExcludedFromRunNs) {
  // A fiber that sleeps 80ms has on-CPU time well under 40ms: parked time
  // must not count (per-job budgets in the pool hinge on this).
  SchemeEngine E;
  Value V = E.eval("(define f (spawn (lambda () (sleep-ms 80) 'ok)))"
                   "(fiber-join f)"
                   "(#%fiber-run-ns f)");
  ASSERT_TRUE(E.ok()) << E.lastError();
  ASSERT_TRUE(V.isFixnum());
  EXPECT_LT(V.asFixnum(), 40 * 1000000) << "parked time was charged as run";
}

TEST(FiberTest, InterruptDuringLongSleepLandsFast) {
  // Satellite regression: sleep-ms used to sleep its full duration
  // uninterruptibly. An interrupt against (sleep-ms 60000) must land
  // well under 100ms (the native polls signals every <=10ms chunk).
  SchemeEngine E;
  std::atomic<bool> Requested{false};
  uint64_t RequestNs = 0;
  std::thread Interrupter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    RequestNs = nowNanos();
    Requested.store(true);
    E.requestInterrupt();
  });
  E.eval("(sleep-ms 60000)");
  uint64_t DoneNs = nowNanos();
  Interrupter.join();
  ASSERT_TRUE(Requested.load());
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.lastErrorKind(), ErrorKind::Interrupt) << E.lastError();
  uint64_t DeliveryMs = (DoneNs - RequestNs) / 1000000;
  EXPECT_LT(DeliveryMs, 100u) << "interrupt took " << DeliveryMs << "ms";
}

TEST(FiberTest, InterruptDuringFiberSleepLandsFast) {
  // Same latency bound when the sleep is a parked fiber (timer-wheel
  // path through idleWait rather than the chunked native sleep).
  SchemeEngine E;
  uint64_t RequestNs = 0;
  std::thread Interrupter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    RequestNs = nowNanos();
    E.requestInterrupt();
  });
  E.eval("(fiber-join (spawn (lambda () (sleep-ms 60000))))");
  uint64_t DoneNs = nowNanos();
  Interrupter.join();
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.lastErrorKind(), ErrorKind::Interrupt) << E.lastError();
  uint64_t DeliveryMs = (DoneNs - RequestNs) / 1000000;
  EXPECT_LT(DeliveryMs, 100u) << "interrupt took " << DeliveryMs << "ms";
}

TEST(FiberTest, StatsCountSpawnsAndParks) {
  SchemeEngine E;
  E.resetStats();
  E.evalOrDie("(define f (spawn (lambda () (sleep-ms 1) 'x)))"
              "(fiber-join f)");
  EXPECT_GE(E.stats().FiberSpawns, 1u);
  EXPECT_GE(E.stats().FiberParks, 1u); // the join park at minimum
}

// ------------------------------------------------------------ pool mode ----

TEST(FiberPoolTest, ManySleepingJobsMultiplexOverFewWorkers) {
  // 24 jobs, each parked ~40ms, over 2 workers: cooperative parking must
  // overlap the waits. Serialized blocking would need ~480ms/worker.
  PoolOptions O;
  O.Workers = 2;
  O.EnableFibers = true;
  O.MaxFibersPerWorker = 16;
  EnginePool Pool(O);
  uint64_t T0 = nowNanos();
  std::vector<std::future<JobResult>> Fs;
  for (int I = 0; I < 24; ++I)
    Fs.push_back(Pool.submit("(begin (sleep-ms 40) " + std::to_string(I) +
                             ")"));
  for (int I = 0; I < 24; ++I) {
    JobResult R = Fs[I].get();
    EXPECT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
    EXPECT_EQ(R.Output, std::to_string(I));
  }
  uint64_t ElapsedMs = (nowNanos() - T0) / 1000000;
  EXPECT_LT(ElapsedMs, 400u) << "jobs serialized instead of multiplexing";
  PoolStats S = Pool.stats();
  EXPECT_GE(S.Engines.FiberSpawns, 24u);
  EXPECT_GE(S.Engines.FiberParks, 24u);
}

TEST(FiberPoolTest, ParkedTimeDoesNotBurnJobBudget) {
  // TimeoutMs governs on-CPU time in fiber mode: a job parked for 150ms
  // under a 50ms budget must still succeed.
  PoolOptions O;
  O.Workers = 1;
  O.EnableFibers = true;
  O.DefaultJobLimits.TimeoutMs = 50;
  EnginePool Pool(O);
  JobResult R = Pool.submit("(begin (sleep-ms 150) 'ok)").get();
  EXPECT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  EXPECT_EQ(R.Output, "ok");
}

TEST(FiberPoolTest, RunawayJobStillTripsItsBudget) {
  PoolOptions O;
  O.Workers = 1;
  O.EnableFibers = true;
  O.DefaultJobLimits.TimeoutMs = 30;
  EnginePool Pool(O);
  JobResult R =
      Pool.submit("(let loop ((i 0)) (loop (+ i 1)))").get();
  EXPECT_EQ(R.Outcome, JobOutcome::TrippedTimeout) << R.Error;
}

TEST(FiberPoolTest, RunawayJobDoesNotStarveSiblings) {
  // One spinning job under a budget and several quick jobs behind it:
  // everyone completes, the spinner with a timeout trip.
  PoolOptions O;
  O.Workers = 1;
  O.EnableFibers = true;
  O.MaxFibersPerWorker = 8;
  O.DefaultJobLimits.TimeoutMs = 60;
  EnginePool Pool(O);
  auto Spin = Pool.submit("(let loop ((i 0)) (loop (+ i 1)))");
  std::vector<std::future<JobResult>> Quick;
  for (int I = 0; I < 4; ++I)
    Quick.push_back(Pool.submit("(+ 1 " + std::to_string(I) + ")"));
  for (int I = 0; I < 4; ++I) {
    JobResult R = Quick[I].get();
    EXPECT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  }
  EXPECT_EQ(Spin.get().Outcome, JobOutcome::TrippedTimeout);
}

/// The worker builds its engine lazily, which takes longer than the timed
/// jobs below leave under a sanitizer: a 60 ms deadline would expire in the
/// queue, and an interrupt sent before the engine runs the job reaches an
/// idle engine and is dropped. One job run to completion first puts the
/// timed job on a ready engine.
void waitForWorkerEngine(EnginePool &Pool) {
  JobResult R = Pool.submit("(+ 1 2)").get();
  ASSERT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
}

TEST(FiberPoolTest, DeadlinesExpireParkedJobs) {
  // A job parked past its wall-clock deadline is woken and evicted with
  // a timeout trip — parking is budget-free, not deadline-free.
  PoolOptions O;
  O.Workers = 1;
  O.EnableFibers = true;
  EnginePool Pool(O);
  waitForWorkerEngine(Pool);
  SubmitOptions SO;
  SO.deadlineMs(60);
  JobResult R = Pool.submit("(begin (sleep-ms 5000) 'late)", SO).get();
  EXPECT_EQ(R.Outcome, JobOutcome::TrippedTimeout) << R.Error;
}

TEST(FiberPoolTest, InterruptAllReachesParkedJobs) {
  PoolOptions O;
  O.Workers = 1;
  O.EnableFibers = true;
  EnginePool Pool(O);
  waitForWorkerEngine(Pool);
  auto F = Pool.submit("(begin (sleep-ms 5000) 'late)");
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Pool.interruptAll();
  JobResult R = F.get();
  EXPECT_EQ(R.Outcome, JobOutcome::TrippedInterrupt) << R.Error;
}

TEST(FiberPoolTest, CompileErrorFailsOnlyThatJob) {
  PoolOptions O;
  O.Workers = 1;
  O.EnableFibers = true;
  EnginePool Pool(O);
  JobResult Bad = Pool.submit("(lambda").get();
  EXPECT_EQ(Bad.Outcome, JobOutcome::Error);
  JobResult Good = Pool.submit("(+ 2 3)").get();
  EXPECT_EQ(Good.Outcome, JobOutcome::Ok) << Good.Error;
  EXPECT_EQ(Good.Output, "5");
}

TEST(FiberPoolTest, ResultsMatchBlockingPool) {
  std::vector<std::string> Jobs = {
      "(+ 1 2)",
      "(with-continuation-mark 'k 7 (continuation-mark-set-first #f 'k))",
      "(call/cc (lambda (k) (+ 1 (k 41))))",
      "(let ((ch (make-channel 1)))"
      "  (spawn (lambda () (channel-put ch 'msg)))"
      "  (channel-get ch))",
      "(fiber-join (spawn (lambda () (sleep-ms 1) 'slept)))",
  };
  std::vector<std::string> Expected;
  {
    SchemeEngine Serial;
    for (const std::string &J : Jobs) {
      Expected.push_back(Serial.evalToString(J));
      ASSERT_TRUE(Serial.ok()) << Serial.lastError();
    }
  }
  PoolOptions O;
  O.Workers = 2;
  O.EnableFibers = true;
  EnginePool Pool(O);
  std::vector<std::future<JobResult>> Fs;
  for (const std::string &J : Jobs)
    Fs.push_back(Pool.submit(J));
  for (size_t I = 0; I < Jobs.size(); ++I) {
    JobResult R = Fs[I].get();
    EXPECT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
    EXPECT_EQ(R.Output, Expected[I]) << Jobs[I];
  }
}

// ----------------------------------------------- per-job accounting ----

TEST(FiberPoolTest, HeapBudgetTripsOnlyTheJobThatOverranIt) {
  // Co-resident jobs on one worker engine: sleepers that allocate a little
  // around their waits under a small budget of their own, and an eater
  // under a larger one. The eater's bytes are charged to the eater alone,
  // so only it trips, however the slices interleave.
  PoolOptions O;
  O.Workers = 1;
  O.EnableFibers = true;
  EnginePool Pool(O);
  EngineLimits Small;
  Small.HeapBytes = 1u << 20;
  std::vector<std::future<JobResult>> Sleepers;
  for (int I = 0; I < 4; ++I)
    Sleepers.push_back(Pool.submit(
        "(let loop ((i 0) (acc '()))"
        "  (if (= i 20) (length acc)"
        "      (begin (sleep-ms 1)"
        "             (loop (+ i 1) (cons (make-vector 64 i) acc)))))",
        Small));
  EngineLimits Big;
  Big.HeapBytes = 8u << 20;
  Big.TimeoutMs = 5000; // Backstop: the budget trip is the expected exit.
  JobResult Eater =
      Pool.submit("(let loop ((a '())) (loop (cons (make-vector 1024 0) a)))",
                  Big)
          .get();
  EXPECT_EQ(Eater.Outcome, JobOutcome::TrippedHeap) << Eater.Error;
  for (auto &F : Sleepers) {
    JobResult R = F.get();
    EXPECT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
    EXPECT_EQ(R.Output, "20");
  }
  EXPECT_EQ(Pool.stats().Engines.LimitHeapTrips, 1u);
}

TEST(FiberPoolTest, StackBudgetIsPerJob) {
  // Deep recursion against a per-job segment budget trips that job alone;
  // a co-resident job recursing deeper than that budget, without one,
  // completes.
  PoolOptions O;
  O.Workers = 1;
  O.EnableFibers = true;
  EnginePool Pool(O);
  const std::string Deep =
      "(define (deep n) (if (= n 0) 0 (+ 1 (deep (- n 1)))))";
  auto Free = Pool.submit(Deep + "(sleep-ms 5) (deep 200000)");
  EngineLimits Tight;
  Tight.MaxLiveSegments = 16;
  Tight.TimeoutMs = 5000; // Backstop: the budget trip is the expected exit.
  JobResult R = Pool.submit(Deep + "(deep 10000000)", Tight).get();
  EXPECT_EQ(R.Outcome, JobOutcome::TrippedStack) << R.Error;
  JobResult F = Free.get();
  EXPECT_EQ(F.Outcome, JobOutcome::Ok) << F.Error;
  EXPECT_EQ(F.Output, "200000");
}

TEST(FiberPoolTest, JobSlicesAreTracedAsJobSpans) {
  // Fiber-mode jobs appear in the merged timeline like blocking ones: one
  // "job-<id>" span per run slice, even for jobs that park in between.
  PoolOptions O;
  O.Workers = 1;
  O.EnableFibers = true;
  O.TraceCapacity = 4096;
  EnginePool Pool(O);
  std::vector<std::future<JobResult>> Fs;
  for (int I = 0; I < 4; ++I)
    Fs.push_back(Pool.submit("(begin (sleep-ms 2) " + std::to_string(I) + ")"));
  for (auto &F : Fs)
    EXPECT_EQ(F.get().Outcome, JobOutcome::Ok);
  Pool.shutdown();
  std::string Trace = Pool.traceJson();
  for (int I = 1; I <= 4; ++I)
    EXPECT_NE(Trace.find("\"name\":\"job-" + std::to_string(I) + "\""),
              std::string::npos)
        << "missing span for job " << I;
}

/// Submits a job that burns through its heap reserve, poisoning the
/// engine it runs on, and waits for its result.
JobResult runReserveEscalator(EnginePool &Pool) {
  EngineLimits L;
  L.HeapBytes = 4u << 20;
  L.HeapHeadroomBytes = 256u << 10;
  return Pool
      .submit("(define sink '())"
              "(with-handlers ([exn:heap-limit? (lambda (e)"
              "  (let loop () (set! sink (cons (make-vector 4096 0) sink))"
              "    (loop)))])"
              "  (let loop () (set! sink (cons (make-vector 4096 0) sink))"
              "    (loop)))",
              L)
      .get();
}

TEST(FiberPoolTest, VictimsOfACoResidentFatalFailureRetry) {
  // A reserve escalator poisons the shared engine; the parked job beside
  // it is lost with the engine, and — its loss being transient to it —
  // re-runs on the rebuilt engine under its retry policy.
  PoolOptions O;
  O.Workers = 1;
  O.EnableFibers = true;
  EnginePool Pool(O);
  RetryPolicy RP;
  RP.MaxAttempts = 2;
  auto Victim = Pool.submit("(begin (sleep-ms 50) 'survived)",
                            SubmitOptions().retry(RP));
  JobResult Culprit = runReserveEscalator(Pool);
  EXPECT_EQ(Culprit.Outcome, JobOutcome::TrippedHeap) << Culprit.Error;
  EXPECT_EQ(Culprit.Attempts, 1u);
  JobResult R = Victim.get();
  EXPECT_EQ(R.Outcome, JobOutcome::Ok) << R.Error;
  EXPECT_EQ(R.Output, "survived");
  EXPECT_EQ(R.Attempts, 2u);
  EXPECT_EQ(Pool.stats().WorkerRestarts, 1u);
}

TEST(FiberPoolTest, VictimsOfACoResidentFatalFailureWithoutRetryAreErrors) {
  // With no attempt left, a job lost with a poisoned engine fails with an
  // outcome of its own — an Error naming the culprit — not the culprit's
  // heap trip: one escalator shows up as one tripped-heap job.
  PoolOptions O;
  O.Workers = 1;
  O.EnableFibers = true;
  EnginePool Pool(O);
  RetryPolicy RP;
  RP.MaxAttempts = 1;
  // Parked far longer than the escalator runs, so it is always resident.
  auto Victim = Pool.submit("(begin (sleep-ms 5000) 'late)",
                            SubmitOptions().retry(RP));
  JobResult Culprit = runReserveEscalator(Pool);
  EXPECT_EQ(Culprit.Outcome, JobOutcome::TrippedHeap) << Culprit.Error;
  JobResult R = Victim.get();
  EXPECT_EQ(R.Outcome, JobOutcome::Error) << R.Error;
  EXPECT_EQ(R.Kind, ErrorKind::Runtime);
  EXPECT_EQ(R.Attempts, 1u);
  EXPECT_NE(R.Error.find("co-resident job " + std::to_string(Culprit.Id) +
                         " failed fatally"),
            std::string::npos)
      << R.Error;
  Pool.shutdown(); // The restart is counted after the futures resolve.
  PoolStats S = Pool.stats();
  EXPECT_EQ(S.ByOutcome[static_cast<int>(JobOutcome::TrippedHeap)], 1u);
  EXPECT_EQ(S.ByOutcome[static_cast<int>(JobOutcome::Error)], 1u);
  EXPECT_EQ(S.WorkerRestarts, 1u);
}

TEST(FiberPoolTest, CleanShutdownWithParkedJobs) {
  PoolOptions O;
  O.Workers = 2;
  O.EnableFibers = true;
  auto Pool = std::make_unique<EnginePool>(O);
  std::vector<std::future<JobResult>> Fs;
  for (int I = 0; I < 8; ++I)
    Fs.push_back(Pool->submit("(begin (sleep-ms 2000) 'late)"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Pool->shutdown(/*Drain=*/false);
  Pool.reset();
  for (auto &F : Fs) {
    JobResult R = F.get(); // resolved, not stranded
    EXPECT_NE(R.Outcome, JobOutcome::Ok);
  }
}

} // namespace
