//===- tests/test_faults.cpp - Deterministic fault injection ---*- C++ -*-===//
//
// The FaultInjector (support/faults.h) counts passes through five probe
// sites — gc, overflow, nofuse, oom, reify-oom — and fires at configured
// hit numbers, intervals, or seeded probabilities. Every build compiles
// the probes in; a site acts only once a schedule arms it.
//
//===----------------------------------------------------------------------===//

#include "test_helpers.h"

#include "support/faults.h"

#include <optional>

using namespace cmk;

namespace {

// ----------------------------------------------------------- spec parsing ----

TEST(FaultSpec, ParsesSitesAndTriggers) {
  FaultInjector F;
  std::string Err;
  ASSERT_TRUE(F.configureFromSpec("oom:at=120;overflow:every=7", &Err)) << Err;
  EXPECT_TRUE(F.anyArmed());
  F.disarmAll();
  EXPECT_FALSE(F.anyArmed());
}

TEST(FaultSpec, ParsesProbabilisticTrigger) {
  FaultInjector F;
  std::string Err;
  ASSERT_TRUE(F.configureFromSpec("gc:p=5,seed=42", &Err)) << Err;
  EXPECT_TRUE(F.anyArmed());
}

TEST(FaultSpec, RejectsMalformedSpecsWithoutSideEffects) {
  FaultInjector F;
  std::string Err;
  ASSERT_TRUE(F.configureFromSpec("oom:at=3", &Err)) << Err;
  EXPECT_FALSE(F.configureFromSpec("bogus-site:at=1", &Err));
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(F.configureFromSpec("oom:at=0", &Err));
  EXPECT_FALSE(F.configureFromSpec("oom:frobnicate=9", &Err));
  EXPECT_FALSE(F.configureFromSpec("oom:p=150", &Err));
  // The failed reconfigurations must not have disturbed the armed state.
  EXPECT_TRUE(F.anyArmed());
}

TEST(FaultSpec, SiteNamesRoundTrip) {
  for (int I = 0; I < NumFaultSites; ++I) {
    FaultInjector F;
    std::string Spec = std::string(faultSiteName(static_cast<FaultSite>(I))) +
                       ":at=1";
    std::string Err;
    EXPECT_TRUE(F.configureFromSpec(Spec, &Err)) << Spec << ": " << Err;
  }
}

TEST(FaultSpec, SuspendMasksHitsEntirely) {
  FaultInjector F;
  ASSERT_TRUE(F.configureFromSpec("oom:at=1", nullptr));
  F.suspend();
  EXPECT_FALSE(F.shouldFail(FaultSite::Oom));
  EXPECT_EQ(F.hits(FaultSite::Oom), 0u);
  F.resume();
  EXPECT_TRUE(F.shouldFail(FaultSite::Oom));
  EXPECT_EQ(F.hits(FaultSite::Oom), 1u);
}

TEST(FaultSpec, DeterministicGivenSameSeed) {
  FaultInjector A, B;
  ASSERT_TRUE(A.configureFromSpec("gc:p=25,seed=7", nullptr));
  ASSERT_TRUE(B.configureFromSpec("gc:p=25,seed=7", nullptr));
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.shouldFail(FaultSite::Gc), B.shouldFail(FaultSite::Gc))
        << "diverged at hit " << I;
  EXPECT_EQ(A.injected(FaultSite::Gc), B.injected(FaultSite::Gc));
  EXPECT_GT(A.injected(FaultSite::Gc), 0u);
}

// ------------------------------------------------------- behavioral tests ----
// Each site has a semantics contract: gc/overflow/nofuse are
// *semantics-preserving* (programs still compute the right answer, just
// down a slower path), while oom/reify-oom force a heap-limit trip that
// must be catchable and leave the engine reusable.

TEST(FaultBehavior, ForcedGcPreservesSemantics) {
  SchemeEngine E;
  E.faults().arm(FaultSite::Gc, FaultInjector::Mode::Every, 50);
  expectEval(E,
             "(let loop ([i 0] [acc '()])"
             "  (if (= i 2000)"
             "      (length acc)"
             "      (loop (+ i 1) (cons (make-vector 8 i) acc))))",
             "2000");
  EXPECT_GT(E.faults().injected(FaultSite::Gc), 0u);
  EXPECT_GT(E.stats().FaultsInjected, 0u);
}

TEST(FaultBehavior, ForcedOverflowPreservesSemantics) {
  SchemeEngine E;
  E.faults().arm(FaultSite::Overflow, FaultInjector::Mode::Every, 97);
  expectEval(E,
             "(define (deep n) (if (= n 0) 0 (+ 1 (deep (- n 1)))))"
             "(deep 5000)",
             "5000");
  EXPECT_GT(E.faults().injected(FaultSite::Overflow), 0u);
}

TEST(FaultBehavior, DisabledFusePreservesSemantics) {
  SchemeEngine E;
  E.faults().arm(FaultSite::NoFuse, FaultInjector::Mode::Every, 1);
  E.resetStats();
  // One-shot continuation capture + return normally fuses the underflow
  // record back onto the stack; with the fuse disabled every return takes
  // the copying path instead, and the answers must not change.
  expectEval(E,
             "(define (f n)"
             "  (if (= n 0)"
             "      (call/cc (lambda (k) 0))"
             "      (+ 1 (f (- n 1)))))"
             "(f 100)",
             "100");
}

TEST(FaultBehavior, InjectedOomIsCatchableAndEngineSurvives) {
  SchemeEngine E;
  E.faults().arm(FaultSite::Oom, FaultInjector::Mode::At, 500);
  expectEval(E,
             "(with-handlers ([exn:heap-limit? (lambda (e) 'oom-caught)])\n"
             "  (let loop ([i 0] [acc '()])\n"
             "    (if (= i 100000) 'no-fault (loop (+ i 1) (cons i acc)))))",
             "oom-caught");
  E.faults().disarmAll();
  expectEval(E, "(length (list 1 2 3))", "3");
}

TEST(FaultBehavior, OomDuringReifyIsCatchableAndEngineSurvives) {
  SchemeEngine E;
  E.faults().arm(FaultSite::ReifyOom, FaultInjector::Mode::At, 3);
  // Hammer reification via call/cc; the third reification trips a
  // synthetic heap limit mid-capture.
  E.eval("(define (f n)"
         "  (if (= n 0)"
         "      (call/cc (lambda (k) 0))"
         "      (+ 1 (f (- n 1)))))"
         "(with-handlers ([exn:heap-limit? (lambda (e) 'reify-oom)])"
         "  (let loop ([i 0])"
         "    (if (= i 50) 'no-fault (begin (f 40) (loop (+ i 1))))))");
  ASSERT_TRUE(E.ok()) << E.lastError();
  E.faults().disarmAll();
  expectEval(E, "(+ 1 2)", "3");
}

TEST(FaultBehavior, HitsAccumulateAndReportRenders) {
  SchemeEngine E;
  E.faults().arm(FaultSite::Gc, FaultInjector::Mode::Every, 1000000);
  E.eval("(let loop ([i 0]) (if (= i 1000) i (loop (+ i 1))))");
  EXPECT_GT(E.faults().hits(FaultSite::Gc), 0u);
  std::string Report = E.faults().report();
  EXPECT_NE(Report.find("gc"), std::string::npos) << Report;
}

TEST(FaultBehavior, PreludeLoadIsNeverPerturbed) {
  // Arm an aggressive spec through the environment path: the engine
  // constructor must suspend injection while the prelude loads, so
  // construction succeeds even with oom:at=1, and the first allocation of
  // the user's program takes the hit instead.
  std::optional<SchemeEngine> E;
  {
    ScopedEnv Spec("CMARKS_FAULT_SPEC", "oom:at=1");
    E.emplace();
  }
  ASSERT_TRUE(E->faults().armed(FaultSite::Oom));
  EXPECT_EQ(E->faults().hits(FaultSite::Oom), 0u);
  // Long enough to cross a safe point, so the pending trip is delivered.
  E->eval("(let loop ([i 0] [acc '()])"
          "  (if (= i 200000) 'done (loop (+ i 1) (cons i acc))))");
  EXPECT_FALSE(E->ok());
  EXPECT_EQ(E->lastErrorKind(), ErrorKind::HeapLimit);
  EXPECT_EQ(E->faults().injected(FaultSite::Oom), 1u);
  expectEval(*E, "(car (cons 1 2))", "1");
}

} // namespace
