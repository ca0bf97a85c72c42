//===- tests/test_recycle.cpp - Segment recycling + nursery ----*- C++ -*-===//
//
// The recycling allocator (DESIGN.md §15): dead stack segments return to a
// per-engine size-classed pool instead of waiting for the sweep, the
// heap-frames strategy stops paying a fresh segment allocation per call
// AND per return (the 2x double-alloc bug), pooled memory stays inside the
// byte budgets (DESIGN.md §9), failed runs hand their condemned segments
// back, the mark-frame/pair nursery rewinds cheaply when a block dies
// young, and a long-lived engine's footprint stays bounded by its live data.
//
//===----------------------------------------------------------------------===//

#include "test_helpers.h"

#include "../bench/programs/control.h"
#include "../bench/programs/effects.h"
#include "support/stats.h"

#include <chrono>
#include <thread>

using namespace cmk;

namespace {

/// Evaluates Setup, resets the counters, evaluates Run, and returns the
/// accumulated deltas.
VMStats runCounted(SchemeEngine &E, const std::string &Setup,
                   const std::string &Run) {
  if (!Setup.empty())
    E.evalOrDie(Setup);
  E.resetStats();
  E.evalOrDie(Run);
  return E.stats();
}

/// Deep non-tail recursion repeated to steady state: every call overflows
/// in heap-frame mode and every return underflow-copies, so this is the
/// workload the double-alloc bug hit hardest.
const char *deepChurn() {
  return "(define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))\n"
         "(define (churn reps n)\n"
         "  (if (zero? reps) 'done (begin (deep n) (churn (- reps 1) n))))";
}

// ------------------------------------------------ the double-alloc bugfix --

TEST(Recycle, HeapFramesStopsPayingTwoAllocsPerCall) {
  // Regression test for the heap-frames 2x segment-alloc bug: the call
  // overflow allocated one segment and the return's underflow copy
  // allocated another, both dying immediately to GC (BENCH_ctak showed
  // segment-allocs ~= 2x segment-overflows). With recycling, steady-state
  // churn serves nearly every request from the pool.
  SchemeEngine E(EngineVariant::HeapFrames);
  VMStats S = runCounted(E, deepChurn(), "(churn 20 2000)");
  EXPECT_GT(S.SegmentOverflows, 40000u);
  // Far fewer fresh allocations than overflows (was ~2x MORE than
  // overflows); the warmup transient is the only fresh-alloc source.
  EXPECT_LT(S.SegmentAllocs * 10, S.SegmentOverflows);
  // The pool serves the bulk: one recycle per overflow-ish.
  EXPECT_GT(S.SegmentRecycles, S.SegmentOverflows / 2);
}

TEST(Recycle, No1ccUnderflowCopiesRecycleVacatedSegments) {
  // The "no 1cc" ablation never fuses, so every underflow copies: the
  // segment vacated by each copy has no record referencing it and must
  // rejoin the pool (the record's own source segment stays pinned — all
  // records are Full in this variant).
  EngineOptions Opts = EngineOptions::forVariant(EngineVariant::No1cc);
  Opts.VmCfg.SegmentSlots = 512;
  SchemeEngine E(Opts);
  VMStats S = runCounted(E, deepChurn(), "(churn 20 5000)");
  EXPECT_GT(S.SegmentOverflows, 100u);
  EXPECT_GT(S.UnderflowCopies, 100u);
  EXPECT_GT(S.SegmentRecycles, S.UnderflowCopies / 3);
  // Overflow segments are pinned by their Full records (by design), so
  // fresh allocations track overflows — but the restore-segment cycle must
  // not add a second fresh allocation per copy on top.
  EXPECT_LT(S.SegmentAllocs, S.SegmentOverflows + S.UnderflowCopies / 2);
}

// ------------------------------------------------------- differential runs --

TEST(Recycle, RecyclingIsSemanticallyInvisible) {
  // Same program, recycling on vs off: identical results and identical
  // semantic counters. Only the allocation-path counters may differ.
  const char *Run = "(churn 10 3000)";
  SchemeEngine On(EngineVariant::HeapFrames);
  VMStats SOn = runCounted(On, deepChurn(), Run);

  EngineOptions Off = EngineOptions::forVariant(EngineVariant::HeapFrames);
  Off.VmCfg.EnableSegmentRecycling = false;
  SchemeEngine EOff(Off);
  VMStats SOff = runCounted(EOff, deepChurn(), Run);

  EXPECT_EQ(SOff.SegmentRecycles, 0u);
  EXPECT_GT(SOn.SegmentRecycles, 0u);
  EXPECT_EQ(SOn.Reifications, SOff.Reifications);
  EXPECT_EQ(SOn.SegmentOverflows, SOff.SegmentOverflows);
  EXPECT_EQ(SOn.UnderflowFusions, SOff.UnderflowFusions);
  EXPECT_EQ(SOn.UnderflowCopies, SOff.UnderflowCopies);
  EXPECT_EQ(SOn.ContinuationCaptures, SOff.ContinuationCaptures);
  // The disabled leg pays full freight on allocations.
  EXPECT_GT(SOff.SegmentAllocs, SOn.SegmentAllocs);
}

TEST(Recycle, FullContinuationsSurviveRecycling) {
  // A captured (promoted-to-Full) continuation pins its segments: applying
  // it repeatedly after heavy churn must still see intact frames.
  SchemeEngine E(EngineVariant::HeapFrames);
  expectEval(E,
             "(define k #f)\n"
             "(define (deep n)\n"
             "  (if (zero? n)\n"
             "      (call/cc (lambda (c) (set! k c) 0))\n"
             "      (+ 1 (deep (- n 1)))))\n"
             "(define (churn n) (if (zero? n) 0 (+ 1 (churn (- n 1)))))\n"
             "(let ([first (deep 200)])\n"
             "  (churn 5000)\n"
             "  (if (< first 1000) (k 800) first))",
             "1000");
}

// ----------------------------------------------------- pool lifecycle/gauge --

TEST(Recycle, PoolGaugeAndExplicitRelease) {
  SchemeEngine E;
  runCounted(E, deepChurn(), "(churn 5 5000)");
  // Churn leaves segments parked in the pool; the gauges agree.
  EXPECT_GT(E.heap().pooledSegmentCount(), 0u);
  EXPECT_GT(E.heap().pooledSegmentBytes(), 0u);
  EXPECT_LE(E.heap().pooledSegmentBytes(), E.heap().bytesInUse());

  // Disabling recycling drains the pool immediately (and the freed bytes
  // leave the committed-bytes gauge).
  uint64_t Before = E.heap().bytesInUse();
  uint64_t Pooled = E.heap().pooledSegmentBytes();
  E.heap().setSegmentRecycling(false);
  EXPECT_EQ(E.heap().pooledSegmentCount(), 0u);
  EXPECT_EQ(E.heap().pooledSegmentBytes(), 0u);
  EXPECT_EQ(E.heap().bytesInUse(), Before - Pooled);

  // And the engine still evaluates correctly with the pool gone.
  E.heap().setSegmentRecycling(true);
  expectEval(E, "(deep 3000)", "3000");
}

TEST(Recycle, FailedRunReturnsCondemnedSegmentsToPool) {
  // A run that dies on the stack-segment limit leaves a whole budget's
  // worth of condemned segments behind; releaseRunState detaches them
  // (including the abandoned pending call) so the next collection returns
  // every one to the pool or the OS — LiveSegments converges instead of
  // stranding until engine teardown.
  EngineOptions Opts;
  Opts.VmCfg.Limits.MaxLiveSegments = 16;
  Opts.VmCfg.Limits.FuelInterval = 256;
  SchemeEngine E(Opts);
  E.eval("(define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))\n"
         "(deep 10000000)");
  ASSERT_FALSE(E.ok());
  E.heap().collect();
  // Everything the dead run held is gone; only the handful of segments
  // reachable from surviving globals/records may remain.
  EXPECT_LE(E.heap().liveStackSegments(), 16u);
  // The engine is fully reusable.
  expectEval(E, "(deep 100)", "100");
}

TEST(Recycle, PooledBytesStayInsideHeapBudget) {
  // Governance invariant: pooled-but-free chunks still count against the
  // byte budget. A budgeted engine cycling segments must neither trip
  // (the pool is released under pressure before the trip escalates) nor
  // grow bytesInUse past budget + headroom.
  EngineOptions Opts;
  Opts.VmCfg.Limits.HeapBytes = 48u << 20;
  Opts.VmCfg.Limits.FuelInterval = 256;
  SchemeEngine E(Opts);
  E.evalOrDie(deepChurn());
  for (int I = 0; I < 5; ++I) {
    E.eval("(churn 3 5000)");
    EXPECT_TRUE(E.ok()) << E.lastError();
  }
  EXPECT_LE(E.heap().pooledSegmentBytes(), E.heap().bytesInUse());
}

// ------------------------------------------------------------------ nursery --

TEST(Recycle, NurseryPairsSurviveCollection) {
  // Long-lived pairs born in the nursery are promoted into the tenured
  // blocks by the sweep; their contents must be intact afterwards.
  SchemeEngine E;
  expectEval(E,
             "(define keep (let loop ([i 100] [acc '()])\n"
             "               (if (zero? i) acc (loop (- i 1) (cons i acc)))))\n"
             "(define (garbage n)\n"
             "  (if (zero? n) 'ok (begin (make-vector 256 0)\n"
             "                           (garbage (- n 1)))))\n"
             "(garbage 100000)\n"
             "(let loop ([p keep] [sum 0])\n"
             "  (if (null? p) sum (loop (cdr p) (+ sum (car p)))))",
             "5050");
}

TEST(Recycle, NurseryCountersMove) {
  SchemeEngine E;
  E.resetStats();
  // Plenty of short-lived pairs plus enough garbage to force collections:
  // blocks either rewind (all dead) or promote (survivors).
  E.evalOrDie("(define (spin n acc)\n"
              "  (if (zero? n) 'done\n"
              "      (begin (make-vector 512 0)\n"
              "             (spin (- n 1) (cons n acc)))))\n"
              "(spin 100000 '())");
  VMStats S = E.stats();
  EXPECT_GT(E.heap().stats().Collections, 0u);
  EXPECT_GT(S.NurseryResets + S.NurseryPromotions, 0u);
  EXPECT_GT(S.NurseryAllocs, 100000u);
}

// ---------------------------------------------------------------- footprint --

TEST(Recycle, UninternedSymbolsAreCollected) {
  // Every compiled with-continuation-mark and every make-parameter mints a
  // gensym. Once unreachable it is garbage like any other object, so live
  // data after a collection does not grow with the number of evals.
  SchemeEngine E;
  auto LiveAfter = [&E](int Evals) {
    for (int I = 0; I < Evals; ++I) {
      E.evalOrDie("(with-continuation-mark 'k 1 (+ 1 2))");
      E.evalOrDie("(make-parameter 0)");
    }
    E.heap().collect();
    return E.heap().stats().LiveBytesAfterLastGC;
  };
  uint64_t After2k = LiveAfter(2000);
  EXPECT_EQ(LiveAfter(18000), After2k);
}

TEST(Recycle, ReachableGensymsKeepTheirIdentity) {
  // A gensym reachable from a global, or only from a parameter object as
  // its key, survives collections: no later gensym takes over its memory.
  SchemeEngine E;
  E.evalOrDie("(define g (gensym \"keep\"))\n"
              "(define name (symbol->string g))\n"
              "(define p (make-parameter 5))");
  for (int I = 0; I < 3; ++I) {
    E.evalOrDie("(let loop ([i 0])\n"
                "  (when (< i 20000) (gensym \"churn\") (loop (+ i 1))))");
    E.heap().collect();
  }
  expectEval(E,
             "(list (string=? (symbol->string g) name)\n"
             "      (with-continuation-mark g 7\n"
             "        (continuation-mark-set-first #f g))\n"
             "      (parameterize ([p 9]) (p)) (p))",
             "(#t 7 9 5)");
}

/// What an engine holds from malloc after a collection, less the segment
/// pool: that is a cache capped at 16 MiB whose fill level depends on how
/// many segments died at once, so it would dominate and blur the bound.
uint64_t collectedFootprint(SchemeEngine &E) {
  E.heap().collect();
  return E.heap().reservedBytes() - E.heap().pooledSegmentBytes();
}

TEST(Recycle, LongLivedEngineFootprintIsBounded) {
  // Collections that fire mid-run tenure the nursery block being filled;
  // once its survivors die the block must come back. One engine runs the
  // ctak and effect-handler programs 3000 times through ~50 collections;
  // what it holds stays where it was after the first tenth.
  SchemeEngine E;
  E.evalOrDie(cmkbench::ctakSource());
  E.evalOrDie(cmkbench::effectHandlersSource());
  uint64_t At300 = 0;
  for (int I = 1; I <= 3000; ++I) {
    E.evalOrDie("(ctak 9 6 3)");
    E.evalOrDie("(eff-counter 10)");
    if (I == 300)
      At300 = collectedFootprint(E);
  }
  expectEval(E, "(list (ctak 9 6 3) (eff-counter 10))", "(6 (10 10 0))");
  EXPECT_LE(collectedFootprint(E), 2 * At300);
  EXPECT_GT(E.heap().stats().Collections, 40u);
}

TEST(Recycle, FiberPoolEngineFootprintIsBounded) {
  // A cooperative pool engine serving 20k jobs, 32 in flight, each parked
  // around a mark-churn loop: parked fibers' frames are the transient
  // survivors that tenure blocks, and each compiled job mints a gensym.
  const std::string Job =
      "(let ((acc 0))\n"
      "  (sleep-ms 1)\n"
      "  (set! acc (let loop ((i 0) (acc 0))\n"
      "    (if (= i 32) acc\n"
      "        (with-continuation-mark 'k i\n"
      "          (loop (+ i 1)\n"
      "                (+ acc (car (continuation-mark-set->list\n"
      "                             (current-continuation-marks) 'k))))))))\n"
      "  (sleep-ms 1)\n"
      "  acc)";
  SchemeEngine E;
  E.enableFiberPool(/*Cooperative=*/true);
  const int Jobs = 20000;
  int Spawned = 0, Done = 0, InFlight = 0;
  uint64_t At2000 = 0;
  while (Done < Jobs) {
    for (; InFlight < 32 && Spawned < Jobs; ++InFlight) {
      std::string Err;
      ASSERT_NE(E.spawnFiberJob(Job, EngineLimits(), ++Spawned, 0, 0, &Err),
                0u)
          << Err;
    }
    E.runFiberSlice();
    ASSERT_TRUE(E.ok()) << E.lastError();
    for (const FiberJobInfo &J : E.takeFinishedFiberJobs()) {
      ASSERT_TRUE(J.Ok) << J.Output;
      ASSERT_EQ(J.Output, "496");
      --InFlight;
      if (++Done == Jobs / 10)
        At2000 = collectedFootprint(E);
    }
    if (!E.fiberHasRunnable())
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(E.fiberNextTimerDelayNs()));
  }
  EXPECT_LE(collectedFootprint(E), 2 * At2000);
}

TEST(Recycle, ReservedBytesGaugeCoversTheHeap) {
  // The reserved gauge counts what the heap holds from malloc, so it never
  // reads below the committed bytes, and both reach the metrics export.
  SchemeEngine E;
  E.evalOrDie(deepChurn());
  E.evalOrDie("(churn 3 5000)");
  EXPECT_GE(E.heap().reservedBytes(), E.heap().bytesInUse());
  std::string Text = E.metricsText();
  EXPECT_NE(Text.find("cmarks_engine_heap_bytes "), std::string::npos);
  EXPECT_NE(Text.find("cmarks_engine_heap_reserved_bytes "), std::string::npos);
}

} // namespace
