//===- tests/test_stats.cpp - Event-counter subsystem ----------*- C++ -*-===//
///
/// \file
/// Asserts counter deltas for programs whose event counts the paper
/// predicts exactly: tail-position with-continuation-mark loops reify
/// once (7.2), the "no 1cc" ablation never fuses on underflow (figure 6),
/// and deep continuation-mark-set-first chains converge to cache hits via
/// the N/2 path compression (7.5). Also covers the (runtime-stats)
/// introspection primitive and the engine-level stats API.
///
//===----------------------------------------------------------------------===//

#include "test_helpers.h"

#include "support/stats.h"

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

TEST(Stats, TailWcmLoopReifiesExactlyOnce) {
  // Paper 7.2, first category: a with-continuation-mark in tail position
  // reifies the current frame once; every later iteration finds the frame
  // already reified and only swaps the attachment.
  SchemeEngine E;
  VMStats S = runCounted(
      E,
      "(define (loop i)\n"
      "  (if (zero? i) 0 (with-continuation-mark 'k i (loop (- i 1)))))\n"
      "(define (go) (+ 0 (loop 1000)))",
      "(go)");
  EXPECT_EQ(S.Reifications, 1u);
  EXPECT_EQ(S.ReifyTailFrame, 1u);
  // One mark-frame create for the first mark, then 999 rebinds of the
  // same key on the same conceptual frame.
  EXPECT_EQ(S.MarkFrameCreates, 1u);
  EXPECT_EQ(S.MarkFrameRebinds, 999u);
  EXPECT_EQ(S.MarkFrameExtends, 0u);
}

TEST(Stats, NonTailWcmUsesCallAttach) {
  // Paper 7.2, second category: a non-tail wcm around a call reifies at
  // the pending frame via the CallAttach convention.
  SchemeEngine E;
  VMStats S = runCounted(E, "(define (f) 7)",
                         "(let loop ([i 100] [acc 0])\n"
                         "  (if (zero? i) acc\n"
                         "      (loop (- i 1)\n"
                         "            (+ acc (with-continuation-mark 'k i\n"
                         "                     (f))))))");
  EXPECT_GE(S.ReifyForAttachCall, 100u);
  // Each CallAttach return fuses the opportunistic split back (paper 6).
  EXPECT_GE(S.UnderflowFusions, 100u);
  EXPECT_LE(S.UnderflowCopies, 5u);
}

TEST(Stats, No1ccVariantRecordsZeroFusions) {
  // Figure 6 "no 1cc": without opportunistic one-shots every underflow
  // must copy, and the fusion counter stays exactly zero.
  std::string Deep =
      "(define (deep n)\n"
      "  (if (zero? n) 0\n"
      "      (with-continuation-mark 'pad n (+ 0 (deep (- n 1))))))";
  SchemeEngine No1cc(EngineVariant::No1cc);
  VMStats SNo = runCounted(No1cc, Deep, "(deep 200)");
  EXPECT_EQ(SNo.UnderflowFusions, 0u);
  EXPECT_GE(SNo.UnderflowCopies, 200u);

  SchemeEngine Builtin;
  VMStats SB = runCounted(Builtin, Deep, "(deep 200)");
  EXPECT_GE(SB.UnderflowFusions, 190u);
  EXPECT_LE(SB.UnderflowCopies, 10u);
}

TEST(Stats, MarkFirstCacheConvergesOnDeepChains) {
  // Paper 7.5: repeated continuation-mark-set-first queries over a deep
  // chain install a cache entry at depth N/2, so hits grow with the query
  // count while misses stay bounded (only the first walk misses).
  SchemeEngine E;
  VMStats S = runCounted(
      E,
      "(define (probe reps)\n"
      "  (let lp ([j reps] [acc 0])\n"
      "    (if (zero? j) acc\n"
      "        (lp (- j 1) (+ acc (continuation-mark-set-first #f 'k 0))))))\n"
      "(define (pad thunk n)\n"
      "  (if (zero? n) (thunk)\n"
      "      (with-continuation-mark 'pad n (+ 0 (pad thunk (- n 1))))))",
      "(with-continuation-mark 'k 42\n"
      "  (+ 0 (pad (lambda () (probe 50)) 100)))");
  EXPECT_EQ(S.MarkFirstLookups, 50u);
  EXPECT_GE(S.MarkFirstCacheHits, 45u);
  EXPECT_LE(S.MarkFirstCacheMisses, 5u);
  EXPECT_GE(S.MarkFirstCacheInstalls, 1u);
  // Path compression: the 50 deep lookups walk far fewer than 50 * depth
  // cells (the first walks ~100, then ~50, ~25, ... then O(1)).
  EXPECT_LT(S.MarkFirstCellsWalked, 600u);
  EXPECT_GT(S.MarkFirstCellsWalked, 100u);
}

TEST(Stats, CaptureAttributionAndPromotions) {
  SchemeEngine E;
  VMStats S = runCounted(
      E, "",
      "(let loop ([i 50] [acc 0])\n"
      "  (if (zero? i) acc\n"
      "      (loop (- i 1)\n"
      "            (+ acc (call/cc (lambda (k) 1))))))");
  EXPECT_GE(S.ContinuationCaptures, 50u);
  EXPECT_GE(S.ReifyForCapture, 1u);
  EXPECT_LE(S.ReifyForCapture, S.Reifications);
}

// --- Segment overflow (paper 5), from each site that can overflow ----------
//
// Every overflow reifies the way its site requires and then takes the one
// move to a fresh segment. The reification counters tell the sites apart.

/// Runs \p Run on an engine with 512-slot segments after \p Setup, checks
/// that it writes \p Expected, and returns the run's counters.
VMStats overflowRun(const std::string &Setup, const std::string &Run,
                    const std::string &Expected) {
  EngineOptions Opts;
  Opts.VmCfg.SegmentSlots = 512;
  SchemeEngine E(Opts);
  E.evalOrDie(Setup);
  E.resetStats();
  expectEval(E, Run, Expected);
  return E.stats();
}

TEST(Stats, SegmentAccountingOnDeepRecursion) {
  // Deep non-tail recursion overflows segments. Each overflow splits the
  // stack below the pending frame, one reification per overflow, and
  // moves that frame alone to a fresh segment.
  VMStats S = overflowRun(
      "(define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))",
      "(deep 5000)", "5000");
  EXPECT_GT(S.SegmentOverflows, 10u);
  EXPECT_EQ(S.ReifySplit, S.SegmentOverflows);
  EXPECT_EQ(S.Reifications, S.SegmentOverflows);
  EXPECT_GT(S.SegmentAllocs, 10u);
  EXPECT_GT(S.SegmentSlotsAllocated, S.SegmentAllocs);
}

TEST(Stats, OverflowAtTheStackBaseMovesWithoutASplit) {
  // CallAttach splits below each call (paper 7.2), so an overflowing frame
  // already sits at the stack base and moves without a split of its own.
  VMStats S = overflowRun(
      "(define (deep n)\n"
      "  (if (zero? n) 0\n"
      "      (+ 1 (with-continuation-mark 'k n (deep (- n 1))))))",
      "(deep 5000)", "5000");
  EXPECT_GT(S.SegmentOverflows, 10u);
  EXPECT_EQ(S.ReifyForAttachCall, 5000u);
  EXPECT_EQ(S.Reifications, S.ReifyForAttachCall);
}

TEST(Stats, OverflowOnATailCallReifiesTheFrame) {
  // `wide` needs ~300 slots of temporaries. Tail-called from `down`'s
  // frame at rising depths, it stops fitting below the end of the
  // segment: the caller's frame is reified in place and moved.
  std::string Wide = "(define (wide a) (length (list";
  for (int I = 0; I < 300; ++I)
    Wide += " a";
  Wide += ")))";
  VMStats S = overflowRun(
      Wide + "(define (down n) (if (zero? n) (wide n) (+ 1 (down (- n 1)))))",
      "(let loop ([n 0] [acc 0])\n"
      "  (if (= n 80) acc (loop (+ n 1) (+ acc (down n)))))",
      "27160");
  EXPECT_GT(S.ReifyTailFrame, 0u);
  EXPECT_EQ(S.SegmentOverflows, S.ReifyTailFrame + S.ReifySplit);
  EXPECT_EQ(S.Reifications, S.SegmentOverflows);
}

TEST(Stats, OverflowBuildingACallANativeScheduled) {
  // apply schedules its callee. Non-tail, the scheduled frame is built at
  // sp and 600 arguments do not fit: the stack splits there and the frame
  // starts a fresh segment.
  VMStats S = overflowRun("(define big (iota 600))"
                          "(define (count . xs) (length xs))",
                          "(+ 1 (apply count big))", "601");
  EXPECT_EQ(S.SegmentOverflows, 1u);
  EXPECT_EQ(S.ReifySplit, 1u);
}

TEST(Stats, OverflowReusingTheFrameForATailScheduledCall) {
  // In tail position the scheduled call reuses the caller's frame, which
  // has no room for 600 arguments: written in place they would run past
  // the segment's end, so the frame is reified and moved first.
  VMStats S = overflowRun("(define big (iota 600))"
                          "(define (count . xs) (length xs))"
                          "(define (g) (apply count big))",
                          "(+ 1 (g))", "601");
  EXPECT_EQ(S.SegmentOverflows, 1u);
  EXPECT_EQ(S.ReifyTailFrame, 1u);
}

TEST(Stats, RuntimeStatsPrimitiveReturnsAlist) {
  SchemeEngine E;
  expectEval(E, "(pair? (runtime-stats))", "#t");
  expectEval(E, "(pair? (assq 'underflow-fusions (runtime-stats)))", "#t");
  expectEval(E, "(pair? (assq 'reify-tail-frame (runtime-stats)))", "#t");
  expectEval(E, "(pair? (assq 'gc-collections (runtime-stats)))", "#t");
  // Counters move: deep recursion must bump underflow-copies (the alist
  // reflects the live counters, not a snapshot).
  expectEval(E,
             "(begin\n"
             "  (define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))\n"
             "  (define before (cdr (assq 'reifications (runtime-stats))))\n"
             "  (call/cc (lambda (k) (k 1)))\n"
             "  (>= (cdr (assq 'reifications (runtime-stats))) before))",
             "#t");
}

TEST(Stats, RuntimeStatsResetZeroesCounters) {
  SchemeEngine E;
  E.evalOrDie("(call/cc (lambda (k) (k 1)))");
  EXPECT_GT(E.stats().ContinuationCaptures, 0u);
  expectEval(E,
             "(begin (runtime-stats-reset!)\n"
             "       (cdr (assq 'continuation-captures (runtime-stats))))",
             "0");
}

TEST(Stats, DeltaIsFieldwise) {
  VMStats A;
  A.Reifications = 10;
  A.UnderflowFusions = 7;
  A.MarkFirstCacheHits = 3;
  VMStats B = A;
  B.Reifications = 25;
  B.MarkFirstCacheHits = 9;
  VMStats D = B.delta(A);
  EXPECT_EQ(D.Reifications, 15u);
  EXPECT_EQ(D.UnderflowFusions, 0u);
  EXPECT_EQ(D.MarkFirstCacheHits, 6u);
}

TEST(Stats, CounterTableNamesAreUniqueAndNonEmpty) {
  int N = 0;
  const StatsCounterDesc *Table = statsCounters(N);
  ASSERT_GT(N, 15);
  for (int I = 0; I < N; ++I) {
    ASSERT_NE(Table[I].Name, nullptr);
    for (int J = I + 1; J < N; ++J)
      EXPECT_STRNE(Table[I].Name, Table[J].Name);
  }
}

} // namespace
