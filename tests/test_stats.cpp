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

TEST(Stats, SegmentAccountingOnDeepRecursion) {
  // Deep non-tail recursion overflows segments; each overflow splits the
  // stack and allocates a fresh segment.
  EngineOptions Opts;
  Opts.VmCfg.SegmentSlots = 512;
  SchemeEngine E(Opts);
  VMStats S = runCounted(
      E,
      "(define (deep n) (if (zero? n) 0 (+ 1 (deep (- n 1)))))",
      "(deep 5000)");
  EXPECT_GT(S.SegmentOverflows, 10u);
  EXPECT_GT(S.SegmentAllocs, 10u);
  EXPECT_GT(S.SegmentSlotsAllocated, S.SegmentAllocs);
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
