//===- tests/test_trace.cpp - Structured event tracing ---------*- C++ -*-===//
///
/// \file
/// Trace-subsystem correctness: the exact event sequences the paper's
/// compilation strategies predict for each attachment category (7.2),
/// ring-buffer wraparound behaviour, the runtime recording gate, and the
/// Chrome trace-event JSON export invariants.
///
//===----------------------------------------------------------------------===//

#include "test_helpers.h"

#include "support/trace.h"

#include <algorithm>
#include <vector>

using namespace cmk;

namespace {

/// Runs \p Setup untraced, then \p Workload with tracing on; returns every
/// recorded event kind in order.
std::vector<TraceEv> tracedKinds(SchemeEngine &E, const std::string &Setup,
                                 const std::string &Workload) {
  if (!Setup.empty()) {
    E.eval(Setup);
    EXPECT_TRUE(E.ok()) << E.lastError();
  }
  E.startTrace();
  E.eval(Workload);
  E.stopTrace();
  EXPECT_TRUE(E.ok()) << E.lastError();
  std::vector<TraceEv> Kinds;
  const TraceBuffer &T = E.trace();
  for (uint64_t I = 0; I < T.size(); ++I)
    Kinds.push_back(T.at(I).Kind);
  return Kinds;
}

/// Keeps only the kinds in \p Keep, preserving order.
std::vector<TraceEv> onlyKinds(const std::vector<TraceEv> &Kinds,
                               std::initializer_list<TraceEv> Keep) {
  std::vector<TraceEv> Out;
  for (TraceEv K : Kinds)
    if (std::find(Keep.begin(), Keep.end(), K) != Keep.end())
      Out.push_back(K);
  return Out;
}

uint64_t countKind(const std::vector<TraceEv> &Kinds, TraceEv K) {
  return static_cast<uint64_t>(std::count(Kinds.begin(), Kinds.end(), K));
}

// --- Paper 7.2: the three attachment compilation categories ---------------

// Tail position: the frame is reified once (runtime-checked), then each
// loop iteration replaces the attachment via the consume-set fusion; the
// final return pops it through the fused underflow.
TEST(TraceSequences, TailWcmLoop) {
  SchemeEngine E;
  auto Kinds = tracedKinds(
      E,
      "(define (loop i) (if (= i 0) 'done"
      "  (with-continuation-mark 'k i (loop (- i 1)))))",
      // Call non-tail so loop gets a fresh, unreified frame (a toplevel
      // tail call would run the wcm in the pre-reified base frame).
      "(cons (loop 3) '())");
  auto Seq = onlyKinds(Kinds, {TraceEv::ReifyTailFrame, TraceEv::AttachSet,
                               TraceEv::AttachConsume, TraceEv::UnderflowFuse,
                               TraceEv::MarksPush, TraceEv::MarksPop});
  std::vector<TraceEv> Expected = {
      TraceEv::ReifyTailFrame, TraceEv::AttachSet,     // i = 3: reify + set
      TraceEv::AttachConsume,  TraceEv::AttachSet,     // i = 2: replace
      TraceEv::AttachConsume,  TraceEv::AttachSet,     // i = 1: replace
      TraceEv::UnderflowFuse,  TraceEv::MarksPop,      // return pops the mark
  };
  EXPECT_EQ(Seq, Expected);
  // No marks-register traffic: tail attachments never touch MarksPush.
  EXPECT_EQ(countKind(Kinds, TraceEv::MarksPush), 0u);
}

// Non-tail with a tail call in the body: the CallAttach convention. The
// pending mark is pushed, the call reifies with (rest marks) in the
// record, and the callee's return fuses the split and pops the mark.
TEST(TraceSequences, NonTailWcmWithTailCall) {
  SchemeEngine E;
  auto Kinds = tracedKinds(E,
                           "(define (g x) (+ x 1))"
                           "(define (h) (+ 100 (with-continuation-mark 'k 2"
                           "                     (g 3))))",
                           "(h)");
  auto Seq = onlyKinds(
      Kinds, {TraceEv::MarksPush, TraceEv::AttachCallReify,
              TraceEv::ReifySplit, TraceEv::UnderflowFuse, TraceEv::MarksPop,
              TraceEv::ReifyTailFrame, TraceEv::UnderflowCopy});
  std::vector<TraceEv> Expected = {
      TraceEv::MarksPush,       // wcm extent opens
      TraceEv::AttachCallReify, // the call forces reification...
      TraceEv::ReifySplit,      // ...as a split at the new frame
      TraceEv::UnderflowFuse,   // g's return fuses the split back
      TraceEv::MarksPop,        // ...and pops the mark (record marks)
      TraceEv::UnderflowCopy,   // h returns through its own reified record
  };
  EXPECT_EQ(Seq, Expected);
}

// Non-tail without a call in the body: pure marks-register traffic, no
// reification of any kind.
TEST(TraceSequences, NonTailWcmWithoutCall) {
  SchemeEngine E;
  auto Kinds = tracedKinds(
      E, "(define (q x y) (+ 100 (with-continuation-mark 'k x (* x y))))",
      "(q 3 4)");
  auto Seq = onlyKinds(Kinds, {TraceEv::MarksPush, TraceEv::MarksPop});
  std::vector<TraceEv> Expected = {TraceEv::MarksPush, TraceEv::MarksPop};
  EXPECT_EQ(Seq, Expected);
  EXPECT_EQ(countKind(Kinds, TraceEv::ReifyTailFrame), 0u);
  EXPECT_EQ(countKind(Kinds, TraceEv::ReifySplit), 0u);
  EXPECT_EQ(countKind(Kinds, TraceEv::AttachCallReify), 0u);
}

// --- Other cheap-tier events ----------------------------------------------

TEST(TraceSequences, DynamicWindSpans) {
  SchemeEngine E;
  auto Kinds = tracedKinds(E, "",
                           "(dynamic-wind (lambda () 1) (lambda () 2)"
                           "              (lambda () 3))");
  auto Seq = onlyKinds(Kinds, {TraceEv::WindEnter, TraceEv::WindExit});
  std::vector<TraceEv> Expected = {TraceEv::WindEnter, TraceEv::WindExit};
  EXPECT_EQ(Seq, Expected);
}

TEST(TraceSequences, CallCCCaptureAndApply) {
  SchemeEngine E;
  auto Kinds = tracedKinds(
      E, "", "(+ 1 (call/cc (lambda (k) (k 41))))");
  EXPECT_GE(countKind(Kinds, TraceEv::Capture), 1u);
  EXPECT_GE(countKind(Kinds, TraceEv::ContApply), 1u);
  // Capture happens before the continuation is applied.
  auto Seq = onlyKinds(Kinds, {TraceEv::Capture, TraceEv::ContApply});
  ASSERT_GE(Seq.size(), 2u);
  EXPECT_EQ(Seq.front(), TraceEv::Capture);
}

// --- Profiling primitives on top of marks ---------------------------------

TEST(TraceProfiling, CallWithProfilingEmitsLabeledSpan) {
  SchemeEngine E;
  E.startTrace();
  E.eval("(with-stack-frame 'job (call-with-profiling (lambda () (* 6 7))))");
  E.stopTrace();
  ASSERT_TRUE(E.ok()) << E.lastError();
  const TraceBuffer &T = E.trace();
  bool SawBegin = false, SawEnd = false;
  for (uint64_t I = 0; I < T.size(); ++I) {
    const TraceEvent &Ev = T.at(I);
    if (Ev.Kind == TraceEv::SpanBegin) {
      EXPECT_STREQ(Ev.Label, "job");
      EXPECT_FALSE(SawEnd) << "begin must precede end";
      SawBegin = true;
    }
    if (Ev.Kind == TraceEv::SpanEnd)
      SawEnd = true;
  }
  EXPECT_TRUE(SawBegin);
  EXPECT_TRUE(SawEnd);
}

TEST(TraceProfiling, StackSnapshotReadsMarkFrames) {
  SchemeEngine E;
  // The snapshot sees every annotated frame, innermost first, and drops a
  // labeled instant into the trace.
  E.startTrace();
  expectEval(E,
             "(with-stack-frame 'outer"
             "  (+ 0 (with-stack-frame 'inner"
             "         (+ 0 (length (current-stack-snapshot))))))",
             "2");
  E.stopTrace();
  const TraceBuffer &T = E.trace();
  bool SawSnapshot = false;
  for (uint64_t I = 0; I < T.size(); ++I)
    if (T.at(I).Kind == TraceEv::Instant) {
      EXPECT_STREQ(T.at(I).Label, "inner");
      SawSnapshot = true;
    }
  EXPECT_TRUE(SawSnapshot);
}

// --- Ring buffer -----------------------------------------------------------

TEST(TraceRing, WraparoundKeepsNewest) {
  TraceBuffer T;
  T.start(16);
  for (uint64_t I = 0; I < 100; ++I)
    T.record(TraceEv::ReifySplit, I);
  EXPECT_EQ(T.size(), 16u);
  EXPECT_EQ(T.total(), 100u);
  EXPECT_EQ(T.dropped(), 84u);
  // Oldest retained is event #84, newest is #99.
  EXPECT_EQ(T.at(0).Arg, 84u);
  EXPECT_EQ(T.at(15).Arg, 99u);
}

TEST(TraceRing, StartResetsAndCapacityIsClamped) {
  TraceBuffer T;
  T.start(1); // Below MinCapacity: clamped, not zero.
  EXPECT_GE(T.capacity(), TraceBuffer::MinCapacity);
  T.record(TraceEv::Capture);
  EXPECT_EQ(T.total(), 1u);
  T.start();
  EXPECT_EQ(T.total(), 0u);
  EXPECT_TRUE(T.Enabled);
  T.stop();
  EXPECT_FALSE(T.Enabled);
}

TEST(TraceRing, ExportRepairsSpansBrokenByWraparound) {
  TraceBuffer T;
  T.start(16);
  // 20 opens then 20 closes: the retained window is all closes, whose
  // opens were overwritten. The export must drop the orphan Ends.
  for (int I = 0; I < 20; ++I)
    T.record(TraceEv::MarksPush);
  for (int I = 0; I < 20; ++I)
    T.record(TraceEv::MarksPop);
  T.stop();
  std::string Json = T.toJson();
  EXPECT_EQ(Json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(Json.find("\"dropped\": 24"), std::string::npos);
}

TEST(TraceRing, ExportClosesUnfinishedSpans) {
  TraceBuffer T;
  T.start(64);
  T.record(TraceEv::MarksPush);
  T.record(TraceEv::ReifySplit);
  T.stop();
  std::string Json = T.toJson();
  // One B and one synthesized E, in that order.
  size_t B = Json.find("\"ph\":\"B\"");
  size_t End = Json.find("\"ph\":\"E\"");
  ASSERT_NE(B, std::string::npos);
  ASSERT_NE(End, std::string::npos);
  EXPECT_LT(B, End);
}

// --- Recording gate --------------------------------------------------------

// With tracing never started, record sites must contribute nothing.
TEST(TraceTiers, StoppedTracingRecordsNothing) {
  SchemeEngine E;
  E.eval("(with-continuation-mark 'k 1 (+ 0 (car '(1))))");
  ASSERT_TRUE(E.ok());
  EXPECT_EQ(E.trace().total(), 0u);
}

TEST(TraceTiers, StopFreezesTheBuffer) {
  SchemeEngine E;
  auto Kinds = tracedKinds(E, "", "(with-continuation-mark 'k 1 (+ 0 1))");
  uint64_t Frozen = E.trace().total();
  EXPECT_GT(Frozen, 0u);
  E.eval("(with-continuation-mark 'k 2 (+ 0 2))");
  EXPECT_EQ(E.trace().total(), Frozen);
}

// The marks layer's per-update and per-lookup events are compiled into
// every build, behind the same runtime gate as every other event.
TEST(TraceTiers, MarkLayerEventsAreRecorded) {
  SchemeEngine E;
  auto Kinds = tracedKinds(
      E, "",
      "(with-continuation-mark 'a 1"
      "  (+ 0 (with-continuation-mark 'b 2"
      "         (continuation-mark-set-first #f 'a))))");
  uint64_t MarkLayer = countKind(Kinds, TraceEv::MarkFrameCreate) +
                       countKind(Kinds, TraceEv::MarkFrameExtend) +
                       countKind(Kinds, TraceEv::MarkFrameRebind) +
                       countKind(Kinds, TraceEv::MarkCacheHit) +
                       countKind(Kinds, TraceEv::MarkCacheInstall) +
                       countKind(Kinds, TraceEv::MarkSetCapture);
  EXPECT_GT(MarkLayer, 0u);
}

// --- Export and Scheme surface ---------------------------------------------

TEST(TraceExport, JsonCarriesSchemaAndEvents) {
  SchemeEngine E;
  // Non-tail wcm so the export carries a "wcm" B/E span (a toplevel wcm
  // is in tail position and would show up as "wcm-tail" instead).
  tracedKinds(E, "", "(+ 0 (with-continuation-mark 'k 1 (car '(1))))");
  std::string Json = E.traceToJson();
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("cmarks-trace-v1"), std::string::npos);
  EXPECT_NE(Json.find("\"wcm\""), std::string::npos);
}

// Labels reach the JSON as escaped string literals, in the single-engine
// and the merged export alike.
TEST(TraceExport, LabelsAreEscaped) {
  TraceBuffer T;
  T.start();
  const char Label[] = "a\"b\\c\001d";
  T.record(TraceEv::SpanBegin, Label, sizeof(Label) - 1);
  T.record(TraceEv::SpanEnd);
  T.stop();
  const char *Escaped = "\"a\\\"b\\\\c\\u0001d\"";
  EXPECT_NE(T.toJson().find(Escaped), std::string::npos) << T.toJson();
  std::string Merged = mergedTraceJson({&T}, {"w\"1"});
  EXPECT_NE(Merged.find(Escaped), std::string::npos) << Merged;
  EXPECT_NE(Merged.find("\"w\\\"1\""), std::string::npos) << Merged;
}

TEST(TraceExport, SchemePrimitivesControlTheBuffer) {
  SchemeEngine E;
  expectEval(E,
             "(begin (runtime-trace-start!)"
             "       (with-continuation-mark 'k 1 (+ 0 (car '(1))))"
             "       (runtime-trace-stop!)"
             "       (string? (runtime-trace-dump)))",
             "#t");
  // The dumped string is the same JSON the C++ API produces.
  E.eval("(define tr (runtime-trace-dump))");
  expectEval(E, "(> (string-length tr) 100)", "#t");
}

TEST(TraceExport, TraceStartCapacityIsHonored) {
  SchemeEngine E;
  E.eval("(begin (runtime-trace-start! 32)"
         "       (with-continuation-mark 'k 1 (+ 0 (car '(1))))"
         "       (runtime-trace-stop!))");
  ASSERT_TRUE(E.ok()) << E.lastError();
  EXPECT_EQ(E.trace().capacity(), 32u);
  expectError(E, "(runtime-trace-start! 'huge)", "positive fixnum");
}

} // namespace
