//===- tests/test_profiler.cpp - Safe-point sampling profiler -------------===//
///
/// \file
/// Tests for support/profiler.h: deterministic single-sample capture via
/// a manual poke, mark-based attribution to named Scheme procedures,
/// collapsed-stack output shape, fold merging, and — the load-bearing
/// invariant — that sampling never perturbs VMStats (fuel, safe-point
/// polls, mark counters), so profiles can be taken in production and the
/// differential fuzzer can run with the sampler armed.
///
//===----------------------------------------------------------------------===//

#include "api/scheme.h"
#include "support/profiler.h"
#include "support/stats.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

using namespace cmk;

namespace {

const char *NamedLoop =
    "(define (hot-loop n acc)"
    "  (if (= n 0) acc (hot-loop (- n 1) (+ acc 1))))";

/// Test-only native that sets the sample signal from *inside* an
/// evaluation. A poke arriving while the engine is idle is deliberately
/// dropped by resetGovernance() (idle time must never show up in a
/// profile), so deterministic single-sample tests poke mid-eval: the bit
/// is consumed at the next safe point — the following Call opcode.
Value nativePoke(VM &M, Value *, uint32_t) {
  M.pokeSample();
  return Value::voidValue();
}

void definePoke(SchemeEngine &E) {
  E.vm().defineNative("test-poke!", nativePoke, 0, 0);
}

/// Fieldwise equality over the whole stats table, with the differing
/// counter named on failure.
void expectSameCounters(const VMStats &A, const VMStats &B) {
  int N = 0;
  const StatsCounterDesc *Table = statsCounters(N);
  for (int I = 0; I < N; ++I)
    EXPECT_EQ(A.*(Table[I].Field), B.*(Table[I].Field))
        << "counter " << Table[I].Name << " perturbed";
}

TEST(ProfilerTest, ManualPokeCapturesExactlyOneSample) {
  SchemeEngine E;
  E.evalOrDie(NamedLoop);
  definePoke(E);
  // 1 Hz: the sampler thread will not fire during the test; the only
  // sample signal is the mid-eval poke. It is consumed at the next safe
  // point — the Call into hot-loop, where the running code is still the
  // toplevel chunk (named "toplevel" by the expander).
  E.startProfiler(/*Hz=*/1);
  E.evalOrDie("(begin (test-poke!) (hot-loop 100000 0))");
  E.stopProfiler();
  EXPECT_EQ(E.profiler().sampleCount(), 1u);
  std::string Out = E.profileCollapsed();
  EXPECT_NE(Out.find("toplevel 1"), std::string::npos) << Out;
}

TEST(ProfilerTest, SamplesAttributeToNamedProcedures) {
  SchemeEngine E;
  E.evalOrDie(NamedLoop);
  E.startProfiler(/*Hz=*/2000);
  E.evalOrDie("(hot-loop 3000000 0)");
  E.stopProfiler();
  ASSERT_GT(E.profiler().sampleCount(), 0u);
  // Count named-leaf samples out of the fold (acceptance: >= 90%).
  std::map<std::string, uint64_t> Fold;
  E.profiler().foldInto(Fold);
  uint64_t Total = 0, Named = 0;
  for (const auto &[Stack, N] : Fold) {
    Total += N;
    std::string Leaf = Stack.substr(Stack.rfind(';') + 1);
    if (Leaf != "(anonymous)" && Leaf != "?")
      Named += N;
  }
  ASSERT_GT(Total, 0u);
  EXPECT_GE(static_cast<double>(Named), 0.9 * static_cast<double>(Total));
}

TEST(ProfilerTest, MarkStackFramesAppearInStacks) {
  SchemeEngine E;
  // with-stack-frame maintains the #%trace-key mark chain the profiler
  // renders; a sample inside the body must carry the frame labels,
  // root-first. The inner frame sits in non-tail position (inside a list
  // argument) so it nests under 'outer instead of rebinding it; the poke
  // is consumed at the Call into hot-loop with both marks live.
  E.evalOrDie(NamedLoop);
  definePoke(E);
  E.startProfiler(/*Hz=*/1);
  E.evalOrDie("(with-stack-frame 'outer"
              "  (car (list (with-stack-frame 'inner"
              "    (begin (test-poke!) (hot-loop 200000 0))))))");
  E.stopProfiler();
  ASSERT_EQ(E.profiler().sampleCount(), 1u);
  std::string Out = E.profileCollapsed();
  EXPECT_NE(Out.find("outer;inner;"), std::string::npos) << Out;
}

TEST(ProfilerTest, SamplingDoesNotPerturbCounters) {
  // The invariant everything else rests on: an identical workload run
  // with the sampler hammering away must retire with bit-identical
  // VMStats — including safe-point-polls and fuel-refills — because the
  // sample bit is consumed without polling.
  VMStats Baseline;
  {
    SchemeEngine E;
    E.evalOrDie(NamedLoop);
    E.resetStats();
    E.evalOrDie("(hot-loop 2000000 0)");
    Baseline = E.stats();
  }
  {
    SchemeEngine E;
    E.evalOrDie(NamedLoop);
    E.resetStats();
    E.startProfiler(/*Hz=*/5000);
    E.evalOrDie("(hot-loop 2000000 0)");
    E.stopProfiler();
    // The sampler must actually have fired for this test to mean
    // anything.
    EXPECT_GT(E.profiler().pokes(), 0u);
    expectSameCounters(Baseline, E.stats());
  }
}

TEST(ProfilerTest, DisabledProfilerAddsZeroPolls) {
  // With the profiler never started, the workload's safe-point poll count
  // must match a pristine engine's — the sampler machinery costs nothing
  // when off (the CI counter gate pins the same invariant on bench runs).
  VMStats A, B;
  {
    SchemeEngine E;
    E.evalOrDie(NamedLoop);
    E.resetStats();
    E.evalOrDie("(hot-loop 500000 0)");
    A = E.stats();
  }
  {
    SchemeEngine E;
    E.evalOrDie(NamedLoop);
    E.resetStats();
    E.evalOrDie("(hot-loop 500000 0)");
    B = E.stats();
  }
  expectSameCounters(A, B);
}

TEST(ProfilerTest, CollapsedFormatIsWellFormed) {
  SchemeEngine E;
  E.evalOrDie(NamedLoop);
  E.startProfiler(/*Hz=*/2000);
  E.evalOrDie("(hot-loop 2000000 0)");
  E.stopProfiler();
  std::string Out = E.profileCollapsed();
  ASSERT_FALSE(Out.empty());
  // Every line is "stack count" with exactly one space (frames escape
  // embedded spaces), count digits only.
  size_t Pos = 0;
  while (Pos < Out.size()) {
    size_t Eol = Out.find('\n', Pos);
    ASSERT_NE(Eol, std::string::npos);
    std::string Line = Out.substr(Pos, Eol - Pos);
    size_t Space = Line.find(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    EXPECT_EQ(Line.find(' ', Space + 1), std::string::npos) << Line;
    for (size_t I = Space + 1; I < Line.size(); ++I)
      EXPECT_TRUE(Line[I] >= '0' && Line[I] <= '9') << Line;
    Pos = Eol + 1;
  }
}

TEST(ProfilerTest, FoldMergesAcrossProfilers) {
  std::map<std::string, uint64_t> Fold;
  for (int Round = 0; Round < 2; ++Round) {
    SchemeEngine E;
    E.evalOrDie(NamedLoop);
    definePoke(E);
    E.startProfiler(/*Hz=*/1);
    E.evalOrDie("(begin (test-poke!) (hot-loop 100000 0))");
    E.stopProfiler();
    E.profiler().foldInto(Fold);
  }
  uint64_t Total = 0;
  for (const auto &KV : Fold)
    Total += KV.second;
  EXPECT_EQ(Total, 2u);
  // Both engines sampled the same toplevel call site, so the fold merges
  // them into one stack with count 2.
  std::string Text = SamplingProfiler::collapsedText(Fold);
  EXPECT_NE(Text.find("toplevel 2"), std::string::npos) << Text;
}

TEST(ProfilerTest, RestartClearsSamples) {
  SchemeEngine E;
  E.evalOrDie(NamedLoop);
  definePoke(E);
  E.startProfiler(/*Hz=*/1);
  E.evalOrDie("(begin (test-poke!) (hot-loop 100000 0))");
  E.stopProfiler();
  ASSERT_EQ(E.profiler().sampleCount(), 1u);
  E.startProfiler(/*Hz=*/1);
  E.stopProfiler();
  EXPECT_EQ(E.profiler().sampleCount(), 0u);
}

TEST(ProfilerTest, SchemePrimitivesRoundTrip) {
  SchemeEngine E;
  E.evalOrDie(NamedLoop);
  std::string Out = E.evalToString(
      "(begin (profiler-start! 2000) (hot-loop 2000000 0)"
      " (let ((n (profiler-stop!))) (cons n (string? (profiler-dump)))))");
  ASSERT_TRUE(E.ok()) << E.lastError();
  // (n . #t) with n > 0.
  EXPECT_NE(Out.find(" . #t)"), std::string::npos) << Out;
  EXPECT_NE(Out[1], '0') << Out;
}

TEST(ProfilerTest, RuntimeMetricsPrimitivesExport) {
  SchemeEngine E;
  std::string Json = E.evalToString("(runtime-metrics)");
  ASSERT_TRUE(E.ok()) << E.lastError();
  EXPECT_NE(Json.find("cmarks-metrics-v1"), std::string::npos);
  EXPECT_NE(Json.find("cmarks_engine_events_total"), std::string::npos);
  std::string Text = E.evalToString("(runtime-metrics-text)");
  EXPECT_NE(Text.find("# TYPE cmarks_engine_events_total counter"),
            std::string::npos);
}

TEST(ProfilerTest, RuntimeStatsReportsTraceDrops) {
  SchemeEngine E;
  // A tiny ring (MinCapacity=8) overflows immediately under tracing.
  E.evalOrDie("(runtime-trace-start! 8)");
  E.evalOrDie("(let loop ((i 0)) (if (= i 50) i"
              "  (begin (#%trace-instant 'x) (loop (+ i 1)))))");
  E.evalOrDie("(runtime-trace-stop!)");
  std::string Dropped = E.evalToString(
      "(cdr (assq 'trace-events-dropped (runtime-stats)))");
  ASSERT_TRUE(E.ok()) << E.lastError();
  EXPECT_NE(Dropped, "0");
}

// A write that fails only when the file is flushed on close (a full disk)
// is a failure of every file export, not a success with a truncated file.
TEST(ProfilerTest, DumpsToAFullDeviceReportFailure) {
  std::FILE *Full = std::fopen("/dev/full", "w");
  if (!Full)
    GTEST_SKIP() << "/dev/full is not writable";
  std::fclose(Full);
  SchemeEngine E;
  E.evalOrDie(NamedLoop);
  definePoke(E);
  E.startTrace();
  E.evalOrDie("(+ 0 (with-continuation-mark 'k 1 (car '(1))))");
  E.stopTrace();
  E.startProfiler(/*Hz=*/1);
  E.evalOrDie("(begin (test-poke!) (hot-loop 1000 0))");
  E.stopProfiler();
  ASSERT_GT(E.trace().size(), 0u);
  ASSERT_EQ(E.profiler().sampleCount(), 1u);

  EXPECT_FALSE(E.dumpTrace("/dev/full"));
  EXPECT_FALSE(E.dumpProfile("/dev/full"));
  EXPECT_EQ(E.evalToString("(runtime-trace-dump \"/dev/full\")"), "#f");
  EXPECT_EQ(E.evalToString("(profiler-dump \"/dev/full\")"), "#f");
}

} // namespace
