//===- tests/test_fuzz.cpp - Differential fuzzing subsystem ----*- C++ -*-===//
///
/// \file
/// Tests for testkit/fuzz.h: generator determinism, the oracle-safe
/// grammar subset, the engine-matrix comparison, the shrinker and repro
/// pipeline (exercised deterministically via the FuzzLeg::MutateSource
/// hook, which simulates a miscompiling engine), and the VMStats
/// invariant checker. The bounded fixed-seed smoke at the end is the
/// per-PR differential campaign; the nightly soak (soak.yml) runs the
/// same harness for a wall-clock budget instead.
///
//===----------------------------------------------------------------------===//

#include "test_helpers.h"

#include "testkit/fuzz.h"

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace cmk;
using namespace cmk::fuzz;

namespace {

std::vector<std::string> generateSources(uint64_t Seed, int N,
                                         ProgramGen::Options O) {
  ProgramGen G(Seed, O);
  std::vector<std::string> Out;
  for (int I = 0; I < N; ++I)
    Out.push_back(G.next().Source);
  return Out;
}

// --- Generator --------------------------------------------------------------

TEST(FuzzGen, DeterministicForSeed) {
  ProgramGen::Options O;
  std::vector<std::string> A = generateSources(42, 25, O);
  std::vector<std::string> B = generateSources(42, 25, O);
  EXPECT_EQ(A, B);
  std::vector<std::string> C = generateSources(43, 25, O);
  EXPECT_NE(A, C);
}

TEST(FuzzGen, OracleSafeShareRespectsPercent) {
  ProgramGen::Options O;
  O.OracleSafePercent = 100;
  ProgramGen AllOracle(7, O);
  for (int I = 0; I < 20; ++I)
    EXPECT_TRUE(AllOracle.next().OracleSafe);
  O.OracleSafePercent = 0;
  ProgramGen NoneOracle(7, O);
  for (int I = 0; I < 20; ++I)
    EXPECT_FALSE(NoneOracle.next().OracleSafe);
}

TEST(FuzzGen, RenderIsPureFunctionOfTree) {
  ProgramGen G(11, ProgramGen::Options());
  for (int I = 0; I < 10; ++I) {
    FuzzProgram P = G.next();
    ASSERT_NE(P.Root, nullptr);
    ASSERT_EQ(P.Root->Kids.size(), 2u); // Synthetic root holding E1, E2.
    std::string Re = ProgramGen::render(*P.Root->Kids[0], *P.Root->Kids[1],
                                        P.OracleSafe);
    EXPECT_EQ(Re, P.Source);
    std::unique_ptr<GenNode> C = P.Root->clone();
    EXPECT_EQ(C->size(), P.Root->size());
    EXPECT_EQ(ProgramGen::render(*C->Kids[0], *C->Kids[1], P.OracleSafe),
              P.Source);
  }
}

TEST(FuzzGen, GeneratedProgramsEvaluateOnReferenceEngine) {
  // Every generated program must at least be readable and runnable on the
  // reference engine -- errors are legal outcomes, reader failures or
  // hangs are generator bugs. The harness smoke below checks agreement;
  // this pins down basic well-formedness with a tighter loop.
  ProgramGen G(20260807, ProgramGen::Options());
  SchemeEngine E;
  for (int I = 0; I < 40; ++I) {
    FuzzProgram P = G.next();
    EXPECT_FALSE(P.Source.empty());
    E.evalToString(P.Source); // Value or error both fine; must terminate.
  }
}

// --- Matrix assembly --------------------------------------------------------

TEST(FuzzLegs, DefaultMatrixAndLookup) {
  std::vector<FuzzLeg> Legs = defaultLegs(/*IncludeOracle=*/true);
  ASSERT_GE(Legs.size(), 6u);
  EXPECT_EQ(Legs.front().Name, "fused");
  EXPECT_TRUE(Legs.back().IsOracle);
  FuzzLeg L;
  EXPECT_TRUE(legByName("unfused", L));
  EXPECT_FALSE(L.Opts.CompilerOpts.EnablePeephole);
  EXPECT_TRUE(legByName("oracle", L));
  EXPECT_TRUE(L.IsOracle);
  EXPECT_FALSE(legByName("no-such-leg", L));
}

// --- Harness: divergence detection, shrinking, repro ------------------------

/// A harness whose second leg "miscompiles": the mutation rewrites the
/// rendered body `(list E1 E2 (log-out))` to inject an extra element, so
/// every program's value diverges deterministically.
FuzzHarness buggyHarness(HarnessOptions HO) {
  std::vector<FuzzLeg> Legs;
  FuzzLeg Ref, Bad;
  legByName("fused", Ref);
  legByName("unfused", Bad);
  Bad.Name = "unfused+bug";
  Bad.MutateSource = [](const std::string &Src) {
    std::string Out = Src;
    size_t At = Out.rfind("(list ");
    if (At != std::string::npos)
      Out.insert(At + 6, "'injected-bug ");
    return Out;
  };
  Legs.push_back(std::move(Ref));
  Legs.push_back(std::move(Bad));
  return FuzzHarness(std::move(Legs), HO);
}

TEST(FuzzHarness, CatchesInjectedBugAndShrinks) {
  HarnessOptions HO;
  HO.CheckDeterminism = false; // Two-leg toy matrix; keep the test fast.
  FuzzHarness H = buggyHarness(HO);

  // Legacy grammar: these tests exercise the harness mechanics on a
  // pinned seed whose program must keep the injected (list ...) live.
  ProgramGen::Options GO;
  GO.EnableFibers = false;
  ProgramGen G(5, GO);
  FuzzProgram P = G.next();
  Divergence D;
  ASSERT_FALSE(H.checkProgram(P, &D));
  EXPECT_EQ(D.LegA, "fused");
  EXPECT_EQ(D.LegB, "unfused+bug");
  EXPECT_NE(D.ReprA, D.ReprB);
  // The shrinker ran and the result still diverges, is no larger than the
  // original, and is itself renderable source.
  EXPECT_FALSE(D.Source.empty());
  EXPECT_LE(D.Source.size(), D.OriginalSource.size());
  EXPECT_GT(D.ShrinkEvals, 0);
  Divergence D2;
  EXPECT_FALSE(H.reproduce(D.Source, &D2));
}

TEST(FuzzHarness, ShrinkBudgetZeroKeepsOriginal) {
  HarnessOptions HO;
  HO.CheckDeterminism = false;
  HO.ShrinkBudget = 0;
  FuzzHarness H = buggyHarness(HO);
  ProgramGen::Options GO;
  GO.EnableFibers = false;
  ProgramGen G(5, GO);
  FuzzProgram P = G.next();
  Divergence D;
  ASSERT_FALSE(H.checkProgram(P, &D));
  EXPECT_EQ(D.Source, D.OriginalSource);
  EXPECT_EQ(D.ShrinkEvals, 0);
}

TEST(FuzzHarness, WritesReproFileThatRoundTrips) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "cmarks_fuzz_test_repro";
  fs::remove_all(Dir);

  HarnessOptions HO;
  HO.CheckDeterminism = false;
  HO.ReproDir = Dir.string();
  FuzzHarness H = buggyHarness(HO);
  // The injected mutation can land in a discarded subexpression; scan a
  // few programs for one whose value actually changes.
  ProgramGen G(9, ProgramGen::Options());
  Divergence D;
  bool Diverged = false;
  for (int I = 0; I < 10 && !Diverged; ++I)
    Diverged = !H.checkProgram(G.next(), &D);
  ASSERT_TRUE(Diverged);
  ASSERT_FALSE(D.ReproPath.empty());
  ASSERT_TRUE(fs::exists(D.ReproPath));

  std::ifstream In(D.ReproPath);
  std::stringstream Buf;
  Buf << In.rdbuf();
  std::string Contents = Buf.str();
  EXPECT_NE(Contents.find(";; cmarks-fuzz-repro-v1"), std::string::npos);

  // The buggy harness still diverges on the file; a clean matrix agrees.
  Divergence D2;
  EXPECT_FALSE(H.reproduce(Contents, &D2));
  HarnessOptions CleanHO;
  FuzzHarness Clean(defaultLegs(/*IncludeOracle=*/false), CleanHO);
  Divergence D3;
  EXPECT_TRUE(Clean.reproduce(Contents, &D3));
  fs::remove_all(Dir);
}

TEST(FuzzHarness, CampaignStopOnFirst) {
  HarnessOptions HO;
  HO.CheckDeterminism = false;
  HO.ShrinkBudget = 0;
  FuzzHarness H = buggyHarness(HO);
  CampaignStats Stats;
  std::vector<Divergence> Divs;
  bool Clean = H.runCampaign(3, 50, ProgramGen::Options(), Stats, Divs,
                             /*TimeBudgetSec=*/0, /*StopOnFirst=*/true);
  EXPECT_FALSE(Clean);
  EXPECT_EQ(Divs.size(), 1u);
  EXPECT_LT(Stats.Programs, 50);
  EXPECT_EQ(Stats.Divergences, 1);
}

// --- Stats invariants -------------------------------------------------------

TEST(FuzzInvariants, CleanStatsPass) {
  VMStats S;
  EngineOptions EO;
  EXPECT_EQ(checkStatsInvariants(S, EO), "");
}

TEST(FuzzInvariants, ViolationsAreReported) {
  EngineOptions EO;
  {
    VMStats S;
    S.MarkFirstCacheHits = 5; // Hits with zero lookups is impossible.
    EXPECT_NE(checkStatsInvariants(S, EO), "");
  }
  {
    VMStats S;
    S.SegmentAllocs = 3; // Segments without any slots is impossible.
    EXPECT_NE(checkStatsInvariants(S, EO), "");
  }
  {
    VMStats S;
    S.FaultsInjected = 1; // No schedule was armed on harness legs.
    EXPECT_NE(checkStatsInvariants(S, EO), "");
  }
}

// --- Bounded fixed-seed smoke (the per-PR differential campaign) ------------

TEST(FuzzSmoke, FixedSeedCampaignAgrees) {
  // Full matrix including the heap-model oracle. CI additionally runs the
  // larger `cmarks_fuzz` smoke; this bounded run keeps plain `ctest`
  // meaningful.
  HarnessOptions HO;
  FuzzHarness H(defaultLegs(/*IncludeOracle=*/true), HO);
  CampaignStats Stats;
  std::vector<Divergence> Divs;
  bool Clean = H.runCampaign(20260807, 60, ProgramGen::Options(), Stats,
                             Divs);
  for (const Divergence &D : Divs)
    ADD_FAILURE() << "divergence (" << D.LegA << " vs " << D.LegB
                  << "): " << D.Detail << "\n  " << D.ReprA << "\n  "
                  << D.ReprB << "\n  shrunk: " << D.Source;
  EXPECT_TRUE(Clean);
  EXPECT_EQ(Stats.Programs, 60);
  EXPECT_GT(Stats.OracleChecked, 0);
  EXPECT_GT(Stats.LegRuns, 60 * 6);
}

TEST(FuzzSmoke, EnvironmentFaultSpecLeavesPlainLegsUnfaulted) {
  // CMARKS_FAULT_SPEC arms every engine at construction, and the fault
  // sweep runs this suite under it. Each leg replaces that schedule with
  // its own, so the plain legs must still inject nothing: the campaign's
  // stats invariant fails any leg without a schedule that counted an
  // injected fault.
  ScopedEnv Spec("CMARKS_FAULT_SPEC", "overflow:p=1,seed=1;nofuse:p=50,seed=1");
  {
    // The spec is live: an engine that keeps it does inject.
    SchemeEngine Armed;
    Armed.eval("(define (f n)"
               "  (if (= n 0) (call/cc (lambda (k) 0)) (+ 1 (f (- n 1)))))"
               "(let loop ([i 0])"
               "  (if (< i 50) (begin (f 20) (loop (+ i 1)))))");
    ASSERT_TRUE(Armed.ok()) << Armed.lastError();
    ASSERT_GT(Armed.stats().FaultsInjected, 0u);
  }
  HarnessOptions HO;
  HO.ShrinkBudget = 0;
  FuzzHarness H(defaultLegs(/*IncludeOracle=*/false), HO);
  CampaignStats Stats;
  std::vector<Divergence> Divs;
  bool Clean = H.runCampaign(20260807, 20, ProgramGen::Options(), Stats,
                             Divs);
  for (const Divergence &D : Divs)
    ADD_FAILURE() << "divergence (" << D.LegA << " vs " << D.LegB
                  << "): " << D.Detail << "\n  " << D.Source;
  EXPECT_TRUE(Clean);
  EXPECT_EQ(Stats.Divergences, 0);
  EXPECT_EQ(Stats.Programs, 20);
}

} // namespace
