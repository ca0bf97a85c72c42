//===- tools/fuzz_diff.cpp - Differential fuzzing CLI ---------*- C++ -*-===//
///
/// \file
/// `cmarks_fuzz`: drives the differential fuzzing subsystem
/// (testkit/fuzz.h) from the command line. Three modes:
///
///   cmarks_fuzz --seed=N --count=N [options]      # bounded campaign
///   cmarks_fuzz --seed=N --time-budget-s=S [...]  # wall-clock soak
///   cmarks_fuzz --reproduce=FILE [options]        # re-run a repro file
///
/// Every generated program runs through the engine matrix (fused /
/// unfused / no-opt / no-1cc / heap-frames / copy-on-capture plus the
/// section 4 heap-model oracle on the oracle-safe subset); results, error
/// classifications, counter invariants, and determinism are compared. On
/// divergence the program is shrunk and a repro file is written to
/// --repro-dir; the exit status is 1. CI runs the fixed-seed smoke on
/// every PR (ci.yml) and the long soak nightly (soak.yml).
///
/// Options:
///   --seed=N            campaign seed (default 1)
///   --count=N           programs to generate (default 200)
///   --time-budget-s=S   stop after S seconds of wall clock (0 = off)
///   --depth=N           expression nesting budget (default 5)
///   --oracle-percent=P  share of oracle-checkable programs (default 50)
///   --legs=a,b,c        comma list of legs (default: the full matrix)
///   --no-oracle         drop the heap-model oracle leg
///   --no-fibers         drop the fiber productions (spawn/yield/channel)
///                       from the grammar; implied by a mark-stack leg,
///                       which rejects spawn outright
///   --fibers            force fiber productions on despite a mark-stack leg
///   --faults=SPEC       add a fused-leg clone armed with a preserving
///                       fault schedule (repeatable)
///   --failing-faults=SPEC  same, for failing schedules (oom/reify-oom):
///                       outcomes are not compared, only classified
///   --timeout-ms=N      per-leg backstop (default 10000)
///   --profile-hz=N      run the safe-point sampling profiler at N Hz on
///                       every VM leg; the sampler must be invisible
///                       (identical results and counters), so the nightly
///                       soak runs a leg with this armed
///   --repro-dir=DIR     where divergence repros are written
///                       (default fuzz_repro)
///   --no-shrink         keep the original failing program
///   --no-invariants     skip VMStats invariant checks
///   --no-determinism    skip the reference-leg determinism re-run
///   --stop-on-first     exit after the first divergence
///   --reproduce=FILE    re-run one repro file through the matrix
///   --quiet             suppress the progress line
///
//===----------------------------------------------------------------------===//

#include "testkit/fuzz.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace cmk;
using namespace cmk::fuzz;

namespace {

bool argValue(const char *Arg, const char *Name, std::string &Out) {
  size_t N = std::strlen(Name);
  if (std::strncmp(Arg, Name, N) != 0 || Arg[N] != '=')
    return false;
  Out = Arg + N + 1;
  return true;
}

int usage(const char *Msg) {
  std::fprintf(stderr, "cmarks_fuzz: %s (see tools/fuzz_diff.cpp header)\n",
               Msg);
  return 2;
}

void printDivergence(const Divergence &D) {
  std::fprintf(stderr, "\n=== DIVERGENCE (seed %llu, program %d) ===\n",
               static_cast<unsigned long long>(D.Seed), D.Index);
  if (!D.LegB.empty())
    std::fprintf(stderr, "  %s vs %s\n", D.LegA.c_str(), D.LegB.c_str());
  if (!D.Detail.empty())
    std::fprintf(stderr, "  detail: %s\n", D.Detail.c_str());
  if (!D.ReprA.empty() || !D.ReprB.empty()) {
    std::fprintf(stderr, "  %-16s => %s\n", D.LegA.c_str(), D.ReprA.c_str());
    std::fprintf(stderr, "  %-16s => %s\n", D.LegB.c_str(), D.ReprB.c_str());
  }
  std::fprintf(stderr, "  shrunk program (%zu chars, %d shrink evals):\n%s\n",
               D.Source.size(), D.ShrinkEvals, D.Source.c_str());
  if (!D.ReproPath.empty())
    std::fprintf(stderr, "  repro written: %s\n", D.ReproPath.c_str());
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Seed = 1;
  long Count = 200;
  double TimeBudgetSec = 0;
  ProgramGen::Options GenOpts;
  HarnessOptions HOpts;
  HOpts.ReproDir = "fuzz_repro";
  std::string LegsSpec, ReproFile;
  std::vector<std::string> PreservingFaults, FailingFaults;
  bool IncludeOracle = true, StopOnFirst = false, Quiet = false,
       Shrink = true;
  int FiberChoice = -1; // -1 auto: on unless a mark-stack leg is selected.

  for (int I = 1; I < argc; ++I) {
    std::string V;
    if (argValue(argv[I], "--seed", V))
      Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (argValue(argv[I], "--count", V))
      Count = std::strtol(V.c_str(), nullptr, 10);
    else if (argValue(argv[I], "--time-budget-s", V))
      TimeBudgetSec = std::strtod(V.c_str(), nullptr);
    else if (argValue(argv[I], "--depth", V))
      GenOpts.Depth = std::atoi(V.c_str());
    else if (argValue(argv[I], "--oracle-percent", V))
      GenOpts.OracleSafePercent = std::atoi(V.c_str());
    else if (argValue(argv[I], "--legs", V))
      LegsSpec = V;
    else if (std::strcmp(argv[I], "--no-oracle") == 0)
      IncludeOracle = false;
    else if (std::strcmp(argv[I], "--no-fibers") == 0)
      FiberChoice = 0;
    else if (std::strcmp(argv[I], "--fibers") == 0)
      FiberChoice = 1;
    else if (argValue(argv[I], "--faults", V))
      PreservingFaults.push_back(V);
    else if (argValue(argv[I], "--failing-faults", V))
      FailingFaults.push_back(V);
    else if (argValue(argv[I], "--timeout-ms", V))
      HOpts.TimeoutMs = std::strtoull(V.c_str(), nullptr, 10);
    else if (argValue(argv[I], "--profile-hz", V))
      HOpts.ProfileHz = static_cast<uint32_t>(
          std::strtoul(V.c_str(), nullptr, 10));
    else if (argValue(argv[I], "--repro-dir", V))
      HOpts.ReproDir = V;
    else if (std::strcmp(argv[I], "--no-shrink") == 0)
      Shrink = false;
    else if (std::strcmp(argv[I], "--no-invariants") == 0)
      HOpts.CheckInvariants = false;
    else if (std::strcmp(argv[I], "--no-determinism") == 0)
      HOpts.CheckDeterminism = false;
    else if (std::strcmp(argv[I], "--stop-on-first") == 0)
      StopOnFirst = true;
    else if (argValue(argv[I], "--reproduce", V))
      ReproFile = V;
    else if (std::strcmp(argv[I], "--quiet") == 0)
      Quiet = true;
    else
      return usage((std::string("unknown option ") + argv[I]).c_str());
  }
  if (!Shrink)
    HOpts.ShrinkBudget = 0;

  // Assemble the matrix.
  std::vector<FuzzLeg> Legs;
  if (LegsSpec.empty()) {
    Legs = defaultLegs(IncludeOracle);
  } else {
    std::stringstream Ss(LegsSpec);
    std::string Name;
    while (std::getline(Ss, Name, ',')) {
      FuzzLeg L;
      if (!legByName(Name, L))
        return usage(("unknown leg '" + Name + "'").c_str());
      if (L.IsOracle && !IncludeOracle)
        continue;
      Legs.push_back(std::move(L));
    }
    if (Legs.empty())
      return usage("--legs selected no legs");
  }
  for (const std::string &Spec : PreservingFaults) {
    FuzzLeg L;
    legByName("fused", L);
    L.Name = "fused+faults(" + Spec + ")";
    L.FaultSpec = Spec;
    L.FaultPreserving = true;
    Legs.push_back(std::move(L));
  }
  for (const std::string &Spec : FailingFaults) {
    FuzzLeg L;
    legByName("fused", L);
    L.Name = "fused+failing-faults(" + Spec + ")";
    L.FaultSpec = Spec;
    L.FaultPreserving = false;
    Legs.push_back(std::move(L));
  }

  // The mark-stack comparator rejects spawn, so fiber programs would
  // diverge on that leg by construction; drop them unless forced.
  bool HaveMarkStack = false;
  for (const FuzzLeg &L : Legs)
    HaveMarkStack |= L.Name == "mark-stack";
  GenOpts.EnableFibers = FiberChoice == -1 ? !HaveMarkStack : FiberChoice == 1;
  if (HaveMarkStack && FiberChoice == -1)
    std::fprintf(stderr, "cmarks_fuzz: note: mark-stack leg selected; fiber "
                         "productions disabled (override with --fibers)\n");

  FuzzHarness Harness(std::move(Legs), HOpts);

  if (!ReproFile.empty()) {
    std::ifstream In(ReproFile);
    if (!In)
      return usage(("cannot read " + ReproFile).c_str());
    std::stringstream Buf;
    Buf << In.rdbuf();
    Divergence D;
    if (Harness.reproduce(Buf.str(), &D)) {
      std::printf("reproduce: all legs agree on %s\n", ReproFile.c_str());
      return 0;
    }
    printDivergence(D);
    return 1;
  }

  CampaignStats Stats;
  std::vector<Divergence> Divs;
  Harness.runCampaign(Seed, Count, GenOpts, Stats, Divs, TimeBudgetSec,
                      StopOnFirst, !Quiet);

  std::printf("cmarks_fuzz: %ld programs (%ld oracle-checked, %ld skipped), "
              "%ld leg runs, %ld divergences [seed %llu, depth %d, %zu legs]\n",
              Stats.Programs, Stats.OracleChecked, Stats.Skipped,
              Stats.LegRuns, Stats.Divergences,
              static_cast<unsigned long long>(Seed), GenOpts.Depth,
              Harness.legs().size());
  for (const Divergence &D : Divs)
    printDivergence(D);
  return Divs.empty() ? 0 : 1;
}
