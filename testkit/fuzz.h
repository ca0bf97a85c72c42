//===- testkit/fuzz.h - Differential fuzzing subsystem --------*- C++ -*-===//
///
/// \file
/// Random-program differential testing over the engine matrix. The paper's
/// correctness story rests on the equivalence of the optimized runtime
/// paths (fused superinstructions, 7.2 attachment-category elision, the
/// one-shot machinery) with the simple semantics; the CEK heap-frame model
/// (testkit/heap_model.h) already caught one real reification bug via
/// hand-written differential tests. This subsystem makes that systematic:
///
///  - ProgramGen: a seeded random Scheme program generator biased toward
///    the interesting space -- nested `with-continuation-marks` in tail and
///    non-tail position, `call/cc` and one-shot captures crossing
///    `dynamic-wind`, prompts and composable continuations, mark
///    observation at varying depths, and the numeric-tower edge cases.
///    Programs are built as explicit trees so a failing case can be shrunk
///    structurally. A subset of the grammar (`OracleSafe`) stays within
///    the heap model's supported forms, so those programs are additionally
///    checked against the section 4 reference semantics.
///
///  - FuzzHarness: runs every program through a configurable matrix of
///    engine legs (fused / unfused / no-opt / no-1cc / heap-frames /
///    copy-on-capture / heap-model oracle, plus fault-injection
///    schedules), compares results and error classifications, re-runs the
///    reference leg to check determinism of results *and* VMStats
///    counters, validates counter invariants, and on divergence shrinks
///    the program to a local minimum and emits a self-contained repro
///    file (tools/fuzz_repro corpus format).
///
/// The CLI driver is tools/fuzz_diff.cpp (`cmarks_fuzz`); the bounded
/// fixed-seed smoke lives in tests/test_fuzz.cpp and the nightly soak in
/// .github/workflows/soak.yml. See DESIGN.md section 12. This file and the
/// model are the test kit (library `cmarks_testkit`): only the tests and
/// `cmarks_fuzz` link them, never an embedder of `cmarks`.
///
//===----------------------------------------------------------------------===//

#ifndef CMARKS_TESTKIT_FUZZ_H
#define CMARKS_TESTKIT_FUZZ_H

#include "api/scheme.h"
#include "support/rng.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cmk {
namespace fuzz {

// --- Program representation -------------------------------------------------

/// Grammar productions. Leaves first; the comment names the rendered shape
/// (see renderNode in fuzz.cpp). Productions marked [full] are outside the
/// heap model's supported subset and only appear in non-oracle programs.
enum class Prod : uint8_t {
  Num,          ///< Integer literal.
  FloLeaf,      ///< [full] Flonum/infinity/NaN literal.
  SymLeaf,      ///< Quoted symbol.
  FstLeaf,      ///< (fst 'k)
  ObsLeaf,      ///< (obs 'k)
  AttLeaf,      ///< (current-continuation-attachments)
  WcmTail,      ///< wcm in tail position.
  WcmNonTail,   ///< wcm under (car (list ...)).
  WcmChain,     ///< Two nested wcm, different keys.
  ObsList,      ///< (list (obs 'k) <e>)
  FirstCons,    ///< (cons (fst 'k) <e>)
  AttachSet,    ///< call-setting-continuation-attachment.
  AttachGet,    ///< call-getting-continuation-attachment.
  AttachConsume,///< call-consuming-continuation-attachment.
  EscUnused,    ///< #%call/cc, continuation unused.
  EscUsed,      ///< #%call/cc escape, possibly from under `deep` frames.
  ReEntry,      ///< Bounded continuation re-entry (capture, return, re-apply).
  LetObs,       ///< let-bound subexpression, then observe a mark.
  IfSplit,      ///< Deterministic two-way branch.
  Thunk,        ///< Call boundary through a thunk.
  NoteSeq,      ///< Side-effect log entry, then <e>.
  Deep,         ///< Run <e> under N non-tail frames.
  WrappedEsc,   ///< [full] call/cc (winder-aware) escape or fallthrough.
  OneShot,      ///< [full] call/1cc, applied once or unused.
  DynWind,      ///< [full] dynamic-wind with logged before/after thunks.
  EscThroughWind,///< [full] escape crossing a dynamic-wind boundary.
  Prompt,       ///< [full] call-with-continuation-prompt + handler.
  AbortToPrompt,///< [full] abort-current-continuation to an enclosing prompt.
  Composable,   ///< [full] composable capture applied twice.
  ComposableMarks,///< [full] marks spliced across a composable re-entry.
  NumEdgeInt,   ///< [full] modulo/remainder/quotient sign edge cases.
  NumEdgeFlo,   ///< [full] inexact division by zero, NaN comparisons.
  CatchThrow,   ///< [full] catch with a conditional throw.
  Param,        ///< [full] parameterize over a preamble parameter.
  Generator,    ///< [full] bounded prompt-based generator.
  FiberJoin,    ///< [full] (fiber-join (spawn (lambda () <e>))).
  FiberPair,    ///< [full] Two yielding fibers, interleave logged, both joined.
  FiberChannel, ///< [full] Bounded-channel producer fiber + consumer get.
  FiberMarks    ///< [full] wcm isolation across a spawn + yield boundary.
};

/// One node of a generated program. Rendering is a pure function of the
/// production, the two numeric parameters, the site id (used to keep
/// binder names unique), and the children -- which is what makes
/// structural shrinking possible.
struct GenNode {
  Prod P = Prod::Num;
  int A = 0;       ///< First numeric parameter (key index, literal, depth).
  int B = 0;       ///< Second numeric parameter (mark value, branch coin).
  int Id = 0;      ///< Unique site id for binder/symbol names.
  std::vector<std::unique_ptr<GenNode>> Kids;

  std::unique_ptr<GenNode> clone() const;
  size_t size() const; ///< Node count, for shrink accounting.
};

/// A generated (or reloaded) program: the rendered source plus, when it
/// came from ProgramGen, the tree it was rendered from.
struct FuzzProgram {
  uint64_t Seed = 0;   ///< Per-program seed (derived from the campaign seed).
  int Index = 0;       ///< Position in the campaign.
  bool OracleSafe = false;
  std::unique_ptr<GenNode> Root; ///< Null when loaded from a repro file.
  std::string Source;
};

/// Generator knobs (a namespace-scope struct so it can be a default
/// argument below).
struct GenOptions {
  int Depth = 5;                   ///< Expression nesting budget.
  unsigned OracleSafePercent = 50; ///< Share of oracle-checkable programs.
  /// Include the fiber productions (spawn/yield/channel programs) in the
  /// full pool. Off when a selected leg cannot run fibers at all (the
  /// mark-stack comparator rejects spawn).
  bool EnableFibers = true;
};

/// Seeded program generator.
class ProgramGen {
public:
  using Options = GenOptions;

  explicit ProgramGen(uint64_t CampaignSeed, Options O = Options());

  FuzzProgram next();

  /// Renders a program tree to complete source (preamble + body). Pure;
  /// the shrinker re-renders candidate trees through this.
  static std::string render(const GenNode &E1, const GenNode &E2,
                            bool OracleSafe);

private:
  std::unique_ptr<GenNode> gen(Rng &R, int Depth, bool OracleSafe);
  std::unique_ptr<GenNode> leaf(Rng &R, bool OracleSafe);

  Rng Master;
  Options Opts;
  int Index = 0;
  int NextId = 0;
};

// --- Engine matrix ----------------------------------------------------------

/// One leg of the differential matrix: a named engine configuration, the
/// heap-model oracle, or a fault-schedule variation of an engine.
struct FuzzLeg {
  std::string Name;
  bool IsOracle = false;
  EngineOptions Opts;
  /// Fault-injection schedule (support/faults.h spec grammar) for the
  /// leg's engine. It replaces any CMARKS_FAULT_SPEC schedule, so an
  /// empty spec runs the leg unfaulted. Preserving schedules
  /// (gc/overflow/nofuse) join the result comparison; failing schedules
  /// (oom/reify-oom) only assert that the outcome is a cleanly classified
  /// error or value.
  std::string FaultSpec;
  bool FaultPreserving = true;
  /// Test hook: rewrites the source before this leg evaluates it,
  /// simulating a miscompiling engine so the harness/shrinker machinery
  /// can be exercised deterministically (tests/test_fuzz.cpp).
  std::function<std::string(const std::string &)> MutateSource;
};

/// The standard matrix: fused (reference), unfused, no-opt, no-1cc,
/// heap-frames, copy-on-capture, and optionally the heap-model oracle.
std::vector<FuzzLeg> defaultLegs(bool IncludeOracle = true);

/// Resolves a leg by its standard name ("fused", "unfused", "no-opt",
/// "no-1cc", "heap-frames", "copy-on-capture", "mark-stack", "oracle").
/// Returns false if the name is unknown.
bool legByName(const std::string &Name, FuzzLeg &Out);

// --- Harness ----------------------------------------------------------------

/// How one leg's evaluation ended.
enum class OutcomeClass : uint8_t {
  Value,     ///< Normal completion; Repr holds the written result.
  Error,     ///< Runtime/compile error; Repr holds the message.
  LimitTrip, ///< Resource-limit backstop fired; the program is skipped.
};

struct LegOutcome {
  OutcomeClass Class = OutcomeClass::Value;
  std::string Repr;
  ErrorKind Kind = ErrorKind::None;
  VMStats Counters; ///< Workload counter deltas (VM legs only).
};

struct HarnessOptions {
  /// Wall-clock backstop per leg evaluation; trips skip the program.
  uint64_t TimeoutMs = 10000;
  /// Step budget for the heap-model oracle.
  uint64_t OracleStepLimit = 50'000'000;
  /// Check VMStats invariants after every leg run.
  bool CheckInvariants = true;
  /// Re-run the reference leg and require identical results and counters.
  bool CheckDeterminism = true;
  /// Maximum candidate evaluations the shrinker may spend per divergence.
  int ShrinkBudget = 250;
  /// When non-empty, divergence repro files are written here.
  std::string ReproDir;
  /// When nonzero, every VM leg runs the safe-point sampling profiler at
  /// this rate (support/profiler.h). Sampling consumes its async-signal
  /// bit without polling, so results AND counters must stay bit-for-bit
  /// identical with the sampler on — the nightly soak leg exists to catch
  /// any perturbation.
  uint32_t ProfileHz = 0;
};

/// A confirmed divergence (or invariant/determinism violation), shrunk
/// when the program tree was available.
struct Divergence {
  uint64_t Seed = 0;
  int Index = 0;
  std::string LegA, LegB;    ///< The disagreeing pair (LegB may be "").
  std::string ReprA, ReprB;
  std::string Detail;        ///< Invariant text for non-pair failures.
  std::string Source;        ///< Shrunk source.
  std::string OriginalSource;
  int ShrinkEvals = 0;
  std::string ReproPath;     ///< Set when a repro file was written.
};

struct CampaignStats {
  long Programs = 0;
  long OracleChecked = 0;
  long Skipped = 0;       ///< Limit-trip outcomes.
  long Divergences = 0;
  long LegRuns = 0;
};

class FuzzHarness {
public:
  FuzzHarness(std::vector<FuzzLeg> Legs, HarnessOptions O);

  /// Runs one program through every leg. Returns true when all legs agree
  /// (or the program was skipped); fills \p Div otherwise. Shrinks and
  /// writes a repro when the program carries its tree and ReproDir is set.
  bool checkProgram(const FuzzProgram &P, Divergence *Div);

  /// Generates and checks \p Count programs (or until \p TimeBudgetSec
  /// elapses, when positive). Returns true when no divergence was found.
  bool runCampaign(uint64_t Seed, long Count, ProgramGen::Options GenOpts,
                   CampaignStats &Stats, std::vector<Divergence> &Divs,
                   double TimeBudgetSec = 0, bool StopOnFirst = false,
                   bool Verbose = false);

  /// Re-runs a repro file (comment lines stripped) through the matrix.
  bool reproduce(const std::string &Source, Divergence *Div);

  const std::vector<FuzzLeg> &legs() const { return Legs; }

private:
  LegOutcome runLeg(const FuzzLeg &Leg, const std::string &Source);
  bool compareOutcomes(const std::string &Source, bool OracleSafe,
                       Divergence *Div);
  bool sourcesDiverge(const std::string &Source, bool OracleSafe);
  void shrink(const FuzzProgram &P, Divergence &Div);
  void writeRepro(const FuzzProgram &P, Divergence &Div);

  std::vector<FuzzLeg> Legs;
  HarnessOptions Opts;
  CampaignStats *ActiveStats = nullptr;
  /// True while evaluating shrink candidates: invariant and determinism
  /// re-checks are skipped so the shrinker converges on the divergence.
  bool InShrink = false;
};

/// Checks the counter invariants that must hold for any successful run on
/// an engine with no fault schedule and only the harness's timeout armed.
/// Returns "" when all hold, else a description of the first violation.
std::string checkStatsInvariants(const VMStats &S, const EngineOptions &Opts);

} // namespace fuzz
} // namespace cmk

#endif // CMARKS_TESTKIT_FUZZ_H
