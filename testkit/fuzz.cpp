//===- testkit/fuzz.cpp - Differential fuzzing subsystem ------*- C++ -*-===//

#include "testkit/fuzz.h"

#include "compiler/expand.h"
#include "reader/reader.h"
#include "runtime/heap.h"
#include "runtime/printer.h"
#include "support/timing.h"
#include "testkit/heap_model.h"

#include <cstdio>
#include <filesystem>
#include <sstream>

using namespace cmk;
using namespace cmk::fuzz;

// --- Tree -------------------------------------------------------------------

std::unique_ptr<GenNode> GenNode::clone() const {
  auto N = std::make_unique<GenNode>();
  N->P = P;
  N->A = A;
  N->B = B;
  N->Id = Id;
  N->Kids.reserve(Kids.size());
  for (const auto &K : Kids)
    N->Kids.push_back(K->clone());
  return N;
}

size_t GenNode::size() const {
  size_t S = 1;
  for (const auto &K : Kids)
    S += K->size();
  return S;
}

namespace {

const char *keyName(int A) {
  switch (A % 3) {
  case 0:
    return "'k1";
  case 1:
    return "'k2";
  default:
    return "'k3";
  }
}

const char *tagName(int A) { return (A % 2) ? "tag-b" : "tag-a"; }

std::string id(const char *Prefix, int Id) {
  return std::string(Prefix) + std::to_string(Id);
}

/// Renders one node. Pure function of the node fields and children, which
/// is what lets the shrinker re-render edited trees.
void renderNode(const GenNode &N, std::string &O) {
  auto Kid = [&](size_t I) { renderNode(*N.Kids[I], O); };
  auto Lit = [&](const std::string &S) { O += S; };
  std::string A = std::to_string(N.A), B = std::to_string(N.B);
  std::string K = keyName(N.A), Tag = tagName(N.A);

  switch (N.P) {
  case Prod::Num:
    Lit(A);
    break;
  case Prod::FloLeaf: {
    static const char *Flo[] = {"0.5",    "-1.5",   "2.0",
                                "+inf.0", "-inf.0", "+nan.0"};
    Lit(Flo[N.A % 6]);
    break;
  }
  case Prod::SymLeaf:
    Lit("'s" + std::to_string(N.Id));
    break;
  case Prod::FstLeaf:
    Lit("(fst " + K + ")");
    break;
  case Prod::ObsLeaf:
    Lit("(obs " + K + ")");
    break;
  case Prod::AttLeaf:
    Lit("(current-continuation-attachments)");
    break;
  case Prod::WcmTail:
    Lit("(with-continuation-mark " + K + " " + B + " ");
    Kid(0);
    Lit(")");
    break;
  case Prod::WcmNonTail:
    Lit("(car (list (with-continuation-mark " + K + " " + B + " ");
    Kid(0);
    Lit(")))");
    break;
  case Prod::WcmChain:
    Lit("(with-continuation-mark " + K + " " + B +
        " (with-continuation-mark " + keyName(N.A + 1) + " " +
        std::to_string(N.B + 7) + " ");
    Kid(0);
    Lit("))");
    break;
  case Prod::ObsList:
    Lit("(list (obs " + K + ") ");
    Kid(0);
    Lit(")");
    break;
  case Prod::FirstCons:
    Lit("(cons (fst " + K + ") ");
    Kid(0);
    Lit(")");
    break;
  case Prod::AttachSet:
    Lit("(call-setting-continuation-attachment " + B + " (lambda () ");
    Kid(0);
    Lit("))");
    break;
  case Prod::AttachGet: {
    std::string V = id("att", N.Id);
    Lit("(call-getting-continuation-attachment 'dflt (lambda (" + V +
        ") (list " + V + " ");
    Kid(0);
    Lit(")))");
    break;
  }
  case Prod::AttachConsume: {
    std::string V = id("att", N.Id);
    Lit("(call-consuming-continuation-attachment 'dflt (lambda (" + V +
        ") (cons " + V + " ");
    Kid(0);
    Lit(")))");
    break;
  }
  case Prod::EscUnused:
    Lit("(#%call/cc (lambda (" + id("esc", N.Id) + ") ");
    Kid(0);
    Lit("))");
    break;
  case Prod::EscUsed: {
    std::string E = id("esc", N.Id);
    if (N.B % 2 == 0) {
      Lit("(#%call/cc (lambda (" + E + ") (" + E + " ");
      Kid(0);
      Lit(")))");
    } else {
      // Escape from under N.A non-tail frames.
      Lit("(#%call/cc (lambda (" + E + ") (deep " + A + " (lambda () (" + E +
          " ");
      Kid(0);
      Lit(")))))");
    }
    break;
  }
  case Prod::ReEntry: {
    // Capture, return through a wcm extent, then re-enter exactly once.
    std::string Sv = id("saved", N.Id), R = id("r", N.Id), Kv = id("k", N.Id);
    Lit("(let ([" + Sv + " (cons #f #f)]) (let ([" + R +
        " (with-continuation-mark " + K + " " + B +
        " (car (list (cons (#%call/cc (lambda (" + Kv + ") (set-car! " + Sv +
        " " + Kv + ") 'first)) ");
    Kid(0);
    Lit("))))]) (if (eq? (car " + R + ") 'first) ((car " + Sv +
        ") 'second) " + R + ")))");
    break;
  }
  case Prod::LetObs: {
    std::string X = id("x", N.Id);
    Lit("(let ([" + X + " ");
    Kid(0);
    Lit("]) (list " + X + " (fst " + K + ")))");
    break;
  }
  case Prod::IfSplit:
    Lit("(if (even? " + A + ") ");
    Kid(0);
    Lit(" ");
    Kid(1);
    Lit(")");
    break;
  case Prod::Thunk: {
    std::string H = id("h", N.Id);
    Lit("((lambda (" + H + ") (" + H + ")) (lambda () ");
    Kid(0);
    Lit("))");
    break;
  }
  case Prod::NoteSeq:
    Lit("(let ([" + id("ig", N.Id) + " (note 's" + std::to_string(N.Id) +
        ")]) ");
    Kid(0);
    Lit(")");
    break;
  case Prod::Deep:
    Lit("(deep " + A + " (lambda () ");
    Kid(0);
    Lit("))");
    break;
  case Prod::WrappedEsc: {
    std::string E = id("esc", N.Id);
    Lit("(call/cc (lambda (" + E + ") (if (even? " + B + ") (" + E + " ");
    Kid(0);
    Lit(") ");
    Kid(1);
    Lit(")))");
    break;
  }
  case Prod::OneShot: {
    std::string Kv = id("k", N.Id);
    Lit("(call/1cc (lambda (" + Kv + ") (if (even? " + B + ") (" + Kv + " ");
    Kid(0);
    Lit(") ");
    Kid(1);
    Lit(")))");
    break;
  }
  case Prod::DynWind:
    Lit("(dynamic-wind (lambda () (note 'in" + std::to_string(N.Id) +
        ")) (lambda () ");
    Kid(0);
    Lit(") (lambda () (note 'out" + std::to_string(N.Id) + ")))");
    break;
  case Prod::EscThroughWind: {
    std::string E = id("esc", N.Id);
    Lit("(call/cc (lambda (" + E + ") (dynamic-wind (lambda () (note 'in" +
        std::to_string(N.Id) + ")) (lambda () (" + E + " ");
    Kid(0);
    Lit(")) (lambda () (note 'out" + std::to_string(N.Id) + ")))))");
    break;
  }
  case Prod::Prompt: {
    std::string V = id("v", N.Id);
    Lit("(call-with-continuation-prompt (lambda () ");
    Kid(0);
    Lit(") " + Tag + " (lambda (" + V + ") (list 'h" +
        std::to_string(N.Id) + " " + V + ")))");
    break;
  }
  case Prod::AbortToPrompt: {
    std::string V = id("v", N.Id);
    Lit("(call-with-continuation-prompt (lambda () (list ");
    Kid(0);
    Lit(" (abort-current-continuation " + Tag + " ");
    Kid(1);
    Lit("))) " + Tag + " (lambda (" + V + ") (cons 'ab" +
        std::to_string(N.Id) + " " + V + ")))");
    break;
  }
  case Prod::Composable: {
    std::string Kv = id("k", N.Id);
    Lit("(call-with-continuation-prompt (lambda () (cons 'p" +
        std::to_string(N.Id) +
        " (call-with-composable-continuation (lambda (" + Kv + ") (list (" +
        Kv + " ");
    Kid(0);
    Lit(") (" + Kv + " " + B + "))) " + Tag + "))) " + Tag + ")");
    break;
  }
  case Prod::ComposableMarks: {
    // A wcm extent is captured composably and re-entered under a second
    // binding of the same key; the spliced marks must rebase onto the
    // marks at the application point (paper 2.3).
    std::string Kv = id("k", N.Id);
    Lit("(call-with-continuation-prompt (lambda () (with-continuation-mark " +
        K + " " + B + " (car (list (call-with-composable-continuation "
        "(lambda (" + Kv + ") (with-continuation-mark " + K + " " +
        std::to_string(N.B + 11) + " (car (list (" + Kv + " (list (obs " + K +
        ") ");
    Kid(0);
    Lit(")))))) " + Tag + "))))) " + Tag + ")");
    break;
  }
  case Prod::NumEdgeInt: {
    std::string D = std::to_string(N.B % 5 + 1);
    Lit("(list (modulo " + A + " (- 0 " + D + ")) (remainder (- 0 " + A +
        ") " + D + ") (quotient (- 0 " + A + ") " + D + ") ");
    Kid(0);
    Lit(")");
    break;
  }
  case Prod::NumEdgeFlo:
    Lit("(list (/ (+ " + A + " 1) 0.0) (/ (- 0 (+ " + A +
        " 1)) 0.0) (modulo " + A + " -2.5) (< +nan.0 " + A +
        ") (= +nan.0 +nan.0) ");
    Kid(0);
    Lit(")");
    break;
  case Prod::CatchThrow: {
    std::string E = id("e", N.Id);
    Lit("(catch (lambda (" + E + ") (list 'caught" + std::to_string(N.Id) +
        " " + E + " ");
    Kid(0);
    Lit(")) (if (even? " + B + ") (throw " + A + ") ");
    Kid(1);
    Lit("))");
    break;
  }
  case Prod::Param:
    Lit("(parameterize ([p1 " + A + "]) (list (p1) ");
    Kid(0);
    Lit("))");
    break;
  case Prod::Generator: {
    std::string G = id("g", N.Id), Y = id("y", N.Id);
    Lit("(let ([" + G + " (make-generator (lambda (" + Y + ") (" + Y + " ");
    Kid(0);
    Lit(") (" + Y + " " + A + ") " + B + "))]) (list (" + G + ") (" + G +
        ") (" + G + ")))");
    break;
  }
  case Prod::FiberJoin:
    Lit("(fiber-join (spawn (lambda () ");
    Kid(0);
    Lit(")))");
    break;
  case Prod::FiberPair: {
    // Deterministic interleave: FIFO run queue, spawn order fixed, one
    // yield each. The note trail lands in (log-out), so scheduling-order
    // differences between legs show up as a divergence.
    std::string FA = id("fa", N.Id), FB = id("fb", N.Id);
    std::string Id = std::to_string(N.Id);
    Lit("(let ([" + FA + " (spawn (lambda () (note 'a" + Id +
        ") (yield) ");
    Kid(0);
    Lit("))] [" + FB + " (spawn (lambda () (note 'b" + Id + ") (yield) ");
    Kid(1);
    Lit("))]) (list (fiber-join " + FA + ") (fiber-join " + FB + ")))");
    break;
  }
  case Prod::FiberChannel: {
    // Capacity 0 (rendezvous) or 1: the consumer (the root fiber) parks
    // as a getter, the producer fiber runs, puts, and hands the value
    // over; the producer's trailing note runs before it retires.
    std::string Ch = id("ch", N.Id);
    Lit("(let ([" + Ch + " (make-channel " + std::to_string(N.B % 2) +
        ")]) (spawn (lambda () (channel-put " + Ch + " ");
    Kid(0);
    Lit(") (note 'put" + std::to_string(N.Id) + "))) (channel-get " + Ch +
        "))");
    break;
  }
  case Prod::FiberMarks: {
    // The spawner's mark must be invisible inside the fiber, and the
    // fiber's own mark must survive a park/resume cycle (the yield).
    Lit("(with-continuation-mark " + K + " " + A +
        " (fiber-join (spawn (lambda () (with-continuation-mark " + K + " " +
        B + " (car (list (begin (yield) (list (fst " + K + ") (obs " + K +
        ") ");
    Kid(0);
    Lit(")))))))))");
    break;
  }
  }
}

/// Production pools, weighted by repetition. The bias follows the issue:
/// wcm in tail/non-tail position, captures crossing dynamic-wind, prompts
/// and composable continuations, mark observation, numeric edges.
const Prod OraclePool[] = {
    Prod::WcmTail,    Prod::WcmTail,     Prod::WcmNonTail, Prod::WcmNonTail,
    Prod::WcmChain,   Prod::WcmChain,    Prod::ObsList,    Prod::FirstCons,
    Prod::AttachSet,  Prod::AttachSet,   Prod::AttachGet,  Prod::AttachConsume,
    Prod::EscUnused,  Prod::EscUsed,     Prod::EscUsed,    Prod::ReEntry,
    Prod::LetObs,     Prod::IfSplit,     Prod::Thunk,      Prod::NoteSeq,
    Prod::Deep,       Prod::Deep};

const Prod FullExtraPool[] = {
    Prod::WrappedEsc, Prod::WrappedEsc,     Prod::OneShot,
    Prod::OneShot,    Prod::DynWind,        Prod::DynWind,
    Prod::EscThroughWind, Prod::EscThroughWind,
    Prod::Prompt,     Prod::Prompt,         Prod::AbortToPrompt,
    Prod::AbortToPrompt,  Prod::Composable, Prod::ComposableMarks,
    Prod::ComposableMarks, Prod::NumEdgeInt, Prod::NumEdgeFlo,
    Prod::CatchThrow, Prod::CatchThrow,     Prod::Param,
    Prod::Generator};

/// Fiber productions (this PR's focus) get their own pool so a leg set
/// that cannot run fibers (mark-stack) can exclude them wholesale.
const Prod FiberPool[] = {Prod::FiberJoin, Prod::FiberJoin, Prod::FiberPair,
                          Prod::FiberPair, Prod::FiberChannel,
                          Prod::FiberChannel, Prod::FiberMarks,
                          Prod::FiberMarks};

int kidCount(Prod P) {
  switch (P) {
  case Prod::Num:
  case Prod::FloLeaf:
  case Prod::SymLeaf:
  case Prod::FstLeaf:
  case Prod::ObsLeaf:
  case Prod::AttLeaf:
    return 0;
  case Prod::IfSplit:
  case Prod::WrappedEsc:
  case Prod::OneShot:
  case Prod::AbortToPrompt:
  case Prod::CatchThrow:
  case Prod::FiberPair:
    return 2;
  default:
    return 1;
  }
}

const char *OraclePreamble =
    "(define log-cell (cons '() '()))"
    "(define (note x) (set-car! log-cell (cons x (car log-cell))))"
    "(define (log-out) (reverse (car log-cell)))"
    "(define (obs k)"
    "  (continuation-mark-set->list (current-continuation-marks) k))"
    "(define (fst k) (continuation-mark-set-first #f k 'none))"
    "(define (deep n th)"
    "  (if (zero? n) (th) (cons n (deep (- n 1) th))))";

const char *FullPreamble =
    "(define tag-a (make-continuation-prompt-tag 'tag-a))"
    "(define tag-b (make-continuation-prompt-tag 'tag-b))"
    "(define p1 (make-parameter 'p1-default))";

} // namespace

// --- ProgramGen -------------------------------------------------------------

ProgramGen::ProgramGen(uint64_t CampaignSeed, Options O)
    : Master(CampaignSeed), Opts(O) {}

std::unique_ptr<GenNode> ProgramGen::leaf(Rng &R, bool OracleSafe) {
  auto N = std::make_unique<GenNode>();
  N->Id = ++NextId;
  switch (R.nextBelow(OracleSafe ? 8 : 9)) {
  case 0:
  case 1:
  case 2:
    N->P = Prod::Num;
    N->A = static_cast<int>(R.nextBelow(41));
    break;
  case 3:
  case 4:
    N->P = Prod::FstLeaf;
    N->A = static_cast<int>(R.nextBelow(3));
    break;
  case 5:
    N->P = Prod::ObsLeaf;
    N->A = static_cast<int>(R.nextBelow(3));
    break;
  case 6:
    N->P = Prod::AttLeaf;
    break;
  case 7:
    N->P = Prod::SymLeaf;
    break;
  default:
    N->P = Prod::FloLeaf;
    N->A = static_cast<int>(R.nextBelow(6));
    break;
  }
  return N;
}

std::unique_ptr<GenNode> ProgramGen::gen(Rng &R, int Depth, bool OracleSafe) {
  if (Depth <= 0)
    return leaf(R, OracleSafe);

  size_t NOracle = sizeof(OraclePool) / sizeof(OraclePool[0]);
  size_t NExtra = sizeof(FullExtraPool) / sizeof(FullExtraPool[0]);
  size_t NFiber =
      (OracleSafe || !Opts.EnableFibers) ? 0
                                         : sizeof(FiberPool) / sizeof(Prod);
  size_t PoolSize = OracleSafe ? NOracle : NOracle + NExtra + NFiber;
  size_t Pick = R.nextBelow(PoolSize);
  Prod P = Pick < NOracle            ? OraclePool[Pick]
           : Pick < NOracle + NExtra ? FullExtraPool[Pick - NOracle]
                                     : FiberPool[Pick - NOracle - NExtra];

  auto N = std::make_unique<GenNode>();
  N->P = P;
  N->Id = ++NextId;
  N->A = static_cast<int>(R.nextBelow(24));
  N->B = static_cast<int>(R.nextBelow(24));
  if (P == Prod::Deep || P == Prod::EscUsed)
    N->A = 1 + static_cast<int>(R.nextBelow(12));
  for (int I = 0; I < kidCount(P); ++I)
    N->Kids.push_back(gen(R, Depth - 1, OracleSafe));
  return N;
}

FuzzProgram ProgramGen::next() {
  FuzzProgram P;
  P.Index = Index++;
  P.Seed = Master.next();
  Rng R(P.Seed);
  P.OracleSafe = R.nextBelow(100) < Opts.OracleSafePercent;

  std::unique_ptr<GenNode> E1 = gen(R, Opts.Depth, P.OracleSafe);
  std::unique_ptr<GenNode> E2 = gen(R, Opts.Depth - 1, P.OracleSafe);
  P.Source = render(*E1, *E2, P.OracleSafe);

  // Stash both roots under one synthetic parent so the shrinker can
  // address the whole program as a single tree.
  P.Root = std::make_unique<GenNode>();
  P.Root->P = Prod::IfSplit; // Placeholder; the root is never rendered.
  P.Root->Kids.push_back(std::move(E1));
  P.Root->Kids.push_back(std::move(E2));
  return P;
}

std::string ProgramGen::render(const GenNode &E1, const GenNode &E2,
                               bool OracleSafe) {
  std::string S = OraclePreamble;
  if (!OracleSafe)
    S += FullPreamble;
  S += "(list ";
  renderNode(E1, S);
  S += " ";
  renderNode(E2, S);
  S += " (log-out))";
  return S;
}

// --- Engine matrix ----------------------------------------------------------

namespace {

FuzzLeg makeLeg(const std::string &Name) {
  FuzzLeg L;
  L.Name = Name;
  if (Name == "oracle") {
    L.IsOracle = true;
    return L;
  }
  if (Name == "fused")
    return L; // Builtin defaults: peephole on.
  if (Name == "unfused") {
    L.Opts.CompilerOpts.EnablePeephole = false;
    return L;
  }
  if (Name == "no-opt") {
    L.Opts = EngineOptions::forVariant(EngineVariant::NoOpt);
    return L;
  }
  if (Name == "no-1cc") {
    L.Opts = EngineOptions::forVariant(EngineVariant::No1cc);
    return L;
  }
  if (Name == "heap-frames") {
    L.Opts = EngineOptions::forVariant(EngineVariant::HeapFrames);
    return L;
  }
  if (Name == "copy-on-capture") {
    L.Opts = EngineOptions::forVariant(EngineVariant::CopyOnCapture);
    return L;
  }
  if (Name == "mark-stack") {
    L.Opts = EngineOptions::forVariant(EngineVariant::MarkStack);
    return L;
  }
  if (Name == "no-recycle") {
    // Differential leg for the segment pool: identical semantics with the
    // recycling allocator disabled (every segment freshly allocated).
    L.Opts.VmCfg.EnableSegmentRecycling = false;
    return L;
  }
  L.Name.clear();
  return L;
}

} // namespace

bool cmk::fuzz::legByName(const std::string &Name, FuzzLeg &Out) {
  Out = makeLeg(Name);
  return !Out.Name.empty();
}

std::vector<FuzzLeg> cmk::fuzz::defaultLegs(bool IncludeOracle) {
  std::vector<FuzzLeg> Legs;
  for (const char *N : {"fused", "unfused", "no-opt", "no-1cc", "heap-frames",
                        "copy-on-capture", "no-recycle"})
    Legs.push_back(makeLeg(N));
  if (IncludeOracle)
    Legs.push_back(makeLeg("oracle"));
  return Legs;
}

// --- Invariants -------------------------------------------------------------

std::string cmk::fuzz::checkStatsInvariants(const VMStats &S,
                                            const EngineOptions &Opts) {
  auto Fail = [](const std::string &Msg) { return "stats invariant: " + Msg; };
  if (S.MarkFirstCacheHits + S.MarkFirstCacheMisses > S.MarkFirstLookups)
    return Fail("cache hits + misses exceed mark-first lookups");
  if (S.SegmentAllocs > 0 && S.SegmentSlotsAllocated < S.SegmentAllocs)
    return Fail("segments allocated with fewer total slots than segments");
  if (!Opts.VmCfg.EnableSegmentRecycling && S.SegmentRecycles != 0)
    return Fail("segments recycled with recycling disabled");
  if (S.LimitHeapTrips != 0 || S.LimitStackTrips != 0)
    return Fail("heap/stack limit trips fired with no such budget armed");
  if (S.FaultsInjected != 0)
    return Fail("faults injected on a leg with no fault schedule");
  if (!Opts.VmCfg.EnableOneShots && S.UnderflowFusions != 0)
    return Fail("underflow fusions counted with one-shots disabled");
  return "";
}

// --- Harness ----------------------------------------------------------------

FuzzHarness::FuzzHarness(std::vector<FuzzLeg> Legs, HarnessOptions O)
    : Legs(std::move(Legs)), Opts(O) {}

namespace {

/// Runs \p Src on the section 4 heap model via the engine's expander (no
/// optimization passes), mirroring tests/test_heap_model.cpp.
std::string runOracleSource(SchemeEngine &E, const std::string &Src,
                            uint64_t StepLimit, bool &OkOut) {
  std::vector<Value> Forms = readAllFromString(E.heap(), Src);
  Value Program;
  {
    GCPauseScope Pause(E.heap());
    Value Acc = Value::nil();
    for (size_t I = Forms.size(); I > 0; --I)
      Acc = E.heap().makePair(Forms[I - 1], Acc);
    Program = E.heap().makePair(E.heap().intern("begin"), Acc);
  }
  GCRoot ProgramRoot(E.heap(), Program);

  // The AST holds values (gensym'd names among them) the collector cannot
  // see, so nothing may be collected until the model has run.
  GCPauseScope Pause(E.heap());
  AstContext Ctx;
  Expander Exp(E.heap(), E.vm().wellKnown(), Ctx, E.compiler());
  LambdaNode *Toplevel = Exp.expandToplevel(ProgramRoot.get());
  if (!Toplevel) {
    OkOut = false;
    return "expand error: " + Exp.error();
  }
  ModelResult R = runHeapModel(E.heap(), Toplevel, StepLimit);
  OkOut = R.Ok;
  return R.Ok ? writeToString(R.V) : R.Error;
}

} // namespace

LegOutcome FuzzHarness::runLeg(const FuzzLeg &Leg, const std::string &Source) {
  LegOutcome Out;
  if (ActiveStats)
    ActiveStats->LegRuns++;

  if (Leg.IsOracle) {
    SchemeEngine E; // Hosts the heap and expander for the model run.
    bool Ok = false;
    std::string R = runOracleSource(E, Source, Opts.OracleStepLimit, Ok);
    if (Ok) {
      Out.Class = OutcomeClass::Value;
      Out.Repr = R;
    } else if (R.find("step limit") != std::string::npos) {
      Out.Class = OutcomeClass::LimitTrip;
      Out.Repr = R;
    } else {
      Out.Class = OutcomeClass::Error;
      Out.Repr = R;
    }
    return Out;
  }

  EngineOptions EO = Leg.Opts;
  EO.VmCfg.Limits.TimeoutMs = Opts.TimeoutMs;
  SchemeEngine E(EO);
  // The leg's own schedule replaces whatever CMARKS_FAULT_SPEC armed at
  // construction; an empty spec disarms every site, so the unfaulted legs
  // keep checkStatsInvariants' "no injections" meaning under a sweep.
  std::string Err;
  if (!E.faults().configureFromSpec(Leg.FaultSpec, &Err)) {
    Out.Class = OutcomeClass::Error;
    Out.Repr = "bad fault spec: " + Err;
    return Out;
  }
  E.resetStats();
  // Optional sampling soak: the profiler must be invisible to the
  // differential comparison (same results, same counters).
  if (Opts.ProfileHz)
    E.startProfiler(Opts.ProfileHz);
  std::string Src = Leg.MutateSource ? Leg.MutateSource(Source) : Source;
  std::string R = E.evalToString(Src);
  Out.Counters = E.stats();
  if (E.ok()) {
    Out.Class = OutcomeClass::Value;
    Out.Repr = R;
  } else {
    Out.Kind = E.lastErrorKind();
    bool IsLimit = Out.Kind == ErrorKind::HeapLimit ||
                   Out.Kind == ErrorKind::StackLimit ||
                   Out.Kind == ErrorKind::Timeout ||
                   Out.Kind == ErrorKind::Interrupt;
    Out.Class = IsLimit ? OutcomeClass::LimitTrip : OutcomeClass::Error;
    Out.Repr = E.lastError();
  }
  return Out;
}

bool FuzzHarness::compareOutcomes(const std::string &Source, bool OracleSafe,
                                  Divergence *Div) {
  // The reference leg is the first plain VM leg (no faults, no mutation).
  int RefIdx = -1;
  std::vector<int> RunIdx;
  std::vector<LegOutcome> Outs;
  for (size_t I = 0; I < Legs.size(); ++I) {
    const FuzzLeg &L = Legs[I];
    if (L.IsOracle && !OracleSafe)
      continue; // Outside the model's supported subset.
    Outs.push_back(runLeg(L, Source));
    RunIdx.push_back(static_cast<int>(I));
    if (RefIdx < 0 && !L.IsOracle && L.FaultSpec.empty() && !L.MutateSource)
      RefIdx = static_cast<int>(Outs.size()) - 1;
  }
  if (RefIdx < 0)
    return true; // No reference leg configured; nothing to compare against.

  // A limit trip on any leg means the backstop fired: skip the program
  // rather than compare partial executions.
  for (const LegOutcome &O : Outs)
    if (O.Class == OutcomeClass::LimitTrip) {
      if (ActiveStats)
        ActiveStats->Skipped++;
      return true;
    }

  const LegOutcome &Ref = Outs[RefIdx];
  auto Mismatch = [&](int I, const std::string &Detail) {
    if (Div) {
      Div->LegA = Legs[RunIdx[RefIdx]].Name;
      Div->LegB = Legs[RunIdx[I]].Name;
      Div->ReprA = Ref.Repr;
      Div->ReprB = Outs[I].Repr;
      Div->Detail = Detail;
      Div->Source = Source;
    }
    return false;
  };

  for (size_t I = 0; I < Outs.size(); ++I) {
    const FuzzLeg &L = Legs[RunIdx[I]];
    const LegOutcome &O = Outs[I];
    if (static_cast<int>(I) == RefIdx)
      continue;
    if (L.IsOracle) {
      // The model's error texts differ from the VM's; compare values and
      // ok-ness only.
      if (O.Class != Ref.Class)
        return Mismatch(static_cast<int>(I), "oracle ok-ness differs");
      if (O.Class == OutcomeClass::Value && O.Repr != Ref.Repr)
        return Mismatch(static_cast<int>(I), "oracle value differs");
      continue;
    }
    if (!L.FaultSpec.empty() && !L.FaultPreserving) {
      // Failing schedules legally change the outcome; only require a
      // clean classification (value, error, or limit -- no crash).
      continue;
    }
    if (O.Class != Ref.Class)
      return Mismatch(static_cast<int>(I), "outcome class differs");
    if (O.Repr != Ref.Repr)
      return Mismatch(static_cast<int>(I),
                      O.Class == OutcomeClass::Value ? "value differs"
                                                    : "error text differs");
  }

  if (InShrink)
    return true;

  // Counter invariants on plain VM legs.
  if (Opts.CheckInvariants) {
    for (size_t I = 0; I < Outs.size(); ++I) {
      const FuzzLeg &L = Legs[RunIdx[I]];
      if (L.IsOracle || !L.FaultSpec.empty() || L.MutateSource)
        continue;
      std::string V = checkStatsInvariants(Outs[I].Counters, L.Opts);
      if (!V.empty()) {
        if (Div) {
          Div->LegA = L.Name;
          Div->Detail = V;
          Div->Source = Source;
        }
        return false;
      }
    }
  }

  // Determinism: the reference leg re-run must agree on the result and on
  // every counter (all counting is site-driven, not time-driven).
  if (Opts.CheckDeterminism) {
    LegOutcome Again = runLeg(Legs[RunIdx[RefIdx]], Source);
    if (Again.Class != Ref.Class || Again.Repr != Ref.Repr) {
      if (Div) {
        Div->LegA = Legs[RunIdx[RefIdx]].Name;
        Div->Detail = "non-deterministic result on identical re-run";
        Div->ReprA = Ref.Repr;
        Div->ReprB = Again.Repr;
        Div->Source = Source;
      }
      return false;
    }
    int N = 0;
    const StatsCounterDesc *Table = statsCounters(N);
    for (int C = 0; C < N; ++C) {
      uint64_t VMStats::*F = Table[C].Field;
      if (Ref.Counters.*F != Again.Counters.*F) {
        if (Div) {
          Div->LegA = Legs[RunIdx[RefIdx]].Name;
          Div->Detail = std::string("non-deterministic counter '") +
                        Table[C].Name + "' on identical re-run";
          Div->ReprA = std::to_string(Ref.Counters.*F);
          Div->ReprB = std::to_string(Again.Counters.*F);
          Div->Source = Source;
        }
        return false;
      }
    }
  }
  return true;
}

bool FuzzHarness::sourcesDiverge(const std::string &Source, bool OracleSafe) {
  InShrink = true;
  bool Agree = compareOutcomes(Source, OracleSafe, nullptr);
  InShrink = false;
  return !Agree;
}

namespace {

/// Pre-order node collection; index 0 is the root.
void collectNodes(GenNode *N, std::vector<GenNode *> &Out) {
  Out.push_back(N);
  for (auto &K : N->Kids)
    collectNodes(K.get(), Out);
}

} // namespace

void FuzzHarness::shrink(const FuzzProgram &P, Divergence &Div) {
  if (!P.Root || P.Root->Kids.size() != 2)
    return;
  std::unique_ptr<GenNode> Cur = P.Root->clone();
  int Budget = Opts.ShrinkBudget;
  int Evals = 0;

  bool Progress = true;
  while (Progress && Budget > 0) {
    Progress = false;
    std::vector<GenNode *> Nodes;
    collectNodes(Cur.get(), Nodes);
    // Skip the synthetic root (index 0); try bigger nodes first, which
    // pre-order naturally approximates.
    for (size_t I = 1; I < Nodes.size() && !Progress && Budget > 0; ++I) {
      GenNode *Target = Nodes[I];
      std::vector<std::unique_ptr<GenNode>> Candidates;
      for (const auto &K : Target->Kids)
        Candidates.push_back(K->clone());
      if (Target->P != Prod::Num) {
        auto One = std::make_unique<GenNode>();
        One->P = Prod::Num;
        One->A = 1;
        Candidates.push_back(std::move(One));
      }
      for (auto &Cand : Candidates) {
        if (Budget <= 0)
          break;
        std::unique_ptr<GenNode> Trial = Cur->clone();
        std::vector<GenNode *> TrialNodes;
        collectNodes(Trial.get(), TrialNodes);
        *TrialNodes[I] = std::move(*Cand);
        std::string Src = ProgramGen::render(*Trial->Kids[0], *Trial->Kids[1],
                                             P.OracleSafe);
        --Budget;
        ++Evals;
        if (sourcesDiverge(Src, P.OracleSafe)) {
          Cur = std::move(Trial);
          Progress = true;
          break;
        }
      }
    }
  }

  std::string Shrunk =
      ProgramGen::render(*Cur->Kids[0], *Cur->Kids[1], P.OracleSafe);
  if (Shrunk.size() < Div.Source.size()) {
    // Re-derive the divergence details against the shrunk program so the
    // repro file reports what the minimal case actually produces.
    Divergence Re;
    InShrink = true;
    bool Agree = compareOutcomes(Shrunk, P.OracleSafe, &Re);
    InShrink = false;
    if (!Agree) {
      Div.LegA = Re.LegA;
      Div.LegB = Re.LegB;
      Div.ReprA = Re.ReprA;
      Div.ReprB = Re.ReprB;
      Div.Detail = Re.Detail;
      Div.Source = Shrunk;
    }
  }
  Div.ShrinkEvals = Evals;
}

void FuzzHarness::writeRepro(const FuzzProgram &P, Divergence &Div) {
  if (Opts.ReproDir.empty())
    return;
  std::error_code Ec;
  std::filesystem::create_directories(Opts.ReproDir, Ec);
  std::string Path = Opts.ReproDir + "/repro-s" + std::to_string(P.Seed) +
                     "-i" + std::to_string(P.Index) + ".scm";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return;
  std::fprintf(F, ";; cmarks-fuzz-repro-v1\n");
  std::fprintf(F, ";; seed: %llu index: %d oracle-safe: %s\n",
               static_cast<unsigned long long>(P.Seed), P.Index,
               P.OracleSafe ? "yes" : "no");
  std::fprintf(F, ";; diverged: %s vs %s\n", Div.LegA.c_str(),
               Div.LegB.c_str());
  std::fprintf(F, ";;   %s => %s\n", Div.LegA.c_str(), Div.ReprA.c_str());
  std::fprintf(F, ";;   %s => %s\n", Div.LegB.c_str(), Div.ReprB.c_str());
  if (!Div.Detail.empty())
    std::fprintf(F, ";; detail: %s\n", Div.Detail.c_str());
  std::fprintf(F, ";; original-chars: %zu shrunk-chars: %zu shrink-evals: %d\n",
               Div.OriginalSource.size(), Div.Source.size(), Div.ShrinkEvals);
  std::fprintf(F, "%s\n", Div.Source.c_str());
  std::fclose(F);
  Div.ReproPath = Path;
}

bool FuzzHarness::checkProgram(const FuzzProgram &P, Divergence *Div) {
  Divergence Local;
  if (compareOutcomes(P.Source, P.OracleSafe, &Local))
    return true;
  Local.Seed = P.Seed;
  Local.Index = P.Index;
  Local.OriginalSource = P.Source;
  if (Local.Source.empty())
    Local.Source = P.Source;
  shrink(P, Local);
  writeRepro(P, Local);
  if (Div)
    *Div = Local;
  return false;
}

bool FuzzHarness::runCampaign(uint64_t Seed, long Count,
                              ProgramGen::Options GenOpts,
                              CampaignStats &Stats,
                              std::vector<Divergence> &Divs,
                              double TimeBudgetSec, bool StopOnFirst,
                              bool Verbose) {
  ProgramGen Gen(Seed, GenOpts);
  ActiveStats = &Stats;
  uint64_t T0 = nowNanos();
  bool HaveOracle = false;
  for (const FuzzLeg &L : Legs)
    HaveOracle = HaveOracle || L.IsOracle;

  for (long I = 0; Count <= 0 || I < Count; ++I) {
    if (TimeBudgetSec > 0 &&
        static_cast<double>(nowNanos() - T0) / 1e9 >= TimeBudgetSec)
      break;
    if (Count <= 0 && TimeBudgetSec <= 0)
      break; // Refuse an unbounded campaign.
    FuzzProgram P = Gen.next();
    Stats.Programs++;
    if (P.OracleSafe && HaveOracle)
      Stats.OracleChecked++;
    Divergence D;
    if (!checkProgram(P, &D)) {
      Stats.Divergences++;
      Divs.push_back(std::move(D));
      if (StopOnFirst)
        break;
    }
    if (Verbose && (I + 1) % 50 == 0)
      std::fprintf(stderr, "fuzz: %ld programs, %ld leg runs, %ld skipped, "
                           "%ld divergences\n",
                   Stats.Programs, Stats.LegRuns, Stats.Skipped,
                   Stats.Divergences);
  }
  ActiveStats = nullptr;
  return Divs.empty();
}

bool FuzzHarness::reproduce(const std::string &Source, Divergence *Div) {
  // Strip the repro header (";;"-prefixed lines) and recover the
  // oracle-safe flag it records.
  bool OracleSafe = Source.find(";; seed:") != std::string::npos &&
                    Source.find("oracle-safe: yes") != std::string::npos;
  std::string Body;
  std::istringstream In(Source);
  std::string Line;
  while (std::getline(In, Line)) {
    size_t NonWs = Line.find_first_not_of(" \t");
    if (NonWs != std::string::npos && Line[NonWs] == ';')
      continue;
    Body += Line;
    Body += "\n";
  }
  Divergence Local;
  if (compareOutcomes(Body, OracleSafe, &Local))
    return true;
  Local.Source = Body;
  Local.OriginalSource = Body;
  if (Div)
    *Div = Local;
  return false;
}
