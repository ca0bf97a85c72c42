//===- tests/test_peephole.cpp - Superinstruction fusion pass --*- C++ -*-===//
///
/// \file
/// The bytecode peephole pass (compiler/peephole.cpp): direct unit tests
/// on hand-assembled bytecode (fusion patterns, jump-target barriers,
/// offset remapping, mark-extent elision), disassembly of every fused
/// opcode, observational equivalence of fused vs. unfused code against
/// both an unfused engine and the section 4 heap-model oracle, and the
/// safe-point accounting the hoisted fuel checks rely on.
///
//===----------------------------------------------------------------------===//

#include "test_helpers.h"

#include "compiler/bytecode.h"
#include "compiler/compiler.h"
#include "compiler/expand.h"
#include "model/heap_model.h"
#include "runtime/printer.h"

#include <chrono>
#include <thread>

using namespace cmk;

namespace {

// --------------------------------------------------- hand-assembly helpers --

void op0(std::vector<uint8_t> &B, Op O) { B.push_back(static_cast<uint8_t>(O)); }

void op16(std::vector<uint8_t> &B, Op O, uint16_t A) {
  op0(B, O);
  B.push_back(static_cast<uint8_t>(A & 0xff));
  B.push_back(static_cast<uint8_t>(A >> 8));
}

void opJump(std::vector<uint8_t> &B, Op O, uint32_t T) {
  op0(B, O);
  for (int I = 0; I < 4; ++I)
    B.push_back(static_cast<uint8_t>((T >> (8 * I)) & 0xff));
}

Op opAt(const std::vector<uint8_t> &B, size_t Off) {
  return static_cast<Op>(B.at(Off));
}

// -------------------------------------------------------- fusion patterns ---

TEST(Peephole, FusesLocalLocalPair) {
  std::vector<uint8_t> In;
  op16(In, Op::PushLocal, 0);
  op16(In, Op::PushLocal, 1);
  op0(In, Op::Halt);

  PeepholeStats S;
  std::vector<uint8_t> Out = runPeephole(In, &S);
  EXPECT_EQ(S.PairsFused, 1);
  ASSERT_EQ(Out.size(), 6u); // LocalLocal (5 bytes) + Halt.
  EXPECT_EQ(opAt(Out, 0), Op::LocalLocal);
  EXPECT_EQ(readU16(Out.data() + 1), 0);
  EXPECT_EQ(readU16(Out.data() + 3), 1);
  EXPECT_EQ(opAt(Out, 5), Op::Halt);
}

TEST(Peephole, FusesLocalPrim) {
  std::vector<uint8_t> In;
  op16(In, Op::PushLocal, 2);
  op0(In, Op::Car);
  op0(In, Op::Halt);

  PeepholeStats S;
  std::vector<uint8_t> Out = runPeephole(In, &S);
  EXPECT_EQ(S.PairsFused, 1);
  ASSERT_EQ(Out.size(), 5u); // LocalPrim (4 bytes) + Halt.
  EXPECT_EQ(opAt(Out, 0), Op::LocalPrim);
  EXPECT_EQ(readU16(Out.data() + 1), 2);
  EXPECT_EQ(opAt(Out, 3), Op::Car);
}

TEST(Peephole, FusesAddLocalConstTriple) {
  std::vector<uint8_t> In;
  op16(In, Op::PushLocal, 0);
  op16(In, Op::PushConst, 7);
  op0(In, Op::Add);
  op0(In, Op::Halt);

  PeepholeStats S;
  std::vector<uint8_t> Out = runPeephole(In, &S);
  EXPECT_EQ(S.PairsFused, 1);
  ASSERT_EQ(Out.size(), 6u); // AddLocalConst (5 bytes) + Halt.
  EXPECT_EQ(opAt(Out, 0), Op::AddLocalConst);
  EXPECT_EQ(readU16(Out.data() + 1), 0);
  EXPECT_EQ(readU16(Out.data() + 3), 7);
}

TEST(Peephole, JumpTargetBlocksFusion) {
  // The second PushLocal is a jump target: the pair must not fuse, or
  // the jump would land mid-superinstruction.
  std::vector<uint8_t> In;
  opJump(In, Op::Jump, 8);
  op16(In, Op::PushLocal, 0); // Offset 5.
  op16(In, Op::PushLocal, 1); // Offset 8: jump target.
  op0(In, Op::Halt);

  PeepholeStats S;
  std::vector<uint8_t> Out = runPeephole(In, &S);
  EXPECT_EQ(S.PairsFused, 0);
  EXPECT_EQ(Out, In);
}

TEST(Peephole, RemapsJumpsPastFusedCode) {
  std::vector<uint8_t> In;
  op16(In, Op::PushLocal, 0);           // 0
  opJump(In, Op::JumpIfFalse, 14);      // 3, forward over the pair below.
  op16(In, Op::PushLocal, 0);           // 8
  op16(In, Op::PushLocal, 1);           // 11
  op0(In, Op::Halt);                    // 14

  PeepholeStats S;
  std::vector<uint8_t> Out = runPeephole(In, &S);
  EXPECT_EQ(S.PairsFused, 1);
  ASSERT_EQ(Out.size(), 14u);
  EXPECT_EQ(opAt(Out, 3), Op::JumpIfFalse);
  EXPECT_EQ(readU32(Out.data() + 4), 13u); // Halt moved from 14 to 13.
  EXPECT_EQ(opAt(Out, 13), Op::Halt);
}

TEST(Peephole, ElidesCallFreeMarkExtent) {
  // MarksPush ... MarksPop with only pure ops in between: the pair
  // becomes the elided forms and the cons is gone (paper 7.2 (c)).
  std::vector<uint8_t> In;
  op16(In, Op::PushConst, 0);
  op0(In, Op::MarksPush);
  op16(In, Op::PushConst, 1);
  op0(In, Op::MarksPop);
  op0(In, Op::Halt);

  PeepholeStats S;
  std::vector<uint8_t> Out = runPeephole(In, &S);
  EXPECT_EQ(S.MarkExtentsElided, 1);
  EXPECT_EQ(opAt(Out, 3), Op::MarksEnterElided);
  EXPECT_EQ(opAt(Out, 7), Op::MarksExitElided);
}

TEST(Peephole, NoElisionAcrossCall) {
  // A call inside the extent can observe the mark (capture, lookup, GC):
  // the extent must keep the real MarksPush/MarksPop.
  std::vector<uint8_t> In;
  op16(In, Op::PushConst, 0);
  op0(In, Op::MarksPush);
  op0(In, Op::Frame);
  op16(In, Op::PushGlobal, 1);
  op16(In, Op::Call, 0);
  op0(In, Op::MarksPop);
  op0(In, Op::Halt);

  PeepholeStats S;
  std::vector<uint8_t> Out = runPeephole(In, &S);
  EXPECT_EQ(S.MarkExtentsElided, 0);
  EXPECT_EQ(opAt(Out, 3), Op::MarksPush);
}

TEST(Peephole, NoElisionAcrossAttachmentOps) {
  // Category (a)/(b) attachment instructions are never inside an elided
  // extent either; Reify stands in for the whole family here.
  std::vector<uint8_t> In;
  op16(In, Op::PushConst, 0);
  op0(In, Op::MarksPush);
  op0(In, Op::Reify);
  op0(In, Op::MarksPop);
  op0(In, Op::Halt);

  PeepholeStats S;
  std::vector<uint8_t> Out = runPeephole(In, &S);
  EXPECT_EQ(S.MarkExtentsElided, 0);
  EXPECT_EQ(opAt(Out, 3), Op::MarksPush);
}

// --------------------------------------------------- disassembly coverage ---

class PeepholeDisasm : public ::testing::Test {
protected:
  std::string disasm(const std::string &Src) {
    Value Form = readOne(E, Src);
    std::string Err;
    Value Code = E.compiler().compileToplevel(Form, &Err);
    EXPECT_TRUE(Err.empty()) << Err;
    return Err.empty() ? Compiler::disassemble(Code) : "";
  }

  bool contains(const std::string &Hay, const std::string &Needle) {
    return Hay.find(Needle) != std::string::npos;
  }

  SchemeEngine E;
};

TEST_F(PeepholeDisasm, AddLocalConst) {
  std::string D = disasm("(define (f n) (+ n 1))");
  EXPECT_TRUE(contains(D, "add-local-const")) << D;
}

TEST_F(PeepholeDisasm, SubLocalConst) {
  std::string D = disasm("(define (f n) (- n 1))");
  EXPECT_TRUE(contains(D, "sub-local-const")) << D;
}

TEST_F(PeepholeDisasm, LocalLocal) {
  std::string D = disasm("(define (f a b) (cons a b))");
  EXPECT_TRUE(contains(D, "push-local2")) << D;
}

TEST_F(PeepholeDisasm, LocalConst) {
  std::string D = disasm("(define (f v) (vector-ref v 3))");
  EXPECT_TRUE(contains(D, "push-local-const")) << D;
}

TEST_F(PeepholeDisasm, LocalPrimPrintsEmbeddedPrim) {
  std::string D = disasm("(define (f p) (car p))");
  EXPECT_TRUE(contains(D, "push-local-prim")) << D;
  EXPECT_TRUE(contains(D, "car")) << D;
}

TEST_F(PeepholeDisasm, ConstCall) {
  std::string D = disasm("(define (f) (+ 1 (g 2)))");
  EXPECT_TRUE(contains(D, "push-const-call")) << D;
}

TEST_F(PeepholeDisasm, JumpIfLocalNonzero) {
  std::string D = disasm("(define (f n) (if (zero? n) 1 2))");
  EXPECT_TRUE(contains(D, "jump-if-local-nonzero")) << D;
}

TEST_F(PeepholeDisasm, ElidedMarkExtent) {
  std::string D =
      disasm("(define (f x) (+ 1 (with-continuation-mark 'k x (+ x 1))))");
  EXPECT_TRUE(contains(D, "marks-push-elided")) << D;
  EXPECT_TRUE(contains(D, "marks-pop-elided")) << D;
}

// Fusion must never disturb category (a)/(b) attachment code (reify /
// call-attach); only the category (c) push/pop extents are rewritten.
TEST_F(PeepholeDisasm, TailAttachmentStillReifies) {
  std::string D = disasm("(define (f g) (call-setting-continuation-attachment"
                         " 'v (lambda () (g))))");
  EXPECT_TRUE(contains(D, "reify")) << D;
  EXPECT_FALSE(contains(D, "-elided")) << D;
}

TEST_F(PeepholeDisasm, NonTailWithCallStillUsesCallAttach) {
  std::string D =
      disasm("(define (f g) (+ 1 (call-setting-continuation-attachment"
             " 'v (lambda () (g)))))");
  EXPECT_TRUE(contains(D, "call-attach")) << D;
  EXPECT_FALSE(contains(D, "-elided")) << D;
}

// ------------------------------------------- fused vs unfused equivalence ---

class PeepholeEquiv : public ::testing::Test {
protected:
  PeepholeEquiv() : Fused(), Unfused(unfusedOpts()) {}

  static EngineOptions unfusedOpts() {
    EngineOptions Opts;
    Opts.CompilerOpts.EnablePeephole = false;
    return Opts;
  }

  // Both engines must agree on the value (or on the error message).
  void expectAgree(const std::string &Src) {
    std::string F = Fused.evalToString(Src);
    std::string U = Unfused.evalToString(Src);
    EXPECT_EQ(Fused.ok(), Unfused.ok()) << Src;
    if (Fused.ok())
      EXPECT_EQ(F, U) << Src;
    else
      EXPECT_EQ(Fused.lastError(), Unfused.lastError()) << Src;
  }

  SchemeEngine Fused;
  SchemeEngine Unfused;
};

TEST_F(PeepholeEquiv, ArithmeticLoops) {
  expectAgree("(let loop ([i 0] [acc 0])"
              "  (if (zero? i) acc (loop (- i 1) (+ acc i))))");
  expectAgree("(let loop ([i 2000] [acc 0])"
              "  (if (zero? i) acc (loop (- i 1) (+ acc i))))");
  expectAgree("(let loop ([i 100] [acc 1])"
              "  (if (= i 0) acc (loop (- i 1) (* acc 2))))");
}

TEST_F(PeepholeEquiv, FixnumOverflowFallsBack) {
  // AddLocalConst / SubLocalConst must take the slow path exactly where
  // the unfused Add/Sub would.
  expectAgree("(let ([n 4611686018427387903]) (+ n 1))");
  expectAgree("(let ([n -4611686018427387904]) (- n 1))");
  expectAgree("(let ([n 2.5]) (+ n 1))");
}

TEST_F(PeepholeEquiv, ListsAndPairs) {
  expectAgree("(let loop ([i 50] [acc '()])"
              "  (if (zero? i) (length acc) (loop (- i 1) (cons i acc))))");
  expectAgree("(let ([p (cons 1 2)]) (cons (car p) (cdr p)))");
  expectAgree("(car '())");         // Error path: messages must match.
  expectAgree("(let ([x 'a]) (+ x 1))"); // Type error inside a fused op.
  expectAgree("(let ([x 'a]) (zero? x))");
}

TEST_F(PeepholeEquiv, MarksAndAttachments) {
  expectAgree("(with-continuation-mark 'k 1"
              "  (+ 1 (with-continuation-mark 'k 2"
              "         (car (continuation-mark-set->list"
              "               (current-continuation-marks) 'k)))))");
  expectAgree("(define (f x) (+ 1 (with-continuation-mark 'k x (+ x 1))))"
              "(f 41)");
  expectAgree("(let loop ([i 100] [acc 0])"
              "  (if (zero? i) acc"
              "      (loop (- i 1)"
              "            (with-continuation-mark 'k i (+ acc 1)))))");
}

TEST_F(PeepholeEquiv, ContinuationsAcrossFusedCode) {
  expectAgree("(+ 1 (call/cc (lambda (k) (k 41))))");
  expectAgree("(let ([saved #f])"
              "  (define r (+ 1 (call/cc (lambda (k) (set! saved k) 1))))"
              "  (if (< r 10) (saved r) r))");
}

// The section 4 heap model is the ground-truth oracle: fused code must
// produce the same answers it does.
std::string runModel(SchemeEngine &E, const std::string &Src, bool &OkOut) {
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
  ModelResult R = runHeapModel(E.heap(), Toplevel, 50'000'000);
  OkOut = R.Ok;
  return R.Ok ? writeToString(R.V) : R.Error;
}

TEST_F(PeepholeEquiv, AgreesWithHeapModelOracle) {
  const char *Programs[] = {
      "(let loop ([i 0] [acc 0])"
      "  (if (zero? i) acc (loop (- i 1) (+ acc i))))",
      "(let loop ([i 20] [acc '()])"
      "  (if (zero? i) (length acc) (loop (- i 1) (cons i acc))))",
      "(with-continuation-mark 'k 1"
      "  (+ 0 (with-continuation-mark 'k 2"
      "         (car (continuation-mark-set->list"
      "               (current-continuation-marks) 'k)))))",
      "(+ 1 (#%call/cc (lambda (k) (k 41))))",
  };
  for (const char *Src : Programs) {
    bool Ok = false;
    std::string M = runModel(Fused, Src, Ok);
    ASSERT_TRUE(Ok) << M << "\n  src: " << Src;
    EXPECT_EQ(Fused.evalToString(Src), M) << Src;
  }
}

// ----------------------------------------------------- safe-point hoisting --

TEST(PeepholeSafePoints, UngovernedEngineNeverPolls) {
  // With no limits armed the hoisted safe points never fuel-expire: a
  // call- and branch-heavy workload must record zero polls.
  SchemeEngine E;
  E.resetStats();
  expectEval(E,
             "(let loop ([i 0] [acc 0])"
             "  (if (= i 20000) acc (loop (+ i 1) (+ acc 1))))",
             "20000");
  EXPECT_EQ(E.stats().SafePointPolls, 0u);
}

TEST(PeepholeSafePoints, GovernedEnginePollsAtCalls) {
  // A non-default FuelInterval governs the engine; the same workload now
  // polls (at call sites, since FuelInterval counts safe-point sites).
  EngineOptions Opts;
  Opts.VmCfg.Limits.FuelInterval = 128;
  SchemeEngine E(Opts);
  E.resetStats();
  expectEval(E,
             "(let loop ([i 0] [acc 0])"
             "  (if (= i 20000) acc (loop (+ i 1) (+ acc 1))))",
             "20000");
  EXPECT_GT(E.stats().SafePointPolls, 0u);
}

TEST(PeepholeSafePoints, InterruptStillDeliveredUngoverned) {
  // A cross-thread requestInterrupt() must reach the next safe-point
  // site even though an ungoverned engine never fuel-expires. (A request
  // landing *between* evals is intentionally cleared; see test_limits'
  // Interrupt.StaleRequestIsClearedAtNextEval.)
  SchemeEngine E;
  std::thread Poker([&E] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    E.requestInterrupt();
  });
  E.eval("(let loop () (loop))");
  Poker.join();
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.lastErrorKind(), ErrorKind::Interrupt);
  EXPECT_GT(E.stats().SafePointPolls, 0u);
}

} // namespace
