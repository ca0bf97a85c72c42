//===- tests/test_heap_model.cpp - Model vs VM differential ----*- C++ -*-===//
///
/// \file
/// Validates the section 4 heap-frame reference model directly, then uses
/// it as an oracle: randomized programs over marks, attachments, and
/// continuations must produce identical results on the model and on the
/// optimized stack-based VM in every compiler variant.
///
//===----------------------------------------------------------------------===//

#include "test_helpers.h"

#include "compiler/expand.h"
#include "model/heap_model.h"
#include "runtime/printer.h"
#include "support/rng.h"

using namespace cmk;

namespace {

/// Runs \p Src on the heap model, using the engine's expander (no
/// optimization passes).
std::string runModel(SchemeEngine &E, const std::string &Src, bool &OkOut,
                     uint64_t StepLimit = 50'000'000) {
  std::vector<Value> Forms = readAllFromString(E.heap(), Src);
  // Wrap multiple toplevel forms in a begin (the expander splices it).
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

class HeapModelTest : public ::testing::Test {
protected:
  std::string model(const std::string &Src) {
    bool Ok = false;
    std::string R = runModel(E, Src, Ok);
    EXPECT_TRUE(Ok) << R << "\n  src: " << Src;
    return R;
  }

  void expectBoth(const std::string &Src, const std::string &Expected) {
    EXPECT_EQ(model(Src), Expected) << "model: " << Src;
    expectEval(E, Src, Expected);
  }

  SchemeEngine E;
};

TEST_F(HeapModelTest, Basics) {
  expectBoth("(+ 1 2)", "3");
  expectBoth("((lambda (x y) (cons x y)) 1 2)", "(1 . 2)");
  expectBoth("(let ([x 1]) (let ([y 2]) (+ x y)))", "3");
  expectBoth("(if (zero? 0) 'a 'b)", "a");
  expectBoth("(define (f n) (if (zero? n) 0 (+ n (f (- n 1))))) (f 100)",
             "5050");
  expectBoth("(let ([b 0]) (set! b 9) b)", "9");
  expectBoth("((lambda (a . r) (cons a r)) 1 2 3)", "(1 2 3)");
}

TEST_F(HeapModelTest, AttachmentsDefinitionalSemantics) {
  expectBoth("(define (peek) (call-getting-continuation-attachment 'none"
             "                 (lambda (a) a)))"
             "(call-setting-continuation-attachment 'v (lambda () (peek)))",
             "v");
  expectBoth("(define (peek2) (call-getting-continuation-attachment 'none"
             "                  (lambda (a) a)))"
             "(call-setting-continuation-attachment 'v"
             "  (lambda () (list (peek2))))",
             "(none)");
  expectBoth("(call-setting-continuation-attachment 'a"
             "  (lambda ()"
             "    (call-setting-continuation-attachment 'b"
             "      (lambda () (current-continuation-attachments)))))",
             "(b)");
  expectBoth("(call-setting-continuation-attachment 'outer"
             "  (lambda ()"
             "    (car (list"
             "      (call-setting-continuation-attachment 'inner"
             "        (lambda () (current-continuation-attachments)))))))",
             "(inner outer)");
  expectBoth("(call-setting-continuation-attachment 'v"
             "  (lambda ()"
             "    (call-consuming-continuation-attachment 'none"
             "      (lambda (a)"
             "        (list a (current-continuation-attachments))))))",
             "(v ())");
}

TEST_F(HeapModelTest, MarksSemantics) {
  expectBoth("(with-continuation-mark 'k 1"
             "  (continuation-mark-set-first #f 'k 'none))",
             "1");
  expectBoth("(define (all) (continuation-mark-set->list"
             "               (current-continuation-marks) 'c))"
             "(with-continuation-mark 'c 'red"
             "  (car (list (with-continuation-mark 'c 'blue (all)))))",
             "(blue red)");
  expectBoth("(define (f) (with-continuation-mark 'k 2"
             "  (continuation-mark-set->list (current-continuation-marks) 'k)))"
             "(with-continuation-mark 'k 1 (f))",
             "(2)");
}

TEST_F(HeapModelTest, ContinuationsInTheModel) {
  expectBoth("(+ 1 (#%call/cc (lambda (k) (k 41))))", "42");
  expectBoth("(+ 1 (#%call/cc (lambda (k) (+ 1000 (k 41)))))", "42");
  expectBoth("(+ 1 (#%call/cc (lambda (k) 41)))", "42");
  // Marks survive capture and reapplication identically.
  expectBoth("(let ([saved (cons #f #f)])"
             "  (let ([r (with-continuation-mark 'att 'kept"
             "             (car (list"
             "               (cons (#%call/cc (lambda (k)"
             "                       (set-car! saved k) 'first))"
             "                     (continuation-mark-set-first #f 'att)))))])"
             "    (if (eq? (car r) 'first)"
             "        ((car saved) 'second)"
             "        r)))",
             "(second . kept)");
}

TEST_F(HeapModelTest, ModelStepLimitTrips) {
  bool Ok = true;
  std::string R = runModel(E, "(define (f) (f)) (f)", Ok, 100000);
  EXPECT_FALSE(Ok);
  EXPECT_NE(R.find("step limit"), std::string::npos);
}

// --- Differential fuzzing: model as the oracle ---------------------------------

/// Programs over the model-supported subset: attachments, wcm, first/list,
/// single-use escape continuations, pure list/arith helpers.
class ModelProgramGen {
public:
  explicit ModelProgramGen(uint64_t Seed) : R(Seed) {}

  std::string program() {
    Escapes = 0;
    return "(define (obs k) (continuation-mark-set->list"
           "                 (current-continuation-marks) k))"
           "(define (fst k) (continuation-mark-set-first #f k 'none))"
           "(list " +
           expr(4) + " " + expr(3) + ")";
  }

private:
  std::string num() { return std::to_string(R.nextBelow(40)); }
  std::string key() { return R.chance(1, 2) ? "'k1" : "'k2"; }

  std::string expr(int Depth) {
    if (Depth == 0)
      return leaf();
    switch (R.nextBelow(11)) {
    case 0:
      return "(with-continuation-mark " + key() + " " + num() + " " +
             expr(Depth - 1) + ")";
    case 1:
      return "(car (list (with-continuation-mark " + key() + " " + num() +
             " " + expr(Depth - 1) + ")))";
    case 2:
      return "(call-setting-continuation-attachment " + num() +
             " (lambda () " + expr(Depth - 1) + "))";
    case 3:
      return "(call-getting-continuation-attachment 'dflt (lambda (a) "
             "(list a " +
             expr(Depth - 1) + ")))";
    case 4:
      return "(call-consuming-continuation-attachment 'dflt (lambda (a) "
             "(cons a " +
             expr(Depth - 1) + ")))";
    case 5: {
      ++Escapes;
      std::string Esc = "esc" + std::to_string(Escapes);
      std::string Body = R.chance(1, 2)
                             ? "(" + Esc + " " + expr(Depth - 1) + ")"
                             : expr(Depth - 1);
      return "(#%call/cc (lambda (" + Esc + ") " + Body + "))";
    }
    case 6:
      return "(cons (fst " + key() + ") " + expr(Depth - 1) + ")";
    case 7:
      return "(obs " + key() + ")";
    case 8:
      return "(let ([x " + expr(Depth - 1) + "]) (list x (fst " + key() +
             ")))";
    case 9:
      return std::string("(if (even? ") + num() + ") " + expr(Depth - 1) +
             " " + expr(Depth - 1) + ")";
    default:
      return "((lambda (h) (h)) (lambda () " + expr(Depth - 1) + "))";
    }
  }

  std::string leaf() {
    switch (R.nextBelow(3)) {
    case 0:
      return num();
    case 1:
      return "(fst " + key() + ")";
    default:
      return "(current-continuation-attachments)";
    }
  }

  Rng R;
  int Escapes = 0;
};

class ModelDifferential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelDifferential, ModelAgreesWithAllVariants) {
  ModelProgramGen Gen(GetParam() * 104729);
  for (int Round = 0; Round < 8; ++Round) {
    std::string Prog = Gen.program();

    SchemeEngine Oracle; // Shares the heap with the model run below.
    bool ModelOk = false;
    std::string Expected = runModel(Oracle, Prog, ModelOk);
    ASSERT_TRUE(ModelOk) << Expected << "\n" << Prog;

    for (EngineVariant V :
         {EngineVariant::Builtin, EngineVariant::NoOpt, EngineVariant::NoPrim,
          EngineVariant::No1cc}) {
      SchemeEngine E(V);
      std::string Got = E.evalToString(Prog);
      ASSERT_TRUE(E.ok()) << E.lastError() << "\n" << Prog;
      EXPECT_EQ(Got, Expected)
          << "VM diverges from the section 4 model on:\n"
          << Prog;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(HeapModel, ModelDifferential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

} // namespace
