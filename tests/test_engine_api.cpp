//===- tests/test_engine_api.cpp - Embedding API surface -------*- C++ -*-===//

#include "test_helpers.h"

#include "runtime/printer.h"

using namespace cmk;

namespace {

TEST(EngineApi, EvalReturnsLastForm) {
  SchemeEngine E;
  EXPECT_EQ(E.evalToString("1 2 3"), "3");
}

TEST(EngineApi, EvalEmptySourceIsVoid) {
  SchemeEngine E;
  EXPECT_EQ(E.evalToString(""), "#<void>");
  EXPECT_EQ(E.evalToString("; only a comment"), "#<void>");
}

TEST(EngineApi, ReadErrorsAreReported) {
  SchemeEngine E;
  E.eval("(unclosed");
  ASSERT_FALSE(E.ok());
  EXPECT_NE(E.lastError().find("read error"), std::string::npos);
}

// Forms compile and run one at a time, so a later form's compile error
// leaves the earlier forms' effects in place.
TEST(EngineApi, EarlierFormsRunBeforeACompileError) {
  SchemeEngine E;
  E.eval("(define x 1) (set! x 2) (if)");
  ASSERT_FALSE(E.ok());
  EXPECT_NE(E.lastError().find("compile error"), std::string::npos);
  EXPECT_EQ(E.evalToString("x"), "2");
}

TEST(EngineApi, ApplySchemeProcedureFromCpp) {
  SchemeEngine E;
  Value Fn = E.eval("(lambda (a b) (+ a (* 2 b)))");
  ASSERT_TRUE(E.ok());
  E.protect(Fn);
  Value R = E.apply(Fn, {Value::fixnum(3), Value::fixnum(4)});
  ASSERT_TRUE(E.ok()) << E.lastError();
  EXPECT_EQ(R.asFixnum(), 11);
}

TEST(EngineApi, ApplyNativeFromCpp) {
  SchemeEngine E;
  Value Plus = E.vm().getGlobal("+");
  Value R = E.apply(Plus, {Value::fixnum(20), Value::fixnum(22)});
  ASSERT_TRUE(E.ok());
  EXPECT_EQ(R.asFixnum(), 42);
}

TEST(EngineApi, ApplyReportsArityErrors) {
  SchemeEngine E;
  Value Fn = E.eval("(lambda (a) a)");
  E.protect(Fn);
  E.apply(Fn, {});
  EXPECT_FALSE(E.ok());
  EXPECT_NE(E.lastError().find("wrong number of arguments"),
            std::string::npos);
}

TEST(EngineApi, CustomNativeRegistration) {
  SchemeEngine E;
  E.vm().defineNative(
      "host-triple",
      [](VM &M, Value *Args, uint32_t N) -> Value {
        if (!Args[0].isFixnum())
          return typeError(M, "host-triple", "fixnum", Args[0]);
        return Value::fixnum(Args[0].asFixnum() * 3);
      },
      1, 1);
  expectEval(E, "(host-triple 14)", "42");
  expectEval(E, "(map host-triple '(1 2 3))", "(3 6 9)");
}

TEST(EngineApi, CustomNativeCanScheduleTailCalls) {
  SchemeEngine E;
  E.vm().defineNative(
      "host-apply0",
      [](VM &M, Value *Args, uint32_t N) -> Value {
        M.scheduleTailCall(Args[0], nullptr, 0);
        return Value::voidValue();
      },
      1, 1);
  expectEval(E, "(host-apply0 (lambda () 'from-scheme))", "from-scheme");
  // The scheduled call is a proper tail call: a loop through the native
  // must not grow the stack.
  expectEval(E,
             "(define (spin i)"
             "  (if (= i 500000) 'flat (host-apply0 (lambda () (spin (+ i 1))))))"
             "(spin 0)",
             "flat");
}

TEST(EngineApi, GlobalsRoundTrip) {
  SchemeEngine E;
  E.vm().setGlobal("answer", Value::fixnum(42));
  expectEval(E, "answer", "42");
  E.evalOrDie("(define from-scheme 'hello)");
  EXPECT_EQ(writeToString(E.vm().getGlobal("from-scheme")), "hello");
}

TEST(EngineApi, ErrorsDoNotPoisonTheEngine) {
  SchemeEngine E;
  for (int I = 0; I < 10; ++I) {
    E.eval("(car 'not-a-pair)");
    EXPECT_FALSE(E.ok());
    EXPECT_EQ(E.evalToString("(+ 1 " + std::to_string(I) + ")"),
              std::to_string(I + 1));
  }
}

TEST(EngineApi, StatsAccessible) {
  SchemeEngine E;
  E.evalOrDie("(call/cc (lambda (k) (k 1)))");
  EXPECT_GT(E.vm().stats().ContinuationCaptures, 0u);
  expectEval(E, "(>= (#%vm-stat 'captures) 1)", "#t");
}

TEST(EngineApi, PreludeCanBeDisabled) {
  EngineOptions Opts;
  Opts.LoadPrelude = false;
  SchemeEngine E(Opts);
  EXPECT_EQ(E.evalToString("(+ 1 2)"), "3");
  E.eval("(map car '((1)))"); // map lives in the prelude.
  EXPECT_FALSE(E.ok());
}

TEST(EngineApi, ManyEnginesCoexist) {
  SchemeEngine A, B;
  A.evalOrDie("(define x 'from-a)");
  B.evalOrDie("(define x 'from-b)");
  EXPECT_EQ(A.evalToString("x"), "from-a");
  EXPECT_EQ(B.evalToString("x"), "from-b");
}

TEST(EngineApi, DisassembleIsStable) {
  SchemeEngine E;
  Value Form = readOne(E, "(lambda (x) (if x (+ x 1) 0))");
  std::string Err;
  Value Code = E.compiler().compileToplevel(Form, &Err);
  ASSERT_TRUE(Err.empty());
  std::string D = Compiler::disassemble(Code);
  EXPECT_NE(D.find("jump-if-false"), std::string::npos);
  EXPECT_NE(D.find("make-closure"), std::string::npos);
}

TEST(EngineApi, DeepValuePrintingIsBounded) {
  SchemeEngine E;
  // A very deep nested list must not blow the printer's stack.
  std::string R = E.evalToString(
      "(let loop ([i 0] [acc '()])"
      "  (if (= i 1000) acc (loop (+ i 1) (list acc))))");
  EXPECT_TRUE(E.ok());
  EXPECT_NE(R.find("..."), std::string::npos);
}

} // namespace
