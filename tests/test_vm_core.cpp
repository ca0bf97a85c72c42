//===- tests/test_vm_core.cpp - Language/VM behaviour ----------*- C++ -*-===//

#include "test_helpers.h"

using namespace cmk;

namespace {

class VmCore : public ::testing::Test {
protected:
  SchemeEngine E;
};

TEST_F(VmCore, SelfEvaluating) {
  expectEval(E, "42", "42");
  expectEval(E, "#t", "#t");
  expectEval(E, "\"s\"", "\"s\"");
  expectEval(E, "#\\x", "#\\x");
  expectEval(E, "3.5", "3.5");
}

TEST_F(VmCore, QuoteAndQuasiquote) {
  expectEval(E, "'(1 2 3)", "(1 2 3)");
  expectEval(E, "`(1 ,(+ 1 1) 3)", "(1 2 3)");
  expectEval(E, "`(a ,@(list 1 2) b)", "(a 1 2 b)");
  expectEval(E, "`#(1 ,(+ 1 1))", "#(1 2)");
  expectEval(E, "`(1 `(2 ,(3)))", "(1 (quasiquote (2 (unquote (3)))))");
}

TEST_F(VmCore, IfAndBooleans) {
  expectEval(E, "(if #t 1 2)", "1");
  expectEval(E, "(if #f 1 2)", "2");
  expectEval(E, "(if 0 'zero 'no)", "zero");
  expectEval(E, "(if '() 'nil 'no)", "nil");
  expectEval(E, "(if #f #f)", "#<void>");
}

TEST_F(VmCore, LetForms) {
  expectEval(E, "(let ([x 1] [y 2]) (+ x y))", "3");
  expectEval(E, "(let* ([x 1] [y (+ x 1)]) (* x y))", "2");
  expectEval(E, "(letrec ([even2? (lambda (n) (if (zero? n) #t (odd2? (- n 1))))]"
                "         [odd2? (lambda (n) (if (zero? n) #f (even2? (- n 1))))])"
                "  (list (even2? 10) (odd2? 10)))",
             "(#t #f)");
  expectEval(E, "(let ([x 1]) (let ([x 2] [y x]) (list x y)))", "(2 1)");
}

TEST_F(VmCore, NamedLetAndDo) {
  expectEval(E, "(let loop ([i 0] [acc '()])"
                "  (if (= i 3) (reverse acc) (loop (+ i 1) (cons i acc))))",
             "(0 1 2)");
  expectEval(E, "(do ([i 0 (+ i 1)] [s 0 (+ s i)]) ((= i 5) s))", "10");
  expectEval(E, "(let ([v (make-vector 3 0)])"
                "  (do ([i 0 (+ i 1)]) ((= i 3) v) (vector-set! v i (* i i))))",
             "#(0 1 4)");
}

TEST_F(VmCore, CondCaseAndOr) {
  expectEval(E, "(cond [#f 1] [else 2])", "2");
  expectEval(E, "(cond [(assv 2 '((1 a) (2 b))) => cadr] [else 'no])", "b");
  expectEval(E, "(cond [(memq 'c '(a b)) 1])", "#<void>");
  expectEval(E, "(case (* 2 3) [(2 3 5 7) 'prime] [(1 4 6 8 9) 'composite])",
             "composite");
  expectEval(E, "(case 'z [(a) 1] [else 'other])", "other");
  expectEval(E, "(and 1 2 3)", "3");
  expectEval(E, "(and 1 #f 3)", "#f");
  expectEval(E, "(and)", "#t");
  expectEval(E, "(or #f 2 (error \"not reached\"))", "2");
  expectEval(E, "(or)", "#f");
  expectEval(E, "(when (> 2 1) 'a 'b)", "b");
  expectEval(E, "(unless (> 2 1) 'a)", "#<void>");
}

TEST_F(VmCore, LambdaShapes) {
  expectEval(E, "((lambda (a b) (- a b)) 10 4)", "6");
  expectEval(E, "((lambda args args) 1 2 3)", "(1 2 3)");
  expectEval(E, "((lambda (a . r) (list a r)) 1 2 3)", "(1 (2 3))");
  expectEval(E, "((lambda (a . r) (list a r)) 1)", "(1 ())");
}

TEST_F(VmCore, InternalDefines) {
  expectEval(E, "(define (f x)"
                "  (define y (* x 2))"
                "  (define (g z) (+ z y))"
                "  (g 1))"
                "(f 10)",
             "21");
}

TEST_F(VmCore, ClosuresCapture) {
  expectEval(E, "(define (counter)"
                "  (let ([n 0]) (lambda () (set! n (+ n 1)) n)))"
                "(define c1 (counter)) (define c2 (counter))"
                "(c1) (c1) (list (c1) (c2))",
             "(3 1)");
  // Shared mutable capture between two closures.
  expectEval(E, "(define (pair-ops)"
                "  (let ([n 0])"
                "    (cons (lambda () (set! n (+ n 1)) n)"
                "          (lambda () n))))"
                "(define p (pair-ops)) ((car p)) ((car p)) ((cdr p))",
             "2");
}

TEST_F(VmCore, SetBang) {
  expectEval(E, "(define x 1) (set! x 99) x", "99");
  expectEval(E, "(let ([x 1]) (set! x (+ x 1)) x)", "2");
}

TEST_F(VmCore, TailCallsAreSpaceSafe) {
  // 10M iterations would overflow any non-tail-call implementation.
  expectEval(E, "(let loop ([i 0]) (if (= i 10000000) 'done (loop (+ i 1))))",
             "done");
  // Mutual recursion in tail position.
  expectEval(E, "(define (pingf n) (if (zero? n) 'ping (pongf (- n 1))))"
                "(define (pongf n) (if (zero? n) 'pong (pingf (- n 1))))"
                "(pingf 3000001)",
             "pong");
}

TEST_F(VmCore, DeepNonTailRecursion) {
  expectEval(E, "(define (sum n) (if (zero? n) 0 (+ n (sum (- n 1)))))"
                "(sum 300000)",
             "45000150000");
  EXPECT_GT(E.vm().stats().SegmentOverflows, 0u)
      << "deep recursion must overflow segments";
  EXPECT_GT(E.vm().stats().UnderflowCopies, 0u)
      << "overflow splits cross segments, so returns copy (paper section 5)";
}

TEST_F(VmCore, Variadics) {
  expectEval(E, "(+)", "0");
  expectEval(E, "(+ 1 2 3 4)", "10");
  expectEval(E, "(- 5)", "-5");
  expectEval(E, "(*)", "1");
  expectEval(E, "(< 1 2 3)", "#t");
  expectEval(E, "(< 1 3 2)", "#f");
  expectEval(E, "(max 3 1 4 1 5)", "5");
  expectEval(E, "(min 3 1 4)", "1");
}

TEST_F(VmCore, NumericTower) {
  expectEval(E, "(/ 6 3)", "2");
  expectEval(E, "(/ 1 2)", "0.5");
  expectEval(E, "(quotient 7 2)", "3");
  expectEval(E, "(remainder 7 2)", "1");
  expectEval(E, "(modulo -7 3)", "2");
  expectEval(E, "(expt 2 10)", "1024");
  expectEval(E, "(sqrt 16)", "4");
  expectEval(E, "(abs -3)", "3");
  expectEval(E, "(exact->inexact 1)", "1.0");
  expectEval(E, "(inexact->exact 2.0)", "2");
  expectEval(E, "(+ 0.5 0.25)", "0.75");
}

TEST_F(VmCore, ListLibrary) {
  expectEval(E, "(append '(1 2) '(3) '() '(4))", "(1 2 3 4)");
  expectEval(E, "(reverse '(1 2 3))", "(3 2 1)");
  expectEval(E, "(length '(a b c))", "3");
  expectEval(E, "(list-tail '(a b c d) 2)", "(c d)");
  expectEval(E, "(list-ref '(a b c) 1)", "b");
  expectEval(E, "(memv 2 '(1 2 3))", "(2 3)");
  expectEval(E, "(assq 'b '((a 1) (b 2)))", "(b 2)");
  expectEval(E, "(map (lambda (x) (* x x)) '(1 2 3))", "(1 4 9)");
  expectEval(E, "(filter odd? '(1 2 3 4 5))", "(1 3 5)");
  expectEval(E, "(foldl + 0 '(1 2 3 4))", "10");
  expectEval(E, "(foldr cons '() '(1 2 3))", "(1 2 3)");
  expectEval(E, "(sort < '(3 1 4 1 5 9 2 6))", "(1 1 2 3 4 5 6 9)");
  expectEval(E, "(iota 4)", "(0 1 2 3)");
}

TEST_F(VmCore, StringLibrary) {
  expectEval(E, "(string-append \"foo\" \"bar\")", "\"foobar\"");
  expectEval(E, "(string-length \"hello\")", "5");
  expectEval(E, "(substring \"hello\" 1 3)", "\"el\"");
  expectEval(E, "(string->symbol \"abc\")", "abc");
  expectEval(E, "(symbol->string 'abc)", "\"abc\"");
  expectEval(E, "(string->number \"42\")", "42");
  expectEval(E, "(string->number \"x\")", "#f");
  expectEval(E, "(number->string 42)", "\"42\"");
  expectEval(E, "(string-split \"a,b,,c\" \",\")", "(\"a\" \"b\" \"\" \"c\")");
  expectEval(E, "(string-join '(\"a\" \"b\") \"-\")", "\"a-b\"");
  expectEval(E, "(format \"~a + ~s = ~a\" 1 \"two\" 3)",
             "\"1 + \\\"two\\\" = 3\"");
}

TEST_F(VmCore, VectorsAndBoxes) {
  expectEval(E, "(let ([v (make-vector 3 'x)]) (vector-set! v 1 'y) v)",
             "#(x y x)");
  expectEval(E, "(vector->list #(1 2 3))", "(1 2 3)");
  expectEval(E, "(list->vector '(1 2))", "#(1 2)");
  expectEval(E, "(let ([b (box 1)]) (set-box! b 2) (unbox b))", "2");
}

TEST_F(VmCore, HashTables) {
  expectEval(E, "(define h (make-hash))"
                "(hash-set! h 'a 1) (hash-set! h 'b 2)"
                "(list (hash-ref h 'a) (hash-ref h 'c 'none) (hash-count h))",
             "(1 none 2)");
}

TEST_F(VmCore, OutputAndStringPorts) {
  expectEval(E, "(let ([p (open-output-string)])"
                "  (display \"x=\" p) (write \"y\" p) (display 42 p)"
                "  (get-output-string p))",
             "\"x=\\\"y\\\"42\"");
  expectEval(E, "(with-output-to-string (lambda () (display 'hello)))",
             "\"hello\"");
}

TEST_F(VmCore, Errors) {
  expectError(E, "(car 5)", "car: expected pair");
  expectError(E, "(undefined-var)", "unbound variable");
  expectError(E, "((lambda (x) x) 1 2)", "wrong number of arguments");
  expectError(E, "(vector-ref (vector 1) 5)", "out of range");
  expectError(E, "(1 2)", "application of non-procedure");
  // The engine recovers after an error.
  expectEval(E, "(+ 1 1)", "2");
}

TEST_F(VmCore, ArityErrorsNameTheCallee) {
  // Every call site that checks an argument count, with the full message:
  // closures name themselves with the count they got, natives without it,
  // and a callee with no name is "procedure".
  const struct {
    const char *Src, *Msg;
  } Cases[] = {
      {"(define (f x) x) (+ 1 (f 1 2))",
       "f: wrong number of arguments (got 2)"},
      {"(define g (list (lambda (x) x))) (+ 1 ((car g) 1 2))",
       "procedure: wrong number of arguments (got 2)"},
      {"(define (f x) x) (define (t) (f 1 2)) (t)",
       "f: wrong number of arguments (got 2)"},
      {"(define g (list (lambda (x) x))) (define (t) ((car g) 1 2)) (t)",
       "procedure: wrong number of arguments (got 2)"},
      {"(+ 1 (string-length \"a\" \"b\"))",
       "string-length: wrong number of arguments"},
      {"(define (t) (string-length \"a\" \"b\")) (t)",
       "string-length: wrong number of arguments"},
      {"(+ 1 (apply car '(1 2)))", "car: wrong number of arguments"},
  };
  for (const auto &C : Cases) {
    E.eval(C.Src);
    EXPECT_FALSE(E.ok()) << C.Src;
    EXPECT_EQ(E.lastError(), C.Msg) << C.Src;
  }

  // SchemeEngine::apply checks the count before entering the loop.
  Value F = E.eval("(define (two a b) a) two");
  ASSERT_TRUE(E.ok()) << E.lastError();
  E.protect(F);
  E.apply(F, {Value::fixnum(1)});
  EXPECT_EQ(E.lastError(), "two: wrong number of arguments (got 1)");
  E.apply(E.vm().getGlobal("car"), {});
  EXPECT_EQ(E.lastError(), "car: wrong number of arguments");
  expectEval(E, "(+ 1 1)", "2");
}

TEST_F(VmCore, NativeCallsLeavingTheFastPath) {
  // Non-tail native calls whose outcome is not a plain value at the
  // resume point: a scheduled tail call, a continuation jump (with and
  // without a scheduled call), and a native entered by call-attach that
  // returns through underflow.
  expectEval(E, "(+ 1 (apply + '(1 2)))", "4");
  expectEval(E, "(+ 1 (apply apply (list + (list 1 2))))", "4");
  expectEval(E,
             "(call-with-continuation-prompt"
             "  (lambda () (+ 10 (#%abort-to-prompt"
             "                     (default-continuation-prompt-tag) 41)))"
             "  (default-continuation-prompt-tag)"
             "  (lambda (v) (+ v 1)))",
             "42");
  expectEval(E,
             "(+ 1 (with-continuation-mark 'k 7"
             "       (continuation-mark-set-first #f 'k)))",
             "8");
  // A jump with nothing scheduled: once both fibers have parked, each
  // non-tail yield resumes the other's capture.
  expectEval(E,
             "(define (ticks n)"
             "  (let loop ([i 0] [acc '()])"
             "    (if (= i n) (reverse acc)"
             "        (loop (+ i 1) (cons (+ i (begin (#%fiber-yield) 0))"
             "                            acc)))))"
             "(define f1 (spawn (lambda () (ticks 3))))"
             "(define f2 (spawn (lambda () (ticks 3))))"
             "(list (fiber-join f1) (fiber-join f2))",
             "((0 1 2) (0 1 2))");
  // A failing native leaves the engine usable.
  expectError(E, "(+ 1 (string-length 5))",
              "string-length: expected string, got 5");
  expectEval(E, "(+ 1 (string-length \"ab\"))", "3");
}

TEST_F(VmCore, DefineSyntaxRule) {
  expectEval(E, "(define-syntax-rule (swap-call f a b) (f b a))"
                "(swap-call - 1 10)",
             "9");
  expectEval(E, "(define-syntax-rule (my-if c t e) (cond [c t] [else e]))"
                "(my-if #f 'x 'y)",
             "y");
}

TEST_F(VmCore, MacroEllipsis) {
  expectEval(E, "(define-syntax-rule (my-list x ...) (list x ...))"
                "(list (my-list) (my-list 1) (my-list 1 2 3))",
             "(() (1) (1 2 3))");
  // Structured sub-patterns: each pair is destructured per repetition.
  expectEval(E, "(define-syntax-rule (swap-each (a b) ...)"
                "  (list (list b a) ...))"
                "(swap-each (1 2) (3 4) (5 6))",
             "((2 1) (4 3) (6 5))");
  // The classic let-from-lambda macro.
  expectEval(E, "(define-syntax-rule (my-let ([v e] ...) body)"
                "  ((lambda (v ...) body) e ...))"
                "(my-let ([x 2] [y 3] [z 7]) (* z (+ x y)))",
             "35");
  // Ellipsis before a fixed suffix.
  expectEval(E, "(define-syntax-rule (but-last x ... last) (list x ...))"
                "(but-last 1 2 3 4)",
             "(1 2 3)");
  // A while loop built from ellipsis + recursion-free expansion.
  expectEval(E, "(define-syntax-rule (while c body ...)"
                "  (let %loop () (when c body ... (%loop))))"
                "(define i (box 0))"
                "(while (< (unbox i) 5) (set-box! i (+ 1 (unbox i))))"
                "(unbox i)",
             "5");
}

TEST_F(VmCore, ApplyForms) {
  expectEval(E, "(apply + '(1 2 3))", "6");
  expectEval(E, "(apply list 1 2 '(3 4))", "(1 2 3 4)");
  expectEval(E, "(apply (lambda (a . r) (cons a r)) '(1 2 3))", "(1 2 3)");
}

// Parameterized sweep: factorial over many inputs (exercises call frames,
// multiplication overflow handling at the top end).
class FactorialSweep : public ::testing::TestWithParam<int> {};

TEST_P(FactorialSweep, Matches) {
  SchemeEngine E;
  int N = GetParam();
  double Expect = 1;
  for (int I = 2; I <= N; ++I)
    Expect *= I;
  std::string Got = E.evalToString(
      "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact " +
      std::to_string(N) + ")");
  ASSERT_TRUE(E.ok());
  EXPECT_DOUBLE_EQ(std::stod(Got), Expect);
}

INSTANTIATE_TEST_SUITE_P(VmCore, FactorialSweep,
                         ::testing::Values(0, 1, 5, 10, 15, 20, 25));

} // namespace
