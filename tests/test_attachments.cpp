//===- tests/test_attachments.cpp - Continuation attachments ---*- C++ -*-===//
///
/// \file
/// Semantics of the four primitives of paper section 7.1 in every position
/// category of section 7.2, the compiler's category classification, and
/// equivalence with the call/cc-based imitation of figure 3 (which relies
/// on captures of the same continuation being eq?, as in Chez Scheme).
///
//===----------------------------------------------------------------------===//

#include "test_helpers.h"

using namespace cmk;

namespace {

class Attachments : public ::testing::Test {
protected:
  SchemeEngine E;
};

// --- Basic semantics ---------------------------------------------------------

TEST_F(Attachments, SetThenGetInTailPosition) {
  // The callee is tail-called, so it shares the conceptual frame and sees
  // the attachment.
  expectEval(E,
             "(define (peek) (call-getting-continuation-attachment 'none"
             "                 (lambda (a) a)))"
             "(call-setting-continuation-attachment 'v (lambda () (peek)))",
             "v");
}

TEST_F(Attachments, GetInNonTailPositionSeesNothing) {
  // A non-tail call creates a fresh frame with no attachment.
  expectEval(E,
             "(define (peek) (call-getting-continuation-attachment 'none"
             "                 (lambda (a) a)))"
             "(call-setting-continuation-attachment 'v"
             "  (lambda () (list (peek))))",
             "(none)");
}

TEST_F(Attachments, SetReplacesOnSameFrame) {
  expectEval(E,
             "(call-setting-continuation-attachment 'a"
             "  (lambda ()"
             "    (call-setting-continuation-attachment 'b"
             "      (lambda () (current-continuation-attachments)))))",
             "(b)");
}

TEST_F(Attachments, NestedFramesStack) {
  expectEval(E,
             "(call-setting-continuation-attachment 'outer"
             "  (lambda ()"
             "    (car (list"
             "      (call-setting-continuation-attachment 'inner"
             "        (lambda () (current-continuation-attachments)))))))",
             "(inner outer)");
}

TEST_F(Attachments, ConsumeRemoves) {
  expectEval(E,
             "(call-setting-continuation-attachment 'v"
             "  (lambda ()"
             "    (call-consuming-continuation-attachment 'none"
             "      (lambda (a)"
             "        (list a (current-continuation-attachments))))))",
             "(v ())");
}

TEST_F(Attachments, ConsumeThenSetIsReplace) {
  // The with-continuation-mark pattern (paper 7.1).
  expectEval(E,
             "(call-setting-continuation-attachment 1"
             "  (lambda ()"
             "    (call-consuming-continuation-attachment 0"
             "      (lambda (a)"
             "        (call-setting-continuation-attachment (+ a 10)"
             "          (lambda () (current-continuation-attachments)))))))",
             "(11)");
}

TEST_F(Attachments, GetDefaultWhenNoAttachment) {
  expectEval(E,
             "(call-getting-continuation-attachment 'dflt (lambda (a) a))",
             "dflt");
}

TEST_F(Attachments, AttachmentsPopOnReturn) {
  expectEval(E,
             "(define (with-att thunk)"
             "  (call-setting-continuation-attachment 'v"
             "    (lambda () (thunk))))"
             "(list (with-att (lambda () (length (current-continuation-attachments))))"
             "      (length (current-continuation-attachments)))",
             "(1 0)");
}

TEST_F(Attachments, NonTailSetAroundPrimitive) {
  // Category: non-tail, no call in body -> pure marks push/pop (7.2).
  expectEval(E,
             "(+ 1 (call-setting-continuation-attachment 'v"
             "       (lambda () (+ 2 3))))",
             "6");
}

TEST_F(Attachments, NonTailSetBodyObservesOwnMark) {
  expectEval(E,
             "(+ 0 (call-setting-continuation-attachment 7"
             "       (lambda () (car (current-continuation-attachments)))))",
             "7");
}

TEST_F(Attachments, NonTailSetAroundCall) {
  // Category: non-tail with a tail call in the body -> CallAttach (7.2).
  expectEval(E,
             "(define (probe) (current-continuation-attachments))"
             "(cons 'r (call-setting-continuation-attachment 'v"
             "           (lambda () (probe))))",
             "(r v)");
  // The callee sees the attachment as its own frame's (tail sharing).
  expectEval(E,
             "(define (probe2) (call-getting-continuation-attachment 'none"
             "                   (lambda (a) a)))"
             "(cons 'r (call-setting-continuation-attachment 'v2"
             "           (lambda () (probe2))))",
             "(r . v2)");
}

TEST_F(Attachments, NonTailSetPopsAfterCall) {
  expectEval(E,
             "(define (id x) x)"
             "(begin"
             "  (+ 1 (call-setting-continuation-attachment 'v"
             "         (lambda () (id 1))))"
             "  (length (current-continuation-attachments)))",
             "0");
}

TEST_F(Attachments, MixedBranchBody) {
  // One branch of the body ends in a call, the other in a value; both must
  // balance the mark.
  const char *Prog =
      "(define (id x) x)"
      "(define (go b)"
      "  (cons (call-setting-continuation-attachment 'v"
      "          (lambda () (if b (id 'call) 'value)))"
      "        (current-continuation-attachments)))"
      "(list (go #t) (go #f))";
  expectEval(E, Prog, "((call) (value))");
}

TEST_F(Attachments, TailCallChainKeepsFrameAttachment) {
  // f is called non-tail (an argument of cons), so it gets a fresh frame:
  // its attachment stacks on the caller's. g is tail-called from f and
  // shares f's frame.
  expectEval(E,
             "(define (g) (current-continuation-attachments))"
             "(define (f) (call-setting-continuation-attachment 'from-f"
             "              (lambda () (g))))"
             "(call-setting-continuation-attachment 'caller"
             "  (lambda () (cons 'r (f))))",
             "(r from-f caller)");
  // In tail position the set replaces the frame's attachment instead.
  expectEval(E,
             "(define (g2) (current-continuation-attachments))"
             "(define (f2) (call-setting-continuation-attachment 'from-f"
             "               (lambda () (g2))))"
             "(call-setting-continuation-attachment 'caller"
             "  (lambda () (f2)))",
             "(from-f)");
}

TEST_F(Attachments, DeepRecursionWithAttachments) {
  // Every level sets an attachment around a non-tail call; the chain
  // reflects every live frame.
  expectEval(E,
             "(define (deep n)"
             "  (if (zero? n)"
             "      (length (current-continuation-attachments))"
             "      (car (list (call-setting-continuation-attachment n"
             "                   (lambda () (deep (- n 1))))))))"
             "(deep 1000)",
             "1000");
}

TEST_F(Attachments, AttachmentsSurviveCapture) {
  // Capturing and reapplying a continuation preserves the attachments of
  // the captured frames (paper section 3).
  expectEval(E,
             "(let ([saved (box #f)])"
             "  (let ([r (call-setting-continuation-attachment 'att"
             "             (lambda ()"
             "               (cons (call/cc (lambda (k) (set-box! saved k) 'first))"
             "                     (current-continuation-attachments))))])"
             "    (if (eq? (car r) 'first)"
             "        ((unbox saved) 'second)"
             "        r)))",
             "(second att)");
}

TEST_F(Attachments, NestedNonTailGetSeesOwnFrameMark) {
  // A get in the tail of a non-tail set's body shares the conceptual
  // frame, so the compiler can wire it to the pending mark statically.
  expectEval(E,
             "(+ 0 (call-setting-continuation-attachment 7"
             "       (lambda ()"
             "         (call-getting-continuation-attachment 'none"
             "           (lambda (a) a)))))",
             "7");
}

TEST_F(Attachments, NestedNonTailConsumeBalances) {
  // Consume inside a non-tail set's body removes the pending mark; the
  // epilogue must not pop again.
  expectEval(E,
             "(cons (call-setting-continuation-attachment 'v"
             "        (lambda ()"
             "          (call-consuming-continuation-attachment 'none"
             "            (lambda (a)"
             "              (list a (current-continuation-attachments))))))"
             "      (current-continuation-attachments))",
             "((v ()))");
}

TEST_F(Attachments, NestedNonTailSetReplacesPending) {
  // A second set in the tail of the first's body replaces the pending
  // mark (MarksSetTop), and exactly one pop happens at the end.
  expectEval(E,
             "(cons (call-setting-continuation-attachment 'first"
             "        (lambda ()"
             "          (call-setting-continuation-attachment 'second"
             "            (lambda () (current-continuation-attachments)))))"
             "      (current-continuation-attachments))",
             "((second))");
}

TEST_F(Attachments, NonTailBranchesMixNestedOps) {
  // Branches that end in a nested set (taking over the pop), a call
  // (CallAttach pops), and a plain value (explicit pop) must all balance.
  const char *Prog =
      "(define (probe) (current-continuation-attachments))"
      "(define (go sel)"
      "  (cons (call-setting-continuation-attachment 'outer"
      "          (lambda ()"
      "            (cond"
      "              [(eq? sel 'nest)"
      "               (call-setting-continuation-attachment 'inner"
      "                 (lambda () (probe)))]"
      "              [(eq? sel 'call) (probe)]"
      "              [else 'value])))"
      "        (current-continuation-attachments)))"
      "(list (go 'nest) (go 'call) (go 'value))";
  expectEval(E, Prog, "(((inner)) ((outer)) (value))");
}

TEST_F(Attachments, ConsumeThenCallInNonTailBody) {
  // After a consume the state is Absent again, so the tail call in the
  // body must be a plain call (no CallAttach, nothing to pop).
  expectEval(E,
             "(define (probe2) (current-continuation-attachments))"
             "(cons 'r (call-setting-continuation-attachment 'gone"
             "           (lambda ()"
             "             (call-consuming-continuation-attachment 'none"
             "               (lambda (a) (probe2))))))",
             "(r)");
}

TEST_F(Attachments, LetAndBeginInsideNonTailBody) {
  expectEval(E,
             "(+ 100 (call-setting-continuation-attachment 5"
             "         (lambda ()"
             "           (let ([x (length (current-continuation-attachments))])"
             "             (begin"
             "               'ignored"
             "               (+ x (car (current-continuation-attachments))))))))",
             "106");
}

TEST_F(Attachments, GenericAndCompiledAgreeOnNesting) {
  // The same nested program through the compiled path and through
  // footnote 5's generic path (procedure argument not an immediate
  // lambda) must agree.
  const char *Compiled =
      "(cons (call-setting-continuation-attachment 'a"
      "        (lambda ()"
      "          (call-setting-continuation-attachment 'b"
      "            (lambda () (current-continuation-attachments)))))"
      "      (current-continuation-attachments))";
  const char *Generic =
      "(define (wrap v th) (call-setting-continuation-attachment v th))"
      "(cons (wrap 'a (lambda ()"
      "          (wrap 'b (lambda () (current-continuation-attachments)))))"
      "      (current-continuation-attachments))";
  SchemeEngine E2;
  std::string R1 = E2.evalToString(Compiled);
  std::string R2 = E2.evalToString(Generic);
  EXPECT_EQ(R1, R2);
  EXPECT_EQ(R1, "((b))");
}

// --- Compiler classification (paper 7.2) -------------------------------------

class Categories : public ::testing::Test {
protected:
  AttachPassStats statsFor(const std::string &Src) {
    Value Form = readOne(E, Src);
    std::string Err;
    E.compiler().compileToplevel(Form, &Err);
    EXPECT_TRUE(Err.empty()) << Err;
    return E.compiler().lastAttachStats();
  }
  SchemeEngine E;
};

TEST_F(Categories, TailPosition) {
  // Bodies must not fold to constants, or the 7.3 optimization removes the
  // attachment operation before the pass runs.
  AttachPassStats S = statsFor(
      "(lambda (g) (call-setting-continuation-attachment 'v"
      "              (lambda () (g))))");
  EXPECT_EQ(S.TailOps, 1);
  EXPECT_EQ(S.NonTailWithCallOps, 0);
  EXPECT_EQ(S.NonTailNoCallOps, 0);
}

TEST_F(Categories, NonTailNoCall) {
  AttachPassStats S = statsFor(
      "(lambda (x) (+ 1 (call-setting-continuation-attachment 'v"
      "                   (lambda () (+ 2 x)))))");
  EXPECT_EQ(S.TailOps, 0);
  EXPECT_EQ(S.NonTailNoCallOps, 1)
      << "a primitive application does not count as a tail call (7.2)";
}

TEST_F(Categories, NonTailWithCall) {
  AttachPassStats S = statsFor(
      "(lambda (f) (+ 1 (call-setting-continuation-attachment 'v"
      "                   (lambda () (f)))))");
  EXPECT_EQ(S.NonTailWithCallOps, 1);
}

TEST_F(Categories, PrimRecognitionDisabled) {
  // Under the "no prim" ablation, the primitive body counts as a call.
  EngineOptions Opts = EngineOptions::forVariant(EngineVariant::NoPrim);
  SchemeEngine E2(Opts);
  Value Form = readOne(E2, "(lambda (x) (+ 1 (call-setting-continuation-attachment 'v"
                           "                   (lambda () (+ 2 x)))))");
  std::string Err;
  E2.compiler().compileToplevel(Form, &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(E2.compiler().lastAttachStats().NonTailWithCallOps, 1);
  EXPECT_EQ(E2.compiler().lastAttachStats().NonTailNoCallOps, 0);
}

TEST_F(Categories, WcmFusesConsumeSet) {
  AttachPassStats S = statsFor(
      "(lambda (g) (with-continuation-mark 'k 'v (g)))");
  EXPECT_EQ(S.FusedConsumeSet, 1)
      << "with-continuation-mark's consume-set sequence must fuse (7.2)";
}

// --- Figure 3: imitation equivalence -----------------------------------------

/// The paper's imitation of built-in attachment support (figure 3), with
/// the attachment-stack pop added on the return path. Requires captures of
/// the same continuation to be eq?, which the runtime guarantees by reusing
/// the frame's underflow record.
const char *ImitationLib = R"(
(define ks '(#f))
(define atts '())
(define (imitate-setting v thunk)
  (#%call/cc
   (lambda (k)
     (cond [(eq? k (car ks))
            (set! atts (cons v (cdr atts)))
            (thunk)]
           [else
            (let ([r (#%call/cc
                      (lambda (nested-k)
                        (set! ks (cons nested-k ks))
                        (set! atts (cons v atts))
                        (thunk)))])
              (set! ks (cdr ks))
              (set! atts (cdr atts))
              r)]))))
(define (imitate-getting dflt proc)
  (#%call/cc
   (lambda (k)
     (if (eq? k (car ks)) (proc (car atts)) (proc dflt)))))
(define (imitate-current) atts)
)";

/// Skeleton programs: @SET/@GET/@CUR are replaced by either the builtin or
/// imitation spellings, and the two must agree.
struct SkeletonCase {
  const char *Name;
  const char *Body;
};

/// Prints the case name, so the listed test names stay the same from build
/// to build instead of carrying the string pointers' addresses.
void PrintTo(const SkeletonCase &C, std::ostream *OS) { *OS << C.Name; }

class ImitationEquivalence : public ::testing::TestWithParam<SkeletonCase> {};

std::string substitute(std::string Body, bool Builtin) {
  auto ReplaceAll = [&](const std::string &From, const std::string &To) {
    size_t Pos = 0;
    while ((Pos = Body.find(From, Pos)) != std::string::npos) {
      Body.replace(Pos, From.size(), To);
      Pos += To.size();
    }
  };
  ReplaceAll("@SET", Builtin ? "call-setting-continuation-attachment"
                             : "imitate-setting");
  ReplaceAll("@GET", Builtin ? "call-getting-continuation-attachment"
                             : "imitate-getting");
  ReplaceAll("@CUR", Builtin ? "current-continuation-attachments"
                             : "imitate-current");
  return Body;
}

TEST_P(ImitationEquivalence, Agree) {
  const SkeletonCase &C = GetParam();
  SchemeEngine Builtin;
  std::string BuiltinResult = Builtin.evalToString(substitute(C.Body, true));
  ASSERT_TRUE(Builtin.ok()) << Builtin.lastError();

  SchemeEngine Imitate;
  Imitate.evalOrDie(ImitationLib);
  std::string ImitateResult = Imitate.evalToString(substitute(C.Body, false));
  ASSERT_TRUE(Imitate.ok()) << Imitate.lastError();

  EXPECT_EQ(BuiltinResult, ImitateResult) << "case: " << C.Name;
}

const SkeletonCase Skeletons[] = {
    {"tail-set-get",
     "(define (peek) (@GET 'none (lambda (a) a)))"
     "(@SET 'v (lambda () (peek)))"},
    {"nontail-get-fresh",
     "(define (peek) (@GET 'none (lambda (a) a)))"
     "(@SET 'v (lambda () (list (peek))))"},
    {"replace-on-frame",
     "(@SET 'a (lambda () (@SET 'b (lambda () (@CUR)))))"},
    {"nested-frames",
     "(@SET 'outer (lambda () (car (list (@SET 'inner (lambda () (@CUR)))))))"},
    {"loop-with-sets",
     "(define (loop i acc)"
     "  (if (zero? i)"
     "      acc"
     "      (loop (- i 1) (+ acc (car (list (@SET i (lambda () (length (@CUR))))))))))"
     "(loop 50 0)"},
    {"deep-recursion",
     "(define (deep n)"
     "  (if (zero? n)"
     "      (length (@CUR))"
     "      (car (list (@SET n (lambda () (deep (- n 1))))))))"
     "(deep 40)"},
    {"tail-chain",
     "(define (g) (@CUR))"
     "(define (f) (@SET 'from-f (lambda () (g))))"
     "(@SET 'caller (lambda () (cons 'r (f))))"},
};

INSTANTIATE_TEST_SUITE_P(Attachments, ImitationEquivalence,
                         ::testing::ValuesIn(Skeletons),
                         [](const ::testing::TestParamInfo<SkeletonCase> &I) {
                           std::string N = I.param.Name;
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

TEST(ImitationMechanism, SameContinuationCapturesAreEq) {
  // The property figure 3 depends on.
  SchemeEngine E;
  expectEval(E,
             "(define (grab) (#%call/cc (lambda (k) k)))"
             "(define (both) (let ([a (grab)] [b (grab)]) (eq? a b)))"
             "(both)",
             "#f"); // Different continuations: different records.
  // A tail-position capture of an already-reified continuation returns the
  // existing record: figure 3's nested-k pattern.
  expectEval(E,
             "(define k1 #f)"
             "(#%call/cc (lambda (nested-k)"
             "  (set! k1 nested-k)"
             "  ((lambda () (#%call/cc (lambda (k) (eq? k k1)))))))",
             "#t");
}

} // namespace
