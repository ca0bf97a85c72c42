//===- compiler/attachments_pass.cpp - Categorize attachment ops -*- C++ -*-==//
///
/// \file
/// Implements the analysis of paper section 7.2: each recognized
/// call-*-continuation-attachment form is placed in one of three categories
/// based on its position. The code generator re-derives the same structure
/// while emitting; this pass records the categories on the nodes (and
/// aggregate statistics) so tests can verify the classification directly.
///
//===----------------------------------------------------------------------===//

#include "compiler/compiler.h"

#include "runtime/symbols.h"

using namespace cmk;

// True if some tail position of N is a call that is not an inlinable
// primitive application. Such a call forces the "non-tail with tail call in
// body" treatment (paper 7.2), because the callee's frame must carry/pop
// the attachment via an underflow record.
bool cmk::bodyHasTailCall(const WellKnown &WK, Node *N,
                          const CompilerOptions &Opts) {
  switch (N->K) {
  case NodeKind::Const:
  case NodeKind::LocalRef:
  case NodeKind::GlobalRef:
  case NodeKind::LocalSet:
  case NodeKind::GlobalSet:
  case NodeKind::Lambda:
    return false;
  case NodeKind::If: {
    auto *I = static_cast<IfNode *>(N);
    return bodyHasTailCall(WK, I->Then, Opts) ||
           bodyHasTailCall(WK, I->Else, Opts);
  }
  case NodeKind::Begin:
    return bodyHasTailCall(WK, static_cast<BeginNode *>(N)->Body.back(), Opts);
  case NodeKind::Let:
    return bodyHasTailCall(WK, static_cast<LetNode *>(N)->Body, Opts);
  case NodeKind::Call: {
    auto *C = static_cast<CallNode *>(N);
    if (Opts.EnablePrimRecognition && C->Fn->K == NodeKind::GlobalRef &&
        isInlinablePrim(WK, asGlobalRef(C->Fn)->Sym))
      return false; // Paper: "+ does not tail-call any function that might
                    // inspect or manipulate continuation attachments".
    return true;
  }
  case NodeKind::Attach:
    return bodyHasTailCall(WK, static_cast<AttachNode *>(N)->Body, Opts);
  }
  CMK_UNREACHABLE("unhandled node kind");
}

namespace {

class AttachmentPass {
public:
  AttachmentPass(const WellKnown &WK, const CompilerOptions &Opts,
                 AttachPassStats &Stats)
      : WK(WK), Opts(Opts), Stats(Stats) {}

  void walk(Node *N, bool Tail) {
    switch (N->K) {
    case NodeKind::Const:
    case NodeKind::LocalRef:
    case NodeKind::GlobalRef:
      return;
    case NodeKind::LocalSet:
      walk(static_cast<LocalSetNode *>(N)->Rhs, false);
      return;
    case NodeKind::GlobalSet:
      walk(static_cast<GlobalSetNode *>(N)->Rhs, false);
      return;
    case NodeKind::If: {
      auto *I = static_cast<IfNode *>(N);
      walk(I->Test, false);
      walk(I->Then, Tail);
      walk(I->Else, Tail);
      return;
    }
    case NodeKind::Begin: {
      auto *B = static_cast<BeginNode *>(N);
      for (size_t I = 0; I < B->Body.size(); ++I)
        walk(B->Body[I], Tail && I + 1 == B->Body.size());
      return;
    }
    case NodeKind::Let: {
      auto *L = static_cast<LetNode *>(N);
      for (Node *I : L->Inits)
        walk(I, false);
      walk(L->Body, Tail);
      return;
    }
    case NodeKind::Lambda:
      walk(static_cast<LambdaNode *>(N)->Body, /*Tail=*/true);
      return;
    case NodeKind::Call: {
      auto *C = static_cast<CallNode *>(N);
      walk(C->Fn, false);
      for (Node *A : C->Args)
        walk(A, false);
      return;
    }
    case NodeKind::Attach: {
      auto *A = static_cast<AttachNode *>(N);
      if (A->Key)
        walk(A->Key, false);
      walk(A->ValOrDflt, false);
      if (A->Op == AttachOp::MStkWcm) {
        walk(A->Body, Tail);
        return;
      }
      if (Tail) {
        A->Category = AttachCategory::Tail;
        ++Stats.TailOps;
        // Consume-set fusion: with-continuation-mark's expansion puts a
        // set directly in the tail of a consume; the set can skip its
        // reification check because the consume already reified.
        if (A->Op != AttachOp::Set && A->Body->K == NodeKind::Attach) {
          auto *Inner = static_cast<AttachNode *>(A->Body);
          if (Inner->Op == AttachOp::Set) {
            Inner->StateBefore = AttachState::Absent; // Known reified.
            ++Stats.FusedConsumeSet;
          }
        }
        walk(A->Body, /*Tail=*/true);
        return;
      }
      bool HasCall = bodyHasTailCall(WK, A->Body, Opts);
      A->Category = HasCall ? AttachCategory::NonTailWithCall
                            : AttachCategory::NonTailNoCall;
      if (HasCall)
        ++Stats.NonTailWithCallOps;
      else
        ++Stats.NonTailNoCallOps;
      walk(A->Body, false);
      return;
    }
    }
    CMK_UNREACHABLE("unhandled node kind");
  }

private:
  const WellKnown &WK;
  const CompilerOptions &Opts;
  AttachPassStats &Stats;
};

} // namespace

void cmk::runAttachmentPass(const WellKnown &WK, Node *N,
                            const CompilerOptions &Opts,
                            AttachPassStats &Stats) {
  AttachmentPass Pass(WK, Opts, Stats);
  Pass.walk(N, /*Tail=*/true);
}
