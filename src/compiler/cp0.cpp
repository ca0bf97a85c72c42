//===- compiler/cp0.cpp - Source-level simplification ---------*- C++ -*-===//
///
/// \file
/// A cp0-style simplifier: constant folding, if/begin simplification,
/// beta-reduction of immediately applied lambdas, and let elimination.
/// Two behaviours from the paper live here:
///
///  * Section 7.4: the simplification (let ([x E]) x) => E is disabled when
///    the let is in tail position and E could be observed through
///    continuation attachments, because eliding the binding would move E
///    into tail position and change which frame carries marks. The "unmod"
///    compiler variant (AttachmentConstraint = false) keeps the aggressive
///    rule.
///
///  * Section 7.3: a with-continuation-mark whose body cannot inspect marks
///    (after expansion: an attachment set whose body is a constant or
///    variable reference) is removed entirely when the mark value
///    expression is pure, so (let ([x 5]) (with-continuation-mark 'k 'v x))
///    folds to 5.
///
//===----------------------------------------------------------------------===//

#include "compiler/compiler.h"

#include "runtime/heap.h"
#include "runtime/numbers.h"
#include "runtime/symbols.h"

#include <unordered_set>

using namespace cmk;

namespace {

class Cp0 {
public:
  Cp0(AstContext &Ctx, const CompilerOptions &Opts, const WellKnown &WK)
      : Ctx(Ctx), Opts(Opts), WK(WK) {}

  Node *simplify(Node *N, bool Tail);

private:
  Node *simplifyLet(LetNode *L, bool Tail);
  Node *simplifyCall(CallNode *C, bool Tail);
  Node *foldPrim(Value Sym, const std::vector<Node *> &Args);

  bool isPure(Node *N) const;
  /// True if evaluating \p N could observe or change attachment state:
  /// conservatively, any call or attachment operation.
  bool isObservable(Node *N) const;
  static int countRefs(Node *N, Var *V);
  static void substitute(Node *N, Var *V, Node *Replacement, AstContext &Ctx);

  AstContext &Ctx;
  const CompilerOptions &Opts;
  const WellKnown &WK;
};

bool Cp0::isPure(Node *N) const {
  switch (N->K) {
  case NodeKind::Const:
  case NodeKind::LocalRef:
  case NodeKind::Lambda:
    return true;
  case NodeKind::Call: {
    auto *C = static_cast<CallNode *>(N);
    if (C->Fn->K != NodeKind::GlobalRef)
      return false;
    Value Sym = asGlobalRef(C->Fn)->Sym;
    // Only primitives that neither error nor side-effect for any inputs.
    // (Arithmetic can raise type errors, so it does not qualify.)
    static const char *SafePrims[] = {"not",  "eq?",  "null?", "pair?",
                                      "cons", "list", "#%mark-frame-update"};
    bool Safe = false;
    uint32_t Len;
    const char *Name = stringData(Sym, Len);
    for (const char *P : SafePrims)
      if (Len == std::strlen(P) && std::memcmp(Name, P, Len) == 0)
        Safe = true;
    if (!Safe)
      return false;
    for (Node *A : C->Args)
      if (!isPure(A))
        return false;
    return true;
  }
  default:
    return false;
  }
}

bool Cp0::isObservable(Node *N) const {
  switch (N->K) {
  case NodeKind::Const:
  case NodeKind::LocalRef:
  case NodeKind::GlobalRef:
  case NodeKind::Lambda: // Not entered here.
    return false;
  case NodeKind::LocalSet:
    return isObservable(static_cast<LocalSetNode *>(N)->Rhs);
  case NodeKind::GlobalSet:
    return isObservable(static_cast<GlobalSetNode *>(N)->Rhs);
  case NodeKind::If: {
    auto *I = static_cast<IfNode *>(N);
    return isObservable(I->Test) || isObservable(I->Then) ||
           isObservable(I->Else);
  }
  case NodeKind::Begin: {
    for (Node *B : static_cast<BeginNode *>(N)->Body)
      if (isObservable(B))
        return true;
    return false;
  }
  case NodeKind::Let: {
    auto *L = static_cast<LetNode *>(N);
    for (Node *I : L->Inits)
      if (isObservable(I))
        return true;
    return isObservable(L->Body);
  }
  case NodeKind::Call: {
    auto *C = static_cast<CallNode *>(N);
    // A call to an inlinable primitive cannot observe attachments
    // (paper 7.2); anything else might.
    if (Opts.EnablePrimRecognition && C->Fn->K == NodeKind::GlobalRef &&
        isInlinablePrim(WK, asGlobalRef(C->Fn)->Sym)) {
      for (Node *A : C->Args)
        if (isObservable(A))
          return true;
      return false;
    }
    return true;
  }
  case NodeKind::Attach:
    return true;
  }
  CMK_UNREACHABLE("unhandled node kind");
}

int Cp0::countRefs(Node *N, Var *V) {
  switch (N->K) {
  case NodeKind::Const:
  case NodeKind::GlobalRef:
    return 0;
  case NodeKind::LocalRef:
    return static_cast<LocalRefNode *>(N)->V == V ? 1 : 0;
  case NodeKind::LocalSet: {
    auto *S = static_cast<LocalSetNode *>(N);
    return (S->V == V ? 1 : 0) + countRefs(S->Rhs, V);
  }
  case NodeKind::GlobalSet:
    return countRefs(static_cast<GlobalSetNode *>(N)->Rhs, V);
  case NodeKind::If: {
    auto *I = static_cast<IfNode *>(N);
    return countRefs(I->Test, V) + countRefs(I->Then, V) +
           countRefs(I->Else, V);
  }
  case NodeKind::Begin: {
    int N2 = 0;
    for (Node *B : static_cast<BeginNode *>(N)->Body)
      N2 += countRefs(B, V);
    return N2;
  }
  case NodeKind::Let: {
    auto *L = static_cast<LetNode *>(N);
    int N2 = countRefs(L->Body, V);
    for (Node *I : L->Inits)
      N2 += countRefs(I, V);
    return N2;
  }
  case NodeKind::Lambda:
    return countRefs(static_cast<LambdaNode *>(N)->Body, V);
  case NodeKind::Call: {
    auto *C = static_cast<CallNode *>(N);
    int N2 = countRefs(C->Fn, V);
    for (Node *A : C->Args)
      N2 += countRefs(A, V);
    return N2;
  }
  case NodeKind::Attach: {
    auto *A = static_cast<AttachNode *>(N);
    int N2 = countRefs(A->ValOrDflt, V) + countRefs(A->Body, V);
    if (A->Key)
      N2 += countRefs(A->Key, V);
    return N2;
  }
  }
  CMK_UNREACHABLE("unhandled node kind");
}

void Cp0::substitute(Node *N, Var *V, Node *Replacement, AstContext &Ctx) {
  auto Clone = [&]() -> Node * {
    if (Replacement->K == NodeKind::Const)
      return Ctx.make<ConstNode>(static_cast<ConstNode *>(Replacement)->V);
    return Ctx.make<LocalRefNode>(static_cast<LocalRefNode *>(Replacement)->V);
  };
  switch (N->K) {
  case NodeKind::Const:
  case NodeKind::GlobalRef:
  case NodeKind::LocalRef:
    return; // LocalRef handled by the parent (needs slot replacement).
  case NodeKind::LocalSet: {
    auto *S = static_cast<LocalSetNode *>(N);
    if (S->Rhs->K == NodeKind::LocalRef &&
        static_cast<LocalRefNode *>(S->Rhs)->V == V)
      S->Rhs = Clone();
    else
      substitute(S->Rhs, V, Replacement, Ctx);
    return;
  }
  case NodeKind::GlobalSet: {
    auto *S = static_cast<GlobalSetNode *>(N);
    if (S->Rhs->K == NodeKind::LocalRef &&
        static_cast<LocalRefNode *>(S->Rhs)->V == V)
      S->Rhs = Clone();
    else
      substitute(S->Rhs, V, Replacement, Ctx);
    return;
  }
  case NodeKind::If: {
    auto *I = static_cast<IfNode *>(N);
    Node **Slots[] = {&I->Test, &I->Then, &I->Else};
    for (Node **Slot : Slots) {
      if ((*Slot)->K == NodeKind::LocalRef &&
          static_cast<LocalRefNode *>(*Slot)->V == V)
        *Slot = Clone();
      else
        substitute(*Slot, V, Replacement, Ctx);
    }
    return;
  }
  case NodeKind::Begin: {
    for (Node *&B : static_cast<BeginNode *>(N)->Body) {
      if (B->K == NodeKind::LocalRef && static_cast<LocalRefNode *>(B)->V == V)
        B = Clone();
      else
        substitute(B, V, Replacement, Ctx);
    }
    return;
  }
  case NodeKind::Let: {
    auto *L = static_cast<LetNode *>(N);
    for (Node *&I : L->Inits) {
      if (I->K == NodeKind::LocalRef && static_cast<LocalRefNode *>(I)->V == V)
        I = Clone();
      else
        substitute(I, V, Replacement, Ctx);
    }
    if (L->Body->K == NodeKind::LocalRef &&
        static_cast<LocalRefNode *>(L->Body)->V == V)
      L->Body = Clone();
    else
      substitute(L->Body, V, Replacement, Ctx);
    return;
  }
  case NodeKind::Lambda: {
    auto *L = static_cast<LambdaNode *>(N);
    if (L->Body->K == NodeKind::LocalRef &&
        static_cast<LocalRefNode *>(L->Body)->V == V)
      L->Body = Clone();
    else
      substitute(L->Body, V, Replacement, Ctx);
    return;
  }
  case NodeKind::Call: {
    auto *C = static_cast<CallNode *>(N);
    if (C->Fn->K == NodeKind::LocalRef &&
        static_cast<LocalRefNode *>(C->Fn)->V == V)
      C->Fn = Clone();
    else
      substitute(C->Fn, V, Replacement, Ctx);
    for (Node *&A : C->Args) {
      if (A->K == NodeKind::LocalRef && static_cast<LocalRefNode *>(A)->V == V)
        A = Clone();
      else
        substitute(A, V, Replacement, Ctx);
    }
    return;
  }
  case NodeKind::Attach: {
    auto *A = static_cast<AttachNode *>(N);
    Node **Slots[] = {&A->ValOrDflt, &A->Body};
    for (Node **Slot : Slots) {
      if ((*Slot)->K == NodeKind::LocalRef &&
          static_cast<LocalRefNode *>(*Slot)->V == V)
        *Slot = Clone();
      else
        substitute(*Slot, V, Replacement, Ctx);
    }
    if (A->Key) {
      if (A->Key->K == NodeKind::LocalRef &&
          static_cast<LocalRefNode *>(A->Key)->V == V)
        A->Key = Clone();
      else
        substitute(A->Key, V, Replacement, Ctx);
    }
    return;
  }
  }
}

Node *Cp0::foldPrim(Value Sym, const std::vector<Node *> &Args) {
  uint32_t Len;
  const char *Name = stringData(Sym, Len);
  std::string S(Name, Len);
  std::vector<Value> Vs;
  for (Node *A : Args)
    Vs.push_back(static_cast<ConstNode *>(A)->V);

  auto Fix2 = [&](int64_t &A, int64_t &B) {
    if (Vs.size() != 2 || !Vs[0].isFixnum() || !Vs[1].isFixnum())
      return false;
    A = Vs[0].asFixnum();
    B = Vs[1].asFixnum();
    return true;
  };

  int64_t A, B;
  if (S == "+" && Fix2(A, B) && fitsFixnum(A + B))
    return Ctx.make<ConstNode>(Value::fixnum(A + B));
  if (S == "-" && Fix2(A, B) && fitsFixnum(A - B))
    return Ctx.make<ConstNode>(Value::fixnum(A - B));
  if (S == "*" && Fix2(A, B)) {
    int64_t R;
    if (!__builtin_mul_overflow(A, B, &R) && fitsFixnum(R))
      return Ctx.make<ConstNode>(Value::fixnum(R));
  }
  if (S == "<" && Fix2(A, B))
    return Ctx.make<ConstNode>(Value::boolean(A < B));
  if (S == "<=" && Fix2(A, B))
    return Ctx.make<ConstNode>(Value::boolean(A <= B));
  if (S == ">" && Fix2(A, B))
    return Ctx.make<ConstNode>(Value::boolean(A > B));
  if (S == ">=" && Fix2(A, B))
    return Ctx.make<ConstNode>(Value::boolean(A >= B));
  if (S == "=" && Fix2(A, B))
    return Ctx.make<ConstNode>(Value::boolean(A == B));
  if (S == "not" && Vs.size() == 1)
    return Ctx.make<ConstNode>(Value::boolean(Vs[0].isFalse()));
  if (S == "eq?" && Vs.size() == 2)
    return Ctx.make<ConstNode>(Value::boolean(Vs[0] == Vs[1]));
  if (S == "null?" && Vs.size() == 1)
    return Ctx.make<ConstNode>(Value::boolean(Vs[0].isNil()));
  if (S == "pair?" && Vs.size() == 1)
    return Ctx.make<ConstNode>(Value::boolean(Vs[0].isPair()));
  if (S == "zero?" && Vs.size() == 1 && Vs[0].isFixnum())
    return Ctx.make<ConstNode>(Value::boolean(Vs[0].asFixnum() == 0));
  return nullptr;
}

Node *Cp0::simplify(Node *N, bool Tail) {
  switch (N->K) {
  case NodeKind::Const:
  case NodeKind::LocalRef:
  case NodeKind::GlobalRef:
    return N;
  case NodeKind::LocalSet: {
    auto *S = static_cast<LocalSetNode *>(N);
    S->Rhs = simplify(S->Rhs, false);
    return S;
  }
  case NodeKind::GlobalSet: {
    auto *S = static_cast<GlobalSetNode *>(N);
    S->Rhs = simplify(S->Rhs, false);
    return S;
  }
  case NodeKind::If: {
    auto *I = static_cast<IfNode *>(N);
    I->Test = simplify(I->Test, false);
    I->Then = simplify(I->Then, Tail);
    I->Else = simplify(I->Else, Tail);
    if (I->Test->K == NodeKind::Const)
      return static_cast<ConstNode *>(I->Test)->V.isTruthy() ? I->Then
                                                             : I->Else;
    return I;
  }
  case NodeKind::Begin: {
    auto *B = static_cast<BeginNode *>(N);
    std::vector<Node *> Out;
    for (size_t I = 0; I < B->Body.size(); ++I) {
      bool Last = I + 1 == B->Body.size();
      Node *E = simplify(B->Body[I], Last && Tail);
      if (E->K == NodeKind::Begin) {
        auto *Inner = static_cast<BeginNode *>(E);
        for (size_t J = 0; J < Inner->Body.size(); ++J) {
          bool InnerLast = Last && J + 1 == Inner->Body.size();
          if (!InnerLast && isPure(Inner->Body[J]))
            continue;
          Out.push_back(Inner->Body[J]);
        }
        continue;
      }
      if (!Last && isPure(E))
        continue;
      Out.push_back(E);
    }
    if (Out.empty())
      return Ctx.make<ConstNode>(Value::voidValue());
    if (Out.size() == 1)
      return Out[0];
    B->Body = std::move(Out);
    return B;
  }
  case NodeKind::Let:
    return simplifyLet(static_cast<LetNode *>(N), Tail);
  case NodeKind::Lambda: {
    auto *L = static_cast<LambdaNode *>(N);
    L->Body = simplify(L->Body, /*Tail=*/true);
    return L;
  }
  case NodeKind::Call:
    return simplifyCall(static_cast<CallNode *>(N), Tail);
  case NodeKind::Attach: {
    auto *A = static_cast<AttachNode *>(N);
    if (A->Key)
      A->Key = simplify(A->Key, false);
    A->ValOrDflt = simplify(A->ValOrDflt, false);
    A->Body = simplify(A->Body, Tail);
    // Paper 7.3: drop a mark whose body cannot inspect marks.
    if (A->Op == AttachOp::Set &&
        (A->Body->K == NodeKind::Const || A->Body->K == NodeKind::LocalRef) &&
        isPure(A->ValOrDflt))
      return A->Body;
    if ((A->Op == AttachOp::Consume || A->Op == AttachOp::Get) && A->BodyVar &&
        (A->Body->K == NodeKind::Const ||
         (A->Body->K == NodeKind::LocalRef &&
          static_cast<LocalRefNode *>(A->Body)->V != A->BodyVar)) &&
        isPure(A->ValOrDflt) && A->Op == AttachOp::Get)
      return A->Body;
    return A;
  }
  }
  CMK_UNREACHABLE("unhandled node kind");
}

Node *Cp0::simplifyLet(LetNode *L, bool Tail) {
  for (Node *&I : L->Inits)
    I = simplify(I, false);

  // Substitute copyable bindings and drop dead pure bindings.
  std::vector<Var *> Vars;
  std::vector<Node *> Inits;
  std::vector<Node *> Effects;
  for (size_t I = 0; I < L->Vars.size(); ++I) {
    Var *V = L->Vars[I];
    Node *Init = L->Inits[I];
    if (!V->Mutated) {
      bool Copyable =
          Init->K == NodeKind::Const ||
          (Init->K == NodeKind::LocalRef &&
           !static_cast<LocalRefNode *>(Init)->V->Mutated);
      if (Copyable) {
        if (L->Body->K == NodeKind::LocalRef &&
            static_cast<LocalRefNode *>(L->Body)->V == V)
          L->Body = Init->K == NodeKind::Const
                        ? static_cast<Node *>(Ctx.make<ConstNode>(
                              static_cast<ConstNode *>(Init)->V))
                        : static_cast<Node *>(Ctx.make<LocalRefNode>(
                              static_cast<LocalRefNode *>(Init)->V));
        else
          substitute(L->Body, V, Init, Ctx);
        continue;
      }
      if (countRefs(L->Body, V) == 0) {
        if (isPure(Init))
          continue; // Drop entirely.
        Effects.push_back(Init);
        continue;
      }
    }
    Vars.push_back(V);
    Inits.push_back(Init);
  }
  L->Vars = std::move(Vars);
  L->Inits = std::move(Inits);
  L->Body = simplify(L->Body, Tail);

  Node *Result = L;
  if (L->Vars.empty()) {
    Result = L->Body;
  } else if (L->Vars.size() == 1 && L->Body->K == NodeKind::LocalRef &&
             static_cast<LocalRefNode *>(L->Body)->V == L->Vars[0] &&
             !L->Vars[0]->Mutated) {
    // (let ([x E]) x) => E. Paper 7.4: in tail position this moves E into
    // tail position, which is observable through attachments; keep the
    // binding unless E is provably invisible to attachment operations.
    Node *Init = L->Inits[0];
    if (!Opts.AttachmentConstraint || !Tail || !isObservable(Init))
      Result = Init;
  }

  if (Effects.empty())
    return Result;
  Effects.push_back(Result);
  return simplify(Ctx.make<BeginNode>(std::move(Effects)), Tail);
}

Node *Cp0::simplifyCall(CallNode *C, bool Tail) {
  C->Fn = simplify(C->Fn, false);
  for (Node *&A : C->Args)
    A = simplify(A, false);

  // Beta-reduce an immediately applied lambda into a let.
  if (C->Fn->K == NodeKind::Lambda) {
    auto *L = static_cast<LambdaNode *>(C->Fn);
    if (!L->HasRest && L->Params.size() == C->Args.size()) {
      Node *LetN = Ctx.make<LetNode>(L->Params, C->Args, L->Body);
      return simplify(LetN, Tail);
    }
  }

  // Constant folding for primitive applications.
  if (C->Fn->K == NodeKind::GlobalRef) {
    bool AllConst = true;
    for (Node *A : C->Args)
      if (A->K != NodeKind::Const)
        AllConst = false;
    if (AllConst)
      if (Node *Folded = foldPrim(asGlobalRef(C->Fn)->Sym, C->Args))
        return Folded;
  }
  return C;
}

} // namespace

Node *cmk::runCp0(AstContext &Ctx, Node *N, const CompilerOptions &Opts,
                  const WellKnown &WK) {
  Cp0 Pass(Ctx, Opts, WK);
  return Pass.simplify(N, /*Tail=*/true);
}
