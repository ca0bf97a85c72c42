//===- compiler/codegen.cpp - Bytecode generation --------------*- C++ -*-===//
///
/// \file
/// Emits bytecode from the core AST. The attachment-operation strategies of
/// paper section 7.2 live here:
///
///  * Tail category: Reify + AttachSet/AttachGet/AttachConsume opcodes with
///    a runtime reification check; the consume-set sequence produced by
///    with-continuation-mark shares a single reification.
///  * Non-tail with a tail call in the body: the marks register is pushed
///    directly, and each tail call inside the body compiles to CallAttach,
///    which reifies the continuation at the new frame and installs
///    (rest marks) in the underflow record so the callee sees the
///    attachment and returning pops it.
///  * Non-tail without a tail call: pure MarksPush/MarksPop/MarksSetTop/
///    MarksTop operations with statically known attachment presence.
///
//===----------------------------------------------------------------------===//

#include "compiler/compiler.h"

#include "compiler/bytecode.h"
#include "runtime/heap.h"
#include "runtime/symbols.h"

#include <algorithm>
#include <unordered_map>

using namespace cmk;

bool cmk::isInlinablePrim(const WellKnown &WK, Value Sym) {
  (void)WK;
  if (!Sym.isSymbol())
    return false;
  static const char *Prims[] = {
      "+",     "-",       "*",        "<",        "<=",        ">",
      ">=",    "=",       "car",      "cdr",      "cons",      "null?",
      "pair?", "not",     "eq?",      "zero?",    "add1",      "sub1",
      "vector-ref", "vector-set!",    "set-car!", "set-cdr!",
  };
  uint32_t Len;
  const char *Name = stringData(Sym, Len);
  for (const char *P : Prims)
    if (Len == std::strlen(P) && std::memcmp(Name, P, Len) == 0)
      return true;
  return false;
}

namespace {

/// Static attachment presence on the conceptual frame created by a
/// non-tail attachment operation (paper 7.2, third category).
enum class NTState { Absent, Present };

class FnEmitter {
public:
  FnEmitter(Heap &H, GlobalEnv &Globals, const WellKnown &WK,
            const CompilerOptions &Opts, std::string *Err)
      : H(H), Globals(Globals), WK(WK), Opts(Opts), Err(Err) {}

  /// Emits \p L into a CodeObj value; returns undefined on error.
  Value emitFunction(LambdaNode *L);

private:
  // --- Emission helpers ------------------------------------------------------

  void push(int N = 1) {
    Depth += N;
    MaxDepth = std::max(MaxDepth, Depth);
  }
  void pop(int N = 1) { Depth -= N; }

  uint16_t constIdx(Value V) {
    for (size_t I = 0; I < Consts.size(); ++I)
      if (Consts[I] == V)
        return static_cast<uint16_t>(I);
    Consts.push_back(V);
    CMK_CHECK(Consts.size() < 65536, "constant pool overflow");
    return static_cast<uint16_t>(Consts.size() - 1);
  }

  void emitPushConst(Value V) {
    Buf.emitOp(Op::PushConst);
    Buf.emitU16(constIdx(V));
    push();
  }

  void fail(const std::string &Msg) {
    if (Err && Err->empty())
      *Err = Msg;
  }

  int assignSlot(Var *V) {
    V->Slot = NumLocals++;
    return V->Slot;
  }

  /// Emits the result-discarding or Return epilogue for a value already on
  /// the stack in tail position.
  void emitReturn() {
    Buf.emitOp(Op::Return);
    pop();
  }

  // --- Expression compilation -------------------------------------------------

  void compileExpr(Node *N, bool Tail);
  void compileVarRef(Var *V);
  void bindVar(Var *V); ///< Pops the stack top into a fresh slot for V.
  void compileCall(CallNode *C, bool Tail);
  bool tryInlinePrim(CallNode *C);
  void compileAttach(AttachNode *A, bool Tail);
  void compileAttachNT(AttachNode *A, NTState State);
  void compileNTBody(Node *N, NTState State);
  void compileMstkWcm(AttachNode *A, bool Tail);

  Heap &H;
  GlobalEnv &Globals;
  const WellKnown &WK;
  const CompilerOptions &Opts;
  std::string *Err;

  LambdaNode *L = nullptr;
  BytecodeBuffer Buf;
  std::vector<Value> Consts;
  std::unordered_map<Var *, int> FreeIdx;
  int NumLocals = 0;
  int Depth = 0;
  int MaxDepth = 0;
};

Value FnEmitter::emitFunction(LambdaNode *Fn) {
  L = Fn;
  for (Var *P : Fn->Params)
    assignSlot(P);
  for (size_t I = 0; I < Fn->FreeVars.size(); ++I)
    FreeIdx[Fn->FreeVars[I]] = static_cast<int>(I);

  // Boxed (mutated) parameters get wrapped on entry.
  for (Var *P : Fn->Params)
    if (P->boxed()) {
      Buf.emitOp(Op::BoxLocal);
      Buf.emitU16(static_cast<uint16_t>(P->Slot));
    }

  compileExpr(Fn->Body, /*Tail=*/true);

  if (Err && !Err->empty())
    return Value::undefined();

  uint32_t Flags = Fn->HasRest ? codeflags::HasRestArg : 0;
  uint32_t FrameSize = FrameHeaderSlots + NumLocals + MaxDepth + 8;
  std::vector<uint8_t> Bytes = Buf.bytes();
  if (Opts.EnablePeephole)
    Bytes = runPeephole(Bytes);
  return H.makeCode(static_cast<uint32_t>(Fn->Params.size()),
                    static_cast<uint32_t>(NumLocals), FrameSize, Flags,
                    Fn->Name, Consts, Bytes);
}

void FnEmitter::compileVarRef(Var *V) {
  auto It = FreeIdx.find(V);
  if (It != FreeIdx.end()) {
    Buf.emitOp(V->boxed() ? Op::PushFreeBox : Op::PushFree);
    Buf.emitU16(static_cast<uint16_t>(It->second));
  } else {
    CMK_CHECK(V->Slot >= 0, "variable referenced before slot assignment");
    Buf.emitOp(V->boxed() ? Op::PushLocalBox : Op::PushLocal);
    Buf.emitU16(static_cast<uint16_t>(V->Slot));
  }
  push();
}

void FnEmitter::bindVar(Var *V) {
  assignSlot(V);
  Buf.emitOp(Op::SetLocal);
  Buf.emitU16(static_cast<uint16_t>(V->Slot));
  pop();
  if (V->boxed()) {
    Buf.emitOp(Op::BoxLocal);
    Buf.emitU16(static_cast<uint16_t>(V->Slot));
  }
}

void FnEmitter::compileExpr(Node *N, bool Tail) {
  if (Err && !Err->empty())
    return;
  switch (N->K) {
  case NodeKind::Const:
    emitPushConst(static_cast<ConstNode *>(N)->V);
    if (Tail)
      emitReturn();
    return;
  case NodeKind::LocalRef:
    compileVarRef(static_cast<LocalRefNode *>(N)->V);
    if (Tail)
      emitReturn();
    return;
  case NodeKind::GlobalRef: {
    Value Cell = Globals.globalCell(static_cast<GlobalRefNode *>(N)->Sym);
    Buf.emitOp(Op::PushGlobal);
    Buf.emitU16(constIdx(Cell));
    push();
    if (Tail)
      emitReturn();
    return;
  }
  case NodeKind::LocalSet: {
    auto *S = static_cast<LocalSetNode *>(N);
    compileExpr(S->Rhs, false);
    Var *V = S->V;
    CMK_CHECK(V->boxed(), "set! target must be boxed");
    auto It = FreeIdx.find(V);
    if (It != FreeIdx.end()) {
      Buf.emitOp(Op::SetFreeBox);
      Buf.emitU16(static_cast<uint16_t>(It->second));
    } else {
      Buf.emitOp(Op::SetLocalBox);
      Buf.emitU16(static_cast<uint16_t>(V->Slot));
    }
    pop();
    emitPushConst(Value::voidValue());
    if (Tail)
      emitReturn();
    return;
  }
  case NodeKind::GlobalSet: {
    auto *S = static_cast<GlobalSetNode *>(N);
    compileExpr(S->Rhs, false);
    Value Cell = Globals.globalCell(S->Sym);
    Buf.emitOp(S->IsDefine ? Op::DefineGlobal : Op::SetGlobal);
    Buf.emitU16(constIdx(Cell));
    pop();
    emitPushConst(Value::voidValue());
    if (Tail)
      emitReturn();
    return;
  }
  case NodeKind::If: {
    auto *I = static_cast<IfNode *>(N);
    compileExpr(I->Test, false);
    Buf.emitOp(Op::JumpIfFalse);
    pop();
    size_t ElseSlot = Buf.emitJumpSlot();
    int DepthAtBranch = Depth;
    compileExpr(I->Then, Tail);
    if (Tail) {
      Buf.patchU32(ElseSlot, static_cast<uint32_t>(Buf.size()));
      Depth = DepthAtBranch;
      compileExpr(I->Else, true);
      return;
    }
    Buf.emitOp(Op::Jump);
    size_t EndSlot = Buf.emitJumpSlot();
    Buf.patchU32(ElseSlot, static_cast<uint32_t>(Buf.size()));
    Depth = DepthAtBranch;
    compileExpr(I->Else, false);
    Buf.patchU32(EndSlot, static_cast<uint32_t>(Buf.size()));
    return;
  }
  case NodeKind::Begin: {
    auto *B = static_cast<BeginNode *>(N);
    for (size_t I = 0; I + 1 < B->Body.size(); ++I) {
      compileExpr(B->Body[I], false);
      Buf.emitOp(Op::Pop);
      pop();
    }
    compileExpr(B->Body.back(), Tail);
    return;
  }
  case NodeKind::Let: {
    auto *Let = static_cast<LetNode *>(N);
    for (size_t I = 0; I < Let->Vars.size(); ++I) {
      compileExpr(Let->Inits[I], false);
      bindVar(Let->Vars[I]);
    }
    compileExpr(Let->Body, Tail);
    return;
  }
  case NodeKind::Lambda: {
    auto *Fn = static_cast<LambdaNode *>(N);
    FnEmitter Child(H, Globals, WK, Opts, Err);
    Value Code = Child.emitFunction(Fn);
    if (Err && !Err->empty())
      return;
    // Push the closed-over slots (raw: boxes stay boxed).
    for (Var *FV : Fn->FreeVars) {
      auto It = FreeIdx.find(FV);
      if (It != FreeIdx.end()) {
        Buf.emitOp(Op::PushFree);
        Buf.emitU16(static_cast<uint16_t>(It->second));
      } else {
        CMK_CHECK(FV->Slot >= 0, "free variable without a slot");
        Buf.emitOp(Op::PushLocal);
        Buf.emitU16(static_cast<uint16_t>(FV->Slot));
      }
      push();
    }
    Buf.emitOp(Op::MakeClosure);
    Buf.emitU16(constIdx(Code));
    Buf.emitU16(static_cast<uint16_t>(Fn->FreeVars.size()));
    pop(static_cast<int>(Fn->FreeVars.size()));
    push();
    if (Tail)
      emitReturn();
    return;
  }
  case NodeKind::Call:
    compileCall(static_cast<CallNode *>(N), Tail);
    return;
  case NodeKind::Attach:
    compileAttach(static_cast<AttachNode *>(N), Tail);
    return;
  }
  CMK_UNREACHABLE("unhandled node kind");
}

bool FnEmitter::tryInlinePrim(CallNode *C) {
  if (C->Fn->K != NodeKind::GlobalRef)
    return false;
  Value Sym = asGlobalRef(C->Fn)->Sym;
  if (!isInlinablePrim(WK, Sym))
    return false;
  uint32_t Len;
  const char *Name = stringData(Sym, Len);
  std::string S(Name, Len);
  size_t N = C->Args.size();

  auto EmitArgs = [&](size_t Count) {
    for (size_t I = 0; I < Count; ++I)
      compileExpr(C->Args[I], false);
  };
  auto FoldBinary = [&](Op O) {
    compileExpr(C->Args[0], false);
    for (size_t I = 1; I < N; ++I) {
      compileExpr(C->Args[I], false);
      Buf.emitOp(O);
      pop();
    }
  };

  if (S == "+") {
    if (N == 0) {
      emitPushConst(Value::fixnum(0));
      return true;
    }
    if (N == 1) {
      compileExpr(C->Args[0], false);
      emitPushConst(Value::fixnum(0));
      Buf.emitOp(Op::Add);
      pop();
      return true;
    }
    FoldBinary(Op::Add);
    return true;
  }
  if (S == "-") {
    if (N == 0)
      return false;
    if (N == 1) {
      emitPushConst(Value::fixnum(0));
      compileExpr(C->Args[0], false);
      Buf.emitOp(Op::Sub);
      pop();
      return true;
    }
    FoldBinary(Op::Sub);
    return true;
  }
  if (S == "*") {
    if (N == 0) {
      emitPushConst(Value::fixnum(1));
      return true;
    }
    if (N == 1) {
      compileExpr(C->Args[0], false);
      emitPushConst(Value::fixnum(1));
      Buf.emitOp(Op::Mul);
      pop();
      return true;
    }
    FoldBinary(Op::Mul);
    return true;
  }

  struct Simple {
    const char *Name;
    Op O;
    size_t Arity;
  };
  static const Simple Table[] = {
      {"<", Op::NumLt, 2},        {"<=", Op::NumLe, 2},
      {">", Op::NumGt, 2},        {">=", Op::NumGe, 2},
      {"=", Op::NumEq, 2},        {"car", Op::Car, 1},
      {"cdr", Op::Cdr, 1},        {"cons", Op::Cons, 2},
      {"null?", Op::NullP, 1},    {"pair?", Op::PairP, 1},
      {"not", Op::Not, 1},        {"eq?", Op::EqP, 2},
      {"zero?", Op::ZeroP, 1},    {"add1", Op::Add1, 1},
      {"sub1", Op::Sub1, 1},      {"vector-ref", Op::VectorRef, 2},
      {"vector-set!", Op::VectorSet, 3},
      {"set-car!", Op::SetCarBang, 2},
      {"set-cdr!", Op::SetCdrBang, 2},
  };
  for (const Simple &E : Table) {
    if (S != E.Name)
      continue;
    if (N != E.Arity)
      return false; // Fall back to the native for odd arities.
    EmitArgs(N);
    Buf.emitOp(E.O);
    pop(static_cast<int>(N) - 1);
    return true;
  }
  return false;
}

void FnEmitter::compileCall(CallNode *C, bool Tail) {
  if (tryInlinePrim(C)) {
    if (Tail)
      emitReturn();
    return;
  }
  if (Tail) {
    compileExpr(C->Fn, false);
    for (Node *A : C->Args)
      compileExpr(A, false);
    Buf.emitOp(Op::TailCall);
    Buf.emitU16(static_cast<uint16_t>(C->Args.size()));
    pop(static_cast<int>(C->Args.size()) + 1);
    return;
  }
  Buf.emitOp(Op::Frame);
  push(3);
  compileExpr(C->Fn, false);
  for (Node *A : C->Args)
    compileExpr(A, false);
  Buf.emitOp(Op::Call);
  Buf.emitU16(static_cast<uint16_t>(C->Args.size()));
  pop(static_cast<int>(C->Args.size()) + 4);
  push(); // Result.
}

void FnEmitter::compileAttach(AttachNode *A, bool Tail) {
  if (A->Op == AttachOp::MStkWcm) {
    compileMstkWcm(A, Tail);
    return;
  }
  if (!Tail) {
    compileAttachNT(A, NTState::Absent);
    return;
  }

  // Tail category (paper 7.2): runtime-checked operations on a reified
  // continuation.
  switch (A->Op) {
  case AttachOp::Set:
    // StateBefore == Absent marks the consume-set fusion: the enclosing
    // consume already reified, so skip the check here.
    if (A->StateBefore != AttachState::Absent)
      Buf.emitOp(Op::Reify);
    compileExpr(A->ValOrDflt, false);
    Buf.emitOp(Op::AttachSet);
    pop();
    compileExpr(A->Body, true);
    return;
  case AttachOp::Get:
  case AttachOp::Consume: {
    // When the body is a fused set, reify once up front so the set can
    // push without its own check.
    bool Fused = A->Body->K == NodeKind::Attach &&
                 static_cast<AttachNode *>(A->Body)->Op == AttachOp::Set &&
                 static_cast<AttachNode *>(A->Body)->StateBefore ==
                     AttachState::Absent;
    if (Fused)
      Buf.emitOp(Op::Reify);
    compileExpr(A->ValOrDflt, false);
    Buf.emitOp(A->Op == AttachOp::Get ? Op::AttachGet : Op::AttachConsume);
    bindVar(A->BodyVar);
    compileExpr(A->Body, true);
    return;
  }
  case AttachOp::MStkWcm:
    break;
  }
  CMK_UNREACHABLE("unhandled attach op");
}

void FnEmitter::compileAttachNT(AttachNode *A, NTState State) {
  switch (A->Op) {
  case AttachOp::Set:
    compileExpr(A->ValOrDflt, false);
    Buf.emitOp(State == NTState::Absent ? Op::MarksPush : Op::MarksSetTop);
    pop();
    compileNTBody(A->Body, NTState::Present);
    return;
  case AttachOp::Get:
    if (State == NTState::Present) {
      Buf.emitOp(Op::MarksTop);
      push();
    } else {
      compileExpr(A->ValOrDflt, false);
    }
    bindVar(A->BodyVar);
    compileNTBody(A->Body, State);
    return;
  case AttachOp::Consume:
    if (State == NTState::Present) {
      Buf.emitOp(Op::MarksTop);
      push();
      Buf.emitOp(Op::MarksPop);
    } else {
      compileExpr(A->ValOrDflt, false);
    }
    bindVar(A->BodyVar);
    compileNTBody(A->Body, NTState::Absent);
    return;
  case AttachOp::MStkWcm:
    break;
  }
  CMK_UNREACHABLE("unhandled non-tail attach op");
}

/// Compiles an expression in a tail position of a non-tail attachment
/// body. When State is Present, the conceptual frame owns one pushed mark:
/// value paths pop it explicitly, call paths route it through CallAttach.
void FnEmitter::compileNTBody(Node *N, NTState State) {
  if (Err && !Err->empty())
    return;
  switch (N->K) {
  case NodeKind::If: {
    auto *I = static_cast<IfNode *>(N);
    compileExpr(I->Test, false);
    Buf.emitOp(Op::JumpIfFalse);
    pop();
    size_t ElseSlot = Buf.emitJumpSlot();
    int DepthAtBranch = Depth;
    compileNTBody(I->Then, State);
    Buf.emitOp(Op::Jump);
    size_t EndSlot = Buf.emitJumpSlot();
    Buf.patchU32(ElseSlot, static_cast<uint32_t>(Buf.size()));
    Depth = DepthAtBranch;
    compileNTBody(I->Else, State);
    Buf.patchU32(EndSlot, static_cast<uint32_t>(Buf.size()));
    return;
  }
  case NodeKind::Begin: {
    auto *B = static_cast<BeginNode *>(N);
    for (size_t I = 0; I + 1 < B->Body.size(); ++I) {
      compileExpr(B->Body[I], false);
      Buf.emitOp(Op::Pop);
      pop();
    }
    compileNTBody(B->Body.back(), State);
    return;
  }
  case NodeKind::Let: {
    auto *Let = static_cast<LetNode *>(N);
    for (size_t I = 0; I < Let->Vars.size(); ++I) {
      compileExpr(Let->Inits[I], false);
      bindVar(Let->Vars[I]);
    }
    compileNTBody(Let->Body, State);
    return;
  }
  case NodeKind::Attach: {
    auto *A = static_cast<AttachNode *>(N);
    if (A->Op == AttachOp::MStkWcm)
      break; // Treated as a plain value expression below.
    compileAttachNT(A, State);
    return;
  }
  case NodeKind::Call: {
    auto *C = static_cast<CallNode *>(N);
    if (State == NTState::Absent) {
      compileExpr(C, false);
      return;
    }
    // A pending mark. An inlinable primitive cannot observe or change
    // attachments (paper 7.2), so it may run with the mark pushed and pop
    // it afterwards — unless the "no prim" ablation disables exactly this
    // recognition, in which case the primitive is called like any other
    // function through CallAttach.
    if (Opts.EnablePrimRecognition && tryInlinePrim(C)) {
      Buf.emitOp(Op::MarksPop);
      return;
    }
    // Paper 7.2, second category: reify at the new frame with (rest marks)
    // in the underflow record.
    Buf.emitOp(Op::Frame);
    push(3);
    compileExpr(C->Fn, false);
    for (Node *A : C->Args)
      compileExpr(A, false);
    Buf.emitOp(Op::CallAttach);
    Buf.emitU16(static_cast<uint16_t>(C->Args.size()));
    pop(static_cast<int>(C->Args.size()) + 4);
    push();
    return;
  }
  default:
    break;
  }
  // Plain value expression: evaluate, then pop the pending mark.
  compileExpr(N, false);
  if (State == NTState::Present)
    Buf.emitOp(Op::MarksPop);
}

void FnEmitter::compileMstkWcm(AttachNode *A, bool Tail) {
  compileExpr(A->Key, false);
  compileExpr(A->ValOrDflt, false);
  if (Tail) {
    // Entries tagged with the frame are replaced per key and popped when
    // the frame returns (old-Racket behaviour).
    Buf.emitOp(Op::MstkSet);
    pop(2);
    compileExpr(A->Body, true);
    return;
  }
  Buf.emitOp(Op::MstkPush);
  pop(2);
  compileExpr(A->Body, false);
  Buf.emitOp(Op::MstkPop);
}

} // namespace

Value cmk::runCodegen(Heap &H, GlobalEnv &Globals, const WellKnown &WK,
                      LambdaNode *Toplevel, const CompilerOptions &Opts,
                      std::string *ErrOut) {
  FnEmitter Emitter(H, Globals, WK, Opts, ErrOut);
  return Emitter.emitFunction(Toplevel);
}
